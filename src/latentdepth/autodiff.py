"""Reverse-mode autodiff over dense numpy arrays.

Only the operator set the depth networks need: conv2d, per-sample
normalization, relu, add, factor-2 bilinear upsampling, forward-difference
spatial gradients, and scalar reductions. Every op computes in its
operands' dtype, float32 or float64, and allocates nothing wider; no
broadcasting anywhere: shape and dtype agreement is always explicit.
A bilinear resample is one (tn, n) matrix per axis (resize_matrix), which
resample applies: the upsample's forward and the data loader's resize
multiply by the matrices, and the upsample's backward by their transposes.
"""

import numpy as np

# a Tensor keeps the dtype of a float32 or float64 array and converts
# anything else (ints, bools, Python floats) to DTYPE
DTYPE = np.float64
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
BN_EPS = 1e-5     # batch_norm2d's variance offset
FD_EPS = 1e-6     # finite_diff_check's central-difference step
FD_FLOOR = 1e-6   # finite_diff_check's least relative-error denominator


class ShapeMismatchError(ValueError):
    """Raised when operand shapes or dtypes disagree (no silent
    broadcasting or promotion)."""


class GraphError(RuntimeError):
    """Misuse of the recorded computation graph."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


class Tensor:
    """Dense array with an optional gradient slot and a recorded parent op."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOAT_DTYPES else \
            data.astype(DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.shape != ():
            raise ShapeMismatchError("item() on non-scalar tensor of shape %s"
                                     % (self.data.shape,))
        return float(self.data)

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape,
                                                       self.requires_grad)


def _result(data, parents, backward_fn):
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _require_same_dtype(op, a, *others):
    for b in others:
        if b.data.dtype != a.data.dtype:
            raise ShapeMismatchError("%s: dtype %s vs %s"
                                     % (op, a.data.dtype, b.data.dtype))


def _require_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeMismatchError("%s: shape %s vs %s" % (op, a.shape, b.shape))
    _require_same_dtype(op, a, b)


# ---------------------------------------------------------------------------
# elementwise / structural ops

def add(a, b):
    _require_same_shape("add", a, b)

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _result(a.data + b.data, (a, b), bwd)


def sub(a, b):
    _require_same_shape("sub", a, b)

    def bwd(g):
        _accum(a, g)
        _accum(b, -g)

    return _result(a.data - b.data, (a, b), bwd)


def scale(a, c):
    c = float(c)

    def bwd(g):
        _accum(a, c * g)

    return _result(a.data * c, (a,), bwd)


def mul_const(a, arr):
    """Elementwise product with a constant array (no gradient to arr)."""
    arr = np.asarray(arr, dtype=a.data.dtype)
    if arr.shape != a.shape:
        raise ShapeMismatchError("mul_const: shape %s vs %s"
                                 % (a.shape, arr.shape))

    def bwd(g):
        _accum(a, g * arr)

    return _result(a.data * arr, (a,), bwd)


def relu(a):
    mask = a.data > 0  # subgradient at 0 is 0

    def bwd(g):
        _accum(a, g * mask)

    return _result(np.where(mask, a.data, 0.0), (a,), bwd)


# ---------------------------------------------------------------------------
# convolution ("same" zero padding of (k-1)/2, stride 1 or 2)

# a conv lowers its input in blocks of whole output rows, one at a time.
# A backward block holds at most this many elements (16 MB of float32,
# 32 MB of float64), or one output row where a row is larger; a forward
# block is capped here too, which only the paper-scale network's widest
# convs reach
_PATCH_LIMIT = 1 << 22
# a forward block holds at most this many elements (512 KB of float32,
# 1 MB of float64), or 16 times the weights' where that is more, up to
# _PATCH_LIMIT. A block that fits the per-core L2 stays there between its
# copy and the GEMM's packing of it (Goto & van de Geijn, ACM TOMS 2008);
# the floor keeps 16 GEMM columns per output channel, since every GEMM
# call re-packs the whole weight matrix
_FORWARD_BLOCK = 1 << 17


def _im2col(x, kh, kw, stride, top, left, oh, ow, weight_size):
    """The patch matrix of the CxHxW array x, shifted by (top, left) into
    a zero canvas that drops what lies past its far edges, in blocks:
    yields (rows, cols) with rows a slice of the oh output rows and cols
    the C*kh*kw x len(rows)*ow matrix of their windows, laid out as
    (C, kh, kw, rows, ow). A block holds at most min(_PATCH_LIMIT,
    max(_FORWARD_BLOCK, 16 * weight_size)) elements, or one output row.

    Every block is written into one buffer: a yielded block is valid only
    until the next one is requested."""
    c, h, w = x.shape
    hc, wc = stride * (oh - 1) + kh, stride * (ow - 1) + kw
    xc = np.zeros((c, hc, wc), dtype=x.dtype)
    xc[:, top:top + h, left:left + w] = x[:, :hc - top, :wc - left]
    e, k = xc.itemsize, c * kh * kw
    limit = min(_PATCH_LIMIT, max(_FORWARD_BLOCK, 16 * weight_size))
    step = min(oh, max(1, limit // (k * ow)))
    buf = np.empty(k * step * ow, dtype=x.dtype)
    for r0 in range(0, oh, step):
        rows = slice(r0, min(r0 + step, oh))
        n = rows.stop - r0
        cols = buf[:k * n * ow].reshape(c, kh, kw, n, ow)
        np.copyto(cols, np.ndarray(
            (c, kh, kw, n, ow), x.dtype, xc, stride * r0 * wc * e,
            (hc * wc * e, wc * e, e, stride * wc * e, stride * e)))
        # free the canvas before the caller's last GEMM, so that a
        # single-block conv holds only its patch matrix through it
        if rows.stop == oh:
            del xc
        yield rows, cols.reshape(k, n * ow)


def _lower_rows(x, kh, kw, stride, top, left, oh, ow, per_row):
    """Row-shared lowering (MEC, Cho & Brand 2017) of the CxHxW array x,
    shifted by (top, left) into a zero canvas like _im2col's, in blocks:
    yields (rows, v) with rows a slice of the oh output rows and v a
    (len(rows), ow, kh*kw*C) view whose v[r] is the ow x kh*kw*C matrix of
    output row rows.start + r's windows, laid out (kh, kw, C).

    Each block is one contiguous copy of, per output column, the kw*C
    wide strip of the canvas rows its output rows read: vertically
    adjacent windows share kh - stride of their kh rows, so the copy is
    about kh / stride times smaller than the patch matrix. A block holds
    at most _PATCH_LIMIT elements, and so do its per_row * len(rows)
    elements of GEMM results, unless it is one output row."""
    c, h, w = x.shape
    hc, wc = stride * (oh - 1) + kh, stride * (ow - 1) + kw
    xc = np.zeros((hc, wc, c), dtype=x.dtype)
    xc[top:top + h, left:left + w] = x[:, :hc - top, :wc - left].transpose(
        1, 2, 0)
    strip, e = kw * c, xc.itemsize
    step = max(1, min((_PATCH_LIMIT // (ow * strip) - kh) // stride + 1,
                      _PATCH_LIMIT // per_row))
    for r0 in range(0, oh, step):
        rows = slice(r0, min(r0 + step, oh))
        n = rows.stop - r0
        span = stride * (n - 1) + kh
        low = np.ascontiguousarray(np.ndarray(
            (ow, span, strip), x.dtype, xc, stride * r0 * wc * c * e,
            (stride * c * e, wc * c * e, e)))
        if rows.stop == oh:  # as in _im2col
            del xc
        v = np.ndarray((n, ow, kh * strip), x.dtype, low, 0,
                       (stride * strip * e, span * strip * e, e))
        v.flags.writeable = False
        yield rows, v


def _conv_input_grad(g, weight, stride, h, w):
    """Gradient of a "same" conv's CxHxW input from its output gradient g.

    The input rows r, r + stride, ... (a phase) are reached only by the
    kernel rows a, a + stride, ... with a = (r + pad) % stride, and likewise
    for columns. Each phase's gradient is a stride-1 correlation of g,
    shifted into a zero canvas, with those taps flipped and their channels
    swapped: the transposed convolution split into sub-pixel phases."""
    _, cin, kh, kw = weight.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    dx = np.zeros((cin, h, w), dtype=g.dtype)
    for rh in range(min(stride, h)):
        for rw in range(min(stride, w)):
            taps = weight[:, :, (rh + ph) % stride::stride,
                          (rw + pw) % stride::stride]
            th, tw = taps.shape[2:]
            if th == 0 or tw == 0:  # no tap reaches this phase
                continue
            nh, nw = -(-(h - rh) // stride), -(-(w - rw) // stride)
            # taps ordered (th, tw, C_out), as the lowered windows of g
            vmat = taps[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(
                cin, -1)
            phase = dx[:, rh::stride, rw::stride]
            for rows, v in _lower_rows(
                    g, th, tw, 1, th - 1 - (rh + ph) // stride,
                    tw - 1 - (rw + pw) // stride, nh, nw, cin * nw):
                phase[:, rows] = np.matmul(
                    vmat, v.transpose(0, 2, 1)).transpose(1, 0, 2)
    return dx


def conv2d(x, weight, bias, stride=1):
    """2-D convolution of a CxHxW image, output ceil(H/stride) x ceil(W/stride)."""
    if x.data.ndim != 3:
        raise ShapeMismatchError("conv2d: input must be CxHxW, got %s"
                                 % (x.shape,))
    if weight.data.ndim != 4:
        raise ShapeMismatchError("conv2d: weight must be OxIxKhxKw, got %s"
                                 % (weight.shape,))
    cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin_w != cin:
        raise ShapeMismatchError(
            "conv2d: input has %d channels but weight expects %d"
            % (cin, cin_w))
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError("conv2d: kernel dims must be odd, got %dx%d"
                                 % (kh, kw))
    if stride not in (1, 2):
        raise ShapeMismatchError("conv2d: stride must be 1 or 2, got %d"
                                 % stride)
    if bias.shape != (cout,):
        raise ShapeMismatchError("conv2d: bias shape %s, expected (%d,)"
                                 % (bias.shape, cout))
    _require_same_dtype("conv2d", x, weight, bias)

    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    oh, ow = -(-h // stride), -(-w // stride)

    wmat = weight.data.reshape(cout, -1)
    out = np.empty((cout, oh * ow), dtype=x.data.dtype)
    for rows, cols in _im2col(x.data, kh, kw, stride, ph, pw, oh, ow,
                              weight.size):
        np.matmul(wmat, cols, out=out[:, rows.start * ow:rows.stop * ow])
    out += bias.data[:, None]

    def bwd(g):
        if weight.requires_grad:
            # the sum over output rows r of g[:, r] @ v[r], (co, kh, kw, ci)
            dw = sum(np.matmul(g[:, rows].transpose(1, 0, 2), v).sum(axis=0)
                     for rows, v in _lower_rows(x.data, kh, kw, stride, ph,
                                                pw, oh, ow, weight.size))
            _accum(weight,
                   dw.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))
        if bias.requires_grad:
            _accum(bias, g.reshape(cout, -1).sum(axis=1))
        if x.requires_grad:
            _accum(x, _conv_input_grad(g, weight.data, stride, h, w))

    return _result(out.reshape(cout, oh, ow), (x, weight, bias), bwd)


# ---------------------------------------------------------------------------
# per-sample normalization

def batch_norm2d(x, gamma, beta):
    """Per-channel normalization of one CxHxW sample by its own statistics
    (instance norm), then scale by gamma and shift by beta.

    A channel with a single element (a 1x1 map) has no usable statistics
    and is normalized with mean 0 and variance 1: x / sqrt(1 + BN_EPS).
    """
    if x.data.ndim != 3 or x.data.size == 0:
        raise ShapeMismatchError("batch_norm2d: input must be a nonempty "
                                 "CxHxW, got %s" % (x.shape,))
    c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeMismatchError("batch_norm2d: gamma/beta must be (%d,)" % c)
    _require_same_dtype("batch_norm2d", x, gamma, beta)

    axes = (1, 2)
    bshape = (c, 1, 1)
    m = h * w
    if m == 1:
        d, var = x.data.copy(), np.ones(c, dtype=x.data.dtype)
    else:
        # centred once, where np.var would recompute the mean and the
        # centred copy; the bits equal those of np.mean and np.var
        d = x.data - x.data.sum(axis=axes, keepdims=True) / m
        var = (d * d).sum(axis=axes) / m
    inv_std = (1.0 / np.sqrt(var + BN_EPS)).reshape(bshape)
    # in place: a separate xhat would keep d alive through out's
    # computation, one more map-sized array at the forward's peak
    xhat = np.multiply(d, inv_std, out=d)
    out = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)

    def bwd(g):
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).sum(axis=axes))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=axes))
        if x.requires_grad:
            dxhat = g * gamma.data.reshape(bshape)
            if m == 1:  # fixed statistics: no gradient through them
                dx = dxhat * inv_std
            else:
                s1 = dxhat.sum(axis=axes).reshape(bshape)
                s2 = (dxhat * xhat).sum(axis=axes).reshape(bshape)
                dx = (inv_std / m) * (m * dxhat - s1 - xhat * s2)
            _accum(x, dx)

    return _result(out, (x, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# bilinear resampling (half-pixel-centered sampling)

def resize_matrix(n, tn):
    """The (tn, n) matrix that resamples an axis of n pixels to tn pixels
    bilinearly with half-pixel centers: row i weighs the two source
    pixels nearest output pixel i's center, clamped to [0, n - 1]."""
    src = np.clip((np.arange(tn) + 0.5) * n / tn - 0.5, 0, n - 1)
    i0 = np.floor(src).astype(np.intp)
    frac = src - i0
    u = np.zeros((tn, n))
    u[np.arange(tn), i0] = 1 - frac
    u[np.arange(tn), np.minimum(i0 + 1, n - 1)] += frac
    return u


def resample(img, uh, uw):
    """uh @ img[c] @ uw.T for every channel c of a (C, H, W) array: rows
    first, then columns."""
    return np.matmul(np.matmul(uh, img), uw.T)


def bilinear_upsample_x2(x):
    if x.data.ndim != 3:
        raise ShapeMismatchError("bilinear_upsample_x2: input must be CxHxW, "
                                 "got %s" % (x.shape,))
    _, h, w = x.shape
    # in x's dtype, so that a float32 resample stays float32
    uh = resize_matrix(h, 2 * h).astype(x.data.dtype)
    uw = resize_matrix(w, 2 * w).astype(x.data.dtype)

    def bwd(g):
        if x.requires_grad:  # the transposed linear map
            _accum(x, resample(g, uh.T, uw.T))

    return _result(resample(x.data, uh, uw), (x,), bwd)


# ---------------------------------------------------------------------------
# spatial forward differences (zero trailing column / row)

def spatial_gradients(x):
    """Forward differences of a CxHxW map; returns (horizontal, vertical)."""
    if x.data.ndim != 3:
        raise ShapeMismatchError("spatial_gradients: input must be CxHxW, "
                                 "got %s" % (x.shape,))
    c, h, w = x.shape
    if h < 2 or w < 2:
        raise ShapeMismatchError("spatial_gradients: need H, W >= 2, got "
                                 "%dx%d" % (h, w))

    hdiff = np.zeros((c, h, w), dtype=x.data.dtype)
    hdiff[:, :, :-1] = x.data[:, :, 1:] - x.data[:, :, :-1]
    vdiff = np.zeros((c, h, w), dtype=x.data.dtype)
    vdiff[:, :-1, :] = x.data[:, 1:, :] - x.data[:, :-1, :]

    def bwd_h(g):
        dx = np.zeros((c, h, w), dtype=g.dtype)
        dx[:, :, 1:] += g[:, :, :-1]
        dx[:, :, :-1] -= g[:, :, :-1]
        _accum(x, dx)

    def bwd_v(g):
        dx = np.zeros((c, h, w), dtype=g.dtype)
        dx[:, 1:, :] += g[:, :-1, :]
        dx[:, :-1, :] -= g[:, :-1, :]
        _accum(x, dx)

    return _result(hdiff, (x,), bwd_h), _result(vdiff, (x,), bwd_v)


# ---------------------------------------------------------------------------
# reductions

_REDUCE_KINDS = ("sum", "l1", "l2sq")


def reduce(x, kind):
    if kind not in _REDUCE_KINDS:
        raise ValueError("reduce: unknown kind %r" % (kind,))
    if x.data.size == 0:
        raise ShapeMismatchError("reduce: empty tensor")

    if kind == "sum":
        val = x.data.sum()

        def bwd(g):
            _accum(x, np.full_like(x.data, g))
    elif kind == "l1":
        val = np.abs(x.data).sum()
        sign = np.sign(x.data)

        def bwd(g):
            _accum(x, g * sign)
    else:  # l2sq
        val = (x.data * x.data).sum()

        def bwd(g):
            _accum(x, 2.0 * g * x.data)

    return _result(np.asarray(val), (x,), bwd)


# ---------------------------------------------------------------------------
# backward pass

def backward(out):
    """Populate grads of everything reachable from a scalar output."""
    if out.data.shape != ():
        raise GraphError("backward: output must be scalar, got shape %s"
                         % (out.shape,))
    if not out.requires_grad:
        return

    # iterative topological order (graphs can be deep)
    order = []
    seen = set()
    stack = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    # popping drops the list's reference, and releasing a node drops its
    # closure's references to its parents and their saved arrays, so
    # activations and gradients are freed while backward runs; leaves
    # keep their grads
    out.grad = np.ones((), dtype=out.data.dtype)
    while order:
        node = order.pop()
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None
            node._backward_fn = _released
            node._parents = ()


def _released(g):
    raise GraphError("backward: repeated backward reaches a node released "
                     "by an earlier backward")


# ---------------------------------------------------------------------------
# finite-difference gradient checker

def finite_diff_check(f, x):
    """Max relative error between analytic grad of f at x and central
    differences. f maps a Tensor to a scalar Tensor and must be pure."""
    probe = Tensor(x.data.copy(), requires_grad=True)
    backward(f(probe))
    analytic = probe.grad if probe.grad is not None \
        else np.zeros_like(probe.data)

    numeric = np.zeros_like(x.data)
    flat = numeric.reshape(-1)
    base = x.data.copy()
    for i in range(base.size):
        bumped = base.reshape(-1).copy()
        bumped[i] += FD_EPS
        hi = f(Tensor(bumped.reshape(base.shape))).item()
        bumped[i] -= 2 * FD_EPS
        lo = f(Tensor(bumped.reshape(base.shape))).item()
        flat[i] = (hi - lo) / (2 * FD_EPS)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), FD_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))
