"""Encoder / residual-bottleneck / decoder depth networks.

Two instantiations share this structure: a color-to-depth estimator
(3 input channels) and a guided depth-to-depth autoencoder (1 input
channel) whose encoder features define the latent-space losses.
"""

import json
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ShapeMismatchError

ENCODER_KERNELS = (9, 7, 5, 3)
BOTTLENECK_KERNEL = 3


def check_input_size(h, w):
    """The network's size rule: four stride-2 stages need input dims that
    are at least 16 and divisible by 16."""
    if min(h, w) < 16 or h % 16 != 0 or w % 16 != 0:
        raise ValueError("input dims must be at least 16 and divisible by "
                         "16, got %dx%d" % (h, w))


@dataclass(frozen=True)
class NetworkConfig:
    input_channels: int
    base_width: int = 64
    bottleneck_blocks: int = 6
    input_h: int = 320
    input_w: int = 240

    def __post_init__(self):
        if not all(isinstance(v, int) for v in asdict(self).values()):
            raise ValueError("NetworkConfig: fields must be integers")
        if self.input_channels < 1:
            raise ValueError("NetworkConfig: input_channels must be positive")
        if self.base_width < 1 or self.bottleneck_blocks < 0:
            raise ValueError("NetworkConfig: invalid width or block count")
        check_input_size(self.input_h, self.input_w)

    @property
    def stage_widths(self):
        b = self.base_width
        return (b, 2 * b, 4 * b, 8 * b)

    @property
    def latent_shape(self):
        return (8 * self.base_width, self.input_h // 16, self.input_w // 16)


class Module:
    """A layer whose parameters are its Tensor attributes and those of its
    Module attributes, in assignment order; items of a list or tuple are
    never walked."""

    def named_parameters(self, prefix):
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                yield prefix + "." + name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix + "." + name)


class Conv(Module):
    """Weights drawn in float64 from rng and stored in dtype, or zeros
    allocated in dtype when rng is None; zero biases."""

    def __init__(self, cout, cin, k, stride=1, rng=None, dtype=np.float64):
        self.stride = stride
        shape = (cout, cin, k, k)
        if rng is None:
            w = np.zeros(shape, dtype)
        else:
            limit = 1.0 / np.sqrt(cin * k * k)
            w = rng.uniform(-limit, limit, shape).astype(dtype, copy=False)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype), requires_grad=True)

    def __call__(self, x):
        return ad.conv2d(x, self.weight, self.bias, self.stride)


class BatchNorm(Module):
    """Per-sample normalization with a learned per-channel affine map
    (see ad.batch_norm2d)."""

    def __init__(self, channels, dtype=np.float64):
        self.gamma = Tensor(np.ones(channels, dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype), requires_grad=True)

    def __call__(self, x):
        return ad.batch_norm2d(x, self.gamma, self.beta)


class ResBlock(Module):
    """Identity skip plus conv-BN-relu-conv-BN branch; no ReLU after the
    join, so a zeroed branch (zero convs: no rng) is an exact identity."""

    def __init__(self, channels, kernel, rng=None, dtype=np.float64):
        self.conv1 = Conv(channels, channels, kernel, rng=rng, dtype=dtype)
        self.bn1 = BatchNorm(channels, dtype)
        self.conv2 = Conv(channels, channels, kernel, rng=rng, dtype=dtype)
        self.bn2 = BatchNorm(channels, dtype)

    def __call__(self, x):
        h = ad.relu(self.bn1(self.conv1(x)))
        return ad.add(x, self.bn2(self.conv2(h)))


class _ConvBnRelu(Module):
    def __init__(self, cout, cin, k, stride, rng, dtype):
        self.conv = Conv(cout, cin, k, stride, rng, dtype)
        self.bn = BatchNorm(cout, dtype)

    def __call__(self, x):
        return ad.relu(self.bn(self.conv(x)))


class DepthModel:
    """One encoder-bottleneck-decoder network instance.

    Feature taps (shallowest first): the four encoder stage outputs plus
    the deepest latent (raw encoder latent from encoder_forward, bottleneck
    output from forward).

    seed=None draws nothing: conv weights start at zero, allocated in
    dtype, for a model whose arrays are about to be overwritten
    (load_checkpoint).

    The weights are drawn in float64 whatever the dtype, then stored in
    dtype: a float32 and a float64 model of one seed hold the same
    weights up to rounding. Each forward pass converts an input that
    records no graph to that dtype.
    """

    def __init__(self, config, seed=0, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        rng = None if seed is None else np.random.default_rng(seed)
        widths = config.stage_widths
        # (name, module) in construction order: the order of the random
        # draws and of the checkpoint arrays. The stage lists below hold
        # the same modules, which a parameter walk never enters
        self._modules = []

        def add(name, module):
            self._modules.append((name, module))
            return module

        self.enc_stages = []
        in_c = config.input_channels
        for i, (w, k) in enumerate(zip(widths, ENCODER_KERNELS)):
            head = add("enc%d" % i,
                       _ConvBnRelu(w, in_c, k, 1 if i == 0 else 2, rng, dtype))
            block = add("enc%d.block" % i, ResBlock(w, k, rng, dtype))
            self.enc_stages.append((head, block))
            in_c = w
        self.enc_latent = add("enc_latent",
                              _ConvBnRelu(widths[3], widths[3], 3, 2, rng,
                                          dtype))

        self.bottleneck = [
            add("bottleneck%d" % i,
                ResBlock(widths[3], BOTTLENECK_KERNEL, rng, dtype))
            for i in range(config.bottleneck_blocks)]

        # strict mirror of the encoder: conv kernel at each decoder stage
        # matches the encoder conv it undoes, ResBlock kernels 3,5,7,9
        dec_plan = [
            (widths[3], widths[3], 3, 3),
            (widths[3], widths[2], 3, 5),
            (widths[2], widths[1], 5, 7),
            (widths[1], widths[0], 7, 9),
        ]
        self.dec_stages = []
        for i, (in_w, out_w, conv_k, block_k) in enumerate(dec_plan):
            head = add("dec%d" % i,
                       _ConvBnRelu(out_w, in_w, conv_k, 1, rng, dtype))
            block = add("dec%d.block" % i,
                        ResBlock(out_w, block_k, rng, dtype))
            self.dec_stages.append((head, block))
        # final layer is linear, one depth channel: no norm, no activation
        self.out_conv = add("out", Conv(1, widths[0], 9, rng=rng, dtype=dtype))

    # -- parameter plumbing ------------------------------------------------

    def named_tensors(self):
        """Ordered (name, Tensor) pairs, the checkpoint layout: each named
        module's parameters, prefixed with its name."""
        return [item for name, mod in self._modules
                for item in mod.named_parameters(name)]

    def parameters(self):
        return [t for _, t in self.named_tensors()]

    def state_items(self):
        """Ordered (name, array) pairs; arrays are live references."""
        return [(n, t.data) for n, t in self.named_tensors()]

    def freeze(self):
        for p in self.parameters():
            p.requires_grad = False

    # -- forward passes ----------------------------------------------------

    def _check_input(self, x):
        """x checked against the input shape and, unless it records a
        graph, converted to the parameters' dtype; a graph-recording x of
        another dtype reaches the first conv, which rejects it."""
        expect = (self.config.input_channels,
                  self.config.input_h, self.config.input_w)
        if x.shape != expect:
            raise ShapeMismatchError("model input shape %s, expected %s"
                                     % (x.shape, expect))
        if x.data.dtype == self.dtype or x.requires_grad:
            return x
        return Tensor(x.data.astype(self.dtype))

    def encoder_forward(self, x):
        h = self._check_input(x)
        taps = []
        for head, block in self.enc_stages:
            h = block(head(h))
            taps.append(h)
        latent = self.enc_latent(h)
        taps.append(latent)
        return latent, taps

    def bottleneck_forward(self, latent):
        h = latent
        for block in self.bottleneck:
            h = block(h)
        return h

    def decoder_forward(self, latent):
        expect = self.config.latent_shape
        if latent.shape != expect:
            raise ShapeMismatchError("decoder input shape %s, expected %s"
                                     % (latent.shape, expect))
        h = latent
        for head, block in self.dec_stages:
            h = block(head(ad.bilinear_upsample_x2(h)))
        return self.out_conv(h)

    def forward(self, x):
        latent, taps = self.encoder_forward(x)
        deep = self.bottleneck_forward(latent)
        taps[-1] = deep
        pred = self.decoder_forward(deep)
        return pred, taps


def shape_plan(config):
    """Per-stage output shapes implied by the architecture's stride and
    upsampling arithmetic: ceil(n/stride) per stride-2 conv, doubling per
    upsample. Cross-checked against actual execution in the tests."""
    widths = config.stage_widths
    h, w = config.input_h, config.input_w
    plan = {"input": (config.input_channels, h, w)}
    taps = []
    for i, wd in enumerate(widths):
        if i > 0:
            h, w = -(-h // 2), -(-w // 2)
        taps.append((wd, h, w))
        plan["enc%d" % i] = (wd, h, w)
    h, w = -(-h // 2), -(-w // 2)
    plan["latent"] = (widths[3], h, w)
    taps.append(plan["latent"])
    plan["taps"] = tuple(taps)
    for i, wd in enumerate((widths[3], widths[2], widths[1], widths[0])):
        h, w = 2 * h, 2 * w
        plan["dec%d" % i] = (wd, h, w)
    plan["output"] = (1, h, w)
    return plan


def extract_features(guided, y):
    """The guided network's five feature taps at y, shallowest first: the
    four encoder stage outputs and the bottleneck output. Gradients flow
    through the network into y but never into its (frozen) parameters.

    Normalization layers use the statistics of y itself, which keeps
    feature magnitudes bounded whatever the prediction looks like."""
    latent, taps = guided.encoder_forward(y)
    taps[-1] = guided.bottleneck_forward(latent)
    return taps


# ---------------------------------------------------------------------------
# checkpoint i/o: magic + 8-byte header length + JSON header + raw
# little-endian float64 payload, which holds a float32 model's values
# exactly. Version 3 holds gamma and beta for each normalization layer;
# version 2's config also held an output channel count, and version 1
# also held running statistics.

CKPT_MAGIC = b"LDEPTHCKPT1\n"
CKPT_VERSION = 3


class CheckpointError(ValueError):
    pass


def _array_table(items):
    return [{"name": n, "shape": list(a.shape)} for n, a in items]


def save_checkpoint(model, path):
    items = model.state_items()
    header = {
        "version": CKPT_VERSION,
        "config": asdict(model.config),
        "arrays": _array_table(items),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for _, arr in items:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_header(fh, size):
    hlen = int.from_bytes(fh.read(8), "little")
    if hlen > size - fh.tell():
        raise CheckpointError("checkpoint header length %d exceeds the file"
                              % hlen)
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError("corrupt checkpoint header") from exc
    if not isinstance(header, dict) or \
            not {"version", "config", "arrays"} <= header.keys():
        raise CheckpointError("checkpoint header must be a JSON object with "
                              "version, config and arrays")
    if header["version"] != CKPT_VERSION:
        raise CheckpointError("checkpoint version %r is not supported "
                              "(expected %d)"
                              % (header["version"], CKPT_VERSION))
    return header


def load_checkpoint(path):
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
            raise CheckpointError("not a checkpoint file: %s" % path)
        header = _read_header(fh, size)
        # size the payload from the header's own table before building the
        # model: once the model's table matches it, the model is no larger
        # than the file
        try:
            payload = 8 * sum(math.prod(a["shape"]) for a in header["arrays"])
        except (TypeError, KeyError) as exc:
            raise CheckpointError("bad checkpoint array table") from exc
        if size - fh.tell() != payload:
            raise CheckpointError("checkpoint payload is %d bytes, expected "
                                  "%s" % (size - fh.tell(), payload))
        try:
            config = NetworkConfig(**header["config"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError("bad checkpoint config: %s" % exc) from exc
        try:
            model = DepthModel(config, seed=None)
        except MemoryError as exc:  # a config its own table does not match
            raise CheckpointError("checkpoint config does not fit in "
                                  "memory") from exc
        items = model.state_items()
        if header["arrays"] != _array_table(items):
            raise CheckpointError("checkpoint arrays do not match the model "
                                  "structure of its config")
        for name, arr in items:
            raw = fh.read(arr.size * 8)
            # a value past the model dtype's range becomes an infinity,
            # which the check below reports
            with np.errstate(over="ignore"):
                arr[...] = np.frombuffer(raw, dtype="<f8").reshape(arr.shape)
            if not np.isfinite(arr).all():
                raise CheckpointError("checkpoint array %s is not finite in "
                                      "%s" % (name, arr.dtype))
    return model
