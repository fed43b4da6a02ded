import collections
import concurrent.futures
import itertools
import os
import signal
import sys
import time

import numpy as np
import pytest

import latentdepth.autodiff as ad
from latentdepth import data, network, training, verify
from latentdepth.autodiff import (GraphError, ShapeMismatchError, Tensor,
                                  backward, finite_diff_check)


def scalar(t):
    return t.item()


def _extent(a):
    """Elements of the memory the view a (nonnegative strides) spans,
    from its first to its last element."""
    return 1 + sum((n - 1) * s for n, s in zip(a.shape, a.strides)) \
        // a.itemsize


def _blocks(runs):
    """The blocks of a lowering's runs, in order."""
    return itertools.chain.from_iterable(runs)


def _loop_patches(x, kh, kw, stride):
    """The (C, kh, kw, oh, ow) patches of a "same" conv of x, one kernel
    offset at a time."""
    c, h, w = x.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    oh, ow = -(-h // stride), -(-w // stride)
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    ref = np.empty((c, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            ref[:, i, j] = xp[:, i:i + stride * oh:stride,
                              j:j + stride * ow:stride]
    return ref


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 6, 7))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = ad.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)), 1)
        np.testing.assert_array_equal(out.data, x)

    def test_identity_kernel_any_input(self):
        rng = np.random.default_rng(5)
        for c in (1, 3):
            x = rng.standard_normal((c, 4, 9))
            w = np.zeros((c, c, 5, 5))
            for i in range(c):
                w[i, i, 2, 2] = 1.0
            out = ad.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(c)), 1)
            np.testing.assert_array_equal(out.data, x)

    def test_ones_kernel_same_padding(self):
        # all-ones 3x3 input and kernel: center sees 9, corners see 4
        x = np.ones((1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        out = ad.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)), 1).data
        assert out[0, 1, 1] == 9.0
        for r, c in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert out[0, r, c] == 4.0
        for r, c in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            assert out[0, r, c] == 6.0

    def test_full_scale_shape(self):
        x = Tensor(np.zeros((3, 320, 240)))
        w = Tensor(np.zeros((64, 3, 9, 9)))
        out = ad.conv2d(x, w, Tensor(np.zeros(64)), 1)
        assert out.shape == (64, 320, 240)

    def test_stride2_ceil_shapes(self):
        for h, w in [(6, 6), (5, 7), (1, 1)]:
            x = Tensor(np.zeros((2, h, w)))
            k = Tensor(np.zeros((4, 2, 3, 3)))
            out = ad.conv2d(x, k, Tensor(np.zeros(4)), 2)
            assert out.shape == (4, -(-h // 2), -(-w // 2))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="channels"):
            ad.conv2d(Tensor(np.zeros((2, 4, 4))),
                      Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.zeros(1)), 1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeMismatchError, match="odd"):
            ad.conv2d(Tensor(np.zeros((1, 4, 4))),
                      Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros(1)), 1)

    def test_bad_stride(self):
        with pytest.raises(ShapeMismatchError, match="stride"):
            ad.conv2d(Tensor(np.zeros((1, 4, 4))),
                      Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1)), 3)

    def test_row_blocks_match_single_block(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 9, 8))
        w = rng.standard_normal((5, 3, 3, 3))
        b = rng.standard_normal(5)
        blocks = self._record_blocks(monkeypatch)
        single = ad._PATCH_LIMIT
        # at 288 elements a forward row holds 27 * ow, a lowered block of
        # n rows 9 * ow * (stride * (n - 1) + 3) and its weight-gradient
        # GEMM 135 * n: 1-row forward blocks at stride 1, 2-row blocks
        # with a ragged last one elsewhere (oh is odd at both strides)
        ragged = {1: ([1] * 9, [2, 2, 2, 2, 1]), 2: ([2, 2, 1], [2, 2, 1])}
        for stride in (1, 2):
            oh, ow = -(-9 // stride), -(-8 // stride)
            g = rng.standard_normal((5, oh, ow))
            results = []
            for limit, fwd, low in [(single, [oh], [oh]),
                                    (1, [1] * oh, [1] * oh),
                                    (288,) + ragged[stride]]:
                monkeypatch.setattr(ad, "_PATCH_LIMIT", limit)
                del blocks[:]
                results.append(self._conv_and_grads(x, w, b, stride, g))
                # the forward's blocks, then the weight gradient's lowering
                assert [blk.rows.stop - blk.rows.start for blk in blocks
                        if blk.src == id(x)] == fwd + low
            for alt in results[1:]:
                for a, r in zip(alt, results[0]):
                    np.testing.assert_allclose(a, r, rtol=1e-12, atol=1e-12)

    def test_graph_holds_no_patch_matrix(self):
        # the patch matrix has C*kh*kw*oh*ow elements; the closure keeps
        # the inputs and rebuilds it in backward
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 5, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        out = ad.conv2d(x, w, Tensor(np.zeros(4)), 1)
        patch_size = 3 * 3 * 3 * 5 * 6
        held = []
        for cell in out._backward_fn.__closure__:
            v = cell.cell_contents
            held.append(v.data if isinstance(v, Tensor) else v)
        sizes = [v.size for v in held if isinstance(v, np.ndarray)]
        assert sizes and patch_size not in sizes

    @pytest.mark.parametrize("weight_grad,rebuilds", [(True, 1), (False, 0)])
    def test_backward_rebuilds_only_for_weight_grad(self, monkeypatch,
                                                    weight_grad, rebuilds):
        blocks = self._record_blocks(monkeypatch)
        x = Tensor(np.ones((2, 4, 4)), requires_grad=True)
        w = Tensor(np.ones((3, 2, 3, 3)), requires_grad=weight_grad)
        out = ad.conv2d(x, w, Tensor(np.zeros(3)), 1)
        assert [(b.kind, b.src) for b in blocks] == [("im2col", id(x.data))]
        backward(ad.reduce(out, "sum"))
        # the weight gradient lowers the conv's input; the input gradient
        # lowers the output gradient; nothing in backward runs _im2col
        assert [b.kind for b in blocks[1:]] == ["lower"] * len(blocks[1:])
        srcs = [b.src for b in blocks[1:]]
        assert srcs.count(id(x.data)) == rebuilds and x.grad is not None
        assert len(srcs) == rebuilds + 1

    Block = collections.namedtuple(
        "Block", "kind src rows elements row_elements gemm row_gemm")

    @classmethod
    def _record_blocks(cls, monkeypatch):
        """Record a Block for every block _im2col (the forward) and
        _lower_rows (the backward) yield: the id of the source array, the
        rows, the elements of the block's windows and of one output row's,
        and the elements of the block's GEMM results and of one row's.
        Blocks are recorded in the order they are built: one worker."""
        blocks = []
        real_im2col, real_lower = ad._im2col, ad._lower_rows
        monkeypatch.setattr(ad, "_worker_count", lambda: 1)

        def recorded(runs, block):
            def run_of(run):
                for rows, mat in run:
                    blocks.append(block(rows, mat))
                    yield rows, mat
            return [run_of(run) for run in runs]

        def im2col(x, kh, kw, stride, top, left, oh, ow, weight_size):
            return recorded(
                real_im2col(x, kh, kw, stride, top, left, oh, ow,
                            weight_size),
                lambda rows, cols: cls.Block(
                    "im2col", id(x), rows, cols.size,
                    x.shape[0] * kh * kw * ow, 0, 0))

        def lower(x, kh, kw, stride, top, left, oh, ow, per_row, macs):
            return recorded(
                real_lower(x, kh, kw, stride, top, left, oh, ow, per_row,
                           macs),
                lambda rows, v: cls.Block(
                    "lower", id(x), rows, _extent(v),
                    x.shape[0] * kh * kw * ow,
                    (rows.stop - rows.start) * per_row, per_row))

        monkeypatch.setattr(ad, "_im2col", im2col)
        monkeypatch.setattr(ad, "_lower_rows", lower)
        return blocks

    def test_patch_blocks_bounded(self, monkeypatch):
        # C_in=1, C_out=8 3x3 conv on 6x6: one forward row has 1*9*ow
        # elements, one lowered input-gradient row 8*9*ow; every block the
        # forward, the weight gradient and each input-gradient phase
        # builds, and every block's GEMM results, stay within the limit
        # or hold one output row
        blocks = self._record_blocks(monkeypatch)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 6, 6))
        w = rng.standard_normal((8, 1, 3, 3))
        for stride in (1, 2):
            g = rng.standard_normal((8, 6 // stride, 6 // stride))
            for limit in (1, 100, 200, ad._PATCH_LIMIT):
                monkeypatch.setattr(ad, "_PATCH_LIMIT", limit)
                del blocks[:]
                self._conv_and_grads(x, w, np.zeros(8), stride, g)
                heights = {True: 0, False: 0}
                for b in blocks:
                    heights[b.src == id(x)] += b.rows.stop - b.rows.start
                # forward and weight gradient each cover the output rows;
                # the input gradient's phases together cover stride * H
                assert heights == {True: 2 * 6 // stride, False: 6 * stride}
                for b in blocks:
                    assert b.elements <= max(limit, b.row_elements)
                    assert b.gemm <= max(limit, b.row_gemm)
                if limit == 1:
                    assert all(b.rows.stop - b.rows.start == 1
                               for b in blocks)

    # (C, H, W, kh, kw, stride): odd and even sizes, non-square maps,
    # kh != kw, 1x1 kernels and maps smaller than the kernel
    IM2COL_CASES = [(2, 5, 5, 3, 3, 1), (2, 5, 5, 3, 3, 2),
                    (3, 6, 4, 3, 3, 1), (3, 6, 4, 3, 3, 2),
                    (1, 7, 8, 3, 5, 1), (2, 7, 8, 5, 3, 2),
                    (4, 6, 5, 1, 1, 1), (4, 6, 5, 1, 1, 2),
                    (2, 1, 2, 5, 5, 1), (2, 2, 1, 7, 3, 2),
                    (1, 1, 1, 9, 9, 2)]

    @pytest.mark.parametrize("c,h,w,kh,kw,stride", IM2COL_CASES)
    def test_im2col_matches_loop_reference(self, c, h, w, kh, kw, stride,
                                           monkeypatch):
        x = np.random.default_rng(h * 10 + w).standard_normal((c, h, w))
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
        oh, ow = -(-h // stride), -(-w // stride)
        ref = _loop_patches(x, kh, kw, stride)
        # one block, then one block per output row
        for limit, step in [(ad._PATCH_LIMIT, oh), (1, 1)]:
            monkeypatch.setattr(ad, "_PATCH_LIMIT", limit)
            blocks = []
            for rows, cols in _blocks(ad._im2col(x, kh, kw, stride, ph, pw,
                                                 oh, ow, 1)):
                assert cols.shape == (c * kh * kw,
                                      (rows.stop - rows.start) * ow)
                assert cols.dtype == ref.dtype and cols.flags.c_contiguous
                # the next block overwrites this one's buffer
                blocks.append((rows, cols.copy()))
            assert [r for r, _ in blocks] == [
                slice(r0, min(r0 + step, oh)) for r0 in range(0, oh, step)]
            cols = np.concatenate([cols for _, cols in blocks], axis=1)
            assert cols.tobytes() == ref.tobytes()

    # a forward row of the 2x7x8 input's 3x3 windows holds 2 * 9 * 8 =
    # 144 elements, nine times 16; each bound is set to exactly three
    # rows, then one element (for the floor, one weight element) less
    BIG = 1 << 30

    @pytest.mark.parametrize("forward,weight,patch,heights", [
        (3 * 144, 1, BIG, [3, 3, 1]),         # _FORWARD_BLOCK
        (3 * 144 - 1, 1, BIG, [2, 2, 2, 1]),
        (1, 27, BIG, [3, 3, 1]),              # 16 * weight_size
        (1, 26, BIG, [2, 2, 2, 1]),
        (BIG, BIG, 3 * 144, [3, 3, 1]),       # _PATCH_LIMIT
        (BIG, BIG, 3 * 144 - 1, [2, 2, 2, 1]),
        (143, 8, BIG, [1] * 7),               # at least one row
        (BIG, 1, BIG, [7])])
    def test_im2col_block_heights(self, forward, weight, patch, heights,
                                  monkeypatch):
        monkeypatch.setattr(ad, "_FORWARD_BLOCK", forward)
        monkeypatch.setattr(ad, "_PATCH_LIMIT", patch)
        x = np.random.default_rng(2).standard_normal((2, 7, 8))
        blocks = [(rows, cols.copy())
                  for rows, cols in _blocks(ad._im2col(x, 3, 3, 1, 1, 1, 7,
                                                       8, weight))]
        assert [r.stop - r.start for r, _ in blocks] == heights
        cols = np.concatenate([cols for _, cols in blocks], axis=1)
        assert cols.tobytes() == _loop_patches(x, 3, 3, 1).tobytes()

    def test_conv_forward_blocks_share_one_buffer(self, monkeypatch):
        # conv2d passes its weights' size: 16 * (C_out * 18) elements are
        # 2 * C_out rows of 144; at one worker every block is written into
        # one buffer
        monkeypatch.setattr(ad, "_FORWARD_BLOCK", 1)
        monkeypatch.setattr(ad, "_worker_count", lambda: 1)
        seen = []
        real = ad._im2col

        def run_of(run):
            for rows, cols in run:
                seen.append((rows.stop - rows.start, cols))
                yield rows, cols

        monkeypatch.setattr(ad, "_im2col",
                            lambda *args: [run_of(r) for r in real(*args)])
        x = Tensor(np.random.default_rng(3).standard_normal((2, 7, 8)))
        for cout, heights in [(1, [2, 2, 2, 1]), (2, [4, 3])]:
            del seen[:]
            w = Tensor(np.ones((cout, 2, 3, 3)))
            ad.conv2d(x, w, Tensor(np.zeros(cout)), 1)
            assert [n for n, _ in seen] == heights
            assert all(np.shares_memory(cols, seen[0][1])
                       for _, cols in seen[1:])

    @pytest.mark.parametrize("c,h,w,kh,kw,stride", IM2COL_CASES)
    def test_lower_rows_matches_loop_reference(self, c, h, w, kh, kw, stride,
                                               monkeypatch):
        x = np.random.default_rng(h * 10 + w).standard_normal((c, h, w))
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
        oh, ow = -(-h // stride), -(-w // stride)
        xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
        # each output pixel's window, laid out (kh, kw, C)
        ref = np.empty((oh, ow, kh, kw, c))
        for r in range(oh):
            for j in range(ow):
                ref[r, j] = xp[:, stride * r:stride * r + kh,
                               stride * j:stride * j + kw].transpose(1, 2, 0)
        # one block, then one block per output row
        for limit, step in [(ad._PATCH_LIMIT, oh), (1, 1)]:
            monkeypatch.setattr(ad, "_PATCH_LIMIT", limit)
            blocks = list(_blocks(ad._lower_rows(x, kh, kw, stride, ph, pw,
                                                 oh, ow, 1, 0)))
            assert [r for r, _ in blocks] == [
                slice(r0, min(r0 + step, oh)) for r0 in range(0, oh, step)]
            for rows, v in blocks:
                n = rows.stop - rows.start
                assert v.shape == (n, ow, kh * kw * c)
                # BLAS-ready rows, all views of one copy shared by the
                # rows of the block: per output column, a strip of the
                # kw*C wide windows of every input row the block reads
                assert v.dtype == ref.dtype and v.strides[2] == v.itemsize
                assert _extent(v) == ow * (stride * (n - 1) + kh) * kw * c
            v = np.concatenate([v for _, v in blocks])
            assert v.tobytes() == ref.tobytes()

    def test_lower_rows_views_read_only(self, monkeypatch):
        # rows of one block share the copy: a write through one would
        # corrupt its neighbours' windows
        monkeypatch.setattr(ad, "_PATCH_LIMIT", 64)
        x = np.ones((2, 7, 5))
        blocks = list(_blocks(ad._lower_rows(x, 3, 3, 1, 1, 1, 7, 5, 1,
                                             0)))
        assert len(blocks) > 1
        assert not any(v.flags.writeable for _, v in blocks)

    @pytest.mark.parametrize("c,h,w,kh,kw,stride", IM2COL_CASES + [
        (3, 1, 6, 3, 3, 2), (2, 5, 1, 3, 5, 2), (3, 1, 4, 1, 1, 2)])
    def test_input_grad_matches_col2im_reference(self, c, h, w, kh, kw,
                                                 stride):
        rng = np.random.default_rng(h * 10 + w)
        x = rng.standard_normal((c, h, w))
        wt = rng.standard_normal((3, c, kh, kw))
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
        oh, ow = -(-h // stride), -(-w // stride)
        g = rng.standard_normal((3, oh, ow))
        # reference: the C*kh*kw x oh*ow matrix wmat.T @ gmat, scattered
        # back into the padded input one kernel offset at a time
        cols = (wt.reshape(3, -1).T @ g.reshape(3, -1)).reshape(
            c, kh, kw, oh, ow)
        xp = np.zeros((c, h + 2 * ph, w + 2 * pw))
        for i in range(kh):
            for j in range(kw):
                xp[:, i:i + stride * oh:stride,
                   j:j + stride * ow:stride] += cols[:, i, j]
        ref = xp[:, ph:ph + h, pw:pw + w]
        dx = self._conv_and_grads(x, wt, np.zeros(3), stride, g)[1]
        np.testing.assert_allclose(dx, ref, rtol=1e-12, atol=1e-12)

    def test_forward_bits_of_gradient_suite(self, monkeypatch):
        # criterion 2 compares analytic gradients with central differences
        # of the forward, whose roundoff follows the forward's summation
        # order: every conv the suite runs must give the bits of one GEMM
        # of the weights with the (C, kh, kw)-ordered patch matrix
        convs = {}
        real = ad.conv2d

        def recording(x, weight, bias, stride=1):
            convs.setdefault((x.shape, weight.shape, stride), (
                x.data.copy(), weight.data.copy(), bias.data.copy()))
            return real(x, weight, bias, stride)

        monkeypatch.setattr(ad, "conv2d", recording)
        monkeypatch.setattr(verify, "finite_diff_check",
                            lambda f, x: f(x).item() * 0.0)
        verify.run_gradient_checks(seed=0)
        monkeypatch.setattr(ad, "conv2d", real)
        assert len(convs) >= 10
        for (_, (cout, _, kh, kw), stride), (x, w, b) in convs.items():
            cols = _loop_patches(x, kh, kw, stride)
            ref = w.reshape(cout, -1) @ cols.reshape(w[0].size, -1)
            ref += b[:, None]
            out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride).data
            assert out.tobytes() == ref.tobytes()

    def test_gradient_suite_convs_are_single_blocks(self, monkeypatch):
        # a float64 GEMM's bits depend on its column count: under the
        # default limits every conv the suite runs is one block, the
        # largest the 2->2 9x9 conv at 16x16 (2 * 81 * 256 = 41,472
        # elements), so no block rule can move criterion 2 unseen
        blocks = self._record_blocks(monkeypatch)
        monkeypatch.setattr(verify, "finite_diff_check",
                            lambda f, x: f(x).item() * 0.0)
        verify.run_gradient_checks(seed=0)
        forward = [blk for blk in blocks if blk.kind == "im2col"]
        assert len(forward) >= 10
        # a conv split into blocks yields one that starts past row 0
        assert all(blk.rows.start == 0 for blk in forward)
        assert max(blk.elements for blk in forward) == 2 * 81 * 16 * 16

    def test_multi_block_float32_forward(self, monkeypatch):
        # the 8->8 9x9 conv at 64x64 of a width-8 network splits into
        # blocks of a few output rows under the default limits: the
        # float32 result repeats bit for bit and stays within F32_TOL of
        # the float64 single-GEMM result
        blocks = self._record_blocks(monkeypatch)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 64, 64))
        w = rng.standard_normal((8, 8, 9, 9)) / 9
        b = rng.standard_normal(8)
        ref = w.reshape(8, -1) @ _loop_patches(x, 9, 9, 1).reshape(648, -1)
        ref = (ref + b[:, None]).reshape(8, 64, 64)
        x, w, b = (Tensor(a.astype(np.float32)) for a in (x, w, b))
        out = ad.conv2d(x, w, b, 1).data
        assert len(blocks) >= 2
        assert out.dtype == np.float32
        assert ad.conv2d(x, w, b, 1).data.tobytes() == out.tobytes()
        assert np.abs(out - ref).max() <= F32_TOL * np.abs(ref).max()

    @pytest.mark.parametrize("k,stride", [(9, 1), (7, 2), (5, 2), (3, 2),
                                          (3, 1)])
    def test_grads_match_direct_sum(self, k, stride):
        # the network's (kernel, stride) pairs on an odd, non-square map
        h, w, p = 11, 7, (k - 1) // 2
        oh, ow = -(-h // stride), -(-w // stride)
        rng = np.random.default_rng(k * 10 + stride)
        for cin, cout in [(1, 4), (4, 3)]:
            x = rng.standard_normal((cin, h, w))
            wt = rng.standard_normal((cout, cin, k, k))
            g = rng.standard_normal((cout, oh, ow))
            # d sum(g * conv) / d w[o, c, a, b] sums g[o, r, j] times the
            # input pixel (stride*r + a - p, stride*j + b - p) over every
            # output pixel; d / d x adds w[o, c, a, b] * g[o, r, j] there
            xp = np.pad(x, ((0, 0), (p, p), (p, p)))
            dw = np.zeros_like(wt)
            dxp = np.zeros_like(xp)
            for r in range(oh):
                for j in range(ow):
                    win = (slice(None), slice(stride * r, stride * r + k),
                           slice(stride * j, stride * j + k))
                    dw += g[:, r, j, None, None, None] * xp[win][None]
                    dxp[win] += np.tensordot(g[:, r, j], wt, axes=(0, 0))
            _, dx, dwt, _ = self._conv_and_grads(x, wt, np.zeros(cout),
                                                 stride, g)
            np.testing.assert_allclose(dwt, dw, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(dx, dxp[:, p:p + h, p:p + w],
                                       rtol=1e-12, atol=1e-12)

    @staticmethod
    def _conv_and_grads(x, w, b, stride, g):
        """Output and input, weight and bias gradients of sum(g * conv)."""
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = ad.conv2d(tx, tw, tb, stride)
        backward(ad.reduce(ad.mul_const(out, g), "sum"))
        return out.data, tx.grad, tw.grad, tb.grad


class _InlinePool:
    """Stands in for the worker pool: runs each submitted run at once, in
    the calling thread, and counts the submits."""

    def __init__(self):
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class TestConvWorkers:
    @staticmethod
    def _workers(monkeypatch, n):
        """n workers on a pool of their own, for convs of any work."""
        monkeypatch.setattr(ad, "_worker_count", lambda: n)
        monkeypatch.setattr(ad, "_pool", None)
        monkeypatch.setattr(ad, "_POOL_MACS", 0)

    # (C_in, C_out, H, W, k, stride, _FORWARD_BLOCK, _PATCH_LIMIT, parts
    # that split into at least _POOL_BLOCKS blocks, the last of them
    # shorter than the first)
    SPLIT_CASES = [(4, 8, 31, 38, 9, 1, 1, 1 << 15, ("forward", "input")),
                   (4, 4, 64, 64, 9, 1, 1 << 17, 1 << 22, ("forward",)),
                   (3, 5, 45, 38, 7, 2, 1, 1 << 13, ("forward",)),
                   (4, 8, 64, 64, 7, 2, 1, 1 << 12, ("input",))]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c,cout,h,w,k,stride,forward,patch,ragged",
                             SPLIT_CASES)
    def test_bits_do_not_depend_on_worker_count(
            self, c, cout, h, w, k, stride, forward, patch, ragged, dtype,
            monkeypatch):
        monkeypatch.setattr(ad, "_FORWARD_BLOCK", forward)
        monkeypatch.setattr(ad, "_PATCH_LIMIT", patch)
        rng = np.random.default_rng(h * w + k)
        x = rng.standard_normal((c, h, w)).astype(dtype)
        wt = (rng.standard_normal((cout, c, k, k)) / k).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype)
        g = rng.standard_normal((cout, -(-h // stride),
                                 -(-w // stride))).astype(dtype)
        # the block heights of every lowering, in the order conv2d makes
        # them: the forward, the weight gradient's, one per input phase
        heights = []
        real_runs = ad._runs

        def runs(n, step, macs):
            starts = real_runs(n, step, macs)
            heights.append([min(step, n - r0) for run in starts
                            for r0 in run])
            return starts

        monkeypatch.setattr(ad, "_runs", runs)
        results = []
        for n in (1, 2, 3):
            self._workers(monkeypatch, n)
            del heights[:]
            results.append([a.tobytes() for a in TestConv2d._conv_and_grads(
                x, wt, b, stride, g)])
        parts = {"forward": heights[:1], "input": heights[2:]}
        for part in ragged:
            assert any(len(hs) >= ad._POOL_BLOCKS and hs[-1] < hs[0]
                       for hs in parts[part])
        assert results[1] == results[0] and results[2] == results[0]

    def test_more_workers_than_cores(self, monkeypatch):
        # six runs on three threads besides the caller's, switching the
        # interpreter lock as often as it can: a run that wrote past its
        # rows or shared another's buffer would change some bits
        c, cout, h, w, k, stride, forward, patch, _ = self.SPLIT_CASES[0]
        monkeypatch.setattr(ad, "_FORWARD_BLOCK", forward)
        monkeypatch.setattr(ad, "_PATCH_LIMIT", patch)
        rng = np.random.default_rng(8)
        x, wt = rng.standard_normal((c, h, w)), rng.standard_normal(
            (cout, c, k, k))
        g = rng.standard_normal((cout, h, w))
        results = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for n in (1, 6):
                self._workers(monkeypatch, n)
                for _ in range(5):
                    results.append([a.tobytes() for a in
                                    TestConv2d._conv_and_grads(
                                        x, wt, np.zeros(cout), stride, g)])
        finally:
            sys.setswitchinterval(interval)
        assert all(r == results[0] for r in results[1:])

    # a 2->3 3x3 conv of an h x 5 map makes 3 * 18 * h * 5 multiply-adds
    # in the forward and as many in the input gradient
    @pytest.mark.parametrize("h,floor,submits", [
        (7, 0, 0), (8, 0, 1), (8, 2160, 1), (8, 2161, 0)])
    @pytest.mark.parametrize("input_grad", [False, True])
    def test_fewer_blocks_or_macs_run_inline(self, h, floor, submits,
                                             input_grad, monkeypatch):
        # one output row per block: h blocks in the forward, the weight
        # gradient and the input gradient; only the weight gradient never
        # splits, whatever its block count
        self._workers(monkeypatch, 2)
        monkeypatch.setattr(ad, "_POOL_MACS", floor)
        pool = _InlinePool()
        monkeypatch.setattr(ad, "_worker_pool", lambda: pool)
        monkeypatch.setattr(ad, "_FORWARD_BLOCK", 1)
        monkeypatch.setattr(ad, "_PATCH_LIMIT", 1)
        x = Tensor(np.ones((2, h, 5)), requires_grad=input_grad)
        w = Tensor(np.ones((3, 2, 3, 3)), requires_grad=True)
        backward(ad.reduce(ad.conv2d(x, w, Tensor(np.zeros(3)), 1), "sum"))
        assert pool.submits == submits * (1 + input_grad)

    def test_gate_shape_convs_run_inline(self, monkeypatch):
        # every conv of a guided and a color training step at the
        # acceptance gate's 32x32, width 4, forward and backward
        self._workers(monkeypatch, 2)
        pool = _InlinePool()
        monkeypatch.setattr(ad, "_worker_pool", lambda: pool)
        calls = []
        real = ad.conv2d
        monkeypatch.setattr(ad, "conv2d",
                            lambda *a: calls.append(1) or real(*a))
        samples = [data.synth_scene(i, 32, 32, 2) for i in range(2)]
        nets = {stage: network.NetworkConfig(
            input_channels=ch, base_width=4, bottleneck_blocks=6,
            input_h=32, input_w=32) for stage, ch in (("guided", 1),
                                                      ("color", 3))}
        guided, _ = training.train_guided(training.TrainConfig(
            stage="guided", net=nets["guided"], steps=1, batch_size=2),
            samples)
        training.train_color(training.TrainConfig(
            stage="color", net=nets["color"], steps=1, batch_size=2),
            samples, guided)
        assert len(calls) > 100 and pool.submits == 0

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_error_raised_after_every_run_returns(self, bad, monkeypatch):
        # 11 forward blocks in three runs; run 0 is the caller's own
        self._workers(monkeypatch, 3)
        returned = []
        real = ad._im2col

        def run_of(i, run):
            for block in run:
                if i == bad:
                    raise RuntimeError("run %d failed" % i)
                time.sleep(0.05)
                yield block
            returned.append(i)

        monkeypatch.setattr(ad, "_im2col", lambda *args: [
            run_of(i, run) for i, run in enumerate(real(*args))])
        x = Tensor(np.ones((4, 64, 64), np.float32))
        w = Tensor(np.ones((4, 4, 9, 9), np.float32))
        with pytest.raises(RuntimeError, match="run %d failed" % bad):
            ad.conv2d(x, w, Tensor(np.zeros(4, np.float32)), 1)
        assert sorted(returned) == [i for i in range(3) if i != bad]

    def test_forked_child_runs_split_convs(self, monkeypatch):
        self._workers(monkeypatch, 2)
        x = Tensor(np.random.default_rng(5).standard_normal((4, 64, 64)),
                   requires_grad=True)
        w = Tensor(np.ones((4, 4, 9, 9)) / 81)
        b = Tensor(np.zeros(4))
        # the pool has threads, which a forked child does not inherit
        expected = ad.conv2d(x, w, b, 1).data.tobytes()
        assert ad._pool is not None
        pid = os.fork()
        if pid == 0:  # the child: never returns into pytest
            code = 1
            try:
                out = ad.conv2d(x, w, b, 1)
                backward(ad.reduce(out, "sum"))
                code = 0 if out.data.tobytes() == expected else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done and os.waitstatus_to_exitcode(status) == 0


class TestBatchNorm:
    def test_train_two_values(self):
        x = np.array([1.0, 3.0]).reshape(1, 1, 2)
        out = ad.batch_norm2d(Tensor(x), Tensor(np.ones(1)),
                              Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data.ravel(),
                                   np.array([-1.0, 1.0]) /
                                   np.sqrt(1.0 + ad.BN_EPS), rtol=1e-15)

    def test_constant_channel_zero_output(self):
        x = np.full((2, 3, 3), 7.0)
        out = ad.batch_norm2d(Tensor(x), Tensor(np.ones(2)),
                              Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, np.zeros_like(x))

    def test_single_element_rule(self):
        # one element per channel: mean 0, variance 1, so
        # x / sqrt(1 + BN_EPS)
        x = Tensor(np.array([2.0, -3.0]).reshape(2, 1, 1), requires_grad=True)
        gamma, beta = np.array([0.5, 2.0]), np.array([0.1, -0.2])
        out = ad.batch_norm2d(x, Tensor(gamma), Tensor(beta))
        scale = gamma / np.sqrt(1.0 + ad.BN_EPS)
        np.testing.assert_allclose(out.data.ravel(),
                                   scale * x.data.ravel() + beta, rtol=1e-15)
        # the fixed statistics pass no gradient: d out / d x = gamma / std
        backward(ad.reduce(out, "sum"))
        np.testing.assert_allclose(x.grad.ravel(), scale, rtol=1e-15)

    def test_per_sample_statistics(self):
        x = np.random.default_rng(4).standard_normal((3, 4, 4)) * 5.0 + 2.0
        out = ad.batch_norm2d(Tensor(x), Tensor(np.ones(3)),
                              Tensor(np.zeros(3))).data
        np.testing.assert_allclose(out.mean(axis=(1, 2)), np.zeros(3),
                                   atol=1e-12)
        var = x.var(axis=(1, 2))
        np.testing.assert_allclose(out.var(axis=(1, 2)),
                                   var / (var + ad.BN_EPS), rtol=1e-8)

    @pytest.mark.parametrize("shape", [(2, 1, 1), (3, 1, 2), (4, 4, 4),
                                       (8, 16, 16), (5, 7, 3), (2, 32, 32)])
    def test_bits_of_mean_and_var(self, shape):
        # centring once gives the bits of np.mean and np.var
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape) * 3.0 + 1.5
        c = shape[0]
        gamma, beta = rng.standard_normal(c), rng.standard_normal(c)
        if shape[1:] == (1, 1):
            mean, var = np.zeros(c), np.ones(c)
        else:
            mean, var = x.mean(axis=(1, 2)), x.var(axis=(1, 2))
        b = (c, 1, 1)
        xhat = (x - mean.reshape(b)) * (
            1.0 / np.sqrt(var + ad.BN_EPS)).reshape(b)
        want = gamma.reshape(b) * xhat + beta.reshape(b)
        out = ad.batch_norm2d(Tensor(x), Tensor(gamma), Tensor(beta))
        assert out.data.tobytes() == want.tobytes()

    def test_batched_input_rejected(self):
        with pytest.raises(ShapeMismatchError, match="CxHxW"):
            ad.batch_norm2d(Tensor(np.ones((2, 3, 4, 4))), Tensor(np.ones(3)),
                            Tensor(np.zeros(3)))


class TestElementwise:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(ad.relu(Tensor(x)).data, [0, 0, 2])
        neg = -np.abs(np.random.default_rng(0).standard_normal((3, 3)))
        np.testing.assert_array_equal(ad.relu(Tensor(neg)).data,
                                      np.zeros((3, 3)))

    def test_add(self):
        a = np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            ad.add(Tensor(a), Tensor(np.array([3.0, 5.0]))).data, [4, 7])
        np.testing.assert_array_equal(
            ad.add(Tensor(a), Tensor(np.zeros(2))).data, a)
        np.testing.assert_array_equal(ad.add(Tensor(a), Tensor(a)).data,
                                      2 * a)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_no_broadcasting(self):
        with pytest.raises(ShapeMismatchError):
            ad.sub(Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 2))))
        with pytest.raises(ShapeMismatchError):
            ad.mul_const(Tensor(np.zeros((2, 2))), np.zeros(2))


def scalar_bilinear_x2_oracle(img):
    """Independent per-pixel interpolation at half-pixel-centered sample
    points, scalar arithmetic only."""
    c, h, w = img.shape
    out = np.zeros((c, 2 * h, 2 * w))
    for ch in range(c):
        for r in range(2 * h):
            for col in range(2 * w):
                sr = min(max((r + 0.5) / 2 - 0.5, 0.0), h - 1.0)
                sc = min(max((col + 0.5) / 2 - 0.5, 0.0), w - 1.0)
                r0, c0 = int(np.floor(sr)), int(np.floor(sc))
                r1, c1 = min(r0 + 1, h - 1), min(c0 + 1, w - 1)
                fr, fc = sr - r0, sc - c0
                out[ch, r, col] = (img[ch, r0, c0] * (1 - fr) * (1 - fc) +
                                   img[ch, r1, c0] * fr * (1 - fc) +
                                   img[ch, r0, c1] * (1 - fr) * fc +
                                   img[ch, r1, c1] * fr * fc)
    return out


class TestBilinearUpsample:
    def test_shape(self):
        out = ad.bilinear_upsample_x2(Tensor(np.zeros((512, 20, 15))))
        assert out.shape == (512, 40, 30)

    def test_constant_preserved_exactly(self):
        x = np.full((2, 3, 5), 4.25)
        out = ad.bilinear_upsample_x2(Tensor(x)).data
        np.testing.assert_array_equal(out, np.full((2, 6, 10), 4.25))

    def test_2x2_against_scalar_oracle(self):
        img = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        expected = scalar_bilinear_x2_oracle(img)
        out = ad.bilinear_upsample_x2(Tensor(img)).data
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)

    def test_random_against_scalar_oracle(self):
        rng = np.random.default_rng(11)
        img = rng.standard_normal((2, 4, 3))
        np.testing.assert_allclose(
            ad.bilinear_upsample_x2(Tensor(img)).data,
            scalar_bilinear_x2_oracle(img), rtol=1e-12, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(12)
        for seed in range(5):
            r = np.random.default_rng(seed)
            x = r.standard_normal((1, 3, 4))
            y = r.standard_normal((1, 3, 4))
            a, b = r.standard_normal(2)
            lhs = ad.bilinear_upsample_x2(Tensor(a * x + b * y)).data
            rhs = a * ad.bilinear_upsample_x2(Tensor(x)).data + \
                b * ad.bilinear_upsample_x2(Tensor(y)).data
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 1, 1), (2, 1, 5), (5, 3, 7),
                                       (64, 4, 4), (16, 32, 32)])
    def test_backward_is_adjoint(self, shape):
        # <upsample(x), g> == <x, backward(g)>: the backward is the
        # transpose of the forward's linear map, signed zeros in g too
        rng = np.random.default_rng(13)
        c, h, w = shape
        g = rng.standard_normal((c, 2 * h, 2 * w))
        g[:, ::3] = -0.0
        g[:, :, 1::4] = 0.0
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        out = ad.bilinear_upsample_x2(x)
        out._backward_fn(g)
        lhs, rhs = np.vdot(out.data, g), np.vdot(x.data, x.grad)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_matrices_built_once_per_call(self, monkeypatch):
        calls = []
        real = ad.resize_matrix

        def counted(n, tn):
            calls.append((n, tn))
            return real(n, tn)
        monkeypatch.setattr(ad, "resize_matrix", counted)
        x = Tensor(np.ones((2, 3, 5)), requires_grad=True)
        out = ad.bilinear_upsample_x2(x)
        assert calls == [(3, 6), (5, 10)]
        backward(ad.reduce(out, "sum"))
        assert calls == [(3, 6), (5, 10)]


class TestSpatialGradients:
    def test_hand_case(self):
        m = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        h, v = ad.spatial_gradients(Tensor(m))
        np.testing.assert_array_equal(h.data, [[[1, 0], [1, 0]]])
        np.testing.assert_array_equal(v.data, [[[2, 2], [0, 0]]])

    def test_constant_zero(self):
        h, v = ad.spatial_gradients(Tensor(np.full((1, 3, 3), 2.5)))
        assert not h.data.any() and not v.data.any()

    def test_too_small(self):
        with pytest.raises(ShapeMismatchError):
            ad.spatial_gradients(Tensor(np.zeros((1, 1, 5))))


class TestReduce:
    def test_examples(self):
        assert scalar(ad.reduce(Tensor(np.array([-1.0, 2.0])), "l1")) == 3.0
        assert scalar(ad.reduce(Tensor(np.zeros(5)), "l2sq")) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ad.reduce(Tensor(np.zeros((0, 3))), "sum")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ad.reduce(Tensor(np.ones(2)), "max")

    def test_fixed_order_determinism(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(1000)
        vals = {scalar(ad.reduce(Tensor(x.copy()), "sum"))
                for _ in range(5)}
        assert len(vals) == 1


class TestBackward:
    def test_sum_grad_ones(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)),
                   requires_grad=True)
        backward(ad.reduce(x, "sum"))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_l2sq_grad(self):
        data = np.random.default_rng(1).standard_normal(6)
        x = Tensor(data, requires_grad=True)
        backward(ad.reduce(x, "l2sq"))
        np.testing.assert_allclose(x.grad, 2 * data, rtol=1e-12)

    def test_grads_accumulate(self):
        x = Tensor(np.ones(3), requires_grad=True)
        backward(ad.reduce(x, "sum"))
        backward(ad.reduce(x, "sum"))  # second, distinct graph
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_repeated_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = ad.reduce(x, "sum")
        backward(out)
        with pytest.raises(GraphError, match="repeated"):
            backward(out)

    def test_non_scalar_rejected(self):
        with pytest.raises(GraphError, match="scalar"):
            backward(Tensor(np.zeros(2), requires_grad=True))

    def test_released_graph_keeps_only_leaf_grads(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = ad.relu(x)
        mid = ad.scale(h, 2.0)
        out = ad.reduce(mid, "sum")
        backward(out)
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 2.0])
        for node in (h, mid, out):
            assert node.grad is None and node._parents == ()

    def test_second_root_through_released_node_rejected(self):
        # without the check the second backward would stop at mid and
        # leave x's grad silently short
        x = Tensor(np.ones(3), requires_grad=True)
        mid = ad.scale(x, 2.0)
        backward(ad.reduce(mid, "sum"))
        with pytest.raises(GraphError, match="released"):
            backward(ad.reduce(mid, "l2sq"))

    def test_fanout_grad(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        backward(ad.reduce(ad.add(x, x), "sum"))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_conv_relu_sum_vs_finite_diff(self):
        rng = np.random.default_rng(21)
        w = rng.standard_normal((2, 1, 3, 3)) * 0.7
        b = rng.standard_normal(2) * 0.1

        def f(t):
            return ad.reduce(ad.relu(ad.conv2d(t, Tensor(w), Tensor(b), 1)),
                             "sum")

        x = rng.standard_normal((1, 5, 5))
        assert finite_diff_check(f, Tensor(x)) < 1e-6

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            out = ad.reduce(x, "sum")
        assert not out.requires_grad
        backward(out)
        assert x.grad is None


class TestFiniteDiffCheck:
    def test_linear_near_machine_precision(self):
        c = np.random.default_rng(3).standard_normal((2, 3))
        err = finite_diff_check(lambda t: ad.reduce(ad.mul_const(t, c),
                                                    "sum"),
                                Tensor(np.ones((2, 3))))
        assert err < 1e-8

    def test_constant_function(self):
        err = finite_diff_check(lambda t: ad.reduce(ad.mul_const(
            t, np.zeros((2, 2))), "sum"), Tensor(np.ones((2, 2))))
        assert err == 0.0

    def test_relu_away_from_zero(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.2, 1.0, (3, 3)) * rng.choice([-1, 1], (3, 3))
        err = finite_diff_check(lambda t: ad.reduce(ad.relu(t), "sum"),
                                Tensor(x))
        assert err < 1e-6


def test_all_ops_pass_gradient_suite_many_seeds():
    # the full per-operation sweep lives in verify; 3 seeds here, 20 in
    # the acceptance suite
    from latentdepth.verify import run_gradient_checks
    for seed in range(3):
        for check in run_gradient_checks(seed=seed):
            assert check["passed"], check


# ---------------------------------------------------------------------------
# float32 against float64

# op -> (function of its tensor operands, operand shapes); each operand
# gets a gradient
DTYPE_CASES = {
    "add": (ad.add, [(2, 4, 5), (2, 4, 5)]),
    "sub": (ad.sub, [(2, 4, 5), (2, 4, 5)]),
    "scale": (lambda a: ad.scale(a, 0.7), [(2, 4, 5)]),
    "mul_const": (lambda a: ad.mul_const(
        a, np.random.default_rng(1).standard_normal((2, 4, 5))),
        [(2, 4, 5)]),
    "relu": (ad.relu, [(2, 4, 5)]),
    "conv2d/stride1": (lambda x, w, b: ad.conv2d(x, w, b, 1),
                       [(3, 7, 6), (4, 3, 3, 3), (4,)]),
    "conv2d/stride2": (lambda x, w, b: ad.conv2d(x, w, b, 2),
                       [(3, 7, 6), (4, 3, 5, 3), (4,)]),
    "batch_norm2d": (ad.batch_norm2d, [(3, 5, 4), (3,), (3,)]),
    "batch_norm2d/single": (ad.batch_norm2d, [(3, 1, 1), (3,), (3,)]),
    "bilinear_upsample_x2": (ad.bilinear_upsample_x2, [(2, 3, 4)]),
    "spatial_gradients": (lambda x: ad.add(*ad.spatial_gradients(x)),
                          [(2, 4, 5)]),
    "reduce/sum": (lambda x: ad.reduce(x, "sum"), [(2, 4, 5)]),
    "reduce/l1": (lambda x: ad.reduce(x, "l1"), [(2, 4, 5)]),
    "reduce/l2sq": (lambda x: ad.reduce(x, "l2sq"), [(2, 4, 5)]),
}

# the largest difference of a float32 result from its float64 one, over
# the float64 result's largest magnitude: about 16 float32 epsilons
# (1.2e-7 each). The cases below read at most 3.5e-7
F32_TOL = 2e-6
_ACCUM = ad._accum


def _forward_backward(op, inputs, dtype, monkeypatch):
    """op's output and its operands' gradients of the sum of squares of
    the randomly weighted output, computed in dtype. Every gradient that
    a backward closure passes on must be in dtype too: accumulating it
    into an operand's gradient would hide a promotion."""
    f, _ = DTYPE_CASES[op]

    def accum(t, g):
        assert g.dtype == dtype, "%s passes a %s gradient" % (op, g.dtype)
        _ACCUM(t, g)

    monkeypatch.setattr(ad, "_accum", accum)
    ts = [Tensor(x.astype(dtype), requires_grad=True) for x in inputs]
    out = f(*ts)
    weights = np.random.default_rng(2).standard_normal(out.shape)
    loss = ad.reduce(ad.mul_const(out, weights), "l2sq")
    assert loss.data.dtype == dtype
    backward(loss)
    return [out.data] + [t.grad for t in ts]


class TestDtypes:
    @pytest.mark.parametrize("op", sorted(DTYPE_CASES))
    def test_float32_matches_float64(self, op, monkeypatch):
        rng = np.random.default_rng(len(op))
        inputs = [rng.standard_normal(s) + 0.5
                  for s in DTYPE_CASES[op][1]]
        want = _forward_backward(op, inputs, np.float64, monkeypatch)
        got = _forward_backward(op, inputs, np.float32, monkeypatch)
        for g, w in zip(got, want):
            assert g.dtype == np.float32
            assert np.abs(g - w).max() <= F32_TOL * np.abs(w).max()

    @pytest.mark.parametrize("op", ["add", "sub", "conv2d/stride1",
                                    "batch_norm2d"])
    def test_mixed_dtypes_rejected(self, op):
        f, shapes = DTYPE_CASES[op]
        for first, last in [("float32", "float64"), ("float64", "float32")]:
            ts = [Tensor(np.ones(s, dtype=first)) for s in shapes[:-1]]
            with pytest.raises(ShapeMismatchError,
                               match="dtype %s vs %s" % (first, last)):
                f(*ts, Tensor(np.ones(shapes[-1], dtype=last)))

    def test_tensor_keeps_float_dtypes_and_converts_the_rest(self):
        for dtype in (np.float32, np.float64):
            assert Tensor(np.ones(2, dtype)).data.dtype == dtype
        for data in (np.ones(2, np.int64), np.ones(2, np.float16), 1.5,
                     [1, 2]):
            assert Tensor(data).data.dtype == np.float64
