import numpy as np
import pytest

import latentdepth.autodiff as ad
from latentdepth.autodiff import (GraphError, ShapeMismatchError, Tensor,
                                  backward, finite_diff_check)


def scalar(t):
    return t.item()


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

    def test_big_path_matches_im2col(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 9, 8))
        w = rng.standard_normal((5, 3, 3, 3))
        b = rng.standard_normal(5)
        for stride in (1, 2):
            g = rng.standard_normal((5, -(-9 // stride), -(-8 // stride)))
            ref = self._conv_and_grads(x, w, b, stride, g)
            limit = ad._IM2COL_LIMIT
            try:
                ad._IM2COL_LIMIT = 0
                alt = self._conv_and_grads(x, w, b, stride, g)
            finally:
                ad._IM2COL_LIMIT = limit
            for a, r in zip(alt, ref):
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

    @staticmethod
    def _count_im2col(monkeypatch):
        """Record the id of the first argument of every _im2col call."""
        calls = []
        real = ad._im2col

        def counting(*args):
            calls.append(id(args[0]))
            return real(*args)

        monkeypatch.setattr(ad, "_im2col", counting)
        return calls

    @pytest.mark.parametrize("weight_grad,rebuilds", [(True, 1), (False, 0)])
    def test_backward_rebuilds_only_for_weight_grad(self, monkeypatch,
                                                    weight_grad, rebuilds):
        calls = self._count_im2col(monkeypatch)
        x = Tensor(np.ones((2, 4, 4)), requires_grad=True)
        w = Tensor(np.ones((3, 2, 3, 3)), requires_grad=weight_grad)
        out = ad.conv2d(x, w, Tensor(np.zeros(3)), 1)
        assert calls == [id(x.data)]
        backward(ad.reduce(out, "sum"))
        # forward-shape patch matrices are built from the conv's input; the
        # input gradient's patch matrices are built from the output gradient
        assert calls[1:].count(id(x.data)) == rebuilds and x.grad is not None

    def test_input_grad_patch_matrix_bounded(self, monkeypatch):
        # C_in=1, C_out=8: the forward's patch matrix has 1*9*36 elements,
        # the input gradient's 8*9*36; a limit between them sends the conv
        # to the offset path only when its input needs a gradient
        calls = self._count_im2col(monkeypatch)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 6, 6))
        w = rng.standard_normal((8, 1, 3, 3))
        b = rng.standard_normal(8)
        g = rng.standard_normal((8, 6, 6))
        ref = self._conv_and_grads(x, w, b, 1, g)
        monkeypatch.setattr(ad, "_IM2COL_LIMIT", 1000)

        del calls[:]
        alt = self._conv_and_grads(x, w, b, 1, g)
        assert calls == []
        for a, r in zip(alt, ref):
            np.testing.assert_allclose(a, r, rtol=1e-12, atol=1e-12)

        frozen = Tensor(x)
        ad.conv2d(frozen, Tensor(w, requires_grad=True), Tensor(b), 1)
        assert calls == [id(frozen.data)]
        with ad.no_grad():
            trainable = Tensor(x, requires_grad=True)
            ad.conv2d(trainable, Tensor(w), Tensor(b), 1)
        assert calls == [id(frozen.data), id(trainable.data)]

    # (C, H, W, kh, kw, stride): odd and even sizes, non-square maps,
    # kh != kw, 1x1 kernels and maps smaller than the kernel
    IM2COL_CASES = [(2, 5, 5, 3, 3, 1), (2, 5, 5, 3, 3, 2),
                    (3, 6, 4, 3, 3, 1), (3, 6, 4, 3, 3, 2),
                    (1, 7, 8, 3, 5, 1), (2, 7, 8, 5, 3, 2),
                    (4, 6, 5, 1, 1, 1), (4, 6, 5, 1, 1, 2),
                    (2, 1, 2, 5, 5, 1), (2, 2, 1, 7, 3, 2),
                    (1, 1, 1, 9, 9, 2)]

    @pytest.mark.parametrize("c,h,w,kh,kw,stride", IM2COL_CASES)
    def test_im2col_matches_loop_reference(self, c, h, w, kh, kw, stride):
        x = np.random.default_rng(h * 10 + w).standard_normal((c, h, w))
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
        oh, ow = -(-h // stride), -(-w // stride)
        xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
        ref = np.empty((c, kh, kw, oh, ow))
        for i in range(kh):
            for j in range(kw):
                ref[:, i, j] = xp[:, i:i + stride * oh:stride,
                                  j:j + stride * ow:stride]
        cols = ad._im2col(x, kh, kw, stride, ph, pw, oh, ow)
        assert cols.shape == (c * kh * kw, oh * ow)
        assert cols.dtype == ref.dtype and cols.flags.c_contiguous
        assert cols.tobytes() == ref.tobytes()

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

    @staticmethod
    def _conv_and_grads(x, w, b, stride, g):
        """Output and input, weight and bias gradients of sum(g * conv)."""
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = ad.conv2d(tx, tw, tb, stride)
        backward(ad.reduce(ad.mul_const(out, g), "sum"))
        return out.data, tx.grad, tw.grad, tb.grad


class TestBatchNorm:
    def test_train_two_values(self):
        x = np.array([1.0, 3.0]).reshape(1, 1, 2)
        out = ad.batch_norm2d(Tensor(x), Tensor(np.ones(1)),
                              Tensor(np.zeros(1)), 1e-12)
        np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-5)

    def test_constant_channel_zero_output(self):
        x = np.full((2, 3, 3), 7.0)
        out = ad.batch_norm2d(Tensor(x), Tensor(np.ones(2)),
                              Tensor(np.zeros(2)), 1e-5)
        np.testing.assert_array_equal(out.data, np.zeros_like(x))

    def test_single_element_rule(self):
        # one element per channel: mean 0, variance 1, so x / sqrt(1 + eps)
        x = Tensor(np.array([2.0, -3.0]).reshape(2, 1, 1), requires_grad=True)
        gamma, beta = np.array([0.5, 2.0]), np.array([0.1, -0.2])
        eps = 1e-5
        out = ad.batch_norm2d(x, Tensor(gamma), Tensor(beta), eps)
        scale = gamma / np.sqrt(1.0 + eps)
        np.testing.assert_allclose(out.data.ravel(),
                                   scale * x.data.ravel() + beta, rtol=1e-15)
        # the fixed statistics pass no gradient: d out / d x = gamma / std
        backward(ad.reduce(out, "sum"))
        np.testing.assert_allclose(x.grad.ravel(), scale, rtol=1e-15)

    def test_per_sample_statistics(self):
        x = np.random.default_rng(4).standard_normal((3, 4, 4)) * 5.0 + 2.0
        out = ad.batch_norm2d(Tensor(x), Tensor(np.ones(3)),
                              Tensor(np.zeros(3)), 1e-10).data
        np.testing.assert_allclose(out.mean(axis=(1, 2)), np.zeros(3),
                                   atol=1e-12)
        np.testing.assert_allclose(out.var(axis=(1, 2)), np.ones(3),
                                   rtol=1e-8)

    def test_batched_input_rejected(self):
        with pytest.raises(ShapeMismatchError, match="CxHxW"):
            ad.batch_norm2d(Tensor(np.ones((2, 3, 4, 4))), Tensor(np.ones(3)),
                            Tensor(np.zeros(3)), 1e-5)


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
        assert scalar(ad.reduce(Tensor(np.full((3, 3), 7.0)), "mean")) == 7.0
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
