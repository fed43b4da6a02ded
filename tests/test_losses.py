import numpy as np
import pytest

import latentdepth.autodiff as ad
from latentdepth import losses
from latentdepth.autodiff import ShapeMismatchError, Tensor, finite_diff_check
from latentdepth.losses import (LossWeights, data_loss,
                                feature_gradient_loss, image_gradient_loss,
                                latent_loss, total_loss)
from latentdepth.network import DepthModel, NetworkConfig, extract_features


def _feats(*arrs):
    return [Tensor(a.astype(float)) for a in arrs]


class TestLossWeights:
    def test_defaults_all_one(self):
        w = LossWeights()
        assert (w.data, w.latent, w.grad_image, w.grad_feature) == (1, 1, 1, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(data=-0.1)

    @pytest.mark.parametrize("field", ["data", "latent", "grad_image",
                                       "grad_feature"])
    def test_non_finite_rejected(self, field):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                LossWeights(**{field: bad})

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0, 0.0, 0.0)


class TestDataLoss:
    def test_hand_case(self):
        # |1-0| + |2-0| over 2 valid pixels = 1.5
        y = Tensor(np.array([[[1.0, 2.0]]]))
        t = Tensor(np.zeros((1, 1, 2)))
        assert data_loss(y, t, np.ones((1, 2), bool)).item() == 1.5

    def test_mask_excludes_pixels(self):
        y = Tensor(np.array([[[1.0, 100.0]]]))
        t = Tensor(np.zeros((1, 1, 2)))
        mask = np.array([[True, False]])
        assert data_loss(y, t, mask).item() == 1.0

    def test_zero_on_identical(self):
        x = np.random.default_rng(0).random((1, 4, 4))
        assert data_loss(Tensor(x), Tensor(x.copy()),
                         np.ones((4, 4), bool)).item() == 0.0

    def test_empty_mask_rejected(self):
        y = Tensor(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="no valid"):
            data_loss(y, Tensor(np.zeros((1, 2, 2))), np.zeros((2, 2), bool))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            data_loss(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 2, 3))),
                      np.ones((2, 2), bool))
        # a mask is HxW, not the prediction's full shape
        with pytest.raises(ShapeMismatchError, match="mask"):
            data_loss(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 2))),
                      np.ones((1, 1, 2), bool))


class TestImageGradientLoss:
    def test_hand_case_exact(self):
        # y = [[0,1],[2,3]]: forward diffs h = [[1,0],[1,0]],
        # v = [[2,2],[0,0]]; vs zeros: (1+1) + (2+2) = 6 over 4 pixels = 1.5
        y = Tensor(np.array([[[0.0, 1.0], [2.0, 3.0]]]))
        t = Tensor(np.zeros((1, 2, 2)))
        assert image_gradient_loss(y, t).item() == 1.5

    def test_zero_on_identical(self):
        x = np.random.default_rng(1).random((1, 5, 5))
        assert image_gradient_loss(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_constant_offset_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.random((1, 6, 6))
        t = rng.random((1, 6, 6))
        base = image_gradient_loss(Tensor(y), Tensor(t)).item()
        shifted = image_gradient_loss(Tensor(y + 3.25), Tensor(t)).item()
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        y, t = rng.random((1, 4, 4)), rng.random((1, 4, 4))
        a = image_gradient_loss(Tensor(y), Tensor(t)).item()
        b = image_gradient_loss(Tensor(t), Tensor(y)).item()
        assert a == pytest.approx(b, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            image_gradient_loss(Tensor(np.zeros((1, 2, 2))),
                                Tensor(np.zeros((1, 3, 2))))


class TestLatentLoss:
    def test_stub_case_exact(self):
        # single layer, shape (1,1,2): 0.5/2 * (1^2 + 3^2) = 2.5
        fy = _feats(np.array([[[1.0, 3.0]]]))
        ft = _feats(np.zeros((1, 1, 2)))
        assert latent_loss(fy, ft).item() == 2.5

    def test_additive_over_layers(self):
        rng = np.random.default_rng(4)
        la = [rng.random((2, 3, 3)), rng.random((4, 2, 2))]
        lb = [rng.random((2, 3, 3)), rng.random((4, 2, 2))]
        both = latent_loss(_feats(*la), _feats(*lb)).item()
        parts = sum(latent_loss(_feats(la[i]), _feats(lb[i])).item()
                    for i in range(2))
        assert both == pytest.approx(parts, rel=1e-15)

    def test_zero_on_identical_features(self):
        f = np.random.default_rng(5).random((3, 2, 2))
        assert latent_loss(_feats(f), _feats(f.copy())).item() == 0.0

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            latent_loss([], [])

    def test_feature_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            latent_loss(_feats(np.zeros((2, 2, 2))),
                        _feats(np.zeros((2, 3, 2))))

    def test_unequal_layer_counts_rejected(self):
        f = np.zeros((2, 2, 2))
        with pytest.raises(ShapeMismatchError, match="layers"):
            latent_loss(_feats(f, f), _feats(f))
        with pytest.raises(ShapeMismatchError, match="layers"):
            latent_loss(_feats(f), _feats(f, f))


class TestFeatureGradientLoss:
    def test_matches_image_gradient_per_layer(self):
        rng = np.random.default_rng(6)
        fa, fb = rng.random((2, 4, 4)), rng.random((2, 4, 4))
        got = feature_gradient_loss(_feats(fa), _feats(fb)).item()
        want = image_gradient_loss(Tensor(fa), Tensor(fb)).item()
        assert got == pytest.approx(want, rel=1e-15)

    def test_sub_2x2_layers_contribute_zero(self):
        rng = np.random.default_rng(7)
        fa, fb = rng.random((2, 3, 3)), rng.random((2, 3, 3))
        tiny_a, tiny_b = rng.random((8, 1, 1)), rng.random((8, 1, 1))
        with_tiny = feature_gradient_loss(_feats(fa, tiny_a),
                                          _feats(fb, tiny_b)).item()
        without = feature_gradient_loss(_feats(fa), _feats(fb)).item()
        assert with_tiny == without

    def test_all_layers_tiny_gives_zero(self):
        assert feature_gradient_loss(_feats(np.ones((4, 1, 1))),
                                     _feats(np.zeros((4, 1, 1)))
                                     ).item() == 0.0

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            feature_gradient_loss([], [])

    def test_unequal_layer_counts_rejected(self):
        f = np.zeros((2, 2, 2))
        with pytest.raises(ShapeMismatchError, match="layers"):
            feature_gradient_loss(_feats(f, f), _feats(f))


class TestTotalLoss:
    def _setup(self, seed):
        cfg = NetworkConfig(input_channels=1, base_width=2,
                            bottleneck_blocks=1, input_h=16, input_w=16)
        # float64, as the gradient suite's: the terms are compared at
        # float64 precision and checked by finite differences
        guided = DepthModel(cfg, seed=seed, dtype=np.float64)
        guided.freeze()
        return lambda y: extract_features(guided, y)

    def test_equals_weighted_sum_of_terms(self):
        rng = np.random.default_rng(8)
        extract = self._setup(9)
        y = Tensor(rng.uniform(1.0, 3.0, (1, 16, 16)))
        t = Tensor(rng.uniform(1.0, 3.0, (1, 16, 16)))
        mask = np.ones((16, 16), bool)
        w = LossWeights(data=1.0, latent=0.25, grad_image=2.0,
                        grad_feature=0.5)
        report, total = total_loss(y, t, mask, w, extract(y), extract(t))
        want = (w.data * report.data + w.latent * report.latent +
                w.grad_image * report.grad_image +
                w.grad_feature * report.grad_feature)
        assert total.item() == pytest.approx(want, rel=1e-12)
        assert report.total == total.item()

    def test_zero_on_identical_inputs(self):
        extract = self._setup(10)
        x = np.random.default_rng(11).uniform(1.0, 3.0, (1, 16, 16))
        y, t = Tensor(x), Tensor(x.copy())
        report, total = total_loss(y, t, np.ones((16, 16), bool),
                                   LossWeights(), extract(y), extract(t))
        assert total.item() == 0.0
        assert (report.data, report.latent, report.grad_image,
                report.grad_feature) == (0.0, 0.0, 0.0, 0.0)

    def test_feature_terms_skipped_when_unweighted(self, monkeypatch):
        # an unweighted term is never built and reports 0.0; feature lists
        # are not read, so None in their place is accepted
        rng = np.random.default_rng(12)
        y = Tensor(rng.random((1, 4, 4)))
        t = Tensor(rng.random((1, 4, 4)))
        built = []
        for term, fn in [("data", "data_loss"), ("latent", "latent_loss"),
                         ("grad_image", "image_gradient_loss"),
                         ("grad_feature", "feature_gradient_loss")]:
            def counting(*args, term=term, real=getattr(losses, fn)):
                built.append(term)
                return real(*args)
            monkeypatch.setattr(losses, fn, counting)
        for zeroed in [("latent", "grad_feature"),
                       ("data", "latent", "grad_feature"),
                       ("latent", "grad_image", "grad_feature")]:
            built.clear()
            report, total = total_loss(
                y, t, np.ones((4, 4), bool),
                LossWeights(**{name: 0.0 for name in zeroed}), None, None)
            weighted = [n for n in report._fields[:-1] if n not in zeroed]
            assert built == weighted
            assert all(getattr(report, n) == 0.0 for n in zeroed)
            assert all(getattr(report, n) > 0.0 for n in weighted)
            assert report.total == total.item()

    def test_finite_diff_wrt_prediction(self):
        extract = self._setup(13)
        rng = np.random.default_rng(14)
        t = Tensor(rng.uniform(1.0, 3.0, (1, 16, 16)))
        mask = np.ones((16, 16), bool)
        w = LossWeights()
        # keep every residual and residual difference off the L1 kinks:
        # continuous magnitudes bounded away from zero, random signs
        bump = rng.uniform(0.3, 1.0, (1, 16, 16)) * \
            rng.choice([-1.0, 1.0], (1, 16, 16))
        y0 = t.data + bump
        ft = extract(t)

        def f(y):
            return total_loss(y, t, mask, w, extract(y), ft)[1]

        assert finite_diff_check(f, Tensor(y0)) < 1e-4
