import json
from dataclasses import asdict

import numpy as np
import pytest

from latentdepth.metrics import (TABLE2_BASELINES, TABLE2_OURS, EvalResult,
                                 relative_improvement, rmse)


def _flat_oracle(pairs):
    """Brute force: concatenate every valid residual, one sqrt at the end."""
    diffs = []
    for y, t, m in pairs:
        y, t = np.asarray(y, float), np.asarray(t, float)
        m = np.asarray(m, bool)
        if m.shape != y.shape:
            m = np.broadcast_to(m[None], y.shape)
        diffs.append((y - t)[m].ravel())
    flat = np.concatenate(diffs)
    return float(np.sqrt(np.mean(flat * flat)))


class TestRmse:
    def test_hand_case(self):
        y = np.array([[[2.0, -2.0, 99.0]]])
        t = np.zeros((1, 1, 3))
        mask = np.array([[True, True, False]])
        result = rmse([(y, t, mask)])
        assert result.rmse == 2.0
        assert result.n_valid_pixels == 2
        assert result.n_images == 1

    def test_pooled_divisor_is_pixels_not_images(self):
        # diff 3 over 1 pixel plus diff 0 over 2 pixels: pooled
        # sqrt(9/3) ~ 1.732; a mean of per-image rmses would give 1.5
        a = (np.array([[[3.0]]]), np.zeros((1, 1, 1)), np.ones((1, 1), bool))
        b = (np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), np.ones((1, 2), bool))
        result = rmse([a, b])
        assert result.rmse == pytest.approx(np.sqrt(9.0 / 3.0), rel=1e-15)
        assert result.n_valid_pixels == 3 and result.n_images == 2

    def test_flat_vector_oracle_equivalence(self):
        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(10):
            y = rng.random((1, 8, 8)) * 5
            t = rng.random((1, 8, 8)) * 5
            mask = rng.random((8, 8)) > 0.2
            pairs.append((y, t, mask))
        got = rmse(pairs).rmse
        assert got == pytest.approx(_flat_oracle(pairs), rel=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        pairs = [(rng.random((1, 4, 4)), rng.random((1, 4, 4)),
                  np.ones((4, 4), bool)) for _ in range(6)]
        a = rmse(pairs).rmse
        b = rmse(pairs[::-1]).rmse
        assert a == pytest.approx(b, rel=1e-13)

    def test_scale_covariance(self):
        rng = np.random.default_rng(2)
        y, t = rng.random((1, 4, 4)), rng.random((1, 4, 4))
        mask = np.ones((4, 4), bool)
        base = rmse([(y, t, mask)]).rmse
        scaled = rmse([(y * 7.0, t * 7.0, mask)]).rmse
        assert scaled == pytest.approx(7.0 * base, rel=1e-12)

    def test_no_valid_pixels_rejected(self):
        with pytest.raises(ValueError, match="no valid"):
            rmse([(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)),
                   np.zeros((2, 2), bool))])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse([(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)),
                   np.ones((2, 2), bool))])
        for mask_shape in ((3, 3), (1, 2, 2)):
            with pytest.raises(ValueError, match="mask"):
                rmse([(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)),
                       np.ones(mask_shape, bool))])


class TestRelativeImprovement:
    def test_published_comparison_rows(self):
        want = {"Eigen et al.": 54.13, "Sihaeng et al.": 8.37,
                "Zhang et al.": 29.49}
        for name, baseline in TABLE2_BASELINES.items():
            got = relative_improvement(baseline, TABLE2_OURS)
            assert got == pytest.approx(want[name], abs=0.01)

    def test_identity_is_zero(self):
        assert relative_improvement(0.5, 0.5) == 0.0

    def test_worse_is_negative(self):
        assert relative_improvement(0.5, 1.0) == -100.0

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ValueError):
            relative_improvement(0.0, 0.4)


class TestEvalResult:
    def test_json_fields(self):
        r = EvalResult(rmse=0.25, n_valid_pixels=100, n_images=4)
        doc = json.loads(json.dumps(asdict(r)))
        assert doc == {"rmse": 0.25, "n_valid_pixels": 100, "n_images": 4}

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalResult(rmse=-1.0, n_valid_pixels=10, n_images=1)
        with pytest.raises(ValueError):
            EvalResult(rmse=float("nan"), n_valid_pixels=10, n_images=1)
        with pytest.raises(ValueError):
            EvalResult(rmse=1.0, n_valid_pixels=0, n_images=1)

    def test_summary_mentions_counts(self):
        text = EvalResult(rmse=1.5, n_valid_pixels=7, n_images=2).summary()
        assert "7" in text and "2" in text
