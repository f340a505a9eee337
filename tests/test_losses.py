import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakseg.imgcore import BG, FG, IGNORE
from weakseg.losses import (CLAMP_EPS, RLS_LAMBDA1, RLS_LAMBDA2,
                            DegenerateRegionError, bce_loss, data_term,
                            finite_diff_check, iou_loss, rls_loss, seg_loss)


def tri(values):
    return np.asarray(values, dtype=np.int8)


def region_means(p, img, region):
    """(c1, c2): the p- and (1-p)-weighted means of img over the region,
    summed in the order data_term sums them."""
    h, v = p[region], img[region]
    g = 1.0 - h
    return (float((v * h).sum()) / float(h.sum()),
            float((v * g).sum()) / float(g.sum()))


class TestBce:
    def test_perfect_prediction_floor(self):
        g = tri([[FG, BG, FG, BG]])
        p = np.array([[1.0, 0.0, 1.0, 0.0]])
        out = bce_loss(p, g)
        assert out.value <= -np.log1p(-1e-7) + 1e-12

    def test_symmetry_point(self):
        out = bce_loss(np.array([[0.5]]), tri([[FG]]))
        assert abs(out.value - np.log(2)) < 1e-12

    def test_ignore_pixel_excluded(self):
        out = bce_loss(np.array([[0.9, 0.2]]), tri([[FG, IGNORE]]))
        assert abs(out.value - (-np.log(0.9))) < 1e-12
        assert out.grad[0, 1] == 0.0

    def test_all_ignore_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(np.array([[0.5]]), tri([[IGNORE]]))

    def test_grad_zero_where_clamped_or_ignored(self):
        lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
        p = np.array([[0.0, lo, hi, 1.0, 0.3, 0.3],
                      [0.0, lo, hi, 1.0, 0.7, 0.7]])
        g = tri([[FG, FG, FG, FG, FG, IGNORE],
                 [BG, BG, BG, BG, BG, IGNORE]])
        grad = bce_loss(p, g).grad
        assert np.all(grad[:, [0, 1, 2, 3, 5]] == 0.0)
        assert np.all(grad[:, 4] != 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.05, 0.95, (8, 8))
        g = rng.integers(0, 3, (8, 8)).astype(np.int8)
        assert finite_diff_check(lambda x: bce_loss(x, g), p) < 1e-6


class TestIou:
    def test_identity(self):
        g = tri([[FG, BG], [BG, FG]])
        p = (g == FG).astype(float)
        assert iou_loss(p, g).value == 0.0

    def test_disjoint(self):
        g = tri([[FG, BG]])
        p = np.array([[0.0, 1.0]])
        assert iou_loss(p, g).value == 1.0

    def test_half_overlap_arithmetic(self):
        out = iou_loss(np.array([[0.5, 0.5]]), tri([[FG, BG]]))
        assert abs(out.value - 2.0 / 3.0) < 1e-12

    def test_empty_empty_convention(self):
        out = iou_loss(np.zeros((2, 2)), tri(np.full((2, 2), BG)))
        assert out.value == 0.0
        assert np.all(out.grad == 0.0)

    def test_grad_zero_at_ignore(self):
        g = tri([[FG, BG, IGNORE], [IGNORE, FG, BG]])
        grad = iou_loss(np.full((2, 3), 0.4), g).grad
        assert np.all(grad[g == IGNORE] == 0.0)
        assert np.all(grad[g != IGNORE] != 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.05, 0.95, (8, 8))
        g = rng.integers(0, 3, (8, 8)).astype(np.int8)
        assert finite_diff_check(lambda x: iou_loss(x, g), p) < 1e-6

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_range_invariant(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0, 1, (5, 5))
        g = rng.integers(0, 3, (5, 5)).astype(np.int8)
        if (g != IGNORE).sum() == 0:
            g[0, 0] = FG
        assert 0.0 <= iou_loss(p, g).value <= 1.0
        assert bce_loss(p, g).value >= 0.0


class TestRegionMeans:
    """data_term's region means, seen through its gradient output
    (v - c1)^2 - (v - c2)^2 at unit weights."""

    @staticmethod
    def residuals(p, img):
        grad = np.empty_like(p)
        value = data_term(p, img, 1.0, 1.0, grad)
        return value, grad

    def test_constant_image(self):
        p = np.array([[0.2, 0.9], [0.4, 0.6]])
        img = np.full((2, 2), 0.7)
        value, grad = self.residuals(p, img)
        assert abs(value) < 1e-12 and np.all(np.abs(grad) < 1e-12)

    def test_two_phase_exact(self):
        img = np.array([[0.9, 0.9, 0.1, 0.1]])
        p = np.array([[1.0, 1.0, 0.0, 0.0]])
        value, grad = self.residuals(p, img)
        # c1 = 0.9 and c2 = 0.1 exactly
        assert value == 0.0
        assert np.array_equal(grad, (img - 0.9) ** 2 - (img - 0.1) ** 2)

    def test_weighted_mean_arithmetic(self):
        img = np.array([[0.0, 0.2, 0.8, 1.0]])
        p = np.array([[0.9, 0.8, 0.1, 0.2]])
        value, grad = self.residuals(p, img)
        d1, d2 = (img - 0.22) ** 2, (img - 0.78) ** 2
        assert np.allclose(grad, d1 - d2, rtol=0, atol=1e-12)
        assert abs(value - float((d1 * p + d2 * (1 - p)).sum())) < 1e-12

    def test_degenerate_region(self):
        with pytest.raises(DegenerateRegionError):
            data_term(np.zeros((2, 2)), np.ones((2, 2)) * 0.5, 1.0, 1.0)


class TestRls:
    def test_two_phase_zero(self):
        img = np.array([[0.9, 0.9, 0.1, 0.1]])
        p = np.array([[1.0, 1.0, 0.0, 0.0]])
        out = rls_loss(p, img, np.ones((1, 4), bool))
        assert abs(out.value) < 1e-15

    def test_constant_image_zero(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.1, 0.9, (4, 4))
        out = rls_loss(p, np.full((4, 4), 0.3), np.ones((4, 4), bool))
        assert abs(out.value) < 1e-15

    def test_four_pixel_arithmetic(self):
        img = np.array([[0.0, 0.2, 0.8, 1.0]])
        p = np.array([[0.9, 0.8, 0.1, 0.2]])
        out = rls_loss(p, img, np.ones((1, 4), bool))
        assert (RLS_LAMBDA1, RLS_LAMBDA2) == (1.0, 3.0)
        assert abs(out.value - 0.1752) < 1e-12

    def test_outside_region_invariance(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 1, (6, 6))
        region = np.zeros((6, 6), bool)
        region[1:5, 1:5] = True
        p = rng.uniform(0.1, 0.9, (6, 6))
        base = rls_loss(p, img, region)
        p2 = p.copy()
        p2[~region] = rng.uniform(0, 1, (~region).sum())
        pert = rls_loss(p2, img, region)
        assert base.value == pert.value
        assert np.array_equal(base.grad, pert.grad)
        assert np.all(base.grad[~region] == 0.0)
        with pytest.raises(ValueError):
            rls_loss(p[:5], img, region)

    def test_swap_symmetry(self):
        # swapping inside and outside swaps the roles of the two weights
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (5, 5))
        p = rng.uniform(0.1, 0.9, (5, 5))
        ga, gb = np.empty_like(p), np.empty_like(p)
        a = data_term(p, img, 1.0, 3.0, ga)
        b = data_term(1.0 - p, img, 3.0, 1.0, gb)
        assert abs(a - b) < 1e-12
        # the means swap too, so the gradients are opposite
        assert np.allclose(ga, -gb, rtol=0, atol=1e-12)

    def test_grad_is_the_frozen_means_formula_exactly(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 1, (7, 9))
        p = rng.uniform(0.05, 0.95, (7, 9))
        region = rng.uniform(0, 1, (7, 9)) < 0.6
        region[0, :2] = True
        c1, c2 = region_means(p, img, region)
        d1 = (img - c1) ** 2
        d2 = (img - c2) ** 2
        want = np.zeros_like(p)
        want[region] = (RLS_LAMBDA1 * d1[region]
                        - RLS_LAMBDA2 * d2[region]) / int(region.sum())
        assert rls_loss(p, img, region).grad.tobytes() == want.tobytes()

    def test_finite_differences_frozen_means(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, (8, 8))
        p0 = rng.uniform(0.05, 0.95, (8, 8))
        region = rng.uniform(0, 1, (8, 8)) < 0.7
        region[0, :2] = True
        c1, c2 = region_means(p0, img, region)
        n = int(region.sum())
        d1 = (img - c1) ** 2
        d2 = (img - c2) ** 2

        def fn(x):
            val = float((RLS_LAMBDA1 * x * d1
                         + RLS_LAMBDA2 * (1 - x) * d2)[region].sum()) / n
            grad = np.zeros_like(x)
            grad[region] = (RLS_LAMBDA1 * d1[region]
                            - RLS_LAMBDA2 * d2[region]) / n
            return val, grad

        assert finite_diff_check(fn, p0) < 1e-6

    def test_finite_differences_through_means(self):
        # the region means are weighted least-squares minimizers, so
        # differentiating through them adds nothing at the evaluation point
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 1, (8, 8))
        p0 = rng.uniform(0.05, 0.95, (8, 8))
        region = rng.uniform(0, 1, (8, 8)) < 0.7
        region[0, :2] = True
        assert finite_diff_check(lambda x: rls_loss(x, img, region), p0) < 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            img = rng.uniform(0, 1, (5, 5))
            p = rng.uniform(0.05, 0.95, (5, 5))
            assert rls_loss(p, img, np.ones((5, 5), bool)).value >= 0.0


class TestSegLoss:
    def _triple(self, seed):
        rng = np.random.default_rng(seed)
        preds, masks = [], []
        for s in (4, 2, 1):
            preds.append(rng.uniform(0.05, 0.95, (8 // s, 8 // s)))
            masks.append(rng.integers(0, 2, (8 // s, 8 // s)).astype(np.int8))
        return preds, masks

    def test_perfect_prediction_floor(self):
        rng = np.random.default_rng(8)
        preds, masks = [], []
        for s in (4, 2, 1):
            g = rng.integers(0, 2, (8 // s, 8 // s)).astype(np.int8)
            masks.append(g)
            preds.append((g == FG).astype(float))
        value, _ = seg_loss(preds, masks)
        assert value <= 3 * -np.log1p(-1e-7) + 1e-12

    def test_recomposition(self):
        preds, masks = self._triple(9)
        value, grads = seg_loss(preds, masks)
        expect = sum(bce_loss(p, g).value + iou_loss(p, g).value
                     for p, g in zip(preds, masks))
        assert abs(value - expect) < 1e-12
        for p, g, got in zip(preds, masks, grads):
            ref = bce_loss(p, g).grad + iou_loss(p, g).grad
            assert np.allclose(got, ref, atol=1e-15)

    def test_shape_mismatch(self):
        preds, masks = self._triple(10)
        masks[1] = masks[1][:1]
        with pytest.raises(ValueError):
            seg_loss(preds, masks)

    def test_needs_one_mask_per_prediction(self):
        preds, masks = self._triple(10)
        with pytest.raises(ValueError):
            seg_loss(preds, masks[:2])

    @staticmethod
    def _gather_reference(p, g):
        """bce + iou computed on the non-IGNORE pixels gathered by boolean
        indexing and scattered back into a zeroed gradient."""
        valid, tgt = g != IGNORE, (g == FG).astype(np.float64)
        n = int(valid.sum())
        pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
        terms = tgt * np.log(pc) + (1.0 - tgt) * np.log1p(-pc)
        value = -float(terms[valid].sum()) / n
        grad = np.zeros_like(p)
        unsat = valid & (p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)
        grad[unsat] = (-(tgt[unsat] / pc[unsat])
                       + (1.0 - tgt[unsat]) / (1.0 - pc[unsat])) / n
        inter = float((tgt * p)[valid].sum())
        union = float((tgt + p - tgt * p)[valid].sum())
        value += 1.0 - inter / union
        igrad = np.zeros_like(p)
        igrad[valid] = -(tgt[valid] * union
                         - inter * (1.0 - tgt[valid])) / union ** 2
        return value, grad + igrad

    def test_matches_gather_reference_without_ignore(self):
        # full-grid masked sums add the same terms in the same order as the
        # gathered ones when no pixel is IGNORE, so the bytes agree
        rng = np.random.default_rng(12)
        for side in (8, 64):
            logits = rng.normal(0, 8, (side, side))  # saturates some pixels
            p3 = 1.0 / (1.0 + np.exp(-logits))
            preds = [p3[1::4, 1::4].copy(), p3[::2, ::2].copy(), p3]
            masks = [rng.integers(0, 2, p.shape).astype(np.int8)
                     for p in preds]
            value, grads = seg_loss(preds, masks)
            refs = [self._gather_reference(p, g) for p, g in zip(preds, masks)]
            assert value == sum(v for v, _ in refs)
            for got, (_, ref) in zip(grads, refs):
                assert got.tobytes() == ref.tobytes()


def test_finite_diff_check_quadratic():
    def fn(x):
        return float((x ** 2).sum()), 2 * x

    rng = np.random.default_rng(11)
    # keep coordinates away from zero so fd roundoff stays below 1e-9 relative
    x = rng.uniform(0.1, 1, (4, 4)) * rng.choice([-1.0, 1.0], (4, 4))
    assert finite_diff_check(fn, x) < 1e-9
