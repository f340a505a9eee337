import numpy as np
import pytest

from weakseg import levelset
from weakseg.levelset import (CvConfig, cv_energy, cv_evolve, smooth_delta,
                              smooth_heaviside)
from weakseg.losses import (DegenerateRegionError, LossConfig,
                            finite_diff_check, rls_loss)
from scipy.ndimage import distance_transform_edt
from weakseg.metrics import prf_dice
from weakseg.recist import Ellipse, rasterize_ellipse
from weakseg.synthgen import SynthConfig, gen_lesion


def two_phase_image():
    img = np.full((16, 16), 0.2)
    img[4:12, 4:12] = 0.8
    return img, img > 0.5


class TestHeaviside:
    def test_half_at_zero(self):
        for eps in (0.1, 1.0, 5.0):
            assert smooth_heaviside(0.0, eps) == 0.5

    def test_odd_symmetry(self):
        z = np.linspace(-5, 5, 21)
        assert np.allclose(smooth_heaviside(z) + smooth_heaviside(-z), 1.0)

    def test_formula_value(self):
        assert abs(smooth_heaviside(10.0, 1.0) - 0.9683) < 1e-4

    def test_monotone(self):
        z = np.linspace(-10, 10, 200)
        assert np.all(np.diff(smooth_heaviside(z, 0.5)) > 0)

    def test_delta_is_derivative(self):
        z = np.linspace(-3, 3, 50)
        h = 1e-6
        fd = (smooth_heaviside(z + h, 0.7) - smooth_heaviside(z - h, 0.7)) / (2 * h)
        assert np.allclose(fd, smooth_delta(z, 0.7), atol=1e-8)


class TestEnergy:
    def test_perfect_fit_hard_limit(self):
        img, phase = two_phase_image()
        # tail of the arctan Heaviside is eps/(pi*|phi|); |phi|=50 puts the
        # leakage floor safely below the bound at eps=1e-3
        phi = np.where(phase, 50.0, -50.0)
        cfg = CvConfig(mu=0.0, nu=0.0, eps=1e-3)
        assert cv_energy(phi, img, cfg) < 1e-3

    def test_constant_image(self):
        rng = np.random.default_rng(0)
        phi = rng.uniform(-1, 1, (8, 8))
        cfg = CvConfig(mu=0.0, nu=0.0)
        assert abs(cv_energy(phi, np.full((8, 8), 0.4), cfg)) < 1e-12

    def test_matches_rls_on_full_image(self):
        # cross-module oracle: mu=nu=0 energy with p = H(phi) equals
        # |I| * rls over the whole grid
        rng = np.random.default_rng(1)
        for seed in range(20):
            r = np.random.default_rng(seed)
            img = r.uniform(0, 1, (12, 12))
            phi = np.where(r.uniform(0, 1, (12, 12)) < 0.5, 1.0, -1.0)
            cfg = CvConfig(mu=0.0, nu=0.0, lambda1=1.0, lambda2=3.0, eps=1e-3)
            p = smooth_heaviside(phi, cfg.eps)
            energy = cv_energy(phi, img, cfg)
            loss = rls_loss(p, img, np.ones_like(img, dtype=bool),
                            LossConfig(lambda1=1.0, lambda2=3.0))
            assert abs(energy - img.size * loss.value) <= 1e-9 * abs(energy)

    def test_degenerate_phi(self):
        img, _ = two_phase_image()
        with pytest.raises(Exception):
            cv_energy(np.full_like(img, 1e9), img, CvConfig(eps=1e-6))


class TestEnergyGradient:
    @staticmethod
    def problem(shape=(5, 7), seed=4):
        rng = np.random.default_rng(seed)
        return (rng.uniform(0, 1, shape), rng.uniform(-1.5, 1.5, shape),
                CvConfig(mu=0.3, nu=0.2, lambda1=1.0, lambda2=2.0, eps=0.8))

    def test_gradient_matches_finite_differences(self):
        img, phi, cfg = self.problem()

        def fn(x):
            grad = np.empty_like(x)
            return cv_energy(x, img, cfg, grad=grad), grad

        assert finite_diff_check(fn, phi) < 1e-5

    def test_reused_work_matches_fresh(self):
        img, phi, cfg = self.problem((6, 9))
        fresh = np.empty_like(phi)
        energy = cv_energy(phi, img, cfg, grad=fresh)
        assert energy == cv_energy(phi, img, cfg)
        work = np.full((levelset._N_WORK,) + img.shape, np.nan)
        grad = np.full_like(phi, np.nan)
        for _ in range(2):  # first on poisoned buffers, then on stale ones
            assert cv_energy(phi, img, cfg, grad=grad, work=work) == energy
            assert grad.tobytes() == fresh.tobytes()

    def test_degenerate_with_gradient(self):
        img, _ = two_phase_image()
        grad = np.zeros_like(img)
        with pytest.raises(DegenerateRegionError):
            cv_energy(np.full_like(img, 1e9), img, CvConfig(eps=1e-6), grad=grad)


# Reference: the solver as it was before the energy and gradient were fused,
# kept verbatim (np.roll shifts, two evaluations per accepted step). The
# fused solver must reproduce its masks, trace bytes and warnings exactly.

def _ref_weighted_means(img: np.ndarray, h: np.ndarray):
    w1 = float(h.sum())
    w2 = float((1.0 - h).sum())
    if w1 <= 1e-12 or w2 <= 1e-12:
        raise DegenerateRegionError(
            f"level set has no mass on one side (inside {w1:.3g}, outside {w2:.3g})")
    c1 = float((img * h).sum()) / w1
    c2 = float((img * (1.0 - h)).sum()) / w2
    return c1, c2


def _ref_length_and_grad_h(h: np.ndarray):
    gx = (np.roll(h, -1, axis=1) - np.roll(h, 1, axis=1)) / 2.0
    gy = (np.roll(h, -1, axis=0) - np.roll(h, 1, axis=0)) / 2.0
    n = np.sqrt(gx * gx + gy * gy + 1e-12)
    length = float(n.sum())
    gxn = gx / n
    gyn = gy / n
    grad = (np.roll(gxn, 1, axis=1) - np.roll(gxn, -1, axis=1)) / 2.0 \
        + (np.roll(gyn, 1, axis=0) - np.roll(gyn, -1, axis=0)) / 2.0
    return length, grad


def _ref_heaviside(z, eps):
    return 0.5 * (1.0 + (2.0 / np.pi) * np.arctan(np.asarray(z, dtype=np.float64) / eps))


def _ref_delta(z, eps):
    z = np.asarray(z, dtype=np.float64)
    return (eps / np.pi) / (eps * eps + z * z)


def _ref_cv_energy(phi, img, cfg):
    phi = np.asarray(phi, dtype=np.float64)
    v = np.asarray(img, dtype=np.float64)
    h = _ref_heaviside(phi, cfg.eps)
    c1, c2 = _ref_weighted_means(v, h)
    energy = float((cfg.lambda1 * (v - c1) ** 2 * h
                    + cfg.lambda2 * (v - c2) ** 2 * (1.0 - h)).sum())
    if cfg.nu != 0.0:
        energy += cfg.nu * float(h.sum())
    if cfg.mu != 0.0:
        length, _ = _ref_length_and_grad_h(h)
        energy += cfg.mu * length
    return energy


def _ref_energy_and_grad(phi, v, cfg):
    h = _ref_heaviside(phi, cfg.eps)
    c1, c2 = _ref_weighted_means(v, h)
    fit = cfg.lambda1 * (v - c1) ** 2 - cfg.lambda2 * (v - c2) ** 2
    energy = float((cfg.lambda1 * (v - c1) ** 2 * h
                    + cfg.lambda2 * (v - c2) ** 2 * (1.0 - h)).sum())
    grad_h = fit + cfg.nu
    if cfg.nu != 0.0:
        energy += cfg.nu * float(h.sum())
    if cfg.mu != 0.0:
        length, glen = _ref_length_and_grad_h(h)
        energy += cfg.mu * length
        grad_h = grad_h + cfg.mu * glen
    return energy, grad_h * _ref_delta(phi, cfg.eps)


def _ref_cv_evolve(img, init, cfg):
    v = np.asarray(img, dtype=np.float64)
    m = np.asarray(init, dtype=bool)
    phi = distance_transform_edt(m) - distance_transform_edt(~m)
    warning = False
    trace = []
    try:
        energy, grad = _ref_energy_and_grad(phi, v, cfg)
        trace.append(energy)
        for _ in range(cfg.iters):
            step = cfg.step
            for _ in range(30):
                cand = phi - step * grad
                e_new = _ref_cv_energy(cand, v, cfg)
                if e_new <= energy + 1e-12:
                    break
                step *= 0.5
            else:
                break
            delta = float(np.abs(cand - phi).mean())
            phi = cand
            energy, grad = _ref_energy_and_grad(phi, v, cfg)
            trace.append(energy)
            if delta < cfg.tol:
                break
    except DegenerateRegionError:
        warning = True
    return phi >= 0.0, np.asarray(trace), warning


class TestFusedSolverOracle:
    @staticmethod
    def lesion(shape):
        cfg = SynthConfig(size=64, radius_range=(16, 21),
                          contrast_range=(0.4, 0.5), noise_sigma=0.08, seed=3)
        img = gen_lesion(cfg, np.random.default_rng((3, 0))).image
        img = img[:shape[0], :shape[1]]
        init = np.zeros(img.shape, dtype=bool)
        init[shape[0] // 4:shape[0] // 2, shape[1] // 4:shape[1] // 2] = True
        return img, init

    @pytest.mark.parametrize("shape, kw, backtracks", [
        ((64, 64), {}, False),
        ((64, 64), {"nu": 0.5}, False),
        ((64, 64), {"mu": 0.0}, False),
        ((64, 64), {"step": 2000.0}, True),
        ((24, 40), {}, True),
        ((40, 24), {"mu": 0.3, "nu": 0.2, "step": 300.0}, False),
    ])
    def test_bytes_equal_reference(self, monkeypatch, shape, kw, backtracks):
        img, init = self.lesion(shape)
        cfg = CvConfig(**kw)
        calls = []
        fused = levelset.cv_energy

        def counting(*args, **kwargs):
            calls.append(1)
            return fused(*args, **kwargs)

        monkeypatch.setattr(levelset, "cv_energy", counting)
        mask, trace, warning = cv_evolve(img, init, cfg)
        ref_mask, ref_trace, ref_warning = _ref_cv_evolve(img, init, cfg)
        assert np.array_equal(mask, ref_mask)
        assert trace.tobytes() == ref_trace.tobytes()
        assert warning == ref_warning
        # one evaluation per candidate: the initial one plus one per step,
        # and more only when the line search backtracked
        assert (len(calls) > len(trace)) == backtracks
        if not backtracks:
            assert len(calls) == len(trace)


class TestEvolve:
    def test_fixed_point_on_exact_boundary(self):
        img, phase = two_phase_image()
        cfg = CvConfig(mu=0.0, nu=0.0, iters=50)
        mask, trace, warning = cv_evolve(img, phase, cfg)
        assert not warning
        assert np.array_equal(mask, phase)

    def test_noisy_disk_recovery(self):
        cfg = SynthConfig(size=64, radius_range=(20, 20),
                          contrast_range=(0.5, 0.5), irregularity=0.0,
                          noise_sigma=0.05, seed=5)
        sample = gen_lesion(cfg, np.random.default_rng((5, 0)))
        init = rasterize_ellipse(
            Ellipse(sample.meta["center"], 10.0, 10.0, 0.0), (64, 64))
        mask, trace, warning = cv_evolve(sample.image, init,
                                         CvConfig(mu=0.1, iters=500))
        assert not warning
        assert prf_dice(mask, sample.gt_mask).dice >= 0.98
        assert np.all(np.diff(trace) <= 1e-6)

    def test_large_area_penalty_shrinks(self):
        cfg = SynthConfig(size=64, radius_range=(20, 20),
                          contrast_range=(0.5, 0.5), irregularity=0.0,
                          noise_sigma=0.05, seed=5)
        sample = gen_lesion(cfg, np.random.default_rng((5, 0)))
        init = rasterize_ellipse(
            Ellipse(sample.meta["center"], 10.0, 10.0, 0.0), (64, 64))
        free, _, _ = cv_evolve(sample.image, init,
                               CvConfig(mu=0.1, nu=0.0, iters=200))
        shrunk, _, _ = cv_evolve(sample.image, init,
                                 CvConfig(mu=0.1, nu=10.0, iters=200))
        assert shrunk.sum() <= init.sum()
        assert shrunk.sum() < free.sum()

    def test_label_flip_symmetry(self):
        img, phase = two_phase_image()
        cfg = CvConfig(mu=0.0, nu=0.0, iters=100)
        a, _, _ = cv_evolve(img, phase, cfg)
        b, _, _ = cv_evolve(img, ~phase, cfg)
        assert np.array_equal(a, ~b)

    def test_init_validation(self):
        img, _ = two_phase_image()
        with pytest.raises(ValueError):
            cv_evolve(img, np.zeros_like(img, dtype=bool), CvConfig())
        with pytest.raises(ValueError):
            cv_evolve(img, np.ones_like(img, dtype=bool), CvConfig())
