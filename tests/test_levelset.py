import hashlib
from dataclasses import replace

import numpy as np
import pytest

from weakseg import levelset
from weakseg.levelset import (CvConfig, cv_energy, cv_evolve,
                              signed_distance, smooth_delta, smooth_heaviside)
from weakseg.losses import (RLS_LAMBDA1, RLS_LAMBDA2, DegenerateRegionError,
                            data_term, finite_diff_check, rls_loss)
from scipy.ndimage import distance_transform_edt
from weakseg.metrics import prf_dice
from weakseg.recist import Ellipse, rasterize_ellipse
from weakseg.synthgen import SynthConfig, gen_dataset, gen_lesion


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
            cfg = CvConfig(mu=0.0, nu=0.0, lambda1=RLS_LAMBDA1,
                           lambda2=RLS_LAMBDA2, eps=1e-3)
            p = smooth_heaviside(phi, cfg.eps)
            energy = cv_energy(phi, img, cfg)
            loss = rls_loss(p, img, np.ones_like(img, dtype=bool))
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

        assert finite_diff_check(fn, phi) < 1e-6

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

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (2, 5), (5, 2),
                                       (2, 2), (3, 3), (7, 4)])
    def test_small_sides_match_roll_reference(self, shape):
        # the length term's differences wrap periodically; at a side of 1
        # or 2 both neighbours along it are the same pixel
        img, phi, cfg = self.problem(shape)
        grad = np.empty_like(phi)
        energy = cv_energy(phi, img, cfg, grad=grad)
        ref_energy, ref_grad = _ref_energy_and_grad(phi, img, cfg)
        assert energy == ref_energy
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-15)

    def test_degenerate_with_gradient(self):
        img, _ = two_phase_image()
        grad = np.zeros_like(img)
        with pytest.raises(DegenerateRegionError):
            cv_energy(np.full_like(img, 1e9), img, CvConfig(eps=1e-6), grad=grad)


class TestDtypes:
    """The energy and the data term compute in their inputs' float dtype."""

    @staticmethod
    def problem():
        rng = np.random.default_rng(25)
        img, phi = rng.uniform(0, 1, (16, 16)), rng.uniform(-3, 3, (16, 16))
        p = rng.uniform(0.05, 0.95, (16, 16))
        region = rng.uniform(0, 1, (16, 16)) < 0.7
        cfg = CvConfig(mu=0.2, nu=0.1, lambda1=1.0, lambda2=2.0, eps=0.5)
        return img, phi, p, region, cfg

    @staticmethod
    def evaluate(img, phi, p, region, cfg, work=None):
        """(value, grad) of cv_energy, data_term and rls_loss."""
        g_cv, g_dt = np.empty_like(phi), np.empty_like(p)
        e = cv_energy(phi, img, cfg, grad=g_cv,
                      work=None if work is None else work[0])
        d = data_term(p, img, 1.0, 3.0, g_dt,
                      None if work is None else work[1])
        return [(e, g_cv), (d, g_dt), tuple(rls_loss(p, img, region))]

    def test_float64_bytes_as_recorded(self):
        # recorded when every one of these cast its inputs to float64
        # (numpy 2.4, x86-64): float64 callers keep that arithmetic
        want = ["f61dec1ffeafbf31", "41814225db4cb14b", "6ef5cfec4df3bb23"]
        got = [hashlib.sha256(np.float64(value).tobytes()
                              + grad.tobytes()).hexdigest()[:16]
               for value, grad in self.evaluate(*self.problem())]
        assert got == want

    def test_float32_stays_float32(self):
        img, phi, p, region, cfg = self.problem()
        img, phi, p = (a.astype(np.float32) for a in (img, phi, p))
        got = self.evaluate(img, phi, p, region, cfg)
        # the default scratch is float32: explicit float32 work gives the
        # same bytes
        work = (np.empty((levelset._N_WORK, 16, 16), np.float32),
                np.empty((4, 16, 16), np.float32))
        again = self.evaluate(img, phi, p, region, cfg, work)
        assert smooth_heaviside(phi).dtype == np.float32
        assert smooth_delta(phi).dtype == np.float32
        for (value, grad), (v2, g2) in zip(got[:2], again[:2]):
            assert value == v2 and grad.tobytes() == g2.tobytes()
        # a float32 result is within a few float32 roundings per term of
        # the float64 one
        tol = 64 * np.finfo(np.float32).eps
        for (value, grad), (v64, g64) in zip(got[:2],
                                             self.evaluate(*self.problem())):
            assert abs(value - v64) <= tol * abs(v64)
            assert np.abs(grad - g64).max() <= tol * np.abs(g64).max()
        # the training loss keeps float64 whatever it is given
        assert got[2][1].dtype == np.float64


# Reference: the solver as it was before the energy and gradient were fused
# (np.roll shifts, two evaluations per accepted step), with the settle rule
# as its stop, on the same ``levelset.SETTLE``. The fused solver must
# reproduce its masks, trace bytes and warnings exactly.

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
    return 0.5 * (1.0 + (2.0 / np.pi) * np.arctan(z / eps))


def _ref_delta(z, eps):
    return (eps / np.pi) / (eps * eps + z * z)


def _ref_cv_energy(phi, v, cfg):
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


def _ref_cv_evolve(img, init, cfg, dtype=np.float32):
    """The reference solve in ``dtype``, by default cv_evolve's float32."""
    v = np.asarray(img, dtype=dtype)
    m = np.asarray(init, dtype=bool)
    phi = distance_transform_edt(m) - distance_transform_edt(~m)
    phi = phi.astype(dtype)
    warning = False
    trace = []
    settled = 0
    try:
        energy, grad = _ref_energy_and_grad(phi, v, cfg)
        trace.append(energy)
        for _ in range(cfg.iters):
            step = levelset.STEP
            for _ in range(30):
                cand = phi - step * grad
                e_new = _ref_cv_energy(cand, v, cfg)
                if e_new <= energy + 1e-12:
                    break
                step *= 0.5
            else:
                break
            if np.array_equal(cand >= 0.0, phi >= 0.0):
                settled += 1
            else:
                settled = 0
            phi = cand
            energy, grad = _ref_energy_and_grad(phi, v, cfg)
            trace.append(energy)
            if settled >= levelset.SETTLE:
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
        # the rule cannot fire here, so the run reaches the late iterations
        # where the line search backtracks; at (24, 40) it never does in
        # float32, where late candidates often leave the energy's bits as
        # they were
        ((40, 24), {"settle": 501}, True),
        ((40, 24), {"mu": 0.3, "nu": 0.2, "step": 300.0}, False),
        ((24, 40), {"settle": 501}, False),
    ])
    def test_bytes_equal_reference(self, monkeypatch, shape, kw, backtracks):
        img, init = self.lesion(shape)
        kw = dict(kw)
        # the nominal step and the settle window are module constants; both
        # solvers read them
        monkeypatch.setattr(levelset, "STEP", kw.pop("step", levelset.STEP))
        monkeypatch.setattr(levelset, "SETTLE",
                            kw.pop("settle", levelset.SETTLE))
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


def noisy_disk():
    """The acceptance suite's criterion 4 problem: a 64x64 noisy disk of
    radius 20 from a radius-10 circle; (image, init, gt)."""
    cfg = SynthConfig(size=64, radius_range=(20, 20),
                      contrast_range=(0.5, 0.5), irregularity=0.0,
                      noise_sigma=0.05, seed=5)
    sample = gen_lesion(cfg, np.random.default_rng((5, 0)))
    init = rasterize_ellipse(
        Ellipse(sample.meta["center"], 10.0, 10.0, 0.0), (64, 64))
    return sample.image, init, sample.gt_mask


def synth_lesion_128():
    """A default synthgen lesion at 128x128 from its fitted ellipse, as
    segment-cv is run on the benchmark's inputs."""
    samples, _ = gen_dataset(SynthConfig(size=128, seed=11), 1)
    s = samples[0]
    return s.image, rasterize_ellipse(s.ellipse, (128, 128)), s.gt_mask


@pytest.mark.parametrize("problem", [noisy_disk, synth_lesion_128])
def test_float32_solve_masks_equal_the_float64_reference(problem):
    img, init, _ = problem()
    mask, trace, warning = cv_evolve(img, init, CvConfig())
    ref_mask, ref_trace, ref_warning = _ref_cv_evolve(img, init, CvConfig(),
                                                      np.float64)
    assert not warning and not ref_warning
    assert np.array_equal(mask, ref_mask) and len(trace) == len(ref_trace)


def evolve_settled(img, init, cfg, settle):
    """cv_evolve with its settle window set to ``settle``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(levelset, "SETTLE", settle)
        return cv_evolve(img, init, cfg)


class TestSettle:
    @staticmethod
    def mask_after(img, init, cfg, n):
        """The mask after exactly n accepted iterations (the rule cannot
        fire when settle exceeds the cap)."""
        if n == 0:
            return init
        return evolve_settled(img, init, replace(cfg, iters=n), n + 1)[0]

    @pytest.mark.parametrize("settle", [1, 7, 50])
    def test_stops_once_settle_iterations_left_the_mask(self, settle):
        img, init = TestFusedSolverOracle.lesion((24, 40))
        cfg = CvConfig()
        mask, trace, warning = evolve_settled(img, init, cfg, settle)
        n = len(trace) - 1
        assert not warning and settle <= n < cfg.iters
        # the last `settle` accepted iterations changed no pixel ...
        for k in range(n - settle, n):
            assert np.array_equal(self.mask_after(img, init, cfg, k), mask)
        # ... and the one before them did, so the stop came no later than due
        if n > settle:
            before = self.mask_after(img, init, cfg, n - settle - 1)
            assert not np.array_equal(before, mask)

    @pytest.mark.parametrize("problem", [noisy_disk, synth_lesion_128])
    def test_mask_equals_the_unsettled_run(self, problem):
        img, init, _ = problem()
        cfg = CvConfig(mu=0.1, iters=500)
        mask, trace, _ = cv_evolve(img, init, cfg)
        full, full_trace, _ = evolve_settled(img, init, cfg, 501)
        assert len(trace) < len(full_trace) == cfg.iters + 1
        assert np.array_equal(mask, full)

    def test_noisy_lesions_among_distractors_stay_near_the_unsettled_run(self):
        # here masks may still change late, so the settled mask need not be
        # the cap run's, but it must stay close to it
        samples, _ = gen_dataset(
            SynthConfig(size=128, noise_sigma=0.15, distractors=3), 3)
        for s in samples:
            init = rasterize_ellipse(s.ellipse, (128, 128))
            mask, trace, warning = cv_evolve(s.image, init, CvConfig())
            full, _, _ = evolve_settled(s.image, init, CvConfig(), 501)
            assert not warning and np.all(np.diff(trace) <= 1e-6)
            assert prf_dice(mask, full).dice >= 0.99

    def test_cap_binds_below_settle(self):
        img, init, _ = noisy_disk()
        _, trace, warning = evolve_settled(img, init, CvConfig(iters=10), 50)
        assert not warning and len(trace) == 11


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("lambda1", float("nan")), ("lambda1", 0.0), ("lambda1", -1.0),
        ("lambda2", float("inf")), ("lambda2", 0.0),
        ("eps", float("nan")), ("eps", -0.5),
        ("iters", 0),
        ("mu", float("nan")), ("mu", float("inf")), ("nu", -1.0),
        ("nu", float("inf")),
    ])
    def test_rejected_naming_field_and_value(self, field, value):
        with pytest.raises(ValueError) as exc:
            CvConfig(**{field: value})
        assert str(exc.value).startswith(f"{field} must")
        assert str(exc.value).endswith(f"got {value}")


def _distance_masks():
    """(id, mask) pairs with pixels on both sides: masks touching each
    border and corner, single pixels, one-row and one-column masks, a box
    spanning the grid, and noise."""
    def mask(shape, *index):
        m = np.zeros(shape, dtype=bool)
        m[index] = True
        return m

    cases = [("top", mask((9, 11), slice(0, 3), slice(2, 7))),
             ("bottom", mask((9, 11), slice(6, 9), slice(2, 7))),
             ("left", mask((9, 11), slice(2, 5), slice(0, 4))),
             ("right", mask((9, 11), slice(2, 5), slice(8, 11))),
             ("corner", mask((9, 11), slice(5, 9), slice(7, 11))),
             ("pixel-inner", mask((9, 11), 4, 5)),
             ("pixel-corner", mask((9, 11), 0, 10)),
             ("pixel-on-1x2", mask((1, 2), 0, 0)),
             ("row", mask((9, 11), 4, slice(1, 9))),
             ("row-of-grid", mask((9, 11), 0, slice(None))),
             ("one-row-grid", mask((1, 12), 0, slice(3, 7))),
             ("column", mask((9, 11), slice(None), 6)),
             ("spans-grid", ~mask((9, 11), slice(3, 5), slice(4, 6)))]
    rng = np.random.default_rng(21)
    for i in range(6):
        m = rng.uniform(size=(13, 10)) < 0.2 + 0.12 * i
        m[0, 0], m[-1, -1] = True, False
        cases.append((f"noise{i}", m))
    return cases


@pytest.mark.parametrize("mask", [m for _, m in _distance_masks()],
                         ids=[i for i, _ in _distance_masks()])
def test_signed_distance_matches_full_transforms(mask):
    # edt(m) on m's grown box gives the bytes of the full-grid transforms
    want = distance_transform_edt(mask) - distance_transform_edt(~mask)
    assert signed_distance(mask).tobytes() == want.tobytes()


class TestEvolve:
    def test_fixed_point_on_exact_boundary(self):
        img, phase = two_phase_image()
        cfg = CvConfig(mu=0.0, nu=0.0, iters=50)
        mask, trace, warning = cv_evolve(img, phase, cfg)
        assert not warning
        assert np.array_equal(mask, phase)

    def test_noisy_disk_recovery(self):
        img, init, gt = noisy_disk()
        mask, trace, warning = cv_evolve(img, init,
                                         CvConfig(mu=0.1, iters=500))
        assert not warning
        assert prf_dice(mask, gt).dice >= 0.98
        assert np.all(np.diff(trace) <= 1e-6)

    def test_large_area_penalty_shrinks(self):
        img, init, _ = noisy_disk()
        free, _, _ = cv_evolve(img, init, CvConfig(mu=0.1, nu=0.0, iters=200))
        shrunk, _, _ = cv_evolve(img, init,
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
