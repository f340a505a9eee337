import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakseg.metrics import prf_dice
from weakseg.recist import fit_ellipse, rasterize_ellipse
from weakseg.synthgen import (Sample, SynthConfig, _star_mask, derive_recist,
                              gen_dataset, gen_lesion)

from test_recist import edge_coordinate


class TestDeriveRecist:
    def test_disk_axes(self):
        r = 12
        gx, gy = np.meshgrid(np.arange(64) + 0.5, np.arange(64) + 0.5)
        disk = np.hypot(gx - 32, gy - 32) <= r
        ann = derive_recist(disk)
        long_len = np.hypot(ann.long_b[0] - ann.long_a[0],
                            ann.long_b[1] - ann.long_a[1])
        short_len = np.hypot(ann.short_b[0] - ann.short_a[0],
                             ann.short_b[1] - ann.short_a[1])
        assert 2 * r - 2 <= long_len <= 2 * r
        assert 2 * r - 2 <= short_len <= 2 * r

    def test_rectangle_long_axis_is_diagonal(self):
        m = np.zeros((32, 32), bool)
        m[5:15, 4:24] = True  # 10 x 20 filled rectangle
        ann = derive_recist(m)
        got = np.hypot(ann.long_b[0] - ann.long_a[0],
                       ann.long_b[1] - ann.long_a[1])
        # brute-force all-pairs oracle over boundary pixel centers
        pad = np.pad(m, 1)
        boundary = m & ~(pad[:-2, 1:-1] & pad[2:, 1:-1]
                         & pad[1:-1, :-2] & pad[1:-1, 2:])
        ys, xs = np.nonzero(boundary)
        pts = np.stack([xs + 0.5, ys + 0.5], axis=1)
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        assert abs(got - d.max()) < 1e-9

    def test_empty_mask(self):
        with pytest.raises(ValueError):
            derive_recist(np.zeros((8, 8), bool))

    def test_multi_component(self):
        m = np.zeros((16, 16), bool)
        m[2:5, 2:5] = True
        m[10:13, 10:13] = True
        with pytest.raises(ValueError):
            derive_recist(m)

    def test_thin_row_degenerate(self):
        m = np.zeros((8, 16), bool)
        m[4, 2:12] = True
        with pytest.raises(ValueError):
            derive_recist(m)


class TestGenLesion:
    def test_deterministic(self):
        cfg = SynthConfig(seed=3)
        a = gen_lesion(cfg, np.random.default_rng((3, 0)))
        b = gen_lesion(cfg, np.random.default_rng((3, 0)))
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.gt_mask, b.gt_mask)
        assert a.annotation == b.annotation

    def test_zero_irregularity_is_disk(self):
        cfg = SynthConfig(irregularity=0.0, noise_sigma=0.0, seed=1)
        s = gen_lesion(cfg, np.random.default_rng(1))
        c = s.meta["center"]
        r = s.meta["radius"]
        gx, gy = np.meshgrid(np.arange(64) + 0.5, np.arange(64) + 0.5)
        disk = np.hypot(gx - c[0], gy - c[1]) <= r
        assert np.array_equal(s.gt_mask, disk)

    def test_contrast_oracle(self):
        # noise 0: mean intensity inside minus outside equals the contrast
        cfg = SynthConfig(contrast_range=(0.5, 0.5), noise_sigma=0.0, seed=2)
        s = gen_lesion(cfg, np.random.default_rng(2))
        inside = s.image[s.gt_mask].mean()
        outside = s.image[~s.gt_mask].mean()
        assert abs((inside - outside) - 0.5) < 1e-12

    def test_dark_lesion(self):
        cfg = SynthConfig(contrast_range=(0.3, 0.3), noise_sigma=0.0,
                          background=0.5, dark_prob=1.0, seed=2)
        s = gen_lesion(cfg, np.random.default_rng(2))
        assert s.image[s.gt_mask].mean() < s.image[~s.gt_mask].mean()

    def test_star_convex_about_center(self):
        cfg = SynthConfig(irregularity=0.3, seed=4)
        s = gen_lesion(cfg, np.random.default_rng(4))
        m = s.gt_mask
        cx, cy = s.meta["center"]
        ys, xs = np.nonzero(m)
        # every segment from the center to a mask pixel stays in the mask
        # (sampled away from the endpoints to dodge rasterization jag)
        for y, x in zip(ys[::7], xs[::7]):
            for t in np.linspace(0.1, 0.85, 8):
                px = int(cx + t * (x + 0.5 - cx))
                py = int(cy + t * (y + 0.5 - cy))
                assert m[py, px]

    def test_pseudo_mask_fidelity(self):
        # ellipse-from-annotation is a usable weak label at low irregularity
        for i in range(10):
            cfg = SynthConfig(irregularity=0.2, radius_range=(10, 16), seed=7)
            s = gen_lesion(cfg, np.random.default_rng((7, i)))
            emask = rasterize_ellipse(s.ellipse, (64, 64))
            assert prf_dice(emask, s.gt_mask).dice >= 0.8

    def test_distractors_outside_region(self):
        cfg = SynthConfig(distractors=3, noise_sigma=0.0, seed=8)
        rng = np.random.default_rng(8)
        s = gen_lesion(cfg, rng)
        outside = ~s.region & ~s.gt_mask
        # distractor pixels carry lesion intensity strictly outside I'
        bright = np.isclose(s.image, cfg.background + s.meta["contrast"])
        assert (bright & outside).any()
        assert not (bright & s.region & ~s.gt_mask).any()

    def test_off_grid_rejected(self):
        with pytest.raises(ValueError, match="^size 24 is too small"):
            SynthConfig(size=24, radius_range=(12, 12), seed=9)


def meshgrid_star(size, center, radius, irregularity, seed):
    """Reference star mask: the same harmonics, evaluated on full coordinate
    grids."""
    harm = np.random.default_rng(seed).uniform(-1, 1, 6).reshape(3, 2)
    gx, gy = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)
    dx = gx - center[0]
    dy = gy - center[1]
    ang = np.arctan2(dy, dx)
    pert = np.zeros_like(ang)
    for k, (a, b) in zip((2, 3, 4), harm):
        pert += a * np.cos(k * ang) + b * np.sin(k * ang)
    pert *= irregularity / sum(np.hypot(a, b) for a, b in harm)
    return np.hypot(dx, dy) <= radius * (1.0 + pert)


def test_star_mask_equals_meshgrid_reference():
    rng = np.random.default_rng(4)
    for _ in range(100):
        size = int(rng.integers(4, 100))
        center = rng.uniform(0, size, 2)
        radius = float(rng.uniform(2, size / 2))
        irregularity = float(rng.uniform(0, 0.9))
        seed = int(rng.integers(1 << 30))
        got = _star_mask(size, center, radius, irregularity,
                         np.random.default_rng(seed))
        assert np.array_equal(got, meshgrid_star(size, center, radius,
                                                 irregularity, seed))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_star_box_edges_equal_meshgrid_reference(data):
    # grids down to 1x1, radii past the grid and irregularity up to 0.99,
    # at centres near, on and off the grid edges
    size = data.draw(st.integers(1, 60))
    center = (data.draw(edge_coordinate(size)),
              data.draw(edge_coordinate(size)))
    radius = data.draw(st.floats(0.05, 2.0 * size + 1.0))
    irregularity = data.draw(st.floats(0.0, 0.99))
    seed = data.draw(st.integers(0, (1 << 30) - 1))
    got = _star_mask(size, center, radius, irregularity,
                     np.random.default_rng(seed))
    assert np.array_equal(got, meshgrid_star(size, center, radius,
                                             irregularity, seed))


class TestGenDataset:
    def test_manifest_shape(self):
        samples, manifest = gen_dataset(SynthConfig(seed=5), 3)
        lines = manifest.splitlines()
        assert lines[0] == "id,radius,contrast"
        assert len(lines) == 4
        assert [s.sample_id for s in samples] == ["000", "001", "002"]

    def test_deterministic_manifest(self):
        _, m1 = gen_dataset(SynthConfig(seed=6), 4)
        _, m2 = gen_dataset(SynthConfig(seed=6), 4)
        assert m1 == m2

    def test_seeds_independent_of_n(self):
        a, _ = gen_dataset(SynthConfig(seed=6), 2)
        b, _ = gen_dataset(SynthConfig(seed=6), 4)
        assert np.array_equal(a[1].image, b[1].image)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            gen_dataset(SynthConfig(), 0)

    def test_fields_consistent(self):
        samples, _ = gen_dataset(SynthConfig(seed=7), 2)
        for s in samples:
            assert s.image.shape == (64, 64)
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.pseudo.shape == (64, 64)
            assert s.region.dtype == np.bool_
            # pseudo FG is exactly the rasterized fitted ellipse
            emask = rasterize_ellipse(fit_ellipse(s.annotation), (64, 64))
            assert np.array_equal(s.pseudo == 1, emask)
            # the constrained region contains the ellipse
            assert not (emask & ~s.region).any()
