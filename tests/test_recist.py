import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakseg.recist import (DegenerateAnnotationError, Ellipse,
                            RecistAnnotation, constrained_region, fit_ellipse,
                            pixel_box, rasterize_ellipse, read_annotation_csv,
                            transform_annotation, write_annotation_csv)


def similarity(theta, scale=1.0, shift=(0.0, 0.0), center=(0.0, 0.0)):
    """The 2x3 affine x -> scale R(theta) (x - center) + shift."""
    c, s = np.cos(theta), np.sin(theta)
    lin = scale * np.array([[c, -s], [s, c]])
    return np.column_stack([lin, np.subtract(shift, lin @ center)])


def axis_aligned_ann():
    return RecistAnnotation((5, 0), (-5, 0), (0, 3), (0, -3))


class TestFitEllipse:
    def test_axis_aligned(self):
        e = fit_ellipse(axis_aligned_ann())
        assert e.center == (0.0, 0.0)
        assert e.a == 5.0 and e.b == 3.0 and e.theta == 0.0

    def test_rotated_30_degrees(self):
        t = similarity(np.pi / 6)
        e = fit_ellipse(transform_annotation(axis_aligned_ann(), t))
        assert abs(e.a - 5.0) < 1e-9
        assert abs(e.b - 3.0) < 1e-9
        assert abs(e.theta - np.pi / 6) < 1e-9
        assert abs(e.center[0]) < 1e-9 and abs(e.center[1]) < 1e-9

    def test_zero_length_axis(self):
        with pytest.raises(DegenerateAnnotationError):
            RecistAnnotation((1, 1), (1, 1), (0, 3), (0, -3))

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 2 * np.pi),
           st.floats(1, 30), st.floats(0.1, 0.9), st.floats(-0.15, 0.15),
           st.floats(0, 2 * np.pi), st.floats(0.25, 4),
           st.floats(-100, 100), st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_equivariance_under_similarity(self, cx, cy, phi, half_long,
                                           ratio, tilt, alpha, s, tx, ty):
        # an annotation with centre (cx, cy), long axis at angle phi and a
        # short axis tilted off perpendicular by at most |cos| 0.15; the
        # transform rotates by alpha, scales by s and translates by (tx, ty)
        u = np.array([np.cos(phi), np.sin(phi)])
        w = np.array([-np.sin(phi + tilt), np.cos(phi + tilt)])
        c = np.array([cx, cy])
        ann = RecistAnnotation(tuple(c + half_long * u),
                               tuple(c - half_long * u),
                               tuple(c + ratio * half_long * w),
                               tuple(c - ratio * half_long * w))
        t = similarity(alpha, s, (tx, ty))
        e = fit_ellipse(ann)
        e_then = fit_ellipse(transform_annotation(ann, t))
        center_mapped = np.array(e.center) @ t[:, :2].T + t[:, 2]
        assert np.allclose(e_then.center, center_mapped, rtol=0, atol=1e-9)
        assert abs(e_then.a - s * e.a) <= 1e-9 * s * e.a
        assert abs(e_then.b - s * e.b) <= 1e-9 * s * e.b
        turn = (e_then.theta - e.theta - alpha) % np.pi
        assert min(turn, np.pi - turn) < 1e-9


class TestRasterize:
    def test_off_grid_empty(self):
        e = Ellipse((-20.0, -20.0), 3.0, 2.0, 0.0)
        assert not rasterize_ellipse(e, (16, 16)).any()

    def test_disk_pixel_count(self):
        e = Ellipse((32.0, 32.0), 10.0, 10.0, 0.0)
        count = rasterize_ellipse(e, (64, 64)).sum()
        assert abs(count - np.pi * 100) / (np.pi * 100) < 0.05

    def test_tiny_ellipse_between_centers(self):
        e = Ellipse((0.0, 0.0), 0.1, 0.1, 0.0)  # pixel center is (0.5, 0.5)
        assert not rasterize_ellipse(e, (1, 1)).any()


def meshgrid_ellipse(e, dims):
    """Reference raster: the ellipse test evaluated on full coordinate
    grids, the form the broadcast rasterizer replaced."""
    gx, gy = np.meshgrid(np.arange(dims[0]) + 0.5, np.arange(dims[1]) + 0.5)
    u = gx - e.center[0]
    v = gy - e.center[1]
    ct, st = np.cos(e.theta), np.sin(e.theta)
    p = (u * ct + v * st) / e.a
    q = (-u * st + v * ct) / e.b
    return p * p + q * q <= 1.0


def edge_coordinate(n):
    """Centre coordinates along a side of n pixels where the pixel box is
    clipped or empty: within one pixel of either edge, on a pixel centre,
    and off the grid."""
    return st.one_of(st.floats(-1.0, 1.0), st.floats(n - 1.0, n + 1.0),
                     st.integers(-3, n + 3).map(lambda i: i + 0.5),
                     st.floats(-3.0 * n - 50.0, -1.0),
                     st.floats(n + 1.0, 3.0 * n + 50.0))


grid_dims = st.one_of(
    st.just((1, 1)),
    st.integers(1, 60).map(lambda n: (1, n)),
    st.integers(1, 60).map(lambda n: (n, 1)),
    st.tuples(st.integers(1, 60), st.integers(1, 60)))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_box_edges_equal_meshgrid_reference(data):
    # semi-major axes up to twice the longer side and semi-minor ones
    # below 0.1 px, at centres near, on and off the grid edges
    w, h = data.draw(grid_dims)
    center = (data.draw(edge_coordinate(w)), data.draw(edge_coordinate(h)))
    a = data.draw(st.floats(0.05, 2.0 * max(w, h) + 1.0))
    b = data.draw(st.one_of(st.floats(1e-3, min(a, 0.1)), st.floats(1e-3, a)))
    e = Ellipse(center, a, b, data.draw(st.floats(0.0, np.pi,
                                                  exclude_max=True)))
    big = Ellipse(e.center, 2 * e.a, 2 * e.b, e.theta)
    assert np.array_equal(rasterize_ellipse(e, (w, h)),
                          meshgrid_ellipse(e, (w, h)))
    assert np.array_equal(constrained_region(e, (w, h)),
                          meshgrid_ellipse(big, (w, h)))
    rows, cols = pixel_box(center, a + 1.0, (w, h))
    assert 0 <= rows.start <= rows.stop <= h
    assert 0 <= cols.start <= cols.stop <= w


def test_box_past_the_float_range():
    # centre -+ (a + 1) overflows to -inf along x
    e = Ellipse((-1.5e308, 4.0), 1.5e308, 1.0, 0.0)
    assert np.array_equal(rasterize_ellipse(e, (8, 8)),
                          meshgrid_ellipse(e, (8, 8)))


def test_rasters_equal_meshgrid_reference():
    rng = np.random.default_rng(21)
    for _ in range(300):
        w, h = (int(x) for x in rng.integers(1, 90, 2))
        a, b = sorted(rng.uniform(0.2, 40.0, 2), reverse=True)
        e = Ellipse((float(rng.uniform(-10, w + 10)),
                     float(rng.uniform(-10, h + 10))), float(a), float(b),
                    float(rng.uniform(0, np.pi)))
        big = Ellipse(e.center, 2 * e.a, 2 * e.b, e.theta)
        got = rasterize_ellipse(e, (w, h))
        assert got.shape == (h, w)
        assert np.array_equal(got, meshgrid_ellipse(e, (w, h)))
        assert np.array_equal(constrained_region(e, (w, h)),
                              meshgrid_ellipse(big, (w, h)))


@pytest.mark.parametrize("center, a, b", [
    ((np.inf, 30.0), 3.0, 2.0), ((4.0, np.nan), 3.0, 2.0),
    ((4.0, 4.0), np.inf, 2.0), ((4.0, 4.0), 3.0, np.nan)])
def test_ellipse_rejects_non_finite(center, a, b):
    with pytest.raises(ValueError, match="finite centre and semi-axes"):
        Ellipse(center, a, b, 0.0)


class TestConstrainedRegion:
    def test_area_scaling_factor(self):
        e = Ellipse((32.0, 32.0), 8.0, 8.0, 0.0)
        ratio = constrained_region(e, (64, 64)).sum() \
            / rasterize_ellipse(e, (64, 64)).sum()
        assert 3.6 <= ratio <= 4.4

    def test_containment(self):
        for center in [(32.0, 32.0), (0.0, 0.0), (63.5, 2.0)]:
            e = Ellipse(center, 6.0, 4.0, 0.7)
            inner = rasterize_ellipse(e, (64, 64))
            outer = constrained_region(e, (64, 64))
            assert not (inner & ~outer).any()

    def test_stability_under_rotation_and_scale(self):
        ann = RecistAnnotation((40, 32), (24, 32), (32, 38), (32, 26))
        rng = np.random.default_rng(1)
        for _ in range(15):
            t = similarity(rng.uniform(0, np.pi), rng.uniform(0.8, 1.1),
                           (32, 32), (32, 32))
            mapped = transform_annotation(ann, t)
            e = fit_ellipse(mapped)
            ratio = constrained_region(e, (64, 64)).sum() \
                / rasterize_ellipse(e, (64, 64)).sum()
            assert 3.5 <= ratio <= 4.5


class TestTransformAnnotation:
    def test_identity(self):
        ann = axis_aligned_ann()
        out = transform_annotation(ann, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        assert np.allclose(out.endpoints(), ann.endpoints())

    def test_rotation_90(self):
        out = transform_annotation(axis_aligned_ann(), similarity(np.pi / 2))
        assert np.allclose(out.endpoints(),
                           [(0, 5), (0, -5), (-3, 0), (3, 0)], atol=1e-12)

    def test_uniform_scale_doubles_axes(self):
        out = transform_annotation(axis_aligned_ann(), similarity(0.0, 2.0))
        e = fit_ellipse(out)
        assert abs(e.a - 10.0) < 1e-12 and abs(e.b - 6.0) < 1e-12
        assert e.theta == 0.0

    def test_role_swap_on_anisotropic_scale(self):
        # stretch the short axis until it becomes the long one
        stretch = np.array([[1.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        out = transform_annotation(axis_aligned_ann(), stretch)
        assert np.allclose(out.long_a, (0, 12))

    def test_collapse_rejected(self):
        with pytest.raises(DegenerateAnnotationError):
            transform_annotation(axis_aligned_ann(),
                                 np.array([[1.0, 0, 0], [0, 0.0, 0]]))


def test_annotation_csv_roundtrip():
    rows = [("000", axis_aligned_ann()),
            ("001", RecistAnnotation((20.5, 10.25), (6, 10), (13, 14), (13, 6)))]
    text = write_annotation_csv(rows)
    back = read_annotation_csv(text)
    assert [sid for sid, _ in back] == ["000", "001"]
    assert read_annotation_csv(text.replace("\n", "\n\n")) == back
    for (_, a), (_, b) in zip(rows, back):
        assert np.allclose(a.endpoints(), b.endpoints())


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_annotation_csv_rejects_non_finite(value):
    rows = write_annotation_csv([("000", axis_aligned_ann()),
                                 ("001", axis_aligned_ann())]).splitlines()
    rows[2] = rows[2].replace("001,5,", f"001,{value},", 1)
    with pytest.raises(ValueError, match=re.escape(
            f"line 3: x1 must be finite, got {float(value)}")):
        read_annotation_csv("\n".join(rows) + "\n")
