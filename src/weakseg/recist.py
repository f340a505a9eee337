"""RECIST annotation geometry: ellipse fitting, pseudo-mask rasterization,
and construction of the lesion-adaptive constrained region.

An annotation is the four endpoints of the long and short lesion diameters;
the pseudo mask is the ellipse fitted to them, and the constrained region is
that ellipse dilated to four times its area (both semi-axes doubled).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

REGION_AREA_FACTOR = 2.0  # semi-axis scale for the constrained region (area x4)


class DegenerateAnnotationError(ValueError):
    """Raised when an annotation has a zero-length or collapsed axis."""


@dataclass(frozen=True)
class RecistAnnotation:
    """Four diameter endpoints, each an (x, y) pair; long axis first."""

    long_a: tuple[float, float]
    long_b: tuple[float, float]
    short_a: tuple[float, float]
    short_b: tuple[float, float]

    def __post_init__(self):
        la = np.subtract(self.long_b, self.long_a)
        sa = np.subtract(self.short_b, self.short_a)
        llen = float(np.hypot(*la))
        slen = float(np.hypot(*sa))
        if llen <= 1e-12 or slen <= 1e-12:
            raise DegenerateAnnotationError("zero-length diameter axis")
        if llen < slen - 1e-9:
            raise DegenerateAnnotationError("long axis shorter than short axis")
        cosang = abs(float(np.dot(la / llen, sa / slen)))
        if cosang > 0.2:
            raise DegenerateAnnotationError(
                f"diameters not nominally perpendicular (|cos|={cosang:.3f})")

    def endpoints(self) -> np.ndarray:
        return np.array([self.long_a, self.long_b, self.short_a, self.short_b],
                        dtype=np.float64)


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]
    a: float  # semi-major, pixels
    b: float  # semi-minor, pixels
    theta: float  # radians in [0, pi)

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.center, self.a, self.b))):
            raise ValueError(f"require a finite centre and semi-axes, got "
                             f"center={self.center}, a={self.a}, b={self.b}")
        if not (self.a >= self.b > 0):
            raise ValueError(f"require a >= b > 0, got a={self.a}, b={self.b}")
        if not (0.0 <= self.theta < np.pi):
            raise ValueError(f"theta must be in [0, pi), got {self.theta}")


def fit_ellipse(ann: RecistAnnotation) -> Ellipse:
    """Fit an ellipse to the four endpoints: center at their mean, major axis
    along the long diameter."""
    pts = ann.endpoints()
    center = pts.mean(axis=0)
    d = pts[1] - pts[0]
    a = float(np.hypot(*d)) / 2.0
    b = float(np.hypot(*(pts[3] - pts[2]))) / 2.0
    theta = float(np.arctan2(d[1], d[0])) % np.pi
    if theta >= np.pi:  # guard against arctan2 landing exactly on pi
        theta -= np.pi
    if b > a:  # annotation validation leaves sub-1e-9 slack
        a, b = b, a
        theta = (theta + np.pi / 2.0) % np.pi
    return Ellipse(center=(float(center[0]), float(center[1])), a=a, b=b,
                   theta=theta)


def pixel_box(center, reach: float, dims) -> tuple[slice, slice]:
    """The (rows, columns) slices of a (width, height) grid that hold every
    pixel whose centre lies within ``reach`` of ``center`` along each axis,
    clipped to the grid; either slice may be empty."""
    def span(c, n):
        # clip before rounding, as c +- reach may overflow to +-inf
        lo = math.floor(min(max(c - reach, 0.0), n))
        return slice(lo, math.ceil(min(max(c + reach, lo), n)))

    return span(center[1], dims[1]), span(center[0], dims[0])


def rasterize_ellipse(e: Ellipse, dims) -> np.ndarray:
    """Pixel-center point-inclusion rasterization onto a (width, height) grid.
    The test runs only in the box centre +- (a + 1), clipped to the grid: no
    pixel centre farther than the semi-major axis a lies inside."""
    w, h = int(dims[0]), int(dims[1])
    if w < 1 or h < 1:
        raise ValueError("grid dimensions must be >= 1")
    cx, cy = e.center
    rows, cols = pixel_box(e.center, e.a + 1.0, (w, h))
    # a row of x offsets and a column of y offsets, broadcast over the box
    u = np.arange(w)[cols] + 0.5 - cx
    v = (np.arange(h)[rows] + 0.5 - cy)[:, None]
    ct, st = np.cos(e.theta), np.sin(e.theta)
    mask = np.zeros((h, w), dtype=bool)
    # at extreme axis ratios p or q may overflow to inf, which correctly
    # leaves the pixel out
    with np.errstate(over="ignore"):
        p = (u * ct + v * st) / e.a
        q = (-u * st + v * ct) / e.b
        mask[rows, cols] = p * p + q * q <= 1.0
    return mask


def constrained_region(e: Ellipse, dims) -> np.ndarray:
    """Rasterize the ellipse dilated to 4x area (semi-axes doubled)."""
    big = Ellipse(center=e.center, a=e.a * REGION_AREA_FACTOR,
                  b=e.b * REGION_AREA_FACTOR, theta=e.theta)
    return rasterize_ellipse(big, dims)


def transform_annotation(ann: RecistAnnotation, t: np.ndarray) -> RecistAnnotation:
    """Map the four endpoints through a 2x3 affine transform, re-assigning
    long/short roles by post-transform lengths."""
    pts = ann.endpoints() @ t[:, :2].T + t[:, 2]
    d1 = float(np.hypot(*(pts[1] - pts[0])))
    d2 = float(np.hypot(*(pts[3] - pts[2])))
    if min(d1, d2) <= 1e-12:
        raise DegenerateAnnotationError("transform collapsed a diameter axis")
    if d1 >= d2:
        order = (0, 1, 2, 3)
    else:
        order = (2, 3, 0, 1)
    return RecistAnnotation(
        long_a=tuple(pts[order[0]]), long_b=tuple(pts[order[1]]),
        short_a=tuple(pts[order[2]]), short_b=tuple(pts[order[3]]))


# ---------------------------------------------------------------------------
# Annotation CSV: image_id, x1,y1,x2,y2 (long axis), x3,y3,x4,y4 (short axis)

_CSV_HEADER = ("image_id", "x1", "y1", "x2", "y2", "x3", "y3", "x4", "y4")


def write_annotation_csv(rows: list[tuple[str, RecistAnnotation]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for image_id, ann in rows:
        coords = ann.endpoints().reshape(-1)
        writer.writerow([image_id] + [f"{c:.6g}" for c in coords])
    return buf.getvalue()


def read_annotation_csv(text: str) -> list[tuple[str, RecistAnnotation]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or header[0] != "image_id":
        raise ValueError("annotation CSV must start with an image_id header")
    out = []
    lines = {}  # image id -> the CSV line that holds it
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != 9:
                raise ValueError(f"annotation row needs 9 fields, got {len(row)}")
            if row[0] in lines:
                raise ValueError(f"image id {row[0]!r} repeats line "
                                 f"{lines[row[0]]}")
            lines[row[0]] = reader.line_num
            x = [float(v) for v in row[1:]]
            for name, value in zip(_CSV_HEADER[1:], x):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
            out.append((row[0], RecistAnnotation(
                long_a=(x[0], x[1]), long_b=(x[2], x[3]),
                short_a=(x[4], x[5]), short_b=(x[6], x[7]))))
        except ValueError as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return out
