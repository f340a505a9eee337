"""The training sample and the synthetic lesion dataset generator.

``Sample.from_annotation`` is the one place a sample is built from an image
and its RECIST annotation: it fits the ellipse, rasterizes it into the FG/BG
pseudo mask and computes the constrained region. The training command, the
generator and augmentation all use it; augmentation then writes a refined
mask's warped IGNORE pixels into the new pseudo mask. The CLI's dataset
loader builds no ``Sample``: it reads images, annotations and ground truth,
which is all that eval needs.

Each synthetic sample is a star-convex blob with known ground truth and a
RECIST-style annotation measured off it (long diameter plus near-perpendicular
short diameter). Optional distractor blobs are placed strictly outside the
constrained region.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .imgcore import BG, FG
from .recist import RecistAnnotation, Ellipse, fit_ellipse, pixel_box, \
    rasterize_ellipse, constrained_region


@dataclass(frozen=True)
class SynthConfig:
    size: int = 64
    radius_range: tuple[float, float] = (10.0, 16.0)
    contrast_range: tuple[float, float] = (0.3, 0.5)
    irregularity: float = 0.15
    noise_sigma: float = 0.05
    distractors: int = 0
    background: float = 0.25
    dark_prob: float = 0.0  # chance the lesion is darker than the background
    seed: int = 0

    def __post_init__(self):
        # each message starts with the field name
        if self.radius_range[0] < 3:
            raise ValueError(f"radius_range must start at >= 3, got "
                             f"{self.radius_range}")
        if self.contrast_range[0] == 0 and self.contrast_range[1] == 0:
            raise ValueError("contrast_range must not be (0, 0)")
        if not (0.0 <= self.irregularity < 1.0):
            raise ValueError(f"irregularity must lie in [0, 1), got "
                             f"{self.irregularity}")
        # gen_lesion keeps a margin of r * (1 + irregularity) + 2 px around
        # the centre of a lesion of radius r
        radius = max(self.radius_range)
        need = 2 * (radius * (1.0 + self.irregularity) + 2.0)
        if need >= self.size:
            raise ValueError(f"size {self.size} is too small for a lesion of "
                             f"radius up to {radius:.1f}, which needs more "
                             f"than {need:.1f} px")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be non-negative and finite, "
                             f"got {self.noise_sigma}")
        if self.distractors < 0:
            raise ValueError(f"distractors must be >= 0, got "
                             f"{self.distractors}")
        if not (0.0 <= self.dark_prob <= 1.0):
            raise ValueError(f"dark_prob must lie in [0, 1], got "
                             f"{self.dark_prob}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Sample:
    image: np.ndarray
    annotation: RecistAnnotation
    ellipse: Ellipse
    pseudo: np.ndarray   # tri-mask, full resolution
    region: np.ndarray   # constrained region I'
    gt_mask: np.ndarray | None = None
    sample_id: str = ""
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_annotation(cls, image, annotation: RecistAnnotation,
                        gt_mask=None, sample_id: str = "",
                        meta: dict | None = None) -> Sample:
        """Fit the annotation's ellipse and build the FG/BG pseudo mask and
        the constrained region on the image's grid. ``gt_mask`` is stored as
        given: its callers build it on the image's grid (``gen_lesion``) or
        have checked its shape (``cli.load_dataset``)."""
        h, w = image.shape
        e = fit_ellipse(annotation)
        pseudo = np.where(rasterize_ellipse(e, (w, h)), FG, BG).astype(np.int8)
        return cls(image=image, annotation=annotation, ellipse=e,
                   pseudo=pseudo, region=constrained_region(e, (w, h)),
                   gt_mask=gt_mask, sample_id=sample_id, meta=meta or {})


def _star_mask(size: int, center, radius: float, irregularity: float,
               rng: np.random.Generator) -> np.ndarray:
    """Fill radius(angle) = r * (1 + irregularity * low-order sinusoids),
    normalized so the perturbation magnitude never exceeds irregularity.
    The test runs only in the box centre +- (r * (1 + irregularity) + 1),
    clipped to the grid: no pixel centre farther than r * (1 + irregularity)
    lies inside."""
    harmonics = []
    for k in (2, 3, 4):
        harmonics.append((k, rng.uniform(-1, 1), rng.uniform(-1, 1)))
    amp = sum(np.hypot(a, b) for _, a, b in harmonics)
    rows, cols = pixel_box(center, radius * (1.0 + irregularity) + 1.0,
                           (size, size))
    dx = np.arange(size)[cols] + 0.5 - center[0]
    dy = (np.arange(size)[rows] + 0.5 - center[1])[:, None]
    ang = np.arctan2(dy, dx)
    pert = np.zeros_like(ang)
    if amp > 0 and irregularity > 0:
        for k, a, b in harmonics:
            pert += a * np.cos(k * ang) + b * np.sin(k * ang)
        pert *= irregularity / amp
    rad = radius * (1.0 + pert)
    mask = np.zeros((size, size), dtype=bool)
    mask[rows, cols] = np.hypot(dx, dy) <= rad
    return mask


def derive_recist(gt_mask: np.ndarray) -> RecistAnnotation:
    """Measure a RECIST-style annotation off a ground-truth mask: the long
    axis joins the farthest pair of boundary pixel centers, the short axis is
    the longest boundary chord within 5 degrees of perpendicular to it."""
    m = np.asarray(gt_mask, dtype=bool)
    if not m.any():
        raise ValueError("mask is empty")
    if _component_count(m) != 1:
        raise ValueError("mask must be a single connected component")
    pad = np.pad(m, 1)
    boundary = m & ~(pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:])
    ys, xs = np.nonzero(boundary)
    pts = np.stack([xs + 0.5, ys + 0.5], axis=1)
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    i, j = np.unravel_index(np.argmax(d2), d2.shape)
    long_a, long_b = pts[i], pts[j]
    axis = long_b - long_a
    axis_len = np.hypot(*axis)
    u = axis / axis_len
    # chords within 5 degrees of perpendicular to the long axis
    lens = np.sqrt(d2)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = np.abs(diff[..., 0] * u[0] + diff[..., 1] * u[1]) / lens
    ok = (lens > 0) & (cosang <= np.sin(np.deg2rad(5.0)))
    if not ok.any():
        raise ValueError("no near-perpendicular chord found")
    masked = np.where(ok, lens, -1.0)
    k, l = np.unravel_index(np.argmax(masked), masked.shape)
    short_a, short_b = pts[k], pts[l]
    short_len = lens[k, l]
    if short_len <= 1e-9:
        raise ValueError("degenerate short axis")
    if short_len > axis_len:
        long_a, long_b, short_a, short_b = short_a, short_b, long_a, long_b
    return RecistAnnotation(long_a=tuple(long_a), long_b=tuple(long_b),
                            short_a=tuple(short_a), short_b=tuple(short_b))


def _component_count(m: np.ndarray) -> int:
    from scipy.ndimage import label
    _, n = label(m)
    return n


def gen_lesion(cfg: SynthConfig, rng: np.random.Generator,
               sample_id: str = "") -> Sample:
    s = cfg.size
    radius = rng.uniform(*cfg.radius_range)
    margin = radius * (1.0 + cfg.irregularity) + 2.0
    center = (rng.uniform(margin, s - margin), rng.uniform(margin, s - margin))
    gt = _star_mask(s, center, radius, cfg.irregularity, rng)
    contrast = rng.uniform(*cfg.contrast_range)
    if cfg.dark_prob > 0 and rng.uniform() < cfg.dark_prob:
        contrast = -contrast
    img = np.full((s, s), cfg.background)
    img[gt] += contrast
    sample = Sample.from_annotation(img, derive_recist(gt), gt, sample_id,
                                    meta={"radius": radius,
                                          "contrast": contrast,
                                          "center": center})
    # distractors mimic lesion intensity but never touch I'
    placed = 0
    attempts = 0
    while placed < cfg.distractors and attempts < 200:
        attempts += 1
        dr = rng.uniform(3.0, max(4.0, radius * 0.6))
        dc = (rng.uniform(dr + 1, s - dr - 1), rng.uniform(dr + 1, s - dr - 1))
        blob = rasterize_ellipse(Ellipse(center=dc, a=dr, b=dr, theta=0.0),
                                 (s, s))
        if (blob & sample.region).any():
            continue
        img[blob] = cfg.background + contrast
        placed += 1
    if cfg.noise_sigma > 0:
        img = img + rng.normal(0.0, cfg.noise_sigma, size=img.shape)
    sample.image = np.clip(img, 0.0, 1.0)
    return sample


def gen_dataset(cfg: SynthConfig, n: int):
    """Generate n samples with per-sample derived RNG streams; returns
    (samples, manifest CSV text)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    samples = []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "radius", "contrast"])
    for i in range(n):
        rng = np.random.default_rng((cfg.seed, i))
        sid = f"{i:03d}"
        sample = gen_lesion(cfg, rng, sample_id=sid)
        samples.append(sample)
        writer.writerow([sid, f"{sample.meta['radius']:.6g}",
                         f"{sample.meta['contrast']:.6g}"])
    return samples, buf.getvalue()
