"""Weakly-supervised training: three-scale pseudo masks, augmentation, the
two-stage loss schedule, and the multi-round pseudo-mask update loop.

The stage is a function of the epoch: epochs before
``TrainConfig.stage2_start`` train with the segmentation losses alone, later
ones add the regional level set loss at weight ``TrainConfig.rls_weight``,
on the same optimizer state; ``stage2_start = epochs`` trains without it.
``sample_losses`` is the one home of the objective a step descends.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from .imgcore import BG, FG, IGNORE, apply_affine
from .losses import DegenerateRegionError, rls_loss, seg_loss
from .model import ArchConfig, adam_init, adam_step, backward, forward, \
    init_params, new_workspace
from .recist import DegenerateAnnotationError, rasterize_ellipse, \
    transform_annotation
from .synthgen import Sample


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 80
    lr: float = 0.001
    decay_epochs: tuple[int, ...] = (40, 60)
    stage2_start: int = 40
    rls_weight: float = 0.1
    rounds: int = 3
    seed: int = 0
    long_side: tuple[int, int] = (32, 64)
    augment: bool = True
    rls_region: str = "constrained"  # "constrained" | "whole_image"
    arch: ArchConfig = ArchConfig()

    def __post_init__(self):
        if not (0 < self.stage2_start <= self.epochs):
            raise ValueError(f"need 0 < stage2_start <= epochs, got "
                             f"stage2_start {self.stage2_start} and epochs "
                             f"{self.epochs}")
        d = self.decay_epochs
        if any(x < 1 for x in d) or any(x >= y for x, y in zip(d, d[1:])):
            raise ValueError(f"decay_epochs must be strictly increasing "
                             f"epochs >= 1, got {list(d)}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not (math.isfinite(self.rls_weight) and self.rls_weight >= 0):
            raise ValueError(f"rls_weight must be non-negative and finite, "
                             f"got {self.rls_weight}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if len(self.long_side) != 2:
            raise ValueError("long_side must be a pair [lo, hi]")
        if self.long_side[0] < 4:
            raise ValueError(f"long_side must start at 4 or more, got "
                             f"{list(self.long_side)}")
        if self.long_side[0] > self.long_side[1]:
            raise ValueError("long-side range must satisfy lo <= hi")
        if self.rls_region not in ("constrained", "whole_image"):
            raise ValueError(f"unknown rls_region {self.rls_region!r}; "
                             "stage2_start = epochs trains without RLS")


def train_config_from_json(text: str) -> TrainConfig:
    """Parse a training config. Every key is optional and defaults as in
    TrainConfig; a key the config classes lack, or a value of the wrong
    type, raises ValueError naming the key."""
    return _config_from_raw(TrainConfig, json.loads(text), "")


def _config_from_raw(cls, raw, where: str):
    if not isinstance(raw, dict):
        what = f"config key {where!r}" if where else "config"
        raise ValueError(f"{what} must be a JSON object, got "
                         f"{type(raw).__name__}")
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        name = f"{where}.{key}" if where else key
        if key not in defaults:
            raise ValueError(f"unknown config key {name!r}")
        default = defaults[key]
        if is_dataclass(default):
            kwargs[key] = _config_from_raw(type(default), value, name)
        else:
            kwargs[key] = _config_value(name, value, default)
    return cls(**kwargs)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _config_value(name: str, value, default):
    """value, checked against the type of the field's default; a JSON list
    becomes a tuple of ints."""
    if isinstance(default, bool):
        ok = isinstance(value, bool)
    elif isinstance(default, int):
        ok = _is_int(value)
    elif isinstance(default, float):
        ok = _is_int(value) or isinstance(value, float)
    elif isinstance(default, tuple):
        ok = isinstance(value, list) and all(map(_is_int, value))
        value = tuple(value) if ok else value
    else:
        ok = isinstance(value, type(default))
    if not ok:
        raise ValueError(f"config key {name!r} has the wrong type: "
                         f"{json.dumps(value)} (default "
                         f"{json.dumps(default)})")
    return value


@dataclass
class EpochRecord:
    epoch: int
    stage: str
    lr: float
    mean_seg_loss: float
    mean_rls_loss: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    # steps whose RLS term was dropped for a degenerate region, and samples
    # skipped after 10 failed augmentation draws; neither is in the CSV
    rls_skips: int = 0
    augment_skips: int = 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["epoch", "stage", "lr", "mean_seg_loss", "mean_rls_loss"])
        for r in self.records:
            w.writerow([r.epoch, r.stage, f"{r.lr:.6g}",
                        f"{r.mean_seg_loss:.10g}", f"{r.mean_rls_loss:.10g}"])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# pseudo masks

def make_pseudo_masks(pseudo: np.ndarray):
    """The full-resolution tri-mask at the three head scales (1/4, 1/2, 1):
    nearest downsampling, which on integer scales picks each block's
    center pixel. Returns views of pseudo."""
    return pseudo[2::4, 2::4], pseudo[1::2, 1::2], pseudo


def update_pseudo_mask(p: np.ndarray, emask: np.ndarray):
    """Pseudo-mask update from a prediction and the fitted-ellipse mask:
    foreground = P AND e, ignored = symmetric difference, background = rest,
    with P the prediction thresholded at 0.5. Returns (tri-mask,
    retain_previous)."""
    p = np.asarray(p, dtype=np.float64)
    e = np.asarray(emask, dtype=bool)
    if p.shape != e.shape:
        raise ValueError("prediction and ellipse mask shapes must match")
    pred = p >= 0.5
    fg = pred & e
    out = np.where(fg, np.int8(FG),
                   np.where(pred != e, np.int8(IGNORE), np.int8(BG)))
    return out, not fg.any()


# ---------------------------------------------------------------------------
# augmentation

def _round4(x: float) -> int:
    return max(4, int(round(x / 4.0)) * 4)


def augment(sample: Sample, rng: np.random.Generator, long_side):
    """One random augmentation: affine (scale, rotation, resize so the long
    side lands in the configured range, and a translation that puts the
    ellipse centre at out_side/2 +- 0.1 out_side), brightness/contrast
    jitter, Gaussian blur. The ellipse centre is the annotation's centroid,
    which the affine maps to the mapped annotation's centroid, so the new
    ellipse is always centred on the grid. sample' is built by
    Sample.from_annotation from the mapped annotation, so its ellipse,
    constrained region and pseudo mask are recomputed: FG inside the
    re-rasterized ellipse, BG outside, and a refined mask's IGNORE pixels,
    warped with the image (bilinear, kept where >= 0.5), on top.
    update_pseudo_mask writes only FG or IGNORE inside the ellipse and BG or
    IGNORE outside it, so this keeps the refinement. The gt mask is not
    warped (training never reads it), so sample' has none. A draw whose
    mapped annotation is degenerate or whose ellipse covers no pixel centre
    is redrawn; after 10 such draws the sample is returned unchanged.
    Returns (sample', skipped)."""
    h, w = sample.image.shape
    fill = float(np.median(sample.image))
    ignore = sample.pseudo == IGNORE
    for _ in range(10):
        scale = rng.uniform(0.8, 1.2)
        theta = rng.uniform(-np.pi / 6.0, np.pi / 6.0)
        out_side = _round4(rng.uniform(*long_side))
        c, s = np.cos(theta), np.sin(theta)
        lin = scale * out_side / max(h, w) * np.array([[c, -s], [s, c]])
        # x -> lin (x - E) + shift: the ellipse centre E lands at shift,
        # the grid's middle with a random crop-like jitter (x, then y)
        jitter = 0.1 * out_side
        shift = out_side / 2.0 + rng.uniform(-jitter, jitter, 2)
        t = np.column_stack([lin, shift - lin @ sample.ellipse.center])
        try:
            ann = transform_annotation(sample.annotation, t)
        except DegenerateAnnotationError:
            continue
        img = apply_affine(sample.image, t, (out_side, out_side), fill=fill)
        brightness = rng.uniform(-0.1, 0.1)
        gain = rng.uniform(0.8, 1.2)
        sigma = rng.uniform(0.0, 1.0)
        img = np.clip((img - 0.5) * gain + 0.5 + brightness, 0.0, 1.0)
        if sigma > 1e-3:
            img = gaussian_filter(img, sigma, mode="nearest")
        out = Sample.from_annotation(img, ann, sample_id=sample.sample_id,
                                     meta=dict(sample.meta))
        if not (out.pseudo == FG).any():
            continue
        if ignore.any():
            out.pseudo[apply_affine(ignore, t, (out_side, out_side))
                       >= 0.5] = IGNORE
        return out, False
    return sample, True


# ---------------------------------------------------------------------------
# training

def sample_losses(sample: Sample, params, cfg: TrainConfig, with_rls: bool,
                  workspace: dict):
    """The training objective of one sample: the segmentation loss on the
    pseudo-mask pyramid plus, when ``with_rls``, the RLS loss on the
    configured region at weight cfg.rls_weight. Returns (total, grads, seg
    value, RLS value), grads the gradient of total over params. The RLS
    value is 0.0 without the term and None when its region is degenerate,
    and the step then keeps only the segmentation loss. A non-finite total
    raises FloatingPointError naming the sample."""
    p1, p2, p3, cache = forward(sample.image, params, cfg.arch, workspace)
    seg_val, seg_grads = seg_loss((p1, p2, p3),
                                  make_pseudo_masks(sample.pseudo))
    rls_val = 0.0
    if with_rls:
        region = sample.region if cfg.rls_region == "constrained" \
            else np.ones_like(sample.region, dtype=bool)
        try:
            r = rls_loss(p3, sample.image, region)
        except DegenerateRegionError:
            rls_val = None
        else:
            rls_val = r.value
            seg_grads[2] = seg_grads[2] + cfg.rls_weight * r.grad
    total = seg_val + cfg.rls_weight * (rls_val or 0.0)
    if not np.isfinite(total):
        raise FloatingPointError(
            f"non-finite loss on sample {sample.sample_id!r}")
    return total, backward(cache, seg_grads), seg_val, rls_val


def train_schedule(dataset, cfg: TrainConfig):
    """One full round from the initial parameters, on one Adam state and one
    RNG. The stage is a function of the epoch: an epoch before
    cfg.stage2_start trains with the segmentation losses alone
    ('seg_only'); a later one adds the regional level set loss at weight
    cfg.rls_weight ('seg_plus_rls'), so stage2_start = epochs never adds
    it. Each step descends sample_losses. A step whose RLS region is
    degenerate drops its RLS term (counted 0 in the epoch mean) and counts
    in history.rls_skips; a sample whose augmentation is skipped takes no
    step and counts in history.augment_skips. Returns (params, history)."""
    if not dataset:
        raise ValueError("dataset is empty")
    params = init_params(cfg.seed, cfg.arch)
    state = adam_init(params)
    rng = np.random.default_rng((cfg.seed, 17))
    workspace = new_workspace()
    history = TrainHistory()
    for epoch in range(cfg.epochs):
        with_rls = epoch >= cfg.stage2_start
        lr = cfg.lr * (0.1 ** sum(epoch >= d for d in cfg.decay_epochs))
        order = rng.permutation(len(dataset))
        seg_sum = 0.0
        rls_sum = 0.0
        steps = 0
        for idx in order:
            sample = dataset[idx]
            if cfg.augment:
                sample, skipped = augment(sample, rng, cfg.long_side)
                if skipped:
                    history.augment_skips += 1
                    continue
            _, grads, seg_val, rls_val = sample_losses(sample, params, cfg,
                                                       with_rls, workspace)
            if rls_val is None:
                history.rls_skips += 1
                rls_val = 0.0
            params, state = adam_step(params, grads, state, lr)
            seg_sum += seg_val
            rls_sum += rls_val
            steps += 1
        # an epoch whose samples were all skipped logs zero means
        steps = max(steps, 1)
        history.records.append(EpochRecord(
            epoch=epoch, stage="seg_plus_rls" if with_rls else "seg_only",
            lr=lr, mean_seg_loss=seg_sum / steps,
            mean_rls_loss=rls_sum / steps))
    return params, history


def predict(image: np.ndarray, params, arch: ArchConfig,
            workspace: dict | None = None) -> np.ndarray:
    """Full-resolution probability map for one image. A caller that
    predicts in sequence lends every call one ``workspace``
    (model.new_workspace)."""
    _, _, p3, _ = forward(image, params, arch, workspace)
    return p3


def train_rounds(dataset, cfg: TrainConfig):
    """The multi-round procedure, as a generator: train from scratch on the
    ellipse pseudo masks, then repeatedly re-infer, update the pseudo masks
    and retrain from scratch. Yields (params, history, samples) as each
    round ends, samples being the list that round trained on. Each update
    builds a new list, holding a sample itself where update_pseudo_mask
    retains it and a copy with the updated pseudo mask otherwise, so a
    yielded list never changes. The update runs when the next round is
    asked for, so a caller that stops early trains no further round."""
    samples = list(dataset)
    for rnd in range(cfg.rounds):
        if rnd:
            workspace = new_workspace()
            updated = []
            for sample in samples:
                p = predict(sample.image, params, cfg.arch, workspace)
                emask = rasterize_ellipse(sample.ellipse,
                                          sample.image.shape[::-1])
                new_pseudo, retain = update_pseudo_mask(p, emask)
                updated.append(sample if retain
                               else replace(sample, pseudo=new_pseudo))
            samples = updated
        params, history = train_schedule(samples, cfg)  # same init
        yield params, history, samples
