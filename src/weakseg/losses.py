"""Training losses with analytic gradients: pixel-wise binary cross entropy,
soft IoU, and the regional level set loss, which is the Chan-Vese region
data term (``data_term``, shared with ``levelset.cv_energy``) over a
constrained region; plus a central finite-difference gradient checker.

Tri-label masks may mark pixels IGNORE; those pixels contribute neither to
loss values nor to gradients.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .imgcore import FG, IGNORE


# bce_loss clamps predictions to [CLAMP_EPS, 1 - CLAMP_EPS] before the logs
CLAMP_EPS = 1e-7
# rls_loss weighs the inside and outside residuals by these
RLS_LAMBDA1, RLS_LAMBDA2 = 1.0, 3.0


class DegenerateRegionError(ValueError):
    """Raised when a region mean has (near) zero weight mass."""


class LossValueGrad(NamedTuple):
    """A loss's value and its gradient; unpacks as (value, grad), the pair
    ``finite_diff_check`` expects."""
    value: float
    grad: np.ndarray


def _split_trimask(g, p: np.ndarray):
    """Float 0/1 (valid, target) masks of a tri-mask the shape of p."""
    g = np.asarray(g)
    if g.shape != p.shape:
        raise ValueError(f"shape mismatch: mask {g.shape} vs prediction {p.shape}")
    return (g != IGNORE).astype(np.float64), (g == FG).astype(np.float64)


def _bce(p, valid, tgt) -> LossValueGrad:
    n = float(valid.sum())
    if n == 0:
        raise ValueError("all pixels are IGNORE")
    pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    terms = tgt * np.log(pc) + (1.0 - tgt) * np.log1p(-pc)
    value = -float((valid * terms).sum()) / n
    unsat = valid * ((p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS))
    grad = unsat * ((1.0 - tgt) / (1.0 - pc) - tgt / pc) / n
    return LossValueGrad(value, grad)


def _iou(p, valid, tgt) -> LossValueGrad:
    tp = tgt * p
    inter = float((valid * tp).sum())
    union = float((valid * (tgt + p - tp)).sum())
    if union <= 0.0:
        # empty target and empty prediction agree perfectly
        return LossValueGrad(0.0, np.zeros_like(p))
    # d/dp [1 - I/U] = -(g*U - I*(1-g)) / U^2
    grad = valid * -(tgt * union - inter * (1.0 - tgt)) / union ** 2
    return LossValueGrad(1.0 - inter / union, grad)


def bce_loss(p: np.ndarray, g: np.ndarray) -> LossValueGrad:
    """Mean binary cross entropy over non-IGNORE pixels, with the prediction
    clamped to [CLAMP_EPS, 1-CLAMP_EPS] before the logarithms; the gradient
    is 0 where the clamp binds."""
    p = np.asarray(p, dtype=np.float64)
    return _bce(p, *_split_trimask(g, p))


def iou_loss(p: np.ndarray, g: np.ndarray) -> LossValueGrad:
    """Soft IoU loss 1 - sum(gp) / sum(g + p - gp) over non-IGNORE pixels."""
    p = np.asarray(p, dtype=np.float64)
    return _iou(p, *_split_trimask(g, p))


def _region_inputs(p, img, region):
    p = np.asarray(p, dtype=np.float64)
    v = np.asarray(img, dtype=np.float64)
    r = np.asarray(region, dtype=bool)
    if not (p.shape == v.shape == r.shape):
        raise ValueError("prediction, image and region shapes must match")
    return p, v, r


def data_term(h: np.ndarray, v: np.ndarray, lambda1: float, lambda2: float,
              grad=None, work=None) -> float:
    """Chan-Vese region data term sum [l1 (v-c1)^2 h + l2 (v-c2)^2 (1-h)] of
    same-shape weights h and image v, c1 and c2 the h- and (1-h)-weighted
    means of v; returns the value. ``grad`` (optional) receives
    l1 (v-c1)^2 - l2 (v-c2)^2; ``work`` is optional (4, *h.shape) scratch.
    The arithmetic runs in h's and v's common float dtype, so float32 inputs
    and scratch stay float32 (the sums too) and float64 ones float64."""
    if work is None:
        work = np.empty((4,) + h.shape, dtype=np.result_type(h, v))
    g, r1, r2, t = work
    np.subtract(1.0, h, out=g)
    w1, w2 = float(h.sum()), float(g.sum())
    if w1 <= 1e-12 or w2 <= 1e-12:
        raise DegenerateRegionError(
            f"degenerate region weights (inside {w1:.3g}, outside {w2:.3g})")
    c1 = float(np.multiply(v, h, out=t).sum()) / w1
    c2 = float(np.multiply(v, g, out=t).sum()) / w2
    np.multiply(lambda1, np.square(np.subtract(v, c1, out=r1), out=r1), out=r1)
    np.multiply(lambda2, np.square(np.subtract(v, c2, out=r2), out=r2), out=r2)
    if grad is not None:
        np.subtract(r1, r2, out=grad)
    np.add(np.multiply(r1, h, out=r1), np.multiply(r2, g, out=r2), out=r1)
    return float(r1.sum())


def rls_loss(p: np.ndarray, img: np.ndarray,
             region: np.ndarray) -> LossValueGrad:
    """Regional level set loss over the constrained region:

        (1/|R|) sum_R [ l1 * p * (v - c1)^2 + l2 * (1 - p) * (v - c2)^2 ]

    with l1, l2 = RLS_LAMBDA1, RLS_LAMBDA2 and c1, c2 the
    prediction-weighted region means. The gradient treats
    c1, c2 as constants, which is exact for the region means: they minimise
    their weighted sums, so sum_R p (v - c1) = 0 = sum_R (1 - p) (v - c2).
    """
    p, v, r = _region_inputs(p, img, region)
    n = int(r.sum())
    grad = np.zeros_like(p)
    dr = np.empty(n)
    value = data_term(p[r], v[r], RLS_LAMBDA1, RLS_LAMBDA2, dr)
    grad[r] = dr / n
    return LossValueGrad(value=value / n, grad=grad)


def seg_loss(preds, masks):
    """Deep-supervision segmentation loss: sum over the three scales of
    bce + iou. Returns (total value, list of per-scale gradients)."""
    total = 0.0
    grads = []
    for p, g in zip(preds, masks, strict=True):
        p = np.asarray(p, dtype=np.float64)
        valid, tgt = _split_trimask(g, p)
        b = _bce(p, valid, tgt)
        i = _iou(p, valid, tgt)
        total += b.value + i.value
        grads.append(b.grad + i.grad)
    return total, grads


def finite_diff_check(fn, point: np.ndarray, h: float = 1e-5) -> float:
    """Compare fn's analytic gradient g against central finite differences d.

    fn(x) must return (value, grad). Returns max_i |d_i - g_i| over the
    larger of max_i |g_i| and max_i |d_i|: the error against the gradient's
    scale, not against each coordinate. d_i errs by at most
    h^2 |f'''| / 6 (truncation) plus e / h (round-off), e the rounding error
    of one evaluation of fn. e belongs to the whole evaluation, not to a
    coordinate, so a coordinate whose gradient is near zero errs by as much
    as any other, and only a scale common to all coordinates bounds it.
    """
    x = np.array(point, dtype=np.float64)
    _, grad = fn(x)
    grad = np.array(grad, dtype=np.float64).reshape(-1)
    flat = x.reshape(-1)
    fd = np.empty_like(grad)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp, _ = fn(x)
        flat[i] = orig - h
        fm, _ = fn(x)
        flat[i] = orig
        fd[i] = (fp - fm) / (2.0 * h)
    scale = max(np.abs(grad).max(), np.abs(fd).max())
    return float(np.abs(fd - grad).max() / scale) if scale > 0 else 0.0
