"""Classic Chan-Vese two-phase segmentation by gradient descent on the
discretized energy

    mu * Length + nu * Area + l1 * sum (v - c1)^2 H(phi)
                            + l2 * sum (v - c2)^2 (1 - H(phi))

with a smoothed (arctan) Heaviside. The length term uses central differences
of H(phi) with periodic wrap. ``cv_energy`` returns the energy and, on
request, its exact gradient from one pass over reusable scratch arrays; the
solver evaluates each backtracking line-search candidate once, with its
gradient, and the energy trace is non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt

from .losses import DegenerateRegionError

_LEN_ETA = 1e-12  # smoothing inside the gradient-magnitude square root
_N_WORK = 6  # scratch arrays of the image's shape per energy evaluation


@dataclass(frozen=True)
class CvConfig:
    mu: float = 0.1
    nu: float = 0.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    eps: float = 1.0
    # nominal descent step; backtracking halves it whenever it would not
    # decrease the energy, so a generous default converges fastest
    step: float = 20.0
    iters: int = 500
    tol: float = 1e-4

    def __post_init__(self):
        for name, value in (("mu", self.mu), ("nu", self.nu)):
            if not value >= 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ValueError("lambda1 and lambda2 must be positive")
        if self.eps <= 0:
            raise ValueError("heaviside eps must be positive")
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")


def smooth_heaviside(z, eps: float = 1.0, out=None):
    """Smoothed step H_eps(z) = 0.5 * (1 + (2/pi) * atan(z / eps))."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = np.divide(np.asarray(z, dtype=np.float64), eps, out=out)
    t = np.multiply(2.0 / np.pi, np.arctan(t, out=out), out=out)
    return np.multiply(0.5, np.add(1.0, t, out=out), out=out)


def smooth_delta(z, eps: float = 1.0, out=None):
    """Derivative of smooth_heaviside: (1/pi) * eps / (eps^2 + z^2)."""
    z = np.asarray(z, dtype=np.float64)
    t = np.add(eps * eps, np.multiply(z, z, out=out), out=out)
    return np.divide(eps / np.pi, t, out=out)


def _central_diff(out, a, tmp, axis, sign):
    """out = sign * (roll(a, -1) - roll(a, 1)) / 2 along axis, by slicing."""
    a = np.moveaxis(a, axis, 0)
    for dst, k in ((out, -sign), (tmp, sign)):
        dst = np.moveaxis(dst, axis, 0)
        dst[k:], dst[:k] = a[:-k], a[-k:]
    return np.divide(np.subtract(out, tmp, out=out), 2.0, out=out)


def cv_energy(phi, img, cfg: CvConfig, grad=None, work=None) -> float:
    """Evaluate the Chan-Vese energy of a level set field. When ``grad`` (an
    array of phi's shape) is given, dE/dphi is written into it. ``work`` is an
    optional (_N_WORK, *img.shape) float64 scratch array for every
    intermediate; without it a fresh one is allocated."""
    phi = np.asarray(phi, dtype=np.float64)
    v = np.asarray(img, dtype=np.float64)
    if phi.shape != v.shape:
        raise ValueError("level set and image shapes must match")
    h, g, r1, r2, t1, t2 = np.empty((_N_WORK,) + v.shape) if work is None else work
    smooth_heaviside(phi, cfg.eps, out=h)
    np.subtract(1.0, h, out=g)
    w1, w2 = float(h.sum()), float(g.sum())
    if w1 <= 1e-12 or w2 <= 1e-12:
        raise DegenerateRegionError(
            f"level set has no mass on one side (inside {w1:.3g}, outside {w2:.3g})")
    c1 = float(np.multiply(v, h, out=t1).sum()) / w1
    c2 = float(np.multiply(v, g, out=t1).sum()) / w2
    # lambda * (v - c)^2, each computed once for the energy and the gradient
    np.multiply(cfg.lambda1, np.square(np.subtract(v, c1, out=r1), out=r1), out=r1)
    np.multiply(cfg.lambda2, np.square(np.subtract(v, c2, out=r2), out=r2), out=r2)
    np.add(np.multiply(r1, h, out=t1), np.multiply(r2, g, out=t2), out=t1)
    energy = float(t1.sum())
    if grad is not None:
        np.add(np.subtract(r1, r2, out=grad), cfg.nu, out=grad)
    energy += cfg.nu * w1
    if cfg.mu != 0.0:
        gx = _central_diff(t1, h, t2, 1, 1)
        gy = _central_diff(r2, h, t2, 0, 1)
        n = np.add(np.multiply(gx, gx, out=r1), np.multiply(gy, gy, out=t2), out=r1)
        np.sqrt(np.add(n, _LEN_ETA, out=n), out=n)
        energy += cfg.mu * float(n.sum())
        if grad is not None:
            # length gradient with respect to h, into g
            _central_diff(g, np.divide(gx, n, out=gx), t2, 1, -1)
            np.add(g, _central_diff(h, np.divide(gy, n, out=gy), t2, 0, -1), out=g)
            np.add(grad, np.multiply(cfg.mu, g, out=g), out=grad)
    if grad is not None:
        np.multiply(grad, smooth_delta(phi, cfg.eps, out=t1), out=grad)
    return energy


def cv_evolve(img: np.ndarray, init: np.ndarray, cfg: CvConfig = CvConfig()):
    """Evolve a level set from a binary initialization.

    Returns (mask, trace, warning) where mask = {phi >= 0}, trace is the
    per-iteration energy (non-increasing within 1e-6 per step), and warning
    is set when the means degenerate mid-run and the evolution stops early.
    """
    v = np.asarray(img, dtype=np.float64)
    m = np.asarray(init, dtype=bool)
    if m.shape != v.shape:
        raise ValueError("init mask and image shapes must match")
    if not m.any() or m.all():
        raise ValueError("init mask must be nonempty and not cover the grid")
    # signed distance to the mask boundary: away from it H(phi) saturates, so
    # the region means separate immediately (a +-1 init leaves them nearly
    # equal under the smoothed Heaviside and the descent stalls)
    phi = distance_transform_edt(m) - distance_transform_edt(~m)
    cand, grad, g_new = (np.empty_like(phi) for _ in range(3))
    work = np.empty((_N_WORK,) + v.shape)
    warning, trace = False, []
    try:
        energy = cv_energy(phi, v, cfg, grad, work)
        trace.append(energy)
        for _ in range(cfg.iters):
            # backtracking keeps the trace monotone even for stiff steps
            step = cfg.step
            for _ in range(30):
                np.subtract(phi, np.multiply(step, grad, out=cand), out=cand)
                e_new = cv_energy(cand, v, cfg, g_new, work)
                if e_new <= energy + 1e-12:
                    break
                step *= 0.5
            else:
                break  # no descent possible at any tried step
            diff = np.abs(np.subtract(cand, phi, out=work[0]), out=work[0])
            delta = float(diff.mean())
            phi, cand, grad, g_new, energy = cand, phi, g_new, grad, e_new
            trace.append(energy)
            if delta < cfg.tol:
                break
    except DegenerateRegionError:
        warning = True
    return phi >= 0.0, np.asarray(trace), warning
