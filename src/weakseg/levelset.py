"""Classic Chan-Vese two-phase segmentation by gradient descent on the
discretized energy

    mu * Length + nu * Area + l1 * sum (v - c1)^2 H(phi)
                            + l2 * sum (v - c2)^2 (1 - H(phi))

with a smoothed (arctan) Heaviside. The region data term (the last two
terms) is ``losses.data_term``, which the RLS training loss shares. The
length term uses central differences of H(phi) with periodic wrap.
``cv_energy`` returns the energy and, on request, its exact gradient from
one pass over reusable scratch arrays; the solver evaluates each
backtracking line-search candidate once, with its gradient, and the energy
trace is non-increasing. The solver's output is the mask {phi >= 0}, so the
mask decides when it stops: after ``SETTLE`` consecutive accepted
iterations in which no pixel changed sign (phi away from the contour keeps
drifting long after the mask is fixed), or at the ``iters`` cap. A window
of 20 stops the acceptance suite's noisy disk on the mask of a run to the
cap, where 10 leaves it 4 pixels short.

``smooth_heaviside``, ``smooth_delta`` and ``cv_energy`` compute in the float
dtype of their inputs (other inputs become float64), so float64 callers such
as the RLS cross-check keep float64 arithmetic. ``cv_evolve`` holds the
image, phi, its gradients and its scratch in float32: an energy evaluation
is some 40 memory-bound passes over the grid, and on synthetic lesions the
float32 masks equal float64 ones but for rare single pixels. Its trace
energies are sums of float32 terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt

from .losses import DegenerateRegionError, data_term

_LEN_ETA = 1e-12  # smoothing inside the gradient-magnitude square root
_N_WORK = 6  # scratch arrays of the image's shape per energy evaluation
# nominal descent step; backtracking halves it whenever it would not
# decrease the energy, so a generous value converges fastest
STEP = 20.0
# stop once the mask has not changed for this many accepted iterations
SETTLE = 20


@dataclass(frozen=True)
class CvConfig:
    mu: float = 0.1
    nu: float = 0.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    eps: float = 1.0
    iters: int = 500

    def __post_init__(self):
        for name, value in (("mu", self.mu), ("nu", self.nu)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be non-negative and finite, got {value}")
        for name in ("lambda1", "lambda2", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")


def _as_float(a):
    """``a`` as an array of its own float dtype, or float64 if not float."""
    a = np.asarray(a)
    return a if a.dtype.kind == "f" else a.astype(np.float64)


def smooth_heaviside(z, eps: float = 1.0, out=None):
    """Smoothed step H_eps(z) = 0.5 * (1 + (2/pi) * atan(z / eps))."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = np.divide(_as_float(z), eps, out=out)
    t = np.multiply(2.0 / np.pi, np.arctan(t, out=out), out=out)
    return np.multiply(0.5, np.add(1.0, t, out=out), out=out)


def smooth_delta(z, eps: float = 1.0, out=None):
    """Derivative of smooth_heaviside: (1/pi) * eps / (eps^2 + z^2)."""
    z = _as_float(z)
    t = np.add(eps * eps, np.multiply(z, z, out=out), out=out)
    return np.divide(eps / np.pi, t, out=out)


def _central_diff(out, a, axis, sign):
    """out = sign * (roll(a, -1) - roll(a, 1)) along axis 0 or 1 of
    C-contiguous 2-D arrays, by slicing: one subtraction for the interior
    (along axis 1 over the flattened arrays, whose row seams the wrap
    columns then overwrite) and one for each wrap row or column. A negative
    sign swaps the operands rather than negating, so an exact zero is +0."""
    def sub(x, y, dst):
        np.subtract(*((x, y) if sign > 0 else (y, x)), out=dst)

    n = a.shape[axis]  # indices mod n: a side of 1 or 2 wraps onto itself
    if axis == 0:
        sub(a[2:], a[:-2], out[1:-1])
        sub(a[1 % n], a[-1], out[0])
        sub(a[0], a[-2 % n], out[-1])
    else:
        sub(a.ravel()[2:], a.ravel()[:-2], out.ravel()[1:-1])
        sub(a[:, 1 % n], a[:, -1], out[:, 0])
        sub(a[:, 0], a[:, -2 % n], out[:, -1])
    return out


def cv_energy(phi, img, cfg: CvConfig, grad=None, work=None) -> float:
    """Evaluate the Chan-Vese energy of a level set field. When ``grad`` (an
    array of phi's shape) is given, dE/dphi is written into it. ``work`` is an
    optional (_N_WORK, *img.shape) scratch array for every intermediate;
    without it a fresh one of phi's and img's common float dtype is
    allocated."""
    phi, v = _as_float(phi), _as_float(img)
    if phi.shape != v.shape:
        raise ValueError("level set and image shapes must match")
    if work is None:
        work = np.empty((_N_WORK,) + v.shape, dtype=np.result_type(phi, v))
    h, g, r1, r2, t1, t2 = work
    smooth_heaviside(phi, cfg.eps, out=h)
    energy = data_term(h, v, cfg.lambda1, cfg.lambda2, grad, work[1:5])
    if cfg.nu != 0.0:
        energy += cfg.nu * float(h.sum())
        if grad is not None:
            np.add(grad, cfg.nu, out=grad)
    if cfg.mu != 0.0:
        # the differences are left undivided by 2, so they, |grad H| and the
        # length gradient all come out doubled, exactly (powers of two scale
        # without rounding); mu / 2 and 4 * eta undo that
        mu = 0.5 * cfg.mu
        gx = _central_diff(t1, h, 1, 1)
        gy = _central_diff(r2, h, 0, 1)
        n = np.add(np.multiply(gx, gx, out=r1), np.multiply(gy, gy, out=t2), out=r1)
        np.sqrt(np.add(n, 4.0 * _LEN_ETA, out=n), out=n)
        energy += mu * float(n.sum())
        if grad is not None:
            # length gradient with respect to h, into g
            _central_diff(g, np.divide(gx, n, out=gx), 1, -1)
            np.add(g, _central_diff(h, np.divide(gy, n, out=gy), 0, -1), out=g)
            np.add(grad, np.multiply(mu, g, out=g), out=grad)
    if grad is not None:
        np.multiply(grad, smooth_delta(phi, cfg.eps, out=t1), out=grad)
    return energy


def cv_evolve(img: np.ndarray, init: np.ndarray, cfg: CvConfig = CvConfig()):
    """Evolve a level set from a binary initialization.

    Returns (mask, trace, warning) where mask = {phi >= 0}, trace is the
    energy before the first and after each accepted iteration
    (non-increasing within 1e-6 per step), and warning is set when the means
    degenerate mid-run and the evolution stops early. The evolution also
    stops after ``SETTLE`` consecutive accepted iterations that leave the
    mask unchanged, when no tried step decreases the energy, or after
    ``cfg.iters`` iterations.
    """
    v = np.asarray(img, dtype=np.float32)  # the working precision
    m = np.asarray(init, dtype=bool)
    if m.shape != v.shape:
        raise ValueError("init mask and image shapes must match")
    if not m.any() or m.all():
        raise ValueError("init mask must be nonempty and not cover the grid")
    # signed distance to the mask boundary: away from it H(phi) saturates, so
    # the region means separate immediately (a +-1 init leaves them nearly
    # equal under the smoothed Heaviside and the descent stalls)
    phi = distance_transform_edt(m) - distance_transform_edt(~m)
    phi = phi.astype(v.dtype)
    cand, grad, g_new = (np.empty_like(phi) for _ in range(3))
    work = np.empty((_N_WORK,) + v.shape, dtype=v.dtype)
    inside, spare = np.greater_equal(phi, 0.0), np.empty(v.shape, dtype=bool)
    warning, trace, settled = False, [], 0
    try:
        energy = cv_energy(phi, v, cfg, grad, work)
        trace.append(energy)
        for _ in range(cfg.iters):
            # backtracking keeps the trace monotone even for stiff steps
            step = STEP
            for _ in range(30):
                np.subtract(phi, np.multiply(step, grad, out=cand), out=cand)
                e_new = cv_energy(cand, v, cfg, g_new, work)
                if e_new <= energy + 1e-12:
                    break
                step *= 0.5
            else:
                break  # no descent possible at any tried step
            np.greater_equal(cand, 0.0, out=spare)
            moved = np.not_equal(spare, inside, out=inside).any()
            settled = 0 if moved else settled + 1
            inside, spare = spare, inside
            phi, cand, grad, g_new, energy = cand, phi, g_new, grad, e_new
            trace.append(energy)
            if settled >= SETTLE:
                break
    except DegenerateRegionError:
        warning = True
    return phi >= 0.0, np.asarray(trace), warning
