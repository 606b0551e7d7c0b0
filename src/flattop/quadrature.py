"""Adaptive Gauss-Kronrod quadrature with peak-relative tail truncation.

The engine evaluates a fixed 15-point Kronrod rule (7-point Gauss embedded)
per panel and bisects the panel with the largest error estimate until the
total estimate meets the requested tolerance.  Semi-infinite limits are
truncated where the integrand has decayed below a small fraction of the
largest sampled value, so exponentially and polynomially decaying tails are
both handled without a change of variables.

Integrands must accept a 1-d numpy array and return an array of the same
shape.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureSettings",
    "QuadratureResult",
    "DEFAULT_SETTINGS",
    "integrate",
]


class QuadratureError(RuntimeError):
    """Raised when subdivision or tail truncation cannot reach the tolerance."""


# The fraction of the integrand's sampled peak below which a semi-infinite
# tail is cut off.
_TAIL_CUTOFF = 1e-12


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and budgets for the adaptive engine."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


DEFAULT_SETTINGS = QuadratureSettings()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    subdivisions: int


# 15-point Kronrod abscissae on [-1, 1] and the embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 weights aligned with the odd Kronrod abscissae (indices 1,3,...,13).
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_G_IDX = np.arange(1, 15, 2)


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float, float]:
    """Evaluate one Kronrod panel; return (value, error_estimate, peak)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _XK
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise QuadratureError("integrand must return an array matching its input")
    if not np.all(np.isfinite(y)):
        raise QuadratureError(f"integrand returned non-finite values on [{a}, {b}]")
    vk = half * float(np.dot(_WK, y))
    vg = half * float(np.dot(_WG, y[_G_IDX]))
    return vk, abs(vk - vg), float(np.max(np.abs(y)))


def _kronrod(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 15-point Kronrod rule over every [a_i, b_i], in one integrand call."""
    y = np.asarray(f((0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _XK), dtype=float)
    return 0.5 * (b - a) * (y * _WK).sum(axis=1)


def _find_cutoff(
    f: Callable[[np.ndarray], np.ndarray],
    anchor: float,
    direction: float,
    peak: float,
) -> tuple[float, float]:
    """Walk geometrically from ``anchor`` until the integrand is negligible.

    Returns the cutoff abscissa and the updated peak.  Two consecutive
    probes below ``_TAIL_CUTOFF * peak`` are required, which guards against
    cutting inside a local dip.  Raises QuadratureError once the walk passes
    |x| = 1e300.
    """
    step = 1.0 + 0.01 * abs(anchor)
    below = 0
    t = anchor
    while True:
        t = t + direction * step
        if abs(t) > 1e300:
            raise QuadratureError("tail truncation failed: integrand does not decay")
        val = float(np.abs(f(np.array([t])))[0])
        peak = max(peak, val)
        if val < _TAIL_CUTOFF * max(peak, np.finfo(float).tiny):
            below += 1
            if below >= 2:
                return t, peak
        else:
            below = 0
        step *= 2.0


def _mapped_tail(
    f: Callable[[np.ndarray], np.ndarray],
    cut: float,
    direction: float,
    settings: QuadratureSettings,
) -> QuadratureResult:
    """Integral of ``f`` beyond ``cut`` via the log stretch
    x = cut +/- w (e^y - 1), y in [0, inf).

    Any integrable power tail becomes exponentially decaying in y, so the
    stretched integral can be truncated safely.  Captures the residual mass
    that plain truncation would drop.
    """
    w = 1.0 + 0.01 * abs(cut)

    def g(y: np.ndarray) -> np.ndarray:
        # Mass beyond |x| ~ e^600 is unresolvable in doubles; cap the stretch.
        ey = np.exp(np.minimum(y, 600.0))
        x = cut + direction * w * (ey - 1.0)
        return np.asarray(f(x), dtype=float) * (w * ey)

    tail_settings = replace(settings, max_subdivisions=max(50, settings.max_subdivisions // 10))
    return _integrate(g, 0.0, math.inf, tail_settings, (), False)[0]


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    settings: QuadratureSettings | None = None,
    *,
    points: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate ``f`` over ``[a, b]``; either limit may be infinite.

    ``points`` are optional interior break points (modes, kinks) used as
    initial panel boundaries, mirroring the hint mechanism of classic
    adaptive integrators.  Infinite limits are truncated where the integrand
    falls below ``_TAIL_CUTOFF`` times its sampled peak and the remainder is
    folded in through a log-stretched change of variables, so polynomially
    decaying tails keep their mass.
    """
    settings = settings or DEFAULT_SETTINGS
    if math.isnan(a) or math.isnan(b):
        raise ValueError("integration limits must not be NaN")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    if a > b:
        res = integrate(f, b, a, settings, points=points)
        return QuadratureResult(-res.value, res.error, res.subdivisions)
    return _integrate(f, a, b, settings, points, True)[0]


def _integrate(f, a: float, b: float, settings: QuadratureSettings, points, map_tails: bool):
    """The adaptive engine of ``integrate`` for a < b.

    Also returns the masses below the first panel and above the last (the
    folded-in tails) and the final panels as ascending (left, right, value)
    triples, so a caller can cumulate them into a table of the integral.
    """
    hints = sorted(p for p in points if a < p < b and math.isfinite(p))

    lo, hi = a, b
    left = right = QuadratureResult(0.0, 0.0, 0)
    if lo == -math.inf or hi == math.inf:
        # Coarse peak estimate from interior structure, for the tail cutoff.
        probe_centers = hints or [0.0 if lo == -math.inf and hi == math.inf
                                  else (lo if math.isfinite(lo) else hi)]
        probes = []
        for c in probe_centers:
            scale = 1.0 + 0.01 * abs(c)
            probes.extend([c - scale, c, c + scale])
        probes = np.array(sorted({p for p in probes if a < p < b and math.isfinite(p)}))
        peak = float(np.max(np.abs(f(probes)))) if probes.size else 0.0

        if lo == -math.inf:
            anchor = min(probe_centers)
            lo, peak = _find_cutoff(f, anchor, -1.0, peak)
            if map_tails:
                left = _mapped_tail(f, lo, -1.0, settings)
        if hi == math.inf:
            anchor = max(probe_centers)
            hi, peak = _find_cutoff(f, anchor, 1.0, peak)
            if map_tails:
                right = _mapped_tail(f, hi, 1.0, settings)
    tail_value, tail_error = left.value + right.value, left.error + right.error
    tail_count = left.subdivisions + right.subdivisions
    if lo >= hi:
        return QuadratureResult(tail_value, tail_error, tail_count), left.value, right.value, []

    edges = [lo] + [h for h in hints if lo < h < hi] + [hi]
    heap: list[tuple[float, int, float, float, float]] = []
    total = 0.0
    err = 0.0
    count = 0
    for pa, pb in zip(edges[:-1], edges[1:]):
        v, e, _ = _panel(f, pa, pb)
        heapq.heappush(heap, (-e, count, pa, pb, v))
        total += v
        err += e
        count += 1

    total += tail_value
    err += tail_error
    count += tail_count
    span = hi - lo
    while err > max(settings.abs_tol, settings.rel_tol * abs(total)):
        if count >= settings.max_subdivisions:
            raise QuadratureError(
                f"max_subdivisions={settings.max_subdivisions} exhausted "
                f"(error estimate {err:.3e})"
            )
        neg_e, _, pa, pb, v = heapq.heappop(heap)
        if -neg_e <= 0.0 or (pb - pa) < 1e-15 * span:
            # Roundoff floor reached on the worst panel; nothing to gain.
            heapq.heappush(heap, (neg_e, count, pa, pb, v))
            break
        mid = 0.5 * (pa + pb)
        v1, e1, _ = _panel(f, pa, mid)
        v2, e2, _ = _panel(f, mid, pb)
        total += v1 + v2 - v
        err += e1 + e2 - (-neg_e)
        heapq.heappush(heap, (-e1, count, pa, mid, v1))
        count += 1
        heapq.heappush(heap, (-e2, count, mid, pb, v2))
        count += 1

    panels = sorted((pa, pb, v) for _, _, pa, pb, v in heap)
    return QuadratureResult(total, err, count), left.value, right.value, panels
