"""Adaptive Gauss-Kronrod quadrature with peak-relative tail truncation.

One rule, ``_kronrod``, evaluates the 15-point Kronrod rule (7-point Gauss
embedded) over any number of panels in one integrand call, with
|Kronrod - Gauss| as each panel's error estimate.  The engine evaluates
every panel between the limits and the break points in one call, then
refines in rounds: each round bisects the worst panels whose error
estimates together hold the excess of the total estimate over
max(abs_tol, rel_tol |total|), the global stopping rule of QUADPACK
(Piessens et al., 1983), and evaluates all the new halves in one call.  A
round splits no more panels than the ``max_subdivisions`` budget has left.
A panel at the roundoff floor is never split; when only such panels hold
the excess, refinement stops and the result reports ``converged`` False.

Semi-infinite limits are truncated where the integrand has decayed below a
small fraction of the largest sampled value, and the mass beyond the cut
is folded in through a log-stretched change of variables, so both
exponentially and polynomially decaying tails keep their mass.

Integrands must accept a 1-d numpy array and return an array of the same
shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import FlattopError

__all__ = [
    "QuadratureError",
    "QuadratureSettings",
    "QuadratureResult",
    "DEFAULT_SETTINGS",
    "integrate",
]


class QuadratureError(FlattopError):
    """Raised when subdivision or tail truncation cannot reach the tolerance."""


# The fraction of the integrand's sampled peak below which a semi-infinite
# tail is cut off.
_TAIL_CUTOFF = 1e-12
# A panel whose error estimate is at most this fraction of its value is at
# the roundoff floor: 50 machine epsilons, the floor of QUADPACK's QK rules.
_ROUNDOFF = 50.0 * np.finfo(float).eps


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
    """``converged`` is False when refinement stopped at the roundoff floor
    with the error estimate still above the tolerance."""

    value: float
    error: float
    subdivisions: int
    converged: bool = True


# 15-point Kronrod abscissae on [-1, 1] and the embedded 7-point Gauss rule:
# the qk15 values of QUADPACK (Piessens et al., 1983; Kronrod, Math. Comp.
# 1965), whose abscissa 0.5860... is corrected from its 27th digit on (the
# double is the same).
_XK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_XK = np.concatenate((-_XK_HALF, [0.0], _XK_HALF[::-1]))
_WK = np.concatenate((_WK_HALF, [0.209482141084727828012999174891714], _WK_HALF[::-1]))
# Gauss-7 weights aligned with the odd Kronrod abscissae (indices 1,3,...,13).
_WG_HALF = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_WG = np.concatenate((_WG_HALF, [0.417959183673469387755102040816327], _WG_HALF[::-1]))
_G_IDX = np.arange(1, 15, 2)


def _kronrod_nodes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 15 Kronrod abscissae of every [a_i, b_i], one row per panel, and
    the panels' half-widths."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * _XK, half


def _kronrod(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray,
             b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 15-point Kronrod rule over every [a_i, b_i], in one integrand
    call: the values and their |Kronrod - Gauss| error estimates."""
    x, half = _kronrod_nodes(a, b)
    y = np.asarray(f(x.ravel()), dtype=float)
    if y.shape != (x.size,):
        raise QuadratureError("integrand must return an array matching its input")
    if not np.all(np.isfinite(y)):
        raise QuadratureError(f"integrand returned non-finite values on [{a.min()}, {b.max()}]")
    y = y.reshape(x.shape)
    vk = half * (y * _WK).sum(axis=1)
    return vk, np.abs(vk - half * (y[:, _G_IDX] * _WG).sum(axis=1))


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
        return replace(res, value=-res.value)
    return _integrate(f, a, b, settings, points, True)[0]


def _integrate(f, a: float, b: float, settings: QuadratureSettings, points, map_tails: bool):
    """The adaptive engine of ``integrate`` for a < b.

    Also returns the masses below the first panel and above the last (the
    folded-in tails), the final panels' edges in ascending order and each
    panel's value, so a caller can cumulate them into a table of the
    integral.
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
    edges = np.array([lo, *(h for h in hints if lo < h < hi), hi])
    pa, pb = edges[:-1], edges[1:]
    v, e = _kronrod(f, pa, pb)
    count = pa.size + left.subdivisions + right.subdivisions
    while True:
        total = left.value + right.value + float(v.sum())
        err = left.error + right.error + float(e.sum())
        excess = err - max(settings.abs_tol, settings.rel_tol * abs(total))
        if excess <= 0.0:
            break
        if count >= settings.max_subdivisions:
            raise QuadratureError(
                f"max_subdivisions={settings.max_subdivisions} exhausted "
                f"(error estimate {err:.3e})"
            )
        worst = np.argsort(-e, kind="stable")
        worst = worst[:np.searchsorted(np.cumsum(e[worst]), excess) + 1]
        # Roundoff floor: halving a panel gains nothing once it is this
        # narrow, or once its error is within the rule's own rounding of its
        # value.
        worst = worst[(pb[worst] - pa[worst] >= 1e-15 * (hi - lo))
                      & (e[worst] > _ROUNDOFF * np.abs(v[worst]))]
        if worst.size == 0:
            break
        split = worst[:(settings.max_subdivisions - count + 1) // 2]
        mid = 0.5 * (pa[split] + pb[split])
        na, nb = np.concatenate((pa[split], mid)), np.concatenate((mid, pb[split]))
        pa, pb, v, e = (np.concatenate((np.delete(old, split), new))
                        for old, new in zip((pa, pb, v, e), (na, nb, *_kronrod(f, na, nb))))
        count += na.size
    converged = excess <= 0.0 and left.converged and right.converged
    order = np.argsort(pa)
    return (QuadratureResult(total, err, count, converged), left.value, right.value,
            np.append(pa[order], pb[order[-1]]), v[order])
