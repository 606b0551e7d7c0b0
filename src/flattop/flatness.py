"""Quantitative flatness criteria for unimodal densities.

A density is judged flat-topped through three lenses:

* an averaged criterion over an interval straddling the mode
  (``delta_eps_flat``),
* a curvature criterion |p''(x_m)| |(a-b)/(p'(a)-p'(b))| < eps
  (``eps_flat_measure``), and
* closed-form upper bounds on that curvature measure for the families that
  admit one (``family_flat_bound``).

Boundaries default to the canonical choice a = x_m - P(x_m)/p(x_m),
b = x_m + (1 - P(x_m))/p(x_m), which makes p(x_m) (b - a) = 1; the
full-width-at-half-maximum variant is available explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import FlattopError, specfun, univariate as uv

__all__ = [
    "FlatnessError",
    "FlatnessReport",
    "DeltaFlatResult",
    "canonical_boundaries",
    "fwhm_boundaries",
    "eps_flat_measure",
    "delta_eps_flat",
    "family_flat_bound",
    "bl_flat_bound",
    "FLAT_REGIME_BOUND",
    "gn_flat_interval_ratio",
    "flatness_report",
]


class FlatnessError(FlattopError):
    """Raised on degenerate boundary derivatives."""


@dataclass(frozen=True)
class FlatnessReport:
    """Flatness summary for one spec at chosen boundaries."""

    a: float
    b: float
    epsilon_measure: float
    family_bound: float | None
    delta: float | None
    interval_ratio: float | None
    verdict_at: Mapping[float, bool]


@dataclass(frozen=True)
class DeltaFlatResult:
    delta: float
    measure: float
    satisfied_at: Mapping[float, bool]


def canonical_boundaries(spec: uv.UnivariateSpec) -> tuple[float, float]:
    """Boundaries that balance tail mass against the missing cap mass, so
    p(x_m) (b - a) = 1."""
    xm = uv.mode(spec)
    pm = uv.pdf(spec, xm)
    if not pm > 0:
        raise FlatnessError("density vanishes at its mode")
    cm = uv.cdf(spec, xm)
    return xm - cm / pm, xm + (1.0 - cm) / pm


def fwhm_boundaries(spec: uv.UnivariateSpec) -> tuple[float, float]:
    """Full width at half maximum; closed form for GN, bisection otherwise."""
    if spec.family == "GN":
        half = spec.s * math.log(2.0) ** (1.0 / spec.beta)
        return spec.mu - half, spec.mu + half
    if spec.family == "U":
        return spec.a, spec.b
    xm = uv.mode(spec)
    level = 0.5 * uv.pdf(spec, xm)
    out = []
    for direction in (-1.0, 1.0):
        step = max(uv._scale(spec), 1e-12)
        far = xm + direction * step
        for _ in range(200):
            p_far = uv.pdf(spec, far)
            if p_far < level:
                break
            step *= 2.0
            far = xm + direction * step
        else:
            raise FlatnessError("half maximum not reached")
        # Bisect between ``inner``, where the density is at least half its
        # maximum, and ``far``, where it is below, to xtol.  A steep edge
        # moves the density by more than 1e-10 relative over xtol, so a
        # secant step across the last bracket gives the end.
        inner, p_inner, xtol = xm, 2.0 * level, 1e-12 * max(1.0, abs(far))
        while abs(far - inner) > xtol:
            mid = 0.5 * (inner + far)
            p = uv.pdf(spec, mid)
            if not math.isfinite(p):
                raise FlatnessError(f"half maximum search: density is {p} at x={mid!r}")
            if p >= level:
                inner, p_inner = mid, p
            else:
                far, p_far = mid, p
        out.append(inner + (far - inner) * (p_inner - level) / (p_inner - p_far))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Density derivatives: analytic where a closed form is carried, otherwise
# central differences with step h = cbrt(eps) * scale.
# ---------------------------------------------------------------------------

def _gn_scale_power(spec, k: int) -> float:
    """s^k, which divides the GN derivatives; it underflows to 0 only where
    they overflow."""
    sk = spec.s ** k
    if sk == 0.0:
        raise FlatnessError(f"GN: density derivatives overflow at s={spec.s}")
    return sk


def _d1_gn(spec, x):
    z = (x - spec.mu) / spec.s
    az = abs(z)
    if az == 0.0:
        return 0.0
    b = spec.beta
    return (-math.copysign(1.0, z) * b ** 2 / (2.0 * _gn_scale_power(spec, 2) * math.gamma(1.0 / b))
            * az ** (b - 1.0) * math.exp(-(az ** b)))


def _d2_gn(spec, x):
    z = (x - spec.mu) / spec.s
    az = abs(z)
    b = spec.beta
    if az == 0.0:
        if b == 2.0:
            return -2.0 / (math.sqrt(math.pi) * _gn_scale_power(spec, 3))
        if b > 2.0:
            return 0.0
        return -math.inf
    return (-(b ** 2) * ((b - 1.0) / spec.s - (b / spec.s) * az ** b)
            * az ** (b - 2.0) * math.exp(-(az ** b))
            / (2.0 * _gn_scale_power(spec, 2) * math.gamma(1.0 / b)))


def _d1_al(spec, x):
    # -(1/(2 r s)) sinh(rho) sinh(w) / (cosh(w) + cosh(rho))^2, in log space.
    s, r = spec.s, spec.r
    w = (x - spec.m) / s
    rho = r / s
    if w == 0.0:
        return 0.0
    lcs = float(specfun.log_cosh_sum(w, rho))
    lsh_rho = float(specfun.log_sinh(rho))
    lsh_w = float(specfun.log_sinh(abs(w)))
    return -math.copysign(math.exp(lsh_rho + lsh_w - 2.0 * lcs), w) / (2.0 * r * s)


def _d2_al(spec, x):
    s, r = spec.s, spec.r
    w = (x - spec.m) / s
    rho = r / s
    lcs = float(specfun.log_cosh_sum(w, rho))
    lsh_rho = float(specfun.log_sinh(rho))
    lch_w = float(specfun.log_cosh(w))
    term2 = math.exp(lsh_rho + lch_w - 2.0 * lcs)
    if w == 0.0:
        term1 = 0.0
    else:
        lsh_w = float(specfun.log_sinh(abs(w)))
        term1 = 2.0 * math.exp(lsh_rho + 2.0 * lsh_w - 3.0 * lcs)
    return (term1 - term2) / (2.0 * r * s ** 2)


def _logistic(z):
    return float(specfun.logistic(z))


def _d1_bl(spec, x):
    a, b, s, t = spec.a, spec.b, spec.s, spec.t
    p = float(uv.pdf(spec, x))
    return p * (_logistic((a - x) / s) / s - _logistic((x - b) / t) / t)


def _d2_bl(spec, x):
    a, b, s, t = spec.a, spec.b, spec.s, spec.t
    p = float(uv.pdf(spec, x))
    bracket = _logistic((a - x) / s) / s - _logistic((x - b) / t) / t
    fa = _logistic((x - a) / s) * _logistic((a - x) / s)
    fb = _logistic((x - b) / t) * _logistic((b - x) / t)
    return p * bracket * bracket - p * (fa / s ** 2 + fb / t ** 2)


_ANALYTIC_D1 = {"GN": _d1_gn, "AL": _d1_al, "BL": _d1_bl}
_ANALYTIC_D2 = {"GN": _d2_gn, "AL": _d2_al, "BL": _d2_bl}


def _pdf_d1(spec: uv.UnivariateSpec, x: float) -> float:
    fn = _ANALYTIC_D1.get(spec.family)
    if fn is not None:
        return fn(spec, x)
    h = float(np.cbrt(np.finfo(float).eps)) * max(uv._scale(spec), 1e-12)
    return float(uv.pdf(spec, x + h) - uv.pdf(spec, x - h)) / (2.0 * h)


def _pdf_d2(spec: uv.UnivariateSpec, x: float) -> float:
    fn = _ANALYTIC_D2.get(spec.family)
    if fn is not None:
        return fn(spec, x)
    h = float(np.cbrt(np.finfo(float).eps)) * max(uv._scale(spec), 1e-12)
    return float(uv.pdf(spec, x + h) - 2.0 * uv.pdf(spec, x) + uv.pdf(spec, x - h)) / h ** 2


def eps_flat_measure(
    spec: uv.UnivariateSpec,
    a: float | None = None,
    b: float | None = None,
) -> float:
    """Curvature flatness measure |p''(x_m)| |(a-b)/(p'(a)-p'(b))|.

    With ``a``/``b`` omitted the canonical boundaries are used.
    """
    if a is None or b is None:
        ca, cb = canonical_boundaries(spec)
        a = ca if a is None else a
        b = cb if b is None else b
    xm = uv.mode(spec)
    if not a < xm < b:
        raise ValueError(f"boundaries must straddle the mode: a={a}, x_m={xm}, b={b}")
    slope_gap = _pdf_d1(spec, a) - _pdf_d1(spec, b)
    if slope_gap == 0.0:
        raise FlatnessError("degenerate boundaries: p'(a) = p'(b)")
    curvature = _pdf_d2(spec, xm)
    if math.isinf(curvature):
        return math.inf
    return abs(curvature) * abs((a - b) / slope_gap)


def delta_eps_flat(
    spec: uv.UnivariateSpec,
    x1: float,
    x2: float,
    mode: str = "integral",
    epsilons: Iterable[float] = (),
) -> DeltaFlatResult:
    """Averaged flatness over [x1, x2].

    ``integral`` mode measures 1 - (mass on [x1, x2]) / (p(x_m) (x2 - x1));
    ``concave`` mode measures 1 - (p(x1) + p(x2)) / (2 p(x_m)).  Every
    threshold must lie in (0, 1).
    """
    eps_list = _thresholds(epsilons)
    xm = uv.mode(spec)
    if not x1 < xm < x2:
        raise ValueError(f"x1 < mode < x2 required: x1={x1}, x_m={xm}, x2={x2}")
    pm = float(uv.pdf(spec, xm))
    if mode == "integral":
        mass = float(uv.cdf(spec, x2) - uv.cdf(spec, x1))
        measure = 1.0 - mass / (pm * (x2 - x1))
    elif mode == "concave":
        measure = 1.0 - (float(uv.pdf(spec, x1)) + float(uv.pdf(spec, x2))) / (2.0 * pm)
    else:
        raise ValueError(f"mode must be 'integral' or 'concave', got {mode!r}")
    measure = max(measure, 0.0)
    return DeltaFlatResult(
        delta=x2 - x1,
        measure=measure,
        satisfied_at={e: measure < e for e in eps_list},
    )


def family_flat_bound(spec: uv.UnivariateSpec) -> float | None:
    """Closed-form upper bound on the curvature measure at the family's own
    boundary parameters; None where no bound is carried."""
    f = spec.family
    if f == "AL":
        rho = spec.r / spec.s
        return float(4.0 * rho / np.sinh(min(rho, 700.0))) if rho < 700.0 else 0.0
    if f == "BL":
        return bl_flat_bound(spec.a, spec.b, spec.s, spec.t)
    if f == "AN":
        k = (spec.b - spec.a) / (2.0 * spec.s)
        return 2.0 * k ** 2 / math.expm1(0.5 * k ** 2) if 0.5 * k * k < 700.0 else 0.0
    if f == "CE":
        k = ((spec.b - spec.a) / (2.0 * spec.s)) ** 2
        return float(specfun.sech2(k))
    if f == "CF" and spec.beta == 1.0:
        return math.exp(-spec.r / (2.0 * spec.s))
    return None


# Below this closed-form curvature bound a component is flat-topped enough
# for the BL flat-regime gradients, and GEM may upgrade an AL component to
# BL (``mixture.MixtureSettings.bl_upgrade``).
FLAT_REGIME_BOUND = 0.05


def bl_flat_bound(a: float, b: float, s: float, t: float) -> float:
    """The BL curvature bound of ``family_flat_bound`` from the parameters
    alone; needs no normalizer."""
    w = b - a
    val = 6.0 * (w / s * float(specfun.coth(w / (2.0 * s)))
                 + w / t * float(specfun.coth(w / (2.0 * t))))
    return val * math.exp(-w / (s + t))


def gn_flat_interval_ratio(beta: float, eps: float) -> float:
    """Width of the near-flat central interval relative to the FWHM interval
    for the generalized normal: |log2(1 - eps)|^(1/beta)."""
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    (eps,) = _thresholds((eps,))
    return abs(math.log2(1.0 - eps)) ** (1.0 / beta)


def _thresholds(epsilons: Iterable[float]) -> list[float]:
    """The flatness thresholds as floats; each must lie in (0, 1)."""
    out = [float(e) for e in epsilons]
    for eps in out:
        if not 0.0 < eps < 1.0:  # NaN fails too
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return out


def flatness_report(
    spec: uv.UnivariateSpec,
    epsilons: Iterable[float] = (0.1, 0.05, 0.01),
    boundaries: str | tuple[float, float] = "canonical",
) -> FlatnessReport:
    """Assemble the full flatness summary used by the CLI.  Every threshold
    must lie in (0, 1)."""
    eps_list = _thresholds(epsilons)
    if boundaries == "canonical":
        a, b = canonical_boundaries(spec)
    elif boundaries == "fwhm":
        a, b = fwhm_boundaries(spec)
    else:
        a, b = boundaries
    measure = eps_flat_measure(spec, a, b)
    ratio = None
    if spec.family == "GN" and eps_list:
        ratio = gn_flat_interval_ratio(spec.beta, eps_list[0])
    return FlatnessReport(
        a=a,
        b=b,
        epsilon_measure=measure,
        family_bound=family_flat_bound(spec),
        delta=b - a,
        interval_ratio=ratio,
        verdict_at={e: measure < e for e in eps_list},
    )
