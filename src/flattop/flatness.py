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

The curvature measure takes p' and p'' from the log-density l = ln p by one
rule, p' = p l' and p'' = p (l'^2 + l''), with a per-family (l', l'') hook
for GN, AL, BL, AN, CE, CH and CF at beta = 2.  ALS, BD, CC, CF at beta != 2,
DE and U have no hook and use central differences.
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
    """Full width at half maximum: the outermost doubles on either side of
    the mode where the density is at least half its maximum, by bisection."""
    xm = uv.mode(spec)
    level = 0.5 * uv.pdf(spec, xm)
    out = []
    for direction in (-1.0, 1.0):
        step = max(uv._scale(spec), 1e-12)
        far = xm + direction * step
        for _ in range(200):
            if uv.pdf(spec, far) < level:
                break
            step *= 2.0
            far = xm + direction * step
        else:
            raise FlatnessError("half maximum not reached")
        # Bisect between ``inner``, where the density is at least half its
        # maximum, and ``far``, where it is below, until they are adjacent
        # doubles.
        inner, mid = xm, 0.5 * (xm + far)
        while mid != inner and mid != far:
            p = uv.pdf(spec, mid)
            if not math.isfinite(p):
                raise FlatnessError(f"half maximum search: density is {p} at x={mid!r}")
            inner, far = (mid, far) if p >= level else (inner, mid)
            mid = 0.5 * (inner + far)
        out.append(inner)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Density derivatives.  With l = ln p, p' = p l' and p'' = p (l'^2 + l''):
# one rule for GN, AL, BL, AN, CE, CH and CF at beta = 2, each of which has
# an (l', l'') hook built from its log-density's own terms.  A hook returns
# None where it declines (CF at beta != 2, AN where its density underflows,
# CH at its mode below beta = 1); there, and for ALS, BD, CC, DE and U,
# central differences with step
# h = cbrt(eps) * scale give p' and p''.
# ---------------------------------------------------------------------------

def _dlog_gn(spec, x):
    """l = ln c - |z|^beta at z = (x - mu)/s.  At z = 0, l'' is its limit:
    -inf below beta = 2, and -2/s^2 at beta = 2 as 0.0 ** 0.0 is 1."""
    s, b, az = spec.s, spec.beta, abs(x - spec.mu) / spec.s
    if az == 0.0 and b < 2.0:
        return 0.0, -math.inf
    return (-math.copysign(b * az ** (b - 1.0), x - spec.mu) / s,
            -b * (b - 1.0) * az ** (b - 2.0) / s / s)


def _dlog_al(spec, x):
    """l = const - ln cosh z1 - ln cosh z2 at z1, z2 = (x - a, x - b)/(2 s),
    as cosh(w) + cosh(rho) = 2 cosh(z1) cosh(z2), the edges of the MLE kernel."""
    k = 2.0 * spec.s
    z1, z2 = (x - spec.a) / k, (x - spec.b) / k
    return (-(math.tanh(z1) + math.tanh(z2)) / k,
            -float(specfun.sech2(z1) + specfun.sech2(z2)) / k / k)


def _dlog_bl(spec, x):
    """l = ln c - softplus(ua) - softplus(ub) at ua, ub = (a - x)/s, (x - b)/t."""
    s, t = spec.s, spec.t
    ua, ub = (spec.a - x) / s, (x - spec.b) / t
    la, lb, ka, kb = specfun.logistic([ua, ub, -ua, -ub]).tolist()
    return la / s - lb / t, -(la * ka / s) / s - (lb * kb / t) / t


def _dlog_an(spec, x):
    """l = ln c + ln D, D = erfc(u - rho) - erfc(u + rho) at u = |x - m|/k,
    rho = r/k, k = sqrt(2) s; the erfc form keeps D's relative accuracy past
    the edges.  Declines where D underflows."""
    k = math.sqrt(2.0) * spec.s
    u, rho = abs(x - spec.m) / k, spec.r / k
    zn, zf = u - rho, u + rho
    d = math.erfc(zn) - math.erfc(zf)
    if d == 0.0:
        return None
    en, ef = math.exp(-zn * zn), math.exp(-zf * zf)
    g1 = (ef - en) / d / (0.5 * math.sqrt(math.pi))  # d l/du
    g2 = (zn * en - zf * ef) / d / (0.25 * math.sqrt(math.pi)) - g1 * g1
    return math.copysign(1.0, x - spec.m) * g1 / k, g2 / k / k


def _dlog_ce(spec, x):
    """l = ln c - softplus(w), w = ((x - m)^2 - r^2)/s^2: CE, and CF at beta = 2."""
    s, d = spec.s, x - spec.m
    w = ((d - spec.r) / s) * ((d + spec.r) / s)
    dw = 2.0 * (d / s) / s
    g, h = specfun.logistic([w, -w]).tolist()
    return -g * dw, -g * h * dw * dw - 2.0 * g / s / s


def _dlog_ch(spec, x):
    """l = ln c + L(w), L = ``specfun.log_sinh_ratio(w, h)`` at w = u^beta,
    u = |x - m|/s and h = (r/s)^beta, so that L' = -sinh w / (cosh w +
    cosh h) and L'' = -(1 + cosh w cosh h) / (cosh w + cosh h)^2, both in
    exp-shifted form (every exponent <= 0).  With g = |w'| = beta u^(beta-1)/s,
    l' = L' w' and l'' = L'' w'^2 + L' w'' = g^2 (L'' + (beta - 1)/beta L'/w),
    where L'/w -> -2 e^-M / D stays finite as w -> 0.  At x = m the limits
    are l' = 0 and l'' = L''(0)/s^2 at beta = 1, 0 above; below beta = 1
    l'' is not finite there, and the hook declines."""
    b, u = spec.beta, abs(x - spec.m) / spec.s
    if u == 0.0 and b < 1.0:
        return None
    try:
        w, g = u ** b, b * u ** (b - 1.0) / spec.s
    except OverflowError:  # far in the tail, or within a few subnormals of m
        return None
    h = (spec.r / spec.s) ** b
    top = max(w, h)
    ew, emw, eh, emh = (math.exp(v - top) for v in (w, -w, h, -h))
    d = ew + emw + eh + emh  # 2 (cosh w + cosh h) e^-top, >= 1
    lw = -(-math.expm1(-2.0 * w) / w if w > 0.0 else 2.0) * ew / d  # L'/w
    l2 = -(4.0 * math.exp(-2.0 * top) + (ew + emw) * (eh + emh)) / d / d
    return lw * w * math.copysign(g, x - spec.m), g * g * (l2 + (b - 1.0) / b * lw)


_DLOG = {"GN": _dlog_gn, "AL": _dlog_al, "BL": _dlog_bl, "AN": _dlog_an, "CE": _dlog_ce,
         "CF": lambda spec, x: _dlog_ce(spec, x) if spec.beta == 2.0 else None,
         "CH": _dlog_ch}


def _pdf_derivs(spec: uv.UnivariateSpec, x: float) -> tuple[float, float]:
    """(p'(x), p''(x)): p (l', l'^2 + l'') from the family's hook, else
    central differences."""
    hook = _DLOG.get(spec.family)
    dlog = None if hook is None else hook(spec, x)
    if dlog is None:
        h = float(np.cbrt(np.finfo(float).eps)) * max(uv._scale(spec), 1e-12)
        lo, mid, hi = (uv.pdf(spec, v) for v in (x - h, x, x + h))
        return (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / h ** 2
    p, (l1, l2) = uv.pdf(spec, x), dlog
    return p * l1, p * (l1 * l1 + l2)


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
    slope_gap = _pdf_derivs(spec, a)[0] - _pdf_derivs(spec, b)[0]
    curvature = _pdf_derivs(spec, xm)[1]
    # A finite density has finite slopes: an infinite one, or a nan, is
    # overflow, as where s is so small that p' ~ 1/s^2 exceeds a double.
    if not math.isfinite(slope_gap) or math.isnan(curvature):
        raise FlatnessError(f"{spec.family}: density derivatives overflow at s={spec.s}")
    if slope_gap == 0.0:
        raise FlatnessError("degenerate boundaries: p'(a) = p'(b)")
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
    boundary parameters; None where no bound is carried.  For CE the bound
    sech^2(k/2), k = ((b - a)/(2 s))^2, is the measure at (a, b) exactly:
    there l''(m) = -2 logistic(-k)/s^2 and p'(a) = -p'(b) = c r/(2 s^2)."""
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
        return float(specfun.sech2(0.5 * k))
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
