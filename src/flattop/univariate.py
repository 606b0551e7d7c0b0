"""Univariate distribution families ranging from bell-shaped to rectangular.

Twelve families share one tagged spec type:

====== ============================== ===========================
tag    parameters                     shape
====== ============================== ===========================
U      a, b                           rectangle on [a, b]
GN     mu, s, beta                    generalized normal
AN     a, b, s                        normal CDF difference
AL     a, b, s                        logistic CDF difference
ALS    a, b, s, lam                   skewed logistic difference
BL     a, b, s, t                     logistic sigmoid product
BD     a, b, s, t                     Laplace sigmoid product
CC     m, s, beta                     generalized Cauchy
CF     m, r, s, beta                  Fermi-function family
CE     a, b, s                        Ferreri (CF at beta = 2)
CH     m, r, s, beta                  cosh-ratio family
DE     m, s                           flattened peak, x^-2 tails
====== ============================== ===========================

Each tag has one ``_Family`` record in ``_FAMILY``: its parameters and any
validation beyond the shared rules of ``make``, its normalizer and
log-density, whether it is symmetric about its center, and optional
closed-form hooks for the cdf, quantile, central moments and kurtosis.  A
density has one implementation, its log-density: ``pdf`` is exp(log_pdf)
for every family.  Each public function looks the record up once.  Where a
hook is missing, or declines the spec's parameters (CF and CH have a closed
cdf and quantile only at beta = 1), the one numeric default runs: the mode
of an asymmetric family is the root of its log-density slope, by
bisection; central moments are integrated and the kurtosis is their ratio.
The numeric cdf and quantile share one table per spec (``_table``,
cached): the panels that adaptive quadrature settles on for the density
over the real line, started at the mode, at a and b and at the family's
``breaks`` (the shoulders of BL, BD and ALS, the steep CF and CH edges),
with the cdf at every panel edge.  A point's cdf is the value at its
panel's left edge plus one 15-point Kronrod rule up to the point, so it
depends on that point alone; a point beyond the table integrates its own
tail.  A quantile starts in the panel whose cdf values bracket v and takes
safeguarded Newton steps on the family's own cdf, which for AN and DE is
their closed form (the PINV table of Derflinger, Hoermann and Leydold, ACM
TOMACS 20(4), 2010, with Newton steps in place of its interpolating
polynomial).  The table's edges are also the break points of every other
integral over a density: the integrated central moments here, and the KL
and L1 quadratures of ``divergence``, which start from the edges of both
specs' tables.  CF, CH and CE share one Fermi-Dirac mass (``_fd_mass``).
The AL and CH log-densities share one shape factor, ``specfun.log_sinh_ratio``.

Construction validates parameters and caches the normalizing constant,
which must come out positive and finite; all evaluation functions are pure,
vectorized over ``x``, and exp-shifted where tails would overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Mapping

import numpy as np

from . import FlattopError, specfun
from .quadrature import QuadratureError, QuadratureSettings, _integrate, _kronrod, integrate

__all__ = [
    "FAMILIES",
    "ConvergenceError",
    "UnivariateSpec",
    "MomentReport",
    "make",
    "pdf",
    "log_pdf",
    "cdf",
    "quantile",
    "sample",
    "central_moment",
    "kurtosis",
    "mode",
    "moment_integrand",
    "support",
    "bl_flat_normalizer",
    "approx_al_from_normal",
    "approx_al_from_an",
    "approx_bd_from_bl",
    "to_json_dict",
    "from_json_dict",
    "AL_OF_NORMAL_R",
    "AL_OF_NORMAL_S",
    "AN_TO_AL_SCALE",
]


class ConvergenceError(FlattopError):
    """Raised when an iterative solver exhausts its budget."""


# Approximation constants: the AL surrogate of a standard normal and the
# logistic scale matching the normal CDF within 0.01 everywhere.
AL_OF_NORMAL_R = math.sqrt(math.log(4.0)) - 0.2
AL_OF_NORMAL_S = AL_OF_NORMAL_R / math.pi + 0.166
AN_TO_AL_SCALE = 0.5877

_NORM_SETTINGS = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=4000)
# With abs_tol at 1e-300, rel_tol alone stops a quadrature: a tail that a
# point beyond a table's cut integrates on its own keeps its relative
# accuracy, so the cdf there stays monotone.  The table's panels stop on
# errors summed against the whole mass, which bounds the error of its
# left-tail cdf values only absolutely, by about rel_tol, not relative to
# their own size.
_CDF_SETTINGS = replace(_NORM_SETTINGS, abs_tol=1e-300)
_NEWTON_STEPS = 50  # per numeric quantile


@dataclass(frozen=True)
class UnivariateSpec:
    """Validated parameter set of one family, plus cached derived values.

    Unused parameter slots stay ``None``.  ``m`` and ``r`` are the midpoint
    and half-width for families parameterized by boundaries; ``c`` is the
    normalizing prefactor used by the pdf.
    """

    family: str
    a: float | None = None
    b: float | None = None
    s: float | None = None
    t: float | None = None
    mu: float | None = None
    beta: float | None = None
    m: float | None = None
    r: float | None = None
    lam: float | None = None
    c: float | None = None

    def params(self) -> dict[str, float]:
        """The family's declared parameters, in declaration order."""
        return {name: getattr(self, name) for name in _FAMILY[self.family].fields}


@dataclass(frozen=True)
class MomentReport:
    """Central moment of even order; ``flag`` marks divergent cases."""

    order: int
    value: float | None
    flag: str | None
    method: str


@dataclass(frozen=True)
class _Family:
    """What one family tag knows in closed form (see the module docstring).

    ``log_pdf`` is the family's only density: there is no pdf hook, and
    ``pdf`` exponentiates it.  A symmetric family has its mode at the spec
    attribute named by ``center``; a bounded one is supported on [a, b].  A
    hook returns None where its closed form does not cover the spec's
    parameters; a moment hook returns inf for a divergent moment.  ``check``
    sees the parameters after ``make`` has derived m and r.  ``breaks`` gives
    the numeric cdf table break points beyond the mode, a and b.  ``slope``
    has the sign of d ln p/dx, which an asymmetric family's numeric mode is
    the root of.
    """

    fields: tuple[str, ...]
    normalizer: Callable[[UnivariateSpec], float]
    log_pdf: Callable[[UnivariateSpec, np.ndarray], np.ndarray]
    symmetric: bool = True
    center: str = "m"
    check: Callable[[dict[str, float]], None] | None = None
    cdf: Callable | None = None
    quantile: Callable | None = None
    central_moment: Callable | None = None
    kurtosis: Callable | None = None
    mode: Callable | None = None
    bounded: bool = False
    breaks: Callable | None = None
    slope: Callable | None = None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def make(family: str, params: Mapping[str, float]) -> UnivariateSpec:
    """Validate ``params`` for ``family`` and build a spec.

    Rejects unknown or missing keys and any violated invariant by name.
    Normalizing constants are computed here: closed forms where available,
    quadrature for BL.
    """
    rec = _FAMILY.get(family)
    if rec is None:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    unknown = set(params) - set(rec.fields)
    if unknown:
        raise ValueError(f"unknown parameter(s) for {family}: {sorted(unknown)}")
    missing = set(rec.fields) - set(params)
    if missing:
        raise ValueError(f"missing parameter(s) for {family}: {sorted(missing)}")
    vals = {k: float(params[k]) for k in rec.fields}
    for k, v in vals.items():
        _require(math.isfinite(v), f"{family}: parameter {k} must be finite, got {v}")

    if "a" in vals:
        _require(vals["a"] < vals["b"], f"{family}: requires a < b, got a={vals['a']}, b={vals['b']}")
    for scale_name in ("s", "t", "r"):
        if scale_name in vals:
            _require(vals[scale_name] > 0, f"{family}: requires {scale_name} > 0, got {vals[scale_name]}")
    if "beta" in vals:
        _require(vals["beta"] > 0, f"{family}: requires beta > 0, got {vals['beta']}")

    if "a" in vals:
        vals.update(m=0.5 * (vals["a"] + vals["b"]), r=0.5 * (vals["b"] - vals["a"]))
        _require(vals["r"] > 0, f"{family}: requires a positive half-width (b - a)/2, "
                                f"got a={vals['a']}, b={vals['b']}")
    if "s" in vals and "r" in vals and not math.isfinite(vals["r"] / vals["s"]):
        raise ValueError(f"{family}: requires a finite ratio r/s, got r={vals['r']}, s={vals['s']}")
    if rec.check is not None:
        rec.check(vals)
    spec = UnivariateSpec(family=family, **vals)
    spec = replace(spec, c=rec.normalizer(spec))
    _require(0.0 < spec.c < math.inf,
             f"{family}: computed normalizing constant {spec.c!r} is not positive and finite")
    return spec


def bl_flat_normalizer(a: float, b: float) -> float:
    """Fast-path BL normalizer 1/(b-a), valid only in the flat regime.

    This is never substituted implicitly; ``make`` always integrates.
    """
    _require(a < b, f"requires a < b, got a={a}, b={b}")
    return 1.0 / (b - a)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _scale(spec: UnivariateSpec) -> float:
    """A characteristic length used for step sizes and brackets."""
    lo, hi = support(spec)
    if math.isfinite(lo):
        return hi - lo
    s = spec.s
    if spec.t is not None:
        s = min(s, spec.t)
    if spec.r is not None:
        s = min(max(s, 1e-300), max(spec.r, s))
    return s


def _as_float_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _restore(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


# ---------------------------------------------------------------------------
# Closed forms, by family; the registry at the end of this section binds them
# ---------------------------------------------------------------------------

def _log_pdf_u(spec, x):
    return np.where((x >= spec.a) & (x <= spec.b), math.log(spec.c), -math.inf)


def _log_pdf_gn(spec, x):
    z = np.abs(x - spec.mu) / spec.s
    with np.errstate(over="ignore"):
        zb = z ** spec.beta
    return math.log(spec.c) - zb


def _cdf_gn(spec, x):
    from scipy import special as sp

    z = np.abs(x - spec.mu) / spec.s
    with np.errstate(over="ignore"):
        return 0.5 + 0.5 * np.sign(x - spec.mu) * sp.gammainc(1.0 / spec.beta, z ** spec.beta)


def _quantile_gn(spec, v):
    from scipy import special as sp

    w = sp.gammaincinv(1.0 / spec.beta, np.abs(2.0 * v - 1.0))
    return spec.mu + np.sign(v - 0.5) * spec.s * w ** (1.0 / spec.beta)


def _kurtosis_gn(spec) -> float:
    b = spec.beta
    return (9.0 * math.gamma(5.0 / b + 1.0) * math.gamma(1.0 / b + 1.0)
            / (5.0 * math.gamma(3.0 / b + 1.0) ** 2))


def _log_pdf_an(spec, x):
    """ln c + ln[erf(zf) - erf(zn)] at zf, zn = (|x - m| +- r)/(sqrt(2) s).

    Inside [a, b] (zn < 0) the two erf values have opposite signs.  Past an
    edge the difference is erfc(zn) - erfc(zf) = e^(-zn^2) [erfcx(zn) -
    erfcx(zf) e^(-(zf^2 - zn^2))], formed in log space, so it neither
    cancels nor underflows.
    """
    from scipy import special as sp

    k = math.sqrt(2.0) * spec.s
    with np.errstate(over="ignore"):  # |x - m| far beyond s: clipped, the log is -inf
        u = np.minimum(np.abs(x - spec.m) / k, 1e300)
    rho = spec.r / k
    zn, zf = u - rho, u + rho
    inside = zn < 0.0
    out = np.empty_like(u)  # each point takes its own branch only
    out[inside] = np.log(sp.erf(zf[inside]) - sp.erf(zn[inside]))
    zn, zf, u = zn[~inside], zf[~inside], u[~inside]
    with np.errstate(all="ignore"):  # far out zn * zn = inf, or the ratio is 1: the log is -inf
        ex = sp.erfcx(zn)
        out[~inside] = np.log(ex) - zn * zn + np.log1p(-sp.erfcx(zf) / ex * np.exp(-4.0 * rho * u))
    return math.log(spec.c) + out


def _an_tail(u):
    """g(u) = e^(-u^2/2) (sqrt(2/pi) - u erfcx(u/sqrt(2))) for u >= 0: G(u) - u,
    where G(z) = z erf(z/sqrt(2)) + sqrt(2/pi) e^(-z^2/2) and G(-u) = G(u)."""
    from scipy import special as sp

    u = np.minimum(u, 1e300)
    with np.errstate(all="ignore"):  # u < 0 is never kept; u^2 = inf gives 0
        return np.exp(-0.5 * u * u) * (math.sqrt(2.0 / math.pi) - u * sp.erfcx(u / math.sqrt(2.0)))


def _cdf_an(spec, x):
    """0.5 + s/(2 (b - a)) [G(za) - G(zb)]; below a it is the tail mass
    s/(2 (b - a)) [g(-za) - g(-zb)], which keeps its relative accuracy, and
    above b one minus the mirrored tail."""
    from scipy import special as sp

    s = spec.s
    za = (x - spec.a) / s
    zb = (x - spec.b) / s
    k = s / (2.0 * (spec.b - spec.a))
    sq = math.sqrt(2.0 / math.pi)
    with np.errstate(over="ignore"):  # za * za = inf far out: exp gives 0
        term = (za * sp.erf(za / math.sqrt(2.0)) + sq * np.exp(-0.5 * za * za)
                - zb * sp.erf(zb / math.sqrt(2.0)) - sq * np.exp(-0.5 * zb * zb))
    return np.where(za <= 0.0, k * (_an_tail(-za) - _an_tail(-zb)),
                    np.where(zb >= 0.0, 1.0 - k * (_an_tail(zb) - _an_tail(za)), 0.5 + k * term))


def _moment_an(spec, k: int) -> float:
    total = 0.0
    for i in range(0, k + 1, 2):
        # (k-i-1)!! is the (k-i)-th moment of the standard normal.
        total += (math.comb(k, i) * spec.s ** (k - i) * math.prod(range(k - i - 1, 0, -2))
                  * spec.r ** i / (i + 1))
    return total


def _log_pdf_al(spec, x):
    with np.errstate(over="ignore"):  # |x - m| far beyond s: w = inf, density 0
        w = (x - spec.m) / spec.s
    return math.log(spec.c) + specfun.log_sinh_ratio(w, spec.r / spec.s)


def _cdf_al(spec, x):
    m, r, s = spec.m, spec.r, spec.s
    return (s / (2.0 * r)) * (specfun.softplus((x - m + r) / s)
                              - specfun.softplus((x - m - r) / s))


def _quantile_al_like(v, m, r, s):
    """Stable closed-form AL quantile via expm1/log1p."""
    a = m - r
    rho = 2.0 * r / s
    return a + s * (rho * v + np.log1p(-np.exp(-rho * v))
                    - np.log1p(-np.exp(-rho * (1.0 - v))))


def _moment_al(spec, k: int) -> float:
    r, s = spec.r, spec.s
    rho = r / s
    return (s ** (k + 1) / r) * math.factorial(k) * (
        -specfun.polylog_neg(k + 1, rho) + specfun.polylog_neg(k + 1, -rho)
    )


def _als_terms(spec, x):
    """ln[logistic(u1) logistic(-u2)] and -d = u2 - u1 for the skewed
    logistic CDF F(z) = logistic(u), u = 2 (z + lam (hypot(z, 1) - 1)), at
    z1, z2 = (x - a, x - b) / (2 s).

    The density is c [F(z1) - F(z2)] = c logistic(u1) logistic(-u2)
    (1 - e^-d), exp-shifted through softplus.  In w = 2 z, u = w + lam
    (hypot(w, 2) - 2), and d is formed from w1 - w2 = (b - a) / s and
    hypot(w1, 2) - hypot(w2, 2) = (w1 - w2)(w1 + w2) / (g1 + g2), so it
    keeps full precision when b - a is far below s.
    """
    lam = spec.lam
    # |x| far beyond s overflows to inf, and inf - inf in u and d would give
    # nan: a finite 1e300 keeps every term finite and the density at 0.
    with np.errstate(over="ignore"):
        neg_w1 = np.clip((spec.a - x) / spec.s, -1e300, 1e300)
        w2 = np.clip((x - spec.b) / spec.s, -1e300, 1e300)
    g1 = np.hypot(neg_w1, 2.0)
    g2 = np.hypot(w2, 2.0)
    log_ends = (-specfun.softplus(neg_w1 - lam * (g1 - 2.0))
                - specfun.softplus(w2 + lam * (g2 - 2.0)))
    k = (spec.b - spec.a) / spec.s
    return log_ends, -k - (k * lam) * ((w2 - neg_w1) / (g1 + g2))


def _log_pdf_als(spec, x):
    log_ends, neg_d = _als_terms(spec, x)
    with np.errstate(divide="ignore"):  # d underflowing to 0 gives -inf
        return math.log(spec.c) + log_ends + np.log(-np.expm1(neg_d))


def _log_shoulder_als(w, lam):
    """ln f(w), f = dF/dw the density of the skewed logistic CDF F(w/2)
    (see ``_als_terms``): ln[logistic(u) logistic(-u) du/dw]."""
    g = np.hypot(w, 2.0)
    u = w + lam * (g - 2.0)
    return -specfun.softplus(u) - specfun.softplus(-u) + np.log1p(lam * w / g)


def _slope_als(spec, x):
    """ln f(w1) - ln f(w2): p is c [F(w1/2) - F(w2/2)], so d ln p/dx has
    the sign of f(w1) - f(w2)."""
    return (_log_shoulder_als((x - spec.a) / spec.s, spec.lam)
            - _log_shoulder_als((x - spec.b) / spec.s, spec.lam))


def _shoulders(a: float, b: float, s: float, t: float) -> list[float]:
    """Break points 0, 1, 3, 10 and 30 widths s to both sides of a and t to
    both sides of b: a panel much wider than its edge's width, reaching from
    the edge deep into a flat top, can miss the whole shoulder with all
    fifteen of its nodes."""
    return [edge + j * w for edge, w in ((a, s), (b, t))
            for j in (0, -1, 1, -3, 3, -10, 10, -30, 30)]


@lru_cache(maxsize=512)
def _bl_mass(a: float, b: float, s: float, t: float) -> tuple[float, np.ndarray]:
    """Integral of the unnormalized BL density, 1/c, and the edges of the
    panels its quadrature settles on.  The MLE kernel takes the logarithm of
    the first at a trial step and, once the step is taken, its derivatives
    on the second: the cache spares it a second quadrature."""
    def integrand(x: np.ndarray) -> np.ndarray:
        return specfun._expit((x - a) / s) * specfun._expit((b - x) / t)

    with np.errstate(over="ignore"):  # for _expit
        res, _, _, edges, _ = _integrate(integrand, -math.inf, math.inf, _NORM_SETTINGS,
                                         _shoulders(a, b, s, t), True)
    return res.value, edges


def _normalizer_bl(spec) -> float:
    return 1.0 / _bl_mass(spec.a, spec.b, spec.s, spec.t)[0]


def _log_pdf_bl(spec, x):
    with np.errstate(over="ignore"):  # |x| far beyond s or t: softplus(inf) = inf
        return (math.log(spec.c)
                - specfun.softplus((spec.a - x) / spec.s)
                - specfun.softplus((x - spec.b) / spec.t))


def _slope_bl(spec, x):
    """ln of the ratio of the two terms of d ln p/dx = logistic((a - x)/s)/s
    - logistic((x - b)/t)/t, formed in log space."""
    return (specfun.softplus((spec.b - x) / spec.t) - specfun.softplus((x - spec.a) / spec.s)
            + math.log(spec.t / spec.s))


def _bd_exp_term(a: float, b: float, s: float, t: float) -> float:
    """The exponential correction in the BD normalizer, stable across s = t.

    Equals [g(s) - g(t)] / (2 (s^2 - t^2)) with g(tau) = tau^3 e^{(a-b)/tau};
    the removable singularity at s = t is bridged by a second-order Taylor
    step around the midpoint scale.
    """
    d = a - b  # negative
    def g(tau: float) -> float:
        return tau ** 3 * math.exp(d / tau)

    if abs(s - t) / s < 1e-4:
        mid = 0.5 * (s + t)
        e = math.exp(d / mid)
        g1 = e * (3.0 * mid ** 2 - d * mid)
        g3 = e * (6.0 - 6.0 * d / mid + 3.0 * (d / mid) ** 2 - (d / mid) ** 3)
        return (g1 + (s - t) ** 2 * g3 / 24.0) / (2.0 * (s + t))
    return (g(s) - g(t)) / (2.0 * (s ** 2 - t ** 2))


def _normalizer_bd(spec) -> float:
    return 1.0 / ((spec.b - spec.a) + _bd_exp_term(spec.a, spec.b, spec.s, spec.t))


def _log_fd_cdf(z: np.ndarray) -> np.ndarray:
    """log of the Laplace sigmoid F_D(z) = e^z/2 (z<0), 1 - e^-z/2 (z>=0)."""
    z = np.asarray(z, dtype=float)
    neg = z < 0
    return np.where(neg, np.where(neg, z, 0.0) - math.log(2.0),
                    np.log1p(-0.5 * np.exp(-np.maximum(z, 0.0))))


def _log_pdf_bd(spec, x):
    x = np.asarray(x, dtype=float)
    return (math.log(spec.c)
            + _log_fd_cdf((x - spec.a) / spec.s)
            + _log_fd_cdf((spec.b - x) / spec.t))


def _log_fd_slope(z):
    """ln of d ln F_D/dz: 0 for z < 0, -z - ln(2 - e^-z) for z >= 0."""
    zp = np.maximum(z, 0.0)
    return -zp - np.log(2.0 - np.exp(-zp))


def _slope_bd(spec, x):
    """The BL slope of ``_slope_bl`` with the Laplace sigmoid F_D."""
    return (_log_fd_slope((x - spec.a) / spec.s) - _log_fd_slope((spec.b - x) / spec.t)
            + math.log(spec.t / spec.s))


def _log_pdf_cc(spec, x):
    z = np.abs(x - spec.m) / spec.s
    with np.errstate(divide="ignore"):
        lz = np.log(z)
    return math.log(spec.c) - specfun.softplus(spec.beta * lz)


def _cdf_cc(spec, x):
    """0.5 + 0.5 sign(x - m) I_w(1/beta, 1 - 1/beta) with w = y^beta / (1 +
    y^beta).  Beyond y = 1 on the left, the complement 0.5 I_u(1 - 1/beta,
    1/beta) with u = 1 - w = 1 / (1 + y^beta) keeps the tail's relative
    accuracy; where y^beta overflows, the leading term of I_u in u = y^-beta
    takes over."""
    from scipy import special as sp

    a, b = 1.0 / spec.beta, 1.0 - 1.0 / spec.beta
    y = np.abs(x - spec.m) / spec.s
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # y^beta = inf: w = 1
        yb = y ** spec.beta
        w = np.where(np.isinf(yb), 1.0, yb / (1.0 + yb))
        tail = np.where(np.isinf(yb), np.exp((1.0 - spec.beta) * np.log(y) - math.log(b)
                                             - sp.betaln(a, b)),
                        sp.betainc(b, a, 1.0 / (1.0 + yb)))
    near = 0.5 + 0.5 * np.sign(x - spec.m) * sp.betainc(a, b, w)
    return np.where((x < spec.m) & (yb > 1.0), 0.5 * tail, near)


def _quantile_cc(spec, v):
    """The inverse of ``_cdf_cc``: beyond y = 1, y^beta = 1/u - 1 with u =
    I^-1(1 - 1/beta, 1/beta) of the mass 2 min(v, 1 - v) beyond y, or, where
    u would underflow, the inverse of the leading term of I_u."""
    from scipy import special as sp

    a, b, root = 1.0 / spec.beta, 1.0 - 1.0 / spec.beta, 1.0 / spec.beta
    p = 2.0 * np.minimum(v, 1.0 - v)
    log_u = (np.log(p) + math.log(b) + sp.betaln(a, b)) / b  # of the leading term
    u = sp.betaincinv(b, a, p)
    w = sp.betaincinv(a, b, np.abs(2.0 * v - 1.0))
    with np.errstate(divide="ignore", over="ignore"):
        far = np.where(log_u < -700.0, np.exp(-root * log_u), (1.0 / u - 1.0) ** root)
        y = np.where(u < 0.5, far, (w / (1.0 - w)) ** root)
    return spec.m + np.sign(v - 0.5) * spec.s * y


def _moment_cc(spec, k: int) -> float:
    if k >= spec.beta - 1.0:
        return math.inf
    return spec.s ** k * math.sin(math.pi / spec.beta) / math.sin(math.pi * (k + 1) / spec.beta)


def _fd_height(family: str, v: dict[str, float], beta: float) -> float:
    """h = (r/s)^beta, the argument of ``_fd_mass``; a ValueError if it
    overflows a double."""
    try:
        return (v["r"] / v["s"]) ** beta
    except OverflowError:
        raise ValueError(f"{family}: requires a finite (r/s)^beta, got r={v['r']}, s={v['s']}, "
                         f"beta={beta}") from None


def _fd_mass(spec, beta: float, two_sided: bool, k: int = 0) -> float:
    """F_j(h), j = (k+1)/beta - 1, h = (r/s)^beta, or F_j(h) - F_j(-h) when
    ``two_sided``.  Times 2 Gamma((k+1)/beta) s^(k+1) / beta it is the k-th
    absolute moment of the CF density without c (CE: beta = 2; CH: two-sided).

    Below h = 1 the difference cancels (at h = 1e-20 it lost every digit),
    so there it is the integral of the difference of the Fermi functions,
    (1/Gamma(j+1)) Int_0^inf t^j sinh(h) / (cosh t + cosh h) dt, which does
    not.  Its integrand is taken over sinh(h), so that it is of order 1, and
    in t = u^n with n (j + 1) >= 1, so that it is bounded at u = 0.
    """
    j = (k + 1.0) / beta - 1.0
    h = (spec.r / spec.s) ** beta
    if two_sided and h < 1.0:
        n, log_sinh_h = float(max(1, math.ceil(1.0 / (j + 1.0)))), math.log(math.sinh(h))

        def integrand(u):
            return n * u ** (n * (j + 1.0) - 1.0) * np.exp(
                specfun.log_sinh_ratio(u ** n, h) - log_sinh_h)

        mass = integrate(integrand, 0.0, math.inf, _NORM_SETTINGS).value
        return math.sinh(h) * mass / math.gamma(j + 1.0)
    mass = specfun.fermi_dirac_complete(j, h)
    if two_sided:
        mass -= specfun.fermi_dirac_complete(j, -h)
    return mass


def _fd_normalizer(spec, beta: float, two_sided: bool) -> float:
    return beta / (2.0 * spec.s * math.gamma(1.0 / beta) * _fd_mass(spec, beta, two_sided))


def _fd_moment(spec, k: int, beta: float, two_sided: bool) -> float:
    num = math.gamma((k + 1.0) / beta) * _fd_mass(spec, beta, two_sided, k)
    den = math.gamma(1.0 / beta) * _fd_mass(spec, beta, two_sided)
    return spec.s ** k * num / den


def _fd_edges(spec) -> list[float]:
    """The ``_shoulders`` of the CF and CH edges m -+ r, whose steps are
    w = s min(1, (s/r)^(beta-1)) / beta wide."""
    w = spec.s * math.exp(min(0.0, (spec.beta - 1.0) * math.log(spec.s / spec.r))) / spec.beta
    return _shoulders(spec.m - spec.r, spec.m + spec.r, w, w)


def _log_pdf_cf(spec, x):
    with np.errstate(over="ignore"):
        w = (np.abs(x - spec.m) / spec.s) ** spec.beta - (spec.r / spec.s) ** spec.beta
    return math.log(spec.c) - specfun.softplus(w)


def _cdf_cf1(spec, x):
    """CF cdf at beta = 1, from the mass beyond |x - m| on one side,
    0.5 softplus((r - |x - m|)/s) / softplus(r/s)."""
    tail = (0.5 * specfun.softplus((spec.r - np.abs(x - spec.m)) / spec.s)
            / specfun.softplus(spec.r / spec.s))
    return np.where(x < spec.m, tail, 1.0 - tail)


def _quantile_cf1(spec, v):
    """CF quantile at beta = 1: the |x - m| whose one-sided tail mass is
    min(v, 1 - v)."""
    ell = float(specfun.softplus(spec.r / spec.s))
    w = ell * (2.0 * np.minimum(v, 1.0 - v))
    u = spec.r - spec.s * specfun.log_expm1(w)
    return spec.m + np.sign(v - 0.5) * np.where(v == 0.5, 0.0, u)


def _log_pdf_ce(spec, x):
    with np.errstate(over="ignore"):  # |x| beyond ~1e154: w = inf, the density 0
        w = (x - spec.a) * (x - spec.b) / spec.s ** 2
    return math.log(spec.c) - specfun.softplus(w)


def _log_pdf_ch(spec, x):
    h = (spec.r / spec.s) ** spec.beta
    with np.errstate(over="ignore"):
        w = (np.abs(x - spec.m) / spec.s) ** spec.beta
    return math.log(spec.c) + specfun.log_sinh_ratio(w, h)


def _log_pdf_de(spec, x):
    u = np.asarray(x, dtype=float) - spec.m
    with np.errstate(divide="ignore"):
        w = (spec.s / u) ** 2
    # 1 - e^-w evaluated stably; w = inf at the center gives exactly 1.
    val = -np.expm1(-w)
    with np.errstate(divide="ignore"):
        return math.log(spec.c) + np.log(val)


def _cdf_de(spec, x):
    """From the mass beyond |x - m| on one side, 0.5 [erf(z) - (1 - e^(-z^2))
    / (sqrt(pi) z)] at z = s/|x - m|, which keeps its relative accuracy."""
    from scipy import special as sp

    u = np.atleast_1d(np.asarray(x, dtype=float)) - spec.m
    out = np.full(u.shape, 0.5)
    nz = u != 0.0
    with np.errstate(over="ignore"):  # |x - m| far below s: z = inf, the tail is 0.5
        z = spec.s / np.abs(u[nz])
    zc = np.maximum(z, 1e-8)  # below 1e-8, (1 - e^(-z^2))/z is z to double precision
    tail = 0.5 * (sp.erf(z) - np.where(z < 1e-8, z, -np.expm1(-zc * zc) / zc) / math.sqrt(math.pi))
    out[nz] = np.where(u[nz] < 0.0, tail, 1.0 - tail)
    return out.reshape(np.shape(x))


_FAMILY: dict[str, _Family] = {
    "U": _Family(
        ("a", "b"), lambda spec: 1.0 / (spec.b - spec.a), _log_pdf_u,
        cdf=lambda spec, x: (x - spec.a) / (spec.b - spec.a),  # cdf() clips it
        quantile=lambda spec, v: spec.a + v * (spec.b - spec.a),
        central_moment=lambda spec, k: spec.r ** k / (k + 1.0),
        kurtosis=lambda spec: 1.8,
        bounded=True),
    "GN": _Family(
        ("mu", "s", "beta"),
        lambda spec: spec.beta / (2.0 * spec.s * math.gamma(1.0 / spec.beta)),
        _log_pdf_gn, center="mu", cdf=_cdf_gn, quantile=_quantile_gn,
        central_moment=lambda spec, k: (spec.s ** k * math.gamma((k + 1.0) / spec.beta)
                                        / math.gamma(1.0 / spec.beta)),
        kurtosis=_kurtosis_gn),
    "AN": _Family(
        ("a", "b", "s"), lambda spec: 1.0 / (2.0 * (spec.b - spec.a)), _log_pdf_an,
        cdf=_cdf_an, central_moment=_moment_an),
    "AL": _Family(
        ("a", "b", "s"), lambda spec: 1.0 / (2.0 * spec.r), _log_pdf_al,
        cdf=_cdf_al, quantile=lambda spec, v: _quantile_al_like(v, spec.m, spec.r, spec.s),
        central_moment=_moment_al,
        kurtosis=lambda spec: 1.8 + 12.0 / (5.0 * (1.0 + (spec.r / (math.pi * spec.s)) ** 2))),
    "ALS": _Family(
        ("a", "b", "s", "lam"), lambda spec: 1.0 / (spec.b - spec.a), _log_pdf_als,
        symmetric=False,
        check=lambda v: _require(-1.0 < v["lam"] < 1.0,
                                 f"ALS: requires lam in (-1, 1), got {v['lam']}"),
        mode=lambda spec: spec.m if spec.lam == 0.0 else None,
        breaks=lambda spec: _shoulders(spec.a, spec.b, spec.s, spec.s), slope=_slope_als),
    # BL and BD are symmetric about m at s = t.
    "BL": _Family(("a", "b", "s", "t"), _normalizer_bl, _log_pdf_bl, symmetric=False,
                  mode=lambda spec: spec.m if spec.s == spec.t else None,
                  breaks=lambda spec: _shoulders(spec.a, spec.b, spec.s, spec.t), slope=_slope_bl),
    "BD": _Family(("a", "b", "s", "t"), _normalizer_bd, _log_pdf_bd, symmetric=False,
                  mode=lambda spec: spec.m if spec.s == spec.t else None,
                  breaks=lambda spec: _shoulders(spec.a, spec.b, spec.s, spec.t), slope=_slope_bd),
    "CC": _Family(
        ("m", "s", "beta"),
        lambda spec: spec.beta / (2.0 * spec.s * (math.pi / math.sin(math.pi / spec.beta))),
        _log_pdf_cc,
        check=lambda v: _require(v["beta"] > 1,
                                 f"CC: requires beta > 1 for integrability, got beta={v['beta']}"),
        cdf=_cdf_cc, quantile=_quantile_cc, central_moment=_moment_cc),
    "CF": _Family(
        ("m", "r", "s", "beta"), lambda spec: _fd_normalizer(spec, spec.beta, False), _log_pdf_cf,
        check=lambda v: _fd_height("CF", v, v["beta"]),
        cdf=lambda spec, x: _cdf_cf1(spec, x) if spec.beta == 1.0 else None,
        quantile=lambda spec, v: _quantile_cf1(spec, v) if spec.beta == 1.0 else None,
        central_moment=lambda spec, k: _fd_moment(spec, k, spec.beta, False), breaks=_fd_edges),
    "CE": _Family(
        ("a", "b", "s"), lambda spec: _fd_normalizer(spec, 2.0, False), _log_pdf_ce,
        check=lambda v: _fd_height("CE", v, 2.0),
        central_moment=lambda spec, k: _fd_moment(spec, k, 2.0, False)),
    "CH": _Family(
        ("m", "r", "s", "beta"), lambda spec: _fd_normalizer(spec, spec.beta, True), _log_pdf_ch,
        # A sinh(h) factor that underflows to 0 leaves no density.
        check=lambda v: _require(_fd_height("CH", v, v["beta"]) > 0.0,
                                 f"CH: requires (r/s)^beta > 0, got r={v['r']}, s={v['s']}"),
        # AL is CH at beta = 1.
        cdf=lambda spec, x: _cdf_al(spec, x) if spec.beta == 1.0 else None,
        quantile=lambda spec, v: (_quantile_al_like(v, spec.m, spec.r, spec.s)
                                  if spec.beta == 1.0 else None),
        central_moment=lambda spec, k: _fd_moment(spec, k, spec.beta, True), breaks=_fd_edges),
    "DE": _Family(
        ("m", "s"), lambda spec: 1.0 / (2.0 * math.sqrt(math.pi) * spec.s), _log_pdf_de,
        cdf=_cdf_de, central_moment=lambda spec, k: math.inf),
}
FAMILIES = tuple(_FAMILY)


# ---------------------------------------------------------------------------
# pdf / log_pdf / mode / support
# ---------------------------------------------------------------------------

def log_pdf(spec: UnivariateSpec, x):
    """Natural log of the density; -inf outside the support of U."""
    arr, scalar = _as_float_array(x)
    return _restore(_FAMILY[spec.family].log_pdf(spec, arr), scalar)


def pdf(spec: UnivariateSpec, x):
    """Density at ``x`` (scalar or array); never negative, tails underflow to 0."""
    arr, scalar = _as_float_array(x)
    return _restore(np.exp(_FAMILY[spec.family].log_pdf(spec, arr)), scalar)


@lru_cache(maxsize=512)
def _mode_cached(spec: UnivariateSpec) -> float:
    rec = _FAMILY[spec.family]
    if rec.symmetric:
        return getattr(spec, rec.center)
    closed = None if rec.mode is None else rec.mode(spec)
    if closed is not None:
        return closed
    # Asymmetric families: bisection on the sign of the slope, which changes
    # sign once.  BL and BD are log-concave, and the ALS slope is f(w1) -
    # f(w2) for a unimodal f.  A search on values of ln p stops anywhere on
    # a top where ln p is flat to rounding; the log-space slope is not flat.
    lo = spec.a - 20.0 * (spec.s + (spec.t or spec.s))
    hi = spec.b + 20.0 * (spec.s + (spec.t or spec.s))
    if not rec.slope(spec, lo) > 0.0 > rec.slope(spec, hi):
        raise ConvergenceError(f"mode search failed for {spec.family}: the slope does not "
                               f"fall through 0 on [{lo!r}, {hi!r}]")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:  # until lo and hi are adjacent doubles
        g = rec.slope(spec, mid)
        if math.isnan(g):
            raise ConvergenceError(f"mode search failed for {spec.family}: nan slope at {mid!r}")
        lo, hi = (mid, hi) if g > 0.0 else (lo, mid) if g < 0.0 else (mid, mid)
        mid = 0.5 * (lo + hi)
    return mid


def mode(spec: UnivariateSpec) -> float:
    """Location of the density maximum (midpoint for symmetric families)."""
    return _mode_cached(spec)


def support(spec: UnivariateSpec) -> tuple[float, float]:
    """Closed interval outside which the density vanishes."""
    if _FAMILY[spec.family].bounded:
        return spec.a, spec.b
    return -math.inf, math.inf


# ---------------------------------------------------------------------------
# CDF and quantile
# ---------------------------------------------------------------------------

def cdf(spec: UnivariateSpec, x):
    """Distribution function; closed form where available, otherwise from
    the spec's panel table (``_table``)."""
    arr, scalar = _as_float_array(x)
    return _restore(np.clip(_own_cdf(spec, arr), 0.0, 1.0), scalar)


def _own_cdf(spec, x):
    """The family's cdf, unclipped: its closed form, else the table's."""
    rec = _FAMILY[spec.family]
    out = None if rec.cdf is None else rec.cdf(spec, x)
    return _cdf_numeric(spec, x) if out is None else out


@lru_cache(maxsize=512)
def _table(spec: UnivariateSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """The adaptive panels of the density's integral over the real line:
    their edges, the cdf at every edge, and the cdf's limit at +inf, which
    adds the mass beyond the last edge.

    The panels start from the mode, from a and b, and from the family's own
    break points.  The build raises QuadratureError when the mass misses 1
    by more than 1e-10, as it does when every node of a panel misses a step
    of the density.
    """
    breaks = _FAMILY[spec.family].breaks
    points = {mode(spec), spec.a, spec.b, *(() if breaks is None else breaks(spec))} - {None}
    res, below, above, edges, values = _integrate(partial(pdf, spec), -math.inf, math.inf,
                                                  _CDF_SETTINGS, sorted(points), True)
    if not abs(res.value - 1.0) <= 1e-10:
        raise QuadratureError(f"{spec.family}: density integrates to {res.value!r}, not 1")
    cum = below + np.append(0.0, np.cumsum(values))
    return edges, cum, cum[-1] + above


def _cdf_numeric(spec, x):
    """The table's cdf at the left edge of each point's panel plus one
    Kronrod rule from that edge to the point; a point beyond the table
    integrates its own tail, unless its density has underflowed to 0: the
    tails of every family with a numeric cdf fall monotonically, so no mass
    lies beyond it.  Each value depends on its point alone."""
    edges, cum, top = _table(spec)
    f = partial(pdf, spec)
    flat = np.atleast_1d(x).ravel()
    out = np.where(flat < edges[0], 0.0, np.where(flat > edges[-1], top, flat))  # nan stays nan
    inner = (flat >= edges[0]) & (flat <= edges[-1])
    i = np.clip(np.searchsorted(edges, flat[inner], side="right") - 1, 0, edges.size - 2)
    out[inner] = cum[i] + _kronrod(f, edges[i], flat[inner])[0]
    beyond = np.flatnonzero((flat < edges[0]) | (flat > edges[-1]))
    tails = beyond[f(flat[beyond]) != 0.0]
    for j, xj in zip(tails, flat[tails].tolist()):
        out[j] = (integrate(f, -math.inf, xj, _CDF_SETTINGS).value if xj < edges[0]
                  else top - integrate(f, xj, math.inf, _CDF_SETTINGS).value)
    return out.reshape(np.shape(x))


def quantile(spec: UnivariateSpec, v):
    """Inverse CDF for v in (0, 1); closed form where the family has one,
    otherwise Newton steps on its cdf from the spec's panel table."""
    arr, scalar = _as_float_array(v)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise ValueError("quantile requires 0 < v < 1")
    rec = _FAMILY[spec.family]
    out = None if rec.quantile is None else rec.quantile(spec, arr)
    return _restore(_quantile_numeric(spec, arr) if out is None else out, scalar)


def _quantile_numeric(spec, v):
    """Safeguarded Newton steps on the family's own cdf F, each v started
    inside the panel whose edges bracket it; a step that leaves the bracket
    is replaced by bisection.  Below the median the steps are on ln F, above
    it on ln(F(inf) - F), so that exponential tails take few steps; a v
    within an ulp of the table's mass F(inf) or above it (F(inf) misses 1 by
    up to 1e-10) goes where F(inf) - F is half an ulp of 1.  The steps stop
    once |F - v| <= 1e-12 min(v, 1 - v), plus 8.9e-16, four ulps of 1, above
    the median, where F(inf) - F cancels.  Below the median the closed AN
    and DE tails keep their relative accuracy; the error of the table's
    sums of positive panel masses is bounded only absolutely, by about
    1e-12 (see ``_CDF_SETTINGS``), so for v far below that the stop matches
    the table's F, not the true cdf, to 1e-12 relative.
    """
    edges, cum, top = _table(spec)
    closed = _FAMILY[spec.family].cdf
    if closed is not None and closed(spec, edges) is not None:  # AN, DE: its limit is 1
        cum, top = closed(spec, edges), 1.0
    flat = np.atleast_1d(v).ravel()
    tau = np.where(flat >= 0.5, np.maximum(top - flat, 2.0 ** -53), flat)
    k = np.searchsorted(cum, flat, side="right")  # v lies between edges k-1 and k
    ext = np.concatenate(([-math.inf], edges, [math.inf]))
    lo, hi, x = ext[k], ext[k + 1], np.interp(flat, cum, edges)
    todo = np.arange(flat.size)
    for _ in range(_NEWTON_STEPS):
        xt, ut, tt = x[todo], flat[todo] >= 0.5, tau[todo]
        p = _own_cdf(spec, xt)
        t = np.where(ut, top - p, p)
        below = (t < tt) != ut  # x lies below the root
        lo[todo], hi[todo] = np.where(below, xt, lo[todo]), np.where(below, hi[todo], xt)
        with np.errstate(all="ignore"):  # t = 0 or a pdf that underflows: bisect instead
            newton = (xt - np.where(ut, -1.0, 1.0) * np.log(t / tt) * t
                      / np.exp(log_pdf(spec, xt)))
        err, floor = np.abs(t - tt), np.where(ut, 8.9e-16, 0.0)
        done = err <= 1e-12 * tt + floor
        # Newton inside the bracket, else bisection; no last step from within
        # the rounding floor short of 1e-12 tau, where it would only add noise.
        step = (newton > lo[todo]) & (newton < hi[todo]) & ((err > floor) | (err <= 1e-12 * tt))
        x[todo] = np.where(step, newton, np.where(done, xt, 0.5 * (lo[todo] + hi[todo])))
        todo = todo[~done]
        if todo.size == 0:
            return x.reshape(np.shape(v))
    raise ConvergenceError(f"quantile: Newton steps did not converge at {todo.size} of {flat.size}")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample(spec: UnivariateSpec, n: int, seed: int):
    """Inverse-transform sample of size ``n``; deterministic per seed (PCG64)."""
    from .data_io import Dataset

    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    xs = quantile(spec, u)
    prov = f"sample:{spec.family}{spec.params()};seed={seed}"
    return Dataset(rows=np.asarray(xs, dtype=float).reshape(-1, 1), provenance=prov)


# ---------------------------------------------------------------------------
# Moments and kurtosis
# ---------------------------------------------------------------------------

def moment_integrand(spec: UnivariateSpec, center: float, k: int):
    """(x - center)^k p(x) evaluated in log space, so the power never
    overflows before the density underflows."""

    def f(x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            log_gap = np.log(np.abs(np.asarray(x, dtype=float) - center))
        with np.errstate(invalid="ignore"):
            out = np.exp(k * log_gap + log_pdf(spec, x))
        return np.where(np.isnan(out), 0.0, out)

    return f


def _moment_quadrature(spec: UnivariateSpec, symmetric: bool, k: int) -> float:
    lo, hi = support(spec)
    edges = _table(spec)[0].tolist()
    mean = mode(spec) if symmetric else integrate(lambda x: x * pdf(spec, x), lo, hi,
                                                  _NORM_SETTINGS, points=edges).value
    return integrate(moment_integrand(spec, mean, k), lo, hi, _NORM_SETTINGS, points=edges).value


def central_moment(spec: UnivariateSpec, k: int) -> MomentReport:
    """Central moment of even order ``k``; divergent moments are flagged
    rather than integrated."""
    if k < 0 or k % 2 != 0:
        raise ValueError(f"central_moment requires even k >= 0, got {k}")
    if k == 0:
        return MomentReport(0, 1.0, None, "closed_form")
    rec = _FAMILY[spec.family]
    value = None if rec.central_moment is None else rec.central_moment(spec, k)
    if value is None:
        return MomentReport(k, _moment_quadrature(spec, rec.symmetric, k), None, "quadrature")
    if math.isinf(value):
        return MomentReport(k, None, "infinite", "closed_form")
    return MomentReport(k, value, None, "closed_form")


def kurtosis(spec: UnivariateSpec) -> float:
    """mu_4 / mu_2^2; inf when only the fourth moment diverges, nan when the
    second does too."""
    rec = _FAMILY[spec.family]
    closed = None if rec.kurtosis is None else rec.kurtosis(spec)
    if closed is not None:
        return closed
    m2 = central_moment(spec, 2)
    m4 = central_moment(spec, 4)
    if m2.flag is not None:
        return math.nan
    if m4.flag is not None:
        return math.inf
    return m4.value / m2.value ** 2


# ---------------------------------------------------------------------------
# Approximation bridges
# ---------------------------------------------------------------------------

def approx_al_from_normal(mu: float, sigma: float) -> UnivariateSpec:
    """AL surrogate of N(mu, sigma^2); sup-norm pdf error below 0.0043/sigma."""
    _require(sigma > 0, f"sigma must be positive, got {sigma}")
    return make("AL", {
        "a": mu - sigma * AL_OF_NORMAL_R,
        "b": mu + sigma * AL_OF_NORMAL_R,
        "s": sigma * AL_OF_NORMAL_S,
    })


def approx_al_from_an(a: float, b: float, s: float) -> UnivariateSpec:
    """AL surrogate of AN(a, b, s) via the logistic-for-normal CDF match."""
    return make("AL", {"a": a, "b": b, "s": AN_TO_AL_SCALE * s})


def approx_bd_from_bl(a: float, b: float, s: float, t: float) -> UnivariateSpec:
    """BD surrogate of BL(a, b, s, t): Laplace scales s ln4, t ln4."""
    ln4 = math.log(4.0)
    return make("BD", {"a": a, "b": b, "s": s * ln4, "t": t * ln4})


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def to_json_dict(spec: UnivariateSpec) -> dict:
    return {"family": spec.family, "params": spec.params()}


def from_json_dict(obj: Mapping) -> UnivariateSpec:
    if set(obj) != {"family", "params"}:
        raise ValueError("expected keys {'family', 'params'}")
    return make(obj["family"], obj["params"])
