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
closed-form hooks for the pdf, cdf, quantile, central moments and kurtosis.
Each public function looks the record up once.  Where a hook is missing, or
declines the spec's parameters (CF and CH have a closed cdf and quantile
only at beta = 1), the one numeric default runs: the pdf is exp(log_pdf);
the mode of an asymmetric family is a bounded maximization; the cdf is the
density integrated from the nearest point already evaluated, starting from
the mass below the mode (``_anchored_cdf``), and the quantile a Brent solve
on that same integral; central moments are integrated and the kurtosis is
their ratio.  CF, CH and CE share one Fermi-Dirac mass (``_fd_mass``).

Construction validates parameters and caches the normalizing constant; all
evaluation functions are pure, vectorized over ``x``, and exp-shifted where
tails would overflow.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from . import specfun
from .quadrature import QuadratureSettings, integrate

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


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its budget."""


# Approximation constants: the AL surrogate of a standard normal and the
# logistic scale matching the normal CDF within 0.01 everywhere.
AL_OF_NORMAL_R = math.sqrt(math.log(4.0)) - 0.2
AL_OF_NORMAL_S = AL_OF_NORMAL_R / math.pi + 0.166
AN_TO_AL_SCALE = 0.5877

_NORM_SETTINGS = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=4000)


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

    A symmetric family has its mode at the spec attribute named by
    ``center``; a bounded one is supported on [a, b].  A hook returns None
    where its closed form does not cover the spec's parameters; a moment
    hook returns inf for a divergent moment.  ``check`` sees the parameters
    after ``make`` has derived m and r.
    """

    fields: tuple[str, ...]
    normalizer: Callable[[UnivariateSpec], float]
    log_pdf: Callable[[UnivariateSpec, np.ndarray], np.ndarray]
    symmetric: bool = True
    center: str = "m"
    check: Callable[[dict[str, float]], None] | None = None
    pdf: Callable | None = None
    cdf: Callable | None = None
    quantile: Callable | None = None
    central_moment: Callable | None = None
    kurtosis: Callable | None = None
    mode: Callable | None = None
    bounded: bool = False


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
    if "s" in vals and "r" in vals and not math.isfinite(vals["r"] / vals["s"]):
        raise ValueError(f"{family}: requires a finite ratio r/s, got r={vals['r']}, s={vals['s']}")
    if rec.check is not None:
        rec.check(vals)
    spec = UnivariateSpec(family=family, **vals)
    spec = replace(spec, c=rec.normalizer(spec))
    _require(spec.c > 0, f"{family}: computed normalizing constant is not positive")
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

def _log_of_pdf(spec, x):
    with np.errstate(divide="ignore"):
        return np.log(pdf(spec, x))


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


def _pdf_an(spec, x):
    from scipy import special as sp

    z1 = (x - spec.a) / (math.sqrt(2.0) * spec.s)
    z2 = (x - spec.b) / (math.sqrt(2.0) * spec.s)
    return spec.c * (sp.erf(z1) - sp.erf(z2))


def _cdf_an(spec, x):
    from scipy import special as sp

    s = spec.s
    za = (x - spec.a) / s
    zb = (x - spec.b) / s
    sq = math.sqrt(2.0 / math.pi)
    with np.errstate(over="ignore"):  # za * za = inf far out: exp gives 0
        term = (za * sp.erf(za / math.sqrt(2.0)) + sq * np.exp(-0.5 * za * za)
                - zb * sp.erf(zb / math.sqrt(2.0)) - sq * np.exp(-0.5 * zb * zb))
    return 0.5 + (s / (2.0 * (spec.b - spec.a))) * term


def _moment_an(spec, k: int) -> float:
    total = 0.0
    for i in range(0, k + 1, 2):
        # (k-i-1)!! is the (k-i)-th moment of the standard normal.
        total += (math.comb(k, i) * spec.s ** (k - i) * math.prod(range(k - i - 1, 0, -2))
                  * spec.r ** i / (i + 1))
    return total


def _log_pdf_al(spec, x):
    rho = spec.r / spec.s
    w = (x - spec.m) / spec.s
    return (math.log(spec.c) + specfun.log_sinh(rho)
            - specfun.log_cosh_sum(w, np.full_like(np.asarray(w, dtype=float), rho)))


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


def _f_ls(z: np.ndarray, lam: float) -> np.ndarray:
    """Skewed logistic CDF in the reduced variable z = (x - u) / (2 s)."""
    return 0.5 * (1.0 + np.tanh(z + lam * (np.sqrt(z * z + 1.0) - 1.0)))


def _pdf_als(spec, x):
    z1 = (x - spec.a) / (2.0 * spec.s)
    z2 = (x - spec.b) / (2.0 * spec.s)
    return np.maximum(spec.c * (_f_ls(z1, spec.lam) - _f_ls(z2, spec.lam)), 0.0)


def _normalizer_bl(spec) -> float:
    from scipy import special as sp

    a, b, s, t = spec.a, spec.b, spec.s, spec.t

    def integrand(x: np.ndarray) -> np.ndarray:
        return sp.expit((x - a) / s) * sp.expit((b - x) / t)

    res = integrate(integrand, -math.inf, math.inf, _NORM_SETTINGS,
                    points=(a, 0.5 * (a + b), b))
    return 1.0 / res.value


def _log_pdf_bl(spec, x):
    return (math.log(spec.c)
            - specfun.softplus((spec.a - x) / spec.s)
            - specfun.softplus((x - spec.b) / spec.t))


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
    denom = (spec.b - spec.a) + _bd_exp_term(spec.a, spec.b, spec.s, spec.t)
    if not denom > 0 or not math.isfinite(denom):
        raise ValueError("BD: normalizer evaluation failed near s = t")
    return 1.0 / denom


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


def _log_pdf_cc(spec, x):
    z = np.abs(x - spec.m) / spec.s
    with np.errstate(divide="ignore"):
        lz = np.log(z)
    return math.log(spec.c) - specfun.softplus(spec.beta * lz)


def _cdf_cc(spec, x):
    from scipy import special as sp

    y = np.abs(x - spec.m) / spec.s
    with np.errstate(over="ignore"):
        yb = y ** spec.beta
    w = np.where(np.isinf(yb), 1.0, yb / (1.0 + yb))
    return 0.5 + 0.5 * np.sign(x - spec.m) * sp.betainc(1.0 / spec.beta, 1.0 - 1.0 / spec.beta, w)


def _quantile_cc(spec, v):
    from scipy import special as sp

    w = sp.betaincinv(1.0 / spec.beta, 1.0 - 1.0 / spec.beta, np.abs(2.0 * v - 1.0))
    y = (w / (1.0 - w)) ** (1.0 / spec.beta)
    return spec.m + np.sign(v - 0.5) * spec.s * y


def _moment_cc(spec, k: int) -> float:
    if k >= spec.beta - 1.0:
        return math.inf
    return spec.s ** k * math.sin(math.pi / spec.beta) / math.sin(math.pi * (k + 1) / spec.beta)


def _check_fd_height(family: str, r: float, s: float, beta: float) -> None:
    """Reject a spec whose h = (r/s)^beta, the argument of ``_fd_mass``,
    overflows a double."""
    try:
        (r / s) ** beta
    except OverflowError:
        raise ValueError(f"{family}: requires a finite (r/s)^beta, got r={r}, s={s}, "
                         f"beta={beta}") from None


def _fd_mass(spec, beta: float, two_sided: bool, k: int = 0) -> float:
    """F_j(h), j = (k+1)/beta - 1, h = (r/s)^beta, or F_j(h) - F_j(-h) when
    ``two_sided``.  Times 2 Gamma((k+1)/beta) s^(k+1) / beta it is the k-th
    absolute moment of the CF density without c (CE: beta = 2; CH: two-sided)."""
    j = (k + 1.0) / beta - 1.0
    h = (spec.r / spec.s) ** beta
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


def _log_pdf_cf(spec, x):
    with np.errstate(over="ignore"):
        w = (np.abs(x - spec.m) ** spec.beta - spec.r ** spec.beta) / spec.s ** spec.beta
    return math.log(spec.c) - specfun.softplus(w)


def _cdf_cf1(spec, x):
    """CF cdf at beta = 1."""
    num = specfun.softplus((spec.r - np.abs(x - spec.m)) / spec.s)
    den = specfun.softplus(spec.r / spec.s)
    return 0.5 * (1.0 + np.sign(x - spec.m) * (1.0 - num / den))


def _quantile_cf1(spec, v):
    """CF quantile at beta = 1."""
    ell = float(specfun.softplus(spec.r / spec.s))
    p = np.abs(v - 0.5) * 2.0  # tail mass parameter in (0, 1)
    w = ell * (1.0 - p)
    u = spec.r - spec.s * specfun.log_expm1(w)
    return spec.m + np.sign(v - 0.5) * np.where(p == 0.0, 0.0, u)


def _log_pdf_ce(spec, x):
    w = (x - spec.a) * (x - spec.b) / spec.s ** 2
    return math.log(spec.c) - specfun.softplus(w)


def _log_pdf_ch(spec, x):
    h = (spec.r / spec.s) ** spec.beta
    with np.errstate(over="ignore"):
        w = (np.abs(x - spec.m) / spec.s) ** spec.beta
    return (math.log(spec.c) + specfun.log_sinh(h)
            - specfun.log_cosh_sum(w, np.full_like(np.asarray(w, dtype=float), h)))


def _log_pdf_de(spec, x):
    u = np.asarray(x, dtype=float) - spec.m
    with np.errstate(divide="ignore"):
        w = (spec.s / u) ** 2
    # 1 - e^-w evaluated stably; w = inf at the center gives exactly 1.
    val = -np.expm1(-w)
    with np.errstate(divide="ignore"):
        return math.log(spec.c) + np.log(val)


def _cdf_de(spec, x):
    from scipy import special as sp

    u = np.atleast_1d(np.asarray(x, dtype=float)) - spec.m
    out = np.full(u.shape, 0.5)
    nz = u != 0.0
    un = u[nz]
    w = (spec.s / un) ** 2
    out[nz] = 0.5 * (1.0 + (un / (math.sqrt(math.pi) * spec.s)) * (-np.expm1(-w))
                     + np.sign(un) - sp.erf(spec.s / un))
    return out.reshape(np.shape(x))


_FAMILY: dict[str, _Family] = {
    "U": _Family(
        ("a", "b"), lambda spec: 1.0 / (spec.b - spec.a), _log_pdf_u,
        pdf=lambda spec, x: np.where((x >= spec.a) & (x <= spec.b), spec.c, 0.0),
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
        ("a", "b", "s"), lambda spec: 1.0 / (2.0 * (spec.b - spec.a)), _log_of_pdf,
        pdf=_pdf_an, cdf=_cdf_an, central_moment=_moment_an),
    "AL": _Family(
        ("a", "b", "s"), lambda spec: 1.0 / (2.0 * spec.r), _log_pdf_al,
        cdf=_cdf_al, quantile=lambda spec, v: _quantile_al_like(v, spec.m, spec.r, spec.s),
        central_moment=_moment_al,
        kurtosis=lambda spec: 1.8 + 12.0 / (5.0 * (1.0 + (spec.r / (math.pi * spec.s)) ** 2))),
    "ALS": _Family(
        ("a", "b", "s", "lam"), lambda spec: 1.0 / (spec.b - spec.a), _log_of_pdf,
        symmetric=False, pdf=_pdf_als,
        check=lambda v: _require(-1.0 < v["lam"] < 1.0,
                                 f"ALS: requires lam in (-1, 1), got {v['lam']}"),
        mode=lambda spec: spec.m if spec.lam == 0.0 else None),
    "BL": _Family(("a", "b", "s", "t"), _normalizer_bl, _log_pdf_bl, symmetric=False),
    "BD": _Family(("a", "b", "s", "t"), _normalizer_bd, _log_pdf_bd, symmetric=False),
    "CC": _Family(
        ("m", "s", "beta"),
        lambda spec: spec.beta / (2.0 * spec.s * (math.pi / math.sin(math.pi / spec.beta))),
        _log_pdf_cc,
        check=lambda v: _require(v["beta"] > 1,
                                 f"CC: requires beta > 1 for integrability, got beta={v['beta']}"),
        cdf=_cdf_cc, quantile=_quantile_cc, central_moment=_moment_cc),
    "CF": _Family(
        ("m", "r", "s", "beta"), lambda spec: _fd_normalizer(spec, spec.beta, False), _log_pdf_cf,
        check=lambda v: _check_fd_height("CF", v["r"], v["s"], v["beta"]),
        cdf=lambda spec, x: _cdf_cf1(spec, x) if spec.beta == 1.0 else None,
        quantile=lambda spec, v: _quantile_cf1(spec, v) if spec.beta == 1.0 else None,
        central_moment=lambda spec, k: _fd_moment(spec, k, spec.beta, False)),
    "CE": _Family(
        ("a", "b", "s"), lambda spec: _fd_normalizer(spec, 2.0, False), _log_pdf_ce,
        check=lambda v: _check_fd_height("CE", v["r"], v["s"], 2.0),
        central_moment=lambda spec, k: _fd_moment(spec, k, 2.0, False)),
    "CH": _Family(
        ("m", "r", "s", "beta"), lambda spec: _fd_normalizer(spec, spec.beta, True), _log_pdf_ch,
        check=lambda v: _check_fd_height("CH", v["r"], v["s"], v["beta"]),
        # AL is CH at beta = 1.
        cdf=lambda spec, x: _cdf_al(spec, x) if spec.beta == 1.0 else None,
        quantile=lambda spec, v: (_quantile_al_like(v, spec.m, spec.r, spec.s)
                                  if spec.beta == 1.0 else None),
        central_moment=lambda spec, k: _fd_moment(spec, k, spec.beta, True)),
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
    rec = _FAMILY[spec.family]
    out = np.exp(rec.log_pdf(spec, arr)) if rec.pdf is None else rec.pdf(spec, arr)
    return _restore(out, scalar)


@lru_cache(maxsize=512)
def _mode_cached(spec: UnivariateSpec) -> float:
    rec = _FAMILY[spec.family]
    if rec.symmetric:
        return getattr(spec, rec.center)
    closed = None if rec.mode is None else rec.mode(spec)
    if closed is not None:
        return closed
    # Asymmetric families: bracketed maximization of log_pdf.
    from scipy import optimize

    lo = spec.a - 20.0 * (spec.s + (spec.t or spec.s))
    hi = spec.b + 20.0 * (spec.s + (spec.t or spec.s))
    res = optimize.minimize_scalar(
        lambda x: -log_pdf(spec, x), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-10},
    )
    if not res.success:
        raise ConvergenceError(f"mode search failed for {spec.family}")
    return float(res.x)


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
    """Distribution function; closed form where available, otherwise the
    density integrated outward from the mode."""
    arr, scalar = _as_float_array(x)
    rec = _FAMILY[spec.family]
    out = None if rec.cdf is None else rec.cdf(spec, arr)
    if out is None:
        out = _cdf_numeric(spec, arr)
    return _restore(np.clip(out, 0.0, 1.0), scalar)


@lru_cache(maxsize=512)
def _cdf_at_mode(spec: UnivariateSpec) -> tuple[float, float]:
    xm = mode(spec)
    res = integrate(lambda x: pdf(spec, x), -math.inf, xm, _NORM_SETTINGS,
                    points=(spec.a, xm - _scale(spec)) if spec.a is not None else (xm - _scale(spec),))
    return xm, res.value


def _anchored_cdf(spec):
    """CDF evaluator that integrates the density from the nearest point
    already evaluated, starting from the mass below the mode.  Each value
    is clamped to [0, 1] and kept as an anchor for later points."""
    xm, p_m = _cdf_at_mode(spec)
    xs = [xm]
    ps = [p_m]

    def evaluate(x: float) -> float:
        i = bisect.bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            return ps[i]
        neighbors = [j for j in (i - 1, i) if 0 <= j < len(xs)]
        j = min(neighbors, key=lambda k: abs(xs[k] - x))
        val = ps[j] + integrate(lambda y: pdf(spec, y), xs[j], x, _NORM_SETTINGS).value
        val = min(max(val, 0.0), 1.0)
        xs.insert(i, x)
        ps.insert(i, val)
        return val

    return evaluate


def _cdf_numeric(spec, x):
    """The anchored integral at every point: those above the mode in
    ascending order, then those below it in descending order, so each
    integrates from its neighbour."""
    evaluate = _anchored_cdf(spec)
    xm = mode(spec)
    flat = np.atleast_1d(x).ravel()
    order = np.argsort(flat)
    out = np.full(flat.shape, math.nan)
    for i in [*order[flat[order] >= xm], *order[flat[order] < xm][::-1]]:
        out[i] = evaluate(float(flat[i]))
    return out.reshape(np.shape(x))


def quantile(spec: UnivariateSpec, v):
    """Inverse CDF for v in (0, 1); closed form where the family has one,
    otherwise a bracketed root solve on the anchored cdf integral."""
    arr, scalar = _as_float_array(v)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise ValueError("quantile requires 0 < v < 1")
    rec = _FAMILY[spec.family]
    out = None if rec.quantile is None else rec.quantile(spec, arr)
    if out is None:
        out = _quantile_numeric(spec, arr)
    return _restore(out, scalar)


def _bracket(g, x: float, step: float, sign: float) -> float:
    """Move ``x`` by ``sign * step``, doubling the step, until sign * g(x) >= 0.
    Every family without a closed quantile has unbounded support."""
    for _ in range(200):
        if sign * g(x) >= 0.0:
            return x
        x += sign * step
        step *= 2.0
    raise ConvergenceError("quantile bracketing failed")


def _quantile_numeric(spec, v):
    from scipy import optimize

    flat = np.atleast_1d(v).ravel()
    order = np.argsort(flat)
    out = np.empty_like(flat)
    scale = max(_scale(spec), 1e-12)
    cdf_local = _anchored_cdf(spec)
    prev_x = None
    for i in order:
        target = flat[i]

        def g(x: float) -> float:
            return cdf_local(float(x)) - target

        lo = _bracket(g, mode(spec) - scale if prev_x is None else prev_x, scale, -1.0)
        hi = _bracket(g, mode(spec) + scale, scale, 1.0)
        try:
            root = optimize.brentq(g, lo, hi, xtol=1e-13 * scale + 1e-300,
                                   rtol=4.0 * np.finfo(float).eps, maxiter=200)
        except (ValueError, RuntimeError) as exc:
            raise ConvergenceError(f"quantile root solve failed: {exc}") from exc
        out[i] = root
        prev_x = root
    return out.reshape(np.shape(v))


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
    hints = [mode(spec)]
    if spec.a is not None:
        hints += [spec.a, spec.b]
    if symmetric:
        mean = mode(spec)
    else:
        mean = integrate(lambda x: x * pdf(spec, x), lo, hi, _NORM_SETTINGS,
                         points=tuple(hints)).value
    return integrate(moment_integrand(spec, mean, k), lo, hi,
                     _NORM_SETTINGS, points=tuple(hints)).value


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
