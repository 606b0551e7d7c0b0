"""Special functions: the complete Fermi-Dirac integral, polylogarithms at
negative exponential argument, classical gamma/beta/erf wrappers, and the
stable hyperbolic helpers shared by the distribution code.

Conventions
-----------
``polylog_neg(n, x)`` returns Li_n(-e^x), i.e. the polylogarithm evaluated on
the negative real axis with the argument given in log form.  The complete
Fermi-Dirac integral of order ``j`` is

    F_j(x) = (1/Gamma(j+1)) * Int_0^inf t^j / (e^(t-x) + 1) dt = -Li_{j+1}(-e^x)
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .quadrature import QuadratureSettings, integrate

__all__ = [
    "softplus",
    "logistic",
    "log_cosh",
    "log_sinh",
    "log_cosh_sum",
    "log_sinh_ratio",
    "logsumexp",
    "sech2",
    "csch2",
    "coth",
    "log_expm1",
    "polylog_neg",
    "fermi_dirac_complete",
    "erf",
    "incomplete_gamma",
    "log_beta",
]

_LN2 = math.log(2.0)
_LOG_SINH_SWITCH = 0.5

# Tight settings for the integrals behind fractional-order F_j; these feed
# normalizing constants, so they need headroom under the 1e-6 oracle checks.
_FD_SETTINGS = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=4000)


# ---------------------------------------------------------------------------
# Stable elementary helpers
# ---------------------------------------------------------------------------

def softplus(z):
    """ln(1 + e^z) without overflow; exact linear growth for large z."""
    return np.logaddexp(0.0, z)


def logistic(z):
    """1 / (1 + e^-z), scipy's expit formula; exactly 0 and 1 at -inf and
    +inf, and e^-z overflowing to inf for z < -709 gives 0 without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


def _expit(z: np.ndarray) -> np.ndarray:
    """``logistic`` for the arrays of quadrature integrands, bit for bit.
    It works in place, and its caller enters np.errstate(over="ignore")
    once around the whole integration: on the few points of one call, each
    temporary array and each errstate costs about as much as the exp."""
    e = np.exp(-z)
    e += 1.0
    return np.reciprocal(e, out=e)


def log_cosh(z):
    """ln cosh(z), exp-shifted for large |z|."""
    az = np.abs(z)
    return az + np.log1p(np.exp(-2.0 * az)) - _LN2


def log_sinh(z):
    """ln sinh(z) = z + ln(1 - e^-2z) - ln 2 for z > 0.

    Below ``_LOG_SINH_SWITCH`` the middle term is ln(-expm1(-2z)), as
    log1p(-e^-2z) cancels there (and is -inf below z ~ 1e-16).  Within
    4 ulps of the true value for z from 1e-310 to 1e3, and within one
    machine epsilon absolutely around its zero at asinh(1).
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("log_sinh requires z > 0")
    lo = np.minimum(z, _LOG_SINH_SWITCH)
    hi = np.maximum(z, _LOG_SINH_SWITCH)
    return z + np.where(z < _LOG_SINH_SWITCH, np.log(-np.expm1(-2.0 * lo)),
                        np.log1p(-np.exp(-2.0 * hi))) - _LN2


def logsumexp(a, axis: int = -1):
    """ln(sum(exp(a))) along ``axis``.

    The maximum of each slice is split off, as in scipy's logsumexp: with
    ``top`` the maximum, ``count`` its multiplicity and ``rest`` the sum of
    the other exp(a - top), the result is top + ln(count) + log1p(rest /
    count).  Slices whose entries are all -inf give -inf, without a warning.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    at_top = a == top
    count = np.sum(at_top, axis=axis, keepdims=True)
    shift = np.where(top == -np.inf, 0.0, top)
    rest = np.sum(np.exp(np.where(at_top, -np.inf, a) - shift), axis=axis, keepdims=True)
    return np.squeeze(np.log1p(rest / count) + np.log(count) + top, axis=axis)


def log_cosh_sum(u, v):
    """ln(cosh(u) + cosh(v)) via a 4-term logsumexp; overflow-safe."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    stacked = np.stack(np.broadcast_arrays(u, -u, v, -v))
    return logsumexp(stacked, axis=0) - _LN2


def log_sinh_ratio(w, h):
    """ln[sinh(h) / (cosh(w) + cosh(h))] for h > 0, the shape factor of the
    AL, CH and CL densities.  The two logs are subtracted before a caller
    adds its log-normalizer, which would be lost beside h ~ 1e15 or more."""
    return log_sinh(h) - log_cosh_sum(w, h)


def sech2(z):
    """sech^2(z) evaluated in exp-shifted form (underflows cleanly)."""
    t = np.exp(-2.0 * np.abs(z))
    return 4.0 * t / (1.0 + t) ** 2


def csch2(z):
    """csch^2(z) for z != 0, exp-shifted."""
    w = -2.0 * np.abs(z)
    return 4.0 * np.exp(w) / np.expm1(w) ** 2  # (1 - e^w)^2, without cancellation


def coth(z):
    return 1.0 / np.tanh(z)


def log_expm1(w):
    """ln(e^w - 1) for w > 0, stable at both ends."""
    w = np.asarray(w, dtype=float)
    small = w < 30.0
    out = np.where(small, np.log(np.expm1(np.where(small, w, 1.0))),
                   w + np.log1p(-np.exp(-np.where(small, 1.0, w))))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Alternating series with convergence acceleration
# ---------------------------------------------------------------------------

def _alternating_sum(terms: np.ndarray) -> float:
    """Sum_{k>=0} (-1)^k a_k for totally monotone a_k (Cohen-Villegas-Zagier).

    Convergence is geometric at rate (3+sqrt(8))^-1 per term, so ~40 terms
    reach double precision even when the plain series barely converges.
    """
    m = len(terms)
    d = (3.0 + math.sqrt(8.0)) ** m
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = 0.0
    for k in range(m):
        c = b - c
        s += c * terms[k]
        b *= (k + m) * (k - m) / ((k + 0.5) * (k + 1.0))
    return s / d


def _li_neg_series(order: float, x: float) -> float:
    """Li_order(-e^x) for x <= 0 via the defining series.

    Direct summation for e^x < 1/2; accelerated alternating summation
    otherwise (covers e^x -> 1 where the plain series stalls).
    """
    z = math.exp(x)
    if z < 0.5:
        total = 0.0
        for k in range(1, 400):
            term = math.exp(k * x) / k ** order
            total += -term if k % 2 == 1 else term
            if term < 1e-18 * max(abs(total), 1e-300):
                break
        return total
    m = 48
    ks = np.arange(1, m + 1, dtype=float)
    terms = np.exp(ks * x) / ks ** order
    return -_alternating_sum(terms)


@lru_cache(maxsize=64)
def _li_at_minus_one(order: int) -> float:
    """Li_order(-1); Li_2(-1) = -pi^2/12 and Li_4(-1) = -7 pi^4/720 pinned."""
    if order == 2:
        return -math.pi ** 2 / 12.0
    if order == 4:
        return -7.0 * math.pi ** 4 / 720.0
    return _li_neg_series(float(order), 0.0)


def polylog_neg(n: int, x: float) -> float:
    """Li_n(-e^x) for integer n >= 2 and real x.

    For x <= 0 the series converges; for x > 0 the standard inversion
    relation Li_n(-z) + (-1)^n Li_n(-1/z) = -(ln z)^n/n!
    + 2 sum_k (ln z)^(n-2k)/(n-2k)! Li_2k(-1) maps back to a convergent
    argument.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"polylog_neg supports integer n >= 2, got {n!r}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if x <= 0.0:
        return _li_neg_series(float(n), x)
    reflected = _li_neg_series(float(n), -x)
    total = -((-1.0) ** n) * reflected - x ** n / math.factorial(n)
    for k in range(1, n // 2 + 1):
        total += 2.0 * x ** (n - 2 * k) / math.factorial(n - 2 * k) * _li_at_minus_one(2 * k)
    return total


# ---------------------------------------------------------------------------
# Fermi-Dirac integrals
# ---------------------------------------------------------------------------

def fermi_dirac_complete(j: float, x: float) -> float:
    """Complete Fermi-Dirac integral F_j(x), strictly increasing in x.

    Closed forms: F_0(x) = ln(1+e^x) exactly; integer j uses the
    polylogarithm identity; fractional j falls back to adaptive quadrature
    (series for x <= 0, where it converges for any order).
    """
    j = float(j)
    if not j > -1.0:
        raise ValueError(f"Fermi-Dirac order must satisfy j > -1, got {j}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if j == 0.0:
        return float(softplus(x))
    if x <= 0.0:
        return -_li_neg_series(j + 1.0, x)
    if float(j).is_integer():
        return -polylog_neg(int(j) + 1, x)
    # Under t = u^m with m = max(1, ceil(1/(j+1))), m(j+1) >= 1, so the
    # integrand m u^(m(j+1)-1) / (1 + e^(u^m - x)) is bounded at u = 0.
    mf = float(max(1, math.ceil(1.0 / (j + 1.0))))

    def integrand(u: np.ndarray) -> np.ndarray:
        return mf * u ** (mf * (j + 1.0) - 1.0) * _expit(x - u ** mf)

    # The Fermi step sits at t = x; over t in [x - 40, x + 40] the factor
    # e^(x - t) moves by e^40, so panels bracket the whole step in u = t^(1/m).
    step = (max(x - 40.0, 0.0), x, x + 40.0)
    with np.errstate(over="ignore"):  # for _expit
        res = integrate(integrand, 0.0, math.inf, _FD_SETTINGS,
                        points=tuple(t ** (1.0 / mf) for t in step))
    return res.value / math.gamma(j + 1.0)


# ---------------------------------------------------------------------------
# Classical special functions: wrappers of scipy.special, imported where
# called (``univariate`` and ``divergence`` call it themselves); validated
# domains
# ---------------------------------------------------------------------------

def erf(x):
    from scipy import special as sp

    return sp.erf(x)


def incomplete_gamma(s: float, x: float, tail: str = "lower") -> float:
    """Non-regularized incomplete gamma; lower and upper tails sum to Gamma(s)."""
    if not s > 0:
        raise ValueError(f"shape must be positive, got {s}")
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    from scipy import special as sp

    if tail == "lower":
        return float(sp.gammainc(s, x)) * math.gamma(s)
    if tail == "upper":
        return float(sp.gammaincc(s, x)) * math.gamma(s)
    raise ValueError(f"tail must be 'lower' or 'upper', got {tail!r}")


def log_beta(a: float, b: float) -> float:
    if not (a > 0 and b > 0):
        raise ValueError(f"log_beta requires a, b > 0, got a={a}, b={b}")
    from scipy import special as sp

    return float(sp.betaln(a, b))
