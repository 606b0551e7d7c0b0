"""Special functions: Fermi-Dirac integrals, polylogarithms at negative
exponential argument, classical gamma/beta/erf wrappers, and the stable
hyperbolic helpers shared by the distribution code.

Conventions
-----------
``polylog_neg(n, x)`` returns Li_n(-e^x), i.e. the polylogarithm evaluated on
the negative real axis with the argument given in log form.  The complete
Fermi-Dirac integral of order ``j`` is

    F_j(x) = (1/Gamma(j+1)) * Int_0^inf t^j / (e^(t-x) + 1) dt = -Li_{j+1}(-e^x)

and the incomplete variant replaces the lower limit 0 by ``u >= 0``.
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
    "logsumexp",
    "sech2",
    "csch2",
    "coth",
    "log_expm1",
    "polylog_neg",
    "fermi_dirac_complete",
    "fermi_dirac_incomplete",
    "erf",
    "incomplete_gamma",
    "log_beta",
]

_LN2 = math.log(2.0)

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
    """1 / (1 + e^-z)."""
    from scipy import special as sp

    return sp.expit(z)


def log_cosh(z):
    """ln cosh(z), exp-shifted for large |z|."""
    az = np.abs(z)
    return az + np.log1p(np.exp(-2.0 * az)) - _LN2


def log_sinh(z):
    """ln sinh(z) for z > 0, exp-shifted for large z."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("log_sinh requires z > 0")
    return z + np.log1p(-np.exp(-2.0 * z)) - _LN2


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


def sech2(z):
    """sech^2(z) evaluated in exp-shifted form (underflows cleanly)."""
    t = np.exp(-2.0 * np.abs(z))
    return 4.0 * t / (1.0 + t) ** 2


def csch2(z):
    """csch^2(z) for z != 0, exp-shifted."""
    t = np.exp(-2.0 * np.abs(z))
    return 4.0 * t / (1.0 - t) ** 2


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
        term_log = 0.0
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

def _check_order(j: float) -> float:
    j = float(j)
    if not j > -1.0:
        raise ValueError(f"Fermi-Dirac order must satisfy j > -1, got {j}")
    return j


def fermi_dirac_complete(j: float, x: float) -> float:
    """Complete Fermi-Dirac integral F_j(x), strictly increasing in x.

    Closed forms: F_0(x) = ln(1+e^x) exactly; integer j uses the
    polylogarithm identity; fractional j falls back to adaptive quadrature
    (series for x <= 0, where it converges for any order).
    """
    j = _check_order(j)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if j == 0.0:
        return float(softplus(x))
    if x <= 0.0:
        return -_li_neg_series(j + 1.0, x)
    if float(j).is_integer():
        return -polylog_neg(int(j) + 1, x)
    # Fractional order, x > 0: substitute t = u^m to clear the t^j
    # singularity at the origin (m(j+1) >= 1 makes the integrand bounded).
    from scipy import special as sp

    m = max(1, math.ceil(1.0 / (j + 1.0)))
    mf = float(m)

    def integrand(u: np.ndarray) -> np.ndarray:
        um = u ** mf
        return mf * u ** (mf * (j + 1.0) - 1.0) * sp.expit(x - um)

    # The Fermi step sits at t = x; over t in [x - 40, x + 40] the factor
    # e^(x - t) moves by e^40, so panels bracket the whole step in u = t^(1/m).
    step = (max(x - 40.0, 0.0), x, x + 40.0)
    res = integrate(integrand, 0.0, math.inf, _FD_SETTINGS,
                    points=tuple(t ** (1.0 / mf) for t in step))
    return res.value / math.gamma(j + 1.0)


def fermi_dirac_incomplete(j: float, x: float, u: float) -> float:
    """Incomplete Fermi-Dirac integral with lower limit u >= 0.

    Equals the complete integral at u = 0; for j = 0 it is
    ln(1 + e^(x-u)) exactly.  Negative orders with a small lower limit are
    computed as complete minus head, with the head integral substituted to
    clear the t^j edge singularity.
    """
    j = _check_order(j)
    u = float(u)
    if u < 0.0:
        raise ValueError(f"lower limit must satisfy u >= 0, got {u}")
    if j == 0.0:
        return float(softplus(x - u))
    if u == 0.0:
        return fermi_dirac_complete(j, x)
    from scipy import special as sp

    if j < 0.0 and u <= 1.0:
        m = max(1, math.ceil(1.0 / (j + 1.0)))
        mf = float(m)

        def head(w: np.ndarray) -> np.ndarray:
            return mf * w ** (mf * (j + 1.0) - 1.0) * sp.expit(x - w ** mf)

        head_val = integrate(head, 0.0, u ** (1.0 / mf), _FD_SETTINGS).value
        return fermi_dirac_complete(j, x) - head_val / math.gamma(j + 1.0)

    def integrand(t: np.ndarray) -> np.ndarray:
        return t ** j * sp.expit(x - t)

    hints = (x,) if x > u else ()
    res = integrate(integrand, u, math.inf, _FD_SETTINGS, points=hints)
    return res.value / math.gamma(j + 1.0)


# ---------------------------------------------------------------------------
# Classical special functions (scipy.special, imported where called;
# validated domains)
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
