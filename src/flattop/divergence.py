"""KL divergence and L1 distance between densities.

Closed forms cover the two benchmark pairs: a uniform interval against its
best-fit normal, and the uniform n-ball against its best-fit spherical
normal.  The numeric routes take one path per dimension.  Two univariate
specs are integrated by adaptive quadrature started from the union of the
edges of both specs' panel tables (``univariate._table``), so every mode,
a, b and steep CF/CH edge of either density, and the cut of each one's
tails, is a panel edge.  Two n-d densities of one dimension are compared by
Monte Carlo: antithetic pairs, each draw reflected through the centre of
the density it was drawn from, reduced to a mean and its standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import univariate as uv
from .multivariate import MultivariateSpec, mv_log_pdf, mv_sample
from .quadrature import QuadratureSettings, integrate

__all__ = [
    "DivergenceResult",
    "GaussianND",
    "kl_numeric",
    "l1_numeric",
    "bestfit_normal_of_uniform",
    "uniform_vs_bestfit_normal_1d",
    "bestfit_normal_of_ball",
    "ball_vs_bestfit_normal",
    "chi_n",
]

_DIV_SETTINGS = QuadratureSettings(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=4000)


@dataclass(frozen=True)
class DivergenceResult:
    """KL is in nats; L1 lies in [0, 2]; ``mc_stderr`` only for Monte Carlo."""

    kl: float
    l1: float
    method: str
    mc_stderr: float | None = None


@dataclass
class GaussianND:
    """Multivariate normal reference density for divergence comparisons."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        n = self.mean.size
        if self.cov.shape != (n, n):
            raise ValueError(f"cov must be {n}x{n}")
        self._chol = np.linalg.cholesky(self.cov)
        self._log_det = 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    @property
    def n(self) -> int:
        return self.mean.size


def _mv_center(obj) -> np.ndarray:
    return obj.mean if isinstance(obj, GaussianND) else obj.m


def _mv_logpdf(obj, pts: np.ndarray) -> np.ndarray:
    if isinstance(obj, GaussianND):
        z = np.linalg.solve(obj._chol, (pts - obj.mean).T)
        return -0.5 * (obj.n * math.log(2.0 * math.pi) + obj._log_det + np.sum(z * z, axis=0))
    return np.atleast_1d(mv_log_pdf(obj, pts))


def _mv_draw(obj, count: int, seed: int) -> np.ndarray:
    if isinstance(obj, GaussianND):
        z = np.random.default_rng(seed).standard_normal((count, obj.n))
        return obj.mean + z @ obj._chol.T
    return mv_sample(obj, count, seed).rows


def _univariate_pair(p, q) -> bool:
    """True for two univariate specs (quadrature), False for two n-d
    densities of one dimension (Monte Carlo); any other pair is rejected."""
    if isinstance(p, uv.UnivariateSpec) and isinstance(q, uv.UnivariateSpec):
        return True
    n_d = (MultivariateSpec, GaussianND)
    if not (isinstance(p, n_d) and isinstance(q, n_d)):
        raise TypeError("p and q must both be univariate or both multivariate specs")
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {q.n}")
    return False


# k of each family's log-density, which falls like -|x|^k: beta for GN, CF
# and CH; 0 for DE and CC, which fall like -ln|x|; U vanishes past b.
_LOG_DECAY = {"U": math.inf, "AN": 2.0, "AL": 1.0, "ALS": 1.0, "BL": 1.0, "BD": 1.0,
              "CC": 0.0, "CE": 2.0, "DE": 0.0}


def _kl_diverges(p: uv.UnivariateSpec, q: uv.UnivariateSpec) -> bool:
    """True when p has a power tail |x|^-alpha (alpha = 2 for DE, beta for
    CC) and q's log-density falls like -|x|^k with k >= alpha - 1: then
    -p ln q decays no faster than 1/|x|, and KL(p || q) is +inf."""
    alpha = {"DE": 2.0, "CC": p.beta}.get(p.family)
    return alpha is not None and _LOG_DECAY.get(q.family, q.beta) >= alpha - 1.0


def _edges(p: uv.UnivariateSpec, q: uv.UnivariateSpec) -> list[float]:
    """The edges of both specs' panel tables, as break points."""
    return sorted({*uv._table(p)[0].tolist(), *uv._table(q)[0].tolist()})


def _antithetic(draws_from) -> np.ndarray:
    """The draws of each (density, count, seed), then every draw reflected
    through the centre of the density it was drawn from: row i and row
    i + half form an antithetic pair."""
    draws = [_mv_draw(obj, count, seed) for obj, count, seed in draws_from]
    return np.vstack(draws + [2.0 * _mv_center(obj) - d
                              for (obj, _, _), d in zip(draws_from, draws)])


def _pair_mean(vals: np.ndarray) -> tuple[float, float]:
    """Mean of the antithetic pair means of ``vals`` and its standard error."""
    half = vals.size // 2
    pair_means = 0.5 * (vals[:half] + vals[half:])
    return (float(np.mean(pair_means)),
            float(np.std(pair_means, ddof=1) / math.sqrt(half)))


def kl_numeric(p, q, mc_draws: int = 1_000_000, seed: int = 0) -> DivergenceResult:
    """KL(p || q); quadrature in 1-d, Monte Carlo on p's antithetic draws in
    n-d.  Returns +inf when q vanishes on p's support, and in 1-d, without
    integrating, when q's tails are too light for p's power tails."""
    if _univariate_pair(p, q):
        if _kl_diverges(p, q):
            return DivergenceResult(kl=math.inf, l1=math.nan, method="quadrature")
        lo, hi = uv.support(p)
        blown = [False]

        def integrand(x: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):  # 0 * -inf is dropped
                px, lq = uv.pdf(p, x), uv.log_pdf(q, x)
                out = np.where(px > 0.0, px * (uv.log_pdf(p, x) - lq), 0.0)
            blown[0] |= bool(np.any((px > 1e-300) & ~np.isfinite(lq)))
            return np.where(np.isfinite(out), out, 0.0)

        val = integrate(integrand, lo, hi, _DIV_SETTINGS, points=_edges(p, q)).value
        return DivergenceResult(kl=math.inf if blown[0] else val, l1=math.nan,
                                method="quadrature")
    pts = _antithetic([(p, mc_draws // 2, seed)])
    vals = _mv_logpdf(p, pts) - _mv_logpdf(q, pts)
    if not np.all(np.isfinite(vals)):
        return DivergenceResult(kl=math.inf, l1=math.nan, method="monte_carlo")
    est, se = _pair_mean(vals)
    return DivergenceResult(kl=est, l1=math.nan, method="monte_carlo", mc_stderr=se)


def l1_numeric(p, q, mc_draws: int = 1_000_000, seed: int = 0) -> DivergenceResult:
    """Integrated absolute density difference (total variation times two);
    in n-d the mean of 2|p - q|/(p + q) over the even mixture (p + q)/2."""
    if _univariate_pair(p, q):
        def integrand(x: np.ndarray) -> np.ndarray:
            return np.abs(uv.pdf(p, x) - uv.pdf(q, x))

        val = integrate(integrand, -math.inf, math.inf, _DIV_SETTINGS,
                        points=_edges(p, q)).value
        return DivergenceResult(kl=math.nan, l1=val, method="quadrature")
    quarter = mc_draws // 4
    pts = _antithetic([(p, quarter, seed), (q, quarter, seed + 1)])
    with np.errstate(invalid="ignore"):  # both densities 0: -inf - -inf
        gap = np.abs(_mv_logpdf(p, pts) - _mv_logpdf(q, pts))
    # 2|p - q|/(p + q) = 2 tanh(|ln p - ln q|/2), with no 0/0.
    est, se = _pair_mean(np.where(np.isnan(gap), 0.0, 2.0 * np.tanh(0.5 * gap)))
    return DivergenceResult(kl=math.nan, l1=est, method="monte_carlo", mc_stderr=se)


# ---------------------------------------------------------------------------
# Closed forms: uniform interval vs best-fit normal
# ---------------------------------------------------------------------------

def bestfit_normal_of_uniform(a: float, b: float) -> tuple[float, float]:
    """(mean, variance) of the ML normal fitted to U(a, b): midpoint and
    half-width squared over three."""
    if not a < b:
        raise ValueError(f"requires a < b, got a={a}, b={b}")
    r = 0.5 * (b - a)
    return 0.5 * (a + b), r * r / 3.0


def uniform_vs_bestfit_normal_1d() -> tuple[float, float]:
    """(KL, L1) of U(a, b) against its best-fit normal; independent of a, b.

    KL = ln(pi e / 6) / 2 and the L1 distance follows from the two interior
    crossing points of the densities.
    """
    kl = 0.5 * math.log(math.pi * math.e / 6.0)
    w = math.log(6.0 / math.pi)
    l1 = 2.0 * (1.0 - math.sqrt(w / 3.0)
                + math.erf(math.sqrt(w / 2.0)) - math.erf(math.sqrt(1.5)))
    return kl, l1


# ---------------------------------------------------------------------------
# Closed forms: uniform ball vs best-fit spherical normal
# ---------------------------------------------------------------------------

def bestfit_normal_of_ball(n: int, r: float) -> float:
    """Per-axis variance r^2/(n+2) of the ML spherical normal fitted to the
    uniform n-ball."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    return r * r / (n + 2.0)


def chi_n(n: int) -> float:
    """Relative radius at which the ball density and its best-fit normal
    cross."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    half = n / 2.0
    return math.sqrt(math.log((half + 1.0) ** half / math.gamma(half + 1.0))
                     / (half + 1.0))


def ball_vs_bestfit_normal(n: int) -> tuple[float, float, float]:
    """(KL, L1, chi_n) for the uniform n-ball against its best-fit normal;
    both divergences increase monotonically with n."""
    from scipy import special as sp

    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    half = n / 2.0
    kl = math.lgamma(half + 1.0) - half * math.log(half + 1.0) + half
    chi = chi_n(n)
    upper_at = lambda x: float(sp.gammaincc(half, x)) * math.gamma(half)
    l1 = 2.0 * (1.0 - chi ** n
                - (upper_at((half + 1.0) * chi * chi) - upper_at(half + 1.0))
                / math.gamma(half))
    return kl, l1, chi
