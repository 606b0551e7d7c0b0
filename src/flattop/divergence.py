"""KL divergence and L1 distance between densities.

Closed forms cover the two benchmark pairs: a uniform interval against its
best-fit normal, and the uniform n-ball against its best-fit spherical
normal.  Generic numeric routes use adaptive quadrature in one dimension
and Monte Carlo with a reported standard error beyond.
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


def _mv_dim(obj) -> int:
    return obj.n


def _mv_center(obj) -> np.ndarray:
    return obj.mean if isinstance(obj, GaussianND) else obj.m


def _mv_logpdf(obj, pts: np.ndarray) -> np.ndarray:
    if isinstance(obj, GaussianND):
        d = pts - obj.mean
        z = np.linalg.solve(obj._chol, d.T)
        n = obj.n
        return -0.5 * (n * math.log(2.0 * math.pi) + obj._log_det
                       + np.sum(z * z, axis=0))
    return np.atleast_1d(mv_log_pdf(obj, pts))


def _mv_pdf_vals(obj, pts: np.ndarray) -> np.ndarray:
    with np.errstate(under="ignore"):
        return np.exp(_mv_logpdf(obj, pts))


def _mv_draw(obj, count: int, seed: int) -> np.ndarray:
    if isinstance(obj, GaussianND):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((count, obj.n))
        return obj.mean + z @ obj._chol.T
    return mv_sample(obj, count, seed).rows


def _is_mv(obj) -> bool:
    return isinstance(obj, (MultivariateSpec, GaussianND))


def _hints(p: uv.UnivariateSpec, q: uv.UnivariateSpec) -> tuple[float, ...]:
    pts = [uv.mode(p), uv.mode(q)]
    for d in (p, q):
        if d.a is not None:
            pts += [d.a, d.b]
    return tuple(pts)


def kl_numeric(p, q, mc_draws: int = 1_000_000, seed: int = 0) -> DivergenceResult:
    """KL(p || q); quadrature in 1-d, Monte Carlo with antithetic pairing in
    n-d.  Returns +inf when q vanishes on p's support."""
    if isinstance(p, uv.UnivariateSpec) and isinstance(q, uv.UnivariateSpec):
        lo, hi = uv.support(p)
        blown = [False]

        def integrand(x: np.ndarray) -> np.ndarray:
            px = uv.pdf(p, x)
            lq = uv.log_pdf(q, x)
            lp = uv.log_pdf(p, x)
            out = np.where(px > 0.0, px * (lp - lq), 0.0)
            if np.any((px > 1e-300) & ~np.isfinite(lq)):
                blown[0] = True
                return np.where(np.isfinite(out), out, 0.0)
            return out

        val = integrate(integrand, lo, hi, _DIV_SETTINGS, points=_hints(p, q)).value
        if blown[0]:
            return DivergenceResult(kl=math.inf, l1=math.nan, method="quadrature")
        return DivergenceResult(kl=val, l1=math.nan, method="quadrature")
    if _is_mv(p) and _is_mv(q):
        if _mv_dim(p) != _mv_dim(q):
            raise ValueError(f"dimension mismatch: {_mv_dim(p)} vs {_mv_dim(q)}")
        half = mc_draws // 2
        draws = _mv_draw(p, half, seed)
        mirrored = 2.0 * _mv_center(p) - draws  # antithetic reflection
        pts = np.vstack([draws, mirrored])
        vals = _mv_logpdf(p, pts) - _mv_logpdf(q, pts)
        if not np.all(np.isfinite(vals)):
            return DivergenceResult(kl=math.inf, l1=math.nan, method="monte_carlo")
        pair_means = 0.5 * (vals[:half] + vals[half:])
        est = float(np.mean(pair_means))
        se = float(np.std(pair_means, ddof=1) / math.sqrt(half))
        return DivergenceResult(kl=est, l1=math.nan, method="monte_carlo", mc_stderr=se)
    raise TypeError("p and q must both be univariate or both multivariate specs")


def l1_numeric(p, q, mc_draws: int = 1_000_000, seed: int = 0) -> DivergenceResult:
    """Integrated absolute density difference (total variation times two)."""
    if isinstance(p, uv.UnivariateSpec) and isinstance(q, uv.UnivariateSpec):
        def integrand(x: np.ndarray) -> np.ndarray:
            return np.abs(uv.pdf(p, x) - uv.pdf(q, x))

        val = integrate(integrand, -math.inf, math.inf, _DIV_SETTINGS,
                        points=_hints(p, q)).value
        return DivergenceResult(kl=math.nan, l1=val, method="quadrature")
    if _is_mv(p) and _is_mv(q):
        if _mv_dim(p) != _mv_dim(q):
            raise ValueError(f"dimension mismatch: {_mv_dim(p)} vs {_mv_dim(q)}")
        # Sample the even mixture (p + q)/2 and average 2|p - q|/(p + q).
        half = mc_draws // 2
        quarter = half // 2
        pts = np.vstack([
            _mv_draw(p, quarter, seed),
            _mv_draw(q, half - quarter, seed + 1),
        ])
        pts = np.vstack([pts, 2.0 * _mv_center(p) - pts])
        pv = _mv_pdf_vals(p, pts)
        qv = _mv_pdf_vals(q, pts)
        ratio = np.where(pv + qv > 0.0, 2.0 * np.abs(pv - qv) / (pv + qv), 0.0)
        pair_means = 0.5 * (ratio[:half] + ratio[half:])
        est = float(np.mean(pair_means))
        se = float(np.std(pair_means, ddof=1) / math.sqrt(half))
        return DivergenceResult(kl=math.nan, l1=est, method="monte_carlo", mc_stderr=se)
    raise TypeError("p and q must both be univariate or both multivariate specs")


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
