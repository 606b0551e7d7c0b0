"""Elliptical flat-topped densities in n dimensions.

Three families over the Mahalanobis radius rho = ((x-m)^T Sigma^-1 (x-m))^(1/2):

* CM: sigmoid shoulder, p proportional to 1/(1 + exp((rho^n - r^n) t)),
* CL: cosh ratio, p proportional to sinh(r^n t)/(cosh(rho^n t) + cosh(r^n t)),
* MU: the uniform ball of radius r (the t -> infinity limit of CL with
  Sigma = I).

At n = 1 with t = 1/s, CM and CL reproduce the univariate Fermi-function
and cosh-ratio families pointwise.  Specs are immutable by convention;
evaluation is vectorized over rows of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .data_io import Dataset

__all__ = [
    "MultivariateSpec",
    "make_mv",
    "mahalanobis",
    "mv_pdf",
    "mv_log_pdf",
    "mv_normalizer",
    "mv_sample",
    "normalize_sigma",
    "mv_to_json_dict",
    "mv_from_json_dict",
    "ball_volume",
]

_MV_FAMILIES = ("CM", "CL", "MU")


def ball_volume(n: int, r: float) -> float:
    """Volume of the n-ball of radius r."""
    return math.pi ** (n / 2.0) * r ** n / math.gamma(n / 2.0 + 1.0)


@dataclass
class MultivariateSpec:
    """Validated elliptical spec with cached Cholesky factor and normalizer.

    ``t`` is None exactly for MU.  Treat instances as immutable.
    """

    family: str
    n: int
    m: np.ndarray
    sigma: np.ndarray
    r: float
    t: float | None
    chol: np.ndarray
    log_det: float
    c: float


def make_mv(
    family: str,
    m,
    r: float,
    t: float | None = None,
    sigma=None,
) -> MultivariateSpec:
    """Validate parameters and cache the triangular factor and normalizer.

    ``sigma`` defaults to the identity; MU ignores any ``t`` and requires
    the identity metric.
    """
    if family not in _MV_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {_MV_FAMILIES}")
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if m.ndim != 1 or m.size < 1:
        raise ValueError("location m must be a vector")
    n = m.size
    if not np.all(np.isfinite(m)):
        raise ValueError("location m must be finite")
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"dispersion r must be positive, got {r}")
    if sigma is None:
        sigma = np.eye(n)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (n, n):
        raise ValueError(f"Sigma must be {n}x{n}, got {sigma.shape}")
    if not np.allclose(sigma, sigma.T, rtol=1e-12, atol=1e-12):
        raise ValueError("Sigma must be symmetric")
    sigma = 0.5 * (sigma + sigma.T)
    if family == "MU":
        if not np.allclose(sigma, np.eye(n)):
            raise ValueError("MU uses the identity metric; Sigma must be I")
        t = None
    else:
        if t is None or not (math.isfinite(t) and t > 0):
            raise ValueError(f"slope t must be positive, got {t}")
        t = float(t)
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Sigma must be positive definite") from exc
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    spec = MultivariateSpec(family=family, n=n, m=m, sigma=sigma, r=float(r),
                            t=t, chol=chol, log_det=log_det, c=math.nan)
    spec.c = _normalizer(spec)
    return spec


def _normalizer(spec: MultivariateSpec) -> float:
    n, r = spec.n, spec.r
    half_log_det = 0.5 * spec.log_det
    log_unit = math.lgamma(n / 2.0 + 1.0) - (n / 2.0) * math.log(math.pi)
    if spec.family == "MU":
        return math.exp(log_unit - n * math.log(r))
    if spec.family == "CL":
        return math.exp(log_unit - n * math.log(r) - half_log_det)
    # CM
    a = r ** n * spec.t
    return math.exp(math.log(spec.t) + log_unit - half_log_det
                    - math.log(float(specfun.softplus(a))))


def mv_normalizer(spec: MultivariateSpec) -> float:
    """The closed-form constant in front of the shape factor."""
    return spec.c


def _rows(x, n: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.size != n:
            raise ValueError(f"point has dimension {arr.size}, spec has {n}")
        return arr.reshape(1, n), True
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"points must have shape (N, {n}), got {arr.shape}")
    return arr, False


def mahalanobis(x, spec: MultivariateSpec):
    """Elliptical radius of ``x`` (one point or rows of points): one
    triangular solve and one norm."""
    from scipy import linalg

    rows, single = _rows(x, spec.n)
    z = linalg.solve_triangular(spec.chol, (rows - spec.m).T, lower=True)
    rho = np.sqrt(np.sum(z * z, axis=0))
    return float(rho[0]) if single else rho


def mv_log_pdf(spec: MultivariateSpec, x):
    """Log density, exp-shifted so large r^n t and rho^n t are safe."""
    rows, single = _rows(x, spec.n)
    rho = mahalanobis(rows, spec)
    rho = np.atleast_1d(rho)
    n, r = spec.n, spec.r
    if spec.family == "MU":
        out = np.where(rho <= r, math.log(spec.c), -math.inf)
    elif spec.family == "CM":
        out = math.log(spec.c) - specfun.softplus((rho ** n - r ** n) * spec.t)
    else:  # CL
        a = r ** n * spec.t
        out = (math.log(spec.c) + float(specfun.log_sinh(a))
               - specfun.log_cosh_sum(rho ** n * spec.t, np.full_like(rho, a)))
    return float(out[0]) if single else out


def mv_pdf(spec: MultivariateSpec, x):
    """Density; constant on Mahalanobis ellipsoids."""
    out = mv_log_pdf(spec, x)
    if np.isscalar(out) or np.ndim(out) == 0:
        return math.exp(out) if out > -math.inf else 0.0
    with np.errstate(under="ignore"):
        return np.exp(out)


def _radial_u_quantile(spec: MultivariateSpec, v: np.ndarray) -> np.ndarray:
    """Inverse CDF of u = rho^n under the spec's radial law."""
    n, r = spec.n, spec.r
    rn = r ** n
    if spec.family == "MU":
        return v * rn
    if spec.family == "CM":
        # u-density proportional to expit((r^n - u) t) on (0, inf).
        a = rn * spec.t
        ell = float(specfun.softplus(a))
        w = ell * (1.0 - v)
        return (a - specfun.log_expm1(w)) / spec.t
    # CL: u = |X| with X symmetric about 0 following the logistic-difference
    # law on (-r^n, r^n) scale 1/t, so the closed quantile applies directly.
    from .univariate import _quantile_al_like

    return _quantile_al_like(0.5 * (1.0 + v), 0.0, rn, 1.0 / spec.t)


def mv_sample(spec: MultivariateSpec, count: int, seed: int) -> Dataset:
    """Exact sampler: inverse-transform radial law times a uniform direction,
    then the triangular factor and shift."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    v = rng.random(count)
    u = np.asarray(_radial_u_quantile(spec, v), dtype=float)
    rho = np.maximum(u, 0.0) ** (1.0 / spec.n)
    direction = rng.standard_normal((count, spec.n))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    # Degenerate zero-norm draws are essentially impossible; guard anyway.
    norms[norms == 0.0] = 1.0
    direction /= norms
    pts = spec.m + (rho[:, None] * direction) @ spec.chol.T
    prov = f"mv_sample:{spec.family}(n={spec.n},r={spec.r},t={spec.t});seed={seed}"
    return Dataset(rows=pts, provenance=prov)


def normalize_sigma(spec: MultivariateSpec) -> MultivariateSpec:
    """Equivalent spec with |Sigma| = 1 (resolves the Sigma/t redundancy);
    the density is unchanged pointwise."""
    if spec.family == "MU":
        return spec
    k = math.exp(spec.log_det / spec.n)  # |Sigma|^(1/n)
    sigma = spec.sigma / k
    scale = math.exp(0.5 * spec.log_det)  # |Sigma|^(1/2)
    r_new = spec.r * k ** 0.5
    t_new = spec.t / scale
    return make_mv(spec.family, spec.m, r_new, t_new, sigma)


def mv_to_json_dict(spec: MultivariateSpec) -> dict:
    out = {
        "family": spec.family,
        "n": spec.n,
        "m": spec.m.tolist(),
        "Sigma": spec.sigma.tolist(),
        "r": spec.r,
    }
    if spec.t is not None:
        out["t"] = spec.t
    return out


def mv_from_json_dict(obj) -> MultivariateSpec:
    allowed = {"family", "n", "m", "Sigma", "r", "t"}
    extra = set(obj) - allowed
    if extra:
        raise ValueError(f"unknown keys: {sorted(extra)}")
    spec = make_mv(obj["family"], obj["m"], obj["r"], obj.get("t"), obj.get("Sigma"))
    if spec.n != int(obj["n"]):
        raise ValueError(f"declared n={obj['n']} does not match m of length {spec.n}")
    return spec
