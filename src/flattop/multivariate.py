"""Elliptical flat-topped densities in n dimensions.

Three families over the Mahalanobis radius rho = ((x-m)^T Sigma^-1 (x-m))^(1/2):

* CM: sigmoid shoulder, p proportional to 1/(1 + exp((rho^n - r^n) t)),
* CL: cosh ratio, p proportional to sinh(r^n t)/(cosh(rho^n t) + cosh(r^n t)),
* MU: the uniform ball of radius r (the t -> infinity limit of CL with
  Sigma = I).

Each is a univariate law in u = rho^n, symmetric about 0 (the spec's
``radial``): CL is AL(a = -r^n, b = r^n, s = 1/t), CM is CF(m = 0,
r = r^n, s = 1/t, beta = 1) and MU is U(-r^n, r^n).  The volume element is
dx = |Sigma|^(1/2) pi^(n/2) / Gamma(n/2 + 1) du, so

    p(x) = 2 Gamma(n/2 + 1) / (pi^(n/2) |Sigma|^(1/2)) p_radial(rho^n),

the normalizer is that factor times the radial one, and a draw takes u =
|U| for U of the radial law: its quantile at (1 + v)/2, v uniform on
[0, 1).  At n = 1 with t = 1/s, CM and CL reproduce the univariate
Fermi-function and cosh-ratio families pointwise.  Specs are immutable by
convention; evaluation is vectorized over rows of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import univariate as uv
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

# Each family's radial law from R = r^n and the slope t (see the module
# docstring); the one per-family table.
_RADIAL = {
    "CM": lambda big_r, t: uv.make("CF", {"m": 0.0, "r": big_r, "s": 1.0 / t, "beta": 1.0}),
    "CL": lambda big_r, t: uv.make("AL", {"a": -big_r, "b": big_r, "s": 1.0 / t}),
    "MU": lambda big_r, t: uv.make("U", {"a": -big_r, "b": big_r}),
}
_MV_FAMILIES = tuple(_RADIAL)


def ball_volume(n: int, r: float) -> float:
    """Volume of the n-ball of radius r."""
    return math.pi ** (n / 2.0) * r ** n / math.gamma(n / 2.0 + 1.0)


@dataclass
class MultivariateSpec:
    """Validated elliptical spec with cached Cholesky factor, normalizer and
    radial law in u = rho^n.

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
    radial: uv.UnivariateSpec


def make_mv(
    family: str,
    m,
    r: float,
    t: float | None = None,
    sigma=None,
) -> MultivariateSpec:
    """Validate parameters and cache the triangular factor, the radial law
    and the normalizer.

    ``sigma`` defaults to the identity; MU ignores any ``t`` and requires
    the identity metric.  A spec whose r^n, r^n t, 1/t or normalizer is not
    a finite, positive double raises ValueError.
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
    try:  # r^n raises OverflowError; the radial make rejects the rest
        radial = _RADIAL[family](float(r) ** n, t)
        c = math.exp(math.log(2.0) + math.lgamma(n / 2.0 + 1.0) - (n / 2.0) * math.log(math.pi)
                     - 0.5 * log_det) * radial.c
    except (OverflowError, ValueError):
        c = math.nan
    if not 0.0 < c < math.inf:
        raise ValueError(f"{family}: requires a finite, positive r^n, r^n t, 1/t and "
                         f"normalizer, got n={n}, r={r}, t={t}, ln|Sigma|={log_det}")
    return MultivariateSpec(family=family, n=n, m=m, sigma=sigma, r=float(r), t=t,
                            chol=chol, log_det=log_det, c=c, radial=radial)


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
    triangular solve, by forward substitution over the n rows of the
    Cholesky factor, and one norm.  Raises ValueError for a NaN or an
    infinite coordinate."""
    rows, single = _rows(x, spec.n)
    if not np.isfinite(rows).all():
        raise ValueError("array must not contain infs or NaNs")
    d = (rows - spec.m).T
    z = np.empty_like(d)
    for i in range(spec.n):
        z[i] = (d[i] - spec.chol[i, :i] @ z[:i]) / spec.chol[i, i]
    rho = np.sqrt(np.sum(z * z, axis=0))
    return float(rho[0]) if single else rho


def mv_log_pdf(spec: MultivariateSpec, x):
    """Log density: the log of the factor in front of the radial density
    (see the module docstring) plus its log-density at u = rho^n."""
    with np.errstate(over="ignore"):  # rho^n = inf far out: the density is 0
        u = np.power(mahalanobis(x, spec), spec.n)
    return math.log(spec.c / spec.radial.c) + uv.log_pdf(spec.radial, u)


def mv_pdf(spec: MultivariateSpec, x):
    """Density; constant on Mahalanobis ellipsoids."""
    with np.errstate(under="ignore"):
        return np.exp(mv_log_pdf(spec, x))


def mv_sample(spec: MultivariateSpec, count: int, seed: int) -> Dataset:
    """Exact sampler: inverse-transform radial law times a uniform direction,
    then the triangular factor and shift."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    v = rng.random(count)
    # u = |U|; (1 + v)/2 rounds to 1 at v = 1 - 2^-53, where the quantile is
    # infinite, so it is held at the last double below 1.
    u = uv.quantile(spec.radial, np.minimum(0.5 * (1.0 + v), 1.0 - 2.0 ** -53))
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
