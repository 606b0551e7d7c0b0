"""Maximum-likelihood fitting by coordinate-wise gradient ascent.

The logistic-difference family (AL) carries the full analytic derivative
set: three first partials and all six second partials in tanh/coth/sech/csch
form, evaluated exp-shifted.  The sigmoid-product family (BL) uses the
flat-regime approximate gradients; the elliptical cosh-ratio family (CL)
uses its matrix gradient blocks.  The fitter updates one parameter at a
time with step 1/|second partial| and backtracks until the log-likelihood
does not decrease, so every accepted step is an ascent step.

The AL and BL coordinate pass runs on J independent weighted problems at
once, backtracking each by mask: ``fit`` is its J = 1 case with unit (or
dataset) weights, and the mixture M-step runs it on every (component,
axis) factor with the responsibilities as weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import univariate as uv
from .data_io import Dataset
from .multivariate import MultivariateSpec, make_mv
from .quadrature import QuadratureSettings, integrate
from .specfun import coth, csch2, log_cosh, log_sinh, sech2, softplus

__all__ = [
    "FitSettings",
    "FitReport",
    "AlHessian",
    "BlGradient",
    "loglik_al",
    "grad_al",
    "hess_al",
    "loglik_bl",
    "grad_bl_flat",
    "loglik_cl",
    "grad_cl",
    "fit",
    "init_al_from_data",
    "init_al_from_normal_fit",
    "init_cl_from_data",
    "normal_mle_loglik",
]

_BL_NORM_SETTINGS = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=4000)


@dataclass(frozen=True)
class FitSettings:
    """Iteration budget and step-control constants."""

    max_iters: int = 500
    grad_tol: float = 1e-8
    eta0: float = 1.0
    backtrack_factor: float = 0.5
    max_backtracks: int = 30

    def __post_init__(self) -> None:
        if self.max_iters < 1 or self.grad_tol <= 0 or self.eta0 <= 0:
            raise ValueError("max_iters, grad_tol, eta0 must be positive")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")


@dataclass
class FitReport:
    """Optimization trace; the trace never decreases beyond 1e-9 slack."""

    converged: bool
    iterations: int
    loglik_trace: list[float]
    final_params: dict
    grad_norm: float
    aic: float
    bic: float
    free_params: int
    free_params_unconstrained: int | None = None


class AlHessian(NamedTuple):
    daa: float
    dbb: float
    dss: float
    dab: float
    das: float
    dbs: float


class BlGradient(NamedTuple):
    da: float
    db: float
    ds: float
    dt: float
    flat_regime: bool


def _data_1d(data) -> np.ndarray:
    if isinstance(data, Dataset):
        return data.x
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-d sample")
    return arr


def _weights(x: np.ndarray, w) -> np.ndarray:
    if w is None:
        return np.ones_like(x)
    w = np.asarray(w, dtype=float)
    if w.shape != x.shape:
        raise ValueError("weights must match the sample shape")
    return w


# ---------------------------------------------------------------------------
# AL and BL kernels, batched over J independent (data, weights, parameters)
# problems: ``x`` and ``w`` are (J, N), ``n`` the (J,) weight sums and ``p``
# the (P, J) parameters in coordinate order.  Each partial comes with the
# curvature that sizes its coordinate step.
# ---------------------------------------------------------------------------

def _wsum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (J, N) arrays."""
    return (w[:, None, :] @ v[:, :, None])[:, 0, 0]


def _al_loglik(x, w, n, p) -> np.ndarray:
    a, b, s = p
    const = log_sinh((b - a) / (2.0 * s)) - np.log(2.0 * (b - a))
    two_s = 2.0 * s[:, None]
    return n * const - _wsum(w, log_cosh((x - a[:, None]) / two_s)
                             + log_cosh((x - b[:, None]) / two_s))


def _al_partial(name, x, w, n, p) -> tuple[np.ndarray, np.ndarray]:
    a, b, s = p
    g = (b - a) / (2.0 * s)
    cg = coth(g)
    c2g = csch2(g)
    if name == "s":
        za = (x - a[:, None]) / (2.0 * s[:, None])
        zb = (x - b[:, None]) / (2.0 * s[:, None])
        ta, tb = np.tanh(za), np.tanh(zb)
        grad = (-n * g * cg + _wsum(w, za * ta + zb * tb)) / s
        # d/ds of the first partial doubles the odd tanh/coth terms.
        curv = (n * (2.0 * g * cg - g * g * c2g)
                - _wsum(w, 2.0 * za * ta + za * za * sech2(za))
                - _wsum(w, 2.0 * zb * tb + zb * zb * sech2(zb))) / s ** 2
        return grad, curv
    edge, sign = (a, 1.0) if name == "a" else (b, -1.0)
    z = (x - edge[:, None]) / (2.0 * s[:, None])
    grad = sign * (n / (b - a) - n * cg / (2.0 * s)) + _wsum(w, np.tanh(z)) / (2.0 * s)
    quarter = 1.0 / (4.0 * s ** 2)
    curv = n * (1.0 / (b - a) ** 2) - n * quarter * c2g - quarter * _wsum(w, sech2(z))
    return grad, curv


def _bl_log_norm(a: float, b: float, s: float, t: float) -> float:
    from scipy import special as sp

    def integrand(x: np.ndarray) -> np.ndarray:
        return sp.expit((x - a) / s) * sp.expit((b - x) / t)

    val = integrate(integrand, -math.inf, math.inf, _BL_NORM_SETTINGS,
                    points=(a, 0.5 * (a + b), b)).value
    return -math.log(val)


def _bl_loglik(x, w, n, p, log_c=None) -> np.ndarray:
    """Exact normalizer (one quadrature per problem) unless ``log_c`` is given."""
    a, b, s, t = p
    if log_c is None:
        log_c = np.array([_bl_log_norm(*q) for q in p.T])
    terms = -softplus((a[:, None] - x) / s[:, None]) - softplus((x - b[:, None]) / t[:, None])
    return n * log_c + _wsum(w, terms)


def _bl_partial(name, x, w, n, p) -> tuple[np.ndarray, np.ndarray]:
    """Flat-regime partials; the curvatures only size the steps."""
    from scipy import special as sp

    a, b, s, t = p
    if name in ("a", "s"):
        f = sp.expit((x - a[:, None]) / s[:, None])       # F_L(x; a, s)
        v = f * (1.0 - f)
        if name == "a":
            return (n / (b - a) - _wsum(w, 1.0 - f) / s,
                    n / (b - a) ** 2 - _wsum(w, v) / s ** 2)
        grad = _wsum(w, (a[:, None] - x) * (1.0 - f)) / s ** 2
        return grad, -2.0 * grad / s - _wsum(w, (x - a[:, None]) ** 2 * v) / s ** 4
    f = sp.expit((x - b[:, None]) / t[:, None])           # F_L(x; b, t)
    v = f * (1.0 - f)
    if name == "b":
        return (-n / (b - a) + _wsum(w, f) / t,
                n / (b - a) ** 2 - _wsum(w, v) / t ** 2)
    grad = _wsum(w, (x - b[:, None]) * f) / t ** 2
    return grad, -2.0 * grad / t - _wsum(w, (x - b[:, None]) ** 2 * v) / t ** 4


# Coordinate order, log-likelihood kernel and partial kernel per family.
_KERNELS = {
    "AL": (("a", "b", "s"), _al_loglik, _al_partial),
    "BL": (("a", "b", "s", "t"), _bl_loglik, _bl_partial),
}


def _one(data, weights):
    """A single problem in kernel layout: (x, w, n) with J = 1."""
    x = _data_1d(data)
    w = _weights(x, weights)[None, :]
    return x[None, :], w, w.sum(axis=1)


def _params(*values) -> np.ndarray:
    return np.array(values, dtype=float)[:, None]


# ---------------------------------------------------------------------------
# AL: log-likelihood and analytic derivatives
# ---------------------------------------------------------------------------

def loglik_al(data, a: float, b: float, s: float, weights=None) -> float:
    """Weighted log-likelihood of the logistic-difference density."""
    return float(_al_loglik(*_one(data, weights), _params(a, b, s))[0])


def grad_al(data, a: float, b: float, s: float, weights=None) -> tuple[float, float, float]:
    """First partials of the AL log-likelihood with respect to (a, b, s)."""
    x, w, n = _one(data, weights)
    p = _params(a, b, s)
    return tuple(float(_al_partial(name, x, w, n, p)[0][0]) for name in "abs")


def hess_al(data, a: float, b: float, s: float, weights=None) -> AlHessian:
    """All six second partials of the AL log-likelihood."""
    x = _data_1d(data)
    w = _weights(x, weights)
    n = float(w.sum())
    g = (b - a) / (2.0 * s)
    cg = float(coth(g))
    c2g = float(csch2(g))
    za = (x - a) / (2.0 * s)
    zb = (x - b) / (2.0 * s)
    ta = np.tanh(za)
    tb = np.tanh(zb)
    s2a = sech2(za)
    s2b = sech2(zb)
    inv_ba2 = 1.0 / (b - a) ** 2
    quarter = 1.0 / (4.0 * s ** 2)
    daa = n * inv_ba2 - n * quarter * c2g - quarter * float(np.dot(w, s2a))
    dbb = n * inv_ba2 - n * quarter * c2g - quarter * float(np.dot(w, s2b))
    dss = (n * (2.0 * g * cg - g * g * c2g)
           - float(np.dot(w, 2.0 * za * ta + za * za * s2a))
           - float(np.dot(w, 2.0 * zb * tb + zb * zb * s2b))) / s ** 2
    dab = -n * inv_ba2 + n * quarter * c2g
    half = 1.0 / (2.0 * s ** 2)
    das = n * half * (cg - g * c2g) - half * float(np.dot(w, ta + za * s2a))
    dbs = -n * half * (cg - g * c2g) - half * float(np.dot(w, tb + zb * s2b))
    return AlHessian(daa, dbb, dss, dab, das, dbs)


# ---------------------------------------------------------------------------
# BL: exact log-likelihood (quadrature normalizer) and flat-regime gradients
# ---------------------------------------------------------------------------

def loglik_bl(data, a: float, b: float, s: float, t: float, weights=None,
              normalizer: str = "exact") -> float:
    """BL log-likelihood; ``normalizer='flat'`` uses the 1/(b-a) shortcut."""
    if normalizer == "exact":
        log_c = None
    elif normalizer == "flat":
        log_c = np.array([-math.log(b - a)])
    else:
        raise ValueError(f"normalizer must be 'exact' or 'flat', got {normalizer!r}")
    return float(_bl_loglik(*_one(data, weights), _params(a, b, s, t), log_c)[0])


def grad_bl_flat(data, a: float, b: float, s: float, t: float,
                 weights=None) -> BlGradient:
    """Flat-regime approximate partials of the BL log-likelihood.

    ``flat_regime`` is False when the closed-form flatness bound exceeds
    0.05, i.e. when these approximations are unreliable.
    """
    from .flatness import bl_flat_bound

    x, w, n = _one(data, weights)
    p = _params(a, b, s, t)
    grads = (float(_bl_partial(name, x, w, n, p)[0][0]) for name in "abst")
    return BlGradient(*grads, bool(bl_flat_bound(a, b, s, t) < 0.05))


# ---------------------------------------------------------------------------
# CL: log-likelihood and gradient blocks
# ---------------------------------------------------------------------------

def _cl_parts(rows: np.ndarray, m: np.ndarray, lam: np.ndarray):
    d = rows - m
    rho2 = np.einsum("ij,jk,ik->i", d, lam, d)
    rho2 = np.maximum(rho2, 0.0)
    return d, np.sqrt(rho2)


def _loglik_cl_raw(rows, m, lam, big_r, t) -> float:
    n_dim = rows.shape[1]
    count = rows.shape[0]
    d, rho = _cl_parts(rows, m, lam)
    a = big_r * t
    rho_n_t = rho ** n_dim * t
    from .specfun import log_cosh_sum

    const = (math.lgamma(n_dim / 2.0 + 1.0) - (n_dim / 2.0) * math.log(math.pi)
             + float(log_sinh(a)) - math.log(big_r)
             + 0.5 * float(np.linalg.slogdet(lam)[1]))
    return count * const - float(np.sum(log_cosh_sum(rho_n_t, np.full_like(rho, a))))


def loglik_cl(data, spec: MultivariateSpec) -> float:
    """Log-likelihood of a CL spec on rows of points."""
    rows = data.rows if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    lam = np.linalg.inv(spec.sigma)
    return _loglik_cl_raw(rows, spec.m, lam, spec.r ** spec.n, spec.t)


def _grad_cl_raw(rows, m, lam, big_r, t):
    """Gradient blocks for (m, Lambda = Sigma^-1, R = r^n, t)."""
    from scipy import special as sp

    n_dim = rows.shape[1]
    count = rows.shape[0]
    d, rho = _cl_parts(rows, m, lam)
    a = big_r * t
    u = rho ** n_dim * t
    # sinh(u) / (cosh(u) + cosh(a)), exp-shifted through the identity
    # sinh u / (cosh u + cosh a) = sigma(u - a) - sigma(-u - a) for a = R t.
    ratio_u = sp.expit(u - a) - sp.expit(-u - a)
    ratio_a = sp.expit(a - u) - sp.expit(-a - u)       # sinh(a)/(cosh+cosh)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_pow = np.where(rho > 0.0, rho ** (n_dim - 2.0), 0.0)
    coeff = ratio_u * n_dim * rho_pow * t
    sigma = np.linalg.inv(lam)
    grad_m = (lam @ (d * coeff[:, None]).sum(axis=0))
    grad_lam = 0.5 * count * sigma - 0.5 * np.einsum("i,ij,ik->jk", coeff, d, d)
    grad_big_r = count * t * float(coth(a)) - count / big_r - t * float(np.sum(ratio_a))
    grad_t = (count * big_r * float(coth(a))
              - float(np.sum(rho ** n_dim * ratio_u + big_r * ratio_a)))
    return grad_m, grad_lam, grad_big_r, grad_t


def grad_cl(data, spec: MultivariateSpec):
    """Gradient blocks of the CL log-likelihood for {m, Sigma^-1, r^n, t}."""
    rows = data.rows if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    lam = np.linalg.inv(spec.sigma)
    return _grad_cl_raw(rows, spec.m, lam, spec.r ** spec.n, spec.t)


def normal_mle_loglik(data) -> float:
    """Log-likelihood of the best-fit normal (MLE variance), the baseline
    any flat-topped fit should beat on near-uniform data."""
    x = _data_1d(data)
    var = float(np.var(x))
    n = x.size
    return -0.5 * n * (math.log(2.0 * math.pi * var) + 1.0)


# ---------------------------------------------------------------------------
# Initializers
# ---------------------------------------------------------------------------

def init_al_from_data(data) -> uv.UnivariateSpec:
    """Near-uniform starting point: s at four times its floor, boundaries
    one s inside the sample range."""
    x = _data_1d(data)
    span = float(x.max() - x.min())
    if span == 0.0:
        raise ValueError("degenerate data: all points equal")
    s = span / x.size
    s = max(s, span / (4.0 * x.size))
    return uv.make("AL", {"a": float(x.min()) + s, "b": float(x.max()) - s, "s": s})


def init_al_from_normal_fit(data) -> uv.UnivariateSpec:
    """AL surrogate of the sample's best-fit normal, clipped into the
    admissible box."""
    x = _data_1d(data)
    mu = float(np.mean(x))
    sd = float(np.std(x))
    if sd == 0.0:
        raise ValueError("degenerate data: all points equal")
    raw = uv.approx_al_from_normal(mu, sd)
    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    s_min = span / (4.0 * x.size)
    eps = 1e-9 * span
    a = min(max(raw.a, lo + eps), hi - 2.0 * eps)
    b = max(min(raw.b, hi - eps), a + eps)
    s = min(max(raw.s, s_min), max(sd, s_min * 1.0000001))
    return uv.make("AL", {"a": a, "b": b, "s": s})


def init_cl_from_data(data) -> MultivariateSpec:
    """Moment-based CL start: sample mean and covariance, the median
    elliptical radius, and a mid-steep shoulder."""
    rows = data.rows if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    m = rows.mean(axis=0)
    sigma = np.cov(rows.T, bias=True)
    sigma = np.atleast_2d(sigma)
    n_dim = rows.shape[1]
    sigma += 1e-8 * float(np.trace(sigma)) / n_dim * np.eye(n_dim)
    spec = make_mv("CL", m, r=1.0, t=1.0, sigma=sigma)
    from .multivariate import mahalanobis

    rho = mahalanobis(rows, spec)
    r = float(np.median(rho)) or 1.0
    t = 4.0 / r ** n_dim
    return make_mv("CL", m, r=r, t=t, sigma=sigma)


# ---------------------------------------------------------------------------
# The coordinate-ascent fitter
# ---------------------------------------------------------------------------

def _step_size(grad, curvature, scale, eta0):
    """Step per unit gradient: eta0/|curvature|, or a tenth of the
    parameter's scale where the curvature vanishes."""
    flat = np.abs(curvature) < 1e-12
    return np.where(flat, 0.1 * scale / np.maximum(np.abs(grad), 1e-300),
                    eta0 / np.where(flat, 1.0, np.abs(curvature)))


def _bounds_from_data(x: np.ndarray) -> np.ndarray:
    """(lo, hi, s_min, s_max) of the box every iterate stays in."""
    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    if span == 0.0:
        raise ValueError("degenerate data: all points equal")
    sd = float(np.std(x))
    return np.array([lo, hi, span / (4.0 * x.size), max(sd, 2.0 * span / (4.0 * x.size))])


def _coordinate_pass(family, x, w, n, p, ll, bounds, settings: FitSettings):
    """One monotone coordinate pass over J independent problems at once.

    ``x``, ``w``, ``n`` and ``p`` are in the kernel layout above, ``ll`` is
    the (J,) log-likelihood at ``p`` and ``bounds`` the (4, J) rows of
    ``_bounds_from_data``.  Each coordinate steps by gradient/|curvature|
    and backtracks per problem, by mask, until that problem's
    log-likelihood does not decrease.  Returns the new parameters and
    log-likelihoods and the mask of problems that accepted a step.
    """
    names, loglik, partial = _KERNELS[family]
    lo, hi, s_min, s_max = bounds
    eps = 1e-9 * (hi - lo)
    p, ll = p.copy(), ll.copy()
    moved = np.zeros(p.shape[1], dtype=bool)
    for i, name in enumerate(names):
        grad, curv = partial(name, x, w, n, p)
        if name == "a":
            scale, low, high = p[1] - p[0], lo + eps, p[1] - eps
        elif name == "b":
            scale, low, high = p[1] - p[0], p[0] + eps, hi - eps
        else:
            scale, low, high = p[i], s_min, s_max
        step = _step_size(grad, curv, scale, settings.eta0) * grad
        live = np.ones(p.shape[1], dtype=bool)
        for _ in range(settings.max_backtracks):
            cand = np.minimum(np.maximum(p[i] + step, low), high)
            live &= cand != p[i]  # clip or underflow: no movement possible
            idx = np.flatnonzero(live)
            if idx.size == 0:
                break
            trial = p[:, idx]
            trial[i] = cand[idx]
            ll_new = loglik(x[idx], w[idx], n[idx], trial)
            up = ll_new >= ll[idx]
            done = idx[up]
            p[i, done] = cand[done]
            ll[done] = ll_new[up]
            moved[done] = True
            live[done] = False
            step = step * settings.backtrack_factor
    return p, ll, moved


def _fit_univariate(x: np.ndarray, init: uv.UnivariateSpec, settings: FitSettings,
                    weights=None) -> tuple[uv.UnivariateSpec, FitReport]:
    """AL or BL fit: coordinate passes on the single problem (J = 1) until
    the gradient is below ``grad_tol`` or a pass accepts no step."""
    names, loglik, partial = _KERNELS[init.family]
    bounds = _bounds_from_data(x)
    lo, hi, s_min = bounds[:3]
    if not (lo < init.a < init.b < hi):
        raise ValueError(
            f"init violates min(x) < a < b < max(x): a={init.a}, b={init.b}, "
            f"range=({lo}, {hi})")
    if init.family == "AL" and not init.s >= s_min:
        raise ValueError(f"init violates s >= {s_min}: s={init.s}")

    x1, w1, n = _one(x, weights)
    p = _params(*(getattr(init, name) for name in names))
    ll = loglik(x1, w1, n, p)
    trace = [float(ll[0])]
    converged = False
    grad_norm = math.inf
    iters = 0
    for iters in range(1, settings.max_iters + 1):
        p, ll, moved = _coordinate_pass(init.family, x1, w1, n, p, ll, bounds[:, None],
                                        settings)
        trace.append(float(ll[0]))
        grad_norm = max(abs(float(partial(name, x1, w1, n, p)[0][0]))
                        for name in names) / float(n[0])
        if grad_norm < settings.grad_tol:
            converged = True
            break
        if not moved[0]:
            break
    spec = uv.make(init.family, dict(zip(names, p[:, 0])))
    k = len(names)
    ll = trace[-1]
    report = FitReport(converged=converged, iterations=iters, loglik_trace=trace,
                       final_params=spec.params(), grad_norm=grad_norm,
                       aic=2.0 * k - 2.0 * ll, bic=k * math.log(x.size) - 2.0 * ll,
                       free_params=k)
    return spec, report


def _project_pd(mat: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def _directional_curvature(fun_grad, theta: np.ndarray, grad: np.ndarray) -> float:
    norm = float(np.linalg.norm(grad))
    if norm == 0.0:
        return 0.0
    unit = grad / norm
    h = 1e-6 * max(1.0, float(np.linalg.norm(theta)))
    g2 = fun_grad(theta + h * unit)
    return float(np.dot(g2 - grad, unit) / h)


def _fit_cl(rows: np.ndarray, init: MultivariateSpec,
            settings: FitSettings) -> tuple[MultivariateSpec, FitReport]:
    count, n_dim = rows.shape
    m = init.m.copy()
    lam = np.linalg.inv(init.sigma)
    big_r = init.r ** n_dim
    t = init.t

    def ll_of(mv, lamv, rv, tv):
        return _loglik_cl_raw(rows, mv, lamv, rv, tv)

    ll = ll_of(m, lam, big_r, t)
    trace = [ll]
    converged = False
    grad_norm = math.inf
    iters = 0
    for iters in range(1, settings.max_iters + 1):
        any_accept = False

        # 1. location
        gm = _grad_cl_raw(rows, m, lam, big_r, t)[0]
        curv = _directional_curvature(
            lambda th: _grad_cl_raw(rows, th, lam, big_r, t)[0], m, gm)
        eta = settings.eta0 / max(abs(curv), 1e-12)
        step = eta * gm
        for _ in range(settings.max_backtracks):
            ll_new = ll_of(m + step, lam, big_r, t)
            if ll_new >= ll:
                m = m + step
                ll = ll_new
                any_accept = True
                break
            step *= settings.backtrack_factor

        # 2. inverse scale matrix, symmetric step with PD projection
        glam = _grad_cl_raw(rows, m, lam, big_r, t)[1]
        gnorm = float(np.linalg.norm(glam))
        if gnorm > 0:
            unit = glam / gnorm
            h = 1e-6 * max(1.0, float(np.linalg.norm(lam)))
            g2 = _grad_cl_raw(rows, m, lam + h * unit, big_r, t)[1]
            curv = float(np.tensordot(g2 - glam, unit) / h)
            eta = settings.eta0 / max(abs(curv), 1e-12)
            step_mat = eta * glam
            for _ in range(settings.max_backtracks):
                lam_new = _project_pd(lam + step_mat)
                ll_new = ll_of(m, lam_new, big_r, t)
                if ll_new >= ll:
                    lam = lam_new
                    ll = ll_new
                    any_accept = True
                    break
                step_mat *= settings.backtrack_factor

        # 3. dispersion R = r^n and 4. slope t, both positive scalars
        for idx, name in ((2, "R"), (3, "t")):
            g = _grad_cl_raw(rows, m, lam, big_r, t)[idx]
            cur = big_r if name == "R" else t

            def g_of(v, idx=idx, name=name):
                if name == "R":
                    return _grad_cl_raw(rows, m, lam, float(v), t)[idx]
                return _grad_cl_raw(rows, m, lam, big_r, float(v))[idx]

            h = 1e-6 * max(1.0, abs(cur))
            curv = (g_of(cur + h) - g) / h
            step = float(_step_size(g, curv, cur, settings.eta0)) * g
            for _ in range(settings.max_backtracks):
                cand = max(cur + step, 1e-12 * max(1.0, cur))
                ll_new = ll_of(m, lam, cand, t) if name == "R" else ll_of(m, lam, big_r, cand)
                if ll_new >= ll:
                    if name == "R":
                        big_r = cand
                    else:
                        t = cand
                    ll = ll_new
                    any_accept = True
                    break
                step *= settings.backtrack_factor

        trace.append(ll)
        gm, glam, gr, gt = _grad_cl_raw(rows, m, lam, big_r, t)
        grad_norm = max(float(np.max(np.abs(gm))), float(np.max(np.abs(glam))),
                        abs(gr), abs(gt)) / count
        if grad_norm < settings.grad_tol:
            converged = True
            break
        if not any_accept:
            break

    sigma = np.linalg.inv(lam)
    spec = make_mv("CL", m, r=big_r ** (1.0 / n_dim), t=t, sigma=sigma)
    k_constrained = (n_dim + 1) * (n_dim + 2) // 2
    k_full = k_constrained + 1
    report = FitReport(
        converged=converged, iterations=iters, loglik_trace=trace,
        final_params={"m": m.tolist(), "Sigma": sigma.tolist(),
                      "r": spec.r, "t": t},
        grad_norm=grad_norm,
        aic=2.0 * k_constrained - 2.0 * ll,
        bic=k_constrained * math.log(count) - 2.0 * ll,
        free_params=k_constrained,
        free_params_unconstrained=k_full,
    )
    return spec, report


def fit(data, init, settings: FitSettings | None = None):
    """Fit AL, BL (univariate specs) or CL (multivariate spec) by monotone
    coordinate ascent starting from ``init``.

    Returns ``(spec, FitReport)``.  Bound constraints
    min(x) < a < b < max(x) and s >= range/(4N) hold at every iterate.
    """
    settings = settings or FitSettings()
    if isinstance(init, uv.UnivariateSpec):
        x = _data_1d(data)
        w = data.weights if isinstance(data, Dataset) else None
        if init.family in _KERNELS:
            return _fit_univariate(x, init, settings, w)
        raise ValueError(f"fit supports AL and BL univariate families, got {init.family}")
    if isinstance(init, MultivariateSpec):
        if init.family != "CL":
            raise ValueError(f"fit supports the CL multivariate family, got {init.family}")
        rows = data.rows if isinstance(data, Dataset) else np.asarray(data, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 2:
            raise ValueError("CL fit needs at least two points")
        if float(np.max(np.var(rows, axis=0))) == 0.0:
            raise ValueError("degenerate data: all points equal")
        return _fit_cl(rows, init, settings)
    raise TypeError(f"unsupported init type: {type(init).__name__}")
