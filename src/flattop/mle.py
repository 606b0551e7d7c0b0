"""Maximum-likelihood fitting by monotone ascent on bound-constrained
parameters.

The logistic-difference family (AL) and the sigmoid-product family (BL)
both carry the exact gradient and Hessian of their log-likelihood.  AL's,
in (a, b, s), come in tanh/coth/sech/csch form from ten weighted sums over
the points.  BL's normalizer Z has no closed form, but with e = left +
right, the sum of its two softplus edges, grad ln Z = -E[grad e] and
hess ln Z = Cov[grad e] - E[hess e] under the density: one Kronrod pass
over the panels of Z's quadrature gives both, and one per-point function
of the edge derivatives serves those integrals and the weighted data sums.
The flat-regime partials of the paper stay public as ``grad_bl_flat``.

One pass of either family is one projected modified-Newton step on the
whole block (Nocedal & Wright, *Numerical Optimization*, 3.4): a
coordinate at its bound with the gradient pointing out is held, the
Hessian's eigenvalues are taken in absolute value, the step shrinks b - a
and each scale by at most half, and it is halved until the log-likelihood
does not decrease.  So every accepted step is an ascent step, except one
whose predicted gain is below the rounding error of the log-likelihood:
it is tried once and may lose up to that error.

The pass runs on J independent weighted problems at once, backtracking
each by mask: ``fit`` is its J = 1 case with unit (or dataset) weights,
and the mixture M-step runs it on every (component, axis) factor with the
responsibilities as weights.  Each family's log-density is one kernel, a
per-problem constant minus a per-point edge term, the sum of the two
shoulders' terms; the log-likelihood sums them, and the mixture E-step
scores points with the same terms.  A pass takes the terms and the
derivatives at its start and returns the terms at its end; a trial step
recomputes both terms.  Each pass keeps b - a at least a few ulps of the
data, so the density stays defined on near-constant samples.

The elliptical cosh-ratio family (CL) runs one coordinate pass over the
blocks m, Lambda = Sigma^-1, log R (R = r^n) and log t, each stepped by its
analytic gradient/|curvature| and backtracked.  R and t move on a log
scale, at most one e-fold per step, so no step throws R near 0, where the
likelihood is flat in R.  A CL fit stops when a pass does not strictly
raise the log-likelihood.  Every fit is ``converged`` when its largest
gradient entry per point, in natural coordinates (R and t for CL), is
below ``grad_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import univariate as uv
from .data_io import Dataset, _finite, _rows_of
from .multivariate import MultivariateSpec, make_mv
from .quadrature import _WK, _kronrod_nodes
from .specfun import coth, csch2, log_cosh, log_sinh, log_sinh_ratio, logistic, softplus

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

# Step control: a CL coordinate step is the gradient over |curvature|; it and
# the AL/BL block step shrink by _BACKTRACK_FACTOR up to _MAX_BACKTRACKS times
# until the log-likelihood does not fall.
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 30
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FitSettings:
    """Iteration budget and convergence tolerance."""

    max_iters: int = 500
    grad_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_iters < 1 or self.grad_tol <= 0:
            raise ValueError("max_iters, grad_tol must be positive")


@dataclass
class FitReport:
    """Optimization trace of every fit (``fit``, ``mixture.gmm_fit`` and
    ``mixture.ftm_fit``); the trace never decreases beyond 1e-9 slack.

    ``iterations`` counts fit passes or EM cycles, and AIC and BIC
    come from the last log-likelihood of the trace and ``free_params``.
    ``grad_norm`` (largest gradient entry per point) is NaN for mixtures,
    and ``final_params`` is empty for them.
    """

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
    return _finite(arr)


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
# the (P, J) parameters in coordinate order.
# ---------------------------------------------------------------------------

def _wsum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (J, N) arrays."""
    return (w[:, None, :] @ v[:, :, None])[:, 0, 0]


# AL: f = sinh g / ((b - a)(cosh u + cosh g)) with u = (x - m)/s and g = (b - a)/2s,
# and cosh u + cosh g = 2 cosh z_a cosh z_b for z_a, z_b = (x - a, x - b)/2s.
def _al_const(p) -> np.ndarray:
    a, b, s = p
    return log_sinh((b - a) / (2.0 * s)) - np.log(2.0 * (b - a))


def _al_edges(x, p) -> np.ndarray:
    """ln cosh z_a + ln cosh z_b."""
    a, b, s = (q[:, None] for q in p)
    return log_cosh((x - a) / (2.0 * s)) + log_cosh((x - b) / (2.0 * s))


# Below this g = (b - a)/2s the differences 1/g - coth g, 1/g^2 - csch^2 g and
# coth g - g csch^2 g lose about eps/g^2 relative in direct form, and four
# terms of their Taylor series are exact to double precision.
_G_SERIES = 0.05


def _coth_terms(g):
    """coth g, csch^2 g and the three differences above, for g > 0."""
    em = -np.expm1(-2.0 * g)  # 1 - e^-2g, without cancellation
    cg = (2.0 - em) / em
    c2g = 4.0 * (1.0 - em) / (em * em)
    small = g < _G_SERIES
    gd = np.where(small, 1.0, g)
    gs = np.where(small, g, 0.0)
    g2 = gs * gs
    series = (-gs * (1.0 / 3.0 - g2 * (1.0 / 45.0 - g2 * (2.0 / 945.0 - g2 / 4725.0))),
              1.0 / 3.0 - g2 * (1.0 / 15.0 - g2 * (2.0 / 189.0 - g2 / 675.0)),
              gs * (2.0 / 3.0 - g2 * (4.0 / 45.0 - g2 * (4.0 / 315.0 - g2 * 8.0 / 4725.0))))
    direct = (1.0 / gd - cg, 1.0 / (gd * gd) - c2g, cg - gd * c2g)
    return (cg, c2g, *(np.where(small, sv, dv) for sv, dv in zip(series, direct)))


def _al_derivs(x, w, n, p) -> tuple[np.ndarray, np.ndarray]:
    """The (J, 3) gradient and (J, 3, 3) Hessian in (a, b, s).

    The constant ln sinh g - ln 2(b - a) gives the n-weighted coth/csch^2
    terms (``_coth_terms``, which keeps them exact as b - a -> 0).  The
    edges give ten weighted sums, one (J, 10, N) @ (J, N, 1) product: of
    tanh z, z tanh z, sech^2 z, z sech^2 z and z^2 sech^2 z at z = z_a and
    z_b, with sech^2 = 1 - tanh^2.
    """
    a, b, s = p
    j, count = x.shape
    g = (b - a) / (2.0 * s)
    cg, c2g, inv_g_coth, inv_g2_csch2, coth_g_csch2 = _coth_terms(g)
    rows = np.empty((j, 5, 2, count))
    tanh, z_tanh, sech2, z_sech2, zz_sech2 = (rows[:, k] for k in range(5))
    z = x[:, None, :] - p[:2].T[:, :, None]  # (J, 2, N)
    z *= (0.5 / s)[:, None, None]
    np.tanh(z, out=tanh)
    np.multiply(z, tanh, out=z_tanh)
    np.multiply(tanh, tanh, out=sech2)
    np.subtract(1.0, sech2, out=sech2)
    np.multiply(z, sech2, out=z_sech2)
    np.multiply(z, z_sech2, out=zz_sech2)
    t_sum, zt_sum, q_sum, zq_sum, zzq_sum = (
        (rows.reshape(j, 10, count) @ w[:, :, None]).reshape(j, 5, 2).transpose(1, 2, 0))
    half_s = 0.5 / s
    quarter = half_s * half_s
    half = 0.5 / (s * s)
    # n times the constant's partials; d/db = -d/da, d2/db2 = -d2/dadb = d2/da2
    # and d2/dbds = -d2/dads.
    c_a = n * half_s * inv_g_coth
    c_aa = n * quarter * inv_g2_csch2
    c_as = n * half * coth_g_csch2
    grad = np.empty((j, 3))
    grad[:, 0] = c_a + half_s * t_sum[0]
    grad[:, 1] = half_s * t_sum[1] - c_a
    grad[:, 2] = (zt_sum[0] + zt_sum[1] - n * g * cg) / s
    hess = np.empty((j, 3, 3))
    hess[:, 0, 0] = c_aa - quarter * q_sum[0]
    hess[:, 1, 1] = c_aa - quarter * q_sum[1]
    hess[:, 2, 2] = (n * (2.0 * g * cg - g * g * c2g) - 2.0 * (zt_sum[0] + zt_sum[1])
                     - zzq_sum[0] - zzq_sum[1]) / (s * s)
    hess[:, 0, 1] = hess[:, 1, 0] = -c_aa
    hess[:, 0, 2] = hess[:, 2, 0] = c_as - half * (t_sum[0] + zq_sum[0])
    hess[:, 1, 2] = hess[:, 2, 1] = -c_as - half * (t_sum[1] + zq_sum[1])
    return grad, hess


def _bl_const(p) -> np.ndarray:
    """The exact log-normalizer: one quadrature per problem."""
    return np.array([-math.log(uv._bl_mass(*q)[0]) for q in p.T])


def _bl_edges(x, p) -> np.ndarray:
    """softplus((a - x)/s) + softplus((x - b)/t)."""
    a, b, s, t = (q[:, None] for q in p)
    return softplus((a - x) / s) + softplus((x - b) / t)


def _bl_edge_derivs(x, p) -> tuple[np.ndarray, np.ndarray]:
    """The (J, 4, N) gradient and (J, 4, 4, N) Hessian in (a, b, s, t) of
    the edges e = left + right (``_bl_edges``) at every point.

    With u = (a - x)/s and the logistic sigma, left = softplus u has the
    partials sigma/s in a and -u sigma/s in s, and the second partials
    sigma'/s^2, -(u sigma' + sigma)/s^2 and u (u sigma' + 2 sigma)/s^2 in
    (a, a), (a, s) and (s, s), for sigma' = sigma (1 - sigma).  Right =
    softplus v, v = (x - b)/t, has the same in (b, t), with the sign of each
    partial of first order in b flipped.  No term mixes the two sides.
    """
    j, count = x.shape
    grad = np.empty((j, 4, count))
    hess = np.zeros((j, 4, 4, count))
    for loc, scale, sign, z in ((0, 2, 1.0, p[0][:, None] - x), (1, 3, -1.0, x - p[1][:, None])):
        inv = 1.0 / p[scale][:, None]
        z = z * inv
        f = logistic(z)
        v = f * (1.0 - f)
        zv = z * v
        grad[:, loc] = sign * f * inv
        grad[:, scale] = -z * f * inv
        hess[:, loc, loc] = v * inv * inv
        hess[:, loc, scale] = hess[:, scale, loc] = -sign * (zv + f) * inv * inv
        hess[:, scale, scale] = z * (zv + 2.0 * f) * inv * inv
    return grad, hess


def _bl_derivs(x, w, n, p) -> tuple[np.ndarray, np.ndarray]:
    """The (J, 4) gradient and (J, 4, 4) Hessian in (a, b, s, t) of the
    exact log-likelihood n ln c - sum_i w_i e_i, c = 1/Z.

    The data give the weighted sums of ``_bl_edge_derivs``.  The normalizer
    gives n E[grad e] and -n (Cov[grad e] - E[hess e]) under the density,
    from one 15-point Kronrod pass over the panels of Z's quadrature.
    """
    j, count = x.shape
    pts_grad, pts_hess = _bl_edge_derivs(x, p)
    grad = -(pts_grad @ w[:, :, None])[:, :, 0]
    hess = -(pts_hess.reshape(j, 16, count) @ w[:, :, None]).reshape(j, 4, 4)
    for k in range(j):
        q = p[:, k:k + 1]
        mass, panels = uv._bl_mass(*q[:, 0])
        nodes, half = _kronrod_nodes(panels[:-1], panels[1:])
        nodes = nodes.reshape(1, -1)
        dens = (half[:, None] * _WK).ravel() / mass * np.exp(-_bl_edges(nodes, q))[0]
        (node_grad,), (node_hess,) = _bl_edge_derivs(nodes, q)
        mean = node_grad @ dens
        dev = node_grad - mean[:, None]
        grad[k] += n[k] * mean
        hess[k] -= n[k] * ((dev * dens) @ dev.T - node_hess @ dens)
    return grad, hess


class _Kernel(NamedTuple):
    """A family's coordinate order and its log-density ln f(x_i) = const -
    edges_i: the per-problem constant ``const(p)`` (J,) and the per-point
    sum of its two shoulder terms ``edges(x, p)`` (J, N), plus
    ``derivs(x, w, n, p)``, the (J, P) gradient and (J, P, P) Hessian of
    the weighted log-likelihood."""

    names: tuple[str, ...]
    const: Callable[[np.ndarray], np.ndarray]
    edges: Callable[[np.ndarray, np.ndarray], np.ndarray]
    derivs: Callable

    def terms(self, x, p) -> tuple[np.ndarray, np.ndarray]:
        """(const, edges) at ``p``."""
        return self.const(p), self.edges(x, p)


_KERNELS = {
    "AL": _Kernel(("a", "b", "s"), _al_const, _al_edges, _al_derivs),
    "BL": _Kernel(("a", "b", "s", "t"), _bl_const, _bl_edges, _bl_derivs),
}


def _loglik(family: str, x, w, n, p, terms=None) -> np.ndarray:
    """The (J,) weighted log-likelihoods n const - sum_i w_i edges_i, from
    ``terms`` = (const, edges) if the caller holds them at ``p``."""
    const, edges = _KERNELS[family].terms(x, p) if terms is None else terms
    return n * const + _wsum(w, -edges)


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
    return float(_loglik("AL", *_one(data, weights), _params(a, b, s))[0])


def grad_al(data, a: float, b: float, s: float, weights=None) -> tuple[float, float, float]:
    """First partials of the AL log-likelihood with respect to (a, b, s)."""
    grad = _al_derivs(*_one(data, weights), _params(a, b, s))[0]
    return tuple(float(v) for v in grad[0])


def hess_al(data, a: float, b: float, s: float, weights=None) -> AlHessian:
    """All six second partials of the AL log-likelihood, from the batched
    kernel."""
    hess = _al_derivs(*_one(data, weights), _params(a, b, s))[1][0]
    pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    return AlHessian(*(float(hess[i, j]) for i, j in pairs))


# ---------------------------------------------------------------------------
# BL: exact log-likelihood (quadrature normalizer) and flat-regime gradients
# ---------------------------------------------------------------------------

def loglik_bl(data, a: float, b: float, s: float, t: float, weights=None) -> float:
    """BL log-likelihood with the exact (quadrature) normalizer."""
    return float(_loglik("BL", *_one(data, weights), _params(a, b, s, t))[0])


def grad_bl_flat(data, a: float, b: float, s: float, t: float,
                 weights=None) -> BlGradient:
    """Flat-regime approximate partials of the BL log-likelihood.

    ``flat_regime`` is False when the closed-form flatness bound is not
    below ``flatness.FLAT_REGIME_BOUND``, i.e. when these approximations are
    unreliable.
    """
    from .flatness import FLAT_REGIME_BOUND, bl_flat_bound

    x, w, n = _one(data, weights)
    f_a = logistic((x - a) / s)  # F_L(x; a, s)
    f_b = logistic((x - b) / t)  # F_L(x; b, t)
    grads = (n / (b - a) - _wsum(w, 1.0 - f_a) / s, -n / (b - a) + _wsum(w, f_b) / t,
             _wsum(w, (a - x) * (1.0 - f_a)) / s ** 2, _wsum(w, (x - b) * f_b) / t ** 2)
    return BlGradient(*(float(g[0]) for g in grads),
                      bool(bl_flat_bound(a, b, s, t) < FLAT_REGIME_BOUND))


# ---------------------------------------------------------------------------
# CL: log-likelihood and the block kernel.  The fit works in the blocks
# theta = (m, Lambda = Sigma^-1, log R, log t) with R = r^n.
# ---------------------------------------------------------------------------

def _cl_points(rows: np.ndarray, m: np.ndarray, lam: np.ndarray, t: float):
    """d = x - m, q = d^T Lambda d and u = t q^(n/2) for every row."""
    d = rows - m
    q = np.maximum(np.einsum("ij,jk,ik->i", d, lam, d), 0.0)
    return d, q, t * q ** (rows.shape[1] / 2.0)


def _loglik_cl_raw(rows, m, lam, big_r, t) -> float:
    count, n_dim = rows.shape
    _, _, u = _cl_points(rows, m, lam, t)
    const = (math.lgamma(n_dim / 2.0 + 1.0) - (n_dim / 2.0) * math.log(math.pi)
             - math.log(big_r) + 0.5 * float(np.linalg.slogdet(lam)[1]))
    return count * const + float(np.sum(log_sinh_ratio(u, big_r * t)))


def loglik_cl(data, spec: MultivariateSpec) -> float:
    """Log-likelihood of a CL spec on rows of points."""
    rows = _rows_of(data)
    lam = np.linalg.inv(spec.sigma)
    return _loglik_cl_raw(rows, spec.m, lam, spec.r ** spec.n, spec.t)


def _cl_block(rows, theta, block: int):
    """Gradient of the CL log-likelihood in block ``block`` of ``theta`` and
    the second derivative along the unit vector of that gradient.

    Per point, phi(u, a) = ln sinh a - ln(cosh u + cosh a), a = R t, has
    phi_u = -A, phi_a = coth a - B, phi_uu = -S, phi_ua = -D and phi_aa =
    -csch^2 a - S, where A = sigma(u - a) - sigma(-u - a), B = sigma(a - u)
    - sigma(-u - a), S = sigma'(u - a) + sigma'(-u - a) and D = sigma'(-u - a)
    - sigma'(u - a) for the logistic sigma.  A step along g moves u and a at
    rates (u', u'', a', a''); the curvature sums phi'' over the points, plus
    -N tr(Sigma V Sigma V) / 2 from ln |Lambda| for the Lambda block.
    """
    m, lam, log_r, log_t = theta
    count, n_dim = rows.shape
    t = math.exp(log_t)
    a = math.exp(log_r + log_t)
    d, q, u = _cl_points(rows, m, lam, t)
    safe_q = np.where(q > 0.0, q, math.inf)  # a point at m adds no u'(q), u''(q)
    du_dq = 0.5 * n_dim * u / safe_q
    d2u_dq2 = (0.5 * n_dim - 1.0) * du_dq / safe_q
    hi, hi_c = logistic(u - a), logistic(a - u)
    lo, lo_c = logistic(-u - a), logistic(u + a)
    ratio_u = hi - lo                  # A = sinh u / (cosh u + cosh a)
    ratio_a = hi_c - lo                # B = sinh a / (cosh u + cosh a)
    s_sum = hi * hi_c + lo * lo_c
    s_diff = lo * lo_c - hi * hi_c
    coth_a = float(coth(a))
    extra = 0.0
    if block < 2:  # m and Lambda move u through q, at rates q' and q''
        if block == 0:
            grad = 2.0 * lam @ ((ratio_u * du_dq) @ d)
            dq, d2q = -2.0 * (d @ (lam @ grad)), 2.0 * grad @ lam @ grad
        else:
            sigma = np.linalg.inv(lam)
            grad = 0.5 * count * sigma - (d.T * (ratio_u * du_dq)) @ d
            dq, d2q = np.einsum("ij,jk,ik->i", d, grad, d), 0.0
            sv = sigma @ grad
            extra = -0.5 * count * float(np.sum(sv * sv.T))
        du, d2u = du_dq * dq, d2u_dq2 * dq * dq + du_dq * d2q
        da = d2a = 0.0
    else:  # log R moves a; log t moves a and u; each at unit rate in its log
        rate_u = u if block == 3 else 0.0
        grad = (float(np.sum((coth_a - ratio_a) * a - ratio_u * rate_u))
                - (count if block == 2 else 0.0))
        du, d2u, da, d2a = grad * rate_u, grad * grad * rate_u, grad * a, grad * grad * a
    curv = extra + float(np.sum(-ratio_u * d2u + (coth_a - ratio_a) * d2a - s_sum * du * du
                                - 2.0 * s_diff * du * da - (float(csch2(a)) + s_sum) * da * da))
    norm2 = float(np.sum(np.square(grad)))
    return grad, (curv / norm2 if norm2 > 0.0 else 0.0)


def _grad_cl_raw(rows, m, lam, big_r, t):
    """Gradient blocks for (m, Lambda = Sigma^-1, R = r^n, t)."""
    theta = (m, lam, math.log(big_r), math.log(t))
    gm, glam, g_log_r, g_log_t = (_cl_block(rows, theta, block)[0] for block in range(4))
    return gm, glam, g_log_r / big_r, g_log_t / t


def grad_cl(data, spec: MultivariateSpec):
    """Gradient blocks of the CL log-likelihood for {m, Sigma^-1, r^n, t}."""
    rows = _rows_of(data)
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
    """Near-uniform starting point: s = span / N, four times the floor
    span / (4N) of ``init_al_from_normal_fit``, and boundaries one s inside
    the sample range."""
    x = _data_1d(data)
    span = float(x.max() - x.min())
    if span == 0.0:
        raise ValueError("degenerate data: all points equal")
    s = span / x.size
    # Two ulps at least, so that min(x) < a < b < max(x) on near-constant data.
    inset = max(s, float(_ulps(x.min(), x.max(), 2.0)))
    return uv.make("AL", {"a": float(x.min()) + inset, "b": float(x.max()) - inset, "s": s})


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
    eps = max(1e-9 * span, float(_ulps(lo, hi, 2.0)))
    a = min(max(raw.a, lo + eps), hi - 2.0 * eps)
    b = max(min(raw.b, hi - eps), a + eps)
    s = min(max(raw.s, s_min), max(sd, s_min * 1.0000001))
    return uv.make("AL", {"a": a, "b": b, "s": s})


def init_cl_from_data(data) -> MultivariateSpec:
    """Moment-based CL start: sample mean and covariance, the median
    elliptical radius, and a mid-steep shoulder."""
    rows = _rows_of(data)
    m = rows.mean(axis=0)
    sigma = np.cov(rows.T, bias=True)
    sigma = np.atleast_2d(sigma)
    n_dim = rows.shape[1]
    sigma += 1e-8 * float(np.trace(sigma)) / n_dim * np.eye(n_dim)
    rho = np.sqrt(_cl_points(rows, m, np.linalg.inv(sigma), 1.0)[1])
    r = float(np.median(rho)) or 1.0
    t = 4.0 / r ** n_dim
    return make_mv("CL", m, r=r, t=t, sigma=sigma)


# ---------------------------------------------------------------------------
# The AL and BL pass
# ---------------------------------------------------------------------------

def _bounds_from_data(x: np.ndarray) -> np.ndarray:
    """(lo, hi, s_min, s_max) of the box every iterate stays in."""
    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    if span == 0.0:
        raise ValueError("degenerate data: all points equal")
    sd = float(np.std(x))
    return np.array([lo, hi, span / (4.0 * x.size), max(sd, 2.0 * span / (4.0 * x.size))])


def _ulps(lo, hi, k: float):
    """k ulps of the larger of |lo| and |hi|: the least offset from data in
    [lo, hi] that survives rounding."""
    return k * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))


def _edge_gap(lo, hi):
    """(eps, gap): a and b keep eps inside the data range and b - a >= gap,
    which is at least a few ulps of the data, so that b - a > 0."""
    eps = 1e-9 * (hi - lo)
    return eps, np.maximum(eps, _ulps(lo, hi, 4.0))


def _backtrack(family, x, w, n, p, ll, terms, step, low, high, least_width,
               rounding) -> np.ndarray:
    """Take the (P, J) ``step`` from ``p``, clipped to [low, high], halving
    it per problem, by mask, until that problem's log-likelihood does not
    decrease; a candidate whose b - a is below ``least_width`` (J,) is
    halved without a trial.  A problem whose ``rounding`` (J,) is above 0
    gets one candidate, taken unless the log-likelihood falls by more than
    that.  A trial recomputes the kernel's terms.  Updates ``p``,
    ``ll`` and the ``terms`` list in place and returns the mask of problems
    that took a step without a fall."""
    kernel = _KERNELS[family]
    moved = np.zeros(p.shape[1], dtype=bool)
    live = np.ones(p.shape[1], dtype=bool)
    tried = np.full_like(p, np.nan)
    tries = np.where(rounding > 0.0, 1, _MAX_BACKTRACKS)
    for attempt in range(_MAX_BACKTRACKS):
        cand = np.minimum(np.maximum(p + step, low), high)
        # Clip or underflow (no movement possible), or no tries left.
        live &= (cand != p).any(axis=0) & (attempt < tries)
        if not live.any():
            break
        # A clipped step can repeat the candidate just rejected: skip it.
        fresh = live & (cand != tried).any(axis=0) & (cand[1] - cand[0] >= least_width)
        idx = np.flatnonzero(fresh)
        tried = cand
        step = step * _BACKTRACK_FACTOR
        if idx.size == 0:
            continue
        sub = slice(None) if idx.size == p.shape[1] else idx  # a view when all try
        trial = cand[:, sub]
        trial_terms = kernel.terms(x[sub], trial)
        ll_new = _loglik(family, x[sub], w[sub], n[sub], trial, trial_terms)
        kept = ll_new >= ll[idx]
        up = ll_new >= ll[idx] - rounding[idx]
        done = idx[up]
        p[:, done] = trial[:, up]
        ll[done] = ll_new[up]
        for old, new in zip(terms, trial_terms):
            old[done] = new[up]
        moved[done] = kept[up]
        live[done] = False
    return moved


def _newton_pass(family, x, w, n, p, ll, terms, derivs, bounds):
    """One projected modified-Newton step on the whole AL block (a, b, s) or
    BL block (a, b, s, t) of J independent problems at once.

    ``x``, ``w``, ``n`` and ``p`` are in the kernel layout above, ``ll`` is
    the (J,) log-likelihood at ``p``, ``terms`` the kernel's (const, edges)
    at ``p``, ``derivs`` its (gradient, Hessian) at ``p`` and
    ``bounds`` the (4, J) rows of ``_bounds_from_data``.  A coordinate at
    its bound (or beyond it, where a start put it) with the gradient
    pointing out is held: its gradient entry is zeroed and its Hessian row
    and column become those of -I.  The step is V |L|^-1 V^T g for the
    eigenpairs (L, V) of the Hessian, with |L| floored at 1e-12 of its
    largest entry.  ``_backtrack`` halves it.  A candidate keeps at least
    half of each scale (s, t; a bound of the box) and half of b - a above
    the least gap (a narrower one is halved without a trial): without that
    rule a bell-shaped fit can collapse a onto b, the logistic limit, which
    is stationary by symmetry.  Scaling the whole step instead stalls a fit
    whose b - a is already near 0, where a shift of the location alone
    would take it all.  Returns the new parameters, log-likelihoods and
    terms (each equal to the kernel's at the new parameters) and the mask
    of problems that took a step without a fall.
    """
    lo, hi, s_min, s_max = bounds
    eps, gap = _edge_gap(lo, hi)
    grad, hess = derivs
    scales = p[2:]
    # A coordinate never leaves the box, nor moves further out of it.
    low = np.minimum(np.vstack([lo + eps, np.full_like(lo, -np.inf),
                                np.maximum(s_min, 0.5 * scales)]), p)
    high = np.maximum(np.vstack([np.full_like(hi, np.inf), hi - eps,
                                 np.broadcast_to(s_max, scales.shape)]), p)
    held = (((p <= low) & (grad.T < 0.0)) | ((p >= high) & (grad.T > 0.0))).T
    grad = np.where(held, 0.0, grad)
    hess = np.where(held[:, :, None] | held[:, None, :], -np.eye(len(p)) * held[:, :, None],
                    hess)
    vals, vecs = np.linalg.eigh(hess)
    mag = np.abs(vals)
    mag = np.maximum(mag, np.maximum(1e-12 * mag.max(axis=1, keepdims=True), 1e-300))
    step = (vecs @ ((np.swapaxes(vecs, 1, 2) @ grad[:, :, None]) / mag[:, :, None]))[:, :, 0].T
    least_width = np.minimum(p[1] - p[0], 0.5 * (p[1] - p[0] + gap))
    # A step whose predicted gain g.step / 2 is below the rounding error of
    # the log-likelihood (eps times the sum of its terms' magnitudes) is
    # tried once, and taken unless the log-likelihood falls by more than
    # that: there a trial compares rounding errors, so whether the full step
    # or one of its halvings passes is chance, and halving on to underflow
    # costs up to _MAX_BACKTRACKS trials a pass.
    rounding = _EPS * (np.abs(n * terms[0]) + (n * terms[0] - ll))
    rounding = np.where(0.5 * np.einsum("ji,ij->j", grad, step) <= rounding, rounding, 0.0)
    p, ll, terms = p.copy(), ll.copy(), [t.copy() for t in terms]
    moved = _backtrack(family, x, w, n, p, ll, terms, step, low, high, least_width, rounding)
    return p, ll, tuple(terms), moved


def _ascend(one_pass, state, ll: float, settings: FitSettings, k: int, count: int):
    """The outer loop of every fit.  ``one_pass(state)`` returns the new
    state, its log-likelihood, the gradient norm per point and whether the
    pass made progress.  Stops when the gradient norm is below ``grad_tol``
    (converged), after a pass without progress, or after ``max_iters``
    passes.  Returns the last state and its FitReport for ``k`` free
    parameters and ``count`` points; the caller fills in ``final_params``."""
    trace = [ll]
    converged = False
    grad_norm = math.inf
    iters = 0
    for iters in range(1, settings.max_iters + 1):
        state, ll, grad_norm, progressed = one_pass(state)
        trace.append(ll)
        if grad_norm < settings.grad_tol:
            converged = True
            break
        if not progressed:
            break
    aic, bic = _aic_bic(k, ll, count)
    return state, FitReport(converged=converged, iterations=iters, loglik_trace=trace,
                            final_params={}, grad_norm=grad_norm, aic=aic, bic=bic,
                            free_params=k)


def _aic_bic(k: int, ll: float, count: int) -> tuple[float, float]:
    """(AIC, BIC) = (2k - 2l, k ln N - 2l) of every fit: k free parameters,
    final log-likelihood l, N points."""
    return 2.0 * k - 2.0 * ll, k * math.log(count) - 2.0 * ll


def _fit_univariate(x: np.ndarray, init: uv.UnivariateSpec, settings: FitSettings,
                    weights=None) -> tuple[uv.UnivariateSpec, FitReport]:
    """AL or BL fit: passes of ``_newton_pass`` on the single problem
    (J = 1); a pass makes progress when it takes a step without a fall.  The
    derivatives at each new iterate serve both the stop rule and the next
    pass."""
    kernel = _KERNELS[init.family]
    bounds = _bounds_from_data(x)
    lo, hi, s_min = bounds[:3]
    if not (lo < init.a < init.b < hi):
        raise ValueError(
            f"init violates min(x) < a < b < max(x): a={init.a}, b={init.b}, "
            f"range=({lo}, {hi})")
    if init.family == "AL" and not init.s >= s_min:
        raise ValueError(f"init violates s >= {s_min}: s={init.s}")

    x1, w1, n = _one(x, weights)

    def one_pass(state):
        p, ll, terms, moved = _newton_pass(init.family, x1, w1, n, *state, bounds[:, None])
        derivs = kernel.derivs(x1, w1, n, p)
        grad_norm = float(np.max(np.abs(derivs[0]))) / float(n[0])
        return (p, ll, terms, derivs), float(ll[0]), grad_norm, bool(moved[0])

    p = _params(*(getattr(init, name) for name in kernel.names))
    terms = kernel.terms(x1, p)
    ll = _loglik(init.family, x1, w1, n, p, terms)
    state = (p, ll, terms, kernel.derivs(x1, w1, n, p))
    (p, *_), report = _ascend(one_pass, state, float(ll[0]), settings, len(kernel.names),
                              x.size)
    spec = uv.make(init.family, dict(zip(kernel.names, p[:, 0])))
    report.final_params = spec.params()
    return spec, report


def _project_pd(mat: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def _fit_cl(rows: np.ndarray, init: MultivariateSpec,
            settings: FitSettings) -> tuple[MultivariateSpec, FitReport]:
    """CL fit by block passes (see the module docstring); a pass makes
    progress when it strictly raises the log-likelihood."""
    count, n_dim = rows.shape

    def loglik(theta):
        m, lam, log_r, log_t = theta
        # The log blocks stay where exp(log R), exp(log t) and u are safe
        # doubles, with a = R t >= 1e-8: below that the density equals its
        # a -> 0 limit to double precision, and ln sinh a loses its digits.
        if not (abs(log_r) <= 200.0 and abs(log_t) <= 200.0 and log_r + log_t >= -18.0):
            return -math.inf
        return _loglik_cl_raw(rows, m, lam, math.exp(log_r), math.exp(log_t))

    def one_pass(state):
        theta, ll = state
        start = ll
        for block in range(4):
            grad, curv = _cl_block(rows, theta, block)
            step = 1.0 / max(abs(curv), 1e-12) * grad
            if block >= 2:  # one e-fold at most: the curvature can vanish there
                step = min(max(step, -1.0), 1.0)
            for _ in range(_MAX_BACKTRACKS):
                cand = list(theta)
                cand[block] = _project_pd(theta[1] + step) if block == 1 else theta[block] + step
                ll_new = loglik(cand)
                if ll_new >= ll:
                    theta, ll = cand, ll_new
                    break
                step = step * _BACKTRACK_FACTOR
        grads = _grad_cl_raw(rows, theta[0], theta[1], math.exp(theta[2]), math.exp(theta[3]))
        grad_norm = max(float(np.max(np.abs(g))) for g in grads) / count
        return (theta, ll), ll, grad_norm, ll > start

    theta = [init.m.copy(), np.linalg.inv(init.sigma), n_dim * math.log(init.r),
             math.log(init.t)]
    k = (n_dim + 1) * (n_dim + 2) // 2  # t is redundant with the scale of Sigma
    ll = loglik(theta)
    ((m, lam, log_r, log_t), _), report = _ascend(one_pass, (theta, ll), ll, settings, k, count)
    sigma = np.linalg.inv(lam)
    spec = make_mv("CL", m, r=math.exp(log_r / n_dim), t=math.exp(log_t), sigma=sigma)
    report.final_params = {"m": m.tolist(), "Sigma": sigma.tolist(), "r": spec.r, "t": spec.t}
    report.free_params_unconstrained = k + 1
    return spec, report


def fit(data, init, settings: FitSettings | None = None):
    """Fit AL, BL (univariate specs) or CL (multivariate spec) by monotone
    ascent starting from ``init``: block Newton steps for AL and BL,
    coordinate passes for CL.

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
        rows = _rows_of(data)
        if rows.shape[0] < 2:
            raise ValueError("CL fit needs at least two points")
        if float(np.max(np.var(rows, axis=0))) == 0.0:
            raise ValueError("degenerate data: all points equal")
        return _fit_cl(rows, init, settings)
    raise TypeError(f"unsupported init type: {type(init).__name__}")
