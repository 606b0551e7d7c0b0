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

The elliptical cosh-ratio family (CL) carries them too, in coordinates
where its log-likelihood has no flat direction: (Lambda, R = r^n, t) enter
it only through Lambda' = t^(2/n) Lambda and a = R t, so the fit climbs m,
the Cholesky factor L of Lambda' (its diagonal as a log) and log a, on the
data whitened by its start.

One pass of every family is one projected modified-Newton step on all its
coordinates (Nocedal & Wright, *Numerical Optimization*, 3.4): a
coordinate within 4 ulps of its bound with the gradient pointing out is
pinned, the Hessian's eigenvalues are taken in absolute value, an AL or
BL step shrinks b - a and each scale by at most half, and the step is
halved until the log-likelihood does not decrease, so every accepted step
is an ascent step.  Each family's box bounds its coordinates: a and b
inside the data range and the scales for AL and BL, log a alone for CL.

The pass runs on J independent weighted problems at once, backtracking
each by mask: ``fit`` is its J = 1 case with unit (or dataset) weights,
and the mixture M-step runs it on every (component, axis) factor with the
responsibilities as weights.  Each family's log-density is one kernel, a
per-problem constant minus a per-point edge term (for AL and BL the sum
of the two shoulders' terms); the log-likelihood sums them, and the mixture E-step
scores points with the same terms.  A pass takes the terms and the
derivatives at its start, and the rows of its box that depend only on the
data, which each fit builds once: ``fit`` in ``_climb``, GEM in
``mixture._Flat``.  It writes the parameters, log-likelihood and terms of
every accepted step into the caller's arrays, in place, so the GEM state
holds them without a copy; a trial step recomputes both terms, and the
backtrack stops once no problem is live.  Each pass keeps b - a at least a
few ulps of the data, so the density stays defined on near-constant
samples.

Every fit stops by one rule: it is ``converged`` when the gain its next
step predicts, g.step / 2 (for the Newton step, half the squared Newton
decrement; Boyd & Vandenberghe, *Convex Optimization*, 9.5.1), is no
larger than the rounding error of its log-likelihood (``_rounding_error``).
There a trial would compare rounding errors, so a problem held by that
rule gets none.  A fit also stops after a pass that took no step, or
after ``max_iters`` passes, and is then not converged.
"""

from __future__ import annotations

import math
import numbers
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

# Step control: the Newton step of every family shrinks by _BACKTRACK_FACTOR
# up to _MAX_BACKTRACKS times until the log-likelihood does not fall.
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 30
_EPS = float(np.finfo(float).eps)


def _rounding_error(n, const, ll):
    """The rounding error of a log-likelihood ``ll`` = n const + sum_i v_i
    whose per-point terms v_i all have one sign: 4 eps times the sum of the
    terms' magnitudes, |n const| + (n const - ll).  Every kernel subtracts
    edges >= 0, so it serves every family."""
    return 4.0 * _EPS * (np.abs(n * const) + (n * const - ll))


@dataclass(frozen=True)
class FitSettings:
    """Iteration budget: a fit stops after ``max_iters`` passes if the
    stop rule of the module docstring has not stopped it before."""

    max_iters: int = 500

    def __post_init__(self) -> None:
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")


@dataclass
class FitReport:
    """Optimization trace of every fit (``fit``, ``mixture.gmm_fit`` and
    ``mixture.ftm_fit``).  A ``fit`` trace never decreases; a mixture
    trace never decreases beyond 1e-9 slack.

    ``iterations`` counts fit passes or EM cycles, and AIC and BIC
    come from the last log-likelihood of the trace and ``free_params``.
    ``grad_norm``, the largest gradient entry per point at the final
    parameters, is a diagnostic only (no stop rule reads it); it is NaN for
    mixtures, and ``final_params`` is empty for them.
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
    """ln cosh z_a + ln cosh z_b, from one log_cosh of the (J, 2, N) z."""
    shoulders = log_cosh((x[:, None, :] - p[:2].T[:, :, None]) / (2.0 * p[2])[:, None, None])
    return np.add(shoulders[:, 0], shoulders[:, 1], out=shoulders[:, 0])


# Below this g = (b - a)/2s the differences 1/g - coth g, 1/g^2 - csch^2 g and
# coth g - g csch^2 g lose about eps/g^2 relative in direct form, and four
# terms of their Taylor series are exact to double precision.
_G_SERIES = 0.05


def _coth_terms(g):
    """coth g, csch^2 g and the (3, J) rows of the three differences above,
    for g > 0."""
    e = np.expm1(-2.0 * g)  # e^-2g - 1, without cancellation
    cg = (-2.0 - e) / e
    c2g = 4.0 * (1.0 + e) / (e * e)
    small = g < _G_SERIES
    gd = np.where(small, 1.0, g)
    diffs = np.empty((3, *g.shape))
    np.subtract(1.0 / gd, cg, out=diffs[0])
    np.subtract(1.0 / (gd * gd), c2g, out=diffs[1])
    np.subtract(cg, gd * c2g, out=diffs[2])
    if small.any():
        gs = g[small]
        g2 = gs * gs
        diffs[0, small] = -gs * (1.0 / 3.0 - g2 * (1.0 / 45.0 - g2 * (2.0 / 945.0 - g2 / 4725.0)))
        diffs[1, small] = 1.0 / 3.0 - g2 * (1.0 / 15.0 - g2 * (2.0 / 189.0 - g2 / 675.0))
        diffs[2, small] = gs * (2.0 / 3.0
                                - g2 * (4.0 / 45.0 - g2 * (4.0 / 315.0 - g2 * 8.0 / 4725.0)))
    return cg, c2g, diffs


# The signs of the partials in a and b: the constant's d/db = -d/da and
# d2/dbds = -d2/dads, while d2/db2 = d2/da2.
_SIGNS = np.array([[1.0], [-1.0]])


def _al_derivs(x, w, n, p) -> tuple[np.ndarray, np.ndarray]:
    """The (J, 3) gradient and (J, 3, 3) Hessian in (a, b, s).

    The constant ln sinh g - ln 2(b - a) gives the n-weighted coth/csch^2
    terms (``_coth_terms``, which keeps them exact as b - a -> 0).  The
    edges give ten weighted sums, one (J, 10, N) @ (J, N, 1) product: of
    tanh z, z tanh z, sech^2 z, z sech^2 z and z^2 sech^2 z at z = z_a and
    z_b, with sech^2 = 1 - tanh^2.  Every entry is computed on arrays over
    the J problems, the pairs in (a, b) together with ``_SIGNS``.
    """
    a, b, s = p
    j, count = x.shape
    g = (b - a) / (2.0 * s)
    cg, c2g, diffs = _coth_terms(g)
    scales = np.empty((3, j))
    half_s, quarter, half = scales  # 1/2s, 1/4s^2 and 1/2s^2
    np.divide(0.5, s, out=half_s)
    z = x[:, None, :] - p[:2].T[:, :, None]  # (J, 2, N)
    z *= half_s[:, None, None]
    # Each function is computed on contiguous (J, 2, N) arrays and copied into
    # its strided row: a ufunc on the strided rows is up to twice as slow.
    rows = np.empty((j, 5, 2, count))
    q = np.tanh(z)
    rows[:, 0], rows[:, 1] = q, z * q
    np.subtract(1.0, q * q, out=q)
    rows[:, 2] = q
    rows[:, 3] = np.multiply(z, q, out=q)
    rows[:, 4] = np.multiply(z, q, out=q)
    t_sum, zt_sum, q_sum, zq_sum, zzq_sum = (
        (rows.reshape(j, 10, count) @ w[:, :, None]).reshape(j, 5, 2).transpose(1, 2, 0))
    ss = s * s
    np.multiply(half_s, half_s, out=quarter)
    np.divide(0.5, ss, out=half)
    # n times the constant's partials in a, (a, a) and (a, s), with _SIGNS
    # for b; its (a, b) partial is -c_aa.
    c_a, c_aa, c_as = n * scales * diffs
    zt = zt_sum[0] + zt_sum[1]
    grad = np.empty((j, 3))
    grad[:, :2] = (half_s * t_sum + _SIGNS * c_a).T
    grad[:, 2] = (zt - n * g * cg) / s
    hess = np.empty((j, 3, 3))
    flat = hess.reshape(j, 9)  # (a, a), (b, b) at 0 and 4; (a, b), (b, a) at 1 and 3
    flat[:, 0:5:4] = (c_aa - quarter * q_sum).T
    flat[:, 1:4:2] = -c_aa[:, None]
    hess[:, :2, 2] = hess[:, 2, :2] = (_SIGNS * c_as - half * (t_sum + zq_sum)).T
    hess[:, 2, 2] = (n * (2.0 * g * cg - g * g * c2g) - 2.0 * zt
                     - zzq_sum[0] - zzq_sum[1]) / ss
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
    edge term ``edges(x, p)`` (J, N), for AL and BL the sum of its two
    shoulder terms; ``derivs(x, w, n, p)``, the (J, P) gradient and
    (J, P, P) Hessian of the weighted log-likelihood; ``box(p, bounds)``,
    the rows of its box that depend only on the data (see
    ``_newton_pass``), built once per fit; and ``scales``, the coordinates
    that keep at least half their value in a step (none for CL)."""

    names: tuple[str, ...]
    const: Callable[[np.ndarray], np.ndarray]
    edges: Callable[[np.ndarray, np.ndarray], np.ndarray]
    derivs: Callable
    box: Callable
    scales: slice = slice(0)

    def terms(self, x, p) -> tuple[np.ndarray, np.ndarray]:
        """(const, edges) at ``p``."""
        return self.const(p), self.edges(x, p)


def _al_bl_box(p, bounds):
    """(low, high, gap) of J AL or BL problems, from the (4, J) ``bounds``
    rows of ``_bounds_from_data``: a and b keep eps inside the data range,
    each scale stays in [s_min, s_max], and b - a keeps the least gap."""
    lo, hi, s_min, s_max = bounds
    eps, gap = _edge_gap(lo, hi)
    scales = len(p) - 2
    low = np.vstack([lo + eps, np.full_like(lo, -np.inf), *[s_min] * scales])
    high = np.vstack([np.full_like(hi, np.inf), hi - eps, *[s_max] * scales])
    return low, high, gap


_KERNELS = {
    "AL": _Kernel(("a", "b", "s"), _al_const, _al_edges, _al_derivs, _al_bl_box, slice(2, None)),
    "BL": _Kernel(("a", "b", "s", "t"), _bl_const, _bl_edges, _bl_derivs, _al_bl_box,
                  slice(2, None)),
}


def _loglik(family: str, x, w, n, p, terms=None) -> np.ndarray:
    """The (J,) weighted log-likelihoods n const - sum_i w_i edges_i, from
    ``terms`` = (const, edges) if the caller holds them at ``p``."""
    const, edges = _KERNELS[family].terms(x, p) if terms is None else terms
    return n * const - _wsum(w, edges)


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
# CL kernel.  With Lambda' = t^(2/n) Lambda = L L^T and a = R t, R = r^n, the
# log-density is ln Gamma(n/2 + 1) - (n/2) ln pi - ln a + ln |L| + phi(u, a)
# for u = |L^T (x - m)|^n and phi(u, a) = ln sinh a - ln(cosh u + cosh a): it
# depends on (Lambda, R, t) only through (Lambda', a).  The coordinates are
# m, the entries of L in ``np.tril_indices`` order with its diagonal as a
# log, and log a: (n + 1)(n + 2)/2 of them.  ``y`` is (J, N, n).
# ---------------------------------------------------------------------------

def _cl_unpack(p):
    """m (J, n), the factor L (J, n, n) and a (J, 1) of the (P, J) coordinates."""
    dim = math.isqrt(2 * len(p)) - 1  # P = (n + 1)(n + 2)/2
    rows, cols = np.tril_indices(dim)
    lower = np.zeros((p.shape[1], dim, dim))
    lower[:, rows, cols] = p[dim:-1].T
    lower[:, range(dim), range(dim)] = np.exp(p[dim:-1][rows == cols].T)
    return p[:dim].T, lower, np.exp(p[-1:]).T


def _cl_coords(m, lam, big_r, t) -> np.ndarray:
    """The (P, 1) coordinates of (m, Lambda, R, t)."""
    dim = len(m)
    rows, cols = np.tril_indices(dim)
    entries = np.linalg.cholesky(t ** (2.0 / dim) * lam)[rows, cols]
    entries[rows == cols] = np.log(entries[rows == cols])
    return np.concatenate([m, entries, [math.log(big_r * t)]])[:, None]


def _cl_const(p) -> np.ndarray:
    dim = math.isqrt(2 * len(p)) - 1
    rows, cols = np.tril_indices(dim)
    return (math.lgamma(dim / 2.0 + 1.0) - (dim / 2.0) * math.log(math.pi) - p[-1]
            + p[dim:-1][rows == cols].sum(axis=0))


def _cl_edges(y, p) -> np.ndarray:
    """-phi(u, a) >= 0 at every point: inf or NaN where a trial step
    overflows L or u, so that ``_backtrack`` rejects it."""
    with np.errstate(over="ignore", invalid="ignore"):
        m, lower, a = _cl_unpack(p)
        z = (y - m[:, None, :]) @ lower
        return -log_sinh_ratio(np.sum(z * z, axis=2) ** (y.shape[2] / 2.0), a)


def _cl_parts(y, w, p):
    """The per-point pieces of the CL derivatives: d = x - m, z = L^T d, L,
    and the weighted factors c1 = phi_u u', c2 = phi_uu u'^2 + phi_u u'' and
    c_ua = phi_ua u' a on the gradient of s = |z|^2 and its outer product,
    a phi_a and a^2 (csch^2 a + S) = -a^2 phi_aa.

    phi_u = -A, phi_a = coth a - B, phi_uu = -S, phi_ua = -D and phi_aa =
    -csch^2 a - S, where A = sigma(u - a) - sigma(-u - a), B = sigma(a - u)
    - sigma(-u - a), S = sigma'(u - a) + sigma'(-u - a) and D = sigma'(-u - a)
    - sigma'(u - a) for the logistic sigma; u = s^(n/2) has u' = n u / 2s
    and u'' = (n/2 - 1) u' / s.
    """
    dim = y.shape[2]
    m, lower, a = _cl_unpack(p)
    d = y - m[:, None, :]
    z = d @ lower
    s = np.sum(z * z, axis=2)
    u = s ** (dim / 2.0)
    safe = np.where(s > 0.0, s, np.inf)  # a point at m adds no u'(s), u''(s)
    du = 0.5 * dim * u / safe
    hi, hi_c = logistic(u - a), logistic(a - u)
    lo, lo_c = logistic(-u - a), logistic(u + a)
    phi_u = lo - hi
    s_sum = hi * hi_c + lo * lo_c
    return (d, z, lower, w * phi_u * du, w * (phi_u * (0.5 * dim - 1.0) / safe - s_sum * du) * du,
            w * (hi * hi_c - lo * lo_c) * du * a, w * (coth(a) - hi_c + lo) * a,
            w * (csch2(a) + s_sum) * a * a)


def _cl_derivs(y, w, n, p) -> tuple[np.ndarray, np.ndarray]:
    """The (J, P) gradient and (J, P, P) Hessian in the CL coordinates.

    Through s, m and L move u: s has the gradient 2 (-L z, z_c d_r), the
    second entry over the entries (r, c) of L, and the Hessian 2 Lambda' in
    (m, m), -2 (L_pc d_r + [p = r] z_c) in (m_p, L_rc) and 2 [c = c'] d_r
    d_r' in (L_rc, L_r'c').  A diagonal entry L_cc = e^l moves by its log:
    its row and column scale by L_cc and its second derivative gains its
    first.
    """
    j, _, dim = y.shape
    rows, cols = np.tril_indices(dim)
    diag = dim + np.flatnonzero(rows == cols)
    d, z, lower, c1, c2, c_ua, slope_a, curv_a = _cl_parts(y, w, p)
    grad_s = 2.0 * np.concatenate([-z @ np.swapaxes(lower, 1, 2),
                                   z[:, :, cols] * d[:, :, rows]], axis=2)
    d_sum, z_sum = (np.einsum("jn,jni->ji", c1, v) for v in (d, z))
    grad = np.concatenate([np.einsum("jn,jnp->jp", c1, grad_s),
                           slope_a.sum(axis=1, keepdims=True)], axis=1)
    hess = np.zeros((j, len(p), len(p)))
    hess[:, :-1, :-1] = np.einsum("jn,jnp,jnq->jpq", c2, grad_s, grad_s)
    hess[:, :dim, :dim] += 2.0 * c1.sum(axis=1)[:, None, None] * lower @ np.swapaxes(lower, 1, 2)
    cross = -2.0 * (lower[:, :, cols] * d_sum[:, None, rows]
                    + np.eye(dim)[:, rows] * z_sum[:, None, cols])
    hess[:, :dim, dim:-1] += cross
    hess[:, dim:-1, :dim] += np.swapaxes(cross, 1, 2)
    dd = np.einsum("jn,jni,jnk->jik", c1, d, d)
    hess[:, dim:-1, dim:-1] += 2.0 * (cols[:, None] == cols) * dd[:, rows[:, None], rows]
    hess[:, -1, :-1] = hess[:, :-1, -1] = np.einsum("jn,jnp->jp", c_ua, grad_s)
    hess[:, -1, -1] = grad[:, -1] - curv_a.sum(axis=1)
    scale = np.ones_like(grad)
    scale[:, diag] = np.exp(p[diag]).T
    grad *= scale
    hess *= scale[:, :, None] * scale[:, None, :]
    hess[:, diag, diag] += grad[:, diag]
    grad[:, diag] += n[:, None]  # the constant: ln |L| - ln a
    grad[:, -1] -= n
    return grad, hess


def _cl_box(p, _):
    """(low, high, gap) of a CL problem: log a in [ln 1e-8, 400], every
    other coordinate free, and no gap.  Below a = 1e-8 the density equals
    its a -> 0 limit to double precision, and ln sinh a loses its digits."""
    low, high = np.full_like(p, -np.inf), np.full_like(p, np.inf)
    low[-1], high[-1] = math.log(1e-8), 400.0
    return low, high, -np.inf


_KERNELS["CL"] = _Kernel(("m", "L", "log_a"), _cl_const, _cl_edges, _cl_derivs, _cl_box)


def _loglik_cl_raw(rows, m, lam, big_r, t) -> float:
    p = _cl_coords(m, lam, big_r, t)
    return float(_loglik("CL", rows[None], np.ones((1, len(rows))), np.array([len(rows)]), p)[0])


def _cl_raw_args(data, spec: MultivariateSpec):
    return _rows_of(data), spec.m, np.linalg.inv(spec.sigma), spec.r ** spec.n, spec.t


def loglik_cl(data, spec: MultivariateSpec) -> float:
    """Log-likelihood of a CL spec on rows of points."""
    return _loglik_cl_raw(*_cl_raw_args(data, spec))


def _grad_cl_raw(rows, m, lam, big_r, t):
    """Gradient blocks for (m, Lambda = Sigma^-1, R = r^n, t), by the chain
    rule from the kernel's pieces: with G the gradient in Lambda' =
    t^(2/n) Lambda, sum_i c1_i d_i d_i^T + (N/2) Lambda'^-1, and g that in
    log a, they are -2 Lambda' sum_i c1_i d_i, t^(2/n) G, g / R and
    (2/n) tr(G Lambda') / t + g / t."""
    count, dim = rows.shape
    p = _cl_coords(m, lam, big_r, t)
    (d,), _, (lower,), (c1,), _, _, (slope_a,), _ = _cl_parts(rows[None], np.ones((1, count)), p)
    lam_prime = lower @ lower.T
    g_lam = (c1 * d.T) @ d + 0.5 * count * np.linalg.inv(lam_prime)
    g_log_a = float(np.sum(slope_a)) - count
    return (-2.0 * lam_prime @ (c1 @ d), t ** (2.0 / dim) * g_lam, g_log_a / big_r,
            (2.0 / dim * float(np.sum(g_lam * lam_prime)) + g_log_a) / t)


def grad_cl(data, spec: MultivariateSpec):
    """Gradient blocks of the CL log-likelihood for {m, Sigma^-1, r^n, t}."""
    return _grad_cl_raw(*_cl_raw_args(data, spec))


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
    sigma = np.atleast_2d(np.cov(rows.T, bias=True))
    n_dim = rows.shape[1]
    sigma += 1e-8 * float(np.trace(sigma)) / n_dim * np.eye(n_dim)
    rho = np.linalg.norm(np.linalg.solve(np.linalg.cholesky(sigma), (rows - m).T), axis=0)
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


def _backtrack(family, x, w, n, p, ll, terms, step, low, high, least_width) -> np.ndarray:
    """Take the (P, J) ``step`` from ``p``, clipped to [low, high], halving
    it per problem, by mask, until that problem's log-likelihood does not
    decrease; a candidate whose coordinates 1 and 0 differ by less than
    ``least_width`` (an AL or BL b - a below its floor; -inf for CL) is
    halved without a trial, and a problem whose step is 0 gets none.  A
    trial recomputes the kernel's terms.  Writes each accepted candidate,
    its log-likelihood and its terms into ``p``, ``ll`` and the ``terms``
    arrays, in place, and stops once no problem is live.  Returns the mask
    of problems that took a step."""
    kernel = _KERNELS[family]
    live = step.any(axis=0)
    moved = np.zeros(p.shape[1], dtype=bool)
    tried = None
    for _ in range(_MAX_BACKTRACKS):
        if not live.any():
            break
        cand = np.minimum(np.maximum(p + step, low), high)
        live &= (cand != p).any(axis=0)  # clip or underflow: no movement possible
        fresh = live & (cand[1] - cand[0] >= least_width)
        if tried is not None:  # a clipped step can repeat the candidate just rejected: skip it
            fresh &= (cand != tried).any(axis=0)
        (idx,) = fresh.nonzero()
        if idx.size:
            sub = slice(None) if idx.size == p.shape[1] else idx  # views when all try
            trial = cand[:, sub]
            trial_terms = kernel.terms(x[sub], trial)
            ll_new = _loglik(family, x[sub], w[sub], n[sub], trial, trial_terms)
            up = ll_new >= ll[sub]
            if not up.all():
                sub, trial, ll_new = idx[up], trial[:, up], ll_new[up]
                trial_terms = [new[up] for new in trial_terms]
            p[:, sub], ll[sub] = trial, ll_new
            for old, new in zip(terms, trial_terms):
                old[sub] = new
            live[sub], moved[sub] = False, True
        tried, step = cand, step * _BACKTRACK_FACTOR
    return moved


def _newton_pass(family, x, w, n, p, ll, terms, derivs, box):
    """One projected modified-Newton step on all coordinates of J
    independent problems of one family at once: AL (a, b, s), BL (a, b, s,
    t) or CL (m, L, log a).

    ``x``, ``w``, ``n`` and ``p`` are in the kernel layout above, ``ll`` is
    the (J,) log-likelihood at ``p``, ``terms`` the kernel's (const, edges)
    at ``p`` and ``derivs`` its (gradient, Hessian) at ``p``.  ``box`` is
    the (low, high, gap) that the kernel's ``box`` builds once per fit from
    the data: the rows of the coordinates' bounds and the least b - a.  A
    coordinate never leaves the box, nor moves further out of it, and a
    scale keeps at least half its value.  A coordinate at its bound, within
    4 ulps of it or beyond it (where a start put it), with the gradient
    pointing out is pinned: its gradient entry is zeroed and its Hessian row
    and column become those of -I.  Without the 4 ulps a coordinate a few
    ulps inside its bound is clipped onto it by every halved trial, which
    keeps the rest of a step that does not climb (the epsilon-active set of
    Bertsekas, *SIAM J. Control Optim.* 20, 1982).  The step is V |L|^-1
    V^T g for the eigenpairs (L, V) of the Hessian, with |L| floored at
    1e-12 of its largest entry.  ``_backtrack`` halves it.  An AL or BL
    candidate keeps half of b - a above the gap (a narrower one is halved
    without a trial): without that rule a bell-shaped fit can collapse a
    onto b, the logistic limit, which is stationary by symmetry.  Scaling
    the whole step instead stalls a fit whose b - a is already near 0, where
    a shift of the location alone would take it all.  A problem whose
    predicted gain g.step / 2 is within ``_rounding_error`` is held: it gets
    no trial.  Updates ``p``, ``ll`` and the ``terms`` arrays in place, so
    each stays equal to the kernel's at the new parameters, and returns the
    mask of problems that took a step and the mask of those held.
    """
    grad, hess = derivs
    low, high, gap = box
    low, high = np.minimum(low, p), np.maximum(high, p)
    scales = _KERNELS[family].scales
    np.maximum(low[scales], 0.5 * p[scales], out=low[scales])
    near = 4.0 * np.spacing(np.abs(p))
    pinned = (((p <= low + near) & (grad.T < 0.0)) | ((p >= high - near) & (grad.T > 0.0))).T
    if pinned.any():
        grad = np.where(pinned, 0.0, grad)
        hess = np.where(pinned[:, :, None] | pinned[:, None, :],
                        -np.eye(len(p)) * pinned[:, :, None], hess)
    vals, vecs = np.linalg.eigh(hess)
    mag = np.abs(vals)
    mag = np.maximum(mag, np.maximum(1e-12 * mag.max(axis=1, keepdims=True), 1e-300))
    step = (vecs @ ((vecs.transpose(0, 2, 1) @ grad[:, :, None]) / mag[:, :, None]))[:, :, 0].T
    held = 0.5 * np.einsum("ji,ij->j", grad, step) <= _rounding_error(n, terms[0], ll)
    step[:, held] = 0.0
    width = p[1] - p[0]
    return _backtrack(family, x, w, n, p, ll, terms, step, low, high,
                      np.minimum(width, 0.5 * (width + gap))), held


def _climb(family, x, w, n, p, bounds, settings: FitSettings, offset: float = 0.0):
    """The passes of every fit: ``_newton_pass`` on a single problem (J =
    1) from ``p``, in place, the derivatives at each new iterate serving the
    next pass and the box built once.  Stops after a held pass (converged),
    a pass that took no step, or ``max_iters`` passes.  Returns the last
    parameters and their FitReport, whose trace adds ``offset`` to every
    log-likelihood and whose ``grad_norm`` is the largest gradient entry per
    point; the caller fills in ``final_params``."""
    kernel = _KERNELS[family]
    terms = kernel.terms(x, p)
    ll = _loglik(family, x, w, n, p, terms)
    derivs = kernel.derivs(x, w, n, p)
    box = kernel.box(p, bounds)
    trace = [float(ll[0]) + offset]
    for iters in range(1, settings.max_iters + 1):  # max_iters >= 1
        moved, held = _newton_pass(family, x, w, n, p, ll, terms, derivs, box)
        trace.append(float(ll[0]) + offset)
        if held[0] or not moved[0]:
            break
        derivs = kernel.derivs(x, w, n, p)
    aic, bic = _aic_bic(len(p), trace[-1], x.shape[1])
    return p, FitReport(bool(held[0]), iters, trace, final_params={},
                        grad_norm=float(np.max(np.abs(derivs[0]))) / float(n[0]),
                        aic=aic, bic=bic, free_params=len(p))


def _aic_bic(k: int, ll: float, count: int) -> tuple[float, float]:
    """(AIC, BIC) = (2k - 2l, k ln N - 2l) of every fit: k free parameters,
    final log-likelihood l, N points."""
    return 2.0 * k - 2.0 * ll, k * math.log(count) - 2.0 * ll


def _fit_univariate(x: np.ndarray, init: uv.UnivariateSpec, settings: FitSettings,
                    weights=None) -> tuple[uv.UnivariateSpec, FitReport]:
    """AL or BL fit: ``_climb`` in (a, b, s[, t])."""
    kernel = _KERNELS[init.family]
    bounds = _bounds_from_data(x)
    lo, hi, s_min = bounds[:3]
    if not (lo < init.a < init.b < hi):
        raise ValueError(
            f"init violates min(x) < a < b < max(x): a={init.a}, b={init.b}, "
            f"range=({lo}, {hi})")
    if init.family == "AL" and not init.s >= s_min:
        raise ValueError(f"init violates s >= {s_min}: s={init.s}")
    p, report = _climb(init.family, *_one(x, weights),
                       _params(*(getattr(init, name) for name in kernel.names)),
                       bounds[:, None], settings)
    spec = uv.make(init.family, dict(zip(kernel.names, p[:, 0])))
    report.final_params = spec.params()
    return spec, report


def _fit_cl(rows: np.ndarray, init: MultivariateSpec,
            settings: FitSettings) -> tuple[MultivariateSpec, FitReport]:
    """CL fit: ``_climb`` in the coordinates (m, L, log a) on the data
    whitened by the start, y = L0^T (x - m0), from m = 0 and L = I.

    A Newton step is invariant under an affine change of coordinates (Boyd
    & Vandenberghe, 9.5.1), so whitening changes no exact step, but it
    keeps the Hessian's eigenvalues within the reach of its relative floor
    whatever the data's location and scale.  The trace adds N ln det L0,
    the log Jacobian of the map, so it is in data units; ``grad_norm`` is
    in the whitened coordinates.  The reported spec holds t at the start's t, with
    Lambda = Lambda' / t^(2/n) and R = a / t: (Lambda, R, t) are determined
    only up to Lambda -> c Lambda, t -> t c^(-n/2), R -> R c^(n/2).
    """
    count, dim = rows.shape
    lower0 = np.linalg.cholesky(init.t ** (2.0 / dim) * np.linalg.inv(init.sigma))
    p = np.zeros(((dim + 1) * (dim + 2) // 2, 1))
    p[-1] = math.log(init.r ** dim * init.t)
    p, report = _climb("CL", ((rows - init.m) @ lower0)[None], np.ones((1, count)),
                       np.array([float(count)]), p, None, settings,
                       count * float(np.sum(np.log(np.diag(lower0)))))
    (m,), (lower,), ((a,),) = _cl_unpack(p)
    inv_lower = np.linalg.inv(lower0 @ lower)
    spec = make_mv("CL", init.m + np.linalg.solve(lower0.T, m), r=(a / init.t) ** (1.0 / dim),
                   t=init.t, sigma=init.t ** (2.0 / dim) * inv_lower.T @ inv_lower)
    report.final_params = dict(m=spec.m.tolist(), Sigma=spec.sigma.tolist(), r=spec.r, t=spec.t)
    report.free_params_unconstrained = len(p) + 1  # t, redundant with the scale of Sigma
    return spec, report


def fit(data, init, settings: FitSettings | None = None):
    """Fit AL, BL (univariate specs) or CL (multivariate spec) by monotone
    ascent starting from ``init``: projected Newton steps on all
    coordinates of the family at once.

    Returns ``(spec, FitReport)``.  Bound constraints
    min(x) < a < b < max(x) and s >= range/(4N) hold at every iterate.
    """
    settings = settings or FitSettings()
    if isinstance(init, uv.UnivariateSpec):
        x = _data_1d(data)
        w = data.weights if isinstance(data, Dataset) else None
        if init.family in ("AL", "BL"):
            return _fit_univariate(x, init, settings, w)
        raise ValueError(f"fit supports AL and BL univariate families, got {init.family}")
    if isinstance(init, MultivariateSpec):
        if init.family != "CL":
            raise ValueError(f"fit supports the CL multivariate family, got {init.family}")
        rows = _rows_of(data)
        centred = rows - rows.mean(axis=0)
        # Points within sqrt(eps) of a hyperplane, relative to their spread,
        # call for a Sigma whose condition number passes 1/eps: no CL spec
        # holds it.
        tol = math.sqrt(_EPS) * np.linalg.norm(centred, 2)
        if np.linalg.matrix_rank(centred, tol=tol) < rows.shape[1]:
            raise ValueError("degenerate data: the centred points lie on a hyperplane")
        return _fit_cl(rows, init, settings)
    raise TypeError(f"unsupported init type: {type(init).__name__}")
