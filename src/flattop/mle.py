"""Maximum-likelihood fitting by coordinate-wise gradient ascent.

The logistic-difference family (AL) carries the full analytic derivative
set: three first partials and all six second partials in tanh/coth/sech/csch
form, evaluated exp-shifted.  The sigmoid-product family (BL) uses the
flat-regime approximate gradients.  The fitter updates one parameter at a
time with step 1/|second partial| and backtracks until the log-likelihood
does not decrease, so every accepted step is an ascent step.

The AL and BL coordinate pass runs on J independent weighted problems at
once, backtracking each by mask: ``fit`` is its J = 1 case with unit (or
dataset) weights, and the mixture M-step runs it on every (component,
axis) factor with the responsibilities as weights.  Each family's
log-density is one kernel, a per-problem constant minus two per-point edge
terms, one per shoulder; the log-likelihood sums them, and the mixture
E-step scores points with the same terms.  The pass takes the constant and
the edges at its start and returns them at its end, and a trial step
recomputes the constant and only the edge its coordinate moves (a the
left one, b the right one).  The pass keeps b - a at least a few ulps of
the data, so the density stays defined on near-constant samples.

The elliptical cosh-ratio family (CL) runs one such pass over the blocks m,
Lambda = Sigma^-1, log R (R = r^n) and log t, each stepped by its analytic
gradient/|curvature| and backtracked.  R and t move on a log scale, at most
one e-fold per step, so no step throws R near 0, where the likelihood is
flat in R.  A CL fit stops when a pass does not strictly raise the
log-likelihood.  Every fit is ``converged`` when its largest gradient entry
per point, in natural coordinates (R and t for CL), is below ``grad_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import univariate as uv
from .data_io import Dataset, _finite, _rows_of
from .multivariate import MultivariateSpec, make_mv
from .specfun import coth, csch2, log_cosh, log_sinh, log_sinh_ratio, logistic, sech2, softplus

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

# Step control of every coordinate step: a Newton-like step of _ETA0 per
# unit gradient over |curvature|, shrunk by _BACKTRACK_FACTOR up to
# _MAX_BACKTRACKS times until the log-likelihood does not fall.
_ETA0 = 1.0
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 30


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

    ``iterations`` counts coordinate passes or EM cycles, and AIC and BIC
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
# the (P, J) parameters in coordinate order.  Each partial comes with the
# curvature that sizes its coordinate step.
# ---------------------------------------------------------------------------

def _wsum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (J, N) arrays."""
    return (w[:, None, :] @ v[:, :, None])[:, 0, 0]


# AL: f = sinh g / ((b - a)(cosh u + cosh g)) with u = (x - m)/s and g = (b - a)/2s,
# and cosh u + cosh g = 2 cosh z_a cosh z_b for z_a, z_b = (x - a, x - b)/2s.
def _al_const(p) -> np.ndarray:
    a, b, s = p
    return log_sinh((b - a) / (2.0 * s)) - np.log(2.0 * (b - a))


def _al_edge(side, x, p) -> np.ndarray:
    """ln cosh z_a (side 0) or ln cosh z_b (side 1)."""
    return log_cosh((x - p[side][:, None]) / (2.0 * p[2][:, None]))


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


def _bl_const(p) -> np.ndarray:
    """The exact log-normalizer: one quadrature per problem."""
    return np.array([-math.log(uv._bl_mass(*q)) for q in p.T])


def _bl_edge(side, x, p) -> np.ndarray:
    """softplus((a - x)/s) (side 0) or softplus((x - b)/t) (side 1)."""
    a, b, s, t = p
    if side == 0:
        return softplus((a[:, None] - x) / s[:, None])
    return softplus((x - b[:, None]) / t[:, None])


def _bl_partial(name, x, w, n, p) -> tuple[np.ndarray, np.ndarray]:
    """Flat-regime partials; the curvatures only size the steps."""
    a, b, s, t = p
    if name in ("a", "s"):
        f = logistic((x - a[:, None]) / s[:, None])       # F_L(x; a, s)
        v = f * (1.0 - f)
        if name == "a":
            return (n / (b - a) - _wsum(w, 1.0 - f) / s,
                    n / (b - a) ** 2 - _wsum(w, v) / s ** 2)
        grad = _wsum(w, (a[:, None] - x) * (1.0 - f)) / s ** 2
        return grad, -2.0 * grad / s - _wsum(w, (x - a[:, None]) ** 2 * v) / s ** 4
    f = logistic((x - b[:, None]) / t[:, None])           # F_L(x; b, t)
    v = f * (1.0 - f)
    if name == "b":
        return (-n / (b - a) + _wsum(w, f) / t,
                n / (b - a) ** 2 - _wsum(w, v) / t ** 2)
    grad = _wsum(w, (x - b[:, None]) * f) / t ** 2
    return grad, -2.0 * grad / t - _wsum(w, (x - b[:, None]) ** 2 * v) / t ** 4


class _Kernel(NamedTuple):
    """A family's coordinate order and its log-density ln f(x_i) = const -
    left_i - right_i: the per-problem constant ``const(p)`` (J,) and the two
    per-point edge terms ``edge(side, x, p)`` (J, N), side 0 for the left
    shoulder and 1 for the right, plus the partial kernel.  ``moves[i]``
    lists the sides that coordinate i changes, so a step in it recomputes
    only those (and the constant, which every coordinate changes)."""

    names: tuple[str, ...]
    moves: tuple[tuple[int, ...], ...]
    const: Callable[[np.ndarray], np.ndarray]
    edge: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    partial: Callable

    def terms(self, x, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(const, left, right) at ``p``."""
        return self.const(p), self.edge(0, x, p), self.edge(1, x, p)


_KERNELS = {
    "AL": _Kernel(("a", "b", "s"), ((0,), (1,), (0, 1)), _al_const, _al_edge, _al_partial),
    "BL": _Kernel(("a", "b", "s", "t"), ((0,), (1,), (0,), (1,)), _bl_const, _bl_edge,
                  _bl_partial),
}


def _loglik(family: str, x, w, n, p, terms=None) -> np.ndarray:
    """The (J,) weighted log-likelihoods n const + sum_i w_i (-left_i -
    right_i), from ``terms`` = (const, left, right) if the caller holds them
    at ``p``."""
    const, left, right = _KERNELS[family].terms(x, p) if terms is None else terms
    return n * const + _wsum(w, -left - right)


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
    x, w, n = _one(data, weights)
    p = _params(a, b, s)
    return tuple(float(_al_partial(name, x, w, n, p)[0][0]) for name in "abs")


def hess_al(data, a: float, b: float, s: float, weights=None) -> AlHessian:
    """All six second partials of the AL log-likelihood; the three
    curvatures are the batched kernel's."""
    x, w, n = _one(data, weights)
    daa, dbb, dss = (float(_al_partial(name, x, w, n, _params(a, b, s))[1][0]) for name in "abs")
    x, w, n = x[0], w[0], float(n[0])
    g = (b - a) / (2.0 * s)
    cg = float(coth(g))
    c2g = float(csch2(g))
    za = (x - a) / (2.0 * s)
    zb = (x - b) / (2.0 * s)
    dab = -n * (1.0 / (b - a) ** 2) + n * (1.0 / (4.0 * s ** 2)) * c2g
    half = 1.0 / (2.0 * s ** 2)
    das = n * half * (cg - g * c2g) - half * float(np.dot(w, np.tanh(za) + za * sech2(za)))
    dbs = -n * half * (cg - g * c2g) - half * float(np.dot(w, np.tanh(zb) + zb * sech2(zb)))
    return AlHessian(daa, dbb, dss, dab, das, dbs)


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
    p = _params(a, b, s, t)
    grads = (float(_bl_partial(name, x, w, n, p)[0][0]) for name in "abst")
    return BlGradient(*grads, bool(bl_flat_bound(a, b, s, t) < FLAT_REGIME_BOUND))


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
# The coordinate-ascent fitter
# ---------------------------------------------------------------------------

def _step_size(grad, curvature, scale):
    """Step per unit gradient: _ETA0/|curvature|, or a tenth of the
    parameter's scale where the curvature vanishes."""
    flat = np.abs(curvature) < 1e-12
    return np.where(flat, 0.1 * scale / np.maximum(np.abs(grad), 1e-300),
                    _ETA0 / np.where(flat, 1.0, np.abs(curvature)))


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


def _coordinate_pass(family, x, w, n, p, ll, terms, bounds):
    """One monotone coordinate pass over J independent problems at once.

    ``x``, ``w``, ``n`` and ``p`` are in the kernel layout above, ``ll`` is
    the (J,) log-likelihood at ``p``, ``terms`` the kernel's (const, left,
    right) at ``p`` and ``bounds`` the (4, J) rows of ``_bounds_from_data``.
    Each coordinate steps by gradient/|curvature| and backtracks per
    problem, by mask, until that problem's log-likelihood does not
    decrease; a trial recomputes the constant and only the edges its
    coordinate moves.  Returns the new parameters, log-likelihoods and
    terms (each equal to the kernel's at the new parameters) and the mask
    of problems that accepted a step.
    """
    kernel = _KERNELS[family]
    lo, hi, s_min, s_max = bounds
    eps = 1e-9 * (hi - lo)
    # a <= b - gap keeps b - a > 0 only if gap is at least an ulp of the data.
    gap = np.maximum(eps, _ulps(lo, hi, 4.0))
    p, ll, terms = p.copy(), ll.copy(), [t.copy() for t in terms]
    moved = np.zeros(p.shape[1], dtype=bool)
    for i, (name, sides) in enumerate(zip(kernel.names, kernel.moves)):
        grad, curv = kernel.partial(name, x, w, n, p)
        if name == "a":
            scale, low, high = p[1] - p[0], lo + eps, p[1] - gap
        elif name == "b":
            scale, low, high = p[1] - p[0], p[0] + gap, hi - eps
        else:
            scale, low, high = p[i], s_min, s_max
        step = _step_size(grad, curv, scale) * grad
        live = np.ones(p.shape[1], dtype=bool)
        tried = np.full(p.shape[1], np.nan)
        for _ in range(_MAX_BACKTRACKS):
            cand = np.minimum(np.maximum(p[i] + step, low), high)
            live &= cand != p[i]  # clip or underflow: no movement possible
            if not live.any():
                break
            # A clipped step can repeat the candidate just rejected: skip it.
            idx = np.flatnonzero(live & (cand != tried))
            tried = cand
            step = step * _BACKTRACK_FACTOR
            if idx.size == 0:
                continue
            trial = p[:, idx]
            trial[i] = cand[idx]
            trial_terms = [kernel.const(trial)] + [
                kernel.edge(side, x[idx], trial) if side in sides else e[idx]
                for side, e in enumerate(terms[1:])]
            ll_new = _loglik(family, x[idx], w[idx], n[idx], trial, trial_terms)
            up = ll_new >= ll[idx]
            done = idx[up]
            p[i, done] = cand[done]
            ll[done] = ll_new[up]
            for k in (0, *(side + 1 for side in sides)):
                terms[k][done] = trial_terms[k][up]
            moved[done] = True
            live[done] = False
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
    """AL or BL fit: coordinate passes on the single problem (J = 1); a pass
    makes progress when it accepts a step."""
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
        p, ll, terms, moved = _coordinate_pass(init.family, x1, w1, n, *state, bounds[:, None])
        grad_norm = max(abs(float(kernel.partial(name, x1, w1, n, p)[0][0]))
                        for name in kernel.names) / float(n[0])
        return (p, ll, terms), float(ll[0]), grad_norm, bool(moved[0])

    p = _params(*(getattr(init, name) for name in kernel.names))
    terms = kernel.terms(x1, p)
    ll = _loglik(init.family, x1, w1, n, p, terms)
    (p, _, _), report = _ascend(one_pass, (p, ll, terms), float(ll[0]), settings,
                                len(kernel.names), x.size)
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
            step = _ETA0 / max(abs(curv), 1e-12) * grad
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
        rows = _rows_of(data)
        if rows.ndim != 2 or rows.shape[0] < 2:
            raise ValueError("CL fit needs at least two points")
        if float(np.max(np.var(rows, axis=0))) == 0.0:
            raise ValueError("degenerate data: all points equal")
        return _fit_cl(rows, init, settings)
    raise TypeError(f"unsupported init type: {type(init).__name__}")
