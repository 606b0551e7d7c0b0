"""Mixture models: a Gaussian EM baseline and the flat-topped mixture (FTM)
fitted by generalized EM.

The migration pipeline is: fit a GMM, replace every Gaussian component with
its logistic-difference surrogate, then run generalized EM where each
M-step performs one monotone coordinate pass per component (weights are
updated in closed form).  Components whose fitted surrogate is flat-topped
can optionally be upgraded to the asymmetric sigmoid-product family and
optimization continues the same way.

Supported component layouts: univariate Gaussian / AL / BL, and for 2-d
data full- or diagonal-covariance Gaussians and axis-aligned AL products.

Every step works on all components at once.  The E-step builds the N x K
log-density matrix in one broadcast: Gaussians through one stacked
Cholesky factorization, flat components from their parameters gathered
into arrays, one row per (component, axis) factor.  The Gaussian M-step
computes the weighted means, covariances and eigenvalue floors as stacked
arrays.  The GEM M-step hands every AL factor, and then every BL factor,
to the single coordinate pass of ``mle`` with the N x J matrix of their
responsibilities, which backtracks per factor by mask; ``mle.fit`` runs
the same pass on one problem with unit weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from . import mle, specfun, univariate as uv
from .data_io import Dataset
from .mle import FitReport, FitSettings
from .quadrature import QuadratureError

__all__ = [
    "ComponentCollapseError",
    "MixtureSettings",
    "MixtureModel",
    "EStepResult",
    "SweepRow",
    "gmm_fit",
    "ftm_from_gmm",
    "e_step",
    "m_step",
    "ftm_fit",
    "score",
    "sweep",
    "mixture_to_json_dict",
]


class ComponentCollapseError(RuntimeError):
    """Raised when a Gaussian EM component loses all responsibility again
    after it was reseeded."""


@dataclass(frozen=True)
class MixtureSettings:
    """Budgets shared by the EM and GEM loops.

    Convergence is declared after ``stall_cycles`` consecutive cycles with
    relative log-likelihood change below ``rel_tol``.
    """

    max_cycles: int = 300
    rel_tol: float = 1e-8
    stall_cycles: int = 3
    n_init: int = 4
    cov_floor: float = 1e-8
    bl_upgrade: bool = False
    bl_flat_threshold: float = 0.05
    component_pass: FitSettings = field(default_factory=FitSettings)


@dataclass
class MixtureModel:
    """K weighted components of one homogeneous kind.

    ``kind`` is one of ``gaussian`` (components ``(mean, cov)`` with scalar
    variance in 1-d) or ``flat`` (univariate specs in 1-d, per-axis spec
    tuples in 2-d).  ``factorized`` marks axis-aligned 2-d products.
    """

    kind: str
    dim: int
    weights: np.ndarray
    components: list
    cov_type: str | None = None  # gaussian 2-d only: "full" or "diag"
    factorized: bool = False

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty vector")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")
        if len(self.components) != w.size:
            raise ValueError("one component per weight required")
        self.weights = w

    @property
    def k(self) -> int:
        return self.weights.size

    @property
    def free_param_count(self) -> int:
        per = 0
        for comp in self.components:
            if self.kind == "gaussian":
                if self.dim == 1:
                    per += 2
                elif self.cov_type == "full":
                    per += self.dim + self.dim * (self.dim + 1) // 2
                else:
                    per += 2 * self.dim
            else:
                specs = comp if isinstance(comp, tuple) else (comp,)
                per += sum(len(s.params()) for s in specs)
        return per + (self.k - 1)


@dataclass
class EStepResult:
    resp: np.ndarray
    q: float
    loglik: float
    flagged: np.ndarray


@dataclass(frozen=True)
class SweepRow:
    k: int
    iterations: int
    loglik_per_point: float
    aic: float
    bic: float
    error: str | None = None


def _rows_of(data) -> np.ndarray:
    if isinstance(data, Dataset):
        return data.rows
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


# ---------------------------------------------------------------------------
# Component log densities
# ---------------------------------------------------------------------------

def _factors(model: MixtureModel) -> list[tuple[int, int, uv.UnivariateSpec]]:
    """(component, axis, spec) of every univariate factor of a flat model,
    component by component."""
    return [(k, axis, spec) for k, comp in enumerate(model.components)
            for axis, spec in enumerate(comp if isinstance(comp, tuple) else (comp,))]


def _factor_logpdf(family: str, x: np.ndarray, specs) -> np.ndarray:
    """Row j of ``x`` under ``specs[j]``; AL and BL in one broadcast."""
    def col(name):
        return np.array([getattr(spec, name) for spec in specs])[:, None]

    if family == "AL":
        rho = col("r") / col("s")
        return (np.log(col("c")) + specfun.log_sinh(rho)
                - specfun.log_cosh_sum((x - col("m")) / col("s"), rho))
    if family == "BL":
        return (np.log(col("c")) - specfun.softplus((col("a") - x) / col("s"))
                - specfun.softplus((x - col("b")) / col("t")))
    return np.array([uv.log_pdf(spec, row) for spec, row in zip(specs, x)])


def _log_matrix(model: MixtureModel, rows: np.ndarray) -> np.ndarray:
    """K x N component log densities."""
    cols = np.ascontiguousarray(rows.T)  # dim x N
    if model.kind == "gaussian":
        means = np.array([c[0] for c in model.components], dtype=float).reshape(model.k, -1)
        if model.dim == 1:
            var = np.array([c[1] for c in model.components], dtype=float)[:, None]
            return -0.5 * (np.log(2.0 * math.pi * var) + (cols - means) ** 2 / var)
        chol = np.linalg.cholesky(np.array([c[1] for c in model.components], dtype=float))
        z = np.linalg.inv(chol) @ (cols - means[:, :, None])  # K x dim x N
        log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        return -0.5 * (model.dim * math.log(2.0 * math.pi) + log_det[:, None]
                       + np.einsum("kdn,kdn->kn", z, z))
    factors = _factors(model)
    x = cols[[axis for _, axis, _ in factors]]
    out = np.empty_like(x)
    for family in {spec.family for _, _, spec in factors}:
        idx = [j for j, (_, _, spec) in enumerate(factors) if spec.family == family]
        out[idx] = _factor_logpdf(family, x[idx], [factors[j][2] for j in idx])
    return out.reshape(model.k, model.dim, -1).sum(axis=1)


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

def e_step(model: MixtureModel, data) -> EStepResult:
    """Responsibilities, the expected complete-data objective Q, and the
    observed log-likelihood.

    Points where every component underflows receive uniform responsibilities
    and are reported in ``flagged``.
    """
    rows = _rows_of(data)
    with np.errstate(divide="ignore"):
        log_w = np.log(model.weights)
    log_joint = _log_matrix(model, rows) + log_w[:, None]  # K x N
    row_tot = specfun.logsumexp(log_joint, axis=0)
    finite_rows = np.isfinite(row_tot)
    flagged = np.flatnonzero(~finite_rows)
    resp = np.exp(log_joint - np.where(finite_rows, row_tot, 0.0)).T
    if flagged.size:
        resp[flagged] = 1.0 / model.k
    loglik = float(np.sum(row_tot[finite_rows]))
    q = float(np.sum(resp.T * np.where(np.isfinite(log_joint), log_joint, 0.0)))
    return EStepResult(resp=resp, q=q, loglik=loglik, flagged=flagged)


# ---------------------------------------------------------------------------
# Gaussian EM
# ---------------------------------------------------------------------------

def _kmeanspp_centers(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = rows.shape[0]
    centers = [rows[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((rows - c) ** 2, axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total == 0.0:
            centers.append(rows[rng.integers(n)])
            continue
        centers.append(rows[rng.choice(n, p=d2 / total)])
    return np.array(centers)


def _floor_cov(cov: np.ndarray, floor: float) -> np.ndarray:
    """Symmetrize and raise every eigenvalue to ``floor``; works on stacks."""
    vals, vecs = np.linalg.eigh(0.5 * (cov + np.swapaxes(cov, -1, -2)))
    vals = np.maximum(vals, floor)
    return (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _gmm_m_step(rows, resp, cov_type, floor):
    n, dim = rows.shape
    nk = resp.sum(axis=0)
    empty = np.flatnonzero(nk <= 0)
    if empty.size:
        raise _EmptyComponent(empty)
    weights = nk / n
    means = resp.T @ rows / nk[:, None]
    d = np.ascontiguousarray(rows.T) - means[:, :, None]  # K x dim x N
    cov = (d * resp.T[:, None, :]) @ d.transpose(0, 2, 1) / nk[:, None, None]
    if dim == 1:
        var = np.maximum(cov[:, 0, 0], floor)
        return weights, [(float(m), float(v)) for m, v in zip(means[:, 0], var)]
    if cov_type == "diag":
        cov = np.maximum(np.diagonal(cov, axis1=1, axis2=2), floor)[:, :, None] * np.eye(dim)
    else:
        cov = _floor_cov(cov, floor)
    return weights, list(zip(means, cov))


class _EmptyComponent(Exception):
    def __init__(self, indices: np.ndarray) -> None:
        self.indices = indices


def gmm_fit(
    data,
    k: int,
    seed: int,
    settings: MixtureSettings | None = None,
    covariance_type: str = "full",
) -> tuple[MixtureModel, FitReport]:
    """Standard EM for a Gaussian mixture with k-means++-style seeding.

    Runs ``n_init`` seedings and keeps the best final log-likelihood.  An
    empty component is reseeded once, then raises.
    """
    settings = settings or MixtureSettings()
    rows = _rows_of(data)
    n, dim = rows.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= k:
        raise ValueError(f"need more points than components: N={n}, K={k}")
    if covariance_type not in ("full", "diag"):
        raise ValueError("covariance_type must be 'full' or 'diag'")
    floor = settings.cov_floor * float(np.max(np.var(rows, axis=0)))
    floor = max(floor, 1e-300)
    rng = np.random.default_rng(seed)

    best: tuple[MixtureModel, FitReport] | None = None
    for _ in range(max(1, settings.n_init)):
        model, report = _gmm_single(rows, k, rng, settings, covariance_type, floor)
        if best is None or report.loglik_trace[-1] > best[1].loglik_trace[-1]:
            best = (model, report)
    model, report = best
    k_free = model.free_param_count
    ll = report.loglik_trace[-1]
    report.aic = 2.0 * k_free - 2.0 * ll
    report.bic = k_free * math.log(n) - 2.0 * ll
    report.free_params = k_free
    return model, report


def _gmm_single(rows, k, rng, settings, covariance_type, floor):
    n, dim = rows.shape
    centers = _kmeanspp_centers(rows, k, rng)
    if dim == 1:
        base_var = max(float(np.var(rows)), floor)
        comps = [(float(c[0]), base_var) for c in centers]
    else:
        base_cov = _floor_cov(np.cov(rows.T, bias=True), floor)
        if covariance_type == "diag":
            base_cov = np.diag(np.diag(base_cov))
        comps = [(c.copy(), base_cov.copy()) for c in centers]
    model = MixtureModel(kind="gaussian", dim=dim,
                         weights=np.full(k, 1.0 / k), components=comps,
                         cov_type=covariance_type if dim > 1 else None)

    trace: list[float] = []
    reseeded = False
    stall = 0
    cycles = 0
    for cycles in range(1, settings.max_cycles + 1):
        es = e_step(model, rows)
        trace.append(es.loglik)
        try:
            weights, comps = _gmm_m_step(rows, es.resp, covariance_type, floor)
        except _EmptyComponent as empty:
            if reseeded:
                raise ComponentCollapseError(
                    f"component {int(empty.indices[0])} collapsed twice; aborting") from None
            reseeded = True
            es.resp[:, empty.indices] = 1.0 / n
            es.resp /= es.resp.sum(axis=1, keepdims=True)
            weights, comps = _gmm_m_step(rows, es.resp, covariance_type, floor)
        model = MixtureModel(kind="gaussian", dim=dim, weights=weights,
                             components=comps,
                             cov_type=covariance_type if dim > 1 else None)
        if len(trace) >= 2:
            denom = max(abs(trace[-2]), 1.0)
            if (trace[-1] - trace[-2]) / denom < settings.rel_tol:
                stall += 1
                if stall >= settings.stall_cycles:
                    break
            else:
                stall = 0
    final = e_step(model, rows)
    trace.append(final.loglik)
    report = FitReport(converged=stall >= settings.stall_cycles, iterations=cycles,
                       loglik_trace=trace, final_params={}, grad_norm=math.nan,
                       aic=math.nan, bic=math.nan, free_params=0)
    return model, report


# ---------------------------------------------------------------------------
# GMM -> FTM conversion
# ---------------------------------------------------------------------------

def ftm_from_gmm(gmm: MixtureModel) -> MixtureModel:
    """Replace every Gaussian component by its logistic-difference surrogate
    (per axis in 2-d); weights carry over unchanged."""
    if gmm.kind != "gaussian":
        raise ValueError("ftm_from_gmm expects a Gaussian mixture")
    comps = []
    for comp in gmm.components:
        if gmm.dim == 1:
            mean, var = comp
            comps.append(uv.approx_al_from_normal(mean, math.sqrt(var)))
        else:
            mean, cov = comp
            off = cov - np.diag(np.diag(cov))
            if np.max(np.abs(off)) > 1e-12 * max(float(np.max(np.diag(cov))), 1e-300):
                raise ValueError(
                    "2-d conversion needs axis-aligned (diagonal) covariances; "
                    "fit the GMM with covariance_type='diag'")
            comps.append(tuple(
                uv.approx_al_from_normal(float(mean[i]), math.sqrt(float(cov[i, i])))
                for i in range(gmm.dim)))
    return MixtureModel(kind="flat", dim=gmm.dim, weights=gmm.weights.copy(),
                        components=comps, factorized=gmm.dim > 1)


# ---------------------------------------------------------------------------
# Generalized EM for the flat-topped mixture
# ---------------------------------------------------------------------------

def m_step(model: MixtureModel, data, resp: np.ndarray,
           settings: MixtureSettings | None = None) -> MixtureModel:
    """Generalized M-step: closed-form weight update plus one weighted
    coordinate pass per component, so Q never decreases."""
    settings = settings or MixtureSettings()
    rows = _rows_of(data)
    if resp.shape != (rows.shape[0], model.k):
        raise ValueError("responsibilities must be N x K")
    if model.kind != "flat":
        raise ValueError("m_step drives flat mixtures; use gmm_fit for Gaussians")
    factors = _factors(model)
    unsupported = {spec.family for _, _, spec in factors} - set(mle._KERNELS)
    if unsupported:
        raise ValueError(f"m_step supports AL and BL components, got {sorted(unsupported)}")
    weights = resp.mean(axis=0)
    weights = weights / weights.sum()
    live = resp.sum(axis=0) >= 1e-12  # zero responsibility: gradients vanish
    bounds = np.stack([mle._bounds_from_data(rows[:, axis]) for axis in range(model.dim)],
                      axis=1)
    cols = np.ascontiguousarray(rows.T)
    comps = [list(c) if isinstance(c, tuple) else [c] for c in model.components]
    for family, (names, loglik, _) in mle._KERNELS.items():
        group = [f for f in factors if f[2].family == family and live[f[0]]]
        if not group:
            continue
        ks, axes, specs = (list(v) for v in zip(*group))
        x = cols[axes]
        w = np.ascontiguousarray(resp.T[ks])
        n = w.sum(axis=1)
        p = np.array([[getattr(spec, name) for spec in specs] for name in names])
        p, _, _ = mle._coordinate_pass(family, x, w, n, p, loglik(x, w, n, p),
                                       bounds[:, axes], settings.component_pass)
        for j, (k, axis) in enumerate(zip(ks, axes)):
            comps[k][axis] = uv.make(family, dict(zip(names, p[:, j])))
    comps = [tuple(c) if model.dim > 1 else c[0] for c in comps]
    return MixtureModel(kind="flat", dim=model.dim, weights=weights,
                        components=comps, factorized=model.factorized)


def _upgrade_flat_components(model: MixtureModel, threshold: float) -> MixtureModel:
    """Swap in the asymmetric family for 1-d components whose surrogate is
    flat-topped by the closed-form bound."""
    from .flatness import family_flat_bound

    if model.dim != 1:
        return model
    comps = []
    changed = False
    for comp in model.components:
        if comp.family == "AL" and family_flat_bound(comp) < threshold:
            comps.append(uv.make("BL", {"a": comp.a, "b": comp.b,
                                        "s": comp.s, "t": comp.s}))
            changed = True
        else:
            comps.append(comp)
    if not changed:
        return model
    return MixtureModel(kind="flat", dim=model.dim, weights=model.weights.copy(),
                        components=comps, factorized=model.factorized)


def ftm_fit(
    data,
    init: MixtureModel,
    settings: MixtureSettings | None = None,
) -> tuple[MixtureModel, FitReport]:
    """Generalized EM from ``init``; the observed log-likelihood trace is
    nondecreasing up to 1e-9 slack.

    With ``bl_upgrade`` set, flat-topped components are switched to the
    asymmetric family once the symmetric phase stalls, and GEM continues.
    """
    settings = settings or MixtureSettings()
    rows = _rows_of(data)
    if init.kind != "flat":
        raise ValueError("ftm_fit expects a flat mixture (see ftm_from_gmm)")
    model = init
    trace: list[float] = []
    upgraded = not settings.bl_upgrade
    stall = 0
    cycles = 0
    converged = False
    for cycles in range(1, settings.max_cycles + 1):
        es = e_step(model, rows)
        trace.append(es.loglik)
        model = m_step(model, rows, es.resp, settings)
        if len(trace) >= 2:
            denom = max(abs(trace[-2]), 1.0)
            if (trace[-1] - trace[-2]) / denom < settings.rel_tol:
                stall += 1
            else:
                stall = 0
        if stall >= settings.stall_cycles:
            if not upgraded:
                upgraded = True
                stall = 0
                new_model = _upgrade_flat_components(model, settings.bl_flat_threshold)
                if new_model is model:
                    converged = True
                    break
                model = new_model
                continue
            converged = True
            break
    final = e_step(model, rows)
    trace.append(final.loglik)
    ll = trace[-1]
    n = rows.shape[0]
    k_free = model.free_param_count
    report = FitReport(converged=converged, iterations=cycles, loglik_trace=trace,
                       final_params={}, grad_norm=math.nan,
                       aic=2.0 * k_free - 2.0 * ll,
                       bic=k_free * math.log(n) - 2.0 * ll,
                       free_params=k_free)
    return model, report


def score(model: MixtureModel, data) -> tuple[float, float]:
    """(AIC, BIC) = (2k - 2l, k ln N - 2l) at the model's free parameter
    count."""
    rows = _rows_of(data)
    ll = e_step(model, rows).loglik
    k_free = model.free_param_count
    n = rows.shape[0]
    return 2.0 * k_free - 2.0 * ll, k_free * math.log(n) - 2.0 * ll


def sweep(
    data,
    family: str,
    k_range,
    seed: int,
    settings: MixtureSettings | None = None,
) -> list[SweepRow]:
    """One fit per component count; FTM rows are initialized from a
    diagonal-covariance GMM of the same K and refined by GEM.

    Per-K failures are recorded and the sweep continues.
    """
    settings = settings or MixtureSettings()
    if family not in ("GMM", "FTM"):
        raise ValueError("family must be 'GMM' or 'FTM'")
    rows = _rows_of(data)
    out: list[SweepRow] = []
    for k in k_range:
        try:
            if family == "GMM":
                model, report = gmm_fit(rows, k, seed, settings, covariance_type="full")
            else:
                base, _ = gmm_fit(rows, k, seed, settings, covariance_type="diag")
                model, report = ftm_fit(rows, ftm_from_gmm(base), settings)
            ll = report.loglik_trace[-1]
            out.append(SweepRow(k=k, iterations=report.iterations,
                                loglik_per_point=ll / rows.shape[0],
                                aic=report.aic, bic=report.bic))
        except (ComponentCollapseError, QuadratureError, uv.ConvergenceError,
                ValueError) as exc:  # record and continue
            out.append(SweepRow(k=k, iterations=0, loglik_per_point=math.nan,
                                aic=math.nan, bic=math.nan, error=str(exc)))
    return out


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def mixture_to_json_dict(model: MixtureModel) -> dict:
    comps = []
    for comp in model.components:
        if model.kind == "gaussian":
            mean, cov = comp
            if model.dim == 1:
                comps.append({"mean": mean, "var": cov})
            else:
                comps.append({"mean": np.asarray(mean).tolist(),
                              "cov": np.asarray(cov).tolist()})
        elif isinstance(comp, tuple):
            comps.append([uv.to_json_dict(s) for s in comp])
        else:
            comps.append(uv.to_json_dict(comp))
    return {"K": model.k, "weights": model.weights.tolist(),
            "components": comps, "factorized": model.factorized}
