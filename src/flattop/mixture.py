"""Mixture models: a Gaussian EM baseline and the flat-topped mixture (FTM)
fitted by generalized EM.

The migration pipeline is: fit a GMM, replace every Gaussian component with
its logistic-difference surrogate, then run generalized EM where each
M-step performs one monotone ascent pass per component (weights are
updated in closed form).  Components whose fitted surrogate is flat-topped
can optionally be upgraded to the asymmetric sigmoid-product family and
optimization continues the same way.

Supported component layouts: univariate Gaussian / AL / BL, and for 2-d
data full- or diagonal-covariance Gaussians and axis-aligned AL products.

Both fits run one cycle loop, ``_em``, on a state of parameter arrays,
and build the returned ``MixtureModel`` only when the loop ends.  Each
state carries into the next cycle the full-size arrays that its M-step
computed and its E-step needs, so that no cycle computes one twice.  The
GMM's ``n_init`` restarts are the R lanes of one loop, run in lock-step:
their parameters are stacked with a leading lane axis (``_Gaussians``),
and each cycle is one R x K x N E-step and one stacked M-step over the
lanes still running.  A one-component GMM runs one lane: every
responsibility is then exactly 1, so every lane's first M-step gets the
same input and all lanes are equal after it, and the first lane wins.
The state also holds the deviations x - mean of every point from every
mean, which the M-step forms for the covariances and the next E-step
scores; for diagonal covariances and in 1-d it holds their squares,
which the M-step forms for the variances.  Each covariance lives in its
eigen-coordinates: the floored eigenvalues and, for a full covariance,
the eigenvectors of the ``eigh`` that the M-step runs to floor it; for a
diagonal covariance and in 1-d the eigenvalues are the per-axis
variances.  The E-step scores a point by its coordinates on those axes,
so no cycle builds a covariance matrix or factors one.  A lane stops
when it stalls, after ``max_cycles``, or when a component it already
reseeded collapses again.
All k-means++ starts are drawn before the loop, lane by lane, so the
random stream, and every lane's fit, is that of restarts run one after
another (their draws are those of ``Generator.choice``, see
``_kmeanspp_centers``).

GEM is the one-lane case, on parameter columns (``_Flat``): the weights
and, per AL or BL family, the P x J parameters of its (component, axis)
factors together with each factor's kernel terms from ``mle``: the
constant (the log-normalizer) and the edge term, the sum of the per-point
log-cosh (AL) or softplus (BL) shoulders.  The columns live from one
cycle to the next.  The E-step scores every factor from its cached terms,
which is the very function the M-step climbs, and is what makes each GEM
cycle monotone.  Factors of other families, which only the public
``e_step`` scores, go through ``univariate.log_pdf`` once.  The M-step
hands the live factors of each family to the one pass of ``mle``, with the
N x J matrix of their responsibilities: a block Newton step on every AL
and every BL factor.  The pass starts from the cached terms and the box
rows built once per fit, recomputes the terms at each trial step, and
writes those at its new parameters into the columns, so no cycle computes
a BL normalizer twice at the same parameters.  Specs are
built only when a model leaves the loop: at the end of the fit, in the
public ``m_step``, and in the BL-upgrade hook, which the loop runs once, at
the first stall.

One E-step core (``_e_core``) turns the R x K x N log joint densities
ln w + ln p of ``_log_matrix`` into responsibilities and per-lane
log-likelihoods for the loop and for the public ``e_step``, which alone
also computes Q.  ``_log_matrix`` adds ln w with the constant of each
(lane, component), so the log weights cost no pass of their own.  The
core runs one full-size exponential, shifted by each point's largest log
joint density; the sum
of a point's K terms both normalises its responsibilities and gives its
log-likelihood.  A term whose shifted log lies below -707 (``_EXP_FLOOR``)
is set to 0, which changes no point's sum (each is >= 1) but keeps subnormal
numbers out of both M-steps: with numpy 2.4 on an AVX-512 CPU, the
vectorized exp, multiply, divide, log1p and tanh take a 10-60x slower
path on a lane whose result or operand is subnormal, and exp a 10-25x
slower one where its result underflows to 0.  The clamp costs one full
pass; an exp under a ``where=`` mask instead runs numpy's masked loop,
which is slower still.

The Gaussian M-step computes the weighted means and the floored
eigen-coordinates of every lane's covariances as stacked arrays: one
batched ``eigh`` for full covariances, the weighted per-axis variances
sum r (x - mean)^2 / n_k otherwise.  Covariance matrices are built only
when a model leaves the loop (``_Gaussians.model``); the public ``e_step``
and ``score`` take a Gaussian model through one ``eigh``, which also
rejects a covariance that is not symmetric positive definite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from . import FlattopError, mle, univariate as uv
from .data_io import _rows_of
from .mle import FitReport
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


class ComponentCollapseError(FlattopError):
    """Raised when a Gaussian EM component loses all responsibility again
    after it was reseeded."""


_COV_FLOOR = 1e-8  # GMM covariance floor, relative to the largest data variance
_EXP_FLOOR = -707.0  # e^-707 ~ 1e-307 is normal, and exp slows down below e^-708.4


@dataclass(frozen=True)
class MixtureSettings:
    """Budgets of the one EM loop that runs both the GMM and the GEM fits.

    Convergence is declared after ``stall_cycles`` consecutive cycles with
    relative log-likelihood change below ``rel_tol``, or else the fit stops
    after ``max_cycles``.  A ``rel_tol`` of -inf never stalls, so the fit
    runs all ``max_cycles``.  ``n_init`` applies to the GMM with K >= 2
    (a one-component GMM runs one restart, which all ``n_init`` would
    equal, see ``gmm_fit``), whose covariances are floored at
    ``_COV_FLOOR`` times the largest data variance.  ``max_cycles``,
    ``stall_cycles`` and ``n_init`` must be positive integers and
    ``rel_tol`` not NaN (``ValueError``).

    Each GEM M-step is one pass of ``mle`` per family, with its fixed step
    control and its stop rule: a factor whose Newton step predicts a gain
    within the rounding error of its log-likelihood is held and runs no
    trial.  With ``bl_upgrade``, the first stall of a GEM fit swaps BL in
    for the AL components that are flat-topped by the closed-form bound
    (below ``flatness.FLAT_REGIME_BOUND``) and the cycles go on.  It
    applies to 1-d data only: on 2-d data it does nothing.
    """

    max_cycles: int = 300
    rel_tol: float = 1e-8
    stall_cycles: int = 3
    n_init: int = 4
    bl_upgrade: bool = False

    def __post_init__(self) -> None:
        counts = (self.max_cycles, self.stall_cycles, self.n_init)
        if math.isnan(self.rel_tol) or not all(isinstance(c, numbers.Integral) and c >= 1
                                               for c in counts):
            raise ValueError(f"invalid {self}: counts must be integers >= 1, rel_tol not NaN")


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
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9):  # NaN fails both
            raise ValueError("weights must be a probability vector")
        if len(self.components) != w.size:
            raise ValueError("one component per weight required")
        self.weights = w

    @property
    def k(self) -> int:
        return self.weights.size

    @property
    def free_param_count(self) -> int:
        if self.kind == "gaussian":  # a mean and d(d + 1)/2 or d (co)variances per component
            cov = self.dim * (self.dim + 1) // 2 if self.cov_type == "full" else self.dim
            return self.k * (self.dim + cov) + self.k - 1
        return sum(len(spec.params()) for spec in _specs(self)) + self.k - 1


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


@dataclass
class _Gaussians:
    """R lanes of K Gaussians, one lane per GMM restart, in the eigen-
    coordinates of their covariances: weights R x K, means R x K x d, the
    eigenvalues ``vals`` R x K x d and, for full covariances, the
    eigenvectors ``vecs`` R x K x d x d, whose columns are the axes of
    ``vals``; for diagonal covariances and in 1-d ``vecs`` is None, the
    axes are the coordinate axes and ``vals`` are the variances.  The
    state also holds the deviations x - mean of the N points from every
    mean, R x K x d x N, or, where ``vecs`` is None, their squares.

    The M-step forms the deviations from its new means for the covariances
    (their squares for the variances), and the next E-step scores the
    points from the same array, so a cycle subtracts the means from the data
    once and squares a per-axis deviation once.  Covariance matrices are
    built only by ``model``."""

    weights: np.ndarray
    means: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray | None
    cov_type: str | None
    dev: np.ndarray

    @classmethod
    def of(cls, model: MixtureModel, rows: np.ndarray) -> _Gaussians:
        """A Gaussian model as one lane, from one ``eigh`` of its covariances
        (variances in 1-d); raises ``ValueError`` naming the first component
        whose covariance is not symmetric (to 1e-12 of its largest entry) or
        has an eigenvalue that is not positive."""
        dim = model.dim
        means = np.array([c[0] for c in model.components], dtype=float).reshape(1, model.k, dim)
        cov = np.array([c[1] for c in model.components], dtype=float).reshape(model.k, dim, dim)
        sym = 0.5 * (cov + np.swapaxes(cov, 1, 2))
        vals, vecs = np.linalg.eigh(sym)
        asym = np.abs(cov - sym).max(axis=(1, 2)) > 1e-12 * np.abs(cov).max(axis=(1, 2))
        for k in np.flatnonzero(asym | ~np.all(vals > 0.0, axis=1)):
            raise ValueError(f"component {k}: covariance {cov[k].tolist()} is not "
                             f"{'symmetric' if asym[k] else 'positive definite'}")
        return cls(model.weights[None], means, vals[None], vecs[None], model.cov_type,
                   _deviations(rows, means))

    def lanes(self, idx) -> _Gaussians:
        return replace(self, weights=self.weights[idx], means=self.means[idx],
                       vals=self.vals[idx], vecs=None if self.vecs is None else self.vecs[idx],
                       dev=self.dev[idx])

    def put(self, idx, new: _Gaussians) -> _Gaussians:
        """Overwrite lanes ``idx`` with ``new``."""
        self.weights[idx], self.means[idx], self.vals[idx] = new.weights, new.means, new.vals
        if self.vecs is not None:
            self.vecs[idx] = new.vecs
        self.dev[idx] = new.dev
        return self

    def model(self, lane: int) -> MixtureModel:
        dim = self.means.shape[-1]
        vecs = np.eye(dim) if self.vecs is None else self.vecs[lane]
        cov = (vecs * self.vals[lane, :, None, :]) @ np.swapaxes(vecs, -1, -2)  # V diag(vals) V^T
        comps = (list(zip(self.means[lane, :, 0].tolist(), cov[:, 0, 0].tolist())) if dim == 1
                 else list(zip(self.means[lane], cov)))
        return MixtureModel(kind="gaussian", dim=dim, weights=self.weights[lane],
                            components=comps, cov_type=self.cov_type)


def _deviations(rows: np.ndarray, means: np.ndarray) -> np.ndarray:
    """The R x K x d x N deviations of the N x d ``rows`` from the R x K x d
    ``means``."""
    return np.ascontiguousarray(rows.T) - means[..., None]


def _model_rows(model: MixtureModel, data) -> np.ndarray:
    """The N x d rows of ``data``, whose d must be the model's dimension."""
    rows = _rows_of(data)
    if rows.shape[1] != model.dim:
        raise ValueError(f"a {model.dim}-d model needs {model.dim}-column data, got {rows.shape[1]}")
    return rows


def _specs(model: MixtureModel) -> list[uv.UnivariateSpec]:
    """The univariate factors of a flat model, component by component: factor
    f = k * dim + axis is axis ``axis`` of component k."""
    return [spec for comp in model.components
            for spec in (comp if isinstance(comp, tuple) else (comp,))]


@dataclass
class _Columns:
    """The factors of one kernel family: their indices f (see ``_specs``),
    data rows x (J x N), parameters (P x J, in the kernel's coordinate
    order), the kernel's terms at those parameters: the constant (J,) and
    the edge term (J x N), and the box rows of ``mle._newton_pass`` (None
    where the state only scores points).  ``comp`` is the component of each
    factor."""

    idx: np.ndarray
    comp: np.ndarray
    x: np.ndarray
    p: np.ndarray
    const: np.ndarray
    edges: np.ndarray
    box: tuple | None


@dataclass
class _Flat:
    """One flat model as the GEM state: the weights (K,) and the factors of
    each AL or BL family as ``_Columns``.  The GEM M-step updates the
    columns in place and keeps every constant and edge term equal to the
    kernel's at its parameters, so the E-step recomputes neither.  ``fixed`` holds the
    log-density rows of the factors of families without a kernel, scored
    once: GEM moves no such factor.  Specs are built only by ``model``."""

    weights: np.ndarray
    dim: int
    factorized: bool
    groups: dict[str, _Columns]
    fixed: np.ndarray  # (K dim) x N

    @classmethod
    def of(cls, model: MixtureModel, rows: np.ndarray, bounds=None) -> _Flat:
        """The state of ``model`` on ``rows``; the M-step needs ``bounds``,
        the ``_axis_bounds`` of the rows, from which each family's box rows
        are built once."""
        specs = _specs(model)
        cols = np.ascontiguousarray(rows.T)
        fixed = np.empty((len(specs), rows.shape[0]))
        groups = {}
        for family in dict.fromkeys(spec.family for spec in specs):
            idx = np.array([f for f, spec in enumerate(specs) if spec.family == family])
            x = cols[idx % model.dim]
            kernel = mle._KERNELS.get(family)
            if kernel is None:
                fixed[idx] = [uv.log_pdf(specs[f], row) for f, row in zip(idx, x)]
                continue
            p = np.array([[getattr(specs[f], name) for f in idx] for name in kernel.names])
            box = None if bounds is None else kernel.box(p, bounds[:, idx % model.dim])
            groups[family] = _Columns(idx, idx // model.dim, x, p, *kernel.terms(x, p), box)
        return cls(model.weights, model.dim, model.factorized, groups, fixed)

    def model(self, lane: int = 0) -> MixtureModel:
        """The model of the state, which has one lane."""
        specs = [None] * self.fixed.shape[0]
        for family, c in self.groups.items():
            names = mle._KERNELS[family].names
            for f, q in zip(c.idx, c.p.T):
                specs[f] = uv.make(family, dict(zip(names, q)))
        comps = [tuple(specs[f:f + self.dim]) if self.dim > 1 else specs[f]
                 for f in range(0, len(specs), self.dim)]
        return MixtureModel(kind="flat", dim=self.dim, weights=self.weights, components=comps,
                            factorized=self.factorized)


# ---------------------------------------------------------------------------
# Component log densities
# ---------------------------------------------------------------------------

def _log_matrix(model, rows: np.ndarray) -> np.ndarray:
    """R x K x N log joint densities ln w_k + ln p_k(x) of the lanes of
    ``_Gaussians``, from their cached deviations, or 1 x K x N of a ``_Flat``
    state, whose AL and BL factors are scored from their cached kernel terms
    (so GEM evaluates the same function of (a, b, s[, t]) that it climbs).

    A Gaussian scores z = vecs^T (x - mean), or x - mean itself where
    ``vecs`` is None: ln p = -1/2 sum_d z^2 / vals - 1/2 (d ln 2 pi +
    sum_d ln vals).  The -1/2 rides on 1 / vals, and the constant of each
    (lane, component) joins ln w in one offset, added in one pass."""
    with np.errstate(divide="ignore"):
        offset = np.log(model.weights)
    if isinstance(model, _Flat):
        groups = list(model.groups.values())
        if len(groups) == 1 and groups[0].idx.size == len(model.fixed):  # the factors in order
            out = groups[0].const[:, None] - groups[0].edges
        else:
            out = model.fixed.copy()
            for c in groups:
                out[c.idx] = c.const[:, None] - c.edges
        out = out.reshape(model.weights.size, model.dim, -1).sum(axis=1)[None]
    else:
        vals = model.vals
        if model.vecs is None:  # the squares the M-step formed
            zz = model.dev
        else:
            zz = np.swapaxes(model.vecs, 2, 3) @ model.dev
            zz *= zz
        out = ((-0.5 / vals)[:, :, None] @ zz)[:, :, 0]
        offset = offset - 0.5 * (vals.shape[2] * math.log(2.0 * math.pi) + np.log(vals).sum(axis=2))
    out += offset[..., None]
    return out


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

def _e_core(model, rows: np.ndarray):
    """The E-step of every lane of ``model``: the log joint densities and
    the responsibilities (R x K x N), the mask of points that some component
    scores (R x N), and each lane's log-likelihood.

    One exponential, shifted by each point's largest log joint density
    ``top``, gives both: its sum over K is ``tot`` >= 1, the responsibilities
    are the terms over ``tot``, and the point adds top + ln(tot).  The
    exponential runs on the shifted log joint clamped at ``_EXP_FLOOR``,
    where its result is still normal, and every term whose argument lay
    below it is set to exactly 0 (see the module docstring).  A kept term
    over ``tot`` is subnormal only where tot > e^1.4, which needs five
    components near the point's top.  Points where every component
    underflows (``top`` not finite) get uniform responsibilities and add
    nothing."""
    log_joint = _log_matrix(model, rows)
    top = log_joint.max(axis=1)
    finite = np.isfinite(top)
    scored = finite.all()
    shifted = log_joint - (top if scored else np.where(finite, top, 0.0))[:, None]
    below = shifted < _EXP_FLOOR
    resp = np.exp(np.maximum(shifted, _EXP_FLOOR, out=shifted), out=shifted)
    resp[below] = 0.0
    tot = resp.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 and ln 0 of the unscored points
        resp /= tot[:, None]
        point_ll = top + np.log(tot)
    if not scored:
        np.swapaxes(resp, 1, 2)[~finite] = 1.0 / log_joint.shape[1]
        point_ll[~finite] = 0.0
    return log_joint, resp, finite, point_ll.sum(axis=1).tolist()


def e_step(model: MixtureModel, data) -> EStepResult:
    """Responsibilities, the expected complete-data objective Q, and the
    observed log-likelihood.

    Points where every component underflows receive uniform responsibilities
    and are reported in ``flagged``.  A responsibility below about 1e-307
    (a term below e^-707 of the point's largest) is reported as 0.
    """
    rows = _model_rows(model, data)
    log_joint, resp, finite, loglik = _e_core(
        _Gaussians.of(model, rows) if model.kind == "gaussian" else _Flat.of(model, rows), rows)
    q = float(np.sum(resp[0] * np.where(np.isfinite(log_joint[0]), log_joint[0], 0.0)))
    return EStepResult(resp=resp[0].T, q=q, loglik=loglik[0], flagged=np.flatnonzero(~finite[0]))


# ---------------------------------------------------------------------------
# Gaussian EM
# ---------------------------------------------------------------------------

def _kmeanspp_centers(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ centres: the first a uniform draw, each next one drawn with
    probability proportional to the squared distance d2 to its nearest
    centre so far.  The draw is the inverse-cdf search of
    ``rng.choice(n, p=d2 / total)`` in numpy 2.4.6 (the cumsum of p over its
    last entry, one ``random()``, ``searchsorted(side="right")``), done here
    without ``choice``'s per-call checks of p, which took as long as the
    draw: same index, same random stream.  A p that is not finite (distances
    that overflow) still goes to ``choice``, which raises its ValueError.
    The squared distances are summed axis by axis, for the d <= 2 of a
    mixture the bits of ``np.sum(..., axis=1)``."""
    n = rows.shape[0]
    cols = np.ascontiguousarray(rows.T)
    picks = [rng.integers(n)]
    d2 = _sq_dist(cols, rows[picks[0]])  # to the nearest centre so far
    for _ in range(1, k):
        total = d2.sum()
        if total == 0.0:
            picks.append(rng.integers(n))
        elif total < math.inf:
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            picks.append(cdf.searchsorted(rng.random(), side="right"))
        else:
            picks.append(rng.choice(n, p=d2 / total))
        np.minimum(d2, _sq_dist(cols, rows[picks[-1]]), out=d2)
    return rows[picks]


def _sq_dist(cols: np.ndarray, center: np.ndarray) -> np.ndarray:
    """The squared distances of the d x N ``cols`` to ``center``."""
    d2 = cols[0] - center[0]
    d2 *= d2
    for axis in range(1, cols.shape[0]):
        dev = cols[axis] - center[axis]
        d2 += np.multiply(dev, dev, out=dev)
    return d2


def _floor_cov(cov: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues, each raised to ``floor``, and the eigenvectors of
    the symmetrized ``cov``; works on stacks."""
    vals, vecs = np.linalg.eigh(0.5 * (cov + np.swapaxes(cov, -1, -2)))
    return np.maximum(vals, floor), vecs


def _gmm_m_step(rows, resp, cov_type, floor) -> _Gaussians:
    """The Gaussian M-step of every lane from its K x N responsibilities
    (``resp`` is R x K x N); raises ``_EmptyComponent`` if a component of
    some lane has none."""
    nk = resp.sum(axis=2)
    empty = nk <= 0
    if empty.any():
        raise _EmptyComponent(empty)
    means = resp @ rows / nk[..., None]
    d = _deviations(rows, means)
    if cov_type == "full":
        vals, vecs = _floor_cov((d * resp[:, :, None]) @ np.swapaxes(d, 2, 3)
                                / nk[..., None, None], floor)
    else:  # the per-axis variances, from the squares that the E-step scores
        d *= d
        vals, vecs = np.maximum((d @ resp[..., None])[..., 0] / nk[..., None], floor), None
    return _Gaussians(nk / rows.shape[0], means, vals, vecs, cov_type, d)


class _EmptyComponent(Exception):
    """Components without responsibility: ``empty`` is an R x K mask."""

    def __init__(self, empty: np.ndarray) -> None:
        self.empty = empty


def gmm_fit(
    data,
    k: int,
    seed: int,
    settings: MixtureSettings | None = None,
    covariance_type: str = "full",
) -> tuple[MixtureModel, FitReport]:
    """Standard EM for a Gaussian mixture with k-means++-style seeding.

    The ``n_init`` seedings run in lock-step as the lanes of one EM loop,
    each cycle one stacked E-step and M-step over the lanes still running;
    a lane stops on its own stall rule, as a restart run alone would.  The
    k-means++ centres of every lane are drawn first, lane by lane, so the
    random stream is that of restarts run one after another.  The first lane
    with the best final log-likelihood is returned.  At K = 1 one lane runs:
    every responsibility is e^0 / 1 = 1, so each lane's first M-step gets
    the same input, the lanes are bitwise equal after it and end on the same
    log-likelihood, and lane 0, whose trace depends only on its own start,
    wins.  An empty component is reseeded once; a lane whose component
    collapses again fails the fit with ComponentCollapseError (the lowest
    such lane's).
    """
    settings = settings or MixtureSettings()
    rows = _rows_of(data)
    n = rows.shape[0]
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if n <= k:
        raise ValueError(f"need more points than components: N={n}, K={k}")
    if covariance_type not in ("full", "diag"):
        raise ValueError("covariance_type must be 'full' or 'diag'")
    floor = max(_COV_FLOOR * float(np.max(np.var(rows, axis=0))), 1e-300)
    cov_type = covariance_type if rows.shape[1] > 1 else None
    lanes = 1 if k == 1 else settings.n_init  # one component: every lane ends as lane 0
    start = _gmm_start(rows, k, lanes, np.random.default_rng(seed), cov_type, floor)
    return _em(start, rows, settings, lambda lanes, resp: _gmm_m_step(rows, resp, cov_type, floor))


def _gmm_start(rows, k, lanes, rng, cov_type, floor) -> _Gaussians:
    """Equal weights, k-means++ centres drawn lane by lane, and the pooled
    (co)variance."""
    means = np.array([_kmeanspp_centers(rows, k, rng) for _ in range(lanes)])
    if cov_type == "full":
        vals, vecs = _floor_cov(np.cov(rows.T, bias=True), floor)
        vecs = np.tile(vecs, (lanes, k, 1, 1))
    else:
        vals, vecs = np.maximum(np.var(rows, axis=0), floor), None
    dev = _deviations(rows, means)
    if vecs is None:
        dev *= dev
    return _Gaussians(np.full((lanes, k), 1.0 / k), means, np.tile(vals, (lanes, k, 1)), vecs,
                      cov_type, dev)


# ---------------------------------------------------------------------------
# The EM cycle loop shared by the GMM and GEM fits
# ---------------------------------------------------------------------------

def _em(model, rows: np.ndarray, settings: MixtureSettings, m_step,
        on_stall=None) -> tuple[MixtureModel, FitReport]:
    """Cycles of E-step and ``m_step(model, resp)`` from ``model``, either
    the R lanes of a ``_Gaussians`` stack, run in lock-step, or one flat
    model.  Each cycle computes only the lanes still running.

    A cycle stalls when the log-likelihood rises by less than ``rel_tol``
    relative to the previous cycle's (at least 1 in absolute terms).  After
    ``stall_cycles`` stalled cycles in a row a lane has converged, unless
    ``on_stall(model)`` (one-lane fits) returns a new model: the cycles then
    go on from it, and the next such stall ends the fit.  A lane also stops
    after ``max_cycles``.  The first time components of a lane lose all
    responsibility (``_EmptyComponent``), they get an even share of every
    point and the M-step runs again; the second time, the lane stops, and
    the fit raises the ComponentCollapseError of the lowest such lane, whose
    higher lanes stop with it.  A last E-step scores the final models; the
    first lane with the highest final log-likelihood is returned, with a
    report that carries every cycle's log-likelihood and that one.
    """
    lanes = model.weights.size // model.weights.shape[-1]
    traces: list[list[float]] = [[] for _ in range(lanes)]
    stall, reseeded, converged = [0] * lanes, [False] * lanes, [False] * lanes
    errors: list[ComponentCollapseError | None] = [None] * lanes
    live, failed, stopped = np.arange(lanes), lanes, False
    for _ in range(settings.max_cycles):
        sub = model if live.size == lanes else model.lanes(live)
        _, resp, _, loglik = _e_core(sub, rows)
        try:
            new = m_step(sub, resp)
        except _EmptyComponent as exc:
            for i in np.flatnonzero(exc.empty.any(axis=1)):
                lane, empty = live[i], np.flatnonzero(exc.empty[i])
                if reseeded[lane]:
                    errors[lane], stopped = ComponentCollapseError(
                        f"component {int(empty[0])} collapsed twice; aborting"), True
                reseeded[lane] = True
                r = resp[i].T
                r[:, empty] = 1.0 / rows.shape[0]
                r /= r.sum(axis=1, keepdims=True)
            new = m_step(sub, resp)
        model = new if live.size == lanes else model.put(live, new)
        for lane, ll in zip(live, loglik):
            trace = traces[lane]
            trace.append(ll)
            gain = (ll - trace[-2]) / max(abs(trace[-2]), 1.0) if len(trace) > 1 else math.inf
            stall[lane] = stall[lane] + 1 if gain < settings.rel_tol else 0
            if stall[lane] >= settings.stall_cycles:
                restart = on_stall(model) if on_stall is not None else None
                if restart is None:
                    converged[lane] = stopped = True
                else:
                    model, on_stall, stall[lane] = restart, None, 0
        if stopped:  # some lane stopped in this cycle
            failed = next((lane for lane, err in enumerate(errors) if err), lanes)
            live, stopped = live[[not converged[lane] and lane < failed for lane in live]], False
            if not live.size:
                break
    if failed < lanes:
        raise errors[failed]
    for trace, ll in zip(traces, _e_core(model, rows)[3]):
        trace.append(ll)
    best = max(range(lanes), key=lambda lane: traces[lane][-1])
    model = model.model(best)
    trace = traces[best]
    k_free = model.free_param_count
    aic, bic = mle._aic_bic(k_free, trace[-1], rows.shape[0])
    return model, FitReport(converged=converged[best], iterations=len(trace) - 1,
                            loglik_trace=trace, final_params={}, grad_norm=math.nan, aic=aic,
                            bic=bic, free_params=k_free)


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
            comps.append(_surrogate(mean, var))
        else:
            mean, cov = comp
            off = cov - np.diag(np.diag(cov))
            if np.max(np.abs(off)) > 1e-12 * max(float(np.max(np.diag(cov))), 1e-300):
                raise ValueError(
                    "2-d conversion needs axis-aligned (diagonal) covariances; "
                    "fit the GMM with covariance_type='diag'")
            comps.append(tuple(_surrogate(float(mean[i]), float(cov[i, i]))
                               for i in range(gmm.dim)))
    return MixtureModel(kind="flat", dim=gmm.dim, weights=gmm.weights.copy(),
                        components=comps, factorized=gmm.dim > 1)


def _surrogate(mean: float, var: float) -> uv.UnivariateSpec:
    """The AL surrogate of N(mean, var).  A Gaussian narrower than a few
    ulps of its mean (a GMM component on one value of near-constant data)
    is widened to b - a = 8 ulps, as a == b would not be a density."""
    sd = max(math.sqrt(var), 4.0 * math.ulp(mean) / uv.AL_OF_NORMAL_R)
    return uv.approx_al_from_normal(mean, sd)


# ---------------------------------------------------------------------------
# Generalized EM for the flat-topped mixture
# ---------------------------------------------------------------------------

def m_step(model: MixtureModel, data, resp: np.ndarray) -> MixtureModel:
    """Generalized M-step: closed-form weight update plus one weighted
    block Newton step per AL or BL component, so Q never decreases."""
    rows = _model_rows(model, data)
    if resp.shape != (rows.shape[0], model.k):
        raise ValueError("responsibilities must be N x K")
    if not np.all(resp >= 0) or not np.all(np.isfinite(resp)):  # NaN fails the first
        raise ValueError("responsibilities must be finite and non-negative")
    if model.kind != "flat":
        raise ValueError("m_step drives flat mixtures; use gmm_fit for Gaussians")
    _check_kernel_families(model)
    return _gem_m_step(_Flat.of(model, rows, _axis_bounds(rows, model.dim)), resp).model()


def _check_kernel_families(model: MixtureModel) -> None:
    unsupported = {spec.family for spec in _specs(model)} - set(mle._KERNELS)
    if unsupported:
        raise ValueError(f"m_step supports AL and BL components, got {sorted(unsupported)}")


def _axis_bounds(rows: np.ndarray, dim: int) -> np.ndarray:
    """The 4 x dim ``mle._bounds_from_data`` rows of every axis."""
    return np.stack([mle._bounds_from_data(rows[:, axis]) for axis in range(dim)], axis=1)


def _gem_m_step(state: _Flat, resp: np.ndarray) -> _Flat:
    """The M-step of ``m_step`` on the columns of ``state``, in place, from
    the N x K responsibilities: the live factors of each kernel family go
    through one ``mle._newton_pass`` together, which starts from the cached
    terms and writes those at its new parameters into the columns."""
    mass = resp.sum(axis=0)
    weights = mass / resp.shape[0]  # resp.mean(axis=0), bit for bit
    state.weights = weights / weights.sum()
    live = mass >= 1e-12  # zero responsibility: gradients vanish
    for family, c in state.groups.items():
        j = np.flatnonzero(live[c.comp])
        if not j.size:
            continue
        if j.size == c.idx.size:  # every factor is live: the columns themselves
            j, x, p, terms, box = slice(None), c.x, c.p, (c.const, c.edges), c.box
        else:
            x, p, terms = c.x[j], c.p[:, j], (c.const[j], c.edges[j])
            box = [row[..., j] for row in c.box]
        w = np.ascontiguousarray(resp.T[c.comp[j]])
        n = w.sum(axis=1)
        mle._newton_pass(family, x, w, n, p, mle._loglik(family, x, w, n, p, terms), terms,
                         mle._KERNELS[family].derivs(x, w, n, p), box)
        if not isinstance(j, slice):  # fancy indexing copied the live columns out
            c.p[:, j], c.const[j], c.edges[j] = p, *terms
    return state


def _upgrade_flat_components(model: MixtureModel) -> MixtureModel | None:
    """The model with the asymmetric family swapped in for every 1-d AL
    component that is flat-topped by the closed-form bound; None if there
    is none."""
    from .flatness import FLAT_REGIME_BOUND, family_flat_bound

    if model.dim != 1:
        return None
    flat = [comp.family == "AL" and family_flat_bound(comp) < FLAT_REGIME_BOUND
            for comp in model.components]
    if not any(flat):
        return None
    comps = [uv.make("BL", {"a": comp.a, "b": comp.b, "s": comp.s, "t": comp.s}) if up else comp
             for comp, up in zip(model.components, flat)]
    return replace(model, weights=model.weights.copy(), components=comps)


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
    rows = _model_rows(init, data)
    if init.kind != "flat":
        raise ValueError("ftm_fit expects a flat mixture (see ftm_from_gmm)")
    _check_kernel_families(init)
    bounds = _axis_bounds(rows, init.dim)

    def upgrade(state: _Flat) -> _Flat | None:
        model = _upgrade_flat_components(state.model())
        return None if model is None else _Flat.of(model, rows, bounds)

    return _em(_Flat.of(init, rows, bounds), rows, settings,
               lambda state, resp: _gem_m_step(state, resp[0].T),
               upgrade if settings.bl_upgrade else None)


def score(model: MixtureModel, data) -> tuple[float, float]:
    """(AIC, BIC) = (2k - 2l, k ln N - 2l) at the model's free parameter
    count."""
    rows = _rows_of(data)
    return mle._aic_bic(model.free_param_count, e_step(model, rows).loglik, rows.shape[0])


def _fit(data, family: str, k: int, seed: int,
         settings: MixtureSettings) -> tuple[MixtureModel, FitReport]:
    """The fit of ``mixfit`` and of each ``sweep`` row: the GMM, or GEM from
    the diagonal-covariance GMM of the same K (1-d data has no covariance
    type)."""
    if family == "GMM":
        return gmm_fit(data, k, seed, settings)
    base, _ = gmm_fit(data, k, seed, settings, covariance_type="diag")
    return ftm_fit(data, ftm_from_gmm(base), settings)


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
            _, report = _fit(rows, family, k, seed, settings)
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
