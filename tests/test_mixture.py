import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from scipy import special as sp, stats

from flattop import mixture as mx, mle, univariate as uv
from flattop.data_io import default_segments_scenario, gen_mixed_1d, gen_segments_2d


# ---------------------------------------------------------------------------
# GMM baseline
# ---------------------------------------------------------------------------

def test_single_gaussian_closed_form():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, 500)
    model, _ = mx.gmm_fit(x, 1, seed=1)
    mean, var = model.components[0]
    assert mean == pytest.approx(float(np.mean(x)), rel=1e-12)
    assert var == pytest.approx(float(np.var(x)), rel=1e-12)


def test_two_separated_blobs_balance_weights():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(-5, 1, 400), rng.normal(5, 1, 400)])
    model, _ = mx.gmm_fit(x, 2, seed=2)
    assert np.allclose(np.sort(model.weights), [0.5, 0.5], atol=0.05)
    means = sorted(c[0] for c in model.components)
    assert means[0] == pytest.approx(-5.0, abs=0.2)
    assert means[1] == pytest.approx(5.0, abs=0.2)


def test_gmm_traces_nondecreasing_on_random_datasets():
    rng = np.random.default_rng(2)
    for trial in range(20):
        x = rng.normal(size=rng.integers(40, 120)) * rng.uniform(0.5, 3.0)
        k = int(rng.integers(1, 4))
        _, report = mx.gmm_fit(x, k, seed=trial,
                               settings=mx.MixtureSettings(n_init=1, max_cycles=60))
        trace = np.array(report.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-9)


def test_gmm_rejects_tiny_samples_and_bad_k():
    with pytest.raises(ValueError):
        mx.gmm_fit(np.arange(3.0), 3, seed=0)
    with pytest.raises(ValueError):
        mx.gmm_fit(np.arange(10.0), 0, seed=0)


@pytest.mark.parametrize("bad", [{"max_cycles": 0}, {"max_cycles": -3}, {"n_init": 0},
                                 {"stall_cycles": 0}, {"max_cycles": 2.5},
                                 {"rel_tol": math.nan}])
def test_mixture_settings_reject_invalid_values(bad):
    # max_cycles=-3 once returned a 0-cycle fit, rel_tol=nan never stalled
    # and n_init=0 was run as one restart.
    with pytest.raises(ValueError, match="invalid MixtureSettings"):
        mx.MixtureSettings(**bad)
    assert mx.MixtureSettings(rel_tol=-math.inf).rel_tol == -math.inf  # never stalls


def test_gmm_2d_free_parameter_counts():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(200, 2))
    full, _ = mx.gmm_fit(rows, 4, seed=1, covariance_type="full",
                         settings=mx.MixtureSettings(n_init=1, max_cycles=30))
    diag, _ = mx.gmm_fit(rows, 4, seed=1, covariance_type="diag",
                         settings=mx.MixtureSettings(n_init=1, max_cycles=30))
    assert full.free_param_count == 6 * 4 - 1
    assert diag.free_param_count == 5 * 4 - 1


# ---------------------------------------------------------------------------
# Conversion
# ---------------------------------------------------------------------------

def test_conversion_produces_normal_surrogates():
    rng = np.random.default_rng(4)
    model, _ = mx.gmm_fit(rng.normal(0, 1, 400), 1, seed=5)
    ftm = mx.ftm_from_gmm(model)
    comp = ftm.components[0]
    mean, var = model.components[0]
    sd = math.sqrt(var)
    assert comp.a == pytest.approx(mean - sd * uv.AL_OF_NORMAL_R, rel=1e-12)
    assert comp.b == pytest.approx(mean + sd * uv.AL_OF_NORMAL_R, rel=1e-12)
    assert comp.s == pytest.approx(sd * uv.AL_OF_NORMAL_S, rel=1e-12)
    assert np.array_equal(ftm.weights, model.weights)


def test_conversion_2d_requires_diagonal():
    rng = np.random.default_rng(5)
    rows = rng.multivariate_normal([0, 0], [[1.0, 0.8], [0.8, 1.0]], size=300)
    full, _ = mx.gmm_fit(rows, 1, seed=6, covariance_type="full",
                         settings=mx.MixtureSettings(n_init=1, max_cycles=50))
    with pytest.raises(ValueError, match="diag"):
        mx.ftm_from_gmm(full)
    diag, _ = mx.gmm_fit(rows, 1, seed=6, covariance_type="diag",
                         settings=mx.MixtureSettings(n_init=1, max_cycles=50))
    ftm = mx.ftm_from_gmm(diag)
    assert ftm.factorized
    assert len(ftm.components[0]) == 2
    assert ftm.free_param_count == 7 * 1 - 1


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

def test_e_step_single_component_degenerates():
    model = mx.MixtureModel(kind="flat", dim=1, weights=np.array([1.0]),
                            components=[uv.make("AL", {"a": 0, "b": 1, "s": 0.1})])
    es = mx.e_step(model, np.linspace(-0.5, 1.5, 20))
    assert np.all(es.resp == 1.0)
    assert es.q == pytest.approx(es.loglik, abs=1e-12)
    assert es.flagged.size == 0


def test_e_step_rows_normalized_and_dominant_component():
    model = mx.MixtureModel(
        kind="flat", dim=1, weights=np.array([0.5, 0.5]),
        components=[uv.make("AL", {"a": -1, "b": 0, "s": 0.05}),
                    uv.make("AL", {"a": 10, "b": 11, "s": 0.05})])
    x = np.array([-0.5, 10.5, -0.4, 10.6])
    es = mx.e_step(model, x)
    assert np.allclose(es.resp.sum(axis=1), 1.0, atol=1e-12)
    assert es.resp[0, 0] > 1.0 - 1e-9
    assert es.resp[1, 1] > 1.0 - 1e-9


def test_e_step_q_below_loglik():
    rng = np.random.default_rng(6)
    model = mx.MixtureModel(
        kind="flat", dim=1, weights=np.array([0.3, 0.7]),
        components=[uv.make("AL", {"a": -1, "b": 1, "s": 0.3}),
                    uv.make("AL", {"a": 0, "b": 3, "s": 0.4})])
    es = mx.e_step(model, rng.uniform(-1, 3, 200))
    assert es.q <= es.loglik + 1e-12


def _gauss_log_densities(model, rows):
    """The K x N Gaussian log densities that the E-step scores ``rows`` with:
    its log joint densities less ln w."""
    log_joint = mx._log_matrix(mx._Gaussians.of(model, rows), rows)[0]
    return log_joint - np.log(model.weights)[:, None]


def _rotated(angle, vals):
    """The symmetric 2 x 2 covariance with eigenvalues ``vals`` on axes
    rotated by ``angle``."""
    vecs = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    cov = (vecs * vals) @ vecs.T
    return 0.5 * (cov + cov.T)


@pytest.mark.parametrize("cov_type, covs, rtol", [
    ("full", [_rotated(0.4, [2.0, 0.5]), _rotated(-1.1, [0.3, 0.05])], 1e-12),
    ("diag", [np.diag([2.0, 0.5]), np.diag([1.0, 1e-8])], 1e-12),
    # Condition number 1e8 on rotated axes: the thin-axis coordinate
    # v^T (x - mean) is 1e-4 of its terms, so the rounding of x - mean and
    # of the dot product alone moves ln p by ~1e-12 relative, in scipy's
    # evaluation as in the E-step's.
    ("full", [_rotated(1.0, [1.0, 1e-8]), _rotated(2.5, [1e-8, 1.0])], 4e-12),
], ids=["full", "diag-cond-1e8", "full-cond-1e8"])
def test_gaussian_log_densities_match_scipy(cov_type, covs, rtol):
    rng = np.random.default_rng(41)
    means = [np.array([0.5, -1.0]), np.array([-2.0, 3.0])]
    rows = np.concatenate([rng.multivariate_normal(m, c, 150) for m, c in zip(means, covs)])
    model = mx.MixtureModel(kind="gaussian", dim=2, weights=np.array([0.3, 0.7]),
                            components=list(zip(means, covs)), cov_type=cov_type)
    ref = [stats.multivariate_normal(m, c).logpdf(rows) for m, c in zip(means, covs)]
    assert np.allclose(_gauss_log_densities(model, rows), ref, rtol=rtol, atol=rtol)


def test_gaussian_1d_log_densities_match_scipy():
    comps = [(0.5, 2.0), (-3.0, 1e-8), (10.0, 1e6)]
    x = np.random.default_rng(42).normal(0.0, 5.0, 300)
    model = mx.MixtureModel(kind="gaussian", dim=1, weights=np.array([0.2, 0.3, 0.5]),
                            components=comps)
    ref = [stats.norm(m, math.sqrt(v)).logpdf(x) for m, v in comps]
    assert np.allclose(_gauss_log_densities(model, x.reshape(-1, 1)), ref, rtol=1e-12,
                       atol=1e-12)


def test_gaussian_log_densities_at_a_floored_eigenvalue_match_scipy():
    """Points on a line: the M-step raises the covariance's small eigenvalue
    to the floor, and the fitted model scores as scipy scores it."""
    x = np.random.default_rng(43).normal(size=200)
    rows = np.column_stack([x, 2.0 * x + 1.0])
    floor = mx._COV_FLOOR * float(np.max(np.var(rows, axis=0)))
    state = mx._gmm_m_step(rows, np.ones((1, 1, rows.shape[0])), "full", floor)
    assert state.vals[0, 0, 0] == floor
    model, _ = mx.gmm_fit(rows, 1, seed=0)
    mean, cov = model.components[0]
    assert np.linalg.eigvalsh(cov)[0] == pytest.approx(floor, rel=1e-6)
    ref = stats.multivariate_normal(mean, cov).logpdf(rows)
    assert np.allclose(_gauss_log_densities(model, rows)[0], ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim, comps, message", [
    (1, [(0.0, 1.0), (0.0, -1.0)],
     r"^component 1: covariance \[\[-1\.0\]\] is not positive definite$"),
    (2, [(np.zeros(2), np.eye(2)), (np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))],
     r"^component 1: covariance \[\[1\.0, 0\.5\], \[0\.4, 1\.0\]\] is not symmetric$"),
    (2, [(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))],
     r"^component 0: covariance .* is not positive definite$"),
], ids=["1d-negative-variance", "asymmetric", "not-positive-definite"])
def test_gaussian_e_step_and_score_reject_an_invalid_component(dim, comps, message):
    model = mx.MixtureModel(kind="gaussian", dim=dim, weights=np.full(len(comps), 1 / len(comps)),
                            components=comps, cov_type="full" if dim > 1 else None)
    rows = np.repeat(np.linspace(-1.0, 1.0, 10)[:, None], dim, axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (mx.e_step, mx.score):
            with pytest.raises(ValueError, match=message):
                call(model, rows)


# ---------------------------------------------------------------------------
# M-step and GEM
# ---------------------------------------------------------------------------

def _two_block_data(seed=7, n=300):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(0, 4, n), rng.uniform(6, 10, n)])


def test_m_step_weights_closed_form_and_simplex():
    x = _two_block_data()
    base, _ = mx.gmm_fit(x, 2, seed=8)
    model = mx.ftm_from_gmm(base)
    es = mx.e_step(model, x)
    new = mx.m_step(model, x, es.resp)
    assert new.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(new.weights, es.resp.mean(axis=0))


def test_m_step_zero_responsibility_leaves_component_unchanged():
    x = np.linspace(0.0, 1.0, 50)
    spec_far = uv.make("AL", {"a": 90.0, "b": 91.0, "s": 0.1})
    spec_near = uv.make("AL", {"a": -0.5, "b": 1.5, "s": 0.2})
    model = mx.MixtureModel(kind="flat", dim=1, weights=np.array([1.0, 0.0]),
                            components=[spec_near, spec_far])
    resp = np.zeros((50, 2))
    resp[:, 0] = 1.0
    new = mx.m_step(model, x, resp)
    assert new.components[1] == spec_far


@pytest.mark.parametrize("weights", [[math.nan, 1.0], [-0.5, 1.5], [math.inf, 1.0]])
def test_model_rejects_weights_that_are_not_a_probability_vector(weights):
    specs = [uv.make("AL", {"a": 0.0, "b": 1.0, "s": 0.1})] * 2
    with pytest.raises(ValueError, match="probability vector"):
        mx.MixtureModel(kind="flat", dim=1, weights=np.array(weights), components=specs)


@pytest.mark.parametrize("bad", [math.nan, -0.25, math.inf])
def test_m_step_rejects_nan_or_negative_responsibilities(bad):
    x = _two_block_data()
    model = mx.ftm_from_gmm(mx.gmm_fit(x, 2, seed=8)[0])
    resp = mx.e_step(model, x).resp
    resp[3, 1] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        mx.m_step(model, x, resp)


def test_one_gem_cycle_raises_observed_loglik():
    rng = np.random.default_rng(9)
    for trial in range(20):
        x = np.concatenate([rng.uniform(0, 3, 120), rng.uniform(5, 9, 120)])
        base, _ = mx.gmm_fit(x, 2, seed=trial,
                             settings=mx.MixtureSettings(n_init=1, max_cycles=40))
        model = mx.ftm_from_gmm(base)
        before = mx.e_step(model, x)
        stepped = mx.m_step(model, x, before.resp)
        after = mx.e_step(stepped, x)
        assert after.loglik >= before.loglik - 1e-9


def test_gem_monotone_over_seeded_runs():
    rng = np.random.default_rng(10)
    settings = mx.MixtureSettings(n_init=1, max_cycles=40)
    for trial in range(30):
        x = np.concatenate([
            rng.uniform(0, 4, rng.integers(60, 120)),
            rng.normal(8, 0.7, rng.integers(40, 80)),
        ])
        base, _ = mx.gmm_fit(x, 2, seed=trial, settings=settings)
        _, report = mx.ftm_fit(x, mx.ftm_from_gmm(base), settings)
        trace = np.array(report.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-9), trial


def test_ftm_k1_equals_direct_mle():
    ds = uv.sample(uv.make("AL", {"a": 0, "b": 5, "s": 0.3}), 2000, seed=6)
    base, _ = mx.gmm_fit(ds.x, 1, seed=7)
    settings = mx.MixtureSettings(max_cycles=2000, rel_tol=1e-12, stall_cycles=5)
    _, gem_report = mx.ftm_fit(ds.x, mx.ftm_from_gmm(base), settings)
    _, mle_report = mle.fit(ds, mle.init_al_from_normal_fit(ds),
                            mle.FitSettings(max_iters=2000))
    assert abs(gem_report.loglik_trace[-1] - mle_report.loglik_trace[-1]) < 1e-8


def test_bl_upgrade_improves_skewed_fit():
    rng = np.random.default_rng(11)
    # Asymmetric shoulders: steep low side, soft high side.
    x = np.concatenate([rng.uniform(0, 10, 400),
                        10.0 + rng.exponential(1.0, 120)])
    base, _ = mx.gmm_fit(x, 1, seed=12)
    plain, rep_plain = mx.ftm_fit(x, mx.ftm_from_gmm(base),
                                  mx.MixtureSettings(bl_upgrade=False))
    upg, rep_upg = mx.ftm_fit(x, mx.ftm_from_gmm(base),
                              mx.MixtureSettings(bl_upgrade=True))
    assert rep_upg.loglik_trace[-1] >= rep_plain.loglik_trace[-1] - 1e-9
    assert any(getattr(c, "family", None) == "BL" for c in upg.components)


def test_gem_computes_each_bl_normalizer_once(monkeypatch):
    # The E-step scores from the cached constant, the M-step starts from it,
    # and a backtrack that clips to the candidate just rejected skips it.
    # Two components and a tight rel_tol give the BL phase enough trials.
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(0, 10, 400), 10.0 + rng.exponential(1.0, 120)])
    base, _ = mx.gmm_fit(x, 2, seed=12)
    kernel = mle._KERNELS["BL"]
    seen = []

    def recording_const(p):
        seen.extend(map(tuple, p.T))
        return kernel.const(p)

    monkeypatch.setitem(mle._KERNELS, "BL", kernel._replace(const=recording_const))
    _, report = mx.ftm_fit(x, mx.ftm_from_gmm(base),
                           mx.MixtureSettings(rel_tol=1e-12, bl_upgrade=True))
    assert report.iterations > 10 and len(seen) > 10
    assert len(set(seen)) == len(seen)


def test_gem_pins_a_scale_within_ulps_of_its_floor(monkeypatch):
    # Factor 0's left scale ends 3 ulps above its floor s_min with its
    # gradient pointing out.  Pinned only at s <= s_min, every halved trial
    # clipped it onto the floor and kept the rest of a step that did not
    # climb: the same 30 trials, each a normalizer quadrature, in every
    # cycle (136 calls).  Pinned within 4 ulps, it runs none.
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(0, 4, 300), 4 + rng.exponential(0.5, 100),
                        rng.uniform(8, 12, 300), 12 + rng.exponential(0.5, 100)])
    base, _ = mx.gmm_fit(x, 2, seed=12)
    kernel = mle._KERNELS["BL"]
    calls, seen = [], []

    def recording_const(p):
        calls.append(p.shape[1])
        seen.extend(map(tuple, p.T))
        return kernel.const(p)

    monkeypatch.setitem(mle._KERNELS, "BL", kernel._replace(const=recording_const))
    _, report = mx.ftm_fit(x, mx.ftm_from_gmm(base), mx.MixtureSettings(bl_upgrade=True))
    assert len(calls) <= 30
    assert len(set(seen)) == len(seen)
    assert report.loglik_trace[-1] >= -1909.5873597018


def test_gem_held_factor_runs_no_trial(monkeypatch):
    # Within ten cycles the y factor of this one-component fit reaches a
    # maximum where every Newton step predicts a gain below the rounding
    # error of the log-likelihood: it is held and runs no trial, where a
    # strict test of each trial once took ~23 trials a cycle, halving on to
    # underflow.  (The x factor sits at a corner of its box, where every
    # coordinate is pinned and no trial runs.)
    rows = gen_segments_2d(default_segments_scenario(9002)).rows
    settings = mx.MixtureSettings(max_cycles=25, rel_tol=-math.inf)
    base, _ = mx.gmm_fit(rows, 1, seed=11, settings=settings, covariance_type="diag")
    kernel = mle._KERNELS["AL"]
    calls = []

    def recording_const(p):
        calls.append(p.shape[1])
        return kernel.const(p)

    real_m_step, per_cycle = mx._gem_m_step, []

    def counting_m_step(*args):
        start = len(calls)
        out = real_m_step(*args)
        per_cycle.append(len(calls) - start)
        return out

    monkeypatch.setitem(mle._KERNELS, "AL", kernel._replace(const=recording_const))
    monkeypatch.setattr(mx, "_gem_m_step", counting_m_step)
    _, report = mx.ftm_fit(rows, mx.ftm_from_gmm(base), settings)
    assert report.iterations == 25
    assert per_cycle[10:] == [0] * 15
    assert np.all(np.diff(report.loglik_trace) >= -1e-9)


def test_gem_builds_the_box_rows_once_per_fit(monkeypatch):
    # The box rows depend only on the data: ``_Flat.of`` builds them once
    # for the fit's AL columns, and every M-step pass reads them.
    rows = gen_segments_2d(default_segments_scenario(31)).rows
    settings = mx.MixtureSettings(max_cycles=25, rel_tol=-math.inf)
    base, _ = mx.gmm_fit(rows, 3, seed=11, settings=settings, covariance_type="diag")
    kernel = mle._KERNELS["AL"]
    calls = []

    def counting_box(p, bounds):
        calls.append(p.shape[1])
        return kernel.box(p, bounds)

    monkeypatch.setitem(mle._KERNELS, "AL", kernel._replace(box=counting_box))
    _, report = mx.ftm_fit(rows, mx.ftm_from_gmm(base), settings)
    assert report.iterations == 25 and calls == [6]


def test_label_permutation_invariance():
    x = _two_block_data(seed=13)
    base, _ = mx.gmm_fit(x, 2, seed=14)
    model = mx.ftm_from_gmm(base)
    flipped = mx.MixtureModel(kind="flat", dim=1,
                              weights=model.weights[::-1].copy(),
                              components=list(reversed(model.components)))
    aic1, bic1 = mx.score(model, x)
    aic2, bic2 = mx.score(flipped, x)
    assert aic1 == pytest.approx(aic2, abs=1e-9)
    assert bic1 == pytest.approx(bic2, abs=1e-9)


# ---------------------------------------------------------------------------
# Scoring and the model-selection sweep
# ---------------------------------------------------------------------------

def test_free_parameter_counts_2d():
    scen = default_segments_scenario()
    ds = gen_segments_2d(scen)
    settings = mx.MixtureSettings(n_init=1, max_cycles=30)
    gmm, _ = mx.gmm_fit(ds, 4, seed=1, settings=settings)
    assert gmm.free_param_count == 23
    diag, _ = mx.gmm_fit(ds, 4, seed=1, settings=settings, covariance_type="diag")
    ftm = mx.ftm_from_gmm(diag)
    assert ftm.free_param_count == 27


def test_bic_formula_fixed_point():
    # With zero log-likelihood, one parameter, and N = e^2: BIC = 2.
    model = mx.MixtureModel(kind="flat", dim=1, weights=np.array([1.0]),
                            components=[uv.make("U", {"a": 0, "b": 1})])
    n = math.e ** 2
    k = 1
    assert k * math.log(n) - 2.0 * 0.0 == pytest.approx(2.0)


def test_score_matches_report():
    x = _two_block_data(seed=15)
    base, _ = mx.gmm_fit(x, 2, seed=16)
    model, report = mx.ftm_fit(x, mx.ftm_from_gmm(base))
    aic, bic = mx.score(model, x)
    assert aic == pytest.approx(report.aic, abs=1e-6)
    assert bic == pytest.approx(report.bic, abs=1e-6)


def test_sweep_shape_and_k1_consistency():
    x = _two_block_data(seed=17, n=150)
    rows = mx.sweep(x, "FTM", range(1, 4), seed=18)
    assert [r.k for r in rows] == [1, 2, 3]
    assert all(r.error is None for r in rows)
    base, _ = mx.gmm_fit(x, 1, seed=18, covariance_type="full")
    _, rep = mx.ftm_fit(x, mx.ftm_from_gmm(base))
    assert rows[0].aic == pytest.approx(rep.aic, rel=1e-6)


def test_sweep_records_failures_and_continues(monkeypatch):
    x = np.linspace(0.0, 1.0, 8)
    rows = mx.sweep(x, "GMM", [1, 50], seed=19)
    assert rows[0].error is None
    assert rows[1].error is not None
    assert math.isnan(rows[1].aic)

    def broken(*args, **kwargs):
        raise TypeError("a bug, not a fit failure")

    monkeypatch.setattr(mx, "gmm_fit", broken)
    with pytest.raises(TypeError):
        mx.sweep(x, "GMM", [1], seed=19)


def test_gmm_collapse_is_typed(monkeypatch):
    real_m_step = mx._gmm_m_step
    calls = []

    def empty_every_other_call(rows, resp, cov_type, floor):
        calls.append(1)
        if len(calls) % 2:
            empty = np.zeros(resp.shape[:2], dtype=bool)
            empty[:, 1] = True
            raise mx._EmptyComponent(empty)
        return real_m_step(rows, resp, cov_type, floor)

    monkeypatch.setattr(mx, "_gmm_m_step", empty_every_other_call)
    with pytest.raises(mx.ComponentCollapseError, match="collapsed twice"):
        mx.gmm_fit(np.linspace(0.0, 1.0, 20), 2, seed=0)
    rows = mx.sweep(np.linspace(0.0, 1.0, 20), "GMM", [2], seed=0)
    assert "collapsed twice" in rows[0].error


def _inject_empty(monkeypatch, plan):
    """Wrap the stacked Gaussian M-step.  Its call c (counted from 1)
    reports component k of row i of the lanes empty for every (i, k) in
    plan[c]; every call's responsibilities, and its result, are recorded."""
    real, calls = mx._gmm_m_step, []

    def step(rows, resp, cov_type, floor):
        calls.append([resp.copy()])
        if len(calls) in plan:
            empty = np.zeros(resp.shape[:2], dtype=bool)
            for i, k in plan[len(calls)]:
                empty[i, k] = True
            raise mx._EmptyComponent(empty)
        calls[-1].append(real(rows, resp, cov_type, floor))
        return calls[-1][1]

    monkeypatch.setattr(mx, "_gmm_m_step", step)
    return calls


def _lane_arrays(fit, lanes):
    return [a[lanes] for a in (fit.weights, fit.means, fit.vals, fit.vecs)]


def test_reseed_in_one_lane_leaves_the_other_lanes_bit_identical(monkeypatch, segments_rows):
    settings = mx.MixtureSettings(max_cycles=6, rel_tol=-math.inf)
    plain = _inject_empty(monkeypatch, {})
    mx.gmm_fit(segments_rows, 4, seed=11, settings=settings)
    monkeypatch.undo()
    hit = _inject_empty(monkeypatch, {1: [(1, 2)]})
    mx.gmm_fit(segments_rows, 4, seed=11, settings=settings)
    # One extra M-step, the rerun after lane 1's component 2 got an even share.
    assert len(hit) == len(plain) + 1
    reseeded = hit[0][0][1].T.copy()
    reseeded[:, 2] = 1.0 / segments_rows.shape[0]
    reseeded /= reseeded.sum(axis=1, keepdims=True)
    assert np.array_equal(hit[1][0][1].T, reseeded)
    others = [0, 2, 3]
    for (resp, fit), (hit_resp, hit_fit) in zip(plain, hit[1:]):
        assert np.array_equal(resp[others], hit_resp[others])
        for a, b in zip(_lane_arrays(fit, others), _lane_arrays(hit_fit, others)):
            assert np.array_equal(a, b)
    assert not np.array_equal(plain[-1][1].means[1], hit[-1][1].means[1])


def test_second_collapse_raises_the_lowest_collapsed_lanes_error(monkeypatch, segments_rows):
    # Lane 3 collapses twice (M-step calls 1 and 3), then lane 1 (calls 3 and
    # 5): restarts run one after another would have failed in lane 1 first.
    settings = mx.MixtureSettings(max_cycles=6, rel_tol=-math.inf)
    calls = _inject_empty(monkeypatch, {1: [(3, 0)], 3: [(3, 0), (1, 1)], 5: [(1, 1)]})
    with pytest.raises(mx.ComponentCollapseError,
                       match=r"^component 1 collapsed twice; aborting$"):
        mx.gmm_fit(segments_rows, 4, seed=11, settings=settings)
    # A collapsed lane stops, and so do the lanes above it.
    assert [call[0].shape[0] for call in calls] == [4, 4, 4, 4, 3, 3, 1, 1, 1]


def test_gmm_reseeds_every_empty_component_at_once():
    rows = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
    resp = np.zeros((20, 3))
    resp[:, 0] = 1.0
    with pytest.raises(mx._EmptyComponent) as info:
        mx._gmm_m_step(rows, resp.T[None], "full", 1e-10)
    assert np.flatnonzero(info.value.empty[0]).tolist() == [1, 2]


@pytest.mark.parametrize("k", [2.0, np.float64(2.0), "2", 0],
                         ids=["float", "numpy-float", "str", "zero"])
def test_gmm_fit_rejects_k_not_an_integer_of_at_least_1(k):
    # A float k used to raise TypeError from range in k-means++, which
    # aborted the sweep instead of recording its row.
    x = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        mx.gmm_fit(x, k, 11)
    rows = mx.sweep(x, "GMM", [1, k], 11)
    assert rows[0].error is None
    assert "k must be an integer >= 1" in rows[1].error and math.isnan(rows[1].bic)


def test_sweep_rejects_unknown_family():
    with pytest.raises(ValueError):
        mx.sweep(np.arange(10.0), "XXX", [1], seed=0)


# ---------------------------------------------------------------------------
# The batched engine against a per-component reference loop
# ---------------------------------------------------------------------------

def _ref_component_logpdf(model, comp, rows):
    if model.kind == "gaussian":
        mean, cov = comp
        if model.dim == 1:
            return -0.5 * (math.log(2.0 * math.pi * cov) + (rows[:, 0] - mean) ** 2 / cov)
        chol = np.linalg.cholesky(cov)
        z = np.linalg.solve(chol, (rows - mean).T)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return -0.5 * (model.dim * math.log(2.0 * math.pi) + log_det + np.sum(z * z, axis=0))
    specs = comp if isinstance(comp, tuple) else (comp,)
    return sum(uv.log_pdf(spec, rows[:, axis]) for axis, spec in enumerate(specs))


def _ref_e_step(model, rows):
    log_joint = np.column_stack([_ref_component_logpdf(model, c, rows)
                                 for c in model.components]) + np.log(model.weights)
    row_tot = sp.logsumexp(log_joint, axis=1)
    return np.exp(log_joint - row_tot[:, None]), float(np.sum(row_tot))


def _ref_box(x):
    """(lo, hi, eps, s_min, s_max) of one axis."""
    lo, hi = float(x.min()), float(x.max())
    s_min = (hi - lo) / (4.0 * x.size)
    return lo, hi, 1e-9 * (hi - lo), s_min, max(float(np.std(x)), 2.0 * s_min)


def _ref_pass(x, w, spec):
    """One projected modified-Newton step on one component and axis, built
    from the public AL gradient and Hessian or the BL kernel's derivatives,
    and halved until the log-likelihood does not fall; none if its
    predicted gain is within the rounding error of the log-likelihood."""
    lo, hi, eps, s_min, s_max = _ref_box(x)
    gap = max(eps, 4.0 * float(np.spacing(max(abs(lo), abs(hi)))))
    names = mle._KERNELS[spec.family].names
    theta = np.array([getattr(spec, name) for name in names])
    if spec.family == "AL":
        loglik = mle.loglik_al
        grad = np.array(mle.grad_al(x, *theta, w))
        h = mle.hess_al(x, *theta, w)
        hess = np.array([[h.daa, h.dab, h.das], [h.dab, h.dbb, h.dbs], [h.das, h.dbs, h.dss]])
        g = (theta[1] - theta[0]) / (2.0 * theta[2])
        log_c = g + math.log1p(-math.exp(-2.0 * g)) - math.log(4.0 * (theta[1] - theta[0]))
    else:
        loglik = mle.loglik_bl
        grad, hess = (d[0] for d in mle._KERNELS["BL"].derivs(
            x[None], w[None], w[None].sum(axis=1), theta[:, None]))
        log_c = math.log(spec.c)
    low = np.minimum([lo + eps, -math.inf, *(max(s_min, 0.5 * v) for v in theta[2:])], theta)
    high = np.maximum([math.inf, hi - eps, *[s_max] * (theta.size - 2)], theta)
    for i in range(theta.size):
        if (theta[i] <= low[i] and grad[i] < 0.0) or (theta[i] >= high[i] and grad[i] > 0.0):
            grad[i] = 0.0
            hess[i, :] = hess[:, i] = 0.0
            hess[i, i] = -1.0
    vals, vecs = np.linalg.eigh(hess)
    mag = np.abs(vals)
    mag = np.maximum(mag, max(1e-12 * mag.max(), 1e-300))
    step = vecs @ ((vecs.T @ grad) / mag)
    # A candidate keeps at least half of b - a above the gap, and of each scale.
    width = theta[1] - theta[0]
    least_width = min(width, 0.5 * (width + gap))
    ll, tried = loglik(x, *theta, w), None
    # The rounding error of the log-likelihood is 4 eps times the sum of
    # its terms' magnitudes, |N ln c| + (N ln c - ll) for the constant c of
    # the density.
    n_const = float(w.sum()) * log_c
    if 0.5 * (grad @ step) <= 4.0 * np.finfo(float).eps * (abs(n_const) + (n_const - ll)):
        return spec
    for _ in range(mle._MAX_BACKTRACKS):
        cand = np.minimum(np.maximum(theta + step, low), high)
        if np.array_equal(cand, theta):
            break
        fresh = tried is None or not np.array_equal(cand, tried)
        if fresh and cand[1] - cand[0] >= least_width and loglik(x, *cand, w) >= ll:
            return uv.make(spec.family, dict(zip(names, cand)))
        tried = cand
        step = step * mle._BACKTRACK_FACTOR
    return spec


def _ref_m_step(model, rows, resp):
    comps = []
    for k, comp in enumerate(model.components):
        w = resp[:, k]
        if w.sum() < 1e-12:
            comps.append(comp)
        elif model.dim == 1:
            comps.append(_ref_pass(rows[:, 0], w, comp))
        else:
            comps.append(tuple(_ref_pass(rows[:, axis], w, spec)
                               for axis, spec in enumerate(comp)))
    return comps


def _params_of(model):
    out = []
    for comp in model.components:
        for spec in comp if isinstance(comp, tuple) else (comp,):
            out.append(list(spec.params().values()))
    return out


def _assert_e_step_matches(model, rows):
    es = mx.e_step(model, rows)
    resp, loglik = _ref_e_step(model, rows)
    assert np.allclose(es.resp, resp, rtol=1e-12, atol=1e-300)
    assert es.loglik == pytest.approx(loglik, rel=1e-12)
    return es


def _assert_m_step_matches(model, rows, resp):
    new = mx.m_step(model, rows, resp)
    ref = _ref_m_step(model, rows, resp)
    got = _params_of(new)
    want = _params_of(mx.MixtureModel(kind="flat", dim=model.dim, weights=new.weights,
                                      components=ref, factorized=model.factorized))
    for g, r in zip(got, want):
        assert g == pytest.approx(r, rel=1e-12)
    assert np.allclose(new.weights, resp.mean(axis=0), rtol=1e-12)
    return new


def _ref_e_core(log_joint):
    """N x K responsibilities and the log-likelihood from the K x N log
    joint densities of one model, normalised by one exponential shifted by
    each point's largest log joint density."""
    top = log_joint.max(axis=0)
    finite = np.isfinite(top)
    resp = np.exp(log_joint - np.where(finite, top, 0.0))
    tot = resp.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        resp = (resp / tot).T
        point_ll = top + np.log(tot)
    resp[~finite] = 1.0 / log_joint.shape[0]
    return resp, float(np.sum(point_ll[finite]))


def _ref_gauss_e_step(weights, means, vals, vecs, rows):
    """One Gaussian restart's N x K responsibilities and log-likelihood,
    from the eigenvalues of its covariances and, for full covariances, their
    eigenvectors (for diagonal ones and in 1-d the axes are the coordinate
    axes and the eigenvalues the variances)."""
    d = np.ascontiguousarray(rows.T) - means.reshape(weights.size, -1, 1)
    z = d if vecs is None else vecs.transpose(0, 2, 1) @ d
    log_joint = ((-0.5 / vals)[:, None, :] @ (z * z))[:, 0]
    with np.errstate(divide="ignore"):
        log_joint += (np.log(weights) - 0.5 * (rows.shape[1] * math.log(2.0 * math.pi)
                                               + np.log(vals).sum(axis=1)))[:, None]
    return _ref_e_core(log_joint)


def _ref_gauss_m_step(rows, resp, cov_type, floor):
    """One Gaussian restart's weights, means, and the eigenvalues, floored,
    and eigenvectors (None unless ``cov_type`` is full) of its covariances;
    None if a component has no responsibility."""
    nk = resp.sum(axis=0)
    if np.any(nk <= 0):
        return None
    means = resp.T @ rows / nk[:, None]
    d = np.ascontiguousarray(rows.T) - means[:, :, None]
    if cov_type != "full":
        var = ((d * d) @ np.ascontiguousarray(resp.T)[:, :, None])[:, :, 0] / nk[:, None]
        return nk / rows.shape[0], means, np.maximum(var, floor), None
    cov = (d * resp.T[:, None, :]) @ d.transpose(0, 2, 1) / nk[:, None, None]
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.transpose(0, 2, 1)))
    return nk / rows.shape[0], means, np.maximum(vals, floor), vecs


def _ref_gmm_restarts(rows, k, seed, settings, cov_type):
    """Every restart run alone, one after another, from the lanes' start
    draws: (trace, iterations, converged, (weights, means, cov)) each."""
    floor = max(mx._COV_FLOOR * float(np.max(np.var(rows, axis=0))), 1e-300)
    cov_type = cov_type if rows.shape[1] > 1 else None
    start = mx._gmm_start(rows, k, settings.n_init, np.random.default_rng(seed), cov_type, floor)
    fits = []
    for lane in range(settings.n_init):
        params = (start.weights[lane], start.means[lane], start.vals[lane],
                  None if start.vecs is None else start.vecs[lane])
        trace, stall, cycles, converged, reseeded = [], 0, 0, False, False
        for cycles in range(1, settings.max_cycles + 1):
            resp, loglik = _ref_gauss_e_step(*params, rows)
            trace.append(loglik)
            new = _ref_gauss_m_step(rows, resp, cov_type, floor)
            if new is None:
                assert not reseeded, "collapsed twice"
                reseeded = True
                resp[:, resp.sum(axis=0) <= 0] = 1.0 / rows.shape[0]
                resp /= resp.sum(axis=1, keepdims=True)
                new = _ref_gauss_m_step(rows, resp, cov_type, floor)
            params = new
            gain = (trace[-1] - trace[-2]) / max(abs(trace[-2]), 1.0) if cycles > 1 else math.inf
            stall = stall + 1 if gain < settings.rel_tol else 0
            if stall >= settings.stall_cycles:
                converged = True
                break
        trace.append(_ref_gauss_e_step(*params, rows)[1])
        fits.append((trace, cycles, converged, params))
    return fits


def _ref_kmeanspp_centers(rows, k, rng):
    """The k-means++ centres drawn with numpy's own tools: ``Generator.choice``
    with p = d2 / total, and ``np.sum`` of the squares over the axes."""
    n = rows.shape[0]
    centers = [rows[rng.integers(n)]]
    d2 = np.sum((rows - centers[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        centers.append(rows[rng.integers(n) if total == 0.0 else rng.choice(n, p=d2 / total)])
        d2 = np.minimum(d2, np.sum((rows - centers[-1]) ** 2, axis=1))
    return np.array(centers)


@pytest.mark.parametrize("seed", [11, 31, 7001])
@pytest.mark.parametrize("k", [1, 2, 5, 10])
@pytest.mark.parametrize("data", ["mixed55", "segments", "coincident"])
def test_kmeanspp_centers_match_generator_choice(segments_rows, data, k, seed):
    """Bit-equal centres, and the same random stream after them, as the
    draw by ``Generator.choice``; five coincident points take the
    total == 0 branch.  Fails too if numpy changes how ``choice`` draws."""
    rows = {"mixed55": gen_mixed_1d(20260808).rows, "segments": segments_rows,
            "coincident": np.full((5, 2), 0.375)}[data]
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = mx._kmeanspp_centers(rows, k, got_rng)
    ref = _ref_kmeanspp_centers(rows, k, ref_rng)
    assert got.shape == ref.shape == (k, rows.shape[1])
    assert got.tobytes() == ref.tobytes()
    assert got_rng.random() == ref_rng.random()


def test_kmeanspp_centers_reject_squared_distances_that_overflow():
    """A total squared distance that overflows makes p = d2 / total NaN or
    all 0, which ``Generator.choice`` rejects; the search must not pick from
    it instead."""
    rows = np.array([[0.0], [1e200], [3e200]])
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="[Pp]robabilities"):
        mx._kmeanspp_centers(rows, 2, np.random.default_rng(1))


@pytest.mark.parametrize("rel_tol", [-math.inf, 1e-8])
@pytest.mark.parametrize("data, cov_type, k", [
    # K = 1 runs one lane: every lane ends on the same log-likelihood, and the first wins
    ("1d", "full", 1), ("2d", "full", 1), ("2d", "diag", 1),
    ("1d", "full", 3), ("2d", "full", 4), ("2d", "diag", 4)])
def test_gmm_restart_lanes_match_restarts_run_one_after_another(segments_rows, data, cov_type,
                                                                k, rel_tol):
    rows = segments_rows if data == "2d" else gen_mixed_1d(20260808).rows
    settings = mx.MixtureSettings(n_init=4, rel_tol=rel_tol,
                                  max_cycles=25 if rel_tol == -math.inf else 300)
    model, report = mx.gmm_fit(rows, k, seed=11, settings=settings, covariance_type=cov_type)
    fits = _ref_gmm_restarts(rows, k, 11, settings, cov_type)
    if rel_tol > 0 and k > 1:  # the lanes stop at different cycles
        assert len({fit[1] for fit in fits}) > 1
    trace, iterations, converged, (weights, means, vals, vecs) = max(fits,
                                                                     key=lambda fit: fit[0][-1])
    assert report.loglik_trace == trace
    assert (report.iterations, report.converged) == (iterations, converged)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(np.array([c[0] for c in model.components]).reshape(means.shape), means)
    if rows.shape[1] == 1:
        cov = vals[:, 0]
    else:  # V diag(vals) V^T, with V = I for diagonal covariances
        vecs = np.eye(rows.shape[1]) if vecs is None else vecs
        cov = (vecs * vals[:, None, :]) @ np.swapaxes(vecs, -1, -2)
    assert np.array_equal(np.array([c[1] for c in model.components]), cov)
    assert report.bic == mle._aic_bic(model.free_param_count, trace[-1], rows.shape[0])[1]


def _specs_of(model):
    return [spec for comp in model.components
            for spec in (comp if isinstance(comp, tuple) else (comp,))]


def _ref_flat_e_step(model, rows):
    """A flat model's N x K responsibilities and log-likelihood, each AL or
    BL factor scored on its own from fresh kernel terms."""
    out = np.empty((model.k * model.dim, rows.shape[0]))
    for f, spec in enumerate(_specs_of(model)):
        kernel = mle._KERNELS[spec.family]
        p = np.array([[getattr(spec, name)] for name in kernel.names])
        const, edges = kernel.terms(rows[:, f % model.dim][None], p)
        out[f] = const[:, None] - edges
    with np.errstate(divide="ignore"):
        log_w = np.log(model.weights)
    return _ref_e_core(out.reshape(model.k, model.dim, -1).sum(axis=1) + log_w[:, None])


def _ref_gem_m_step(model, rows, resp):
    """The spec-based GEM M-step: every live factor of a family goes through
    one Newton pass from fresh terms, and every moved factor becomes a new
    spec."""
    weights = resp.mean(axis=0)
    weights = weights / weights.sum()
    live = resp.sum(axis=0) >= 1e-12
    bounds = np.stack([mle._bounds_from_data(rows[:, axis]) for axis in range(model.dim)],
                      axis=1)
    cols = np.ascontiguousarray(rows.T)
    specs = _specs_of(model)
    for family, kernel in mle._KERNELS.items():
        group = [f for f, spec in enumerate(specs)
                 if spec.family == family and live[f // model.dim]]
        if not group:
            continue
        ks, axes = [f // model.dim for f in group], [f % model.dim for f in group]
        x = cols[axes]
        w = np.ascontiguousarray(resp.T[ks])
        n = w.sum(axis=1)
        p = np.array([[getattr(specs[f], name) for f in group] for name in kernel.names])
        mle._newton_pass(family, x, w, n, p, mle._loglik(family, x, w, n, p), kernel.terms(x, p),
                         kernel.derivs(x, w, n, p), kernel.box(p, bounds[:, axes]))
        for j, f in enumerate(group):
            specs[f] = uv.make(family, dict(zip(kernel.names, p[:, j])))
    comps = [tuple(specs[f:f + model.dim]) if model.dim > 1 else specs[f]
             for f in range(0, len(specs), model.dim)]
    return mx.MixtureModel(kind="flat", dim=model.dim, weights=weights, components=comps,
                           factorized=model.factorized)


def _ref_gem(rows, model, settings):
    """GEM cycles on specs, one M-step after another: the final model, the
    trace, the cycle count and whether the fit converged."""
    trace, stall, converged, upgrade = [], 0, False, settings.bl_upgrade
    for cycles in range(1, settings.max_cycles + 1):
        resp, loglik = _ref_flat_e_step(model, rows)
        trace.append(loglik)
        model = _ref_gem_m_step(model, rows, resp)
        gain = (trace[-1] - trace[-2]) / max(abs(trace[-2]), 1.0) if cycles > 1 else math.inf
        stall = stall + 1 if gain < settings.rel_tol else 0
        if stall >= settings.stall_cycles:
            upgraded = mx._upgrade_flat_components(model) if upgrade else None
            if upgraded is None:
                converged = True
                break
            model, stall, upgrade = upgraded, 0, False
    trace.append(_ref_flat_e_step(model, rows)[1])
    return model, trace, cycles, converged


def _skewed_block(seed=11):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(0, 10, 400), 10.0 + rng.exponential(1.0, 120)])


def _gem_case(name, segments_rows):
    """(rows, init, bl_upgrade) of one reference case."""
    if name == "2d":
        base, _ = mx.gmm_fit(segments_rows, 4, seed=11, covariance_type="diag")
        return segments_rows, mx.ftm_from_gmm(base), False
    if name == "zero-resp":
        x = _two_block_data(seed=13, n=120)
        near, _ = mx.gmm_fit(x, 2, seed=14)
        far = uv.make("AL", {"a": 90.0, "b": 91.0, "s": 0.1})
        init = mx.MixtureModel(kind="flat", dim=1, weights=np.array([0.45, 0.45, 0.1]),
                               components=mx.ftm_from_gmm(near).components + [far])
        return x.reshape(-1, 1), init, False
    x = gen_mixed_1d(20260808).x if name == "1d" else _skewed_block()
    base, _ = mx.gmm_fit(x, 2 if name == "1d" else 1, seed=12)
    return x.reshape(-1, 1), mx.ftm_from_gmm(base), name == "bl-upgrade"


@pytest.mark.parametrize("rel_tol", [-math.inf, 1e-8])
@pytest.mark.parametrize("case", ["1d", "bl-upgrade", "2d", "zero-resp"])
def test_gem_columns_match_the_spec_based_loop(segments_rows, case, rel_tol):
    rows, init, upgrade = _gem_case(case, segments_rows)
    settings = mx.MixtureSettings(rel_tol=rel_tol, bl_upgrade=upgrade,
                                  max_cycles=25 if rel_tol == -math.inf else 300)
    model, report = mx.ftm_fit(rows, init, settings)
    ref, trace, iterations, converged = _ref_gem(rows, init, settings)
    assert report.loglik_trace == trace
    assert (report.iterations, report.converged) == (iterations, converged)
    assert np.array_equal(model.weights, ref.weights)
    assert model.components == ref.components
    assert report.bic == mle._aic_bic(ref.free_param_count, trace[-1], rows.shape[0])[1]
    upgraded = any(spec.family == "BL" for spec in _specs_of(model))
    assert upgraded == (upgrade and rel_tol > 0)  # no stall with rel_tol = -inf
    if case == "zero-resp":
        assert model.components[2] == init.components[2]


@pytest.mark.parametrize("dim", [1, 2])
def test_ftm_fit_builds_specs_only_for_the_returned_model(monkeypatch, segments_rows, dim):
    rows = segments_rows if dim == 2 else _two_block_data().reshape(-1, 1)
    base, _ = mx.gmm_fit(rows, 3, seed=11, covariance_type="diag")
    init = mx.ftm_from_gmm(base)
    real_make, made = uv.make, []

    def counting_make(family, params):
        made.append(real_make(family, params))
        return made[-1]

    monkeypatch.setattr(uv, "make", counting_make)
    model, report = mx.ftm_fit(rows, init, mx.MixtureSettings(max_cycles=10))
    assert report.iterations == 10
    assert [id(spec) for spec in _specs_of(model)] == [id(spec) for spec in made]


@pytest.fixture(scope="module")
def segments_rows():
    return gen_segments_2d(default_segments_scenario()).rows


@pytest.mark.parametrize("cov_type", ["full", "diag"])
def test_gaussian_e_and_m_step_match_per_component_loop(segments_rows, cov_type):
    rows = segments_rows
    settings = mx.MixtureSettings(n_init=1, max_cycles=5)
    model, _ = mx.gmm_fit(rows, 4, seed=11, settings=settings, covariance_type=cov_type)
    es = _assert_e_step_matches(model, rows)
    floor = mx._COV_FLOOR * float(np.max(np.var(rows, axis=0)))
    fit = mx._gmm_m_step(rows, es.resp.T[None], cov_type, floor).model(0)
    weights, comps = fit.weights, fit.components
    nk = es.resp.sum(axis=0)
    assert np.allclose(weights, nk / rows.shape[0], rtol=1e-12)
    for k, (mean, cov) in enumerate(comps):
        w = es.resp[:, k]
        ref_mean = w @ rows / nk[k]
        d = rows - ref_mean
        ref_cov = (w[:, None] * d).T @ d / nk[k]
        if cov_type == "diag":
            ref_cov = np.diag(np.maximum(np.diag(ref_cov), floor))
        else:
            vals, vecs = np.linalg.eigh(0.5 * (ref_cov + ref_cov.T))
            ref_cov = (vecs * np.maximum(vals, floor)) @ vecs.T
        assert np.allclose(mean, ref_mean, rtol=1e-12, atol=0.0)
        assert np.allclose(cov, ref_cov, rtol=1e-12, atol=1e-12 * np.abs(ref_cov).max())


def test_ftm_e_and_m_step_match_per_component_loop(segments_rows):
    rows = segments_rows
    settings = mx.MixtureSettings(n_init=1, max_cycles=5)
    base, _ = mx.gmm_fit(rows, 4, seed=11, settings=settings, covariance_type="diag")
    model = mx.ftm_from_gmm(base)
    for _ in range(2):
        es = _assert_e_step_matches(model, rows)
        model = _assert_m_step_matches(model, rows, es.resp)


def test_mixed_al_bl_components_match_per_component_loop():
    rng = np.random.default_rng(21)
    x = np.concatenate([rng.uniform(0, 4, 150), rng.uniform(6, 9, 100),
                        rng.normal(12, 0.5, 60)]).reshape(-1, 1)
    model = mx.MixtureModel(kind="flat", dim=1, weights=np.array([0.45, 0.35, 0.2]), components=[
        uv.make("AL", {"a": 0.3, "b": 3.6, "s": 0.2}),
        uv.make("BL", {"a": 6.2, "b": 8.7, "s": 0.15, "t": 0.3}),
        uv.make("AL", {"a": 11.5, "b": 12.5, "s": 0.4})])
    es = _assert_e_step_matches(model, x)
    _assert_m_step_matches(model, x, es.resp)


def test_zero_responsibility_component_is_bit_identical():
    rng = np.random.default_rng(22)
    rows = np.column_stack([rng.uniform(0, 4, 200), rng.uniform(0, 2, 200)])
    far = (uv.make("AL", {"a": 90.0, "b": 91.0, "s": 0.1}),
           uv.make("AL", {"a": 50.0, "b": 52.0, "s": 0.2}))
    near = (uv.make("AL", {"a": 0.2, "b": 3.8, "s": 0.1}),
            uv.make("AL", {"a": 0.1, "b": 1.9, "s": 0.1}))
    model = mx.MixtureModel(kind="flat", dim=2, weights=np.array([0.5, 0.5]),
                            components=[far, near], factorized=True)
    resp = np.zeros((200, 2))
    resp[:, 1] = 1.0
    new = _assert_m_step_matches(model, rows, resp)
    assert new.components[0] == far
    assert [s.params() for s in new.components[0]] == [s.params() for s in far]


@pytest.mark.parametrize("components, point", [
    ([uv.make("U", {"a": 0.0, "b": 1.0}), uv.make("U", {"a": 2.0, "b": 3.0})], 10.0),
])
def test_point_outside_every_component_is_flagged_without_warning(components, point):
    x = np.array([0.5, 2.5, point, 0.7])
    model = mx.MixtureModel(kind="flat", dim=1, weights=np.array([0.4, 0.6]),
                            components=components)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        es = mx.e_step(model, x)
    assert es.flagged.tolist() == [2]
    assert es.resp[2].tolist() == [0.5, 0.5]
    keep = [0, 1, 3]
    resp, loglik = _ref_e_step(model, x[keep].reshape(-1, 1))
    assert np.allclose(es.resp[keep], resp, rtol=1e-12)
    assert es.loglik == pytest.approx(loglik, rel=1e-12)


_FLAT_PAIR = mx.MixtureModel(kind="flat", dim=1, weights=np.array([0.4, 0.6]), components=[
    uv.make("AL", {"a": 0.0, "b": 1.0, "s": 0.1}),
    uv.make("BL", {"a": 2.0, "b": 3.0, "s": 0.1, "t": 0.2})])

_ENTRY_POINTS = {
    "gmm_fit": lambda x: mx.gmm_fit(x, 1, seed=1),
    "ftm_fit": lambda x: mx.ftm_fit(x, _FLAT_PAIR),
    "e_step": lambda x: mx.e_step(_FLAT_PAIR, x),
    "m_step": lambda x: mx.m_step(_FLAT_PAIR, x, np.full((x.size, 2), 0.5)),
    "score": lambda x: mx.score(_FLAT_PAIR, x),
    "sweep": lambda x: mx.sweep(x, "GMM", [1, 2], seed=1),
    "mle.fit": lambda x: mle.fit(x, uv.make("AL", {"a": 1.5, "b": 4.5, "s": 0.5})),
}


_GAUSS_2D = mx.MixtureModel(kind="gaussian", dim=2, weights=np.array([1.0]),
                            components=[(np.zeros(2), np.eye(2))], cov_type="full")
_FLAT_2D = mx.MixtureModel(kind="flat", dim=2, weights=np.array([1.0]), factorized=True,
                           components=[(uv.make("AL", {"a": 0.5, "b": 2.5, "s": 0.1}),) * 2])


@pytest.mark.parametrize("call", [
    lambda x, rows: mx.e_step(_GAUSS_2D, x),
    lambda x, rows: mx.score(_GAUSS_2D, x),
    lambda x, rows: mx.e_step(_FLAT_PAIR, rows),
    lambda x, rows: mx.m_step(_FLAT_PAIR, rows, np.full((len(rows), 2), 0.5)),
    lambda x, rows: mx.ftm_fit(x, _FLAT_2D),
], ids=["e_step", "score", "e_step-flat", "m_step", "ftm_fit"])
def test_mixture_calls_reject_data_of_another_dimension(call):
    # e_step and score of a 2-d model on 1-d data, and e_step and m_step of
    # a 1-d model on 2-d data, used to score the wrong columns; ftm_fit of a
    # 2-d model on 1-d data raised IndexError.
    rows = np.random.default_rng(3).uniform(0.0, 3.0, (40, 2))
    with pytest.raises(ValueError, match=r"-d model needs \d-column data, got \d$"):
        call(rows[:, 0], rows)


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_fitting_entry_points_reject_non_finite_data(entry, bad):
    x = np.array([1.0, 2.0, bad, 4.0, 5.0, 6.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="data must be finite: 1 of 6 values"):
            _ENTRY_POINTS[entry](x)


@pytest.mark.parametrize("entry", [e for e in _ENTRY_POINTS if e != "mle.fit"])
@pytest.mark.parametrize("bad", [np.float64(5.0), np.zeros((3, 2, 2))], ids=["scalar", "3-d"])
def test_fitting_entry_points_reject_data_not_shaped_as_points(entry, bad):
    # A scalar used to raise IndexError, a 3-d array numpy's np.cov error.
    with pytest.raises(ValueError, match=r"\(N, dim\) array .* got shape " + re.escape(
            str(bad.shape))):
        _ENTRY_POINTS[entry](bad)


def _extreme_log_densities():
    """R x K x N log densities and R x K weights of three lanes: random
    points, ties at the maximum, a point no component scores, and gaps of
    more than 707 between components, whose terms the E-step sets to 0."""
    rng = np.random.default_rng(5)
    log_mat = rng.normal(-3.0, 4.0, (3, 4, 9))
    log_mat[:, :, 0] = [-2.0, -2.0, -7.0, -2.0]  # ties at the top in lanes 1 and 2
    log_mat[:, :, 1] = -math.inf
    log_mat[:, :, 2] = [-10.0, -800.0, -1e4, -760.0]  # exp underflows to 0
    log_mat[:, :, 3] = [-5.0, -745.5, -748.0, -742.0]  # exp would be subnormal
    log_mat[:, :, 4] = [-900.0, -900.0, -1900.0, -math.inf]  # far below 0
    log_mat[1, :, 5] = [-math.inf, -math.inf, -math.inf, 3.0]
    log_mat[2, :, 6] = [-math.inf, -5.0, -math.inf, -math.inf]
    weights = np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25], [0.5, 0.5, 0.0, 0.0]])
    return log_mat, weights


def test_e_core_on_extreme_log_densities_matches_scipy_logsumexp(monkeypatch):
    log_mat, weights = _extreme_log_densities()
    with np.errstate(divide="ignore", invalid="ignore"):
        ref_joint = log_mat + np.log(weights)[..., None]
        ref_tot = sp.logsumexp(ref_joint, axis=1)
    monkeypatch.setattr(mx, "_log_matrix", lambda model, rows: ref_joint.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_joint, resp, finite, loglik = mx._e_core(None, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        ref_resp = np.exp(ref_joint - ref_tot[:, None])
    assert np.array_equal(log_joint, ref_joint)
    assert finite.tolist() == np.isfinite(ref_tot).tolist()
    assert finite[:, 1].tolist() == [False] * 3
    assert resp[:, :, 1].tolist() == [[0.25] * 4] * 3
    assert np.all(np.abs(resp.sum(axis=1) - 1.0) <= 4 * np.finfo(float).eps)
    scored = finite[:, None]
    assert np.allclose(np.where(scored, resp, 0.0), np.where(scored, ref_resp, 0.0), rtol=1e-13,
                       atol=1e-300)
    for ll, tot, f in zip(loglik, ref_tot, finite):
        assert ll == pytest.approx(float(np.sum(tot[f])), rel=1e-13)
    assert resp[0, :, 2].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert resp[0, 3, 3] == 0.0  # exp(-735.6) would be subnormal
    assert not np.any((resp > 0.0) & (resp < np.finfo(float).tiny))


def _model_select_sweep(cycles: int, scenario: int = 31):
    """The model-select fits of segments ``scenario`` at fit seed 11 with
    ``cycles`` EM and GEM cycles each: the full-covariance GMM for K = 1..10,
    then the diagonal GMM and GEM for K = 1..8; yields each fit's report."""
    rows = gen_segments_2d(default_segments_scenario(scenario)).rows
    settings = mx.MixtureSettings(max_cycles=cycles, rel_tol=-math.inf)
    for k in range(1, 11):
        yield mx.gmm_fit(rows, k, 11, settings, covariance_type="full")[1]
    for k in range(1, 9):
        base, _ = mx.gmm_fit(rows, k, 11, settings, covariance_type="diag")
        yield mx.ftm_fit(rows, mx.ftm_from_gmm(base), settings)[1]


def test_no_subnormal_reaches_an_m_step(monkeypatch):
    """A subnormal operand puts numpy's vector kernels on a path 10-60x
    slower, so the E-step hands the M-steps only zeros and normal numbers.
    It takes the model-select sweep's 25 cycles: an unclamped exp gives
    the first subnormal responsibility in cycle 6."""
    counts = []

    def audited(step, arrays):
        def wrapped(*args):
            for a in arrays(*args):
                if isinstance(a, np.ndarray) and a.dtype.kind == "f":
                    v = np.abs(a)
                    counts.append(int(np.count_nonzero((v > 0.0) & (v < np.finfo(float).tiny))))
            return step(*args)
        return wrapped

    def gem_arrays(state, resp):
        cols = [v for c in state.groups.values() for v in (c.x, c.p, c.const, c.edges, *c.box)]
        return [state.weights, resp, *cols]

    al = mle._KERNELS["AL"]
    monkeypatch.setattr(mx, "_gmm_m_step", audited(mx._gmm_m_step, lambda *args: args))
    monkeypatch.setattr(mx, "_gem_m_step", audited(mx._gem_m_step, gem_arrays))
    monkeypatch.setitem(mle._KERNELS, "AL", al._replace(derivs=audited(al.derivs,
                                                                      lambda *args: args)))
    for _ in _model_select_sweep(25):
        pass
    assert len(counts) > 100 and sum(counts) == 0


@pytest.mark.parametrize("scenario, bics, trace_digest", [
    (31, ["4417.401756570421", "4173.684757140573", "3619.456892122719", "3032.001975213124",
          "3042.9453523620737", "3060.3301446714263", "3064.6633452505266", "3090.5158814700726",
          "3105.63071131035", "3137.8694481593857",
          "3742.863020874176", "3674.1192314876084", "3530.727568271501", "2927.4165939272525",
          "2959.149493886635", "2993.1248701475106", "3028.068220287761", "3078.9711811621055"],
     "0f8e63ddc9b3924be7f0992b1172ab5d5379dc5a8ad3a01d88578a51c16d9f1f"),
    (7001, ["4399.114295445737", "3955.0506992912515", "3569.8648698178217", "2961.9595323087087",
            "2960.2318642900314", "2991.975056699498", "2983.8062011441452", "3016.0208386962313",
            "3052.3620660882216", "3065.9753990505897",
            "3733.832950972428", "3547.352311249828", "3439.8170733886172", "2883.0997819769173",
            "2908.0213828204783", "2947.2437311944577", "2970.1512682176894", "3012.9303893371243"],
     "7b8afb3c6ac03cf78acefdf8cfec4e79c02b1724a2d5adf038ceead9d38fce5c"),
], ids=["31", "7001"])
def test_model_select_bics_and_traces_are_pinned(scenario, bics, trace_digest):
    """The 18 model-select fits at 25 cycles: every BIC to its last digit,
    and the loglik traces by sha256 of their little-endian doubles."""
    digest = hashlib.sha256()
    got = []
    for report in _model_select_sweep(25, scenario):
        got.append(repr(report.bic))
        digest.update(np.asarray(report.loglik_trace, dtype="<f8").tobytes())
    assert got == bics
    assert digest.hexdigest() == trace_digest
