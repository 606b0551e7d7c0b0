import math
import warnings

import numpy as np
import pytest
from scipy import special as sp

from flattop import mixture as mx, mle, univariate as uv
from flattop.data_io import gen_segments_2d, default_segments_scenario


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
                            mle.FitSettings(max_iters=2000, grad_tol=1e-10))
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
            raise mx._EmptyComponent(np.array([1]))
        return real_m_step(rows, resp, cov_type, floor)

    monkeypatch.setattr(mx, "_gmm_m_step", empty_every_other_call)
    with pytest.raises(mx.ComponentCollapseError, match="collapsed twice"):
        mx.gmm_fit(np.linspace(0.0, 1.0, 20), 2, seed=0)
    rows = mx.sweep(np.linspace(0.0, 1.0, 20), "GMM", [2], seed=0)
    assert "collapsed twice" in rows[0].error


def test_gmm_reseeds_every_empty_component_at_once():
    rows = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
    resp = np.zeros((20, 3))
    resp[:, 0] = 1.0
    with pytest.raises(mx._EmptyComponent) as info:
        mx._gmm_m_step(rows, resp, "full", 1e-10)
    assert info.value.indices.tolist() == [1, 2]


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


def _ref_partial(name, x, w, spec):
    """(partial, curvature) of one coordinate, from the scalar derivatives."""
    if spec.family == "AL":
        grad = dict(zip("abs", mle.grad_al(x, spec.a, spec.b, spec.s, w)))
        hess = mle.hess_al(x, spec.a, spec.b, spec.s, w)
        return grad[name], {"a": hess.daa, "b": hess.dbb, "s": hess.dss}[name]
    a, b, s, t = spec.a, spec.b, spec.s, spec.t
    g = mle.grad_bl_flat(x, a, b, s, t, w)
    n = float(w.sum())
    if name in "as":
        f = sp.expit((x - a) / s)
        v = f * (1.0 - f)
        if name == "a":
            return g.da, n / (b - a) ** 2 - float(np.dot(w, v)) / s ** 2
        return g.ds, -2.0 * g.ds / s - float(np.dot(w, (x - a) ** 2 * v)) / s ** 4
    f = sp.expit((x - b) / t)
    v = f * (1.0 - f)
    if name == "b":
        return g.db, n / (b - a) ** 2 - float(np.dot(w, v)) / t ** 2
    return g.dt, -2.0 * g.dt / t - float(np.dot(w, (x - b) ** 2 * v)) / t ** 4


def _ref_pass(x, w, spec, settings):
    """One monotone coordinate pass on one component and axis."""
    names = tuple(spec.params())
    lo, hi = float(x.min()), float(x.max())
    eps = 1e-9 * (hi - lo)
    s_min = (hi - lo) / (4.0 * x.size)
    s_max = max(float(np.std(x)), 2.0 * s_min)

    def loglik(sp_):
        if sp_.family == "AL":
            return mle.loglik_al(x, sp_.a, sp_.b, sp_.s, w)
        return mle.loglik_bl(x, sp_.a, sp_.b, sp_.s, sp_.t, w)

    ll = loglik(spec)
    for name in names:
        g, curv = _ref_partial(name, x, w, spec)
        scale = spec.b - spec.a if name in "ab" else getattr(spec, name)
        step = (0.1 * scale / max(abs(g), 1e-300) if abs(curv) < 1e-12
                else settings.eta0 / abs(curv)) * g
        low, high = {"a": (lo + eps, spec.b - eps), "b": (spec.a + eps, hi - eps)}.get(
            name, (s_min, s_max))
        for _ in range(settings.max_backtracks):
            value = min(max(getattr(spec, name) + step, low), high)
            if value == getattr(spec, name):
                break
            cand = uv.make(spec.family, {**spec.params(), name: value})
            ll_new = loglik(cand)
            if ll_new >= ll:
                spec, ll = cand, ll_new
                break
            step *= settings.backtrack_factor
    return spec


def _ref_m_step(model, rows, resp, settings):
    comps = []
    for k, comp in enumerate(model.components):
        w = resp[:, k]
        if w.sum() < 1e-12:
            comps.append(comp)
        elif model.dim == 1:
            comps.append(_ref_pass(rows[:, 0], w, comp, settings.component_pass))
        else:
            comps.append(tuple(_ref_pass(rows[:, axis], w, spec, settings.component_pass)
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
    settings = mx.MixtureSettings()
    new = mx.m_step(model, rows, resp, settings)
    ref = _ref_m_step(model, rows, resp, settings)
    got = _params_of(new)
    want = _params_of(mx.MixtureModel(kind="flat", dim=model.dim, weights=new.weights,
                                      components=ref, factorized=model.factorized))
    for g, r in zip(got, want):
        assert g == pytest.approx(r, rel=1e-12)
    assert np.allclose(new.weights, resp.mean(axis=0), rtol=1e-12)
    return new


@pytest.fixture(scope="module")
def segments_rows():
    return gen_segments_2d(default_segments_scenario()).rows


@pytest.mark.parametrize("cov_type", ["full", "diag"])
def test_gaussian_e_and_m_step_match_per_component_loop(segments_rows, cov_type):
    rows = segments_rows
    settings = mx.MixtureSettings(n_init=1, max_cycles=5)
    model, _ = mx.gmm_fit(rows, 4, seed=11, settings=settings, covariance_type=cov_type)
    es = _assert_e_step_matches(model, rows)
    floor = settings.cov_floor * float(np.max(np.var(rows, axis=0)))
    weights, comps = mx._gmm_m_step(rows, es.resp, cov_type, floor)
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
    ([uv.make("AL", {"a": 0.0, "b": 1.0, "s": 0.1}),
      uv.make("BL", {"a": 2.0, "b": 3.0, "s": 0.1, "t": 0.2})], math.inf),
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
