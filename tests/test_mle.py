import math

import numpy as np
import pytest

from flattop import mle, univariate as uv
from flattop.data_io import Dataset, gen_mixed_1d
from flattop.multivariate import make_mv, mv_sample, normalize_sigma


def _fd(f, args, i, h):
    up = list(args)
    dn = list(args)
    up[i] += h
    dn[i] -= h
    return (f(*up) - f(*dn)) / (2.0 * h)


def _random_al_instance(rng, n=50):
    a, b = sorted(rng.uniform(-5.0, 5.0, 2))
    b = max(b, a + 0.5)
    s = rng.uniform(0.05, 2.0)
    x = rng.uniform(a - 1.0, b + 1.0, n)
    w = rng.uniform(0.2, 2.0, n)
    return x, w, a, b, s


# ---------------------------------------------------------------------------
# AL derivatives against finite differences
# ---------------------------------------------------------------------------

def test_grad_al_matches_fd_on_50_instances():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        x, w, a, b, s = _random_al_instance(rng)
        f = lambda aa, bb, ss: mle.loglik_al(x, aa, bb, ss, w)
        grads = mle.grad_al(x, a, b, s, w)
        for i, g in enumerate(grads):
            h = 1e-6 * max(abs((a, b, s)[i]), 1.0)
            fd = _fd(f, (a, b, s), i, h)
            worst = max(worst, abs(g - fd) / max(abs(fd), 1e-8))
    assert worst < 1e-6


def test_hess_al_matches_fd_of_gradient():
    rng = np.random.default_rng(43)
    worst = 0.0
    pairs = [("daa", 0, 0), ("dbb", 1, 1), ("dss", 2, 2),
             ("dab", 0, 1), ("das", 0, 2), ("dbs", 1, 2)]
    for _ in range(50):
        x, w, a, b, s = _random_al_instance(rng)
        hess = mle.hess_al(x, a, b, s, w)
        for name, i, j in pairs:
            h = 1e-6 * max(abs((a, b, s)[j]), 1.0)
            fd = _fd(lambda aa, bb, ss: mle.grad_al(x, aa, bb, ss, w)[i],
                     (a, b, s), j, h)
            val = getattr(hess, name)
            worst = max(worst, abs(val - fd) / max(abs(fd), 1e-6))
    assert worst < 1e-5


def test_grad_al_symmetry():
    xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    da, db, ds = mle.grad_al(xs, -3.0, 3.0, 0.7)
    assert da == pytest.approx(-db, rel=1e-12)


def test_loglik_al_weighted_scaling():
    x = np.array([0.2, 0.5, 0.9])
    base = mle.loglik_al(x, 0.0, 1.0, 0.1)
    doubled = mle.loglik_al(x, 0.0, 1.0, 0.1, weights=np.full(3, 2.0))
    assert doubled == pytest.approx(2.0 * base, rel=1e-13)


def test_loglik_al_agrees_with_logpdf_sum():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 2.0, 100)
    spec = uv.make("AL", {"a": -0.5, "b": 1.5, "s": 0.2})
    direct = float(np.sum(uv.log_pdf(spec, x)))
    assert mle.loglik_al(x, -0.5, 1.5, 0.2) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# BL
# ---------------------------------------------------------------------------

def test_bl_flat_gradients_match_exact_fd_within_two_percent():
    rng = np.random.default_rng(44)
    for _ in range(10):
        a = 0.0
        b = rng.uniform(6.0, 12.0)
        s = rng.uniform(0.05, 0.15)
        t = rng.uniform(0.05, 0.15)
        x = rng.uniform(a, b, 200)
        g = mle.grad_bl_flat(x, a, b, s, t)
        assert g.flat_regime
        f = lambda aa, bb, ss, tt: mle.loglik_bl(x, aa, bb, ss, tt)
        for i, val in enumerate((g.da, g.db, g.ds, g.dt)):
            h = 1e-5 * max(abs((a, b, s, t)[i]), 0.05)
            fd = _fd(f, (a, b, s, t), i, h)
            assert abs(val - fd) <= 0.02 * max(abs(fd), 1e-6), (i, val, fd)


def test_bl_gradient_flags_nonflat_regime():
    x = np.linspace(0.0, 1.0, 50)
    g = mle.grad_bl_flat(x, 0.0, 1.0, 0.8, 0.9)
    assert not g.flat_regime


def test_bl_gradient_pushes_boundary_toward_outlying_mass():
    # All points far above b: the upper boundary should move up.
    x = np.full(40, 25.0)
    g = mle.grad_bl_flat(x, 0.0, 10.0, 0.5, 0.5)
    assert g.db > 0.0


def test_bl_fit_builds_no_spec_per_coordinate_step(monkeypatch):
    ds = gen_mixed_1d(seed=20260808)
    al, _ = mle.fit(ds, mle.init_al_from_normal_fit(ds))
    init = uv.make("BL", {"a": al.a, "b": al.b, "s": al.s, "t": al.s})
    real_make = uv.make
    families = []

    def counting_make(family, params):
        families.append(family)
        return real_make(family, params)

    monkeypatch.setattr(uv, "make", counting_make)
    _, report = mle.fit(ds, init, mle.FitSettings(max_iters=10))
    assert report.iterations == 10
    assert families == ["BL"]  # the returned spec only


@pytest.mark.parametrize("family, p", [
    ("AL", [[0.5, 2.0, 0.5], [3.5, 6.0, 7.5], [0.3, 0.6, 0.2]]),
    ("BL", [[0.5, 2.0, 0.5], [3.5, 6.0, 7.5], [0.3, 0.6, 0.2], [0.4, 0.3, 0.2]]),
])
def test_coordinate_pass_returns_the_edges_at_its_parameters(family, p):
    # Three problems: weighted data, a zero-weight problem (no coordinate can
    # move, so it accepts no step) and data on a narrow range.
    rng = np.random.default_rng(31)
    x = np.stack([rng.uniform(0.0, 4.0, 60), rng.uniform(0.0, 8.0, 60),
                  0.5 + 1e-3 * rng.uniform(-1.0, 1.0, 60)])
    w = np.stack([rng.uniform(0.2, 2.0, 60), np.zeros(60), np.ones(60)])
    n = w.sum(axis=1)
    p = np.array(p)
    bounds = np.stack([mle._bounds_from_data(row) for row in x], axis=1)
    kernel = mle._KERNELS[family]
    terms = kernel.terms(x, p)
    ll = mle._loglik(family, x, w, n, p, terms)
    for _ in range(3):
        start = p
        p, ll, terms, moved = mle._coordinate_pass(family, x, w, n, p, ll, terms, bounds)
        fresh = kernel.terms(x, p)
        assert all(np.array_equal(t, f) for t, f in zip(terms, fresh))
        assert np.array_equal(ll, mle._loglik(family, x, w, n, p))
        assert moved[0] and not moved[1]
        assert np.array_equal(p[:, 1], start[:, 1])


def test_bl_symmetric_instance_balances_scales():
    x = np.concatenate([np.linspace(0.5, 4.5, 30), 5.0 + np.linspace(0.5, 4.5, 30)])
    g = mle.grad_bl_flat(x, 0.0, 10.0, 0.3, 0.3)
    mirrored = mle.grad_bl_flat(10.0 - x, 0.0, 10.0, 0.3, 0.3)
    assert g.ds == pytest.approx(mirrored.dt, rel=1e-10)


def test_bl_equals_al_at_equal_scales():
    x = np.random.default_rng(3).uniform(-1.0, 2.0, 60)
    ll_bl = mle.loglik_bl(x, 0.0, 1.0, 0.2, 0.2)
    ll_al = mle.loglik_al(x, 0.0, 1.0, 0.2)
    assert ll_bl == pytest.approx(ll_al, rel=1e-10)


# ---------------------------------------------------------------------------
# CL gradient blocks
# ---------------------------------------------------------------------------

def test_cl_gradients_match_fd_on_random_instances():
    rng = np.random.default_rng(45)
    worst = 0.0
    for _ in range(50):
        n = rng.integers(20, 60)
        rows = rng.normal(size=(n, 2)) * rng.uniform(0.5, 2.0, 2)
        m = rng.normal(size=2) * 0.3
        raw = rng.normal(size=(2, 2)) * 0.3
        lam = np.eye(2) + raw @ raw.T
        big_r = rng.uniform(0.5, 3.0)
        t = rng.uniform(0.5, 4.0)
        gm, glam, g_r, g_t = mle._grad_cl_raw(rows, m, lam, big_r, t)
        f = lambda mm, ll, rr, tt: mle._loglik_cl_raw(rows, mm, ll, rr, tt)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1e-6
            fd = (f(m + e, lam, big_r, t) - f(m - e, lam, big_r, t)) / 2e-6
            worst = max(worst, abs(gm[i] - fd) / max(abs(fd), 1e-6))
        sym = rng.normal(size=(2, 2))
        sym = 0.5 * (sym + sym.T)
        h = 1e-5
        fd = (f(m, lam + h * sym, big_r, t) - f(m, lam - h * sym, big_r, t)) / (2 * h)
        an = float(np.tensordot(glam, sym))
        worst = max(worst, abs(an - fd) / max(abs(fd), 1e-6))
        fd = (f(m, lam, big_r + 1e-6, t) - f(m, lam, big_r - 1e-6, t)) / 2e-6
        worst = max(worst, abs(g_r - fd) / max(abs(fd), 1e-6))
        fd = (f(m, lam, big_r, t + 1e-6) - f(m, lam, big_r, t - 1e-6)) / 2e-6
        worst = max(worst, abs(g_t - fd) / max(abs(fd), 1e-6))
        # Each block's curvature along its unit gradient, against a central
        # difference of that block's gradient in the fit's (log R, log t) scale.
        theta = (m, lam, math.log(big_r), math.log(t))
        for block in range(4):
            grad, curv = mle._cl_block(rows, theta, block)
            unit = grad / np.linalg.norm(grad)

            def slope(h, block=block, unit=unit):
                moved = list(theta)
                moved[block] = theta[block] + h * unit
                return float(np.sum(mle._cl_block(rows, moved, block)[0] * unit))

            fd = (slope(1e-5) - slope(-1e-5)) / 2e-5
            worst = max(worst, abs(curv - fd) / max(abs(fd), 1e-6))
    assert worst < 1e-6


def test_cl_gradient_zero_at_data_center():
    spec = make_mv("CL", [1.0, 2.0], r=1.0, t=3.0)
    rows = np.array([[1.0, 2.0]])
    gm = mle.grad_cl(rows, spec)[0]
    assert np.allclose(gm, 0.0)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def test_fit_uniform_data_recovers_boundaries():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 100.0, 10_000)
    spec, report = mle.fit(x, mle.init_al_from_data(x))
    assert -1.0 <= spec.a <= 1.0
    assert 99.0 <= spec.b <= 101.0
    assert spec.s < 1.0
    trace = np.array(report.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-9)


def test_fit_recovers_al_parameters_across_seeds():
    truth = uv.make("AL", {"a": 0.0, "b": 10.0, "s": 0.5})
    estimates = []
    for seed in range(6):
        ds = uv.sample(truth, 10_000, seed=seed)
        spec, _ = mle.fit(ds, mle.init_al_from_data(ds))
        estimates.append([spec.a, spec.b, spec.s])
    est = np.array(estimates)
    se = est.std(axis=0, ddof=1) / math.sqrt(est.shape[0])
    for j, target in enumerate([0.0, 10.0, 0.5]):
        assert abs(est[:, j].mean() - target) <= 3.0 * se[j], (j, est[:, j])


def test_fit_respects_bounds_at_every_call():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 5.0, 400)
    spec, _ = mle.fit(x, mle.init_al_from_data(x))
    assert x.min() < spec.a < spec.b < x.max()
    assert spec.s >= (x.max() - x.min()) / (4.0 * x.size)


def test_fit_translation_scale_equivariance():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 1.0, 500)
    spec1, _ = mle.fit(x, mle.init_al_from_data(x))
    c, d = 3.5, -2.0
    spec2, _ = mle.fit(c * x + d, mle.init_al_from_data(c * x + d))
    assert spec2.a == pytest.approx(c * spec1.a + d, abs=1e-6 * c)
    assert spec2.b == pytest.approx(c * spec1.b + d, abs=1e-6 * c)
    assert spec2.s == pytest.approx(c * spec1.s, abs=1e-6 * c)


def test_fit_rejects_bad_init_and_degenerate_data():
    x = np.linspace(0.0, 1.0, 50)
    outside = uv.make("AL", {"a": -5.0, "b": 0.5, "s": 0.1})
    with pytest.raises(ValueError, match="init"):
        mle.fit(x, outside)
    with pytest.raises(ValueError, match="degenerate"):
        mle.fit(np.zeros(10), uv.make("AL", {"a": -1, "b": 1, "s": 0.1}))
    with pytest.raises(ValueError, match="AL and BL"):
        mle.fit(x, uv.make("U", {"a": 0, "b": 1}))


def test_mixed_sample_pipeline_monotone_and_beats_normal():
    ds = gen_mixed_1d(seed=20260808)
    assert len(ds) == 55
    baseline = mle.normal_mle_loglik(ds)
    spec_al, rep_al = mle.fit(ds, mle.init_al_from_normal_fit(ds))
    trace = np.array(rep_al.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert trace[-1] > baseline
    # Asymmetric refit from the symmetric optimum cannot lose likelihood.
    init_bl = uv.make("BL", {"a": spec_al.a, "b": spec_al.b,
                             "s": spec_al.s, "t": spec_al.s})
    _, rep_bl = mle.fit(ds, init_bl)
    assert rep_bl.loglik_trace[-1] >= trace[-1] - 1e-9


def test_fit_report_information_criteria():
    rng = np.random.default_rng(10)
    x = rng.uniform(0.0, 1.0, 200)
    _, report = mle.fit(x, mle.init_al_from_data(x))
    ll = report.loglik_trace[-1]
    assert report.free_params == 3
    assert report.aic == pytest.approx(6.0 - 2.0 * ll)
    assert report.bic == pytest.approx(3.0 * math.log(200) - 2.0 * ll)


def test_cl_fit_recovers_location_and_counts():
    truth = make_mv("CL", [1.0, -2.0], r=2.0, t=8.0, sigma=[[1.0, 0.3], [0.3, 0.8]])
    ds = mv_sample(truth, 3000, seed=9)
    spec, report = mle.fit(ds, mle.init_cl_from_data(ds))
    assert np.all(np.abs(spec.m - truth.m) < 0.1)
    assert report.free_params == 6               # (n+1)(n+2)/2 at n = 2
    assert report.free_params_unconstrained == 7
    trace = np.array(report.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert trace[-1] >= mle.loglik_cl(ds, truth)


@pytest.mark.parametrize("m, t, seeds", [([0.0, 0.0], 20.0, range(1, 21)),
                                         ([0.0], 10.0, range(1, 11))])
def test_cl_fit_reaches_the_truth_on_every_seed(m, t, seeds):
    # A Newton step in R = r^n can overshoot to R near 0, where the gradient
    # in R vanishes and a fit stays, ~140 nats below the truth with
    # r <= 0.0015.  r is compared at |Sigma| = 1, since (Sigma, r, t) is
    # determined only up to scale.
    truth = make_mv("CL", m, 1.0, t)
    settings = mle.FitSettings()
    for seed in seeds:
        ds = mv_sample(truth, 1000, seed)
        spec, report = mle.fit(ds, mle.init_cl_from_data(ds), settings)
        assert report.loglik_trace[-1] >= mle.loglik_cl(ds, truth), seed
        assert normalize_sigma(spec).r == pytest.approx(1.0, abs=0.1), seed
        assert report.iterations < settings.max_iters, seed


def test_fit_accepts_dataset_weights():
    x = np.concatenate([np.linspace(0.1, 0.9, 30), np.linspace(2.0, 2.2, 5)])
    w = np.concatenate([np.full(30, 1.0), np.full(5, 1e-6)])
    ds = Dataset(rows=x.reshape(-1, 1), weights=w)
    spec, _ = mle.fit(ds, mle.init_al_from_data(x))
    # Negligible-weight tail mass barely moves the upper boundary.
    assert spec.b < 1.6
