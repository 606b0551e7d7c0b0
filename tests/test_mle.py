import math

import numpy as np
import pytest

from flattop import mle, univariate as uv
from flattop.data_io import Dataset, default_segments_scenario, gen_mixed_1d, gen_segments_2d
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


@pytest.mark.parametrize("width", [0.3, 0.05, 1e-4, 1e-7, 1e-10])
def test_al_derivatives_stay_exact_as_b_minus_a_vanishes(width):
    # The constant's terms 1/g - coth g, 1/g^2 - csch^2 g and coth g -
    # g csch^2 g (g = (b - a)/2s) cancel in direct form: at b - a = 1e-7 the
    # a-b block of the Hessian came out 6e4 times too large.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    x = np.random.default_rng(1).logistic(0.0, 0.5, 100)
    a, b, s = -width / 2.0, width / 2.0, 0.5

    def loglik(aa, bb, ss):
        d = bb - aa
        z = [((mp.mpf(v) - aa) / (2 * ss), (mp.mpf(v) - bb) / (2 * ss)) for v in x]
        return x.size * (mp.log(mp.sinh(d / (2 * ss))) - mp.log(2 * d)) - sum(
            mp.log(mp.cosh(za)) + mp.log(mp.cosh(zb)) for za, zb in z)

    theta = [mp.mpf(a), mp.mpf(b), mp.mpf(s)]
    grad = mle.grad_al(x, a, b, s)
    hess = mle.hess_al(x, a, b, s)
    for i in range(3):
        want = mp.diff(loglik, theta, tuple(int(k == i) for k in range(3)))
        assert grad[i] == pytest.approx(float(want), rel=1e-9, abs=1e-9)
    for name, i, j in [("daa", 0, 0), ("dbb", 1, 1), ("dss", 2, 2),
                       ("dab", 0, 1), ("das", 0, 2), ("dbs", 1, 2)]:
        order = tuple(int(k == i) + int(k == j) for k in range(3))
        want = float(mp.diff(loglik, theta, order))
        assert getattr(hess, name) == pytest.approx(want, rel=1e-9, abs=1e-9 * abs(hess.dss))


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


# Corners and the middle of the BL box of the property tests (flat-topped:
# b - a above both scales), and two bell-shaped shapes, b - a below them.
_BL_SHAPES = [(-3.0, -2.2, 0.6, 0.08), (1.0, 9.0, 0.08, 0.6), (-1.0, 3.0, 0.3, 0.3),
              (0.0, 0.5, 1.0, 1.5), (-0.2, 0.2, 0.7, 0.4)]


def _bl_problem(a, b, s, t):
    """Weighted data that the BL density at (a, b, s, t) does not fit, in the
    kernel layout, so that no partial is near 0."""
    rng = np.random.default_rng(23)
    x = rng.uniform(a - 2.0, b + 1.0, 300) + rng.logistic(0.0, 0.3, 300)
    w = rng.uniform(0.5, 1.5, 300)
    return x, w, np.array([a, b, s, t], dtype=float)


def _bl_kernel_derivs(x, w, p):
    return (d[0] for d in mle._KERNELS["BL"].derivs(x[None], w[None], w[None].sum(axis=1),
                                                    p[:, None]))


def _central(f, p):
    """Central differences of ``f`` along each coordinate of ``p``, one row
    each."""
    rows = []
    for i, h in enumerate(1e-5 * np.maximum(np.abs(p), 0.1)):
        up, down = p.copy(), p.copy()
        up[i] += h
        down[i] -= h
        rows.append((np.asarray(f(up)) - np.asarray(f(down))) / (2.0 * h))
    return np.array(rows)


@pytest.mark.parametrize("a, b, s, t", _BL_SHAPES)
def test_bl_kernel_gradient_matches_differences_of_the_loglik(a, b, s, t):
    x, w, p = _bl_problem(a, b, s, t)
    grad, _ = _bl_kernel_derivs(x, w, p)
    fd = _central(lambda q: mle.loglik_bl(x, *q, w), p)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("a, b, s, t", _BL_SHAPES)
def test_bl_kernel_hessian_matches_differences_of_its_gradient(a, b, s, t):
    x, w, p = _bl_problem(a, b, s, t)
    _, hess = _bl_kernel_derivs(x, w, p)
    fd = _central(lambda q: next(iter(_bl_kernel_derivs(x, w, q))), p)
    assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("a, b, s", [(0.0, 1.0, 0.3), (0.0, 5.0, 1.0), (-1.0, 2.0, 4.0),
                                     (0.0, 0.01, 1.0)])
def test_bl_normalizer_and_its_gradient_match_the_closed_form_at_s_equal_t(a, b, s):
    # At s = t, Z = d / (1 - e^(-d/s)) with d = b - a, so d ln Z/db = -d ln Z/da
    # = 1/d - 1/(s (e^(d/s) - 1)) and (d/ds + d/dt) ln Z = d / (s^2 (e^(d/s) - 1)).
    # With no data and n = 1 the kernel's gradient is E[grad e] = -grad ln Z.
    d = b - a
    assert uv._bl_mass(a, b, s, s)[0] == pytest.approx(d / -math.expm1(-d / s), rel=1e-12)
    x = np.array([[0.5 * (a + b)]])
    p = np.array([[a], [b], [s], [s]])
    grad, _ = mle._KERNELS["BL"].derivs(x, np.zeros_like(x), np.ones(1), p)
    d_b = 1.0 / d - 1.0 / (s * math.expm1(d / s))
    assert grad[0, 0] == pytest.approx(d_b, rel=1e-12)
    assert grad[0, 1] == pytest.approx(-d_b, rel=1e-12)
    assert grad[0, 2] + grad[0, 3] == pytest.approx(-d / (s * s * math.expm1(d / s)), rel=1e-12)


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
    _, report = mle.fit(ds, init, mle.FitSettings(max_iters=2))
    assert report.iterations == 2
    assert families == ["BL"]  # the returned spec only


@pytest.mark.parametrize("family, p", [
    ("AL", [[0.5, 2.0, 0.5], [3.5, 6.0, 7.5], [0.3, 0.6, 0.2]]),
    ("BL", [[0.5, 2.0, 0.5], [3.5, 6.0, 7.5], [0.3, 0.6, 0.2], [0.4, 0.3, 0.2]]),
])
def test_newton_pass_returns_the_terms_at_its_parameters(family, p):
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
    box = kernel.box(p, bounds)
    for _ in range(3):
        start = p.copy()
        moved, held = mle._newton_pass(family, x, w, n, p, ll, terms, kernel.derivs(x, w, n, p),
                                       box)
        fresh = kernel.terms(x, p)
        assert all(np.array_equal(t, f) for t, f in zip(terms, fresh))
        assert np.array_equal(ll, mle._loglik(family, x, w, n, p))
        assert moved[0] and not moved[1]
        assert held[1] and not held[0]  # zero weight: no gain to predict
        assert np.array_equal(p[:, 1], start[:, 1])


def test_newton_pass_holds_a_coordinate_at_its_bound():
    # s sits at (problem 0) or beyond (problem 1, as a start may put it) its
    # upper bound, with the gradient pointing out: it stays, and (a, b) take
    # the modified Newton step of their own 2 x 2 block, halved until the
    # log-likelihood does not fall.
    x = np.tile(np.random.default_rng(5).uniform(0.0, 4.0, 200), (2, 1))
    w = np.ones_like(x)
    n = w.sum(axis=1)
    p = np.array([[0.5, 0.5], [3.5, 3.5], [0.3, 0.25]])
    bounds = np.stack([mle._bounds_from_data(row) for row in x], axis=1)
    bounds[3] = [0.3, 0.2]
    kernel = mle._KERNELS["AL"]
    new, terms = p.copy(), kernel.terms(x, p)
    ll = mle._loglik("AL", x, w, n, p, terms)
    moved, _ = mle._newton_pass("AL", x, w, n, new, ll, terms, kernel.derivs(x, w, n, p),
                                kernel.box(p, bounds))
    assert moved.all() and np.array_equal(new[2], p[2])
    for j in range(2):
        grad = mle.grad_al(x[j], *p[:, j])
        assert grad[2] > 0.0
        h = mle.hess_al(x[j], *p[:, j])
        vals, vecs = np.linalg.eigh([[h.daa, h.dab], [h.dab, h.dbb]])
        step = vecs @ ((vecs.T @ grad[:2]) / np.abs(vals))
        ratio = (new[:2, j] - p[:2, j]) / step
        assert ratio[0] == pytest.approx(ratio[1], rel=1e-9)
        assert math.log2(ratio[0]) == pytest.approx(round(math.log2(ratio[0])), abs=1e-9)
        assert ll[j] >= mle.loglik_al(x[j], *p[:, j])


def _logistic_problem(*p):
    x = np.random.default_rng(3).logistic(0.0, 0.5, 400)[None]
    w = np.ones_like(x)
    p = np.array(p, dtype=float)[:, None]
    terms = mle._KERNELS["AL"].terms(x, p)
    return x, w, w.sum(axis=1), p, mle._loglik("AL", x, w, w.sum(axis=1), p, terms), terms


@pytest.mark.parametrize("family", ["AL", "BL"])
def test_fit_builds_the_box_rows_once(monkeypatch, family):
    kernel = mle._KERNELS[family]
    calls = []

    def counting_box(p, bounds):
        calls.append(p.shape[1])
        return kernel.box(p, bounds)

    monkeypatch.setitem(mle._KERNELS, family, kernel._replace(box=counting_box))
    x = gen_mixed_1d(3).x
    init = mle.init_al_from_normal_fit(x)
    if family == "BL":
        init = uv.make("BL", {"a": init.a, "b": init.b, "s": init.s, "t": init.s})
    _, report = mle.fit(x, init)
    assert report.iterations > 2 and calls == [1]


def test_a_pass_whose_full_steps_all_climb_evaluates_the_terms_once(monkeypatch):
    # Three AL problems on smooth-edged flat data, each started from its
    # optimum with s 1 % off, where the full Newton step is an ascent step:
    # one trial evaluates every problem.
    rng = np.random.default_rng(17)
    x = (rng.uniform([[0.0], [-2.0], [1.0]], [[4.0], [6.0], [2.0]], (3, 300))
         + rng.normal(0.0, 0.2, (3, 300)))
    w = np.ones_like(x)
    n = w.sum(axis=1)
    best = [mle.fit(row, mle.init_al_from_normal_fit(row))[0] for row in x]
    p = np.array([[spec.a, spec.b, spec.s] for spec in best]).T
    p[2] *= 1.01
    kernel = mle._KERNELS["AL"]
    terms = kernel.terms(x, p)
    ll = mle._loglik("AL", x, w, n, p, terms)
    derivs = kernel.derivs(x, w, n, p)
    box = kernel.box(p, np.stack([mle._bounds_from_data(row) for row in x], axis=1))
    tried = []

    def recording_const(q):
        tried.append(q.copy())
        return kernel.const(q)

    monkeypatch.setitem(mle._KERNELS, "AL", kernel._replace(const=recording_const))
    start = p.copy()
    moved, held = mle._newton_pass("AL", x, w, n, p, ll, terms, derivs, box)
    assert moved.all() and not held.any()
    assert len(tried) == 1 and np.array_equal(tried[0], p) and not np.array_equal(p, start)


def test_al_step_keeps_half_of_s():
    # From s = 1.5 on draws of scale 0.5 the Newton step in s is about -2.2.
    x, w, n, p, ll, terms = _logistic_problem(-0.2, 0.2, 1.5)
    bounds = mle._bounds_from_data(x[0])[:, None]
    new, ll_new = p.copy(), ll.copy()
    moved, _ = mle._newton_pass("AL", x, w, n, new, ll_new, terms, mle._al_derivs(x, w, n, p),
                                mle._al_bl_box(p, bounds))
    assert moved[0] and ll_new[0] > ll[0]
    assert new[2, 0] == 0.75


def test_al_step_keeps_half_of_the_width():
    # Narrowing b - a raises the log-likelihood on logistic draws, so a step
    # that takes 95 % of it is an ascent step; it is halved, without a trial,
    # until the candidate keeps half of b - a above the gap.
    x, w, n, p, ll, terms = _logistic_problem(-0.2, 0.2, 0.5)
    step = np.array([[0.19], [-0.19], [0.0]])
    assert mle.loglik_al(x[0], *(p + step)[:, 0]) > ll[0]
    _, gap = mle._edge_gap(x.min(), x.max())
    new, ll_new, terms = p.copy(), ll.copy(), list(terms)
    mle._backtrack("AL", x, w, n, new, ll_new, terms, step, np.full((3, 1), -np.inf),
                   np.full((3, 1), np.inf), 0.5 * (0.4 + gap))
    assert ll_new[0] > ll[0]
    assert new[1, 0] - new[0, 0] == pytest.approx(0.4 - 0.19, rel=1e-12)  # one halving


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

def _cl_kernel_fd_error(rows, p):
    """The largest relative error of the CL kernel's gradient against central
    differences of the log-likelihood, and of its Hessian against central
    differences of that gradient, in the coordinates (m, L, log a)."""
    y, w = rows[None], np.ones((1, len(rows)))
    n = w.sum(axis=1)
    grad, hess = (d[0] for d in mle._cl_derivs(y, w, n, p))
    worst = 0.0
    for k in range(len(p)):
        e = np.zeros_like(p)
        e[k] = 1e-6
        fd = (mle._loglik("CL", y, w, n, p + e) - mle._loglik("CL", y, w, n, p - e))[0] / 2e-6
        worst = max(worst, abs(grad[k] - fd) / max(abs(fd), 1e-6))
        e[k] = 1e-5
        fd = (mle._cl_derivs(y, w, n, p + e)[0] - mle._cl_derivs(y, w, n, p - e)[0])[0] / 2e-5
        worst = max(worst, float(np.max(np.abs(hess[k] - fd) / np.maximum(np.abs(fd), 1e-6))))
    return worst


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
        worst = max(worst, _cl_kernel_fd_error(rows, mle._cl_coords(m, lam, big_r, t)))
    rows = rng.normal(size=(40, 1)) * 1.5  # one 1-d instance
    worst = max(worst, _cl_kernel_fd_error(rows, mle._cl_coords(np.array([0.2]), np.eye(1), 2.0,
                                                                1.5)))
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


@pytest.mark.parametrize("bad", [0, -1, 2.5, "3"])
def test_fit_settings_reject_a_budget_that_is_not_a_positive_integer(bad):
    with pytest.raises(ValueError, match="max_iters"):
        mle.FitSettings(max_iters=bad)


def test_fit_settings_have_no_gradient_tolerance():
    with pytest.raises(TypeError):
        mle.FitSettings(grad_tol=1e-10)


def test_cl_fit_of_gaussian_data_converges():
    # The CL optimum of normal data lies at R -> 0, where the R entry of
    # the gradient, g_logR / R, grows as R shrinks: a gradient tolerance in
    # natural coordinates stopped this fit after 34 passes, unconverged.
    rows = np.random.default_rng(5).standard_normal((300, 2))
    _, report = mle.fit(rows, mle.init_cl_from_data(rows))
    assert report.converged and report.iterations < 50
    assert np.all(np.diff(report.loglik_trace) >= 0.0)


def test_cl_fit_rejects_rank_deficient_data():
    # Collinear points, or points with a constant column, have no CL optimum:
    # a fit runs Lambda off to infinity along the missing direction (here to
    # log-likelihoods of +3497.7 and +4538.6 when it was let through).
    x = np.random.default_rng(8).uniform(0.0, 1.0, 200)
    for rows in (np.column_stack([x, 2.0 * x + 1.0]), np.column_stack([x, np.full_like(x, 3.0)])):
        with pytest.raises(ValueError, match="degenerate data"):
            mle.fit(rows, mle.init_cl_from_data(rows))


def test_cl_fit_is_scale_invariant():
    # The same points at unit scale and at 1e10 + 1e8 z: the fit runs on the
    # data whitened by its start, so both reach the same verdict, and their
    # log-likelihoods differ by the Jacobian N n ln 1e8.  Unwhitened, the
    # scaled fit ran 328 passes and ended unconverged.
    z = np.random.default_rng(5).standard_normal((300, 2))
    reports = [mle.fit(rows, mle.init_cl_from_data(rows))[1] for rows in (z, 1e10 + 1e8 * z)]
    assert [r.converged for r in reports] == [True, True]
    assert reports[0].iterations == reports[1].iterations
    assert reports[0].grad_norm == pytest.approx(reports[1].grad_norm, rel=1e-6, abs=1e-12)
    shift = reports[0].loglik_trace[-1] - reports[1].loglik_trace[-1]
    assert shift == pytest.approx(300 * 2 * math.log(1e8), rel=1e-9)


def test_cl_fit_of_the_segments_set_passes_the_coordinate_climb():
    # A coordinate climb stopped here at -1967.1995 (and, run to max_iters,
    # reached -1966.3492).  The supremum may lie at a -> infinity, the
    # uniform-ellipse limit, so the fit need not converge, but then it says so.
    ds = gen_segments_2d(default_segments_scenario(20260808))
    _, report = mle.fit(ds, mle.init_cl_from_data(ds))
    assert report.loglik_trace[-1] >= -1966.3492
    assert report.converged or report.iterations == mle.FitSettings().max_iters
    assert np.all(np.diff(report.loglik_trace) >= 0.0)


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


@pytest.mark.parametrize("m, t, seeds", [([0.0, 0.0], 20.0, range(1, 41)),
                                         ([0.0], 10.0, range(1, 41))])
def test_cl_fit_reaches_the_truth_on_every_seed(m, t, seeds):
    # A Newton step in R = r^n can overshoot to R near 0, where the gradient
    # in R vanishes and a fit stays, ~140 nats below the truth with
    # r <= 0.0015.  r is compared at |Sigma| = 1, since (Sigma, r, t) is
    # determined only up to scale.  Stopped by a gradient tolerance, 16 of
    # these 80 fits ended at the rounding floor with ``converged`` false.
    truth = make_mv("CL", m, 1.0, t)
    for seed in seeds:
        ds = mv_sample(truth, 1000, seed)
        spec, report = mle.fit(ds, mle.init_cl_from_data(ds))
        assert report.loglik_trace[-1] >= mle.loglik_cl(ds, truth), seed
        assert normalize_sigma(spec).r == pytest.approx(1.0, abs=0.1), seed
        assert report.converged, seed


@pytest.mark.parametrize("seed, params, best", [
    (31, {"a": 0.6126872436594417, "b": 1.8999707326632, "s": 0.8236404362154188},
     -9257.485195826548),
    (9201, {"a": -2.534219963042062, "b": -1.0091872049121637, "s": 0.5601293373283213},
     -7531.712321785759),
])
def test_fit_of_bell_shaped_al_draws_reaches_the_optimum_in_few_passes(seed, params, best):
    # g/s = (b - a)/2s is 0.78 and 1.36: a, b and s are strongly coupled, and a
    # coordinate-wise climb took 486 and 272 passes to ``best``.  A block step
    # that let b - a collapse would stop at the logistic limit, over 0.8 nats
    # lower, where the gradient vanishes by symmetry.
    x = uv.sample(uv.make("AL", params), 5000, seed).x
    _, report = mle.fit(x, mle.init_al_from_data(x))
    assert report.loglik_trace[-1] >= best - 1e-9 * abs(best)
    assert report.iterations <= 20
    assert report.converged
    assert np.all(np.diff(report.loglik_trace) >= -1e-9)


@pytest.mark.parametrize("seed, params, init", [
    (18, {"a": -1.402776923129709, "b": 4.562608767745447, "s": 0.3729468272414039},
     mle.init_al_from_data),
    (26, {"a": -1.033604329580382, "b": 1.454072242844617, "s": 0.12774892192117504},
     mle.init_al_from_normal_fit),
])
def test_fit_converges_where_steps_fall_below_rounding(seed, params, init):
    # Near grad_norm 1e-8 on 5000 points the Newton step predicts a gain
    # below the rounding error of the log-likelihood, where a trial would
    # compare rounding errors.  Judged by a gradient tolerance and a strict
    # no-fall test, these fits stopped there with converged false; a step
    # taken within the rounding error let the trace fall by up to 7e-12.
    # The stop rule ends them there, converged, on a trace that never falls.
    x = uv.sample(uv.make("AL", params), 5000, seed).x
    _, report = mle.fit(x, init(x))
    assert report.converged and report.iterations <= 20
    assert np.all(np.diff(report.loglik_trace) >= 0.0)


def test_readme_quick_tour_fit_converges():
    d = uv.make("AL", {"a": 0.0, "b": 10.0, "s": 0.25})
    data = uv.sample(d, 5000, seed=1)
    _, report = mle.fit(data, mle.init_al_from_data(data))
    assert report.converged and report.grad_norm < 1e-8
    assert report.iterations <= 20


def test_fit_accepts_dataset_weights():
    x = np.concatenate([np.linspace(0.1, 0.9, 30), np.linspace(2.0, 2.2, 5)])
    w = np.concatenate([np.full(30, 1.0), np.full(5, 1e-6)])
    ds = Dataset(rows=x.reshape(-1, 1), weights=w)
    spec, _ = mle.fit(ds, mle.init_al_from_data(x))
    # Negligible-weight tail mass barely moves the upper boundary.
    assert spec.b < 1.6
