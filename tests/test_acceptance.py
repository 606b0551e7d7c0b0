"""Acceptance suite: one test per release criterion.

Each test enforces the pinned tolerance and runtime budget and prints one
PASS line on success (run with ``pytest -s`` to see them).  Budgets are
generous on purpose; the assertions on accuracy are the contract.
"""

import math
import time

import numpy as np
import pytest

from flattop import (
    data_io,
    divergence as dv,
    mixture as mx,
    mle,
    multivariate as mv,
    univariate as uv,
)
from flattop.quadrature import QuadratureSettings, integrate

ORACLE_SETTINGS = QuadratureSettings(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=4000)


def _report(name: str, detail: str = "") -> None:
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def _elapsed_ok(t0: float, budget: float, label: str) -> None:
    took = time.monotonic() - t0
    assert took < budget, f"{label} exceeded its {budget}s budget ({took:.1f}s)"


# ---------------------------------------------------------------------------
# 1. Closed-form constants
# ---------------------------------------------------------------------------

def test_criterion_1_constants():
    t0 = time.monotonic()
    al_pi = uv.make("AL", {"a": -math.pi, "b": math.pi, "s": 1.0})
    assert abs(uv.kurtosis(al_pi) - 3.0) < 1e-9
    al_low = uv.make("AL", {"a": -1e-3, "b": 1e-3, "s": 1.0})
    assert abs(uv.kurtosis(al_low) - 4.2) < 1e-4
    al_high = uv.make("AL", {"a": -1e3, "b": 1e3, "s": 1.0})
    assert abs(uv.kurtosis(al_high) - 1.8) < 1e-3
    gn = uv.make("GN", {"mu": 0.0, "s": 1.0, "beta": 1e3})
    assert abs(uv.kurtosis(gn) - 9.0 / 5.0) < 1e-3
    cc = uv.make("CC", {"m": 0.0, "s": 1.0, "beta": 6.0})
    assert abs(uv.kurtosis(cc) - 4.0) < 1e-9

    kl, l1 = dv.uniform_vs_bestfit_normal_1d()
    assert abs(kl - 0.5 * math.log(math.pi * math.e / 6.0)) < 1e-9
    assert round(kl, 3) == 0.176
    assert round(l1, 3) == 0.395

    kl2, l12, chi2 = dv.ball_vs_bestfit_normal(2)
    assert abs(kl2 - (1.0 - math.log(2.0))) < 1e-9
    assert abs(l12 - (1.0 - math.log(2.0) + 2.0 * math.exp(-2.0))) < 1e-9
    assert abs(chi2 ** 2 - math.log(math.sqrt(2.0))) < 1e-9
    assert round(kl2, 3) == 0.307
    assert round(l12, 3) == 0.578

    _elapsed_ok(t0, 1.0, "criterion 1")
    _report("criterion 1", "closed-form constants at 1e-9")


# ---------------------------------------------------------------------------
# 2. Approximation bounds on a dense grid
# ---------------------------------------------------------------------------

def test_criterion_2_approximation_bounds():
    t0 = time.monotonic()
    xs = -6.0 + 1e-3 * np.arange(12001)
    surrogate = uv.approx_al_from_normal(0.0, 1.0)
    assert surrogate.a == pytest.approx(-0.97741, abs=5e-6)
    assert surrogate.s == pytest.approx(0.47712, abs=5e-6)
    normal_pdf = np.exp(-0.5 * xs ** 2) / math.sqrt(2.0 * math.pi)
    gap_pdf = float(np.max(np.abs(normal_pdf - uv.pdf(surrogate, xs))))
    assert gap_pdf < 0.0043

    from scipy.special import erf as sp_erf, expit

    normal_cdf = 0.5 * (1.0 + sp_erf(xs / math.sqrt(2.0)))
    logistic_cdf = expit(xs / uv.AN_TO_AL_SCALE)
    gap_cdf = float(np.max(np.abs(normal_cdf - logistic_cdf)))
    assert gap_cdf < 0.01

    _elapsed_ok(t0, 1.0, "criterion 2")
    _report("criterion 2", f"pdf gap {gap_pdf:.5f} < 0.0043, cdf gap {gap_cdf:.5f} < 0.01")


# ---------------------------------------------------------------------------
# 3. Oracle equivalence across >= 20 configurations per family
# ---------------------------------------------------------------------------

def _acceptance_configs(rng) -> dict[str, list[dict]]:
    def widths():
        return rng.uniform(0.8, 8.0)

    out: dict[str, list[dict]] = {f: [] for f in uv.FAMILIES}
    for _ in range(20):
        a = rng.uniform(-3.0, 1.0)
        out["U"].append({"a": a, "b": a + widths()})
        out["GN"].append({"mu": rng.uniform(-1, 1), "s": rng.uniform(0.3, 2.0),
                          "beta": rng.uniform(0.7, 6.0)})
        out["AN"].append({"a": a, "b": a + widths(), "s": rng.uniform(0.1, 1.2)})
        out["AL"].append({"a": a, "b": a + widths(), "s": rng.uniform(0.05, 1.2)})
        out["ALS"].append({"a": a, "b": a + widths(), "s": rng.uniform(0.1, 0.8),
                           "lam": rng.uniform(-0.8, 0.8)})
        out["BL"].append({"a": a, "b": a + widths(), "s": rng.uniform(0.08, 0.6),
                          "t": rng.uniform(0.08, 0.6)})
        out["BD"].append({"a": a, "b": a + widths(), "s": rng.uniform(0.2, 1.0),
                          "t": rng.uniform(0.2, 1.0)})
        out["CC"].append({"m": rng.uniform(-1, 1), "s": rng.uniform(0.4, 2.0),
                          "beta": rng.uniform(1.4, 7.0)})
        out["CF"].append({"m": rng.uniform(-1, 1), "r": rng.uniform(0.4, 2.5),
                          "s": rng.uniform(0.2, 1.2), "beta": rng.uniform(1.0, 3.5)})
        out["CE"].append({"a": a, "b": a + widths(), "s": rng.uniform(0.4, 2.0)})
        out["CH"].append({"m": rng.uniform(-1, 1), "r": rng.uniform(0.4, 2.5),
                          "s": rng.uniform(0.2, 1.2), "beta": rng.uniform(1.0, 3.5)})
        out["DE"].append({"m": rng.uniform(-1, 1), "s": rng.uniform(0.2, 2.0)})
    return out


CLOSED_MOMENTS = {"U", "GN", "AL", "AN", "CC", "CF", "CE", "CH"}
CLOSED_CDF = {"U", "GN", "AN", "AL", "CC", "DE"}


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(33)
    configs = _acceptance_configs(rng)
    worst = 0.0
    for family, param_list in configs.items():
        assert len(param_list) >= 20
        for params in param_list:
            spec = uv.make(family, params)
            lo, hi = uv.support(spec)
            center = spec.mu if family == "GN" else spec.m
            hints = tuple(v for v in (spec.a, center, spec.b) if v is not None)

            # Normalizer: the cached constant must integrate to one.
            total = integrate(lambda x: uv.pdf(spec, x), lo, hi, ORACLE_SETTINGS,
                              points=hints).value
            worst = max(worst, abs(total - 1.0))
            assert abs(total - 1.0) < 1e-6, (family, params)

            if family in CLOSED_MOMENTS:
                def order_integrable(k: int) -> bool:
                    # Power-law tails need a convergence margin for the
                    # oracle integral to be resolvable at all.
                    if family == "CC":
                        return spec.beta - k >= 2.0
                    return True

                oracles = {}
                for k in (2, 4):
                    rep = uv.central_moment(spec, k)
                    if rep.flag is not None or not order_integrable(k):
                        continue
                    oracle = integrate(uv.moment_integrand(spec, center, k),
                                       lo, hi, ORACLE_SETTINGS, points=hints).value
                    oracles[k] = oracle
                    rel = abs(rep.value - oracle) / max(abs(oracle), 1e-300)
                    worst = max(worst, rel)
                    assert rel < 1e-6, (family, params, k)
                if set(oracles) == {2, 4}:
                    k_closed = uv.kurtosis(spec)
                    if math.isfinite(k_closed):
                        ref = oracles[4] / oracles[2] ** 2
                        rel = abs(k_closed - ref) / ref
                        worst = max(worst, rel)
                        assert rel < 1e-6, (family, params, "kurtosis")

            if family in CLOSED_CDF:
                scale = uv._scale(spec)
                for x in (center - 1.5 * scale, center + 0.7 * scale):
                    got = float(uv.cdf(spec, x))
                    oracle = integrate(lambda y: uv.pdf(spec, y), lo, x,
                                       ORACLE_SETTINGS,
                                       points=tuple(h for h in hints if h < x)).value
                    rel = abs(got - oracle) / max(oracle, 1e-12)
                    worst = max(worst, rel)
                    assert rel < 1e-6, (family, params, "cdf", x)

    _elapsed_ok(t0, 30.0, "criterion 3")
    _report("criterion 3", f"worst oracle deviation {worst:.2e} < 1e-6")


# ---------------------------------------------------------------------------
# 4. Gradient suite
# ---------------------------------------------------------------------------

def test_criterion_4_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(44)
    worst_first = worst_second = worst_cl = 0.0

    def fd(f, args, i, h):
        up, dn = list(args), list(args)
        up[i] += h
        dn[i] -= h
        return (f(*up) - f(*dn)) / (2.0 * h)

    for _ in range(50):
        a, b = sorted(rng.uniform(-5.0, 5.0, 2))
        b = max(b, a + 0.5)
        s = rng.uniform(0.05, 2.0)
        x = rng.uniform(a - 1.0, b + 1.0, 50)
        w = rng.uniform(0.2, 2.0, 50)
        grads = mle.grad_al(x, a, b, s, w)
        f = lambda aa, bb, ss: mle.loglik_al(x, aa, bb, ss, w)
        for i, g in enumerate(grads):
            h = 1e-6 * max(abs((a, b, s)[i]), 1.0)
            ref = fd(f, (a, b, s), i, h)
            worst_first = max(worst_first, abs(g - ref) / max(abs(ref), 1e-8))
        hess = mle.hess_al(x, a, b, s, w)
        for name, i, j in (("daa", 0, 0), ("dbb", 1, 1), ("dss", 2, 2),
                           ("dab", 0, 1), ("das", 0, 2), ("dbs", 1, 2)):
            h = 1e-6 * max(abs((a, b, s)[j]), 1.0)
            ref = fd(lambda aa, bb, ss: mle.grad_al(x, aa, bb, ss, w)[i],
                     (a, b, s), j, h)
            val = getattr(hess, name)
            worst_second = max(worst_second, abs(val - ref) / max(abs(ref), 1e-6))

        rows = rng.normal(size=(40, 2)) * rng.uniform(0.5, 2.0, 2)
        m = rng.normal(size=2) * 0.3
        raw = rng.normal(size=(2, 2)) * 0.3
        lam = np.eye(2) + raw @ raw.T
        big_r = rng.uniform(0.5, 3.0)
        tt = rng.uniform(0.5, 4.0)
        gm, glam, g_r, g_t = mle._grad_cl_raw(rows, m, lam, big_r, tt)
        fcl = lambda mm, ll, rr, t4: mle._loglik_cl_raw(rows, mm, ll, rr, t4)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1e-6
            ref = (fcl(m + e, lam, big_r, tt) - fcl(m - e, lam, big_r, tt)) / 2e-6
            worst_cl = max(worst_cl, abs(gm[i] - ref) / max(abs(ref), 1e-6))
        sym = rng.normal(size=(2, 2))
        sym = 0.5 * (sym + sym.T)
        ref = (fcl(m, lam + 1e-5 * sym, big_r, tt)
               - fcl(m, lam - 1e-5 * sym, big_r, tt)) / 2e-5
        an = float(np.tensordot(glam, sym))
        worst_cl = max(worst_cl, abs(an - ref) / max(abs(ref), 1e-6))
        ref = (fcl(m, lam, big_r + 1e-6, tt) - fcl(m, lam, big_r - 1e-6, tt)) / 2e-6
        worst_cl = max(worst_cl, abs(g_r - ref) / max(abs(ref), 1e-6))
        ref = (fcl(m, lam, big_r, tt + 1e-6) - fcl(m, lam, big_r, tt - 1e-6)) / 2e-6
        worst_cl = max(worst_cl, abs(g_t - ref) / max(abs(ref), 1e-6))

    assert worst_first < 1e-6
    assert worst_second < 1e-6
    assert worst_cl < 1e-6

    worst_bl = 0.0
    for _ in range(10):
        bb = rng.uniform(6.0, 12.0)
        s = rng.uniform(0.05, 0.15)
        tt = rng.uniform(0.05, 0.15)
        x = rng.uniform(0.0, bb, 200)
        g = mle.grad_bl_flat(x, 0.0, bb, s, tt)
        assert g.flat_regime
        fbl = lambda aa, b2, ss, t2: mle.loglik_bl(x, aa, b2, ss, t2)
        for i, val in enumerate((g.da, g.db, g.ds, g.dt)):
            h = 1e-5 * max(abs((0.0, bb, s, tt)[i]), 0.05)
            ref = fd(fbl, (0.0, bb, s, tt), i, h)
            worst_bl = max(worst_bl, abs(val - ref) / max(abs(ref), 1e-6))
    assert worst_bl < 0.02

    _elapsed_ok(t0, 10.0, "criterion 4")
    _report("criterion 4",
            f"first {worst_first:.1e}, second {worst_second:.1e}, "
            f"CL {worst_cl:.1e} < 1e-6; BL approx {worst_bl:.1%} < 2%")


# ---------------------------------------------------------------------------
# 5. Normalization: quadrature and Monte Carlo
# ---------------------------------------------------------------------------

UNIT_CONFIGS = {
    "U": {"a": -1.0, "b": 2.0},
    "GN": {"mu": 0.0, "s": 1.0, "beta": 3.0},
    "AN": {"a": 0.0, "b": 4.0, "s": 0.5},
    "AL": {"a": -1.0, "b": 1.0, "s": 0.2},
    "ALS": {"a": -1.0, "b": 2.0, "s": 0.4, "lam": 0.5},
    "BL": {"a": 0.0, "b": 6.0, "s": 0.3, "t": 0.5},
    "BD": {"a": 0.0, "b": 5.0, "s": 0.6, "t": 0.9},
    "CC": {"m": 0.0, "s": 1.0, "beta": 2.5},
    "CF": {"m": 0.0, "r": 1.5, "s": 0.5, "beta": 2.0},
    "CE": {"a": -1.0, "b": 3.0, "s": 1.0},
    "CH": {"m": 0.0, "r": 1.5, "s": 0.5, "beta": 2.0},
    "DE": {"m": 0.0, "s": 1.0},
}


def test_criterion_5_normalization():
    t0 = time.monotonic()
    for family, params in UNIT_CONFIGS.items():
        spec = uv.make(family, params)
        lo, hi = uv.support(spec)
        hints = tuple(v for v in (spec.a, spec.m, spec.b) if v is not None) \
            or (uv.mode(spec),)
        total = integrate(lambda x: uv.pdf(spec, x), lo, hi, ORACLE_SETTINGS,
                          points=hints).value
        assert abs(total - 1.0) < 1e-8, (family, total)

    worst_z = 0.0
    for family in ("CM", "CL"):
        for n in (2, 3):
            spec = mv.make_mv(family, np.zeros(n), r=1.2, t=6.0,
                              sigma=np.eye(n) + 0.1 * np.ones((n, n)))
            rng = np.random.default_rng(500 + n)
            draws = 1_000_000
            sd = math.sqrt(max(spec.r ** 2, 1.0 / spec.t) * 1.5)
            z = rng.standard_normal((draws, n)) * sd
            x = z @ spec.chol.T + spec.m
            log_h = (-0.5 * np.sum((z / sd) ** 2, axis=1) - n * math.log(sd)
                     - 0.5 * n * math.log(2.0 * math.pi) - 0.5 * spec.log_det)
            w = np.exp(mv.mv_log_pdf(spec, x) - log_h)
            est = float(np.mean(w))
            se = float(np.std(w, ddof=1) / math.sqrt(draws))
            assert abs(est - 1.0) <= 3.0 * se, (family, n, est, se)
            assert se < 0.01
            worst_z = max(worst_z, abs(est - 1.0) / se)

    _elapsed_ok(t0, 60.0, "criterion 5")
    _report("criterion 5", f"12 families at 1e-8; MC worst z-score {worst_z:.2f} < 3")


# ---------------------------------------------------------------------------
# 6. Generalized EM behavior
# ---------------------------------------------------------------------------

def test_criterion_6_gem_behavior():
    t0 = time.monotonic()
    rng = np.random.default_rng(66)
    settings = mx.MixtureSettings(n_init=1, max_cycles=40)
    for run in range(100):
        n1 = int(rng.integers(50, 90))
        n2 = int(rng.integers(40, 80))
        x = np.concatenate([
            rng.uniform(0.0, rng.uniform(2.0, 5.0), n1),
            rng.normal(rng.uniform(6.0, 9.0), rng.uniform(0.4, 1.2), n2),
        ])
        upgrade = bool(run % 3 == 0)
        run_settings = mx.MixtureSettings(n_init=1, max_cycles=40,
                                          bl_upgrade=upgrade)
        base, _ = mx.gmm_fit(x, 2, seed=run, settings=settings)
        _, report = mx.ftm_fit(x, mx.ftm_from_gmm(base), run_settings)
        trace = np.array(report.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-9), run

    ds = uv.sample(uv.make("AL", {"a": 0.0, "b": 5.0, "s": 0.3}), 2000, seed=6)
    base, _ = mx.gmm_fit(ds.x, 1, seed=7)
    tight = mx.MixtureSettings(max_cycles=2000, rel_tol=1e-12, stall_cycles=5)
    _, gem_report = mx.ftm_fit(ds.x, mx.ftm_from_gmm(base), tight)
    _, mle_report = mle.fit(ds, mle.init_al_from_normal_fit(ds),
                            mle.FitSettings(max_iters=2000))
    gap = abs(gem_report.loglik_trace[-1] - mle_report.loglik_trace[-1])
    assert gap < 1e-8

    _elapsed_ok(t0, 60.0, "criterion 6")
    _report("criterion 6", f"100 monotone GEM runs; K=1 vs MLE gap {gap:.1e} < 1e-8")


# ---------------------------------------------------------------------------
# 7. Experiment reproduction (ordinal, regenerated data)
# ---------------------------------------------------------------------------

def test_criterion_7_experiments():
    t0 = time.monotonic()
    ds = data_io.gen_segments_2d(data_io.default_segments_scenario())
    assert len(ds) == 427
    gmm_rows = mx.sweep(ds, "GMM", range(1, 11), seed=11)
    ftm_rows = mx.sweep(ds, "FTM", range(1, 9), seed=11)
    assert all(r.error is None for r in gmm_rows + ftm_rows)

    ftm4 = next(r for r in ftm_rows if r.k == 4)
    gmm4 = next(r for r in gmm_rows if r.k == 4)
    assert ftm4.aic < gmm4.aic
    assert ftm4.bic < gmm4.bic
    argmin_bic_ftm = min(ftm_rows, key=lambda r: r.bic).k
    assert argmin_bic_ftm == 4
    argmin_aic_gmm = min(gmm_rows, key=lambda r: r.aic).k
    assert argmin_aic_gmm > 4

    mixed = data_io.gen_mixed_1d(seed=20260808)
    assert len(mixed) == 55
    baseline = mle.normal_mle_loglik(mixed)
    spec_al, rep_al = mle.fit(mixed, mle.init_al_from_normal_fit(mixed))
    ll_al = rep_al.loglik_trace[-1]
    assert np.all(np.diff(rep_al.loglik_trace) >= -1e-9)
    assert ll_al > baseline
    init_bl = uv.make("BL", {"a": spec_al.a, "b": spec_al.b,
                             "s": spec_al.s, "t": spec_al.s})
    _, rep_bl = mle.fit(mixed, init_bl)
    assert rep_bl.loglik_trace[-1] >= ll_al - 1e-9

    _elapsed_ok(t0, 120.0, "criterion 7")
    _report(
        "criterion 7",
        f"FTM4 (AIC {ftm4.aic:.0f}, BIC {ftm4.bic:.0f}) beats "
        f"GMM4 (AIC {gmm4.aic:.0f}, BIC {gmm4.bic:.0f}); "
        f"argmin-BIC FTM {argmin_bic_ftm} = 4; argmin-AIC GMM {argmin_aic_gmm} > 4; "
        f"AL {ll_al:.2f} > normal {baseline:.2f}")


# ---------------------------------------------------------------------------
# 8. Sampling against the analytic CDF
# ---------------------------------------------------------------------------

def test_criterion_8_sampling_ks():
    t0 = time.monotonic()
    cases = [
        ("AL", {"a": 0.0, "b": 10.0, "s": 0.5}),
        ("CF", {"m": 0.0, "r": 2.0, "s": 0.4, "beta": 1.0}),
        ("CH", {"m": 0.0, "r": 2.0, "s": 0.4, "beta": 1.0}),
        ("U", {"a": -1.0, "b": 3.0}),
        ("GN", {"mu": 0.0, "s": 1.0, "beta": 2.0}),
    ]
    n = 100_000
    crit = 1.36 / math.sqrt(n)
    worst = 0.0
    for i, (family, params) in enumerate(cases):
        spec = uv.make(family, params)
        xs = np.sort(uv.sample(spec, n, seed=81 + i).x)
        f = uv.cdf(spec, xs)
        ks = max(float(np.max(np.arange(1, n + 1) / n - f)),
                 float(np.max(f - np.arange(0, n) / n)))
        worst = max(worst, ks)
        assert ks < crit, (family, ks, crit)
    _elapsed_ok(t0, 30.0, "criterion 8")
    _report("criterion 8", f"worst KS {worst:.4f} < {crit:.4f} (5% level)")


# ---------------------------------------------------------------------------
# 9. Quantile round trips on the fine grid
# ---------------------------------------------------------------------------

def test_criterion_9_quantile_round_trip():
    t0 = time.monotonic()
    vs = np.arange(1, 1000) / 1000.0
    worst_closed = worst_numeric = 0.0
    for family, params in UNIT_CONFIGS.items():
        spec = uv.make(family, params)
        q = uv.quantile(spec, vs)
        err = float(np.max(np.abs(uv.cdf(spec, q) - vs)))
        if family in ("U", "AL"):
            worst_closed = max(worst_closed, err)
            assert err < 1e-10, (family, err)
        else:
            worst_numeric = max(worst_numeric, err)
            assert err < 1e-8, (family, err)
    _elapsed_ok(t0, 60.0, "criterion 9")
    _report("criterion 9",
            f"closed-form worst {worst_closed:.1e} < 1e-10, "
            f"numeric worst {worst_numeric:.1e} < 1e-8")
