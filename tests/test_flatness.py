import math

import mpmath as mp
import numpy as np
import pytest

from flattop import flatness as fl, univariate as uv


def test_canonical_boundaries_rectangle_exact():
    u = uv.make("U", {"a": 0, "b": 1})
    a, b = fl.canonical_boundaries(u)
    assert (a, b) == (0.0, 1.0)


def test_canonical_boundaries_balance_height():
    for family, params in [("AL", {"a": -1, "b": 1, "s": 0.1}),
                           ("GN", {"mu": 0, "s": 1, "beta": 2}),
                           ("BL", {"a": 0, "b": 5, "s": 0.3, "t": 0.6})]:
        spec = uv.make(family, params)
        a, b = fl.canonical_boundaries(spec)
        xm = uv.mode(spec)
        assert uv.pdf(spec, xm) * (b - a) == pytest.approx(1.0, abs=1e-8)


def test_canonical_boundaries_al_narrow_scale():
    al = uv.make("AL", {"a": -1, "b": 1, "s": 0.1})
    a, b = fl.canonical_boundaries(al)
    assert abs(a + 1.0) < 0.07
    assert abs(b - 1.0) < 0.07


def test_fwhm_closed_form_for_gn():
    # The bisection meets the closed form mu -+ s (ln 2)^(1/beta).
    gn = uv.make("GN", {"mu": 0.5, "s": 1.2, "beta": 4})
    a, b = fl.fwhm_boundaries(gn)
    half = 1.2 * math.log(2.0) ** 0.25
    assert a == pytest.approx(0.5 - half, rel=1e-12)
    assert b == pytest.approx(0.5 + half, rel=1e-12)


def test_fwhm_uniform_is_its_edges():
    for a, b in ((0.0, 1.0), (-3.7, 12.25), (1e-3, 1e-3 + 1e-9)):
        u = uv.make("U", {"a": a, "b": b})
        assert fl.fwhm_boundaries(u) == (u.a, u.b)


def test_fwhm_numeric_matches_half_height():
    al = uv.make("AL", {"a": -1, "b": 1, "s": 0.2})
    a, b = fl.fwhm_boundaries(al)
    pm = uv.pdf(al, 0.0)
    assert uv.pdf(al, a) == pytest.approx(0.5 * pm, rel=1e-8)
    assert uv.pdf(al, b) == pytest.approx(0.5 * pm, rel=1e-8)


@pytest.mark.parametrize("family, params", [
    ("AL", {"a": 2.0, "b": 1e3, "s": 5.0}),
    ("BL", {"a": 0.0, "b": 2.0, "s": 0.1, "t": 0.8}),
    ("BL", {"a": -3.0, "b": 4.0, "s": 1.5, "t": 0.05}),
    ("ALS", {"a": -1.0, "b": 1.0, "s": 0.3, "lam": 0.6}),
    ("CH", {"m": 0.5, "r": 2.0, "s": 0.25, "beta": 3.0}),  # steep: 1e-10 needs the end to ulps
])
def test_fwhm_ends_are_at_half_maximum(family, params):
    spec = uv.make(family, params)
    half = 0.5 * uv.pdf(spec, uv.mode(spec))
    a, b = fl.fwhm_boundaries(spec)
    assert a < uv.mode(spec) < b
    assert uv.pdf(spec, a) == pytest.approx(half, rel=1e-10)
    assert uv.pdf(spec, b) == pytest.approx(half, rel=1e-10)


def test_fwhm_non_finite_density_raises_flatness_error(monkeypatch):
    al = uv.make("AL", {"a": -1, "b": 1, "s": 0.2})
    pdf, xm = uv.pdf, uv.mode(al)
    monkeypatch.setattr(fl.uv, "pdf", lambda spec, x: pdf(spec, x) if x == xm or abs(x) > 1.5
                        else math.nan)
    with pytest.raises(fl.FlatnessError, match="density is nan"):
        fl.fwhm_boundaries(al)


# ---------------------------------------------------------------------------
# Curvature measure
# ---------------------------------------------------------------------------

def test_gn_above_two_has_zero_measure_at_fwhm():
    gn = uv.make("GN", {"mu": 0, "s": 1, "beta": 4})
    a, b = fl.fwhm_boundaries(gn)
    assert fl.eps_flat_measure(gn, a, b) == 0.0


def test_normal_at_unit_boundaries_is_order_one():
    n01 = uv.make("GN", {"mu": 0, "s": math.sqrt(2.0), "beta": 2})
    measure = fl.eps_flat_measure(n01, -1.0, 1.0)
    # |p''(0)| (a-b)/(p'(a)-p'(b)) for the standard normal at (-1, 1).
    phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    expected = phi(0.0) * 2.0 / (2.0 * phi(1.0))
    assert measure == pytest.approx(expected, rel=1e-9)
    assert 0.5 < measure < 3.0


def test_al_exact_measure_below_family_bound():
    al = uv.make("AL", {"a": -1, "b": 1, "s": 0.1})
    measure = fl.eps_flat_measure(al, -1.0, 1.0)
    rho = 10.0
    exact = 4.0 * rho * math.cosh(rho) ** 2 / (math.sinh(rho) * (1.0 + math.cosh(rho)) ** 2)
    assert measure == pytest.approx(exact, rel=1e-9)
    assert measure <= fl.family_flat_bound(al)
    assert fl.family_flat_bound(al) == pytest.approx(40.0 / math.sinh(10.0), rel=1e-12)


def _mp_density(spec):
    """The 50-digit density of ``spec``, from its definition and its own
    normalizer c."""
    c, f, s = mp.mpf(spec.c), spec.family, mp.mpf(spec.s)
    if f == "GN":
        return lambda x: c * mp.exp(-abs((x - spec.mu) / s) ** spec.beta)
    if f == "AL":
        return lambda x: c * (mp.sigmoid((x - spec.a) / s) - mp.sigmoid((x - spec.b) / s))
    if f == "BL":
        return lambda x: c * mp.sigmoid((x - spec.a) / s) * mp.sigmoid((spec.b - x) / spec.t)
    if f == "AN":
        return lambda x: c * (mp.erf((x - spec.a) / (mp.sqrt(2) * s))
                              - mp.erf((x - spec.b) / (mp.sqrt(2) * s)))
    return lambda x: c / (1 + mp.exp(((x - spec.m) ** 2 - mp.mpf(spec.r) ** 2) / s ** 2))


_RULE_SPECS = [
    ("GN", {"mu": 0.3, "s": 0.8, "beta": 1.5}),
    ("GN", {"mu": 0.0, "s": 1.3, "beta": 2.0}),
    ("GN", {"mu": -0.5, "s": 0.7, "beta": 4.0}),
    ("AL", {"a": -1.0, "b": 2.0, "s": 0.3}),
    ("BL", {"a": -1.0, "b": 3.0, "s": 0.2, "t": 0.5}),
    ("AN", {"a": -2.0, "b": 2.0, "s": 0.4}),
    ("CE", {"a": -2.0, "b": 2.0, "s": 0.7}),
    ("CF", {"m": 0.0, "r": 2.0, "s": 0.5, "beta": 2.0}),
]


@pytest.mark.parametrize("family, params", _RULE_SPECS)
def test_log_density_rule_matches_mpmath(family, params):
    """p' = p l' and p'' = p (l'^2 + l'') against 50-digit derivatives of
    the density, at the mode, the canonical boundaries and ten random
    points: within 1e-12 relative, or within 1e-12 p/s^n, the size of the
    terms the rule adds, where the exact value is near 0 (at the mode, at
    an inflection point).  Below beta = 2, GN's p'' is -inf at the mode."""
    spec = uv.make(family, params)
    f, xm = _mp_density(spec), uv.mode(spec)
    a, b = fl.canonical_boundaries(spec)
    rng = np.random.default_rng(5)
    with mp.workdps(50):
        for x in [xm, a, b, *rng.uniform(a - 0.25 * (b - a), b + 0.25 * (b - a), 10)]:
            p = uv.pdf(spec, x)
            for n, got in enumerate(fl._pdf_derivs(spec, x), start=1):
                if family == "GN" and params["beta"] < 2.0 and x == xm and n == 2:
                    assert got == -math.inf
                    continue
                exact = float(mp.diff(f, x, n))
                assert abs(got - exact) <= 1e-12 * max(abs(exact), p / spec.s ** n), (x, n)


@pytest.mark.parametrize("family, params, at, exact", [
    ("AN", {"a": -2.0, "b": 2.0, "s": 0.4}, "edges", 1.8633265860393e-4),
    ("AN", {"a": 0.0, "b": 6.0, "s": 0.5}, "edges", 1.0965585416193e-6),
    ("CE", {"a": -1.0, "b": 5.0, "s": 0.4}, "edges", 1.4893452487002e-24),
    ("CF", {"m": 0.0, "r": 2.0, "s": 0.5, "beta": 2.0}, "edges", 4.5014059756373e-7),
    ("CE", {"a": -2.0, "b": 2.0, "s": 0.7}, "canonical", 1.1421988741869e-3),
])
def test_flat_top_measure_matches_mpmath(family, params, at, exact):
    # Central differences gave 0.0 for the second to fourth, 2.2768e-4
    # for the first and 1.1339e-3 for the last.
    spec = uv.make(family, params)
    if at == "edges":
        a, b = spec.m - spec.r, spec.m + spec.r
    else:
        a, b = fl.canonical_boundaries(spec)
    f, xm = _mp_density(spec), uv.mode(spec)
    with mp.workdps(50):
        ref = abs(mp.diff(f, xm, 2)) * abs((a - b) / (mp.diff(f, a) - mp.diff(f, b)))
    assert float(ref) == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert fl.eps_flat_measure(spec, a, b) == pytest.approx(float(ref), rel=1e-12, abs=0.0)



@pytest.mark.parametrize("params", [
    {"m": 0.2, "r": 1.0, "s": 0.5, "beta": 1.0},
    {"m": 0.2, "r": 1.0, "s": 0.5, "beta": 0.7},
    {"m": 0.2, "r": 1.0, "s": 0.5, "beta": 1.5},
    {"m": -1.0, "r": 2.0, "s": 0.5, "beta": 2.0},  # h = 16: a flat top
    {"m": 0.0, "r": 1.0, "s": 1.0, "beta": 3.0},
])
def test_ch_log_density_hook_matches_mpmath(params):
    """CH's (l', l'') against 50-digit derivatives of ln sinh h - ln(cosh w +
    cosh h), w = (|x - m|/s)^beta, on the top, the shoulders x = m -+ r and
    the tails, within 1e-12 relative; at x = m, the limits l' = 0 and
    l'' = -1/((1 + cosh h) s^2) at beta = 1, 0 above it, and below beta = 1,
    where l'' is not finite, the hook declines."""
    spec = uv.make("CH", params)
    m, r, s, beta = (mp.mpf(params[k]) for k in ("m", "r", "s", "beta"))
    h = (r / s) ** beta
    log_density = lambda x: mp.log(mp.sinh(h)) - mp.log(mp.cosh((abs(x - m) / s) ** beta)
                                                        + mp.cosh(h))
    hook = fl._DLOG["CH"]
    with mp.workdps(50):
        for x in [spec.m + f * spec.r for f in (0.3, -0.6, 1.0, -1.0, 1.3, 2.0, -3.0)]:
            for n, got in enumerate(hook(spec, x), start=1):
                exact = float(mp.diff(log_density, mp.mpf(x), n))
                assert abs(got - exact) <= 1e-12 * abs(exact), (x, n, got, exact)
        at_mode = hook(spec, spec.m)
        if beta < 1:
            assert at_mode is None
        else:
            limit = -1 / ((1 + mp.cosh(h)) * s * s) if beta == 1 else 0
            assert at_mode == (0.0, pytest.approx(float(limit), rel=1e-14, abs=0.0))


def test_ch_measure_at_beta_one_is_the_al_measure():
    """AL is CH at beta = 1: both hooks give its measure to rounding (central
    differences were 2.8e-6 off here)."""
    ch = uv.make("CH", {"m": 0.0, "r": 1.0, "s": 0.5, "beta": 1.0})
    al = uv.make("AL", {"a": -1.0, "b": 1.0, "s": 0.5})
    assert fl.eps_flat_measure(ch) == pytest.approx(fl.eps_flat_measure(al), rel=1e-14, abs=0.0)

def test_measure_smoothed_rectangle_vs_normal():
    smooth_u = uv.make("AL", {"a": 0, "b": 1, "s": 1e-5})
    assert fl.eps_flat_measure(smooth_u, 0.0, 1.0) < 1e-3
    n01 = uv.make("GN", {"mu": 0, "s": math.sqrt(2.0), "beta": 2})
    a, b = fl.fwhm_boundaries(n01)
    assert fl.eps_flat_measure(n01, a, b) > 0.5


@pytest.mark.parametrize("family, params", [
    ("AL", {"a": -1, "b": 2, "s": 0.5}),
    ("GN", {"mu": 0, "s": 1, "beta": 3}),
    ("BL", {"a": -1, "b": 2, "s": 0.3, "t": 0.5}),
    ("CH", {"m": 0, "r": 1, "s": 0.5, "beta": 2}),
])
def test_measure_defaults_to_the_canonical_boundaries(family, params):
    spec = uv.make(family, params)
    a, b = fl.canonical_boundaries(spec)
    want = fl.eps_flat_measure(spec, a, b)
    assert fl.eps_flat_measure(spec) == want
    assert fl.eps_flat_measure(spec, a=a) == want
    assert fl.eps_flat_measure(spec, b=b) == want


def test_measure_requires_straddling_boundaries():
    al = uv.make("AL", {"a": -1, "b": 1, "s": 0.1})
    with pytest.raises(ValueError):
        fl.eps_flat_measure(al, 0.5, 1.5)


def test_degenerate_slopes_raise():
    u = uv.make("U", {"a": 0, "b": 1})
    with pytest.raises(fl.FlatnessError):
        fl.eps_flat_measure(u, 0.25, 0.75)  # slopes vanish inside the plateau


# ---------------------------------------------------------------------------
# Family bounds dominate the measure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ratio", [2.0, 5.0, 10.0, 20.0])
def test_al_bound_dominates_across_ratios(ratio):
    al = uv.make("AL", {"a": -ratio, "b": ratio, "s": 1.0})
    measure = fl.eps_flat_measure(al, -ratio, ratio)
    assert measure <= fl.family_flat_bound(al)


def test_bl_bound_dominates_random_draws():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.uniform(-2, 0)
        b = a + rng.uniform(2.0, 10.0)
        s = rng.uniform(0.05, 0.4)
        t = rng.uniform(0.05, 0.4)
        bl = uv.make("BL", {"a": a, "b": b, "s": s, "t": t})
        measure = fl.eps_flat_measure(bl, a, b)
        assert measure <= fl.family_flat_bound(bl), (a, b, s, t)


@pytest.mark.parametrize("family", ["AN", "CE"])
def test_bound_dominates_random_draws(family):
    # On flat tops AN's bound exceeds its exact measure by less than
    # rounding, and CE's is the exact measure: hence the slack.
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = rng.uniform(-3.0, 1.0)
        b = a + rng.uniform(0.2, 10.0)
        s = rng.uniform(0.05, 3.0)
        spec = uv.make(family, {"a": a, "b": b, "s": s})
        measure = fl.eps_flat_measure(spec, a, b)
        assert measure <= fl.family_flat_bound(spec) * (1.0 + 1e-12), (a, b, s)


def test_ce_bound_is_the_measure_at_the_edges():
    ce = uv.make("CE", {"a": -1, "b": 1, "s": 0.5})
    assert fl.family_flat_bound(ce) == pytest.approx(1.0 / math.cosh(2.0) ** 2, rel=1e-14)
    assert fl.eps_flat_measure(ce, -1.0, 1.0) == pytest.approx(fl.family_flat_bound(ce), rel=1e-12)


def test_bl_bound_closed_value():
    bl = uv.make("BL", {"a": 0, "b": 10, "s": 1, "t": 1})
    expected = 12.0 * (10.0 / math.tanh(5.0)) * math.exp(-5.0)
    assert fl.family_flat_bound(bl) == pytest.approx(expected, rel=1e-12)


def test_an_bound_closed_value():
    an = uv.make("AN", {"a": 0, "b": 10, "s": 1})
    assert fl.family_flat_bound(an) == pytest.approx(
        2.0 * 25.0 / (math.exp(12.5) - 1.0), rel=1e-12)
    assert fl.family_flat_bound(an) == pytest.approx(1.86e-4, rel=2e-2)


def test_bound_absent_for_uncovered_families():
    assert fl.family_flat_bound(uv.make("GN", {"mu": 0, "s": 1, "beta": 4})) is None
    assert fl.family_flat_bound(uv.make("DE", {"m": 0, "s": 1})) is None
    assert fl.family_flat_bound(uv.make("CF", {"m": 0, "r": 1, "s": 1, "beta": 2})) is None


def test_cf_unit_slope_bound():
    cf = uv.make("CF", {"m": 0, "r": 1, "s": 0.1, "beta": 1})
    assert fl.family_flat_bound(cf) == pytest.approx(math.exp(-5.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Averaged flatness
# ---------------------------------------------------------------------------

def test_rectangle_integral_measure_vanishes():
    u = uv.make("U", {"a": 0, "b": 1})
    res = fl.delta_eps_flat(u, 0.2, 0.8, mode="integral", epsilons=(0.01, 0.5))
    assert res.measure == 0.0
    assert res.delta == pytest.approx(0.6)
    assert res.satisfied_at == {0.01: True, 0.5: True}


def test_cf_concave_measure_bounded_by_exponential():
    cf = uv.make("CF", {"m": 0, "r": 1, "s": 0.1, "beta": 1})
    res = fl.delta_eps_flat(cf, -0.5, 0.5, mode="concave")
    assert res.measure <= math.exp(-1.0 / 0.2)


def test_normal_concave_measure_value():
    n01 = uv.make("GN", {"mu": 0, "s": math.sqrt(2.0), "beta": 2})
    res = fl.delta_eps_flat(n01, -1.0, 1.0, mode="concave")
    assert res.measure == pytest.approx(1.0 - math.exp(-0.5), rel=1e-12)


def test_delta_flat_rejects_bad_interval_and_mode():
    u = uv.make("U", {"a": 0, "b": 1})
    with pytest.raises(ValueError):
        fl.delta_eps_flat(u, 0.6, 0.9)
    with pytest.raises(ValueError):
        fl.delta_eps_flat(u, 0.2, 0.8, mode="convex")


# ---------------------------------------------------------------------------
# Generalized-normal interval ratio
# ---------------------------------------------------------------------------

def test_gn_ratio_landmarks():
    assert fl.gn_flat_interval_ratio(2.0, 0.5) == pytest.approx(1.0)
    assert fl.gn_flat_interval_ratio(4.0, 0.1) == pytest.approx(0.6244, abs=2e-4)
    assert fl.gn_flat_interval_ratio(1e9, 0.1) == pytest.approx(1.0, abs=1e-6)


def test_gn_ratio_monotone_in_beta():
    betas = np.linspace(0.5, 20.0, 40)
    vals = [fl.gn_flat_interval_ratio(b, 0.1) for b in betas]
    assert np.all(np.diff(vals) > 0.0)


def test_gn_ratio_domain():
    with pytest.raises(ValueError):
        fl.gn_flat_interval_ratio(-1.0, 0.1)
    with pytest.raises(ValueError):
        fl.gn_flat_interval_ratio(2.0, 1.0)


def test_report_assembles_fields():
    al = uv.make("AL", {"a": -1, "b": 1, "s": 0.1})
    rep = fl.flatness_report(al, epsilons=(0.01,))
    assert rep.a < 0.0 < rep.b
    assert rep.family_bound is not None
    assert rep.verdict_at[0.01] == (rep.epsilon_measure < 0.01)
    rep2 = fl.flatness_report(al, epsilons=(0.01,), boundaries=(-1.0, 1.0))
    assert rep2.a == -1.0 and rep2.b == 1.0


@pytest.mark.parametrize("family, params", [
    ("AL", {"a": -1, "b": 1, "s": 0.1}),
    ("BL", {"a": 0, "b": 5, "s": 0.3, "t": 0.6}),
    ("GN", {"mu": 0, "s": 1, "beta": 3}),
])
@pytest.mark.parametrize("eps", [0.0, 1.0, -1.0, 2.0, math.nan])
def test_report_rejects_every_threshold_outside_unit_interval(family, params, eps):
    spec = uv.make(family, params)
    a, b = fl.canonical_boundaries(spec)
    for epsilons in ((eps,), (0.1, eps)):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
            fl.flatness_report(spec, epsilons=epsilons)
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
            fl.delta_eps_flat(spec, a, b, epsilons=epsilons)
