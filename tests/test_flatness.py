import math

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
    gn = uv.make("GN", {"mu": 0.5, "s": 1.2, "beta": 4})
    a, b = fl.fwhm_boundaries(gn)
    half = 1.2 * math.log(2.0) ** 0.25
    assert a == pytest.approx(0.5 - half, rel=1e-12)
    assert b == pytest.approx(0.5 + half, rel=1e-12)


def test_fwhm_numeric_matches_half_height():
    al = uv.make("AL", {"a": -1, "b": 1, "s": 0.2})
    a, b = fl.fwhm_boundaries(al)
    pm = uv.pdf(al, 0.0)
    assert uv.pdf(al, a) == pytest.approx(0.5 * pm, rel=1e-8)
    assert uv.pdf(al, b) == pytest.approx(0.5 * pm, rel=1e-8)


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


def test_measure_smoothed_rectangle_vs_normal():
    smooth_u = uv.make("AL", {"a": 0, "b": 1, "s": 1e-5})
    assert fl.eps_flat_measure(smooth_u, 0.0, 1.0) < 1e-3
    n01 = uv.make("GN", {"mu": 0, "s": math.sqrt(2.0), "beta": 2})
    a, b = fl.fwhm_boundaries(n01)
    assert fl.eps_flat_measure(n01, a, b) > 0.5


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
