import math

import mpmath as mp
import numpy as np
import pytest

from flattop import quadrature
from flattop.quadrature import (
    QuadratureError,
    QuadratureResult,
    QuadratureSettings,
    integrate,
)


def test_settings_validation():
    with pytest.raises(ValueError):
        QuadratureSettings(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSettings(rel_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSettings(max_subdivisions=0)


def test_exponential_tail_unit_mass():
    res = integrate(lambda t: np.exp(-t), 0.0, math.inf)
    assert abs(res.value - 1.0) < QuadratureSettings().abs_tol * 100
    assert abs(res.value - 1.0) < 1e-12


def test_polynomial_exactness():
    # GK15 integrates low-degree polynomials to machine precision.
    res = integrate(lambda x: 3.0 * x ** 2, 0.0, 2.0)
    assert res.value == pytest.approx(8.0, abs=1e-13)


@pytest.mark.parametrize("rule", ["kronrod", "gauss"])
def test_rule_integrates_monomials_to_the_last_bit(rule):
    # The 15-point Kronrod rule is exact to degree 22, its 7-point Gauss
    # rule to degree 13.  With the double nodes and weights the sum is
    # within one ulp of 2 (the largest value) of the exact integral; weights
    # with 15 digits missed it by up to 6e-15.
    x, w, degree = ((quadrature._XK, quadrature._WK, 22) if rule == "kronrod"
                    else (quadrature._XK[quadrature._G_IDX], quadrature._WG, 13))
    with mp.workdps(50):
        for k in range(degree + 1):
            total = mp.fsum(mp.mpf(wi) * mp.mpf(xi) ** k for xi, wi in zip(x, w))
            exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)
            assert abs(total - exact) <= 2.0 ** -51, k


def test_gaussian_full_line():
    res = integrate(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
                    -math.inf, math.inf)
    assert res.value == pytest.approx(1.0, abs=1e-11)


def test_heavy_tail_mass_is_kept():
    # f ~ x^-2 for large x: truncation alone would drop visible mass.
    res = integrate(lambda x: 1.0 / (1.0 + x * x), -math.inf, math.inf, points=(0.0,))
    assert res.value == pytest.approx(math.pi, rel=1e-9)


def test_orientation_and_degenerate_interval():
    assert integrate(lambda x: x, 1.0, 1.0).value == 0.0
    fwd = integrate(lambda x: x ** 3, 0.0, 1.0).value
    rev = integrate(lambda x: x ** 3, 1.0, 0.0).value
    assert fwd == pytest.approx(-rev)


def test_interior_hint_points_help_spikes():
    # Narrow spike away from the panel midpoints.
    center = 0.7137
    res = integrate(lambda x: np.exp(-((x - center) / 1e-3) ** 2), 0.0, 1.0,
                    points=(center,))
    assert res.value == pytest.approx(1e-3 * math.sqrt(math.pi), rel=1e-8)


def test_budget_exhaustion_raises():
    settings = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.abs(np.sin(40.0 * x)), 0.0, 10.0, settings)


def test_nonfinite_integrand_rejected():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_result_reports_error_estimate():
    res = integrate(lambda t: np.exp(-t), 0.0, math.inf)
    assert isinstance(res, QuadratureResult)
    assert res.error >= 0.0
    assert res.subdivisions >= 1
    assert res.converged


def test_roundoff_floor_is_reported_as_not_converged():
    # No tolerance is reachable: the panel holding the step halves until it
    # is too narrow to halve again.
    settings = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-300)
    res = integrate(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0, settings)
    assert not res.converged
    assert res.value == pytest.approx(2.0 / 3.0, abs=1e-12)


def _counting(f, sizes):
    def g(x):
        sizes.append(x.size)
        return f(x)
    return g


def test_one_integrand_call_for_the_initial_panels_then_one_per_round():
    sizes = []
    res = integrate(_counting(lambda x: np.sqrt(np.abs(x - 0.3)), sizes), 0.0, 1.0,
                    points=(0.25, 0.5, 0.75))
    assert res.value == pytest.approx((0.7 ** 1.5 + 0.3 ** 1.5) / 1.5, rel=1e-9)
    assert sizes[0] == 15 * 4  # the 4 panels between the 3 break points
    assert all(n % 30 == 0 for n in sizes[1:])  # the two halves of each split panel
    assert sum(sizes) == 15 * res.subdivisions
    assert len(sizes) < res.subdivisions // 2


def test_a_round_never_splits_past_the_budget():
    # Every panel holds a share of the excess, so a round would split them all.
    sizes = []
    settings = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=100)
    with pytest.raises(QuadratureError, match="max_subdivisions=100"):
        integrate(_counting(lambda x: np.abs(np.sin(40.0 * x)), sizes), 0.0, 10.0, settings)
    assert 100 <= sum(sizes) // 15 <= 101
