import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from flattop import specfun as sf


# ---------------------------------------------------------------------------
# Polylogarithm at negative exponential argument
# ---------------------------------------------------------------------------

def test_li2_at_minus_one():
    assert sf.polylog_neg(2, 0.0) == pytest.approx(-math.pi ** 2 / 12.0, abs=1e-14)


def test_li4_at_minus_one():
    assert sf.polylog_neg(4, 0.0) == pytest.approx(-7.0 * math.pi ** 4 / 720.0, abs=1e-14)


@pytest.mark.parametrize("n", [3, 5])
def test_inversion_relation_random_arguments(n):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-5.0, 5.0, 100)
    for x in xs:
        lhs = sf.polylog_neg(n, x) - sf.polylog_neg(n, -x)
        if n == 3:
            rhs = -x ** 3 / 6.0 - math.pi ** 2 * x / 6.0
        else:
            rhs = (-x ** 5 / 120.0 - math.pi ** 2 * x ** 3 / 36.0
                   - 7.0 * math.pi ** 4 * x / 360.0)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-12)


def test_li5_large_argument_vs_quadrature_oracle():
    # Independent oracle: F_4(2) by scipy quadrature, Li_5(-e^2) = -F_4(2).
    oracle = -quad(lambda t: t ** 4 * expit(2.0 - t), 0, np.inf)[0] / math.gamma(5)
    assert sf.polylog_neg(5, 2.0) == pytest.approx(oracle, rel=1e-11)


def test_polylog_rejects_bad_order():
    with pytest.raises(ValueError):
        sf.polylog_neg(1, 0.5)
    with pytest.raises(ValueError):
        sf.polylog_neg(2.5, 0.5)


# ---------------------------------------------------------------------------
# Complete Fermi-Dirac integral
# ---------------------------------------------------------------------------

def test_fd_order_zero_is_softplus():
    assert sf.fermi_dirac_complete(0, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert sf.fermi_dirac_complete(0, 700.0) == pytest.approx(700.0, rel=1e-15)
    assert sf.fermi_dirac_complete(0, -700.0) == pytest.approx(math.exp(-700.0), rel=1e-12)


def test_fd_order_one_at_zero():
    assert sf.fermi_dirac_complete(1, 0.0) == pytest.approx(math.pi ** 2 / 12.0, rel=1e-13)


def test_fd_vanishes_at_minus_infinity():
    assert sf.fermi_dirac_complete(1, -600.0) < 1e-250


@pytest.mark.parametrize("j", [-0.5, 0.5, 1.0, 2.5])
def test_fd_strictly_increasing_on_grid(j):
    xs = np.linspace(-20.0, 20.0, 1000)
    vals = np.array([sf.fermi_dirac_complete(j, float(x)) for x in xs])
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("j,x", [(0.5, 1.0), (-0.5, 2.0), (1.5, -3.0), (2.0, 5.0)])
def test_fd_against_scipy_oracle(j, x):
    oracle = quad(lambda t: t ** j * expit(x - t), 0, np.inf,
                  limit=200)[0] / math.gamma(j + 1.0)
    assert sf.fermi_dirac_complete(j, x) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("beta", [1.05, 1.7, 2.5, 3.4, 3.5])
def test_fd_fractional_order_large_argument_vs_polylog(beta):
    # The CF/CH normalizer orders j = 1/beta - 1 over the criterion-3 box;
    # at large x the integrand's Fermi step sits far from the origin, and
    # near x = 0 it sits at the singular edge.
    mpmath = pytest.importorskip("mpmath")
    j = 1.0 / beta - 1.0
    for x in (1e-8, 1e-4, 1e-2, 0.5, 3.0, 30.0, 300.0, 2500.0, 1e4):
        with mpmath.workdps(30):
            oracle = float(-mpmath.re(mpmath.polylog(j + 1.0, -mpmath.exp(x))))
        assert sf.fermi_dirac_complete(j, x) == pytest.approx(oracle, rel=1e-12), x


def test_fd_rejects_order_at_or_below_minus_one():
    with pytest.raises(ValueError):
        sf.fermi_dirac_complete(-1.0, 0.0)


# ---------------------------------------------------------------------------
# Classical wrappers
# ---------------------------------------------------------------------------

def test_erf_odd_and_bounded():
    assert sf.erf(0.0) == 0.0
    xs = np.linspace(-5, 5, 41)
    assert np.allclose(sf.erf(xs), -sf.erf(-xs))
    assert np.all(np.abs(sf.erf(xs)) < 1.0)


def test_beta_reflection_identity():
    beta = 4.0
    val = math.exp(sf.log_beta(1.0 - 1.0 / beta, 1.0 / beta))
    assert val == pytest.approx(math.pi / math.sin(math.pi / beta), rel=1e-14)
    assert val == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-14)


def test_incomplete_gamma_tails_sum_to_gamma():
    for s in (0.3, 1.0, 2.7):
        for x in (0.1, 1.0, 4.0):
            total = (sf.incomplete_gamma(s, x, "lower")
                     + sf.incomplete_gamma(s, x, "upper"))
            assert total == pytest.approx(math.gamma(s), rel=1e-13)


def test_upper_incomplete_gamma_shape_one():
    assert sf.incomplete_gamma(1.0, 2.0, "upper") == pytest.approx(math.exp(-2.0), rel=1e-13)


def test_incomplete_gamma_domain_errors():
    with pytest.raises(ValueError):
        sf.incomplete_gamma(-1.0, 1.0, "lower")
    with pytest.raises(ValueError):
        sf.incomplete_gamma(1.0, -1.0, "lower")
    with pytest.raises(ValueError):
        sf.incomplete_gamma(1.0, 1.0, "sideways")


def test_log_beta_domain():
    with pytest.raises(ValueError):
        sf.log_beta(0.0, 1.0)


def test_log_sinh_matches_mpmath_from_subnormal_to_large_z():
    mpmath = pytest.importorskip("mpmath")
    z = np.concatenate([np.geomspace(1e-310, 1e3, 700), np.linspace(0.05, 2.0, 300)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sf.log_sinh(z)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.log(mpmath.sinh(mpmath.mpf(float(v))))) for v in z])
    # ln sinh z crosses 0 at asinh(1): there only the absolute error means anything.
    near_zero = np.abs(z - math.asinh(1.0)) < 0.3
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    assert ulps[~near_zero].max() <= 4
    assert np.abs(got - want)[near_zero].max() <= np.finfo(float).eps
    assert sf.log_sinh(1e-12) == pytest.approx(math.log(1e-12), rel=1e-15)


def test_log_cosh_clamp_is_bit_identical_to_the_unclamped_formula():
    edge = np.linspace(340.0, 380.0, 400_001)
    wide = np.geomspace(5e-324, 1e308, 400_001)
    special = np.array([np.inf, np.nan, 0.0, 5e-324, 1e308, 20.0, 350.0])
    z = np.concatenate([edge, wide, special])
    z = np.concatenate([z, -z])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sf.log_cosh(z)
    az = np.abs(z)
    with np.errstate(over="ignore"):  # -2 |z| overflows at |z| = 1e308
        want = az + np.log1p(np.exp(-2.0 * az)) - math.log(2.0)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_csch2_matches_mpmath_from_small_to_large_z():
    mpmath = pytest.importorskip("mpmath")
    z = np.concatenate([np.geomspace(1e-10, 20.0, 400), -np.geomspace(1e-10, 20.0, 50)])
    got = sf.csch2(z)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.csch(mpmath.mpf(float(v))) ** 2) for v in z])
    assert (np.abs(got - want) / np.spacing(want)).max() <= 4


_FLAT_TOP_H = (1e-12, 1e-3, 0.5, 3.0, 40.0, 1e4, 1e10, 1e15, 1e17)


def test_log_sinh_ratio_matches_mpmath_across_flat_tops_and_shoulders():
    """At |w| = h, the shoulder of a flat top of half-width h, the ratio is
    1/2 for large h; a log-sum-exp of the four exponentials lost 0.69 of
    ln 2 there at h = 1e17."""
    mpmath = pytest.importorskip("mpmath")
    h = np.repeat(_FLAT_TOP_H, 11)
    w = h * np.tile([0.0, 0.3, -0.3, 1.0 + 1e-9, 1.0 - 1e-9, 1.0, 1.0, 2.0, 1e3, 1.0, 1.0], 9)
    w[6::11] += 5.0
    w[9::11], w[10::11] = np.inf, -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sf.log_sinh_ratio(w, h)
    with mpmath.workdps(50):
        want = np.array([-np.inf if math.isinf(wi) else float(
            mpmath.log(mpmath.sinh(mpmath.mpf(hi)))
            - mpmath.log(mpmath.cosh(mpmath.mpf(wi)) + mpmath.cosh(mpmath.mpf(hi))))
            for wi, hi in zip(w, h)])
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    err = np.abs(got[finite] - want[finite]) / np.maximum(1.0, np.abs(want[finite]))
    assert err.max() <= 4e-16
    assert np.all(got <= 0.0)


@pytest.mark.parametrize("h", [0.0, -1.0, np.array([1.0, 0.0])])
def test_log_sinh_ratio_requires_positive_h(h):
    with pytest.raises(ValueError, match="h > 0"):
        sf.log_sinh_ratio(1.0, h)


# ---------------------------------------------------------------------------
# In-house replacements of scipy routines, with scipy as the reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist, scale", [("normal", 1.0), ("normal", 30.0), ("uniform", 800.0)])
def test_logistic_matches_expit(dist, scale):
    rng = np.random.default_rng(11)
    z = rng.normal(0.0, scale, 100_000) if dist == "normal" else rng.uniform(-scale, scale, 100_000)
    got = sf.logistic(z)
    want = expit(z)
    pos = want > 0.0
    assert np.all(got[~pos] == 0.0)
    assert np.max(np.abs(got[pos] - want[pos]) / want[pos]) <= 5e-16
    with np.errstate(over="ignore"):
        assert np.array_equal(sf._expit(z), got)  # the integrands' in-place copy


def test_logistic_limits_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sf.logistic(np.array([-np.inf, np.inf, -1e300, 1e300, 0.0]))
    assert out.tolist() == [0.0, 1.0, 0.0, 1.0, 0.5]
