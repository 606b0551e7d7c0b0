import math

import numpy as np
import pytest

from flattop import divergence as dv, multivariate as mv, univariate as uv
from flattop.quadrature import integrate


def test_uniform_normal_constants():
    kl, l1 = dv.uniform_vs_bestfit_normal_1d()
    assert kl == pytest.approx(0.5 * math.log(math.pi * math.e / 6.0), abs=1e-12)
    assert round(kl, 3) == 0.176
    assert round(l1, 3) == 0.395


def test_bestfit_normal_of_uniform():
    mean, var = dv.bestfit_normal_of_uniform(0.0, 2.0)
    assert mean == 1.0
    assert var == pytest.approx(1.0 / 3.0)


def test_ball_constants_dimension_two():
    kl, l1, chi = dv.ball_vs_bestfit_normal(2)
    assert kl == pytest.approx(1.0 - math.log(2.0), abs=1e-12)
    assert l1 == pytest.approx(1.0 - math.log(2.0) + 2.0 / math.e ** 2, abs=1e-12)
    assert chi ** 2 == pytest.approx(math.log(math.sqrt(2.0)), abs=1e-12)
    assert round(kl, 3) == 0.307
    assert round(l1, 3) == 0.578


def test_ball_divergences_monotone_in_dimension():
    kls = [dv.ball_vs_bestfit_normal(n)[0] for n in range(1, 11)]
    l1s = [dv.ball_vs_bestfit_normal(n)[1] for n in range(1, 11)]
    assert np.all(np.diff(kls) > 0.0)
    assert np.all(np.diff(l1s) > 0.0)


def test_bestfit_ball_variance():
    assert dv.bestfit_normal_of_ball(2, 1.0) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        dv.bestfit_normal_of_ball(0, 1.0)


# ---------------------------------------------------------------------------
# Numeric routes against closed forms
# ---------------------------------------------------------------------------

def _bestfit_normal_spec(a, b):
    mean, var = dv.bestfit_normal_of_uniform(a, b)
    return uv.make("GN", {"mu": mean, "s": math.sqrt(2.0 * var), "beta": 2})


def test_kl_numeric_matches_closed_form():
    p = uv.make("U", {"a": 0, "b": 2})
    res = dv.kl_numeric(p, _bestfit_normal_spec(0, 2))
    closed, _ = dv.uniform_vs_bestfit_normal_1d()
    assert res.method == "quadrature"
    assert res.kl == pytest.approx(closed, abs=1e-6)


def test_l1_numeric_matches_closed_form():
    p = uv.make("U", {"a": -1, "b": 5})
    res = dv.l1_numeric(p, _bestfit_normal_spec(-1, 5))
    _, closed = dv.uniform_vs_bestfit_normal_1d()
    assert res.l1 == pytest.approx(closed, abs=1e-6)


def test_kl_self_is_zero_and_l1_symmetric():
    p = uv.make("AL", {"a": 0, "b": 1, "s": 0.1})
    q = uv.make("AL", {"a": 0.2, "b": 1.4, "s": 0.2})
    assert dv.kl_numeric(p, p).kl == pytest.approx(0.0, abs=1e-12)
    assert dv.l1_numeric(p, q).l1 == pytest.approx(dv.l1_numeric(q, p).l1, abs=1e-9)


def test_l1_half_overlapping_rectangles():
    p = uv.make("U", {"a": 0, "b": 1})
    q = uv.make("U", {"a": 0.5, "b": 1.5})
    assert dv.l1_numeric(p, q).l1 == pytest.approx(1.0, abs=1e-9)


def test_kl_disjoint_support_is_infinite():
    p = uv.make("U", {"a": 0, "b": 1})
    q = uv.make("U", {"a": 2, "b": 3})
    assert math.isinf(dv.kl_numeric(p, q).kl)


def test_expected_loglik_identity():
    p = uv.make("U", {"a": 0, "b": 2})
    q = _bestfit_normal_spec(0, 2)
    val = integrate(lambda x: uv.pdf(p, x) * uv.log_pdf(q, x), 0.0, 2.0).value
    r = 1.0
    assert val == pytest.approx(-math.log(2.0 * r) - 0.5 * math.log(math.pi * math.e / 6.0),
                                abs=1e-10)


# ---------------------------------------------------------------------------
# Monte-Carlo routes (ball against its best-fit normal)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_mc_ball_matches_closed_forms(n):
    ball = mv.make_mv("MU", np.zeros(n), r=1.0)
    q = dv.GaussianND(np.zeros(n), np.eye(n) * dv.bestfit_normal_of_ball(n, 1.0))
    kl_closed, l1_closed, _ = dv.ball_vs_bestfit_normal(n)
    res_kl = dv.kl_numeric(ball, q, mc_draws=300_000, seed=n)
    assert res_kl.method == "monte_carlo"
    assert res_kl.mc_stderr is not None and res_kl.mc_stderr < 0.01
    assert abs(res_kl.kl - kl_closed) <= 3.0 * res_kl.mc_stderr
    res_l1 = dv.l1_numeric(ball, q, mc_draws=300_000, seed=n + 10)
    assert abs(res_l1.l1 - l1_closed) <= 3.0 * res_l1.mc_stderr


def test_mc_dimension_mismatch():
    ball = mv.make_mv("MU", [0, 0], r=1.0)
    q = dv.GaussianND([0, 0, 0], np.eye(3))
    with pytest.raises(ValueError):
        dv.kl_numeric(ball, q)


def test_type_mismatch_rejected():
    p = uv.make("U", {"a": 0, "b": 1})
    ball = mv.make_mv("MU", [0, 0], r=1.0)
    with pytest.raises(TypeError):
        dv.kl_numeric(p, ball)


# ---------------------------------------------------------------------------
# Quadrature from both panel tables; one Monte Carlo path
# ---------------------------------------------------------------------------

_STEEP_CH = {"m": 0.0, "r": 2.4, "s": 0.25, "beta": 3.4}


def test_shifted_steep_ch_pair_matches_mpmath():
    # r/s = 9.6: each density falls from its top to 0 within ~3e-4 of m -+ r,
    # so only panels that end on those edges put nodes where p and q differ.
    p = uv.make("CH", _STEEP_CH)
    q = uv.make("CH", {**_STEEP_CH, "m": 1e-3})
    assert dv.l1_numeric(p, q).l1 == pytest.approx(4.16666696434449e-4, rel=1e-10, abs=0.0)
    assert dv.kl_numeric(p, q).kl == pytest.approx(3.22782337675539e-4, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("family, params", [("CH", _STEEP_CH),
                                            ("AL", {"a": -1.0, "b": 1.0, "s": 0.1})])
def test_l1_against_a_far_uniform_is_two(family, params):
    far = uv.make("U", {"a": 1e6, "b": 1e6 + 1.0})
    assert dv.l1_numeric(uv.make(family, params), far).l1 == pytest.approx(2.0, abs=1e-10)


# (low, high) per parameter of families with a finite second moment, so that
# KL against AN, whose log-density falls like -x^2, is finite; b = a + w.
_LIGHT_BOX = {
    "AL": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.05, 1.2)},
    "ALS": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.1, 0.8), "lam": (-0.8, 0.8)},
    "BL": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.08, 0.6), "t": (0.08, 0.6)},
    "BD": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.2, 1.0), "t": (0.2, 1.0)},
    "CE": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.4, 2.0)},
    "CF": {"m": (-1.0, 1.0), "r": (0.4, 2.5), "s": (0.2, 1.2), "beta": (1.0, 3.5)},
    "CH": {"m": (-1.0, 1.0), "r": (0.4, 2.5), "s": (0.2, 1.2), "beta": (1.0, 3.5)},
    "GN": {"mu": (-1.0, 1.0), "s": (0.3, 2.0), "beta": (0.7, 6.0)},
    "AN": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.1, 1.2)},
}


def _box_spec(family, rng):
    params = {k: rng.uniform(lo, hi) for k, (lo, hi) in _LIGHT_BOX[family].items()}
    if "w" in params:
        params["b"] = params["a"] + params.pop("w")
    return uv.make(family, params)


@pytest.mark.parametrize("family", sorted(_LIGHT_BOX))
def test_kl_against_an_is_finite(family):
    # The AN log-density is formed in erfc/erfcx form, so it stays finite
    # in the tails of p, where its erf difference would underflow.
    rng = np.random.default_rng(20261018)
    for _ in range(3):
        p, q = _box_spec(family, rng), _box_spec("AN", rng)
        kl = dv.kl_numeric(p, q).kl
        assert math.isfinite(kl) and kl >= 0.0


_AL = {"a": -1.0, "b": 1.0, "s": 0.3}


@pytest.mark.parametrize("p, q", [(("DE", {"m": 0.0, "s": 1.0}), ("AL", _AL)),
                                  (("CC", {"m": 0.0, "s": 1.0, "beta": 3.0}), ("AN", _AL))])
def test_kl_of_a_power_tail_against_a_lighter_one_is_infinite(p, q):
    # In both pairs -p ln q falls like 1/|x|, so KL(p || q) diverges.
    assert dv.kl_numeric(uv.make(*p), uv.make(*q)).kl == math.inf


@pytest.mark.parametrize("p, q, kl", [
    (("CC", {"m": 0.0, "s": 1.0, "beta": 2.5}), ("AL", _AL), 2.1573055795527982),
    (("CC", {"m": 0.0, "s": 1.0, "beta": 6.0}), ("AL", _AL), 0.023244489399085057),
    (("DE", {"m": 0.0, "s": 1.0}), ("CC", {"m": 0.0, "s": 1.0, "beta": 3.0}), 0.21541959128931462),
])
def test_kl_of_a_power_tail_against_a_heavy_enough_one_is_finite(p, q, kl):
    assert dv.kl_numeric(uv.make(*p), uv.make(*q)).kl == pytest.approx(kl, rel=1e-9)


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_mc_l1_of_shifted_gaussians(delta):
    p = dv.GaussianND([0.0, 0.0], np.eye(2))
    q = dv.GaussianND([delta, 0.0], np.eye(2))
    res = dv.l1_numeric(p, q, mc_draws=400_000, seed=3)
    truth = 2.0 * math.erf(delta / (2.0 * math.sqrt(2.0)))  # 2 (2 Phi(delta/2) - 1)
    assert res.method == "monte_carlo"
    assert abs(res.l1 - truth) <= 4.0 * res.mc_stderr


def test_mc_l1_of_two_disks_matches_the_lens():
    d = 0.5
    p = mv.make_mv("MU", [0.0, 0.0], r=1.0)
    q = mv.make_mv("MU", [d, 0.0], r=1.0)
    lens = 2.0 * math.acos(d / 2.0) - 0.5 * d * math.sqrt(4.0 - d * d)  # the overlap's area
    res = dv.l1_numeric(p, q, mc_draws=400_000, seed=3)
    assert abs(res.l1 - 2.0 * (1.0 - lens / math.pi)) <= 4.0 * res.mc_stderr
