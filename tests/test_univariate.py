import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from flattop import univariate as uv
from flattop.quadrature import QuadratureSettings, integrate

# One comfortable grid of configurations per family, used by the
# normalization and oracle-equivalence checks.
CONFIG_GRID = {
    "U": [{"a": a, "b": a + w} for a in (-3.0, 0.0, 2.5) for w in (0.5, 1.0, 4.0, 10.0)],
    "GN": [{"mu": m, "s": s, "beta": b}
           for m in (0.0, 1.5) for s in (0.5, 1.0, 2.0) for b in (0.7, 1.0, 2.0, 4.0)],
    "AN": [{"a": a, "b": a + w, "s": s}
           for a in (-1.0, 0.0) for w in (1.0, 5.0) for s in (0.1, 0.5, 1.5)],
    "AL": [{"a": a, "b": a + w, "s": s}
           for a in (-2.0, 0.0) for w in (1.0, 6.0) for s in (0.05, 0.3, 1.0)],
    "ALS": [{"a": a, "b": a + w, "s": s, "lam": l}
            for a in (-1.0,) for w in (1.0, 4.0) for s in (0.2, 0.6)
            for l in (-0.7, 0.0, 0.4)],
    "BL": [{"a": a, "b": a + w, "s": s, "t": t}
           for a in (0.0, -1.0) for w in (2.0, 8.0) for s in (0.1, 0.5) for t in (0.2, 0.8)],
    "BD": [{"a": a, "b": a + w, "s": s, "t": t}
           for a in (0.0, -1.0) for w in (2.0, 8.0) for s in (0.3, 0.7) for t in (0.3, 1.1)],
    "CC": [{"m": m, "s": s, "beta": b}
           for m in (0.0, 1.0) for s in (0.5, 1.0, 2.0) for b in (1.5, 2.0, 4.0, 6.0)],
    "CF": [{"m": m, "r": r, "s": s, "beta": b}
           for m in (0.0,) for r in (0.5, 2.0) for s in (0.3, 1.0) for b in (1.0, 2.0, 3.0)],
    "CE": [{"a": a, "b": a + w, "s": s}
           for a in (-1.0, 0.5) for w in (1.0, 4.0) for s in (0.4, 1.0, 2.0)],
    "CH": [{"m": m, "r": r, "s": s, "beta": b}
           for m in (0.0,) for r in (0.5, 2.0) for s in (0.3, 1.0) for b in (1.0, 2.0, 3.0)],
    "DE": [{"m": m, "s": s} for m in (-1.0, 0.0) for s in (0.2, 0.5, 1.0, 2.0)
           for _ in range(3)][:20],
}

ORACLE_SETTINGS = QuadratureSettings(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=4000)


def _pdf_integral(spec) -> float:
    lo, hi = uv.support(spec)
    hints = [uv.mode(spec)]
    if spec.a is not None:
        hints += [spec.a, spec.b]
    return integrate(lambda x: uv.pdf(spec, x), lo, hi, ORACLE_SETTINGS,
                     points=tuple(hints)).value


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_make_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        uv.make("XX", {"a": 0, "b": 1})


def test_make_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="unknown parameter"):
        uv.make("AL", {"a": 0, "b": 1, "s": 0.1, "zeta": 2})
    with pytest.raises(ValueError, match="missing parameter"):
        uv.make("AL", {"a": 0, "b": 1})


def test_make_names_violated_invariant():
    with pytest.raises(ValueError, match="a < b"):
        uv.make("AL", {"a": 1, "b": 0, "s": 0.1})
    with pytest.raises(ValueError, match="s > 0"):
        uv.make("AL", {"a": 0, "b": 1, "s": -0.1})
    with pytest.raises(ValueError, match="beta > 1"):
        uv.make("CC", {"m": 0, "s": 1, "beta": 0.9})
    with pytest.raises(ValueError, match="lam"):
        uv.make("ALS", {"a": 0, "b": 1, "s": 0.1, "lam": 1.5})


@pytest.mark.parametrize("family, params", [
    ("GN", {"mu": 0.0, "s": 5e-324, "beta": 2.0}),  # c = inf
    ("U", {"a": 0.0, "b": 5e-324}),                 # r = (b - a)/2 rounds to 0
    ("DE", {"m": 0.0, "s": 5e-324}),
    ("CC", {"m": 0.0, "s": 5e-324, "beta": 3.0}),
    ("AL", {"a": 0.0, "b": 5e-324, "s": 5e-324}),   # was a ZeroDivisionError
    ("CH", {"m": 0.0, "r": 1e-200, "s": 1.0, "beta": 2.0}),  # (r/s)^beta = 0
])
def test_make_never_stores_a_non_finite_normalizer(family, params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{family}: "):
            uv.make(family, params)


def _ch_reference(r: float, beta: float) -> tuple[float, float]:
    """c and the second central moment of CH(0, r, 1, beta) by mpmath at 50
    digits, from the density's shape sinh h / (cosh |x|^beta + cosh h)."""
    import mpmath

    with mpmath.workdps(50):
        h = mpmath.mpf(r) ** beta
        shape = lambda x: mpmath.sinh(h) / (mpmath.cosh(x ** beta) + mpmath.cosh(h))
        mass = 2 * mpmath.quad(shape, [0, 1, 4, mpmath.inf])
        second = 2 * mpmath.quad(lambda x: x * x * shape(x), [0, 1, 4, mpmath.inf])
        return float(1 / mass), float(second / mass)


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("r", [1e-4, 1e-6, 1e-10])
def test_ch_normalizer_and_variance_for_a_half_width_far_below_the_scale(r, beta):
    """F_j(h) - F_j(-h) cancelled as h = (r/s)^beta -> 0: at r/s = 1e-10 and
    beta = 2, c came out 5.08e15 against 7.42e19."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = uv.make("CH", {"m": 0.0, "r": r, "s": 1.0, "beta": beta})
        m2 = uv.central_moment(spec, 2).value
    c_ref, m2_ref = _ch_reference(r, beta)
    assert spec.c == pytest.approx(c_ref, rel=1e-10)
    assert m2 == pytest.approx(m2_ref, rel=1e-10)


def test_ch_at_beta_one_has_the_al_normalizer_for_a_narrow_top():
    ch = uv.make("CH", {"m": 0.0, "r": 1e-12, "s": 1.0, "beta": 1.0})
    assert ch.c == pytest.approx(1.0 / 2e-12, rel=1e-14)


def test_uniform_caches_height():
    u = uv.make("U", {"a": 0, "b": 2})
    assert u.c == 0.5


def test_cf_unit_normalizer_value():
    cf = uv.make("CF", {"m": 0, "r": 1, "s": 1, "beta": 1})
    assert cf.c == pytest.approx(1.0 / (2.0 * math.log(1.0 + math.e)), rel=1e-14)


def test_bl_flat_normalizer_close_to_width_inverse():
    from scipy.integrate import quad
    from scipy.special import expit

    bl = uv.make("BL", {"a": 0, "b": 10, "s": 0.1, "t": 0.1})
    assert abs(bl.c - 0.1) < 1e-4
    oracle = 1.0 / quad(lambda x: expit(x / 0.1) * expit((10 - x) / 0.1),
                        -20, 30, limit=200)[0]
    assert bl.c == pytest.approx(oracle, rel=1e-9)
    assert uv.bl_flat_normalizer(0, 10) == pytest.approx(0.1)


def test_bd_normalizer_continuous_across_equal_scales():
    # The closed form has a removable singularity at s = t.
    near = uv.make("BD", {"a": 0, "b": 5, "s": 0.7, "t": 0.7 * (1.0 + 3e-5)})
    at = uv.make("BD", {"a": 0, "b": 5, "s": 0.7, "t": 0.7})
    assert at.c == pytest.approx(near.c, rel=1e-7)
    assert _pdf_integral(at) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# pdf values and shapes
# ---------------------------------------------------------------------------

def test_al_pdf_at_mode_tanh_form():
    al = uv.make("AL", {"a": -1, "b": 1, "s": 0.5})
    assert uv.pdf(al, 0.0) == pytest.approx(0.5 * math.tanh(1.0), rel=1e-14)


def test_huge_flat_tops_keep_their_height():
    # ln c joins ln[sinh h / (cosh w + cosh h)] after the two logs of h cancel;
    # added to ln sinh h first, it was lost beside h = 1e16 and 1e18.
    al = uv.make("AL", {"a": -1e16, "b": 1e16, "s": 1.0})
    assert uv.pdf(al, 0.0) == pytest.approx(al.c, rel=1e-14)
    ch = uv.make("CH", {"m": 0.0, "r": 1.0, "s": 1e-9, "beta": 2.0})
    assert uv.pdf(ch, 0.0) == pytest.approx(ch.c, rel=1e-14)
    assert uv.cdf(ch, 0.0) == pytest.approx(0.5, abs=1e-12)


# One point per family inside its parameter box: the golden ``eval`` rows'.
DENSITY_POINTS = {
    "U": {"a": -1, "b": 2}, "GN": {"mu": 0, "s": 1, "beta": 3},
    "AN": {"a": -1, "b": 2, "s": 0.5}, "AL": {"a": -1, "b": 2, "s": 0.5},
    "ALS": {"a": -1, "b": 2, "s": 0.4, "lam": 0.3}, "BL": {"a": -1, "b": 2, "s": 0.3, "t": 0.5},
    "BD": {"a": -1, "b": 2, "s": 0.5, "t": 0.7}, "CC": {"m": 0, "s": 1, "beta": 3},
    "CF": {"m": 0, "r": 1, "s": 0.5, "beta": 2}, "CE": {"a": -1, "b": 2, "s": 1},
    "CH": {"m": 0, "r": 1, "s": 0.5, "beta": 2}, "DE": {"m": 0, "s": 1},
}


@pytest.mark.parametrize("family", uv.FAMILIES)
def test_pdf_is_exp_of_log_pdf_bit_for_bit(family):
    spec = uv.make(family, DENSITY_POINTS[family])
    x = np.concatenate([np.arange(-4.0, 5.0 + 1e-9, 0.25), [-1e300, -60.0, 60.0, 1e300]])
    assert np.array_equal(uv.pdf(spec, x), np.exp(uv.log_pdf(spec, x)))
    assert uv.pdf(spec, 0.3) == math.exp(uv.log_pdf(spec, 0.3))


def test_uniform_pdf_inside_outside():
    u = uv.make("U", {"a": 0, "b": 2})
    assert uv.pdf(u, 1.0) == 0.5
    assert uv.pdf(u, -0.1) == 0.0
    assert uv.pdf(u, 2.1) == 0.0


def test_al_approaches_rectangle_for_tiny_scale():
    al = uv.make("AL", {"a": 0, "b": 1, "s": 1e-6})
    assert uv.pdf(al, 0.5) == pytest.approx(1.0, abs=1e-9)
    interior = np.linspace(0.05, 0.95, 19)
    assert np.max(np.abs(uv.pdf(al, interior) - 1.0)) < 1e-12


def test_al_uniform_limit_compact_interior():
    al = uv.make("AL", {"a": -1, "b": 3, "s": 1e-4})
    interior = np.linspace(-0.8, 2.8, 50)
    assert np.max(np.abs(uv.pdf(al, interior) - 0.25)) < 1e-10


@pytest.mark.parametrize("family", [f for f in uv.FAMILIES if uv._FAMILY[f].symmetric])
def test_symmetric_families_mirror_exactly(family):
    params = CONFIG_GRID[family][0]
    spec = uv.make(family, params)
    center = spec.mu if family == "GN" else spec.m
    # Dyadic offsets keep center +/- d exactly representable, so the mirror
    # identity holds bitwise.
    offsets = np.array([0.125, 0.375, 1.5, 2.875])
    left = uv.pdf(spec, center - offsets)
    right = uv.pdf(spec, center + offsets)
    assert np.array_equal(left, right)
    assert uv.mode(spec) == center


def test_pdf_nonnegative_everywhere():
    for family, configs in CONFIG_GRID.items():
        spec = uv.make(family, configs[0])
        xs = np.linspace(-20, 20, 101)
        assert np.all(uv.pdf(spec, xs) >= 0.0), family


# ---------------------------------------------------------------------------
# Normalization across the configuration grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(CONFIG_GRID))
def test_normalization_across_grid(family):
    configs = CONFIG_GRID[family]
    assert len(configs) >= 12  # at least a dozen per family here; acceptance
    for params in configs:     # suite runs the full 20+ sweep
        spec = uv.make(family, params)
        assert _pdf_integral(spec) == pytest.approx(1.0, abs=1e-8), params


@pytest.mark.parametrize("family, params", [
    ("CE", {"a": 0.0, "b": 0.02, "s": 1.0}),
    ("CE", {"a": 0.0, "b": 1e-6, "s": 1.0}),
    ("CF", {"m": 0.0, "r": 0.2, "s": 1.0, "beta": 3.5}),
    ("CH", {"m": 0.0, "r": 0.2, "s": 1.0, "beta": 3.5}),
])
def test_normalization_half_width_far_below_scale(family, params):
    # h = r/s (CE: (b - a)/(2s)) near 0 puts the normalizer's Fermi-Dirac
    # argument near the origin, where a fractional order is hardest.
    spec = uv.make(family, params)
    assert _pdf_integral(spec) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# CDF properties and closed-form spot values
# ---------------------------------------------------------------------------

def test_cdf_at_center_is_half():
    al = uv.make("AL", {"a": -1, "b": 1, "s": 0.5})
    assert uv.cdf(al, 0.0) == pytest.approx(0.5, abs=1e-15)
    ch = uv.make("CH", {"m": 0, "r": 1, "s": 1, "beta": 1})
    assert uv.cdf(ch, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_ch_beta_one_closed_cdf_value():
    ch = uv.make("CH", {"m": 0, "r": 1, "s": 1, "beta": 1})
    expected = 0.5 * math.log((1.0 + math.exp(1.0)) / (1.0 + math.exp(-1.0)))
    assert uv.cdf(ch, 0.0) == pytest.approx(expected, rel=1e-14)


def test_gn_cdf_against_incomplete_gamma():
    from scipy.special import gammainc

    gn = uv.make("GN", {"mu": 0, "s": 1, "beta": 4})
    assert uv.cdf(gn, 1.0) == pytest.approx(0.5 + 0.5 * gammainc(0.25, 1.0), rel=1e-13)


@pytest.mark.parametrize("family", sorted(CONFIG_GRID))
def test_cdf_monotone_with_limits(family):
    spec = uv.make(family, CONFIG_GRID[family][-1])
    center = uv.mode(spec)
    scale = max(uv._scale(spec), 0.5)
    xs = center + scale * np.linspace(-30, 30, 61)
    vals = uv.cdf(spec, xs)
    assert np.all(np.diff(vals) >= -1e-12)
    # Heavy-tailed families approach the limits only polynomially.
    tail_tol = 0.05 if family in ("DE", "CC") else 1e-6
    assert vals[0] < tail_tol
    assert vals[-1] > 1.0 - tail_tol


def test_cdf_derivative_matches_pdf():
    # 5-point stencil; 100 interior points per family representative.
    for family in ("AL", "GN", "BL", "CF", "CC", "DE"):
        spec = uv.make(family, CONFIG_GRID[family][0])
        center = uv.mode(spec)
        scale = uv._scale(spec)
        xs = center + scale * np.linspace(-2.0, 2.0, 100)
        h = 1e-3 * scale
        for x in xs:
            deriv = (uv.cdf(spec, x - 2 * h) - 8 * uv.cdf(spec, x - h)
                     + 8 * uv.cdf(spec, x + h) - uv.cdf(spec, x + 2 * h)) / (12 * h)
            p = uv.pdf(spec, x)
            if p > 1e-12:
                assert deriv == pytest.approx(p, rel=2e-6), (family, x)


# The criterion-3 parameter box, as drawn by _acceptance_configs in
# tests/test_acceptance.py: (low, high) per parameter, with the width
# w = b - a drawn in place of b.
PARAM_BOX = {
    "U": {"a": (-3.0, 1.0), "w": (0.8, 8.0)},
    "GN": {"mu": (-1.0, 1.0), "s": (0.3, 2.0), "beta": (0.7, 6.0)},
    "AN": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.1, 1.2)},
    "AL": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.05, 1.2)},
    "ALS": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.1, 0.8), "lam": (-0.8, 0.8)},
    "BL": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.08, 0.6), "t": (0.08, 0.6)},
    "BD": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.2, 1.0), "t": (0.2, 1.0)},
    "CC": {"m": (-1.0, 1.0), "s": (0.4, 2.0), "beta": (1.4, 7.0)},
    "CF": {"m": (-1.0, 1.0), "r": (0.4, 2.5), "s": (0.2, 1.2), "beta": (1.0, 3.5)},
    "CE": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.4, 2.0)},
    "CH": {"m": (-1.0, 1.0), "r": (0.4, 2.5), "s": (0.2, 1.2), "beta": (1.0, 3.5)},
    "DE": {"m": (-1.0, 1.0), "s": (0.2, 2.0)},
}


def _box_vertices_and_center(family):
    names = list(PARAM_BOX[family])
    bounds = [PARAM_BOX[family][n] for n in names]
    center = tuple(0.5 * (lo + hi) for lo, hi in bounds)
    for point in [*itertools.product(*bounds), center]:
        params = dict(zip(names, point))
        if "w" in params:
            params["b"] = params["a"] + params.pop("w")
        yield params


@pytest.mark.parametrize("family", sorted(PARAM_BOX))
def test_box_vertices_pdf_cdf_quantile(family):
    us = np.array([0.001, 0.02, 0.3, 0.5, 0.7, 0.98, 0.999])
    tol = 1e-10 if family in ("U", "AL") else 1e-8  # criterion 9
    for params in _box_vertices_and_center(family):
        spec = uv.make(family, params)
        xs = uv.mode(spec) + max(uv._scale(spec), 0.5) * np.linspace(-10, 10, 50)
        p = uv.pdf(spec, xs)
        assert np.all(np.isfinite(p) & (p >= 0.0)), params
        c = uv.cdf(spec, xs)
        assert np.all((c >= 0.0) & (c <= 1.0)), params
        assert np.all(np.diff(c) >= -1e-12), params  # closed forms round
        err = np.max(np.abs(uv.cdf(spec, uv.quantile(spec, us)) - us))
        assert err < tol, (params, err)


# ---------------------------------------------------------------------------
# Quantiles
# ---------------------------------------------------------------------------

def _als_pdf_mp(params, x):
    """ALS density in 50-digit arithmetic; the difference of CDFs is taken
    between lower tails left of the center and upper tails right of it, so
    it never cancels."""
    import mpmath as mp

    with mp.workdps(50):
        a, b, s, lam = (mp.mpf(params[k]) for k in ("a", "b", "s", "lam"))
        x = mp.mpf(x)

        def u(edge):
            z = (x - edge) / (2 * s)
            return 2 * (z + lam * (mp.sqrt(z * z + 1) - 1))

        u1, u2 = u(a), u(b)
        if u1 + u2 > 0:
            return (1 / (1 + mp.exp(u2)) - 1 / (1 + mp.exp(u1))) / (b - a)
        return (1 / (1 + mp.exp(-u1)) - 1 / (1 + mp.exp(-u2))) / (b - a)


@pytest.mark.parametrize("params", CONFIG_GRID["ALS"])
def test_als_pdf_matches_mpmath_into_the_tails(params):
    spec = uv.make("ALS", params)
    xs = np.concatenate([np.linspace(-400.0, 400.0, 201),
                         np.linspace(params["a"] - 3.0, params["b"] + 3.0, 61)])
    ref = np.array([float(_als_pdf_mp(params, x)) for x in xs])
    live = ref > 1e-300
    assert np.sum(live & (ref < 1e-100)) >= 10  # the comparison reaches deep tails
    got = uv.pdf(spec, xs)
    assert np.max(np.abs(got[live] - ref[live]) / ref[live]) < 1e-12
    assert np.all(got[~live] < 1e-290)
    from_log = np.exp(uv.log_pdf(spec, xs[live]))
    assert np.max(np.abs(from_log - ref[live]) / ref[live]) < 1e-12


def test_an_pdf_matches_mpmath_past_the_edges():
    """Past an edge erf(z1) - erf(z2) cancels: at x = 6 it used to give 0.0."""
    mp = pytest.importorskip("mpmath")
    spec = uv.make("AN", {"a": -2.0, "b": 2.0, "s": 0.4})
    xs = np.array([0.0, 2.5, 4.0, 5.0, 6.0, -2.5, -4.0, -5.0, -6.0])
    with mp.workdps(50):
        k = mp.sqrt(2) * mp.mpf("0.4")
        ref = np.array([float((mp.erf((x + 2) / k) - mp.erf((x - 2) / k)) / 8)
                        for x in map(mp.mpf, xs.tolist())])
    assert ref[4] == pytest.approx(1.905e-24, rel=1e-3)
    got = uv.pdf(spec, xs)
    assert np.max(np.abs(got - ref) / ref) < 1e-13
    assert uv.pdf(spec, 6.0) == pytest.approx(ref[4], rel=1e-13)


def test_als_tiny_width_keeps_its_height_at_the_mode():
    spec = uv.make("ALS", {"a": 0.0, "b": 1e-20, "s": 1.0, "lam": 0.0})
    assert uv.pdf(spec, uv.mode(spec)) == pytest.approx(0.25, rel=1e-12)
    skew = uv.make("ALS", {"a": 0.0, "b": 1e-20, "s": 1.0, "lam": 0.5})
    assert uv.pdf(skew, 0.0) == pytest.approx(float(_als_pdf_mp(skew.params(), 0.0)), rel=1e-12)


def test_als_far_tails_without_warnings():
    spec = uv.make("ALS", {"a": -1.0, "b": 0.0, "s": 0.2, "lam": -0.7})
    xs = np.array([-1e300, -1e200, 1e200, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dens = uv.pdf(spec, xs)
        logs = uv.log_pdf(spec, xs)
    assert np.array_equal(dens, np.zeros(4))
    assert np.all(logs < -1e199)


@pytest.mark.parametrize("family, params", [
    ("ALS", {"a": 0.0, "b": 1.0, "s": 1e-10, "lam": 0.3}),
    ("ALS", {"a": 0.0, "b": 1.0, "s": 1e-10, "lam": -0.3}),
    ("AL", {"a": 0.0, "b": 1.0, "s": 1e-10}),
    ("BL", {"a": 0.0, "b": 1.0, "s": 1e-10, "t": 1e-10}),
])
def test_offsets_overflowing_the_scale_give_zero_density(family, params):
    # x / s overflows a double; the error::RuntimeWarning filter of the
    # pytest configuration turns an overflow warning into a failure.
    spec = uv.make(family, params)
    assert np.array_equal(uv.pdf(spec, np.array([-1e300, 1e300])), np.zeros(2))


def test_quantile_median_is_center():
    al = uv.make("AL", {"a": -1, "b": 1, "s": 0.5})
    assert uv.quantile(al, 0.5) == pytest.approx(0.0, abs=1e-14)
    u = uv.make("U", {"a": 0, "b": 2})
    assert uv.quantile(u, 0.25) == pytest.approx(0.5)


def test_al_quantile_closed_form_cross_check():
    # artanh form versus the stable expm1 form used by the library.
    al = uv.make("AL", {"a": -1, "b": 1, "s": 0.5})
    v = 0.9
    m, r, s = 0.0, 1.0, 0.5
    reference = m + 2.0 * s * math.atanh(
        math.tanh((r / s) * (v - 0.5)) / math.tanh(r / (2.0 * s)))
    got = uv.quantile(al, v)
    assert got == pytest.approx(reference, rel=1e-12)
    assert uv.cdf(al, got) == pytest.approx(v, abs=1e-12)


NUMERIC_CDF_FAMILIES = ("ALS", "BL", "BD", "CE", "CF", "CH")


@pytest.mark.parametrize("family", NUMERIC_CDF_FAMILIES)
def test_numeric_cdf_is_path_independent(family):
    """A point's cdf does not depend on the other points of the call."""
    specs = [uv.make(family, p) for p in CONFIG_GRID[family]]
    for spec in specs:
        if spec.beta == 1.0:
            continue  # CF and CH have a closed cdf there
        center, scale = uv.mode(spec), uv._scale(spec)
        xs = center + scale * np.array([-40.0, -3.0, -0.7, 0.0, 0.4, 1.1, 5.0, 40.0])
        for x in xs:
            alone = uv.cdf(spec, [x])[0]
            for y in (center - 2.0 * scale, center + 2.0 * scale):
                assert uv.cdf(spec, [x, y])[0] == alone, (spec, x, y)


def test_numeric_cdf_is_monotone_beyond_the_table():
    """Points past the table's cut integrate their own tail; those tails
    keep their relative accuracy, so the cdf does not step down there (it
    did by 1e-206 at x = -5.66 while the tail kept only 1e-14 absolute)."""
    m, r, s = 0.7124151581137994, 2.3848871018073625, 0.7404595465634969
    spec = uv.make("CF", {"m": m, "r": r, "s": s, "beta": 2.877051412951296})
    c = uv.cdf(spec, np.linspace(m - r - 6.0 * s, m + r + 6.0 * s, 1000))
    assert c[0] > 0.0
    assert np.all(np.diff(c) >= 0.0)


def test_bd_round_trip_on_300_seeded_sets():
    # The kinks of the BD density at a and b are table break points.
    spec = uv.make("BD", {"a": 0.0, "b": 5.0, "s": 0.6, "t": 0.9})
    worst = 0.0
    for seed in range(300):
        u = np.random.default_rng(seed).random(10)
        worst = max(worst, float(np.max(np.abs(uv.cdf(spec, uv.quantile(spec, u)) - u))))
    assert worst < 1e-12


def test_ch_cdf_across_a_steep_edge_matches_mpmath():
    """CH at r/s = 9.6, beta = 3.4: the density falls from its top to 0
    within a few 1e-4 of x = -2.4, which the table must not step over."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    r, s, beta = mp.mpf("2.4"), mp.mpf("0.25"), mp.mpf("3.4")
    h = (r / s) ** beta
    w = s * (s / r) ** (beta - 1) / beta
    edge = [-r + j * w for j in (-30, -10, -3, -1, 0, 1, 3, 10, 30)]

    def density(x):
        return mp.sinh(h) / (mp.cosh((abs(x) / s) ** beta) + mp.cosh(h))

    mass = 2 * mp.quad(density, [-mp.inf, *edge, 0])
    spec = uv.make("CH", {"m": 0.0, "r": 2.4, "s": 0.25, "beta": 3.4})
    for x in ("-2.4005", "-2.4", "-2.3", "-1.0"):
        x = mp.mpf(x)
        ref = mp.quad(density, [-mp.inf, *[p for p in edge if p < x], x]) / mass
        assert abs(uv.cdf(spec, float(x)) - float(ref)) < 1e-12, x


def test_a_table_that_misses_a_step_raises(monkeypatch):
    """Break points on the steep CH edges m -+ r alone, without the ones
    a few edge widths to each side: the panels next to the edges see none
    of the step, the table misses 7e-8 of mass, and the build says so
    instead of returning a wrong cdf."""
    spec = uv.make("CH", {"m": 0.0, "r": 2.4, "s": 0.25, "beta": 3.4})
    edges_only = dataclasses.replace(uv._FAMILY["CH"], breaks=lambda sp: [sp.m - sp.r, sp.m + sp.r])
    monkeypatch.setitem(uv._FAMILY, "CH", edges_only)
    uv._table.cache_clear()
    try:
        with pytest.raises(uv.QuadratureError, match="CH: density integrates to"):
            uv.cdf(spec, 0.5)
    finally:
        uv._table.cache_clear()


def test_quantile_roundtrip_all_families():
    vs = np.linspace(0.01, 0.99, 99)
    for family in sorted(CONFIG_GRID):
        spec = uv.make(family, CONFIG_GRID[family][0])
        tol = 1e-10 if family in ("U", "AL") else 1e-8
        q = uv.quantile(spec, vs)
        assert np.all(np.diff(q) > 0.0), family
        err = np.max(np.abs(uv.cdf(spec, q) - vs))
        assert err < tol, (family, err)


@pytest.mark.parametrize("family, a, b, s", [
    ("BL", 0.0, 10.0, 0.1), ("BL", -1.0, 1.0, 0.3), ("BD", 0.0, 10.0, 0.5), ("BD", 0.0, 2.0, 0.3),
])
def test_bl_and_bd_at_equal_scales_have_their_mode_at_m(family, a, b, s):
    """At s = t the density is symmetric about m; a bounded minimiser would
    stop anywhere on its flat top."""
    spec = uv.make(family, {"a": a, "b": b, "s": s, "t": s})
    offsets = np.array([0.125, 0.375, 1.5])
    assert np.allclose(uv.pdf(spec, spec.m - offsets), uv.pdf(spec, spec.m + offsets),
                       rtol=1e-14, atol=0.0)
    assert uv.mode(spec) == spec.m == 0.5 * (a + b)


def _log_slope_terms_mp(family, params, x):
    """ln of the two terms of d ln p/dx whose difference it is, in mpmath:
    the mode is where they are equal."""
    import mpmath as mp

    a, b, s = (mp.mpf(params[k]) for k in "abs")
    if family == "BL":
        t = mp.mpf(params["t"])
        return -mp.log(s * (1 + mp.exp((x - a) / s))), -mp.log(t * (1 + mp.exp((b - x) / t)))
    if family == "BD":
        t = mp.mpf(params["t"])

        def log_g(z):  # ln of d ln F_D/dz
            return mp.mpf(0) if z < 0 else -z - mp.log(2 - mp.exp(-z))

        return log_g((x - a) / s) - mp.log(s), log_g((b - x) / t) - mp.log(t)
    lam = mp.mpf(params["lam"])

    def log_f(w):  # ln dF/dw, F the skewed logistic CDF in w = (x - edge)/s
        h = mp.sqrt(w * w + 4)
        u = w + lam * (h - 2)
        return -mp.log(mp.exp(u) + 2 + mp.exp(-u)) + mp.log(1 + lam * w / h)

    return log_f((x - a) / s), log_f((x - b) / s)


def _slope_root_mp(spec):
    import mpmath as mp

    params = spec.params()
    lo = spec.a - 20.0 * (spec.s + (spec.t or spec.s))
    hi = spec.b + 20.0 * (spec.s + (spec.t or spec.s))
    with mp.workdps(40):
        def gap(x):
            left, right = _log_slope_terms_mp(spec.family, params, x)
            return left - right

        return float(mp.findroot(gap, (mp.mpf(lo), mp.mpf(hi)), solver="illinois"))


ASYMMETRIC = [("BL", {"a": 0.0, "b": 8.0, "s": 0.1, "t": 0.2}),
              ("BL", {"a": 0.0, "b": 1000.0, "s": 0.1, "t": 0.2})]
ASYMMETRIC += [(f, p) for f in ("BL", "BD", "ALS") for p in CONFIG_GRID[f]
               if (p["lam"] != 0.0 if f == "ALS" else p["s"] != p["t"])]


def test_modes_are_the_roots_of_the_log_density_slope():
    """Every numeric mode, of BL and BD at s != t and ALS at lam != 0, is the
    root of d ln p/dx to 4 ulps.  A bounded minimiser of -ln p stops
    anywhere on a top flat to rounding: it missed these roots by 4e-11 to
    3.3e-4 of max(1, |x|)."""
    pytest.importorskip("mpmath")
    assert len(ASYMMETRIC) == 2 + 36
    for family, params in ASYMMETRIC:
        spec = uv.make(family, params)
        got, want = uv._mode_cached.__wrapped__(spec), _slope_root_mp(spec)
        assert abs(got - want) <= 4.0 * math.ulp(max(1.0, abs(want))), (family, params, got, want)


def test_wide_bl_top_has_its_mode_at_the_closed_root():
    """On a top 1000 wide the two terms of d ln p/dx are e^((a - x)/s)/s and
    e^((x - b)/t)/t to double precision, so its root is (a/s + b/t -
    ln(s/t)) / (1/s + 1/t) = 333.37954314537, where a bounded minimiser
    stopped at 984.46.  The flatness report runs there too; its table used
    to miss the density's mass."""
    from flattop import flatness

    spec = uv.make("BL", {"a": 0.0, "b": 1000.0, "s": 0.1, "t": 0.2})
    want = (0.0 / 0.1 + 1000.0 / 0.2 - math.log(0.1 / 0.2)) / (1.0 / 0.1 + 1.0 / 0.2)
    assert uv.mode(spec) == pytest.approx(want, rel=4e-16, abs=0.0)
    assert uv.mode(uv.make("BL", {"a": 0.0, "b": 8.0, "s": 0.1, "t": 0.2})) == pytest.approx(
        2.7128764787040, abs=1e-12)
    report = flatness.flatness_report(spec)
    assert report.epsilon_measure < 0.01


def test_solver_failures_raise_convergence_error(monkeypatch):
    spec = uv.make("BL", {"a": 0.0, "b": 2.0, "s": 0.1, "t": 0.8})
    nan_slope = dataclasses.replace(uv._FAMILY["BL"], slope=lambda sp, x: math.nan)
    monkeypatch.setitem(uv._FAMILY, "BL", nan_slope)
    with pytest.raises(uv.ConvergenceError, match="mode search failed"):
        uv._mode_cached.__wrapped__(spec)
    # Signs right at the ends, nan between them.
    ends_only = dataclasses.replace(uv._FAMILY["BL"],
                                    slope=lambda sp, x: {-18.0: 1.0, 20.0: -1.0}.get(x, math.nan))
    monkeypatch.setitem(uv._FAMILY, "BL", ends_only)
    with pytest.raises(uv.ConvergenceError, match="mode search failed for BL: nan slope at 1.0"):
        uv._mode_cached.__wrapped__(spec)
    monkeypatch.undo()
    monkeypatch.setattr(uv, "_NEWTON_STEPS", 1)
    with pytest.raises(uv.ConvergenceError, match="Newton steps did not converge at 2 of 2"):
        uv.quantile(spec, [0.3, 0.6])


def _wide_top_specs():
    """BL, BD and ALS (lam = 0.5) tops 20 to 5000 wide on shoulders 0.05 to
    0.9 wide: 105 specs."""
    grid = list(itertools.product((20.0, 60.0, 200.0, 1000.0, 5000.0), (0.05, 0.1, 0.3)))
    specs = [(f, {"a": 0.0, "b": w, "s": s, "t": t}) for f in ("BL", "BD")
             for (w, s), t in itertools.product(grid, (0.07, 0.2, 0.9))]
    return specs + [("ALS", {"a": 0.0, "b": w, "s": s, "lam": 0.5}) for w, s in grid]


def test_wide_tops_build_their_table_and_bl_mass():
    """The shoulder break points put nodes on each shoulder of a wide top:
    without them a 15-point panel reaching from a or b deep into the top
    missed the shoulder, 31 of these tables missed their mass by more than
    1e-10, and the BL mass was up to 8.3e-5 off."""
    mp = pytest.importorskip("mpmath")
    specs = _wide_top_specs()
    assert len(specs) == 105
    v = np.array([1e-9, 0.3, 0.5, 0.7, 1.0 - 1e-9])
    for family, params in specs:
        spec = uv.make(family, params)
        got = uv.cdf(spec, uv.quantile(spec, v))
        assert np.all(np.abs(got - v) <= 1e-12 * np.minimum(v, 1.0 - v) + 8.9e-16), (family, params)
        if family == "BL":
            a, b, s, t = (mp.mpf(params[k]) for k in "abst")
            with mp.workdps(20):
                want = mp.quad(lambda x: 1 / ((1 + mp.exp((a - x) / s)) * (1 + mp.exp((x - b) / t))),
                               sorted([-mp.inf, a - 40 * s, a, a + 40 * s, b - 40 * t, b, b + 40 * t, mp.inf]))
            assert uv._bl_mass(*(params[k] for k in "abst"))[0] == pytest.approx(float(want), rel=1e-12)


def test_quantile_domain_check():
    u = uv.make("U", {"a": 0, "b": 1})
    with pytest.raises(ValueError):
        uv.quantile(u, 0.0)
    with pytest.raises(ValueError):
        uv.quantile(u, 1.0)


def _an_log_pdf_mp(params, x):
    """ln AN density in 50-digit arithmetic, from the erfc tails on the far
    side of the center, so the difference never cancels."""
    import mpmath as mp

    with mp.workdps(50):
        a, b, s, x = (mp.mpf(v) for v in (params["a"], params["b"], params["s"], x))
        k = mp.sqrt(2) * s
        if 2 * x < a + b:
            diff = mp.erfc((a - x) / k) - mp.erfc((b - x) / k)
        else:
            diff = mp.erfc((x - b) / k) - mp.erfc((x - a) / k)
        return float(mp.log(diff / (2 * (b - a))))


@pytest.mark.parametrize("params", CONFIG_GRID["AN"])
def test_an_log_pdf_matches_mpmath_far_into_the_tails(params):
    spec = uv.make("AN", params)
    s = params["s"]
    xs = np.linspace(params["a"] - 60.0 * s, params["b"] + 60.0 * s, 241)
    ref = np.array([_an_log_pdf_mp(params, x) for x in xs])
    got = uv.log_pdf(spec, xs)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))


def test_an_cdf_and_quantile_deep_in_the_left_tail():
    import mpmath as mp

    params = {"a": -1.0, "b": 3.0, "s": 0.2}
    spec = uv.make("AN", params)
    with mp.workdps(50):
        def h(y):  # an antiderivative of erf(y / (sqrt(2) s)) in y
            s = mp.mpf(params["s"])
            return y * mp.erf(y / (mp.sqrt(2) * s)) + s * mp.sqrt(2 / mp.pi) * mp.exp(-y * y / (2 * s * s))

        x = mp.mpf(-3)
        ref = float(0.5 + (h(x - params["a"]) - h(x - params["b"])) / (2 * (params["b"] - params["a"])))
    assert uv.cdf(spec, -3.0) == pytest.approx(ref, rel=1e-12, abs=0.0)
    for v in (1e-30, 1e-15):
        assert uv.cdf(spec, uv.quantile(spec, v)) == pytest.approx(v, rel=1e-10, abs=0.0)


def test_de_cdf_keeps_its_far_left_tail():
    # Once d >> s the mass below m - d is s / (2 sqrt(pi) d) to double precision.
    spec = uv.make("DE", {"m": 0.0, "s": 1.0})
    for d in (1e9, 1e100, 1e200):
        want = 1.0 / (2.0 * math.sqrt(math.pi) * d)
        assert uv.cdf(spec, -d) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("v", [1e-10, 1e-20, 1e-100])
def test_cf_unit_beta_quantile_deep_in_the_tail(v):
    spec = uv.make("CF", {"m": 0.0, "r": 1.0, "s": 0.5, "beta": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = uv.quantile(spec, v)
    assert math.isfinite(x)
    assert uv.cdf(spec, x) == pytest.approx(v, rel=1e-12, abs=0.0)


def test_cf_unit_beta_cdf_keeps_its_left_tail():
    import mpmath as mp

    spec = uv.make("CF", {"m": 0.0, "r": 1.0, "s": 0.5, "beta": 1.0})
    ref = float(0.5 * mp.log1p(mp.exp(-38)) / mp.log1p(mp.exp(2)))  # ~7.4e-18
    assert uv.cdf(spec, -20.0) == pytest.approx(ref, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _ks_statistic(spec, xs: np.ndarray) -> float:
    xs = np.sort(xs)
    n = xs.size
    f = uv.cdf(spec, xs)
    up = np.max(np.arange(1, n + 1) / n - f)
    down = np.max(f - np.arange(0, n) / n)
    return max(up, down)


def test_sampling_deterministic_and_supported():
    u = uv.make("U", {"a": 0, "b": 1})
    d1 = uv.sample(u, 4, seed=11)
    d2 = uv.sample(u, 4, seed=11)
    assert np.array_equal(d1.rows, d2.rows)
    assert np.all((d1.x >= 0) & (d1.x <= 1))
    assert "seed=11" in d1.provenance


def test_sampling_ks_al():
    al = uv.make("AL", {"a": 0, "b": 10, "s": 0.5})
    ds = uv.sample(al, 100_000, seed=5)
    assert _ks_statistic(al, ds.x) < 1.36 / math.sqrt(ds.rows.shape[0])


def test_sampling_de_median():
    de = uv.make("DE", {"m": 0, "s": 1})
    ds = uv.sample(de, 10_000, seed=6)
    assert abs(np.median(ds.x)) < 0.05


# ---------------------------------------------------------------------------
# Moments and kurtosis
# ---------------------------------------------------------------------------

def test_al_second_moment_closed_value():
    al = uv.make("AL", {"a": -math.pi, "b": math.pi, "s": 1.0})
    rep = uv.central_moment(al, 2)
    assert rep.method == "closed_form"
    assert rep.value == pytest.approx(2.0 * math.pi ** 2 / 3.0, rel=1e-12)


def test_gn_second_moment_beta_two():
    gn = uv.make("GN", {"mu": 3.0, "s": 1.0, "beta": 2.0})
    assert uv.central_moment(gn, 2).value == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("params", CONFIG_GRID["ALS"])
def test_als_moments_integrate_on_the_grid(params):
    spec = uv.make("ALS", params)
    m2 = uv.central_moment(spec, 2).value
    m4 = uv.central_moment(spec, 4).value
    assert 0.0 < m2 ** 2 < m4 < math.inf


def test_de_moments_flagged_infinite():
    de = uv.make("DE", {"m": 0, "s": 1})
    rep = uv.central_moment(de, 2)
    assert rep.flag == "infinite"
    assert rep.value is None


def test_cc_moment_existence_threshold():
    cc = uv.make("CC", {"m": 0, "s": 1, "beta": 6})
    assert uv.central_moment(cc, 4).flag is None
    assert uv.central_moment(cc, 6).flag == "infinite"


@pytest.mark.parametrize("beta", [1.4, 3.0, 7.0])
def test_cc_left_tail_and_quantile_keep_relative_accuracy_to_1e_100(beta):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    m, s = 2.0, 0.5
    spec = uv.make("CC", {"m": m, "s": s, "beta": beta})
    half_mass = mp.pi / beta / mp.sin(mp.pi / beta)  # of 1 / (1 + t^beta) over t > 0

    def tail(y):  # P(X < m - s y), with y^(1 - beta) taken out of the integral
        y = mp.mpf(y)
        return y ** (1 - beta) * mp.quad(lambda r: 1 / (y ** -beta + r ** beta),
                                         [1, mp.inf]) / (2 * half_mass)

    ys = 10.0 ** np.linspace(-3.0, 99.0 / (beta - 1.0), 12)
    vs = 10.0 ** -np.linspace(1.0, 100.0, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = uv.cdf(spec, m - s * ys)
        q = uv.quantile(spec, vs)
        back = uv.cdf(spec, q)
    assert got[-1] < 1e-99
    for g, y in zip(got, ys):
        assert g == pytest.approx(float(tail(y)), rel=1e-8)
    assert np.all(np.isfinite(q))
    assert back == pytest.approx(vs, rel=1e-8)
    for x, v in zip(q, vs):
        assert float(tail((m - x) / s)) == pytest.approx(v, rel=1e-8)


def test_moment_requires_even_order():
    al = uv.make("AL", {"a": 0, "b": 1, "s": 0.1})
    with pytest.raises(ValueError):
        uv.central_moment(al, 3)


@pytest.mark.parametrize("family", ["AL", "GN", "CF", "CH", "AN", "CC", "CE", "U"])
def test_closed_moments_match_quadrature(family):
    for params in CONFIG_GRID[family][:6]:
        spec = uv.make(family, params)
        for k in (2, 4):
            rep = uv.central_moment(spec, k)
            if rep.flag is not None:
                continue
            center = spec.mu if family == "GN" else spec.m
            hints = tuple(v for v in (spec.a, center, spec.b) if v is not None)
            lo, hi = uv.support(spec)
            oracle = integrate(lambda x: (x - center) ** k * uv.pdf(spec, x),
                               lo, hi, ORACLE_SETTINGS, points=hints).value
            assert rep.value == pytest.approx(oracle, rel=1e-6), (family, params, k)


def test_kurtosis_landmarks():
    al = uv.make("AL", {"a": -math.pi, "b": math.pi, "s": 1.0})
    assert uv.kurtosis(al) == pytest.approx(3.0, abs=1e-12)
    gn = uv.make("GN", {"mu": 0, "s": 1, "beta": 1000.0})
    assert uv.kurtosis(gn) == pytest.approx(1.8, abs=1e-3)
    cc = uv.make("CC", {"m": 0, "s": 1, "beta": 6})
    assert uv.kurtosis(cc) == pytest.approx(4.0, rel=1e-12)
    u = uv.make("U", {"a": 0, "b": 1})
    assert uv.kurtosis(u) == 1.8


def test_al_kurtosis_bounds_across_ratio_range():
    for ratio in np.geomspace(1e-3, 1e3, 25):
        al = uv.make("AL", {"a": -ratio, "b": ratio, "s": 1.0})
        k = uv.kurtosis(al)
        assert 1.8 < k <= 4.2


def test_kurtosis_divergence_flags():
    de = uv.make("DE", {"m": 0, "s": 1})
    assert math.isnan(uv.kurtosis(de))
    cc45 = uv.make("CC", {"m": 0, "s": 1, "beta": 4.5})
    assert math.isinf(uv.kurtosis(cc45))


# ---------------------------------------------------------------------------
# Approximation bridges
# ---------------------------------------------------------------------------

def test_al_surrogate_of_standard_normal():
    spec = uv.approx_al_from_normal(0.0, 1.0)
    assert spec.a == pytest.approx(-0.97741, abs=5e-6)
    assert spec.b == pytest.approx(0.97741, abs=5e-6)
    assert spec.s == pytest.approx(0.47712, abs=5e-6)
    assert uv.kurtosis(spec) == pytest.approx(3.48, abs=5e-3)
    xs = np.linspace(-6, 6, 2001)
    normal = np.exp(-0.5 * xs ** 2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(normal - uv.pdf(spec, xs))) < 0.0043


def test_al_surrogate_of_an():
    spec = uv.approx_al_from_an(0.0, 1.0, 1.0)
    assert spec.family == "AL"
    assert spec.s == pytest.approx(0.5877)
    # CDF surrogate bound: logistic vs normal CDF within 0.01.
    from scipy.special import erf as sperf, expit

    xs = np.linspace(-6, 6, 2001)
    f_n = 0.5 * (1 + sperf(xs / math.sqrt(2)))
    f_l = expit(xs / 0.5877)
    assert np.max(np.abs(f_n - f_l)) < 0.01


def test_bd_surrogate_of_bl():
    spec = uv.approx_bd_from_bl(0.0, 1.0, 0.05, 0.08)
    assert spec.family == "BD"
    assert spec.s == pytest.approx(0.05 * math.log(4.0))
    assert spec.t == pytest.approx(0.08 * math.log(4.0))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(CONFIG_GRID))
def test_json_round_trip_bit_exact(family):
    params = CONFIG_GRID[family][0]
    spec = uv.make(family, params)
    blob = json.dumps(uv.to_json_dict(spec))
    back = uv.from_json_dict(json.loads(blob))
    assert back == spec
    for key, value in spec.params().items():
        assert getattr(back, key) == value  # bitwise for finite doubles


def test_from_json_rejects_extra_keys():
    with pytest.raises(ValueError):
        uv.from_json_dict({"family": "U", "params": {"a": 0, "b": 1}, "x": 1})
