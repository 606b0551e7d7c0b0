import itertools
import json
import math

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


def test_quantile_roundtrip_all_families():
    vs = np.linspace(0.01, 0.99, 99)
    for family in sorted(CONFIG_GRID):
        spec = uv.make(family, CONFIG_GRID[family][0])
        tol = 1e-10 if family in ("U", "AL") else 1e-8
        q = uv.quantile(spec, vs)
        assert np.all(np.diff(q) > 0.0), family
        err = np.max(np.abs(uv.cdf(spec, q) - vs))
        assert err < tol, (family, err)


def test_quantile_domain_check():
    u = uv.make("U", {"a": 0, "b": 1})
    with pytest.raises(ValueError):
        uv.quantile(u, 0.0)
    with pytest.raises(ValueError):
        uv.quantile(u, 1.0)


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


def test_de_moments_flagged_infinite():
    de = uv.make("DE", {"m": 0, "s": 1})
    rep = uv.central_moment(de, 2)
    assert rep.flag == "infinite"
    assert rep.value is None


def test_cc_moment_existence_threshold():
    cc = uv.make("CC", {"m": 0, "s": 1, "beta": 6})
    assert uv.central_moment(cc, 4).flag is None
    assert uv.central_moment(cc, 6).flag == "infinite"


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
