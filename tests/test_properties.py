"""Property tests over the parameter box, driven by hypothesis under the
derandomized profile of ``conftest.py``."""

from functools import partial

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from flattop import mixture as mx, univariate as uv  # noqa: E402
from flattop.quadrature import integrate  # noqa: E402


@settings(max_examples=25)
@given(loc=st.floats(-1e8, 1e8), log_span=st.floats(-9.0, 3.0),
       k=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1))
def test_gem_is_monotone_from_near_constant_to_wide_data(loc, log_span, k, seed):
    # 60 points loc + span U(0, 1): below span ~ ulp(loc) they take only a
    # few distinct values, which is where the E-step and the M-step used to
    # disagree (traces fell by up to 1e-4) and b - a could round to 0.
    x = loc + 10.0 ** log_span * np.random.default_rng(seed).random(60)
    assume(np.ptp(x) > 0)  # all points equal: a ValueError by design
    base, _ = mx.gmm_fit(x, k, seed=0)
    _, report = mx.ftm_fit(x, mx.ftm_from_gmm(base))
    assert np.all(np.diff(report.loglik_trace) >= -1e-9)


# The criterion-3 box of every family, as drawn by _acceptance_configs in
# tests/test_acceptance.py: (low, high) per parameter, with the width
# w = b - a drawn in place of b.
BOX = {
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
# The families whose quantile is numeric: Newton steps on its cdf from the
# spec's panel table.
NUMERIC = ("AN", "ALS", "BL", "BD", "CF", "CE", "CH", "DE")
_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_POINT = st.lists(_UNIT, min_size=4, max_size=4)
# The v a seeded draw can meet: rng.random() gives multiples of 2^-53.
_V = st.floats(2.0 ** -53, 1.0 - 2.0 ** -53)


def _spec(family, point):
    """The spec at ``point`` of the unit cube, mapped onto the family's box."""
    params = {name: lo + (hi - lo) * u for (name, (lo, hi)), u in zip(BOX[family].items(), point)}
    if "w" in params:
        params["b"] = params["a"] + params.pop("w")
    return uv.make(family, params)


def _window(spec):
    """The mode -+ 12 scales, on 97 points."""
    return uv.mode(spec) + max(uv._scale(spec), 0.5) * np.linspace(-12.0, 12.0, 97)


@pytest.mark.parametrize("family", sorted(BOX))
@settings(max_examples=15)
@given(point=_POINT)
def test_pdf_finite_nonnegative_and_normalized(family, point):
    spec = _spec(family, point)
    far = np.array([-1e300, -1e30, 1e30, 1e300])
    p = uv.pdf(spec, np.concatenate((_window(spec), far)))
    assert np.all(np.isfinite(p) & (p >= 0.0))
    assert not np.any(np.isnan(uv.log_pdf(spec, far)))
    c = uv.cdf(spec, far)
    assert np.all((c >= 0.0) & (c <= 1.0))
    mass = integrate(partial(uv.pdf, spec), -np.inf, np.inf, points=uv._table(spec)[0]).value
    assert abs(mass - 1.0) < 1e-8


@pytest.mark.parametrize("family", sorted(NUMERIC))
@settings(max_examples=10)
@given(point=_POINT, v=st.lists(_V, min_size=1, max_size=20))
def test_numeric_cdf_monotone_and_quantile_round_trip(family, point, v):
    spec = _spec(family, point)
    c = uv.cdf(spec, _window(spec))
    assert np.all((c >= 0.0) & (c <= 1.0))
    assert np.all(np.diff(c) >= (-1e-12 if family in ("AN", "DE") else 0.0))  # closed forms round
    v = np.array(v)
    assert np.max(np.abs(uv.cdf(spec, uv.quantile(spec, v)) - v)) < 1e-8


@pytest.mark.parametrize("family", ["ALS", "BD", "BL"])
@settings(max_examples=40)
@given(w=st.floats(0.8, 5000.0), s=st.floats(0.05, 1.0), t=st.floats(0.05, 1.0),
       lam=st.floats(-0.99, 0.99))
def test_the_log_density_slope_changes_sign_once_at_the_mode(family, w, s, t, lam):
    """The mode is found by bisection on the sign of ``slope``, which is
    sound where that sign changes once: BL and BD are log-concave, and the
    ALS slope compares f(w1) with f(w2) for a unimodal f.  On 4001 points
    across the search bracket the slope is positive below the mode and
    negative above it, outside a rounding band around the mode."""
    params = {"a": 0.0, "b": w, "s": s, **({"lam": lam} if family == "ALS" else {"t": t})}
    spec = uv.make(family, params)
    mode = uv.mode(spec)
    shoulders = 20.0 * (spec.s + (spec.t or spec.s))
    x = np.linspace(spec.a - shoulders, spec.b + shoulders, 4001)
    g = uv._FAMILY[family].slope(spec, x)
    away = np.abs(x - mode) > 1e-9 * max(1.0, abs(mode))
    assert np.all(g[away & (x < mode)] > 0.0)
    assert np.all(g[away & (x > mode)] < 0.0)
