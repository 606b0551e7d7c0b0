"""Property tests over the parameter box, driven by hypothesis under the
derandomized profile of ``conftest.py``."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from flattop import mixture as mx, univariate as uv  # noqa: E402


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


# The criterion-3 box (width w = b - a in place of b) of every family whose
# quantile is numeric: Newton steps on its cdf from the spec's panel table.
NUMERIC_BOX = {
    "AN": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.1, 1.2)},
    "ALS": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.1, 0.8), "lam": (-0.8, 0.8)},
    "BL": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.08, 0.6), "t": (0.08, 0.6)},
    "BD": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.2, 1.0), "t": (0.2, 1.0)},
    "CF": {"m": (-1.0, 1.0), "r": (0.4, 2.5), "s": (0.2, 1.2), "beta": (1.0, 3.5)},
    "CE": {"a": (-3.0, 1.0), "w": (0.8, 8.0), "s": (0.4, 2.0)},
    "CH": {"m": (-1.0, 1.0), "r": (0.4, 2.5), "s": (0.2, 1.2), "beta": (1.0, 3.5)},
    "DE": {"m": (-1.0, 1.0), "s": (0.2, 2.0)},
}
_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# The v a seeded draw can meet: rng.random() gives multiples of 2^-53.
_V = st.floats(2.0 ** -53, 1.0 - 2.0 ** -53)


@pytest.mark.parametrize("family", sorted(NUMERIC_BOX))
@settings(max_examples=10)
@given(point=st.lists(_UNIT, min_size=4, max_size=4),
       v=st.lists(_V, min_size=1, max_size=20))
def test_numeric_cdf_monotone_and_quantile_round_trip(family, point, v):
    box = NUMERIC_BOX[family].items()
    params = {name: lo + (hi - lo) * u for (name, (lo, hi)), u in zip(box, point)}
    if "w" in params:
        params["b"] = params["a"] + params.pop("w")
    spec = uv.make(family, params)
    xs = uv.mode(spec) + max(uv._scale(spec), 0.5) * np.linspace(-12.0, 12.0, 97)
    c = uv.cdf(spec, xs)
    assert np.all((c >= 0.0) & (c <= 1.0))
    assert np.all(np.diff(c) >= (-1e-12 if family in ("AN", "DE") else 0.0))  # closed forms round
    v = np.array(v)
    assert np.max(np.abs(uv.cdf(spec, uv.quantile(spec, v)) - v)) < 1e-8
