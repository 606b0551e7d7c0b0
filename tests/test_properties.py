"""Property tests over the parameter box, driven by hypothesis under the
derandomized profile of ``conftest.py``."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from flattop import mixture as mx  # noqa: E402


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
