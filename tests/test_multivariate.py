import hashlib
import json
import math

import numpy as np
import pytest

from flattop import multivariate as mv, specfun, univariate as uv


def test_make_validates_inputs():
    with pytest.raises(ValueError, match="unknown family"):
        mv.make_mv("XX", [0, 0], r=1, t=1)
    with pytest.raises(ValueError, match="positive definite"):
        mv.make_mv("CL", [0, 0], r=1, t=1, sigma=[[1, 2], [2, 1]])
    with pytest.raises(ValueError, match="symmetric"):
        mv.make_mv("CL", [0, 0], r=1, t=1, sigma=[[1, 0.5], [0.1, 1]])
    with pytest.raises(ValueError, match="slope t"):
        mv.make_mv("CL", [0, 0], r=1)
    with pytest.raises(ValueError, match="dispersion r"):
        mv.make_mv("MU", [0, 0], r=-1)


# r^n overflows (the first three used to store c = 0.0 or raise a bare
# OverflowError), r^n t overflows, 1/t overflows.
@pytest.mark.parametrize("family, r, t", [
    ("CL", 1e200, 1.0), ("CM", 1e200, 1.0), ("CL", 1e160, 1e160), ("MU", 1e200, None),
    ("CL", 1e100, 1e300), ("CM", 1e100, 1e300), ("CL", 1.0, 1e-320), ("CM", 1.0, 1e-320)])
def test_make_rejects_a_radial_law_out_of_range(family, r, t):
    with pytest.raises(ValueError, match=rf"^{family}: requires a finite, positive r\^n") as info:
        mv.make_mv(family, [0.0, 0.0], r=r, t=t)
    assert f"r={r}, t={t}" in str(info.value) and "s=" not in str(info.value)


def test_mahalanobis_identity_and_diagonal():
    spec = mv.make_mv("CL", [0, 0], r=1, t=1)
    assert mv.mahalanobis([3.0, 4.0], spec) == pytest.approx(5.0)
    assert mv.mahalanobis([0.0, 0.0], spec) == 0.0
    diag = mv.make_mv("CL", [0, 0], r=1, t=1, sigma=[[4, 0], [0, 1]])
    assert mv.mahalanobis([2.0, 0.0], diag) == pytest.approx(1.0)


def test_mahalanobis_dimension_mismatch():
    spec = mv.make_mv("CL", [0, 0], r=1, t=1)
    with pytest.raises(ValueError):
        mv.mahalanobis([1.0, 2.0, 3.0], spec)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_raise(bad):
    spec = mv.make_mv("CL", [0, 0], r=1, t=1, sigma=[[2, 0.5], [0.5, 1]])
    for fn in (lambda x: mv.mahalanobis(x, spec), lambda x: mv.mv_log_pdf(spec, x),
               lambda x: mv.mv_pdf(spec, x)):
        with pytest.raises(ValueError, match="infs or NaNs"):
            fn([bad, 0.0])
        with pytest.raises(ValueError, match="infs or NaNs"):
            fn([[0.0, 1.0], [1.0, bad]])


# ---------------------------------------------------------------------------
# Normalizers and pointwise values
# ---------------------------------------------------------------------------

def _ref_normalizer(spec):
    """The per-family closed forms the radial laws replaced."""
    n, r = spec.n, spec.r
    log_unit = math.lgamma(n / 2.0 + 1.0) - (n / 2.0) * math.log(math.pi)
    if spec.family == "MU":
        return math.exp(log_unit - n * math.log(r))
    if spec.family == "CL":
        return math.exp(log_unit - n * math.log(r) - 0.5 * spec.log_det)
    return math.exp(math.log(spec.t) + log_unit - 0.5 * spec.log_det
                    - math.log(float(specfun.softplus(r ** n * spec.t))))


def _ref_log_pdf(spec, x):
    rho, n, r, log_c = mv.mahalanobis(x, spec), spec.n, spec.r, math.log(_ref_normalizer(spec))
    if spec.family == "MU":
        return np.where(rho <= r, log_c, -math.inf)
    if spec.family == "CM":
        return log_c - specfun.softplus((rho ** n - r ** n) * spec.t)
    return log_c + specfun.log_sinh_ratio(rho ** n * spec.t, r ** n * spec.t)


@pytest.mark.parametrize("family", ["CM", "CL", "MU"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_radial_laws_match_the_closed_forms(family, n):
    rng = np.random.default_rng(10 * n + len(family))
    for t in (0.3, 1.0, 20.0, 1e4, 1e10, 1e17):
        a = rng.normal(size=(n, n))
        sigma = np.eye(n) if family == "MU" else a @ a.T + 0.3 * np.eye(n)
        spec = mv.make_mv(family, rng.normal(size=n), float(rng.uniform(0.3, 2.0)), t, sigma)
        assert spec.c == pytest.approx(_ref_normalizer(spec), rel=1e-13)
        # rho = 1.5 r chi_n / sqrt(n): points inside and outside the top.
        pts = spec.m + 1.5 * spec.r / math.sqrt(n) * rng.normal(size=(100, n)) @ spec.chol.T
        got, ref = mv.mv_log_pdf(spec, pts), _ref_log_pdf(spec, pts)
        live = np.isfinite(ref)
        assert np.array_equal(np.isfinite(got), live)
        assert np.all(got[~live] == -math.inf) and live.any()
        assert family != "MU" or not live.all()
        assert np.max(np.abs(got[live] - ref[live]) / np.abs(ref[live])) < 1e-13

def test_cl_normalizer_closed_forms():
    assert mv.make_mv("CL", [0, 0], r=1, t=5).c == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert mv.make_mv("CL", [0, 0, 0], r=2, t=1).c == pytest.approx(
        3.0 / (32.0 * math.pi), rel=1e-14)
    skew = mv.make_mv("CL", [0, 0], r=1, t=1, sigma=[[4, 0], [0, 1]])
    assert skew.c == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_cm_normalizer_matches_univariate_constant():
    cm1 = mv.make_mv("CM", [0.0], r=1.0, t=1.0)
    assert cm1.c == pytest.approx(1.0 / (2.0 * math.log(1.0 + math.e)), rel=1e-13)


def test_cl_height_at_center():
    cl = mv.make_mv("CL", [0, 0], r=1, t=5)
    assert mv.mv_pdf(cl, [0.0, 0.0]) == pytest.approx(math.tanh(2.5) / math.pi, rel=1e-13)
    steep = mv.make_mv("CL", [0, 0], r=1, t=1e17)
    assert mv.mv_pdf(steep, [0.0, 0.0]) == pytest.approx(1.0 / math.pi, rel=1e-13)


def test_mu_is_uniform_on_the_disk():
    ball = mv.make_mv("MU", [0, 0], r=1)
    assert mv.mv_pdf(ball, [0.3, 0.2]) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert mv.mv_pdf(ball, [1.2, 0.0]) == 0.0


def test_cm_half_height_at_boundary():
    cm = mv.make_mv("CM", [0, 0], r=1, t=5)
    assert mv.mv_pdf(cm, [1.0, 0.0]) == pytest.approx(cm.c / 2.0, rel=1e-13)


@pytest.mark.parametrize("family,t", [("CM", 2.0), ("CL", 2.0)])
def test_dimension_one_reduces_to_univariate(family, t):
    spec = mv.make_mv(family, [0.0], r=1.0, t=t)
    xs = np.linspace(-4, 4, 41)
    mv_vals = mv.mv_pdf(spec, xs.reshape(-1, 1))
    if family == "CM":
        ref = uv.make("CF", {"m": 0, "r": 1, "s": 1.0 / t, "beta": 1})
    else:
        ref = uv.make("CH", {"m": 0, "r": 1, "s": 1.0 / t, "beta": 1})
    assert np.max(np.abs(mv_vals - uv.pdf(ref, xs))) < 1e-12


def test_affine_equivariance():
    rng = np.random.default_rng(5)
    base = mv.make_mv("CL", [0.5, -0.2], r=1.3, t=4.0, sigma=[[1.0, 0.2], [0.2, 0.7]])
    a_mat = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    shift = rng.normal(size=2)
    pushed = mv.make_mv("CL", a_mat @ base.m + shift, r=1.3, t=4.0,
                        sigma=a_mat @ base.sigma @ a_mat.T)
    pts = rng.normal(size=(20, 2))
    lhs = mv.mv_pdf(pushed, pts @ a_mat.T + shift)
    rhs = mv.mv_pdf(base, pts) / abs(np.linalg.det(a_mat))
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_cl_limits_to_uniform_ball():
    cl = mv.make_mv("CL", [0, 0], r=1, t=1e4)
    ball = mv.make_mv("MU", [0, 0], r=1)
    inside = np.array([[0.5, 0.0], [0.0, -0.7]])
    outside = np.array([[1.5, 0.0], [0.0, 2.0]])
    assert np.allclose(mv.mv_pdf(cl, inside), mv.mv_pdf(ball, inside), rtol=1e-10)
    assert np.all(mv.mv_pdf(cl, outside) < 1e-200)


def test_log_pdf_stable_for_steep_slopes():
    cl = mv.make_mv("CL", [0, 0], r=1, t=1e6)
    val = mv.mv_log_pdf(cl, [0.5, 0.0])
    assert math.isfinite(val)
    assert val == pytest.approx(math.log(1.0 / math.pi), rel=1e-10)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_mu_sampling_squared_radius_uniform():
    ball = mv.make_mv("MU", [0, 0], r=1)
    ds = mv.mv_sample(ball, 100_000, seed=3)
    u = np.sort(np.sum(ds.rows ** 2, axis=1))
    n = u.size
    ks = max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(0, n) / n))
    assert u.max() <= 1.0
    assert ks < 1.36 / math.sqrt(n)


def test_cl_sampling_mean_and_shell_fraction():
    cl = mv.make_mv("CL", [2.0, -1.0], r=1.0, t=20.0)
    ds = mv.mv_sample(cl, 100_000, seed=7)
    se = ds.rows.std(axis=0) / math.sqrt(len(ds))
    assert np.all(np.abs(ds.rows.mean(axis=0) - [2.0, -1.0]) < 3.0 * se)
    rho = np.linalg.norm(ds.rows - [2.0, -1.0], axis=1)
    frac = float(np.mean(rho <= 1.0))
    # Closed-form radial law: u = rho^2 follows the folded logistic-difference
    # law, so P(rho <= 1) comes from its CDF.
    alx = uv.make("AL", {"a": -1.0, "b": 1.0, "s": 1.0 / 20.0})
    pred = float(uv.cdf(alx, 1.0) - uv.cdf(alx, -1.0))
    assert frac == pytest.approx(pred, abs=3.0 * math.sqrt(pred * (1 - pred) / len(ds)))


def test_cl_draws_are_pinned():
    """The digest of these draws (a benchmark's CL data) as the per-family
    radial quantile gave them: AL(-R, R, 1/t) runs the same arithmetic."""
    rows = mv.mv_sample(mv.make_mv("CL", [0, 0], 1.0, 20.0), 1000, 20260808).rows
    assert (hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest()
            == "d6a10190ee332ec9392f46eafff8eb53210be49003879100359d3923bdd16feb")


@pytest.mark.parametrize("family", ["CM", "CL", "MU"])
def test_draws_at_the_ends_of_the_uniform(monkeypatch, family):
    """v = 0 puts u at 0; at v = 1 - 2^-53, (1 + v)/2 rounds to 1, where the
    radial quantile is infinite."""
    real = np.random.default_rng(0)

    class Ends:
        def random(self, count):
            return np.array([0.0, 1.0 - 2.0 ** -53])

        def standard_normal(self, shape):
            return real.standard_normal(shape)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Ends())
    spec = mv.make_mv(family, [1.0, -1.0], r=1.0, t=20.0)
    rho = mv.mahalanobis(mv.mv_sample(spec, 2, 0).rows, spec)
    assert rho[0] < 1e-7 and 0.99 < rho[1] < math.inf


def test_sampling_deterministic():
    cl = mv.make_mv("CL", [0, 0], r=1, t=5)
    a = mv.mv_sample(cl, 64, seed=9)
    b = mv.mv_sample(cl, 64, seed=9)
    assert np.array_equal(a.rows, b.rows)


# ---------------------------------------------------------------------------
# Monte-Carlo normalization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["CM", "CL"])
@pytest.mark.parametrize("n", [2, 3])
def test_mc_normalization(family, n):
    spec = mv.make_mv(family, np.zeros(n), r=1.2, t=6.0,
                      sigma=np.eye(n) + 0.1 * np.ones((n, n)))
    rng = np.random.default_rng(100 + n)
    draws = 200_000
    sd = math.sqrt(max(1.2 ** 2, 1.0 / 6.0) * 1.5)
    z = rng.standard_normal((draws, n)) * sd
    x = z @ spec.chol.T + spec.m
    log_h = (-0.5 * np.sum((z / sd) ** 2, axis=1)
             - n * math.log(sd) - 0.5 * n * math.log(2.0 * math.pi)
             - 0.5 * spec.log_det)
    w = np.exp(mv.mv_log_pdf(spec, x) - log_h)
    est = float(np.mean(w))
    se = float(np.std(w, ddof=1) / math.sqrt(draws))
    assert abs(est - 1.0) <= 3.0 * se
    assert se < 0.01


# ---------------------------------------------------------------------------
# Redundancy normalization and JSON
# ---------------------------------------------------------------------------

def test_normalize_sigma_keeps_density():
    spec = mv.make_mv("CL", [1.0, 2.0], r=1.5, t=3.0, sigma=[[2.0, 0.4], [0.4, 1.1]])
    normed = mv.normalize_sigma(spec)
    assert np.linalg.det(normed.sigma) == pytest.approx(1.0, rel=1e-12)
    pts = np.random.default_rng(1).normal(size=(30, 2), scale=2.0) + [1.0, 2.0]
    assert np.allclose(mv.mv_pdf(spec, pts), mv.mv_pdf(normed, pts), rtol=1e-11)


def test_json_round_trip():
    spec = mv.make_mv("CL", [1.0, -2.0], r=0.8, t=12.0, sigma=[[1.0, 0.3], [0.3, 2.0]])
    blob = json.dumps(mv.mv_to_json_dict(spec))
    back = mv.mv_from_json_dict(json.loads(blob))
    assert back.family == "CL"
    assert np.array_equal(back.m, spec.m)
    assert np.array_equal(back.sigma, spec.sigma)
    assert back.r == spec.r and back.t == spec.t


def test_json_validates_on_load():
    spec = mv.make_mv("MU", [0, 0], r=1)
    obj = mv.mv_to_json_dict(spec)
    obj["Sigma"] = [[1, 2], [2, 1]]
    with pytest.raises(ValueError):
        mv.mv_from_json_dict(obj)
    obj2 = mv.mv_to_json_dict(spec)
    obj2["n"] = 3
    with pytest.raises(ValueError):
        mv.mv_from_json_dict(obj2)
