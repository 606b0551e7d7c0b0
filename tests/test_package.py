import importlib

import pytest

import flattop

# Every name the package exported before its exports became lazy, by the
# submodule that defines it.
_EXPORTED = {
    "data_io": ("Dataset", "SegmentsScenario", "default_segments_scenario", "gen_mixed_1d",
                "gen_segments_2d", "read_csv", "write_csv"),
    "divergence": ("DivergenceResult", "GaussianND", "ball_vs_bestfit_normal",
                   "bestfit_normal_of_ball", "bestfit_normal_of_uniform", "chi_n",
                   "kl_numeric", "l1_numeric", "uniform_vs_bestfit_normal_1d"),
    "flatness": ("FlatnessReport", "canonical_boundaries", "delta_eps_flat",
                 "eps_flat_measure", "family_flat_bound", "flatness_report",
                 "fwhm_boundaries", "gn_flat_interval_ratio"),
    "mixture": ("ComponentCollapseError", "MixtureModel", "MixtureSettings", "e_step",
                "ftm_fit", "ftm_from_gmm", "gmm_fit", "m_step", "score", "sweep"),
    "mle": ("FitReport", "FitSettings", "fit", "grad_al", "grad_bl_flat", "grad_cl", "hess_al",
            "init_al_from_data", "init_al_from_normal_fit", "init_cl_from_data", "loglik_al",
            "loglik_bl", "loglik_cl"),
    "multivariate": ("MultivariateSpec", "mahalanobis", "make_mv", "mv_log_pdf",
                     "mv_normalizer", "mv_pdf", "mv_sample", "normalize_sigma"),
    "quadrature": ("QuadratureError", "QuadratureSettings", "integrate"),
    "specfun": ("erf", "fermi_dirac_complete", "incomplete_gamma", "log_beta", "polylog_neg"),
    "univariate": ("FAMILIES", "ConvergenceError", "MomentReport", "UnivariateSpec",
                   "approx_al_from_an", "approx_al_from_normal", "approx_bd_from_bl", "cdf",
                   "central_moment", "from_json_dict", "kurtosis", "log_pdf", "make", "mode",
                   "pdf", "quantile", "sample", "to_json_dict"),
}
_PAIRS = [(module, name) for module, names in _EXPORTED.items() for name in names]


def test_every_earlier_export_resolves_to_its_submodule_object():
    assert len(_PAIRS) == 81
    listed = dir(flattop)
    for module, name in _PAIRS:
        home = importlib.import_module(f"flattop.{module}")
        assert getattr(flattop, name) is getattr(home, name), name
        assert name in listed
    for module in (*_EXPORTED, "cli"):
        assert getattr(flattop, module) is importlib.import_module(f"flattop.{module}")
        assert module in listed
    assert flattop.__version__ == "0.1.0"


def test_star_import_binds_every_export():
    namespace = {}
    exec("from flattop import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == {name for _, name in _PAIRS} | set(_EXPORTED) | {"FlattopError",
                                                                     "FlatnessError"}
    for module, name in _PAIRS:
        assert namespace[name] is getattr(importlib.import_module(f"flattop.{module}"), name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        flattop.no_such_name
    with pytest.raises(ImportError):
        exec("from flattop import no_such_name", {})


@pytest.mark.parametrize("module, name", [
    ("quadrature", "QuadratureError"),
    ("univariate", "ConvergenceError"),
    ("flatness", "FlatnessError"),
    ("mixture", "ComponentCollapseError"),
])
def test_typed_errors_share_one_base(module, name):
    error = getattr(importlib.import_module(f"flattop.{module}"), name)
    assert issubclass(error, flattop.FlattopError)
    assert issubclass(error, RuntimeError)
    assert getattr(flattop, name) is error
    assert issubclass(flattop.FlattopError, RuntimeError)
