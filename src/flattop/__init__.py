"""Flat-topped probability distributions and mixture modeling tools.

The package covers twelve univariate families that interpolate between
bell-shaped and rectangular, their flatness criteria, elliptical
multivariate counterparts, maximum-likelihood fitting by monotone
ascent (block Newton steps for the logistic difference), and a
generalized-EM mixture pipeline with AIC/BIC model selection.

``import flattop`` loads no submodule: each exported name is looked up in
``_EXPORTS`` and its submodule imported on first use (PEP 562), so a
command pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"


class FlattopError(RuntimeError):
    """Base of the package's typed errors: a numeric procedure that could
    not deliver a trustworthy result."""


_SUBMODULES = ("data_io", "divergence", "flatness", "mixture", "mle", "multivariate",
               "quadrature", "specfun", "univariate")

_EXPORTS = {
    name: module
    for module, names in {
        "data_io": ("Dataset", "SegmentsScenario", "default_segments_scenario",
                    "gen_mixed_1d", "gen_segments_2d", "read_csv", "write_csv"),
        "divergence": ("DivergenceResult", "GaussianND", "ball_vs_bestfit_normal",
                       "bestfit_normal_of_ball", "bestfit_normal_of_uniform", "chi_n",
                       "kl_numeric", "l1_numeric", "uniform_vs_bestfit_normal_1d"),
        "flatness": ("FlatnessError", "FlatnessReport", "canonical_boundaries",
                     "delta_eps_flat", "eps_flat_measure", "family_flat_bound",
                     "flatness_report", "fwhm_boundaries", "gn_flat_interval_ratio"),
        "mixture": ("ComponentCollapseError", "MixtureModel", "MixtureSettings", "e_step",
                    "ftm_fit", "ftm_from_gmm", "gmm_fit", "m_step", "score", "sweep"),
        "mle": ("FitReport", "FitSettings", "fit", "grad_al", "grad_bl_flat", "grad_cl",
                "hess_al", "init_al_from_data", "init_al_from_normal_fit",
                "init_cl_from_data", "loglik_al", "loglik_bl", "loglik_cl"),
        "multivariate": ("MultivariateSpec", "mahalanobis", "make_mv", "mv_log_pdf",
                         "mv_normalizer", "mv_pdf", "mv_sample", "normalize_sigma"),
        "quadrature": ("QuadratureError", "QuadratureSettings", "integrate"),
        "specfun": ("erf", "fermi_dirac_complete", "incomplete_gamma", "log_beta",
                    "polylog_neg"),
        "univariate": ("FAMILIES", "ConvergenceError", "MomentReport", "UnivariateSpec",
                       "approx_al_from_an", "approx_al_from_normal", "approx_bd_from_bl",
                       "cdf", "central_moment", "from_json_dict", "kurtosis", "log_pdf",
                       "make", "mode", "pdf", "quantile", "sample", "to_json_dict"),
    }.items()
    for name in names
}

__all__ = ["FlattopError", *_EXPORTS, *_SUBMODULES]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES or name == "cli":
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "cli"})
