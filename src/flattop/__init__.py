"""Flat-topped probability distributions and mixture modeling tools.

The package covers twelve univariate families that interpolate between
bell-shaped and rectangular, their flatness criteria, elliptical
multivariate counterparts, maximum-likelihood fitting by monotone
coordinate ascent, and a generalized-EM mixture pipeline with AIC/BIC
model selection.
"""

from .data_io import (
    Dataset,
    SegmentsScenario,
    default_segments_scenario,
    gen_mixed_1d,
    gen_segments_2d,
    read_csv,
    write_csv,
)
from .divergence import (
    DivergenceResult,
    GaussianND,
    ball_vs_bestfit_normal,
    bestfit_normal_of_ball,
    bestfit_normal_of_uniform,
    chi_n,
    kl_numeric,
    l1_numeric,
    uniform_vs_bestfit_normal_1d,
)
from .flatness import (
    FlatnessReport,
    canonical_boundaries,
    delta_eps_flat,
    eps_flat_measure,
    family_flat_bound,
    flatness_report,
    fwhm_boundaries,
    gn_flat_interval_ratio,
)
from .mixture import (
    ComponentCollapseError,
    MixtureModel,
    MixtureSettings,
    e_step,
    ftm_fit,
    ftm_from_gmm,
    gmm_fit,
    m_step,
    score,
    sweep,
)
from .mle import (
    FitReport,
    FitSettings,
    fit,
    grad_al,
    grad_bl_flat,
    grad_cl,
    hess_al,
    init_al_from_data,
    init_al_from_normal_fit,
    init_cl_from_data,
    loglik_al,
    loglik_bl,
    loglik_cl,
)
from .multivariate import (
    MultivariateSpec,
    mahalanobis,
    make_mv,
    mv_log_pdf,
    mv_normalizer,
    mv_pdf,
    mv_sample,
    normalize_sigma,
)
from .quadrature import QuadratureError, QuadratureSettings, integrate
from .specfun import (
    erf,
    fermi_dirac_complete,
    fermi_dirac_incomplete,
    incomplete_gamma,
    log_beta,
    polylog_neg,
)
from .univariate import (
    FAMILIES,
    ConvergenceError,
    MomentReport,
    UnivariateSpec,
    approx_al_from_an,
    approx_al_from_normal,
    approx_bd_from_bl,
    cdf,
    central_moment,
    from_json_dict,
    kurtosis,
    log_pdf,
    make,
    mode,
    pdf,
    quantile,
    sample,
    to_json_dict,
)

__version__ = "0.1.0"
