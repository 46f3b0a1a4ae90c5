"""Kernel mixture of polynomials: Bayesian nonparametric regression with
partition-local polynomial bases, boxed-kernel mixture weights, exact-
conditional MCMC, a conjugate fixed-design variant, a partial linear model,
a frequentist sieve estimator, and classical baselines.
"""

from .baselines import (GpConfig, GpFit, LocalFitConfig, gp_covariance,
                        local_poly_estimate, nw_estimate, rescaled_gp_fit)
from .core import (KERNEL_FAMILIES, KernelSpec, KmpParams, MultiIndexSet,
                   PartitionGrid, basis_matrix, eval_basis, eval_f,
                   eval_kernel, mixture_weights, taylor_project)
from .dataset import Dataset, load_csv, save_csv, wage_preprocess
from .fixed_design import (ConjugatePosterior, choose_Kn, conjugate_fit,
                           empirical_l2, fixed_design_params)
from .harness import (CoverageReport, ScenarioSpec, run_benchmark,
                      run_coverage, truth_plm_eta, truth_volterra)
from .plm import BvmDiagnostic, bvm_diagnostic, gibbs_beta, run_plm_chain
from .priors import PriorConfig, log_prior_density, prior_K_tail, sample_prior
from .sampler import McmcConfig, PosteriorDraws, loglik, run_chain
from .sieve import SieveConfig, SieveFit, fit_sieve_mle, solve_xi_box
from .summaries import (CredibleSummary, DicReport, dic, dic_parts,
                        l2_credible_set, pointwise_band, predict, select_K)

__version__ = "0.1.0"

__all__ = [
    "BvmDiagnostic", "ConjugatePosterior", "CoverageReport",
    "CredibleSummary", "Dataset", "DicReport", "GpConfig", "GpFit",
    "KERNEL_FAMILIES", "KernelSpec", "KmpParams", "LocalFitConfig",
    "McmcConfig", "MultiIndexSet", "PartitionGrid", "PosteriorDraws",
    "PriorConfig", "ScenarioSpec", "SieveConfig", "SieveFit", "basis_matrix", "bvm_diagnostic", "choose_Kn",
    "conjugate_fit", "dic", "dic_parts", "empirical_l2", "eval_basis",
    "eval_f", "eval_kernel", "fit_sieve_mle", "fixed_design_params",
    "gibbs_beta", "gp_covariance", "l2_credible_set", "load_csv",
    "local_poly_estimate", "log_prior_density", "loglik", "mixture_weights",
    "nw_estimate", "pointwise_band", "predict", "prior_K_tail",
    "rescaled_gp_fit", "run_benchmark", "run_chain", "run_coverage",
    "run_plm_chain", "sample_prior", "save_csv", "select_K",
    "solve_xi_box", "taylor_project", "truth_plm_eta", "truth_volterra",
    "wage_preprocess", "__version__",
]
