"""Dependence-aware aggregation of binary judge votes.

Model hierarchy: conditionally-independent judges (majority votes and
Dawid-Skene-style EM) < shared-coupling Ising (linear correlation-corrected
vote) < class-dependent Ising (quadratic rule), plus an exchangeable
logistic-normal latent-factor model. Includes exact small-K enumeration,
Curie-Weiss simulators for the risk-separation experiments, and a CLI.

Submodules load on first use (PEP 562): ``import judgeagg`` imports none of
them, and ``judgeagg.em_fit_ising`` imports ``judgeagg.ising`` only when
first looked up.
"""

import importlib

# Public names, by the submodule that defines them.
_EXPORTS = {
    "ci": ("CIParams", "ci_log_odds", "ci_oracle_predict", "em_fit_ci", "sample_ci", "umv_predict", "wmv_predict"),
    "curie_weiss": ("CWClassSpec", "CWExperimentSpec", "magnetization_classifier", "magnetization_log_pmf",
                    "run_separation", "sample_cw", "solve_mean_field", "true_marginals"),
    "data": ("PosteriorVector", "SplitSpec", "VoteDataError", "VoteMatrix", "accuracy", "load_votes",
             "rng_from", "save_votes", "split"),
    "em": ("EMConfig",),
    "factor": ("FactorParams", "MultiFactorParams", "bayes_limit_score", "ci_limit_score", "em_fit_factor",
               "factor_to_ising", "marginal_success", "run_factor_separation", "sample_factor"),
    "ising": ("ExactEvidenceUnavailable", "IsingParams", "K_MAX_EXACT", "bayes_log_odds", "ci_from_marginals",
              "class_conditional_prob", "em_fit_ising", "energy", "log_partition", "pseudo_log_likelihood",
              "pseudo_log_likelihood_grad", "sample_ising"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
