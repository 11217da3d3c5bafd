"""Shared machinery for the unsupervised EM fitters.

All model families (conditionally-independent, Ising, latent-factor) follow
the same loop: initialize per-item responsibilities, alternate a weighted
M-step with a posterior E-step, track a monotone objective, and resolve the
global label-flip ambiguity at the end.

Every step touches the data only through weighted sums over vote rows, so
the loops run over the distinct rows (:func:`vote_patterns`): a pattern
carries its item count and its summed class-1 responsibility ``w1``, with
``w0 = counts - w1`` for class 0. Every posterior, in a fit and in
:func:`predict`, is logit(pi) + s1 - s0 from the parameters'
``log_scores(rows) -> (s1, s0)``, the class log-likelihoods of each row.

:func:`run` is the loop, written once, and the only caller of
:func:`mixture_estep`. A model family plugs in as a class built once per
restart as ``family(patterns, trace)``, with three methods:

- ``step(w1, w0, pi) -> (s1, s0, penalty)``: one M-step from the class
  weights, then the new parameters' pattern log-scores and log prior;
- ``params(pi)``: the current parameters, with class prior ``pi``; they
  provide ``pi``, ``k``, ``flipped()`` and ``log_scores``;
- ``orientation(params)``: the weight sum :func:`resolve_flip` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logsumexp

from .data import PosteriorVector, VoteDataError, VoteMatrix, rng_from, vote_patterns

# Initialization strategies tried by the Ising/factor fitters, in order of
# preference when objectives tie: warm start from the CI solution, then
# majority-vote fraction, then the agreement statistic |2*frac - 1| (which
# separates classes whose signal lives in co-voting rather than in marginals).
INIT_STRATEGIES = ("ci", "majority", "agreement")

# Relative objective margin a later restart must win by to displace an
# earlier (more-preferred) one.
RESTART_MARGIN = 1e-4

# |judge weight sum| below which :func:`resolve_flip` falls back to class balance.
ANCHOR_TOL = 0.1

# The class prior is kept this far inside (0,1): unanimous votes drive every
# responsibility to exactly 0 or 1, where logit(pi) is undefined.
PI_EPS = 1e-12


@dataclass(frozen=True)
class EMConfig:
    """Knobs shared by every EM fitter; exposed one-to-one as CLI flags."""

    tol: float = 1e-6
    max_iters: int = 200
    seed: int = 0
    prior_a: float = 2.0
    prior_b: float = 2.0

    def __post_init__(self):
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters at least 1")
        if self.prior_a < 1.0 or self.prior_b < 1.0:
            raise ValueError("Beta prior parameters must be >= 1 (log-concave MAP updates)")


@dataclass
class EMTrace:
    """Diagnostics from one EM run.

    `objective` is the quantity the fitter provably does not decrease
    (penalized observed log-likelihood for exact E-steps, the corresponding
    surrogate mixture objective otherwise). `loglik` is the unpenalized
    observed-data log-likelihood under the same evidence.
    """

    objective: list[float] = field(default_factory=list)
    loglik: list[float] = field(default_factory=list)
    n_iters: int = 0
    converged: bool = False
    flipped: bool = False
    init_used: str = ""
    notes: list[str] = field(default_factory=list)


@dataclass
class EMFit:
    """Fitted parameters, per-item posteriors, and run diagnostics."""

    params: object
    posterior: PosteriorVector
    trace: EMTrace


def init_gamma(votes: np.ndarray, seed: int, strategy: str = "majority", stream: int = 0) -> np.ndarray:
    """Initial responsibilities from the vote matrix.

    majority: per-item vote fraction; agreement: |2*fraction - 1|. Both get a
    seeded +-0.05 jitter to break pattern ties, then are clipped interior.
    """
    frac = votes.mean(axis=1)
    if strategy == "majority":
        base = frac
    elif strategy == "agreement":
        base = np.abs(2.0 * frac - 1.0)
    else:
        raise ValueError(f"unknown init strategy {strategy!r}")
    rng = rng_from(seed, 91, stream)
    jitter = rng.uniform(-0.05, 0.05, size=len(frac))
    return np.clip(base + jitter, 1e-3, 1.0 - 1e-3)


def class_prior(w1: np.ndarray, w0: np.ndarray) -> float:
    """M-step class prior: share of the class-1 weight, kept inside (0,1)."""
    s1 = w1.sum()
    return float(np.clip(s1 / (s1 + w0.sum()), PI_EPS, 1.0 - PI_EPS))


def judge_weights(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-judge weighted-vote weights log(alpha*beta / ((1-alpha)(1-beta))).

    Positive exactly when alpha + beta > 1, i.e. the judge beats random
    guessing; negative for adversarial judges.
    """
    return np.log(alpha) + np.log(beta) - np.log1p(-alpha) - np.log1p(-beta)


def resolve_flip(weight_sum: float, pi: float) -> bool:
    """Decide whether to flip the fitted labeling.

    Primary anchor: orient so fitted judges are on average better than random
    (sum of weighted-vote weights >= 0). When the marginals carry essentially
    no orientation signal (|sum| < ANCHOR_TOL), fall back to class balance and
    call the larger class "1". Returns True if the labeling should flip.
    """
    if abs(weight_sum) >= ANCHOR_TOL:
        return weight_sum < 0
    return pi < 0.5


def relative_change(new: float, old: float) -> float:
    return abs(new - old) / (1.0 + abs(new))


def _posterior(pi: float, s1: np.ndarray, s0: np.ndarray) -> np.ndarray:
    return expit(np.log(pi / (1.0 - pi)) + s1 - s0)


def mixture_estep(counts: np.ndarray, pi: float, s1: np.ndarray, s0: np.ndarray) -> tuple[np.ndarray, float]:
    """Posteriors and observed log-likelihood from per-pattern class log-scores s1, s0."""
    ll = float(counts @ logsumexp(np.stack([np.log(pi) + s1, np.log1p(-pi) + s0]), axis=0))
    return _posterior(pi, s1, s0), ll


def predict(params, v: VoteMatrix) -> PosteriorVector:
    """Per-item posterior Pr(Y=1 | votes) under fixed parameters of any model family.

    The distinct rows of ``v`` are scored as a fit scores its returned
    posterior, so ``predict(fit.params, v)`` equals ``fit.posterior`` bit for
    bit. A judge count other than the model's is a :class:`VoteDataError`.
    """
    if v.k != params.k:
        raise VoteDataError(f"the model was fitted on {params.k} judges but the votes have {v.k}")
    patterns, _, inverse = vote_patterns(v.votes)
    return _predict_rows(params, patterns, inverse)


def _predict_rows(params, patterns: np.ndarray, inverse: np.ndarray) -> PosteriorVector:
    return PosteriorVector(_posterior(params.pi, *params.log_scores(patterns))[inverse])


def run(v: VoteMatrix, family, config: EMConfig, strategies=INIT_STRATEGIES, ci_fit=None) -> EMFit:
    """Fit one model family by EM over the distinct vote rows of ``v``.

    Runs one restart per initialization strategy, in order: "ci" starts from
    ``ci_fit(v, config)``'s posteriors (clipped interior), the others from
    :func:`init_gamma`. Each restart alternates ``family.step`` until the
    objective's relative change falls below ``config.tol`` or
    ``config.max_iters`` steps. A later restart replaces the best so far only
    if it wins by :data:`RESTART_MARGIN`; the winner's labeling is then
    oriented by :func:`resolve_flip`, and the posterior is :func:`predict`'s
    at those final parameters.
    """
    if v.n < 2:
        raise ValueError("an EM fit requires at least 2 items")
    patterns, counts, inverse = vote_patterns(v.votes)
    best = None
    for stream, strategy in enumerate(strategies):
        if strategy == "ci":
            gamma0 = np.clip(ci_fit(v, config).posterior.gamma, 1e-3, 1 - 1e-3)
        else:
            gamma0 = init_gamma(v.votes, config.seed, strategy, stream=0 if strategy == "majority" else stream)
        w1 = np.bincount(inverse, weights=gamma0)
        trace = EMTrace(init_used=strategy)
        model = family(patterns, trace)
        prev = -np.inf
        for _ in range(config.max_iters):
            w0 = counts - w1
            pi = class_prior(w1, w0)
            s1, s0, penalty = model.step(w1, w0, pi)
            gamma, ll = mixture_estep(counts, pi, s1, s0)
            obj = ll + penalty
            w1 = counts * gamma
            trace.loglik.append(ll)
            trace.objective.append(obj)
            trace.n_iters += 1
            if relative_change(obj, prev) < config.tol:
                trace.converged = True
                break
            prev = obj
        if best is None or obj > best[0] + RESTART_MARGIN * abs(best[0]):
            params = model.params(pi)
            best = obj, params, model.orientation(params), trace
        del model  # no restart's arrays outlive it
    _, params, orientation, trace = best
    if resolve_flip(orientation, params.pi):
        params = params.flipped()
        trace.flipped = True
    return EMFit(params=params, posterior=_predict_rows(params, patterns, inverse), trace=trace)
