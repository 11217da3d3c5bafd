"""Conditionally-independent aggregation.

Uniform and weighted majority vote, the exact posterior log-odds under
per-judge sensitivity/specificity, and the closed-form EM fitter (asymmetric
Dawid-Skene with Beta-prior MAP updates).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import em
from .data import PosteriorVector, VoteMatrix, rng_from
from .em import PI_EPS, EMConfig, EMFit, EMTrace, judge_weights


@dataclass(frozen=True)
class CIParams:
    """Class prior plus per-judge sensitivity alpha and specificity beta.

    All entries must be strictly inside (0,1); Beta-prior smoothing in the
    fitter keeps estimates interior, and boundary values are rejected here.
    """

    pi: float
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.shape != beta.shape or alpha.ndim != 1:
            raise ValueError("alpha and beta must be 1-D vectors of equal length")
        for name, arr in (("pi", np.array([self.pi])), ("alpha", alpha), ("beta", beta)):
            if np.any(arr <= 0.0) or np.any(arr >= 1.0):
                raise ValueError(f"{name} must lie strictly inside (0,1)")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def k(self) -> int:
        return len(self.alpha)

    def weights(self) -> np.ndarray:
        return judge_weights(self.alpha, self.beta)

    def flipped(self) -> "CIParams":
        # Relabeling Y -> 1-Y swaps the error roles: alpha' = 1-beta, beta' = 1-alpha.
        return CIParams(pi=1.0 - self.pi, alpha=1.0 - self.beta, beta=1.0 - self.alpha)

    def log_scores(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log Pr(J | Y=1) and log Pr(J | Y=0) of every vote row: independent Bernoulli judges."""
        l1 = rows @ np.log(self.alpha) + (1.0 - rows) @ np.log1p(-self.alpha)
        l0 = rows @ np.log1p(-self.beta) + (1.0 - rows) @ np.log(self.beta)
        return l1, l0


def ci_log_odds(p: CIParams, j) -> float:
    """Posterior log-odds of Y=1 for one K-vector of votes.

    logit(pi) + sum_j [J_j log(alpha_j/(1-beta_j)) + (1-J_j) log((1-alpha_j)/beta_j)],
    an affine function of the votes with slopes given by ``p.weights()``.
    """
    s1, s0 = p.log_scores(np.asarray(j, dtype=float)[None, :])
    return float(np.log(p.pi / (1.0 - p.pi)) + s1[0] - s0[0])


def wmv_predict(p: CIParams, v: VoteMatrix) -> PosteriorVector:
    """Weighted majority vote: per-item sigmoid of the CI posterior log-odds (:func:`em.predict`)."""
    return em.predict(p, v)


def umv_predict(v: VoteMatrix) -> PosteriorVector:
    """Uniform majority vote; gamma is the vote fraction, ties predict 1."""
    return PosteriorVector(v.votes.mean(axis=1))


def sample_ci(p: CIParams, n: int, seed: int, judge_names=None) -> VoteMatrix:
    """Simulate n items from the CI model, gold labels included."""
    rng = rng_from(seed, 11)
    y = (rng.random(n) < p.pi).astype(np.int8)
    rates = np.where(y[:, None] == 1, p.alpha[None, :], 1.0 - p.beta[None, :])
    votes = (rng.random((n, p.k)) < rates).astype(np.int8)
    names = judge_names if judge_names is not None else tuple(f"j{i+1}" for i in range(p.k))
    ids = tuple(str(i) for i in range(n))
    return VoteMatrix(votes=votes, item_ids=ids, judge_names=names, gold_labels=y)


def _beta_log_prior(p: CIParams, a: float, b: float) -> float:
    # Beta(a,b) kernels on every alpha_j and beta_j; normalizing constants dropped.
    t = (a - 1.0) * (np.log(p.alpha) + np.log(p.beta))
    t = t + (b - 1.0) * (np.log1p(-p.alpha) + np.log1p(-p.beta))
    return float(t.sum())


def em_fit_ci(v: VoteMatrix, config: EMConfig = EMConfig()) -> EMFit:
    """Closed-form EM for the asymmetric CI model.

    E-step: exact posteriors from the current parameters. M-step: Beta-MAP
    updates for (alpha, beta) from soft counts and pi = mean(gamma). The
    penalized observed log-likelihood is non-decreasing (tracked in the
    trace); convergence is relative change below ``config.tol``. Both steps
    run over the distinct vote rows, from one majority-vote start.
    """
    return em.run(v, partial(_CIModel, a=config.prior_a, b=config.prior_b), config, ("majority",))


class _CIModel:
    """One restart of the CI family for :func:`em.run`, with Beta(a, b) priors on the rates."""

    def __init__(self, patterns: np.ndarray, trace: EMTrace, a: float, b: float):
        self.patterns, self.a, self.b = patterns, a, b
        if patterns.shape[1] >= 2 and np.all(patterns == patterns[:, :1]):
            msg = "all judge columns identical: low-information input, estimates rely on priors"
            warnings.warn(msg)
            trace.notes.append(msg)

    def step(self, w1: np.ndarray, w0: np.ndarray, pi: float):
        self.current = p = _map_mstep(self.patterns, w1, w0, pi, self.a, self.b)
        return *p.log_scores(self.patterns), _beta_log_prior(p, self.a, self.b)

    def params(self, pi: float) -> CIParams:
        return self.current

    def orientation(self, params: CIParams) -> float:
        return float(params.weights().sum())


def _map_mstep(patterns: np.ndarray, w1: np.ndarray, w0: np.ndarray, pi: float, a: float, b: float) -> CIParams:
    """Beta-MAP (alpha, beta) from per-pattern class weights, kept inside (0,1) like ``pi``.

    Under a flat prior (a = b = 1) a judge that always (or never) votes 1
    has a MAP rate of exactly 1 (or 0); the clip keeps it a valid rate.
    """
    alpha = (a - 1.0 + w1 @ patterns) / (a + b - 2.0 + w1.sum())
    beta = (a - 1.0 + w0 @ (1.0 - patterns)) / (a + b - 2.0 + w0.sum())
    return CIParams(pi=pi, alpha=np.clip(alpha, PI_EPS, 1.0 - PI_EPS), beta=np.clip(beta, PI_EPS, 1.0 - PI_EPS))
