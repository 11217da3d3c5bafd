"""Conditionally-independent aggregation.

Uniform and weighted majority vote, the exact posterior log-odds under
per-judge sensitivity/specificity, and the closed-form EM fitter (asymmetric
Dawid-Skene with Beta-prior MAP updates): the one CI rule of the package.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import em
from .data import _CHUNK_ROWS, PosteriorVector, VoteMatrix, rng_from, simulated_votes
from .em import PI_EPS, EMConfig, EMFit, EMTrace, check_prior, vote_rows


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
        check_prior(self.pi)
        for name, arr in (("alpha", alpha), ("beta", beta)):
            if not np.all((arr > 0.0) & (arr < 1.0)):
                raise ValueError(f"{name} must lie strictly inside (0,1)")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def k(self) -> int:
        return len(self.alpha)

    def weights(self) -> np.ndarray:
        """Per-judge weights log(alpha*beta / ((1-alpha)(1-beta))): positive exactly when alpha + beta > 1."""
        return np.log(self.alpha) + np.log(self.beta) - np.log1p(-self.alpha) - np.log1p(-self.beta)

    def weight_sum(self) -> float:
        """Sum of the judge weights: positive when the judges beat random on average."""
        return float(self.weights().sum())

    def flipped(self) -> "CIParams":
        # Relabeling Y -> 1-Y swaps the error roles: alpha' = 1-beta, beta' = 1-alpha.
        return CIParams(pi=1.0 - self.pi, alpha=1.0 - self.beta, beta=1.0 - self.alpha)

    def log_scores(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log Pr(J | Y=1) and log Pr(J | Y=0) of every vote row: independent Bernoulli judges."""
        l1 = rows @ np.log(self.alpha) + (1.0 - rows) @ np.log1p(-self.alpha)
        l0 = rows @ np.log1p(-self.beta) + (1.0 - rows) @ np.log(self.beta)
        return l1, l0


def ci_from_rates(pi: float, m1, m0) -> CIParams:
    """CI parameters of vote-1 rates m1 = Pr(J=1 | Y=1) and m0 = Pr(J=1 | Y=0), clipped 1e-12 inside (0,1)."""
    eps = 1e-12
    return CIParams(pi=pi, alpha=np.clip(m1, eps, 1 - eps), beta=np.clip(1.0 - m0, eps, 1 - eps))


def ci_log_odds(p: CIParams, votes):
    """Posterior log-odds of Y=1: a float for one K-vector of 0/1 votes, an array for a matrix of rows.

    logit(pi) + sum_j [J_j log(alpha_j/(1-beta_j)) + (1-J_j) log((1-alpha_j)/beta_j)],
    an affine function of the votes with slopes given by ``p.weights()``. Rows
    share one BLAS product in :meth:`CIParams.log_scores`, so a row's value
    can differ in the last bits from its value scored alone.
    """
    rows, single = vote_rows(votes, p.k)
    s1, s0 = p.log_scores(rows)
    log_odds = np.log(p.pi / (1.0 - p.pi)) + s1 - s0
    return float(log_odds[0]) if single else log_odds


def ci_oracle_predict(q0: float, q1: float, pi: float, votes) -> int | np.ndarray:
    """CI label (int, or array for rows) when all K judges vote 1 at rate q1 in class 1 and q0 in class 0.

    Where |q1 - q0| < 1e-12 it is the prior's majority class, 1 at pi = 1/2.
    Otherwise the judges are exchangeable, so :func:`ci_log_odds` scores the
    K + 1 rows with 0..K leading ones once (rates through :func:`ci_from_rates`)
    and each row reads its count's.
    """
    check_prior(pi)
    for name, val in (("q0", q0), ("q1", q1)):
        if not (0.0 < val < 1.0):
            raise ValueError(f"{name} must lie strictly inside (0,1): degenerate likelihood")
    rows, single = vote_rows(votes)
    if abs(q1 - q0) < 1e-12:
        out = np.full(len(rows), 1 if pi >= 0.5 else 0, dtype=np.int8)
    else:
        k = rows.shape[1]  # row s of np.tri(k + 1, k, -1) holds s leading ones
        log_odds = ci_log_odds(ci_from_rates(pi, np.full(k, q1), np.full(k, q0)), np.tri(k + 1, k, -1))
        out = (log_odds[rows.sum(axis=1).astype(np.intp)] >= 0).astype(np.int8)
    return int(out[0]) if single else out


def wmv_predict(p: CIParams, v: VoteMatrix) -> PosteriorVector:
    """Weighted majority vote: per-item sigmoid of the CI posterior log-odds (:func:`em.predict`)."""
    return em.predict(p, v)


def umv_predict(v: VoteMatrix) -> PosteriorVector:
    """Uniform majority vote; gamma is the vote fraction, ties predict 1."""
    return PosteriorVector(v.votes.mean(axis=1))


def sample_ci(p: CIParams, n: int, seed: int) -> VoteMatrix:
    """Simulate n items from the CI model, gold labels included.

    The votes are drawn in blocks of ``_CHUNK_ROWS`` rows, which reads the
    generator's stream in the same order as one n x K draw.
    """
    rng = rng_from(seed, 11)
    y = (rng.random(n) < p.pi).astype(np.int8)
    votes = np.empty((n, p.k), dtype=np.int8)
    for start in range(0, n, _CHUNK_ROWS):
        rates = np.where(y[start:start + _CHUNK_ROWS, None] == 1, p.alpha, 1.0 - p.beta)
        votes[start:start + len(rates)] = rng.random(rates.shape) < rates
    return simulated_votes(votes, y)


def em_fit_ci(v: VoteMatrix, config: EMConfig = EMConfig()) -> EMFit:
    """Closed-form EM for the asymmetric CI model.

    E-step: exact posteriors from the current parameters. M-step: Beta-MAP
    updates for (alpha, beta) from soft counts and pi = mean(gamma). The
    penalized observed log-likelihood is non-decreasing (tracked in the
    trace); convergence is relative change below ``config.tol``. Both steps
    run over the distinct vote rows, from one majority-vote start.
    """
    return em.run(v, _CIModel, config)


class _CIModel:
    """One restart of the CI family for :func:`em.run`, with Beta(prior_a, prior_b) priors on the rates."""

    def __init__(self, patterns: np.ndarray, trace: EMTrace, config: EMConfig):
        self.patterns, self.a, self.b = patterns, config.prior_a, config.prior_b
        if patterns.shape[1] >= 2 and np.all(patterns == patterns[:, :1]):
            msg = "all judge columns identical: low-information input, estimates rely on priors"
            warnings.warn(msg)
            trace.notes.append(msg)

    def step(self, w1: np.ndarray, w0: np.ndarray, pi: float):
        """Beta-MAP (alpha, beta) from per-pattern class weights, kept inside (0,1) like ``pi``.

        Under a flat prior (a = b = 1) a judge that always (or never) votes 1
        has a MAP rate of exactly 1 (or 0); the clip keeps it a valid rate.
        """
        patterns, a, b = self.patterns, self.a, self.b
        alpha = (a - 1.0 + w1 @ patterns) / (a + b - 2.0 + w1.sum())
        beta = (a - 1.0 + w0 @ (1.0 - patterns)) / (a + b - 2.0 + w0.sum())
        self.current = p = CIParams(pi=pi, alpha=np.clip(alpha, PI_EPS, 1.0 - PI_EPS),
                                    beta=np.clip(beta, PI_EPS, 1.0 - PI_EPS))
        # The log prior: Beta(a,b) kernels on every alpha_j and beta_j; normalizing constants dropped.
        prior = (a - 1.0) * (np.log(p.alpha) + np.log(p.beta)) + (b - 1.0) * (np.log1p(-p.alpha) + np.log1p(-p.beta))
        return *p.log_scores(patterns), float(prior.sum())

    def params(self, pi: float) -> CIParams:
        return self.current
