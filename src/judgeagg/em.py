"""Shared machinery for the unsupervised EM fitters.

All model families (conditionally-independent, Ising, latent-factor) follow
the same loop: initialize per-item responsibilities, alternate a weighted
M-step with a posterior E-step, track a monotone objective, and resolve the
global label-flip ambiguity at the end.

Every step touches the data only through weighted sums over vote rows, so
the loops run over the distinct rows (:func:`vote_patterns`): a pattern
carries its item count and its summed class-1 responsibility ``w1``, with
``w0 = counts - w1`` for class 0. Per-item posteriors are read back through
the row -> pattern index once, when a fit returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import rng_from, vote_patterns  # noqa: F401  (the fitters import it from here)

# Initialization strategies tried by the Ising/factor fitters, in order of
# preference when objectives tie: warm start from the CI solution, then
# majority-vote fraction, then the agreement statistic |2*frac - 1| (which
# separates classes whose signal lives in co-voting rather than in marginals).
INIT_STRATEGIES = ("ci", "majority", "agreement")

# Relative objective margin a later restart must win by to displace an
# earlier (more-preferred) one.
RESTART_MARGIN = 1e-4

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


def resolve_flip(weight_sum: float, pi: float, anchor_tol: float = 0.1) -> bool:
    """Decide whether to flip the fitted labeling.

    Primary anchor: orient so fitted judges are on average better than random
    (sum of weighted-vote weights >= 0). When the marginals carry essentially
    no orientation signal (|sum| < anchor_tol), fall back to class balance and
    call the larger class "1". Returns True if the labeling should flip.
    """
    if abs(weight_sum) >= anchor_tol:
        return weight_sum < 0
    return pi < 0.5


def relative_change(new: float, old: float) -> float:
    return abs(new - old) / (1.0 + abs(new))
