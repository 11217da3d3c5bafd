"""Exchangeable Curie-Weiss spin systems and the two risk-separation experiments.

The class-conditional law depends on spins only through the magnetization
M_K = mean of +-1 spins, so the magnetization pmf gives exact sampling,
exact marginals, and exact tail computations without any MCMC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ci import ci_oracle_predict
from .data import rng_from, separation_row
from .em import check_prior, expit, logsumexp


def magnetization_support(k: int) -> np.ndarray:
    """The K+1 reachable magnetization values -1, -1 + 2/K, ..., 1."""
    return -1.0 + 2.0 * np.arange(k + 1) / k


def magnetization_log_pmf(k: int, beta: float, h: float) -> np.ndarray:
    """Normalized log-pmf of M_K under coupling beta and per-spin field h.

    Weight of m is binom(K, K(1+m)/2) * exp(beta*K*m^2/2 + h*K*m); binomials
    go through log-gamma so K in the tens of thousands stays finite.
    """
    if k < 1:
        raise ValueError("K must be >= 1")
    log_fact = np.array([math.lgamma(r + 1) for r in range(k + 1)])  # log r!, r = 0..K
    m = magnetization_support(k)
    with np.errstate(over="ignore", invalid="ignore"):
        logw = log_fact[k] - log_fact - log_fact[::-1] + 0.5 * beta * k * m ** 2 + h * k * m
    if not np.isfinite(logw).all():
        raise ValueError(f"magnetization weights are not finite at K={k}, beta={beta}, h={h}")
    return logw - logsumexp(logw)


def expected_magnetization(k: int, beta: float, h: float) -> float:
    m = magnetization_support(k)
    return float(m @ np.exp(magnetization_log_pmf(k, beta, h)))


def sample_cw(k: int, beta: float, h: float, n: int, seed: int) -> np.ndarray:
    """n exact i.i.d. spin vectors in {-1,+1}^K.

    Draw the up-spin count from the magnetization pmf, then place the up
    spins uniformly at random; exchangeability makes the configuration law
    exact, with no burn-in or mixing error.
    """
    rng = rng_from(seed, 47)
    probs = np.exp(magnetization_log_pmf(k, beta, h))
    ups = rng.choice(k + 1, size=n, p=probs)
    ranks = np.argsort(rng.random((n, k)), axis=1).argsort(axis=1)
    spins = np.where(ranks < ups[:, None], 1, -1)
    return spins.astype(np.int8)


def solve_mean_field(beta: float, h: float = 0.0) -> list[float]:
    """All solutions of m = tanh(beta*m + h) in [-1, 1], in increasing order.

    f(m) = tanh(beta*m + h) - m has f' = 0 only at the turning points
    m = (-h +- arccosh(sqrt(beta))) / beta, which exist for beta > 1, so they
    split [-1, 1] into at most three pieces on which f is monotone, and
    f(-1) >= 0 >= f(1). Each piece across which f changes sign holds one
    root, found by bisection to a 1e-14 bracket; an edge where f is zero in
    floating point (+-1 where tanh rounds to +-1, or a tangency) is a root,
    counted once. For beta <= 1 there is exactly one root; for beta > 1 and
    h = 0 the three roots {-m*, 0, +m*}.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")

    def f(m):
        return np.tanh(beta * m + h) - m

    turns = (-h + np.array([-1.0, 1.0]) * np.arccosh(np.sqrt(beta))) / beta if beta > 1 else np.empty(0)
    edges = np.concatenate(([-1.0], turns[(-1.0 < turns) & (turns < 1.0)], [1.0]))
    sign = np.sign(f(edges))
    cross = sign[:-1] * sign[1:] < 0
    lo, hi, lo_sign = edges[:-1][cross], edges[1:][cross], sign[:-1][cross]
    while np.any(hi - lo > 1e-14):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        past = np.sign(f_mid) == lo_sign  # the root lies above mid
        lo = np.where(past | (f_mid == 0), mid, lo)
        hi = np.where(past, hi, mid)
    return sorted(float(m) for m in (*edges[sign == 0], *0.5 * (lo + hi)))


def positive_root(beta: float) -> float:
    """m*, the positive solution of m = tanh(beta*m) for beta > 1: the largest mean-field root at h = 0."""
    if beta <= 1:
        raise ValueError("positive root exists only for beta > 1")
    return solve_mean_field(beta)[-1]


def magnetization_classifier(spins, t: float, mode: str = "absolute"):
    """1 iff M^2 >= t (squared mode) or |M| >= t (absolute mode).

    Accepts a single spin vector or a matrix of rows.
    """
    if not (0.0 < t < 1.0):
        raise ValueError("threshold must lie strictly inside (0,1)")
    if mode not in ("squared", "absolute"):
        raise ValueError(f"unknown statistic mode {mode!r}")
    spins = np.asarray(spins, dtype=float)
    single = spins.ndim == 1
    m = spins.mean(axis=-1)
    stat = m ** 2 if mode == "squared" else np.abs(m)
    out = (stat >= t).astype(np.int8)
    return int(out) if single else out


@dataclass(frozen=True)
class CWClassSpec:
    """One class-conditional Curie-Weiss law: coupling plus field mode.

    field_mode "constant" stores the per-spin field h; "scaled" stores c with
    the field applied as c/K, the weak symmetry-breaking regime.
    """

    beta: float
    field_mode: str = "constant"
    field_value: float = 0.0

    def __post_init__(self):
        for name in ("beta", "field_value"):
            if np.ndim(getattr(self, name)) != 0:
                raise ValueError(f"{name} must be a number")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        for name in ("beta", "field_value"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.field_mode not in ("constant", "scaled"):
            raise ValueError(f"unknown field_mode {self.field_mode!r}")

    def field_at(self, k: int) -> float:
        return self.field_value / k if self.field_mode == "scaled" else self.field_value

    @property
    def field_limit(self) -> float:
        """The per-spin field as K -> infinity: a scaled field c/K vanishes."""
        return 0.0 if self.field_mode == "scaled" else self.field_value


def true_marginals(spec: CWClassSpec, k: int) -> float:
    """Exact finite-K vote-1 marginal q = (1 + E[M_K]) / 2."""
    return 0.5 * (1.0 + expected_magnetization(k, spec.beta, spec.field_at(k)))


def marginal_limit(spec: CWClassSpec) -> float:
    """The K -> infinity limit of the vote-1 marginal.

    A scaled field with beta > 1: the magnetization settles into the +-m*
    phase mixture with weight p = sigma(2 c m*), giving (1 + (2p-1) m*)/2.
    Otherwise the marginal follows the mean-field root, under the limiting
    field :attr:`CWClassSpec.field_limit`, that maximizes the free-energy
    functional; for a scaled field that root is 0.
    """
    if spec.field_mode == "scaled" and spec.beta > 1:
        mstar = positive_root(spec.beta)
        p = expit(2.0 * spec.field_value * mstar)
        return 0.5 * (1.0 + (2.0 * p - 1.0) * mstar)
    h = spec.field_limit
    roots = solve_mean_field(spec.beta, h)

    def free_energy(m):
        p = (1.0 + m) / 2.0
        ent = 0.0 if p in (0.0, 1.0) else -(p * np.log(p) + (1 - p) * np.log1p(-p))
        return ent + 0.5 * spec.beta * m ** 2 + h * m

    vals = [free_energy(m) for m in roots]
    best = max(vals)
    winners = [m for m, v in zip(roots, vals) if abs(v - best) < 1e-12]
    return 0.5 * (1.0 + float(np.mean(winners)))


@dataclass(frozen=True)
class CWExperimentSpec:
    """A full separation experiment: prior, both class laws, K grid, sizes.

    ``threshold=None`` thresholds the magnetization statistic at :func:`auto_threshold`.
    """

    pi: float
    class0: CWClassSpec
    class1: CWClassSpec
    k_grid: tuple[int, ...]
    n: int
    statistic: str = "absolute"
    threshold: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_prior(self.pi)
        if any(k < 1 for k in self.k_grid) or self.n < 1:
            raise ValueError("K values and n must be >= 1")
        if self.statistic not in ("squared", "absolute"):
            raise ValueError(f"unknown statistic {self.statistic!r}")


def sample_labeled_cw(spec: CWExperimentSpec, k: int, label_rng, seeds: tuple[int, int]):
    """Labeled exact spins at K = k: Y ~ Bernoulli(spec.pi), spins from the item's class law.

    Labels come from ``label_rng``; ``seeds`` seed the :func:`sample_cw`
    draws of class 1 and class 0, in that order; a class that drew no item
    still has its law checked. Returns (labels, spins).
    """
    y = (label_rng.random(spec.n) < spec.pi).astype(np.int8)
    spins = np.zeros((spec.n, k), dtype=np.int8)
    for label, law, seed in ((1, spec.class1, seeds[0]), (0, spec.class0, seeds[1])):
        count = int(np.count_nonzero(y == label))
        spins[y == label] = sample_cw(k, law.beta, law.field_at(k), count, seed)
    return y, spins


def auto_threshold(spec: CWExperimentSpec) -> float:
    """Default thresholds for the magnetization statistic.

    Squared statistic: t = m*^2 / 2, the midpoint of the admissible (0, m*^2)
    band. Absolute statistic: t = (|m0| + m*)/2, where m0 is class 0's
    unique mean-field root under its limiting field
    (:attr:`CWClassSpec.field_limit`). It requires the separation condition
    m* > 1 - 2 q0 linking the low-temperature magnetization to the
    high-temperature marginal q0 = (1 + m0)/2, that is m* > -m0.
    """
    mstar = positive_root(spec.class1.beta)
    if spec.statistic == "squared":
        return 0.5 * mstar ** 2
    roots = solve_mean_field(spec.class0.beta, spec.class0.field_limit)
    if len(roots) != 1:
        raise ValueError("auto threshold expects a unique high-temperature root for class 0")
    m0 = roots[0]
    if not (mstar > -m0):
        raise ValueError(
            f"separation condition m_star > 1 - 2*q0 violated "
            f"(m_star={mstar:.4f}, 1-2*q0={-m0:.4f}); supply an explicit threshold"
        )
    return 0.5 * (abs(m0) + mstar)


def run_separation(spec: CWExperimentSpec) -> list[dict]:
    """Empirical risks of the magnetization rule and the CI oracle per K.

    Items are labeled Y ~ Bernoulli(pi) and spins drawn from the matching
    class law; the CI oracle uses exact finite-K marginals. Standard errors
    are binomial; with n = 1 they are flagged unreliable (NaN).
    """
    t = auto_threshold(spec) if spec.threshold is None else spec.threshold
    rows = []
    for i, k in enumerate(spec.k_grid):
        y, spins = sample_labeled_cw(spec, k, rng_from(spec.seed, 53, i),
                                     (spec.seed * 4 + 1 + 8 * i, spec.seed * 4 + 2 + 8 * i))
        pred_bayes = magnetization_classifier(spins, t, spec.statistic)
        votes = ((spins + 1) // 2).astype(np.int8)
        pred_ci = ci_oracle_predict(true_marginals(spec.class0, k), true_marginals(spec.class1, k), spec.pi, votes)
        rows.append(separation_row(k, pred_bayes, pred_ci, y))
    return rows
