"""Exchangeable Curie-Weiss spin systems and the two risk-separation experiments.

The class-conditional law depends on spins only through the magnetization
M_K = mean of +-1 spins, so the magnetization pmf gives exact sampling,
exact marginals, and exact tail computations without any MCMC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit, gammaln, logsumexp

from .data import rng_from, separation_row


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
    r = np.arange(k + 1)
    m = magnetization_support(k)
    logw = (
        gammaln(k + 1) - gammaln(r + 1) - gammaln(k - r + 1)
        + 0.5 * beta * k * m ** 2 + h * k * m
    )
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
    """All solutions of m = tanh(beta*m + h) in (-1, 1), to 1e-12.

    Bracketed bisection over a fine sign-change scan; for beta < 1 there is
    exactly one root, for beta > 1 and h = 0 the three roots {-m*, 0, +m*}.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    lo, hi = -1.0 + 1e-9, 1.0 - 1e-9
    grid = np.linspace(lo, hi, 4001)

    def f(m):
        return np.tanh(beta * m + h) - m

    vals = f(grid)
    roots = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(grid[i])
        elif a * b < 0:
            roots.append(brentq(f, grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    dedup: list[float] = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-9:
            dedup.append(float(r))
    return dedup


def positive_root(beta: float) -> float:
    """The unique positive solution of m = tanh(beta*m), for beta > 1."""
    if beta <= 1:
        raise ValueError("positive root exists only for beta > 1")
    return float(brentq(lambda m: np.tanh(beta * m) - m, 1e-9, 1 - 1e-15, xtol=1e-14))


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


def ci_oracle_predict(q0: float, q1: float, pi: float, votes) -> int | np.ndarray:
    """Label from the product-Bernoulli posterior built on true marginals.

    With q0 = q1 the posterior equals the prior for every vote vector and
    the output is the prior's majority class; otherwise the exact log-odds
    logit(pi) + S log(q1/q0) + (K-S) log((1-q1)/(1-q0)) is thresholded at 0.
    """
    for name, val in (("q0", q0), ("q1", q1)):
        if not (0.0 < val < 1.0):
            raise ValueError(f"{name} must lie strictly inside (0,1): degenerate likelihood")
    votes = np.asarray(votes)
    single = votes.ndim == 1
    votes = np.atleast_2d(votes).astype(float)
    s = votes.sum(axis=1)
    k = votes.shape[1]
    lo = np.log(pi / (1.0 - pi)) + s * np.log(q1 / q0) + (k - s) * np.log((1.0 - q1) / (1.0 - q0))
    out = (lo >= 0).astype(np.int8)
    return int(out[0]) if single else out


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
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.field_mode not in ("constant", "scaled"):
            raise ValueError(f"unknown field_mode {self.field_mode!r}")

    def field_at(self, k: int) -> float:
        return self.field_value / k if self.field_mode == "scaled" else self.field_value


def true_marginals(spec: CWClassSpec, k: int) -> float:
    """Exact finite-K vote-1 marginal q = (1 + E[M_K]) / 2."""
    return 0.5 * (1.0 + expected_magnetization(k, spec.beta, spec.field_at(k)))


def marginal_limit(spec: CWClassSpec) -> float:
    """The K -> infinity limit of the vote-1 marginal.

    Scaled fields: for beta > 1 the magnetization settles into the +-m* phase
    mixture with weight p = sigma(2 c m*), giving (1 + (2p-1) m*)/2; for
    beta < 1 it concentrates at 0. Constant fields: the marginal follows the
    mean-field root that maximizes the free-energy functional.
    """
    if spec.field_mode == "scaled":
        if spec.beta > 1:
            mstar = positive_root(spec.beta)
            p = expit(2.0 * spec.field_value * mstar)
            return 0.5 * (1.0 + (2.0 * p - 1.0) * mstar)
        return 0.5
    h = spec.field_value
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
        if not (0.0 < self.pi < 1.0):
            raise ValueError("pi must lie strictly inside (0,1)")
        if any(k < 1 for k in self.k_grid) or self.n < 1:
            raise ValueError("K values and n must be >= 1")
        if self.statistic not in ("squared", "absolute"):
            raise ValueError(f"unknown statistic {self.statistic!r}")


def sample_labeled_cw(spec: CWExperimentSpec, k: int, label_rng, seeds: tuple[int, int]):
    """Labeled exact spins at K = k: Y ~ Bernoulli(spec.pi), spins from the item's class law.

    Labels come from ``label_rng``; ``seeds`` seed the :func:`sample_cw`
    draws of class 1 and class 0, in that order. Returns (labels, spins).
    """
    y = (label_rng.random(spec.n) < spec.pi).astype(np.int8)
    spins = np.zeros((spec.n, k), dtype=np.int8)
    for label, law, seed in ((1, spec.class1, seeds[0]), (0, spec.class0, seeds[1])):
        count = int(np.count_nonzero(y == label))
        if count:
            spins[y == label] = sample_cw(k, law.beta, law.field_at(k), count, seed)
    return y, spins


def auto_threshold(spec: CWExperimentSpec) -> float:
    """Default thresholds for the magnetization statistic.

    Squared statistic: t = m*^2 / 2, the midpoint of the admissible (0, m*^2)
    band. Absolute statistic: t = (|m0| + m*)/2, which requires the
    separation condition m* > 1 - 2 q0 linking the low-temperature
    magnetization to the high-temperature marginal.
    """
    mstar = positive_root(spec.class1.beta)
    if spec.statistic == "squared":
        return 0.5 * mstar ** 2
    roots = solve_mean_field(spec.class0.beta, spec.class0.field_value)
    if len(roots) != 1:
        raise ValueError("auto threshold expects a unique high-temperature root for class 0")
    m0 = roots[0]
    q0 = marginal_limit(spec.class0)
    if not (mstar > 1.0 - 2.0 * q0):
        raise ValueError(
            f"separation condition m_star > 1 - 2*q0 violated "
            f"(m_star={mstar:.4f}, 1-2*q0={1 - 2 * q0:.4f}); supply an explicit threshold"
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
        q0 = true_marginals(spec.class0, k)
        q1 = true_marginals(spec.class1, k)
        if abs(q1 - q0) < 1e-12:
            pred_ci = np.full(spec.n, 1 if spec.pi >= 0.5 else 0, dtype=np.int8)
        else:
            pred_ci = ci_oracle_predict(q0, q1, spec.pi, votes)
        rows.append(separation_row(k, pred_bayes, pred_ci, y))
    return rows
