"""Workload inputs, generated by the benchmark itself.

No judgeagg sampler is called: a change to the package's samplers must not
change what the benchmark measures. Model parameters are constants here.
Every generator returns ``(votes, gold)`` as int8 arrays, drawn from
``(seed, stream)``.
"""

from __future__ import annotations

import numpy as np

# CI setup 4 of the package's reference experiments (sensitivity alpha,
# specificity beta per judge), with a balanced class prior.
CI_SETUP4_ALPHA = np.array([0.60, 0.63, 0.74, 0.75, 0.67, 0.80])
CI_SETUP4_BETA = np.array([0.70, 0.59, 0.95, 0.86, 0.77, 0.83])
CI_PI = 0.5

# The package's three-judge class-dependent demonstration model.
CLASSDEP_DEMO_PI = 0.5
CLASSDEP_DEMO_H0 = np.array([2.7369, 1.3602, 1.9559])
CLASSDEP_DEMO_H1 = np.array([-2.5484, -2.2580, -0.9266])
CLASSDEP_DEMO_W0 = np.array([
    [0.0, -2.4445, 2.4553],
    [-2.4445, 0.0, -2.9206],
    [2.4553, -2.9206, 0.0],
])
CLASSDEP_DEMO_W1 = np.array([
    [0.0, -3.3637, 3.0718],
    [-3.3637, 0.0, -0.0677],
    [3.0718, -0.0677, 0.0],
])

# Random class-dependent Ising model for the many-distinct-patterns input:
# h0 ~ N(-0.5, 0.3^2), h1 ~ N(0.5, 0.3^2), off-diagonal W_y ~ N(0, 0.2^2),
# drawn once from this constant seed, never from the workload seed.
RANDOM_ISING_MODEL_SEED = 20260117
RANDOM_ISING_PI = 0.5

# Rank-1 logistic-normal factor votes: J_j | (Y, Z) ~ Bernoulli(sigmoid(
# b + a(2Y-1) + lam(2Y-1) Z)) with Z ~ N(0, 1), i.i.d. over judges.
FACTOR_A = 0.8
FACTOR_B = 0.0
FACTOR_LAM = 1.0
FACTOR_PI = 0.6


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, input stream)."""
    return np.random.default_rng([int(seed), int(stream)])


def all_patterns(k: int) -> np.ndarray:
    """All 2^K vote vectors as a (2^K, K) int8 matrix; row r is the bits of r."""
    return ((np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1).astype(np.int8)


def ising_pmf(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact pmf of exp(h.J + J'WJ/2) over :func:`all_patterns` rows."""
    x = all_patterns(len(h)).astype(float)
    e = x @ h + 0.5 * np.einsum("ij,jk,ik->i", x, w, x)
    p = np.exp(e - e.max())
    return p / p.sum()


def random_ising_model(k: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(pi, h0, h1, W0, W1) of the fixed random class-dependent model."""
    rng = np.random.default_rng(RANDOM_ISING_MODEL_SEED + k)
    h0 = rng.normal(-0.5, 0.3, size=k)
    h1 = rng.normal(0.5, 0.3, size=k)
    ws = []
    for _ in range(2):
        w = np.triu(rng.normal(0.0, 0.2, size=(k, k)), 1)
        ws.append(w + w.T)
    return RANDOM_ISING_PI, h0, h1, ws[0], ws[1]


def ci_votes(n: int, seed: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-judge Bernoulli votes at the CI setup-4 rates."""
    rng = rng_for(seed, stream)
    y = (rng.random(n) < CI_PI).astype(np.int8)
    rates = np.where(y[:, None] == 1, CI_SETUP4_ALPHA[None, :], 1.0 - CI_SETUP4_BETA[None, :])
    votes = (rng.random((n, len(CI_SETUP4_ALPHA))) < rates).astype(np.int8)
    return votes, y


def ising_votes(pi, h0, h1, w0, w1, n: int, seed: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact draws: Y ~ Bernoulli(pi), then a 2^K categorical draw per class."""
    rng = rng_for(seed, stream)
    y = (rng.random(n) < pi).astype(np.int8)
    patterns = all_patterns(len(h0))
    votes = np.empty((n, len(h0)), dtype=np.int8)
    for cls, h, w in ((0, h0, w0), (1, h1, w1)):
        rows = y == cls
        cdf = np.cumsum(ising_pmf(h, w))
        idx = np.searchsorted(cdf, rng.random(int(rows.sum())) * cdf[-1], side="right")
        votes[rows] = patterns[np.minimum(idx, len(cdf) - 1)]
    return votes, y


def classdep_demo_votes(n: int, seed: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    return ising_votes(CLASSDEP_DEMO_PI, CLASSDEP_DEMO_H0, CLASSDEP_DEMO_H1,
                       CLASSDEP_DEMO_W0, CLASSDEP_DEMO_W1, n, seed, stream)


def random_ising_votes(k: int, n: int, seed: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    return ising_votes(*random_ising_model(k), n, seed, stream)


def factor_votes(k: int, n: int, seed: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 logistic-normal votes, conditionally i.i.d. given (Y, Z)."""
    rng = rng_for(seed, stream)
    y = (rng.random(n) < FACTOR_PI).astype(np.int8)
    z = rng.normal(0.0, 1.0, size=n)
    sign = 2.0 * y - 1.0
    rate = 1.0 / (1.0 + np.exp(-(FACTOR_B + FACTOR_A * sign + FACTOR_LAM * sign * z)))
    votes = (rng.random((n, k)) < rate[:, None]).astype(np.int8)
    return votes, y


def distinct_pattern_ratio(votes: np.ndarray) -> float:
    """Distinct vote rows divided by the number of rows."""
    return len(np.unique(votes, axis=0)) / len(votes)


def labeled_pattern_tv(votes: np.ndarray, y: np.ndarray, pi, h0, h1, w0, w1) -> float:
    """Total variation between empirical (Y, pattern) frequencies and the exact pmf."""
    k = votes.shape[1]
    codes = votes.astype(np.int64) @ (1 << np.arange(k)) + (y.astype(np.int64) << k)
    empirical = np.bincount(codes, minlength=2 ** (k + 1)) / len(votes)
    exact = np.concatenate([(1.0 - pi) * ising_pmf(h0, w0), pi * ising_pmf(h1, w1)])
    return 0.5 * float(np.abs(empirical - exact).sum())


def votes_csv_bytes(votes: np.ndarray, gold: np.ndarray) -> bytes:
    """The package's vote CSV (``item,j1..jK,label``) with item ids 0..n-1.

    Built without a per-row Python loop: ids of equal digit count form a
    fixed-width block, so each block is one uint8 matrix.
    """
    n, k = votes.shape
    header = ",".join(["item", *(f"j{j + 1}" for j in range(k)), "label"]) + "\n"
    tail = np.empty((n, 2 * (k + 1) + 1), dtype=np.uint8)
    tail[:, 0:-1:2] = ord(",")
    tail[:, 1:-1:2] = np.concatenate([votes, gold[:, None]], axis=1) + ord("0")
    tail[:, -1] = ord("\n")
    parts = [header.encode()]
    start, width = 0, 1
    while start < n:
        stop = min(n, 10 ** width)
        ids = np.arange(start, stop)[:, None]
        digits = (ids // 10 ** np.arange(width - 1, -1, -1)[None, :]) % 10 + ord("0")
        parts.append(np.concatenate([digits.astype(np.uint8), tail[start:stop]], axis=1).tobytes())
        start, width = stop, width + 1
    return b"".join(parts)
