"""Exchangeable logistic-normal latent-factor model.

Sampling, quadrature marginals, the asymptotic plug-in scores for the
factor-vs-CI comparison, the second-order reduction of a weak multi-factor
model to Ising fields and couplings, and a quadrature-EM fitter for the
rank-1 per-judge model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import em
from .ci import ci_from_rates, ci_oracle_predict, em_fit_ci
from .data import VoteMatrix, rng_from, separation_row, simulated_votes
from .em import EMConfig, EMFit, check_prior, expit, logistic

QUAD_NODES = 61

_H_NODES, _H_WEIGHTS = np.polynomial.hermite.hermgauss(QUAD_NODES)
# E_{Z~N(0,1)} f(Z) = sum_q wq f(zq) with the substitution below.
_ZQ = np.sqrt(2.0) * _H_NODES
_LOG_WQ = np.log(_H_WEIGHTS) - 0.5 * np.log(np.pi)


# The node minorizer's (2Q, 3) features of each (class, node) pair, class 0's
# nodes first: the class indicator y, an intercept and the node value.
_NODE_FEATURES = np.stack([np.repeat([0.0, 1.0], QUAD_NODES), np.ones(2 * QUAD_NODES), np.tile(_ZQ, 2)], axis=1)


def _quad_mean(eta, lam, z=_ZQ):
    """E[sigma(eta + lam Z)] over the quadrature nodes z, per entry of eta and lam."""
    return np.exp(_LOG_WQ) @ expit(eta + np.multiply.outer(z, lam))


@dataclass(frozen=True)
class FactorParams:
    """Scalar exchangeable model: vote rate sigma(b + a(2y-1) + lam(2y-1) Z)."""

    pi: float
    a: float
    b: float
    lam: float
    sigma2_z: float

    def __post_init__(self):
        check_prior(self.pi)
        for name in ("a", "b", "lam", "sigma2_z"):
            if np.ndim(getattr(self, name)) != 0:
                raise ValueError(f"{name} must be a number")
        if not (self.sigma2_z > 0.0):
            raise ValueError("sigma2_z must be positive")
        for name in ("a", "b", "lam", "sigma2_z"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class MultiFactorParams:
    """Per-judge model: J_j | (Y=y, Z=z) ~ Bernoulli(sigma(a_j y + b_j + lambda_j . z)).

    Z is standard normal in R^r; loadings has shape (K, r).
    """

    a: np.ndarray
    b: np.ndarray
    loadings: np.ndarray
    pi: float = 0.5

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        lo = np.asarray(self.loadings, dtype=float)
        if lo.ndim == 1:
            lo = lo[:, None]
        if a.ndim != 1 or a.shape != b.shape or lo.ndim != 2 or lo.shape[0] != len(a) or lo.shape[1] < 1:
            raise ValueError("need K-vectors a, b and a (K, r>=1) loading matrix")
        check_prior(self.pi)
        for name, value in (("a", a), ("b", b), ("loadings", lo)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "loadings", lo)

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def rank(self) -> int:
        return self.loadings.shape[1]

    def eta(self, y: int) -> np.ndarray:
        return self.a * y + self.b

    def flipped(self) -> "MultiFactorParams":
        # Relabeling y -> 1-y: eta_j(1-y) = (a_j + b_j) - a_j y; the loading
        # sign is immaterial because Z is symmetric.
        return MultiFactorParams(a=-self.a, b=self.a + self.b, loadings=self.loadings, pi=1.0 - self.pi)

    def log_scores(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log Pr(J | Y=1) and log Pr(J | Y=0) of every vote row (:func:`factor_log_lik`)."""
        return factor_log_lik(self, rows, 1), factor_log_lik(self, rows, 0)

    def weight_sum(self) -> float:
        """Judge weight sum of the CI rule on the implied per-judge rates (rank 1, like :meth:`log_scores`)."""
        (lam,) = self.loadings.T  # raises beyond rank 1
        return ci_from_rates(self.pi, _quad_mean(self.eta(1), lam), _quad_mean(self.eta(0), lam)).weight_sum()


def sample_factor(p: FactorParams, k: int, n: int, seed: int) -> VoteMatrix:
    """Simulate n items: Y ~ Bern(pi), Z ~ N(0, sigma2_z), votes i.i.d. given (Y, Z)."""
    rng = rng_from(seed, 31)
    y = (rng.random(n) < p.pi).astype(np.int8)
    z = rng.normal(0.0, np.sqrt(p.sigma2_z), size=n)
    rate = expit(p.b + p.a * (2 * y - 1) + p.lam * (2 * y - 1) * z)
    votes = (rng.random((n, k)) < rate[:, None]).astype(np.int8)
    return simulated_votes(votes, y)


def marginal_success(p: FactorParams, y: int) -> float:
    """q_y = E_Z[sigma(b + a(2y-1) + lam(2y-1) Z)] by Gauss-Hermite quadrature."""
    return float(_quad_mean(p.b + p.a * (2 * y - 1), p.lam * (2 * y - 1), np.sqrt(p.sigma2_z) * _ZQ))


def bayes_limit_score(p: FactorParams, s):
    """Large-ensemble Bayes score logit(pi) + (2a / (lam^2 sigma2)) (logit(s) - b), elementwise in s."""
    if p.lam == 0.0:
        raise ValueError("factor degenerate (lam = 0); Bayes limit undefined by this formula")
    if not np.all((0.0 < s) & (s < 1.0)):
        raise ValueError("s must lie strictly inside (0,1)")
    slope = 2.0 * p.a / (p.lam ** 2 * p.sigma2_z)
    return np.log(p.pi / (1.0 - p.pi)) + slope * (np.log(s / (1.0 - s)) - p.b)


def ci_limit_score(q0: float, q1: float, s):
    """Per-judge CI score s log(q1/q0) + (1-s) log((1-q1)/(1-q0)), elementwise over s.

    Equals KL(s || q0) - KL(s || q1), affine in s with the one-judge CI weight
    as slope; positive when s is better explained by the class-1 marginal.
    """
    for name, val in (("q0", q0), ("q1", q1), ("s", s)):
        if not np.all((0.0 < val) & (val < 1.0)):
            raise ValueError(f"{name} must lie strictly inside (0,1)")
    return np.log((1.0 - q1) / (1.0 - q0)) + s * np.log(q1 * (1.0 - q0) / (q0 * (1.0 - q1)))


def clamp_fraction(s, k: int):
    """Continuity correction pulling vote fractions off the {0,1} boundary."""
    lo = 1.0 / (2.0 * k)
    return np.clip(s, lo, 1.0 - lo)


def run_factor_separation(p: FactorParams, k_grid, n: int, seed: int) -> list[dict]:
    """Empirical risks of the two plug-in rules for each judge count.

    The Bayes-limit rule thresholds the asymptotic score at the clamped vote
    fraction; the CI rule is :func:`ci.ci_oracle_predict` on the raw votes,
    with the true marginals q0 and q1 as every judge's rates. Returns one
    row per K with risks, standard errors, and their difference.
    """
    if p.lam == 0.0:
        raise ValueError("factor degenerate (lam = 0); separation undefined")
    q0 = marginal_success(p, 0)
    q1 = marginal_success(p, 1)
    rows = []
    for i, k in enumerate(k_grid):
        v = sample_factor(p, int(k), n, seed + 1000 * i)
        bayes_scores = bayes_limit_score(p, clamp_fraction(v.votes.mean(axis=1), int(k)))
        rows.append(separation_row(k, (bayes_scores >= 0).astype(int), ci_oracle_predict(q0, q1, p.pi, v.votes),
                                   v.gold_labels))
    return rows


def factor_to_ising(p: MultiFactorParams, epsilon: float, y: int) -> tuple[np.ndarray, np.ndarray]:
    """Second-order reduction of a weak-loading factor model to Ising form.

    With loadings eps * base, the couplings are the off-diagonal entries of
    the scaled Gram matrix (rank <= r) and the fields pick up the
    second-order corrections h_j = eta_j + (1/2 - p_j)||lam_j||^2
    - sum_{k != j} p_k lam_j . lam_k with p_j = sigma(eta_j).
    """
    lam = epsilon * p.loadings
    eta = p.eta(y)
    pj = expit(eta)
    gram = lam @ lam.T
    w = gram.copy()
    np.fill_diagonal(w, 0.0)
    sq = np.diag(gram)
    h = eta + (0.5 - pj) * sq - (w @ pj)
    return h, w


def factor_log_lik(p: MultiFactorParams, votes: np.ndarray, y: int) -> np.ndarray:
    """Exact (quadrature) log Pr(J | Y=y) per item for the rank-1 model."""
    if p.rank != 1:
        raise ValueError("quadrature evidence implemented for rank-1 loadings only")
    return _node_scores(np.asarray(votes, dtype=float), p.eta(y), p.loadings[:, 0])[0]


def _node_scores(votes: np.ndarray, eta0: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log sum_q wq prod_j Bern(J_j; sigma(eta0_j + lam_j z_q)) per row, and each node's share of that sum.

    The per-node logits are eta0_j + lam_j z_q, so the row-dependent part
    needs only two matvecs. The shares are the node responsibilities: each
    row of the (rows, Q) table is non-negative and sums to 1.
    """
    base = votes @ eta0           # (n,)
    load = votes @ lam            # (n,)
    eta = eta0[None, :] + np.outer(_ZQ, lam)        # (Q, K)
    norm = logistic(eta)[1].sum(axis=1)             # (Q,)
    scores = base[:, None] + np.outer(load, _ZQ) - norm[None, :] + _LOG_WQ[None, :]
    return _normalize_rows(scores)


def _normalize_rows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log sum_q exp(scores) per row (as :func:`em.logsumexp`), and ``scores`` overwritten with the row shares.

    Each row is shifted by its maximum, exponentiated in place and divided
    by its sum. A row whose maximum is not finite is not shifted.
    """
    top = scores.max(axis=1)
    top[~np.isfinite(top)] = 0.0
    scores -= top[:, None]
    np.exp(scores, out=scores)
    total = scores.sum(axis=1)
    scores /= total[:, None]
    with np.errstate(divide="ignore"):
        return np.log(total) + top, scores


def em_fit_factor(v: VoteMatrix, r: int = 1, config: EMConfig = EMConfig()) -> EMFit:
    """Quadrature EM for the rank-1 per-judge factor model.

    The E-step scores both classes with 61-node quadrature evidence (the
    factor scale is fixed to sigma_Z = 1 and absorbed into the loadings).
    The M-step maximizes the minorizer of the weighted quadrature
    log-likelihood built on the last E-step's node responsibilities: per
    judge, a concave weighted logistic problem in (a_j, b_j, lam_j), all
    judges solved together by :func:`em.minimize`. The surrogate mixture
    objective is non-decreasing across iterations. Loadings are
    canonicalized to non-negative total sign. Every step runs over the
    distinct vote rows. No prior is read: the penalty is 0.0, and
    ``config.prior_a``/``prior_b`` reach the fit only through its "ci" warm start.
    """
    if r != 1:
        raise ValueError("only rank r=1 fitting is supported")
    return em.run(v, _FactorModel, config, ci_fit=em_fit_ci)


class _FactorModel:
    """One restart of the rank-1 factor family for :func:`em.run`."""

    def __init__(self, patterns, trace, config):
        k = patterns.shape[1]
        self.patterns = patterns
        self.a = self.b = np.zeros(k)
        # Small positive loading init: breaks the lam = 0 stationary point while
        # staying below the noise floor, so a null factor is not inflated.
        self.lam = 0.05 * np.ones(k)
        self._scores()

    def _scores(self):
        """Class-1 and class-0 evidence per pattern; keeps both classes' node responsibilities."""
        self.resp = None  # the last step's are spent; free them before building new ones
        (l0, r0), (l1, r1) = (_node_scores(self.patterns, eta0, self.lam) for eta0 in (self.b, self.a + self.b))
        self.resp = r0, r1
        return l1, l0

    def _mstep(self, w1, w0):
        """Improve the quadrature log-likelihood, rows weighted by w1 and w0, via its node minorizer.

        The family's ``resp`` holds the class-0 and class-1 node responsibilities
        at the current parameters (from :func:`_node_scores`); the resulting bound is,
        for each judge, a weighted logistic log-likelihood in (a_j, b_j, lam_j)
        with node-level weights shared across judges. One :func:`em.minimize`
        solve over all K judges' parameters, whose Hessian is block-diagonal,
        keeps the bound (and hence the objective) from decreasing.
        """
        k, x = len(self.a), _NODE_FEATURES
        # Per class: sum_i w R per node, (Q,), and sum_i w R J per judge, (K, Q).
        cw = np.concatenate([w @ r for w, r in zip((w0, w1), self.resp)])
        dw = np.concatenate([(self.patterns * w[:, None]).T @ r for w, r in zip((w0, w1), self.resp)], axis=1)

        def neg_bound(flat):
            eta = flat.reshape(k, 3) @ x.T                                      # (K, 2Q)
            sig, softplus = logistic(eta)
            hess = np.zeros((k, 3, k, 3))
            hess[np.arange(k), :, np.arange(k), :] = np.einsum("kq,qa,qb->kab", cw * sig * (1.0 - sig), x, x)
            return (softplus.sum(axis=0) @ cw - np.sum(dw * eta),
                    ((cw * sig - dw) @ x).ravel(), hess.reshape(3 * k, 3 * k))

        theta = em.minimize(neg_bound, np.stack([self.a, self.b, self.lam], axis=1).ravel()).x.reshape(k, 3)
        self.a, self.b, self.lam = theta[:, 0].copy(), theta[:, 1].copy(), theta[:, 2].copy()

    def step(self, w1, w0, pi):
        self._mstep(w1, w0)
        return *self._scores(), 0.0

    def params(self, pi) -> MultiFactorParams:
        lam = -self.lam if self.lam.sum() < 0 else self.lam
        return MultiFactorParams(a=self.a, b=self.b, loadings=lam[:, None], pi=pi)

