"""Class-dependent and class-independent Ising vote aggregation.

Exact small-K likelihoods by enumeration, quadratic and linear posterior
rules, penalized pseudo-likelihood fitting, and the generalized EM driver
that alternates exact (or pseudo-likelihood) class scores with weighted
pseudo-likelihood M-steps.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cache, partial

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, logsumexp

from .ci import CIParams, em_fit_ci
from .data import PosteriorVector, VoteMatrix, rng_from
from .em import (
    EMConfig,
    EMTrace,
    INIT_STRATEGIES,
    RESTART_MARGIN,
    class_prior,
    init_gamma,
    judge_weights,
    relative_change,
    resolve_flip,
    vote_patterns,
)

K_MAX_EXACT = 15

# Strict budget for the standalone fitter (its exit-gradient contract is
# checked explicitly); light budget for M-steps inside EM, where a partial
# ascent step is enough and the safeguard preserves monotonicity.
_LBFGS_OPTS_FIT = dict(maxiter=500, ftol=1e-15, gtol=1e-9)
_LBFGS_OPTS_EM = dict(maxiter=50, ftol=1e-10, gtol=1e-6)


class ExactEvidenceUnavailable(ValueError):
    """Raised when 2^K enumeration is out of reach for the requested K."""

    def __init__(self, k: int, k_max: int):
        super().__init__(
            f"exact evidence unavailable for K={k} (cutoff {k_max}); "
            "score classes with the pseudo-likelihood instead"
        )


class PseudoFitError(RuntimeError):
    """Pseudo-likelihood optimizer hit its iteration cap; carries the best iterate."""

    def __init__(self, message: str, h: np.ndarray, w: np.ndarray):
        super().__init__(message)
        self.best_h = h
        self.best_w = w


def _check_coupling(w: np.ndarray, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.allclose(w, w.T, atol=0, rtol=0):
        raise ValueError(f"{name} must be exactly symmetric")
    if np.any(np.diag(w) != 0.0):
        raise ValueError(f"{name} must have a zero diagonal")
    return w


@dataclass(frozen=True)
class IsingParams:
    """Class prior, per-class fields, and symmetric zero-diagonal couplings.

    ``shared_couplings`` marks the class-independent submodel and requires
    W0 and W1 to be bit-identical.
    """

    pi: float
    h0: np.ndarray
    h1: np.ndarray
    W0: np.ndarray
    W1: np.ndarray
    shared_couplings: bool = False

    def __post_init__(self):
        if not (0.0 < self.pi < 1.0):
            raise ValueError("pi must lie strictly inside (0,1)")
        h0 = np.asarray(self.h0, dtype=float)
        h1 = np.asarray(self.h1, dtype=float)
        w0 = _check_coupling(self.W0, "W0")
        w1 = _check_coupling(self.W1, "W1")
        k = len(h0)
        if h1.shape != (k,) or w0.shape != (k, k) or w1.shape != (k, k):
            raise ValueError("h0, h1, W0, W1 must agree on K")
        if self.shared_couplings and not np.array_equal(w0, w1):
            raise ValueError("shared_couplings requires W0 and W1 to be identical")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "W0", w0)
        object.__setattr__(self, "W1", w1)

    @property
    def k(self) -> int:
        return len(self.h0)

    def flipped(self) -> "IsingParams":
        return IsingParams(
            pi=1.0 - self.pi, h0=self.h1, h1=self.h0, W0=self.W1, W1=self.W0,
            shared_couplings=self.shared_couplings,
        )

    def to_json(self) -> str:
        mode = "class_independent" if self.shared_couplings else "class_dependent"
        payload = {
            "mode": mode,
            "pi": self.pi,
            "h0": self.h0.tolist(),
            "h1": self.h1.tolist(),
            "W0": self.W0.tolist(),
            "W1": self.W1.tolist(),
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "IsingParams":
        d = json.loads(text)
        return IsingParams(
            pi=d["pi"],
            h0=np.array(d["h0"], dtype=float),
            h1=np.array(d["h1"], dtype=float),
            W0=np.array(d["W0"], dtype=float),
            W1=np.array(d["W1"], dtype=float),
            shared_couplings=d["mode"] == "class_independent",
        )


@dataclass(frozen=True)
class ExactEvidence:
    """Log partition functions for both classes, valid up to the enumeration cutoff."""

    log_z0: float
    log_z1: float
    k_max_exact: int = K_MAX_EXACT


def all_configs(k: int, k_max_exact: int = K_MAX_EXACT) -> np.ndarray:
    """All 2^K binary vote vectors as a read-only (2^K, K) float matrix.

    Built once per K and shared by every caller. Raises
    :class:`ExactEvidenceUnavailable` beyond the caller's cutoff.
    """
    if k > k_max_exact:
        raise ExactEvidenceUnavailable(k, k_max_exact)
    return _configs(k)


@cache
def _configs(k: int) -> np.ndarray:
    configs = ((np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1).astype(float)
    configs.flags.writeable = False
    return configs


def energy(j, h, W) -> float:
    """Ising exponent h.J + (1/2) sum_{j!=k} W_jk J_j J_k for one vote vector."""
    j = np.asarray(j, dtype=float)
    h = np.asarray(h, dtype=float)
    W = _check_coupling(W, "W")
    return float(h @ j + 0.5 * j @ W @ j)


def _energies(configs: np.ndarray, h: np.ndarray, W: np.ndarray) -> np.ndarray:
    return configs @ h + 0.5 * ((configs @ W) * configs).sum(axis=1)


def log_partition(h, W, k_max_exact: int = K_MAX_EXACT) -> float:
    """log sum over all 2^K configurations of exp(energy), by enumeration."""
    h = np.asarray(h, dtype=float)
    W = _check_coupling(W, "W")
    return float(logsumexp(_energies(all_configs(len(h), k_max_exact), h, W)))


def exact_evidence(p: IsingParams, k_max_exact: int = K_MAX_EXACT) -> ExactEvidence:
    return ExactEvidence(
        log_z0=log_partition(p.h0, p.W0, k_max_exact),
        log_z1=log_partition(p.h1, p.W1, k_max_exact),
        k_max_exact=k_max_exact,
    )


def class_conditional_prob(p: IsingParams, j, y: int, k_max_exact: int = K_MAX_EXACT) -> float:
    """Exact Pr(J = j | Y = y) via enumeration; sums to 1 over all 2^K vectors."""
    h, W = (p.h1, p.W1) if y == 1 else (p.h0, p.W0)
    return float(np.exp(energy(j, h, W) - log_partition(h, W, k_max_exact)))


def class_conditional_table(p: IsingParams, y: int, k_max_exact: int = K_MAX_EXACT) -> np.ndarray:
    """Probability of every configuration (row order of :func:`all_configs`)."""
    h, W = (p.h1, p.W1) if y == 1 else (p.h0, p.W0)
    e = _energies(all_configs(p.k, k_max_exact), h, W)
    return np.exp(e - logsumexp(e))


def bayes_log_odds(p: IsingParams, j, k_max_exact: int = K_MAX_EXACT) -> float:
    """Posterior log-odds: logit(pi) + dh.J + sum_{j<k} dW_jk J_j J_k + dZ.

    With shared couplings the quadratic part vanishes identically and the
    rule is the linear weighted vote logit(pi) + c.J + dZ with c = h1 - h0.
    """
    j = np.asarray(j, dtype=float)
    ev = exact_evidence(p, k_max_exact)
    dh = p.h1 - p.h0
    dW = p.W1 - p.W0
    quad = 0.0 if p.shared_couplings else 0.5 * j @ dW @ j
    dz = ev.log_z0 - ev.log_z1
    return float(np.log(p.pi / (1.0 - p.pi)) + dh @ j + quad + dz)


def bayes_log_odds_matrix(p: IsingParams, votes: np.ndarray, k_max_exact: int = K_MAX_EXACT) -> np.ndarray:
    votes = np.asarray(votes, dtype=float)
    ev = exact_evidence(p, k_max_exact)
    dh = p.h1 - p.h0
    dW = p.W1 - p.W0
    quad = 0.0 if p.shared_couplings else 0.5 * np.einsum("ij,jk,ik->i", votes, dW, votes)
    dz = ev.log_z0 - ev.log_z1
    return np.log(p.pi / (1.0 - p.pi)) + votes @ dh + quad + dz


def posterior_predict(p: IsingParams, v: VoteMatrix, k_max_exact: int = K_MAX_EXACT) -> PosteriorVector:
    """Posterior for each item under fixed parameters.

    Uses exact evidence up to the cutoff, pseudo-likelihood class scores
    beyond it (both classes scored with the same surrogate, so intercepts
    stay comparable).
    """
    votes = v.votes.astype(float)
    if p.k <= k_max_exact:
        return PosteriorVector(expit(bayes_log_odds_matrix(p, votes, k_max_exact)))
    s0 = _pll_scores(votes, p.h0, p.W0)
    s1 = _pll_scores(votes, p.h1, p.W1)
    return PosteriorVector(expit(np.log(p.pi / (1.0 - p.pi)) + s1 - s0))


def ci_from_marginals(p: IsingParams, k_max_exact: int = K_MAX_EXACT) -> CIParams:
    """Best CI summary of the joint model: exact per-judge marginals.

    alpha_k = Pr(J_k=1 | Y=1), beta_k = 1 - Pr(J_k=1 | Y=0), computed by
    enumeration. Feeding these into the CI log-odds gives the predictor that
    matches the true one-dimensional marginals while ignoring couplings.
    """
    configs = all_configs(p.k, k_max_exact)
    m1 = class_conditional_table(p, 1, k_max_exact) @ configs
    m0 = class_conditional_table(p, 0, k_max_exact) @ configs
    eps = 1e-12
    return CIParams(
        pi=p.pi,
        alpha=np.clip(m1, eps, 1 - eps),
        beta=np.clip(1.0 - m0, eps, 1 - eps),
    )


def sample_ising(h, W, n: int, seed: int, k_max_exact: int = K_MAX_EXACT) -> np.ndarray:
    """n exact draws from one class-conditional model via the 2^K categorical."""
    h = np.asarray(h, dtype=float)
    W = _check_coupling(W, "W")
    configs = all_configs(len(h), k_max_exact)
    e = _energies(configs, h, W)
    probs = np.exp(e - logsumexp(e))
    idx = rng_from(seed, 23).choice(len(configs), size=n, p=probs)
    return configs[idx].astype(np.int8)


def sample_labeled(p: IsingParams, n: int, seed: int, judge_names=None) -> VoteMatrix:
    """Simulate n labeled items: Y ~ Bernoulli(pi), votes from the class model."""
    rng = rng_from(seed, 29)
    y = (rng.random(n) < p.pi).astype(np.int8)
    votes = np.zeros((n, p.k), dtype=np.int8)
    n1 = int(y.sum())
    if n1:
        votes[y == 1] = sample_ising(p.h1, p.W1, n1, seed * 2 + 1)
    if n - n1:
        votes[y == 0] = sample_ising(p.h0, p.W0, n - n1, seed * 2 + 2)
    names = judge_names if judge_names is not None else tuple(f"j{i+1}" for i in range(p.k))
    return VoteMatrix(votes=votes, item_ids=tuple(str(i) for i in range(n)),
                      judge_names=names, gold_labels=y)


# ---------------------------------------------------------------------------
# Pseudo-likelihood objective and fitting

LAMBDA_REG = 1e-2  # ridge on couplings; fields carry a Beta prior instead


def pseudo_log_likelihood(h, W, v: VoteMatrix | np.ndarray, weights, lam: float = LAMBDA_REG) -> float:
    """Weighted sum of conditional node log-likelihoods, minus lam * ||W||_F^2.

    For each item and node j the conditional is Bernoulli with logit
    eta_ij = h_j + sum_{k != j} W_jk J_ik; no partition function appears.
    """
    votes = v.votes.astype(float) if isinstance(v, VoteMatrix) else np.asarray(v, dtype=float)
    h = np.asarray(h, dtype=float)
    W = _check_coupling(W, "W")
    weights = np.asarray(weights, dtype=float)
    eta = h[None, :] + votes @ W
    ll = np.sum(weights[:, None] * (votes * eta - np.logaddexp(0.0, eta)))
    return float(ll - lam * np.sum(W ** 2))


def pseudo_log_likelihood_grad(h, W, v: VoteMatrix | np.ndarray, weights, lam: float = LAMBDA_REG):
    """Analytic gradient of :func:`pseudo_log_likelihood` in (h, W).

    Returned coupling gradient is symmetric with zero diagonal; entry (j,k)
    is the derivative with respect to the tied parameter W_jk = W_kj.
    """
    votes = v.votes.astype(float) if isinstance(v, VoteMatrix) else np.asarray(v, dtype=float)
    h = np.asarray(h, dtype=float)
    W = _check_coupling(W, "W")
    weights = np.asarray(weights, dtype=float)
    eta = h[None, :] + votes @ W
    resid = weights[:, None] * (votes - expit(eta))
    gh = resid.sum(axis=0)
    gw = votes.T @ resid
    gw = gw + gw.T - 4.0 * lam * W
    np.fill_diagonal(gw, 0.0)
    return gh, gw


def _pll_scores(votes: np.ndarray, h: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Per-item pseudo-log-likelihood under one class model."""
    eta = h[None, :] + votes @ W
    return np.sum(votes * eta - np.logaddexp(0.0, eta), axis=1)


@cache
def _triu(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Strict upper-triangle indices, built once per K and shared read-only."""
    iu = np.triu_indices(k, 1)
    for idx in iu:
        idx.flags.writeable = False
    return iu


def _unpack(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    h = x[:k]
    W = np.zeros((k, k))
    W[_triu(k)] = x[k:]
    return h, W + W.T


def _field_prior(h: np.ndarray, a: float, b: float) -> tuple[float, np.ndarray]:
    # Beta(a,b) on each sigma(h_j): keeps fields finite under degenerate
    # weights and makes the K=1 model collapse exactly onto the CI fitter.
    s = expit(h)
    val = float(np.sum((a - 1.0) * np.log(s) + (b - 1.0) * np.log1p(-s)))
    grad = (a - 1.0) * (1.0 - s) - (b - 1.0) * s
    return val, grad


def _penalized_pll_obj(x, votes, weights, k, lam, a, b):
    h, W = _unpack(x, k)
    eta = h[None, :] + votes @ W
    ll = np.sum(weights[:, None] * (votes * eta - np.logaddexp(0.0, eta)))
    pv, pg = _field_prior(h, a, b)
    ll += pv - lam * np.sum(W ** 2)
    resid = weights[:, None] * (votes - expit(eta))
    gh = resid.sum(axis=0) + pg
    gw_full = votes.T @ resid
    gw = (gw_full + gw_full.T)[_triu(k)] - 4.0 * lam * W[_triu(k)]
    return -ll, -np.concatenate([gh, gw])


def _maximize_pll(votes, weights, x0, lam, a, b, opts=_LBFGS_OPTS_EM):
    k = votes.shape[1]
    res = minimize(
        _penalized_pll_obj, x0, args=(votes, weights, k, lam, a, b),
        jac=True, method="L-BFGS-B", options=opts,
    )
    return res.x, bool(res.success)


def fit_pseudo(v: VoteMatrix | np.ndarray, weights, lam: float = LAMBDA_REG,
               prior_a: float = 2.0, prior_b: float = 2.0,
               x0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the penalized pseudo-log-likelihood over (h, W) jointly.

    Full-parameter quasi-Newton on the symmetric parameterization (one tied
    value per pair), with the coupling ridge and a Beta(prior_a, prior_b)
    prior on each field's success probability. Raises
    :class:`PseudoFitError` (carrying the best iterate) on non-convergence.
    """
    votes = v.votes.astype(float) if isinstance(v, VoteMatrix) else np.asarray(v, dtype=float)
    n, k = votes.shape
    if n < k + 1:
        warnings.warn(f"pseudo-likelihood fit with n={n} < K+1={k + 1} items is poorly determined")
    if x0 is None:
        x0 = np.zeros(k + k * (k - 1) // 2)
    weights = np.asarray(weights, dtype=float)
    x, _ = _maximize_pll(votes, weights, x0, lam, prior_a, prior_b, opts=_LBFGS_OPTS_FIT)
    h, W = _unpack(x, k)
    neg, grad = _penalized_pll_obj(x, votes, weights, k, lam, prior_a, prior_b)
    if np.max(np.abs(grad)) > 1e-6 * (1.0 + abs(neg)):
        raise PseudoFitError("pseudo-likelihood optimizer did not converge within its iteration cap", h, W)
    return h, W


# ---------------------------------------------------------------------------
# Generalized EM driver


@dataclass
class IsingEMFit:
    params: IsingParams
    posterior: PosteriorVector
    trace: EMTrace


def _exact_class_scores(votes, h, W, k_max_exact):
    return _energies(votes, h, W) - log_partition(h, W, k_max_exact)


def _class_param_fit(votes, w1, w0, mode, x1, x0, lam, a, b):
    """One M-step: pseudo-likelihood fits for both class models, weighted by w1 and w0."""
    k = votes.shape[1]
    if k == 1:
        # No couplings exist: the weighted Bernoulli MAP has a closed form
        # identical to the CI fitter's update.
        s1 = (a - 1.0 + w1 @ votes[:, 0]) / (a + b - 2.0 + w1.sum())
        s0 = (a - 1.0 + w0 @ votes[:, 0]) / (a + b - 2.0 + w0.sum())
        z = np.zeros((1, 1))
        return (np.array([np.log(s0 / (1 - s0))]), np.array([np.log(s1 / (1 - s1))]), z, z,
                np.array([np.log(s1 / (1 - s1))]), np.array([np.log(s0 / (1 - s0))]))
    if mode == "class_dependent":
        nx1, _ = _maximize_pll(votes, w1, x1, lam, a, b)
        nx0, _ = _maximize_pll(votes, w0, x0, lam, a, b)
        h1, W1 = _unpack(nx1, k)
        h0, W0 = _unpack(nx0, k)
    else:
        # Shared couplings: one joint solve over (h1, h0, W) so W0 = W1 holds
        # exactly rather than by post-hoc averaging.
        xj = np.concatenate([x1[:k], x0[:k], x1[k:]])

        def obj(xx):
            f1, g1 = _penalized_pll_obj(np.concatenate([xx[:k], xx[2 * k:]]), votes, w1, k, lam / 2, a, b)
            f0, g0 = _penalized_pll_obj(np.concatenate([xx[k:2 * k], xx[2 * k:]]), votes, w0, k, lam / 2, a, b)
            return f1 + f0, np.concatenate([g1[:k], g0[:k], g1[k:] + g0[k:]])

        res = minimize(obj, xj, jac=True, method="L-BFGS-B", options=_LBFGS_OPTS_EM)
        nx1 = np.concatenate([res.x[:k], res.x[2 * k:]])
        nx0 = np.concatenate([res.x[k:2 * k], res.x[2 * k:]])
        h1, W1 = _unpack(nx1, k)
        h0 = res.x[k:2 * k]
        W0 = W1
    return h0, h1, W0, W1, nx1, nx0


def _penalty_terms(h0, h1, W0, W1, shared, lam, a, b):
    p0, _ = _field_prior(h0, a, b)
    p1, _ = _field_prior(h1, a, b)
    if shared:
        ridge = lam * np.sum(W1 ** 2)
    else:
        ridge = lam * (np.sum(W0 ** 2) + np.sum(W1 ** 2))
    return p0 + p1 - ridge


def em_fit_ising(v: VoteMatrix, mode: str = "class_dependent", config: EMConfig = EMConfig(),
                 k_max_exact: int = K_MAX_EXACT) -> IsingEMFit:
    """Generalized EM for Ising vote models.

    E-step scores each class with exact evidence when K <= k_max_exact and
    with the pseudo-likelihood otherwise; the M-step maximizes the
    responsibility-weighted penalized pseudo-likelihood (jointly over the
    shared coupling matrix in class-independent mode). An M-step result is
    only accepted if it does not decrease the expected complete-data
    objective under the active scores, so the tracked objective is
    non-decreasing. Runs one restart per initialization strategy and keeps
    the best objective; the global label flip is resolved from the fitted
    model's implied marginal weights, falling back to class balance. Every
    step runs over the distinct vote rows.
    """
    if v.n < 2:
        raise ValueError("em_fit_ising requires at least 2 items")
    if mode not in ("class_dependent", "class_independent"):
        raise ValueError(f"unknown mode {mode!r}")
    patterns, counts, inverse = vote_patterns(v.votes)
    k = v.k
    if k > k_max_exact:
        warnings.warn(
            f"exact evidence unavailable for K={k} (cutoff {k_max_exact}); "
            "E-step falls back to pseudo-likelihood class scores"
        )
        score = _pll_scores
    else:
        score = partial(_exact_class_scores, k_max_exact=k_max_exact)
    lam, a, b = LAMBDA_REG, config.prior_a, config.prior_b

    # With a single judge no couplings exist and the model coincides with the
    # CI fitter; run the matched single-init procedure so outputs agree.
    strategies = ("majority",) if k == 1 else INIT_STRATEGIES
    best = None
    for stream, strategy in enumerate(strategies):
        if strategy == "ci":
            gamma0 = np.clip(em_fit_ci(v, config).posterior.gamma, 1e-3, 1 - 1e-3)
        else:
            gamma0 = init_gamma(v.votes, config.seed, strategy, stream=0 if strategy == "majority" else stream)
        w1 = np.bincount(inverse, weights=gamma0)
        run = _em_run(patterns, counts, w1, mode, score, config, lam, a, b, strategy)
        if best is None or run[0] > best[0] + RESTART_MARGIN * abs(best[0]):
            best = run
    _, gamma, params, trace = best

    wsum = _orientation_weight_sum(params, k_max_exact)
    if resolve_flip(wsum, params.pi):
        params = params.flipped()
        gamma = 1.0 - gamma
        trace.flipped = True
    return IsingEMFit(params=params, posterior=PosteriorVector(gamma[inverse]), trace=trace)


def _orientation_weight_sum(params: IsingParams, k_max_exact: int) -> float:
    if params.k <= k_max_exact:
        ci = ci_from_marginals(params, k_max_exact)
        return float(judge_weights(ci.alpha, ci.beta).sum())
    # Beyond the cutoff the field shift is the linear-rule weight vector.
    return float((params.h1 - params.h0).sum())


def _em_run(patterns, counts, w1, mode, score, config, lam, a, b, strategy):
    """One restart over distinct vote rows; returns the per-pattern posterior."""
    k = patterns.shape[1]
    shared = mode == "class_independent"
    npar = k + k * (k - 1) // 2
    x1 = np.zeros(npar)
    x0 = np.zeros(npar)
    h0 = h1 = np.zeros(k)
    W0 = W1 = np.zeros((k, k))
    trace = EMTrace(init_used=strategy)
    prev_obj = -np.inf
    s1 = s0 = None
    for _ in range(config.max_iters):
        w0 = counts - w1
        pi = class_prior(w1, w0)
        cand = _class_param_fit(patterns, w1, w0, mode, x1, x0, lam, a, b)
        ch0, ch1, cW0, cW1, cx1, cx0 = cand
        cs1 = score(patterns, ch1, cW1)
        cs0 = score(patterns, ch0, cW0)
        q_cand = float(w1 @ cs1 + w0 @ cs0) + _penalty_terms(ch0, ch1, cW0, cW1, shared, lam, a, b)
        if s1 is None:
            q_cur = -np.inf
        else:
            q_cur = float(w1 @ s1 + w0 @ s0) + _penalty_terms(h0, h1, W0, W1, shared, lam, a, b)
        if q_cand >= q_cur - 1e-9:
            h0, h1, W0, W1, x1, x0 = ch0, ch1, cW0, cW1, cx1, cx0
            s1, s0 = cs1, cs0
        else:
            # Safeguard: the pseudo-likelihood step degraded the expected
            # complete-data objective under the active scores; keep the old
            # parameters (generalized EM allows a null M-step).
            trace.notes.append(f"iter {trace.n_iters}: M-step rejected by safeguard")
        log_prior = np.log(pi / (1.0 - pi))
        gamma = expit(log_prior + s1 - s0)
        w1 = counts * gamma
        ll = float(counts @ logsumexp(np.stack([np.log(pi) + s1, np.log1p(-pi) + s0]), axis=0))
        obj = ll + _penalty_terms(h0, h1, W0, W1, shared, lam, a, b)
        trace.loglik.append(ll)
        trace.objective.append(obj)
        trace.n_iters += 1
        if relative_change(obj, prev_obj) < config.tol:
            trace.converged = True
            break
        prev_obj = obj
    params = IsingParams(pi=pi, h0=h0, h1=h1, W0=W0, W1=W1, shared_couplings=shared)
    return trace.objective[-1], gamma, params, trace
