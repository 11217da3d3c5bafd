"""Class-dependent and class-independent Ising vote aggregation.

Exact small-K likelihoods by enumeration, quadratic and linear posterior
rules, penalized pseudo-likelihood fitting by damped Newton, and the
generalized EM driver that alternates exact (or pseudo-likelihood) class
scores with weighted pseudo-likelihood M-steps.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cache, partial

import numpy as np
from scipy.special import expit

from . import em
from .ci import CIParams, em_fit_ci
from .data import VoteMatrix, rng_from
from .em import INIT_STRATEGIES, PI_EPS, EMConfig, EMFit

K_MAX_EXACT = 15


class ExactEvidenceUnavailable(ValueError):
    """Raised when 2^K enumeration is out of reach for the requested K."""

    def __init__(self, k: int):
        super().__init__(f"exact evidence unavailable for K={k} (cutoff {K_MAX_EXACT}); "
                         "score classes with the pseudo-likelihood instead")


class PseudoFitError(RuntimeError):
    """Pseudo-likelihood solver hit its step cap; carries the best iterate."""

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

    def log_scores(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class-1 and class-0 log-scores of every vote row (see :func:`_class_scores`)."""
        return _class_scores(rows, self.h1, self.W1), _class_scores(rows, self.h0, self.W0)

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
    """Log partition functions for both classes, valid up to :data:`K_MAX_EXACT`."""

    log_z0: float
    log_z1: float


def all_configs(k: int) -> np.ndarray:
    """All 2^K binary vote vectors as a read-only (2^K, K) float matrix.

    Built once per K and shared by every caller. Raises
    :class:`ExactEvidenceUnavailable` beyond :data:`K_MAX_EXACT`.
    """
    if k > K_MAX_EXACT:
        raise ExactEvidenceUnavailable(k)
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


def log_partition(h, W) -> float:
    """log sum over all 2^K configurations of exp(energy), by enumeration.

    The judges are split into halves a and b. A configuration is a pair
    (x_a, x_b) with energy E_a(x_a) + E_b(x_b) + x_a W_ab x_b, so the 2^K
    terms form a 2^|a| x 2^|b| table built from the two half enumerations
    and one matrix product, with no 2^K x K configuration matrix.
    """
    h = np.asarray(h, dtype=float)
    W = _check_coupling(W, "W")
    k = len(h)
    if k > K_MAX_EXACT:
        raise ExactEvidenceUnavailable(k)
    m = k // 2
    ca, cb = _configs(m), _configs(k - m)
    ea = _energies(ca, h[:m], W[:m, :m])
    eb = _energies(cb, h[m:], W[m:, m:])
    e = ea[:, None] + eb[None, :] + (ca @ W[:m, m:]) @ cb.T
    top = e.max()
    return float(top + np.log(np.exp(e - top).sum()))


def exact_evidence(p: IsingParams) -> ExactEvidence:
    return ExactEvidence(log_z0=log_partition(p.h0, p.W0), log_z1=log_partition(p.h1, p.W1))


def class_conditional_prob(p: IsingParams, j, y: int) -> float:
    """Exact Pr(J = j | Y = y) via enumeration; sums to 1 over all 2^K vectors."""
    h, W = (p.h1, p.W1) if y == 1 else (p.h0, p.W0)
    return float(np.exp(energy(j, h, W) - log_partition(h, W)))


def class_conditional_table(p: IsingParams, y: int) -> np.ndarray:
    """Probability of every configuration (row order of :func:`all_configs`)."""
    h, W = (p.h1, p.W1) if y == 1 else (p.h0, p.W0)
    return np.exp(_energies(all_configs(p.k), h, W) - log_partition(h, W))


def bayes_log_odds(p: IsingParams, j) -> float:
    """Posterior log-odds: logit(pi) + dh.J + sum_{j<k} dW_jk J_j J_k + dZ.

    With shared couplings the quadratic part vanishes identically and the
    rule is the linear weighted vote logit(pi) + c.J + dZ with c = h1 - h0.
    """
    return float(bayes_log_odds_matrix(p, np.asarray(j, dtype=float)[None, :])[0])


def bayes_log_odds_matrix(p: IsingParams, votes: np.ndarray) -> np.ndarray:
    """:func:`bayes_log_odds` of every row of ``votes``."""
    votes = np.asarray(votes, dtype=float)
    ev = exact_evidence(p)
    dh = p.h1 - p.h0
    dW = p.W1 - p.W0
    quad = 0.0 if p.shared_couplings else 0.5 * np.einsum("ij,jk,ik->i", votes, dW, votes)
    dz = ev.log_z0 - ev.log_z1
    return np.log(p.pi / (1.0 - p.pi)) + votes @ dh + quad + dz


def _class_scores(rows: np.ndarray, h: np.ndarray, W: np.ndarray) -> np.ndarray:
    """log Pr(J | class) per row: energy - log Z up to :data:`K_MAX_EXACT`, else the pseudo-log-likelihood.

    Both classes are scored with the same surrogate, so intercepts stay comparable.
    """
    if len(h) > K_MAX_EXACT:
        return _pll_scores(rows, h, W)
    return _energies(rows, h, W) - log_partition(h, W)


def ci_from_marginals(p: IsingParams) -> CIParams:
    """Best CI summary of the joint model: exact per-judge marginals.

    alpha_k = Pr(J_k=1 | Y=1), beta_k = 1 - Pr(J_k=1 | Y=0), computed by
    enumeration. Feeding these into the CI log-odds gives the predictor that
    matches the true one-dimensional marginals while ignoring couplings.
    """
    configs = all_configs(p.k)
    m1 = class_conditional_table(p, 1) @ configs
    m0 = class_conditional_table(p, 0) @ configs
    eps = 1e-12
    return CIParams(
        pi=p.pi,
        alpha=np.clip(m1, eps, 1 - eps),
        beta=np.clip(1.0 - m0, eps, 1 - eps),
    )


def sample_ising(h, W, n: int, seed: int) -> np.ndarray:
    """n exact draws from one class-conditional model via the 2^K categorical."""
    # One class model, stored as both classes so class_conditional_table normalizes it.
    p = IsingParams(pi=0.5, h0=h, h1=h, W0=W, W1=W)
    probs = class_conditional_table(p, 1)
    idx = rng_from(seed, 23).choice(len(probs), size=n, p=probs)
    return all_configs(p.k)[idx].astype(np.int8)


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
    return float(-_flat_prior_pll(h, W, v, weights, lam)[0])


def pseudo_log_likelihood_grad(h, W, v: VoteMatrix | np.ndarray, weights, lam: float = LAMBDA_REG):
    """Analytic gradient of :func:`pseudo_log_likelihood` in (h, W).

    Returned coupling gradient is symmetric with zero diagonal; entry (j,k)
    is the derivative with respect to the tied parameter W_jk = W_kj.
    """
    return _unpack(-_flat_prior_pll(h, W, v, weights, lam)[1], len(h))


def _flat_prior_pll(h, W, v, weights, lam):
    """The M-step kernel :func:`_neg_pll_newton` at (h, W), under a flat Beta(1, 1) field prior."""
    votes = v.votes.astype(float) if isinstance(v, VoteMatrix) else np.asarray(v, dtype=float)
    W = _check_coupling(W, "W")
    x = np.concatenate([np.asarray(h, dtype=float), W[_triu(len(W))]])
    return _neg_pll_newton(x, _PLLDesign(votes), np.asarray(weights, dtype=float), lam, 1.0, 1.0)


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


def _field_prior(h: np.ndarray, a: float, b: float) -> tuple[float, np.ndarray, np.ndarray]:
    # Beta(a,b) on each sigma(h_j): keeps fields finite under degenerate
    # weights and makes the K=1 model collapse exactly onto the CI fitter.
    # A term whose exponent is 0 is left out: once sigma(h_j) rounds to 0 or
    # 1 (|h_j| past about 37) it would be 0 * log(0), which is NaN.
    # Returns the value, its gradient and its negated second derivative.
    s = expit(h)
    terms = 0.0
    if a != 1.0:
        terms = (a - 1.0) * np.log(s)
    if b != 1.0:
        terms = terms + (b - 1.0) * np.log1p(-s)
    val = float(np.sum(terms))
    grad = (a - 1.0) * (1.0 - s) - (b - 1.0) * s
    return val, grad, (a + b - 2.0) * s * (1.0 - s)


# The table of pattern outer products is built once per EM restart (or
# fit_pseudo call) while it fits in this many bytes; larger tables are
# rebuilt chunk by chunk over patterns at every Hessian, so memory stays
# bounded at large K and many patterns.
_OUTER_TABLE_BYTES = 1 << 24


def _outer_table(votes: np.ndarray) -> np.ndarray:
    """Upper triangle of d d^T for every row, with d = (1, J): (rows, (K+1)(K+2)/2)."""
    d = np.hstack([np.ones((len(votes), 1)), votes])
    r, c = np.triu_indices(d.shape[1])
    return d[:, r] * d[:, c]


class _PLLDesign:
    """Vote rows of a pseudo-likelihood solve and their outer-product table."""

    def __init__(self, votes: np.ndarray):
        self.votes = votes
        self.k = k = votes.shape[1]
        self.chunk = max(1, _OUTER_TABLE_BYTES // (8 * (k + 1) * (k + 2) // 2))
        self.table = _outer_table(votes) if len(votes) <= self.chunk else None

    def hessian(self, curv: np.ndarray) -> np.ndarray:
        """sum_{p,j} curv_pj d_pj d_pj^T in (h, triu W), for node logit curvatures curv (rows, K)."""
        if self.table is not None:
            blocks = curv.T @ self.table
        else:
            blocks = sum(curv[i:i + self.chunk].T @ _outer_table(self.votes[i:i + self.chunk])
                         for i in range(0, len(self.votes), self.chunk))
        src, dst, npar = _hessian_scatter(self.k)
        return np.bincount(dst, weights=blocks.ravel()[src], minlength=npar * npar).reshape(npar, npar)


@cache
def _hessian_scatter(k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Where each node block entry lands in the (h, triu W) Hessian.

    Node j's logit has derivative (1, J) in (h_j, W_j.), minus the J_j slot
    (no W_jj). ``src`` indexes the flattened (K, (K+1)(K+2)/2) blocks and
    ``dst`` the flattened npar x npar Hessian; off-diagonal block entries
    appear twice, once per triangle.
    """
    iu = _triu(k)
    npar = k + len(iu[0])
    slot = np.full((k, k + 1), -1)
    slot[:, 0] = np.arange(k)
    slot[iu[0], 1 + iu[1]] = slot[iu[1], 1 + iu[0]] = k + np.arange(len(iu[0]))
    r, c = np.triu_indices(k + 1)
    rows, cols = slot[:, r], slot[:, c]
    node, entry = np.nonzero((rows >= 0) & (cols >= 0))
    src = node * len(r) + entry
    a, b = rows[node, entry], cols[node, entry]
    off = a != b
    src = np.concatenate([src, src[off]])
    dst = np.concatenate([a * npar + b, b[off] * npar + a[off]])
    for arr in (src, dst):
        arr.flags.writeable = False
    return src, dst, npar


def _neg_pll_newton(x, design: _PLLDesign, weights, lam, a, b):
    """Negated penalized PLL of one class model, its gradient and its Hessian in (h, triu W).

    The PLL is K tied logistic regressions, so the Hessian is the sum over
    nodes j and rows p of c_pj d_pj d_pj^T with c = w sigma(eta)(1 - sigma(eta)),
    plus the field prior's curvature and the ridge's 4*lam on the diagonal.
    """
    k = design.k
    iu = _triu(k)
    votes = design.votes
    h, W = _unpack(x, k)
    eta = h[None, :] + votes @ W
    sig = expit(eta)
    ll = np.sum(weights[:, None] * (votes * eta - np.logaddexp(0.0, eta)))
    pv, pg, pc = _field_prior(h, a, b)
    ll += pv - lam * np.sum(W ** 2)
    resid = weights[:, None] * (votes - sig)
    gw_full = votes.T @ resid
    grad = np.concatenate([resid.sum(axis=0) + pg, (gw_full + gw_full.T)[iu] - 4.0 * lam * W[iu]])
    hess = design.hessian(weights[:, None] * sig * (1.0 - sig))
    hess[np.diag_indices(len(x))] += np.concatenate([pc, np.full(len(iu[0]), 4.0 * lam)])
    return -ll, -grad, hess


@cache
def _shared_slots(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of (h1, W) and (h0, W) in the joint shared-mode vector (h1, h0, triu W)."""
    npar = 2 * k + k * (k - 1) // 2
    return np.r_[0:k, 2 * k:npar], np.r_[k:2 * k, 2 * k:npar]


def _neg_pll_newton_shared(xj, design: _PLLDesign, w1, w0, lam, a, b):
    """Both class models with one shared W, each with half the ridge: value, gradient, Hessian."""
    i1, i0 = _shared_slots(design.k)
    f1, g1, h1 = _neg_pll_newton(xj[i1], design, w1, lam / 2, a, b)
    f0, g0, h0 = _neg_pll_newton(xj[i0], design, w0, lam / 2, a, b)
    grad = np.zeros(len(xj))
    grad[i1] += g1
    grad[i0] += g0
    hess = np.zeros((len(xj), len(xj)))
    hess[np.ix_(i1, i1)] += h1
    hess[np.ix_(i0, i0)] += h0
    return f1 + f0, grad, hess


@dataclass(frozen=True)
class NewtonResult:
    """Outcome of :func:`minimize`: the best iterate, its value and the work done."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    success: bool


_NEWTON_GTOL = 1e-9
_NEWTON_MAX_STEPS = 100
_NEWTON_MAX_HALVINGS = 40


def minimize(fun, x0) -> NewtonResult:
    """Damped Newton descent on a convex ``fun(x) -> (value, gradient, Hessian)``.

    Each step solves H d = -g and halves d until the value does not rise
    (up to rounding). Stops with ``success`` when max|g| <= 1e-9 (1 + |f|),
    and without it after ``_NEWTON_MAX_STEPS`` steps or when no halving is
    accepted; ``x`` is the best iterate either way. Every pseudo-likelihood
    solve in this module goes through this one module-level name, so the
    per-layer trace of ``perfbench`` times it by wrapping
    ``judgeagg.ising.minimize``, and reads ``nfev`` (value+gradient+Hessian
    evaluations) and ``nit`` (accepted steps).
    """
    x = np.asarray(x0, dtype=float)
    f, g, hess = fun(x)
    nfev, nit = 1, 0
    # Keeps the Newton system solvable where a node carries no weight under a
    # flat field prior (a = b = 1); the gradient there is 0, and so is the step.
    ridge = 1e-12 * np.eye(len(x))
    while np.max(np.abs(g)) > _NEWTON_GTOL * (1.0 + abs(f)):
        if nit == _NEWTON_MAX_STEPS:
            return NewtonResult(x, f, nfev, nit, False)
        step = -np.linalg.solve(hess + ridge, g)
        slack = 1e-13 * (1.0 + abs(f))
        for _ in range(_NEWTON_MAX_HALVINGS):
            cand = fun(x + step)
            nfev += 1
            if cand[0] <= f + slack:
                break
            step *= 0.5
        else:
            return NewtonResult(x, f, nfev, nit, False)
        x = x + step
        f, g, hess = cand
        nit += 1
    return NewtonResult(x, f, nfev, nit, True)


def fit_pseudo(v: VoteMatrix | np.ndarray, weights, lam: float = LAMBDA_REG,
               prior_a: float = 2.0, prior_b: float = 2.0,
               x0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the penalized pseudo-log-likelihood over (h, W) jointly.

    Full-parameter damped Newton on the symmetric parameterization (one tied
    value per pair), with the coupling ridge and a Beta(prior_a, prior_b)
    prior on each field's success probability. Raises
    :class:`PseudoFitError` (carrying the best iterate) when the solve ends
    before its gradient stop.
    """
    votes = v.votes.astype(float) if isinstance(v, VoteMatrix) else np.asarray(v, dtype=float)
    n, k = votes.shape
    if n < k + 1:
        warnings.warn(f"pseudo-likelihood fit with n={n} < K+1={k + 1} items is poorly determined")
    if x0 is None:
        x0 = np.zeros(k + k * (k - 1) // 2)
    weights = np.asarray(weights, dtype=float)
    res = minimize(partial(_neg_pll_newton, design=_PLLDesign(votes), weights=weights,
                           lam=lam, a=prior_a, b=prior_b), x0)
    h, W = _unpack(res.x, k)
    if not res.success:
        raise PseudoFitError("pseudo-likelihood solver did not converge within its step cap", h, W)
    return h, W


# ---------------------------------------------------------------------------
# Generalized EM driver


def _class_param_fit(design, w1, w0, mode, x1, x0, lam, a, b):
    """One M-step: pseudo-likelihood fits for both class models, weighted by w1 and w0."""
    votes, k = design.votes, design.k
    if k == 1:
        # No couplings exist: the weighted Bernoulli MAP has a closed form
        # identical to the CI fitter's update, kept inside (0,1) as there.
        s1 = np.clip((a - 1.0 + w1 @ votes[:, 0]) / (a + b - 2.0 + w1.sum()), PI_EPS, 1.0 - PI_EPS)
        s0 = np.clip((a - 1.0 + w0 @ votes[:, 0]) / (a + b - 2.0 + w0.sum()), PI_EPS, 1.0 - PI_EPS)
        z = np.zeros((1, 1))
        return (np.array([np.log(s0 / (1 - s0))]), np.array([np.log(s1 / (1 - s1))]), z, z,
                np.array([np.log(s1 / (1 - s1))]), np.array([np.log(s0 / (1 - s0))]))
    if mode == "class_dependent":
        nx1 = minimize(partial(_neg_pll_newton, design=design, weights=w1, lam=lam, a=a, b=b), x1).x
        nx0 = minimize(partial(_neg_pll_newton, design=design, weights=w0, lam=lam, a=a, b=b), x0).x
        h1, W1 = _unpack(nx1, k)
        h0, W0 = _unpack(nx0, k)
    else:
        # Shared couplings: one joint solve over (h1, h0, W) so W0 = W1 holds
        # exactly rather than by post-hoc averaging.
        i1, i0 = _shared_slots(k)
        xj = np.zeros(len(i1) + k)
        xj[i1], xj[i0[:k]] = x1, x0[:k]
        xj = minimize(partial(_neg_pll_newton_shared, design=design, w1=w1, w0=w0, lam=lam, a=a, b=b), xj).x
        nx1, nx0 = xj[i1], xj[i0]
        h1, W1 = _unpack(nx1, k)
        h0 = nx0[:k]
        W0 = W1
    return h0, h1, W0, W1, nx1, nx0


def em_fit_ising(v: VoteMatrix, mode: str = "class_dependent", config: EMConfig = EMConfig()) -> EMFit:
    """Generalized EM for Ising vote models.

    E-step scores each class with exact evidence when K <= K_MAX_EXACT and
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
    if mode not in ("class_dependent", "class_independent"):
        raise ValueError(f"unknown mode {mode!r}")
    if v.k > K_MAX_EXACT:
        warnings.warn(f"exact evidence unavailable for K={v.k} (cutoff {K_MAX_EXACT}); "
                      "E-step falls back to pseudo-likelihood class scores")
    family = partial(_IsingModel, mode=mode, config=config)
    # With a single judge no couplings exist and the model coincides with the
    # CI fitter; run the matched single-init procedure so outputs agree.
    strategies = ("majority",) if v.k == 1 else INIT_STRATEGIES
    return em.run(v, family, config, strategies, ci_fit=em_fit_ci)


class _IsingModel:
    """One restart of the Ising family for :func:`em.run`, from zero fields and couplings."""

    def __init__(self, patterns, trace, mode, config):
        k = patterns.shape[1]
        self.patterns, self.trace = patterns, trace
        self.design = _PLLDesign(patterns)
        self.mode, self.shared = mode, mode == "class_independent"
        self.lam, self.a, self.b = LAMBDA_REG, config.prior_a, config.prior_b
        npar = k + k * (k - 1) // 2
        self.x1 = np.zeros(npar)
        self.x0 = np.zeros(npar)
        self.h0 = self.h1 = np.zeros(k)
        self.W0 = self.W1 = np.zeros((k, k))
        self.s1 = self.s0 = None

    def _penalty(self, h0, h1, W0, W1) -> float:
        p0 = _field_prior(h0, self.a, self.b)[0]
        p1 = _field_prior(h1, self.a, self.b)[0]
        if self.shared:
            ridge = self.lam * np.sum(W1 ** 2)
        else:
            ridge = self.lam * (np.sum(W0 ** 2) + np.sum(W1 ** 2))
        return p0 + p1 - ridge

    def step(self, w1, w0, pi):
        cand = _class_param_fit(self.design, w1, w0, self.mode, self.x1, self.x0, self.lam, self.a, self.b)
        ch0, ch1, cW0, cW1 = cand[:4]
        cs1 = _class_scores(self.patterns, ch1, cW1)
        cs0 = _class_scores(self.patterns, ch0, cW0)
        q_cand = float(w1 @ cs1 + w0 @ cs0) + self._penalty(ch0, ch1, cW0, cW1)
        accept = self.s1 is None  # the first M-step has nothing to fall back to
        if not accept:
            q_cur = float(w1 @ self.s1 + w0 @ self.s0) + self._penalty(self.h0, self.h1, self.W0, self.W1)
            accept = q_cand >= q_cur - 1e-9
        if accept:
            self.h0, self.h1, self.W0, self.W1, self.x1, self.x0 = cand
            self.s1, self.s0 = cs1, cs0
        else:
            # Safeguard: the pseudo-likelihood step degraded the expected
            # complete-data objective under the active scores; keep the old
            # parameters (generalized EM allows a null M-step).
            self.trace.notes.append(f"iter {self.trace.n_iters}: M-step rejected by safeguard")
        return self.s1, self.s0, self._penalty(self.h0, self.h1, self.W0, self.W1)

    def params(self, pi) -> IsingParams:
        return IsingParams(pi=pi, h0=self.h0, h1=self.h1, W0=self.W0, W1=self.W1, shared_couplings=self.shared)

    def orientation(self, params: IsingParams) -> float:
        if params.k <= K_MAX_EXACT:
            return float(ci_from_marginals(params).weights().sum())
        # Beyond the cutoff the field shift is the linear-rule weight vector.
        return float((params.h1 - params.h0).sum())
