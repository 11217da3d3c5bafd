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
restart as ``family(patterns, trace, config)``, with two methods:

- ``step(w1, w0, pi) -> (s1, s0, penalty)``: one M-step from the class
  weights, then the new parameters' pattern log-scores and log prior;
- ``params(pi)``: the current parameters, with class prior ``pi``; they
  provide ``pi``, ``k``, ``flipped()``, ``log_scores`` and ``weight_sum()``,
  the judge weight sum :func:`resolve_flip` reads.

A step replaces the family's attributes and changes none in place, so a
shallow copy of a family is a snapshot of its state.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import PosteriorVector, VoteDataError, VoteMatrix, is_integer, rng_from, vote_patterns

# Initialization strategies of a fit given a CI warm start, in order of
# preference when objectives tie: warm start from the CI solution, then
# majority-vote fraction, then the agreement statistic |2*frac - 1| (which
# separates classes whose signal lives in co-voting rather than in marginals).
INIT_STRATEGIES = ("ci", "majority", "agreement")

# Objective margin, relative to 1 + |best|, a later restart must win by to
# displace an earlier (more-preferred) one. The 1 keeps rounding from deciding
# between restarts whose objectives all lie near 0 (unanimous votes).
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
        if not is_integer(self.max_iters):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters}")
        if not 0.0 < self.tol < np.inf or self.max_iters < 1:
            raise ValueError("tol must be positive and finite, and max_iters at least 1")
        if not (1.0 <= self.prior_a < np.inf and 1.0 <= self.prior_b < np.inf):
            raise ValueError("Beta prior parameters must be finite and >= 1 (log-concave MAP updates)")
        if not is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


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
    converged: bool = False
    flipped: bool = False
    init_used: str = ""
    notes: list[str] = field(default_factory=list)

    @property
    def n_iters(self) -> int:
        return len(self.objective)


@dataclass
class EMFit:
    """Fitted parameters, per-item posteriors, and run diagnostics."""

    params: object
    posterior: PosteriorVector
    trace: EMTrace


def init_gamma(votes: np.ndarray, seed: int, strategy: str = "majority") -> np.ndarray:
    """Initial responsibilities from the vote matrix.

    majority: per-item vote fraction; agreement: |2*fraction - 1|. Both get a
    seeded +-0.05 jitter (streams 0 and 2) to break ties, then are clipped interior.
    """
    base = votes.mean(axis=1)
    if strategy == "agreement":
        base *= 2.0
        base -= 1.0
        np.abs(base, out=base)
    elif strategy != "majority":
        raise ValueError(f"unknown init strategy {strategy!r}")
    # In place, so only the vote fraction and the jitter are n-sized.
    gamma = rng_from(seed, 91, 2 if strategy == "agreement" else 0).uniform(-0.05, 0.05, size=len(base))
    gamma += base
    return np.clip(gamma, 1e-3, 1.0 - 1e-3, out=gamma)


def class_prior(w1: np.ndarray, w0: np.ndarray) -> float:
    """M-step class prior: share of the class-1 weight, kept inside (0,1)."""
    s1 = w1.sum()
    return float(np.clip(s1 / (s1 + w0.sum()), PI_EPS, 1.0 - PI_EPS))


def check_prior(pi) -> None:
    """Reject a class prior that is not a scalar strictly inside (0,1)."""
    if np.ndim(pi) != 0:
        raise ValueError("pi must be a number")
    if not 0.0 < pi < 1.0:
        raise ValueError("pi must lie strictly inside (0,1)")


def vote_rows(votes, k: int | None = None) -> tuple[np.ndarray, bool]:
    """A rule's 0/1 votes (a vector or rows, ``k`` per row if given) as float rows, and whether one vector came."""
    rows = np.asarray(votes, dtype=float)
    if rows.ndim not in (1, 2):
        raise ValueError("votes must be a vector or a matrix of rows")
    if k is not None and rows.shape[-1] != k:
        raise ValueError(f"votes must hold K={k} entries per row, got {rows.shape[-1]}")
    if np.count_nonzero(rows == 0.0) + np.count_nonzero(rows == 1.0) != rows.size:  # one n x K temporary at a time
        raise ValueError("votes must be 0/1")
    return np.atleast_2d(rows), rows.ndim == 1


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


def _sigmoid(x, e):
    # With e = exp(-|x|) in [0, 1]: 1 / (1 + e) for x >= 0 and e / (1 + e)
    # otherwise, so 0 and 1 are reached only at -inf and +inf.
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def expit(x):
    """Logistic sigmoid 1 / (1 + exp(-x)), elementwise, with no overflow at any input."""
    x = np.asarray(x, dtype=float)
    return _sigmoid(x, np.exp(-np.abs(x)))


def logistic(x):
    """Sigmoid and softplus log(1 + exp(x)) of ``x``, elementwise, from one exponential per entry.

    The sigmoid is :func:`expit`'s, bit for bit. With e = exp(-|x|), the
    softplus is max(x, 0) + log1p(e): 0 at -inf, +inf at +inf, and no
    overflow at any input.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return _sigmoid(x, e), np.maximum(x, 0.0) + np.log1p(e)


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (all entries by default), shifted by the maximum.

    Every shifted term is at most 1, so none overflows. A slice whose maximum
    is not finite is not shifted: all -inf gives -inf, a +inf gives +inf.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        total = np.log(np.exp(a - top).sum(axis=axis))
    return total + np.squeeze(top, axis=axis)


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
    bit. A judge count other than the model's is a :class:`VoteDataError`,
    and so are class log-likelihoods that are not finite on the votes.
    """
    if v.k != params.k:
        raise VoteDataError(f"the model was fitted on {params.k} judges but the votes have {v.k}")
    patterns, _, inverse = vote_patterns(v.votes)
    # Parameters far out of range (fields near 1e308) overflow: an input error, not numpy warnings.
    with np.errstate(all="ignore"):
        s1, s0 = params.log_scores(patterns)
        if not (np.isfinite(s1).all() and np.isfinite(s0).all()):
            raise VoteDataError("the model's class log-likelihoods are not finite on these votes")
        return PosteriorVector(_posterior(params.pi, s1, s0)[inverse])


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
    accepted; ``x`` is the best iterate either way. It solves the Ising
    and the factor M-steps. The Ising module calls it through its own
    imported name, ``judgeagg.ising.minimize``, which the per-layer trace
    of ``perfbench`` wraps to time pseudo-likelihood solves and read
    ``nfev`` (value+gradient+Hessian evaluations) and ``nit`` (accepted
    steps); the factor M-step calls ``em.minimize``, outside that trace.
    Only the solves of restarts run by :func:`run`'s caller reach the
    trace: a restart run by a forked helper records its calls there.
    """
    x = np.asarray(x0, dtype=float)
    f, g, hess = fun(x)
    nfev, nit = 1, 0
    # Keeps the Newton system solvable where a direction carries no weight (an
    # Ising node under a flat field prior); the gradient there is 0, as is the step.
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


def run(v: VoteMatrix, family, config: EMConfig, ci_fit=None) -> EMFit:
    """Fit one model family by EM over the distinct vote rows of ``v``.

    Runs one restart per initialization strategy: all of
    :data:`INIT_STRATEGIES` given a ``ci_fit`` hook, "majority" alone without.
    "ci" starts from ``ci_fit(v, config)``'s posteriors (clipped interior),
    the others from :func:`init_gamma`. Each restart builds ``family(patterns,
    trace, config)`` and alternates its ``step`` until the objective's relative
    change falls below ``config.tol`` or ``config.max_iters`` steps. No
    restart reads another's state, so :func:`_run_restarts` may run them side
    by side; the outcome is that of running them in order. A later
    restart replaces the best so far only if it wins by :data:`RESTART_MARGIN`
    times 1 + |best|; the winner's labeling is then oriented by
    :func:`resolve_flip`, and the posterior is :func:`predict`'s at those
    final parameters. A function wrapped to be traced (``minimize``, say)
    records only the calls of restarts that run in this process.
    """
    if v.n < 2:
        raise ValueError("an EM fit requires at least 2 items")
    patterns, counts, inverse = vote_patterns(v.votes)

    def restart(strategy):
        gamma0 = (np.clip(ci_fit(v, config).posterior.gamma, 1e-3, 1 - 1e-3) if strategy == "ci"
                  else init_gamma(v.votes, config.seed, strategy))
        w1 = np.bincount(inverse, weights=gamma0)
        trace = EMTrace(init_used=strategy)
        model = family(patterns, trace, config)
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
            if abs(obj - prev) / (1.0 + abs(obj)) < config.tol:
                trace.converged = True
                break
            prev = obj
        params = model.params(pi)
        return obj, params, params.weight_sum(), trace  # the model, and its arrays, go with this frame

    best = None
    strategies = INIT_STRATEGIES if ci_fit is not None else ("majority",)
    for obj, params, weight_sum, trace in _run_restarts(restart, strategies):
        if best is None or obj > best[0] + RESTART_MARGIN * (1.0 + abs(best[0])):
            best = obj, params, weight_sum, trace
    _, params, weight_sum, trace = best
    if resolve_flip(weight_sum, params.pi):
        params = params.flipped()
        trace.flipped = True
    posterior = PosteriorVector(_posterior(params.pi, *params.log_scores(patterns))[inverse])
    return EMFit(params=params, posterior=posterior, trace=trace)


def _helper_count(restarts: int) -> int:
    """How many helper processes :func:`_run_restarts` forks for ``restarts`` restarts.

    One per usable CPU beyond the caller's, and at most one per restart
    beyond the first. None without ``os.fork`` and ``os.sched_getaffinity``,
    and none unless the process runs exactly one OS thread: forking a
    multi-threaded process is unsafe, and a threaded BLAS pool in the caller
    and in each helper would contend for the same CPUs.
    """
    if restarts < 2 or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no procfs: the thread count is unknown
        return 0
    return 0 if threads != 1 else min(restarts, len(os.sched_getaffinity(0))) - 1


def _run_restarts(restart, strategies) -> list:
    """``[restart(s) for s in strategies]``, with the restarts after the first shared among forked helpers.

    The caller runs the first restart itself ("ci" under a hook, so the
    nested CI fit runs in this process). The others go on a queue, one byte
    per index in a pipe, that :func:`_helper_count` helpers forked here and
    the caller, once its own restart is done, take from. A helper sends each
    finished restart back pickled, with the warnings it raised, and leaves by
    ``os._exit``. Results are then taken in strategy order: each restart's
    warnings are raised again, then its exception, if any, with the same type
    and message; a restart whose helper died unsent is a RuntimeError naming
    the exit status. With no helper, every restart runs in the caller, in
    order, as a plain loop would run them. No helper and no pipe outlives the
    call.
    """
    done = {}  # index -> (result, warnings, error)
    queue, feed = os.pipe()
    fds, pids, codes = [queue, feed], [], {}
    try:
        os.write(feed, bytes(range(1, len(strategies))))
        fds.remove(feed)
        os.close(feed)
        for _ in range(_helper_count(len(strategies))):
            out, inp = os.pipe()
            fds += [out, inp]
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the helpers started so far share the queue
                break
            if pid == 0:
                _helper(restart, strategies, queue, inp)
            pids.append((pid, out))
            fds.remove(inp)
            os.close(inp)
        first = restart(strategies[0])
        while taken := os.read(queue, 1):
            i = taken[0]
            done[i] = _attempt(restart, strategies[i]) if pids else (restart(strategies[i]), [], None)
        for pid, out in pids:
            chunks = []
            while chunk := os.read(out, 1 << 16):
                chunks.append(chunk)
            for i, result, caught, error in _frames(b"".join(chunks)):
                done[i] = result, caught, error and _rebuilt(*error)
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        for pid, _ in pids:
            if pid not in codes:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    results = [first]
    for i, strategy in enumerate(strategies[1:], 1):
        if i not in done:
            status = ", ".join(str(c) for c in codes.values() if c)
            raise RuntimeError(f"the {strategy!r} restart was lost: its helper process ended with exit status {status}")
        result, caught, error = done[i]
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if error is not None:
            raise error
        results.append(result)
    return results


def _attempt(restart, strategy):
    """``restart(strategy)`` as ``(result, warnings, error)``: the warnings it raised, and what it raised."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            result, error = restart(strategy), None
        except Exception as exc:  # raised again, in order, by _run_restarts
            result, error = None, exc
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught], error


def _helper(restart, strategies, queue, out) -> None:
    """A forked helper: run the restarts taken from ``queue``, send each to ``out`` and leave, never returning."""
    status = 1
    try:
        while taken := os.read(queue, 1):
            i = taken[0]
            result, caught, error = _attempt(restart, strategies[i])
            # An exception is sent as its type, args and attributes, so that its
            # __init__, which may take other arguments, is not called again.
            try:
                data = pickle.dumps((i, result, caught, error and (type(error), error.args, vars(error))))
            except Exception as exc:  # an unpicklable outcome: send why instead
                data = pickle.dumps((i, None, [], (RuntimeError, (f"the {strategies[i]!r} restart's outcome "
                                                                  f"cannot be pickled: {exc}",), {})))
            frame = memoryview(len(data).to_bytes(8, "little") + data)
            while frame:
                frame = frame[os.write(out, frame):]
        status = 0
    finally:
        os._exit(status)


def _rebuilt(cls, args, state) -> BaseException:
    """The exception of type ``cls`` with these args and attributes, built without calling its __init__."""
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


def _frames(data: bytes):
    """The messages in ``data``, each an 8-byte length then a pickle; a cut-off last one is dropped."""
    pos = 0
    while pos + 8 <= len(data):
        end = pos + 8 + int.from_bytes(data[pos:pos + 8], "little")
        if end > len(data):
            return
        yield pickle.loads(data[pos + 8:end])
        pos = end
