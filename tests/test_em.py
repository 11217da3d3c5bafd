"""Shared EM machinery: the vote-pattern table and degenerate inputs."""

import copy
import dataclasses
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from judgeagg import (CIParams, CWClassSpec, CWExperimentSpec, EMConfig, FactorParams, IsingParams, MultiFactorParams,
                      SplitSpec, VoteMatrix, em_fit_ci, em_fit_factor, em_fit_ising, sample_ci, save_votes)
from judgeagg import ci, em, factor, ising
from judgeagg.cli import main
from judgeagg.em import PI_EPS, EMTrace, class_prior, vote_patterns


class TestVotePatterns:
    @pytest.mark.parametrize("k", [1, 6, 20, 70])
    def test_inverse_reproduces_votes(self, k):
        # K=70 packs to a 9-byte key, wider than any machine integer.
        rng = np.random.default_rng(k)
        n = 500
        votes = (rng.random((n, k)) < 0.3).astype(np.int8)
        votes[n // 2:] = votes[: n - n // 2]  # force repeated rows
        patterns, counts, inverse = vote_patterns(votes)
        assert patterns.dtype == float and patterns.shape[1] == k
        assert np.array_equal(patterns[inverse], votes)
        assert counts.sum() == n
        assert np.array_equal(counts, np.bincount(inverse))
        assert len(np.unique(patterns, axis=0)) == len(patterns)

    def test_single_row(self):
        patterns, counts, inverse = vote_patterns(np.array([[1, 0, 1]], dtype=np.int8))
        assert patterns.tolist() == [[1.0, 0.0, 1.0]]
        assert counts.tolist() == [1.0]
        assert inverse.tolist() == [0]

    def test_rows_differing_in_last_judge_stay_distinct(self):
        votes = np.zeros((2, 9), dtype=np.int8)
        votes[1, 8] = 1
        patterns, counts, _ = vote_patterns(votes)
        assert len(patterns) == 2 and counts.tolist() == [1.0, 1.0]


def vote_patterns_reference(votes):
    # The packed-byte keying every K used before integer keys, kept as the reference.
    votes = np.asarray(votes)
    packed = np.packbits(votes != 0, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    return votes[first].astype(float), counts.astype(float), inverse.ravel()


@pytest.mark.parametrize("k", [1, 6, 8, 9, 16, 20, 21, 70])  # integer keys up to K=20, packed bytes beyond
def test_vote_patterns_match_packed_byte_reference(k):
    rng = np.random.default_rng(k)
    inputs = [(rng.random((n, k)) < 0.5).astype(np.int8) for n in (1, 5, 1000)]
    inputs += [np.tile((rng.random(k) < 0.5).astype(np.int8), (50, 1)), np.ones((40, k), dtype=np.int8),
               rng.random((300, k)) < 0.3]  # all-equal rows, then bool input
    for votes in inputs:
        for got, want in zip(vote_patterns(votes), vote_patterns_reference(votes), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def test_class_prior_stays_inside_unit_interval():
    counts = np.array([3.0, 5.0])
    assert class_prior(counts, np.zeros(2)) == 1.0 - PI_EPS
    assert class_prior(np.zeros(2), counts) == PI_EPS
    assert class_prior(np.array([1.0, 1.0]), np.array([2.0, 4.0])) == 0.25


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["tol", "prior_a", "prior_b"])
def test_em_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match="finite"):
        EMConfig(**{name: value})


def test_em_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        EMConfig(seed=-1)


@pytest.mark.parametrize("name, value, message", [
    ("max_iters", 2.5, "max_iters must be an integer, got 2.5"),
    ("max_iters", True, "max_iters must be an integer, got True"),
    ("max_iters", "5", "max_iters must be an integer, got 5"),
    ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
    ("seed", np.float64(1.0), "seed must be a non-negative integer, got 1.0"),
    ("seed", False, "seed must be a non-negative integer, got False"),
])
def test_em_config_rejects_non_integer_counts_by_name(name, value, message):
    # 2.5 iterations used to fail later inside em.run, and seed 1.5 drew seed 1's stream.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EMConfig(**{name: value})


def test_em_config_accepts_numpy_integers():
    config = EMConfig(max_iters=np.int64(5), seed=np.uint32(3))
    assert config.max_iters == 5 and config.seed == 3


@pytest.mark.parametrize("make", [
    lambda: CIParams(pi=np.nan, alpha=np.array([0.7]), beta=np.array([0.7])),
    lambda: CIParams(pi=0.5, alpha=np.array([np.nan]), beta=np.array([0.7])),
    lambda: MultiFactorParams(a=np.ones(2), b=np.zeros(2), loadings=None),
], ids=["ci-nan-pi", "ci-nan-alpha", "factor-null-loadings"])
def test_parameter_types_reject_malformed_values(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("make, name", [
    (lambda: FactorParams(pi=0.5, a=np.array([1.0, 2.0]), b=1.0, lam=0.1, sigma2_z=1.0), "a"),
    (lambda: CWClassSpec(beta=np.array([1.0, 2.0])), "beta"),
    (lambda: CWExperimentSpec(pi=np.array([0.5, 0.6]), class0=CWClassSpec(beta=0.5), class1=CWClassSpec(beta=2.0),
                              k_grid=(5,), n=10), "pi"),
    (lambda: SplitSpec(train_fraction=np.array([0.5, 0.2]), seed=0), "train_fraction"),
], ids=["factor-array-a", "cw-array-beta", "cw-experiment-array-pi", "split-array-fraction"])
def test_scalar_fields_reject_arrays_by_name(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be a number$"):
        make()


def _ising(**fields):
    k = 3
    return IsingParams(**{"pi": 0.5, "h0": np.zeros(k), "h1": np.zeros(k), "W0": np.zeros((k, k)),
                          "W1": np.zeros((k, k)), **fields})


def _factor(**fields):
    return MultiFactorParams(**{"a": np.ones(3), "b": np.zeros(3), "loadings": np.ones(3), **fields})


def _with(value, shape=(3,)):
    """Zeros with one entry set to ``value``; a matrix gets it at (0, 1) and (1, 0), so it stays symmetric."""
    x = np.zeros(shape)
    x.flat[1] = value
    return x if x.ndim == 1 else x + x.T


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make, name", [
    (lambda v: _ising(h0=_with(v)), "h0"),
    (lambda v: _ising(h1=_with(v)), "h1"),
    (lambda v: _ising(W0=_with(v, (3, 3))), "W0"),
    (lambda v: _ising(W1=_with(v, (3, 3))), "W1"),
    (lambda v: _factor(a=_with(v)), "a"),
    (lambda v: _factor(b=_with(v)), "b"),
    (lambda v: _factor(loadings=_with(v)), "loadings"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_parameter_types_reject_non_finite_fields(make, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        make(value)


class TestSpecialFunctionsMatchScipy:
    """em.expit and em.logsumexp against scipy.special, the independent reference."""

    def test_expit_within_4_ulp_and_warning_free(self):
        from scipy.special import expit as reference

        rng = np.random.default_rng(5)
        x = np.concatenate([[0.0, -0.0, 40.0, -40.0, 745.0, -745.0, np.inf, -np.inf],
                            rng.uniform(-750.0, 750.0, 200_000), rng.normal(0.0, 5.0, 200_000),
                            np.linspace(-40.0, 40.0, 100_001)])
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            got = em.expit(x)
        want = reference(x)
        normal = want >= np.finfo(float).tiny
        assert np.all(np.abs(got - want)[normal] <= 4 * np.spacing(want[normal]))
        # Below the normal range both are 0 or subnormal.
        assert np.all(got[~normal] < np.finfo(float).tiny)
        assert got[:2].tolist() == [0.5, 0.5] and got[6] == 1.0 and got[7] == 0.0
        assert not np.signbit(got).any()

    def test_expit_keeps_shape_and_scalars(self):
        assert em.expit(np.zeros((2, 3))).shape == (2, 3)
        assert isinstance(em.expit(0.25), float)

    def test_logistic_sigmoid_is_expit_and_softplus_within_4_ulp(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([[0.0, -0.0, 40.0, -40.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf],
                            rng.uniform(-750.0, 750.0, 200_000), rng.normal(0.0, 5.0, 200_000),
                            np.linspace(-40.0, 40.0, 100_001)])
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            sig, softplus = em.logistic(x)
        assert np.array_equal(sig, em.expit(x))
        want = np.logaddexp(0.0, x)
        finite = np.isfinite(x)
        assert np.all(np.abs(softplus[finite] - want[finite]) <= 4 * np.spacing(want[finite]))
        assert softplus[9] == 0.0 and softplus[8] == np.inf
        assert softplus[6] == 1e308 and softplus[7] == 0.0

    def test_logistic_keeps_shape_and_scalars(self):
        assert [a.shape for a in em.logistic(np.zeros((2, 3)))] == [(2, 3), (2, 3)]
        sig, softplus = em.logistic(0.25)
        assert isinstance(sig, float) and isinstance(softplus, float)

    def test_logsumexp_within_1e_13(self):
        from scipy.special import logsumexp as reference

        rng = np.random.default_rng(6)
        one_d = rng.normal(0.0, 30.0, 61)
        two_d = rng.normal(0.0, 30.0, (40, 61))
        two_d[3] = -np.inf
        two_d[:, 5] = -np.inf
        cases = [(one_d, None), (one_d, 0), (two_d, None), (two_d, 0), (two_d, 1), (two_d, -1)]
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            got = [em.logsumexp(a, axis=axis) for a, axis in cases]
        for g, (a, axis) in zip(got, cases):
            want = reference(a, axis=axis)
            assert np.shape(g) == np.shape(want)
            np.testing.assert_allclose(g, want, rtol=0, atol=1e-13)
        assert got[4][3] == -np.inf  # the all -inf row
        assert em.logsumexp(np.array([1.0, np.inf])) == np.inf


def _constant_votes(fill: int, n: int = 2000, k: int = 20) -> VoteMatrix:
    return VoteMatrix(votes=np.full((n, k), fill, dtype=np.int8),
                      item_ids=tuple(map(str, range(n))),
                      judge_names=tuple(f"j{j + 1}" for j in range(k)))


FITTERS = {
    "ci": em_fit_ci,
    "ising-shared": lambda v, config=EMConfig(): em_fit_ising(v, "class_independent", config),
    "ising-classdep": lambda v, config=EMConfig(): em_fit_ising(v, "class_dependent", config),
    "factor": lambda v, config=EMConfig(): em_fit_factor(v, 1, config),
}


@pytest.mark.parametrize("fill", [1, 0], ids=["all-ones", "all-zeros"])
@pytest.mark.parametrize("family", list(FITTERS))
def test_unanimous_votes_give_finite_fit(family, fill):
    # Unanimous votes saturate every responsibility; the class prior used to
    # reach exactly 0 or 1 and the fit raised instead of returning.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = FITTERS[family](_constant_votes(fill))
    gamma = fit.posterior.gamma
    assert gamma.shape == (2000,)
    assert np.all(np.isfinite(gamma))
    assert 0.0 < fit.params.pi < 1.0
    assert np.all(np.isfinite(fit.trace.objective))


def _constant_column_votes(n: int = 300, k: int = 6) -> VoteMatrix:
    """Informative judges, except judge 1 always votes 1 and judge 2 always 0."""
    rng = np.random.default_rng(17)
    y = rng.random(n) < 0.6
    votes = np.where(rng.random((n, k)) < 0.8, y[:, None], ~y[:, None]).astype(np.int8)
    votes[:, 0] = 1
    votes[:, 1] = 0
    return VoteMatrix(votes=votes, item_ids=tuple(map(str, range(n))),
                      judge_names=tuple(f"j{j + 1}" for j in range(k)), gold_labels=y.astype(np.int8))


@pytest.mark.parametrize("family", list(FITTERS))
def test_constant_judge_columns_give_finite_fit(family, tmp_path):
    v = _constant_column_votes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = FITTERS[family](v)
    assert np.all(np.isfinite(fit.posterior.gamma))
    assert 0.0 < fit.params.pi < 1.0
    for value in vars(fit.params).values():
        if isinstance(value, np.ndarray):
            assert np.all(np.isfinite(value))
    assert np.all(np.isfinite(fit.trace.objective))
    path = tmp_path / "votes.csv"
    save_votes(v, str(path))
    res = CliRunner().invoke(main, ["fit", "--votes", str(path), "--model", family, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output



def test_engine_keeps_no_restart_model_alive(monkeypatch):
    # The engine keeps the winning restart's parameters and weight sum, not
    # its model, so each restart's arrays are freed before the next is built.
    monkeypatch.setattr(em, "_helper_count", lambda restarts: 0)  # every restart is counted here
    class CountingFamily:
        """A fake family that counts its live instances; each new restart wins."""

        built = alive = peak = 0

        def __init__(self, patterns, trace, config):
            cls = type(self)
            cls.built += 1
            cls.alive += 1
            cls.peak = max(cls.peak, cls.alive)
            self.patterns, self.objective = patterns, float(cls.built)

        def __del__(self):
            type(self).alive -= 1

        def step(self, w1, w0, pi):
            # Equal class scores leave a log-likelihood of about 0, so the
            # penalty sets the objective, and a later restart's is higher.
            scores = np.zeros(len(self.patterns))
            return scores, scores, self.objective

        def params(self, pi):
            k = self.patterns.shape[1]
            return CIParams(pi=pi, alpha=np.full(k, 0.8), beta=np.full(k, 0.7))

    v = _constant_column_votes()
    fit = em.run(v, CountingFamily, EMConfig(), ci_fit=em_fit_ci)
    assert CountingFamily.built == len(em.INIT_STRATEGIES)
    assert CountingFamily.peak == 1
    assert CountingFamily.alive == 0
    assert fit.trace.init_used == em.INIT_STRATEGIES[-1]
    assert fit.posterior.gamma.shape == (v.n,)


def test_restarts_tied_near_a_zero_objective_keep_the_first():
    # The margin is relative to 1 + |best|, so restarts whose objectives all
    # lie near 0 (as on unanimous votes) and differ by rounding-sized amounts
    # cannot displace the preferred first restart.
    penalties = {"ci": -3e-9, "majority": -2e-9, "agreement": -1e-9}

    class TiedFamily:
        def __init__(self, patterns, trace, config):
            self.patterns, self.penalty = patterns, penalties[trace.init_used]

        def step(self, w1, w0, pi):
            scores = np.zeros(len(self.patterns))
            return scores, scores, self.penalty

        def params(self, pi):
            k = self.patterns.shape[1]
            return CIParams(pi=pi, alpha=np.full(k, 0.8), beta=np.full(k, 0.7))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = em.run(_constant_column_votes(), TiedFamily, EMConfig(), ci_fit=em_fit_ci)
    assert fit.trace.init_used == "ci"


def test_run_without_a_hook_runs_the_majority_restart_alone():
    built = []

    def family(patterns, trace, config):
        built.append(trace.init_used)
        return ci._CIModel(patterns, trace, config)

    v = _constant_column_votes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = em.run(v, family, EMConfig())
        reference = em_fit_ci(v)
    assert built == ["majority"]
    assert fit.trace.init_used == "majority"
    assert np.array_equal(fit.posterior.gamma, reference.posterior.gamma)


FAMILIES = {
    "ci": ci._CIModel,
    "ising-shared": partial(ising._IsingModel, shared=True),
    "ising-classdep": partial(ising._IsingModel, shared=False),
    "factor": factor._FactorModel,
}


def _state_arrays(value) -> list[np.ndarray]:
    """Every array in ``value``, through tuples and parameter dataclasses."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _state_arrays(item)]
    if dataclasses.is_dataclass(value):
        return _state_arrays(tuple(vars(value).values()))
    return []


@pytest.mark.parametrize("family", list(FAMILIES))
def test_a_shallow_copy_of_a_family_is_a_snapshot(family):
    # A step replaces the family's arrays and writes into none of them, so a
    # copy taken before the step still holds the state it was taken at.
    v = sample_ci(CIParams(pi=0.4, alpha=np.array([0.9, 0.8, 0.7, 0.6]), beta=np.array([0.6, 0.7, 0.8, 0.9])),
                  400, 5)
    patterns, counts, _ = vote_patterns(v.votes)
    model = FAMILIES[family](patterns, EMTrace(), EMConfig())
    rng = np.random.default_rng(1)

    def step():
        w1 = counts * rng.uniform(0.05, 0.95, len(counts))
        model.step(w1, counts - w1, class_prior(w1, counts - w1))

    step()
    snapshot = copy.copy(model)
    saved = {name: [a.copy() for a in _state_arrays(value)] for name, value in vars(snapshot).items()}
    step()
    moved = False
    for name, value in vars(snapshot).items():
        arrays = _state_arrays(value)
        assert len(arrays) == len(saved[name]), name
        assert all(np.array_equal(a, b) for a, b in zip(arrays, saved[name])), name
        moved |= not all(np.array_equal(a, b) for a, b in zip(_state_arrays(getattr(model, name)), saved[name]))
    assert moved  # the step changed the family itself


def _flipping_k16_votes() -> VoteMatrix:
    """K=16, beyond the exact cutoff: class 1 votes 1 at rates 0.3-0.7, class 0 at 0.02-0.2.

    Both Ising fits of it end with their labeling flipped.
    """
    rng = np.random.default_rng(0)
    n, k = 200, 16
    y = rng.random(n) < 0.5
    rates = np.where(y[:, None], rng.uniform(0.3, 0.7, k), rng.uniform(0.02, 0.2, k))
    votes = (rng.random((n, k)) < rates).astype(np.int8)
    return VoteMatrix(votes=votes, item_ids=tuple(map(str, range(n))),
                      judge_names=tuple(f"j{j + 1}" for j in range(k)))


def _predict_cases():
    golden = json.loads((Path(__file__).parent / "golden" / "fits.json").read_text())
    for name, data in golden["datasets"].items():
        votes = np.array([[int(c) for c in row] for row in data["votes"]], dtype=np.int8)
        v = VoteMatrix(votes=votes, item_ids=tuple(map(str, range(len(votes)))),
                       judge_names=tuple(f"j{j + 1}" for j in range(votes.shape[1])))
        yield pytest.param(name, v, EMConfig(seed=data["seed"]), id=name)
    yield pytest.param("flipping-k16", _flipping_k16_votes(), EMConfig(max_iters=30), id="flipping-k16")


@pytest.mark.parametrize("family", list(FITTERS))
@pytest.mark.parametrize("name, v, config", list(_predict_cases()))
def test_predict_reproduces_fit_posterior(name, v, config, family):
    # A fit's posterior is em.predict at its final, possibly flipped, parameters.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = FITTERS[family](v, config)
    if name == "flipping-k16" and family.startswith("ising"):
        assert fit.trace.flipped
    assert np.array_equal(em.predict(fit.params, v).gamma, fit.posterior.gamma)
    assert fit.trace.n_iters == len(fit.trace.objective)


def _weight_sum_cases():
    rng = np.random.default_rng(7)
    yield pytest.param(CIParams(pi=0.3, alpha=rng.uniform(0.55, 0.95, 6), beta=rng.uniform(0.5, 0.9, 6)), id="ci")
    for k in (3, 12, 16):
        for shared in (True, False):
            w1 = np.triu(rng.normal(0.0, 0.3, (k, k)), 1)
            w0 = w1 if shared else np.triu(rng.normal(0.0, 0.3, (k, k)), 1)
            p = IsingParams(pi=0.6, h0=rng.normal(-1.0, 0.3, k), h1=rng.normal(1.0, 0.3, k),
                            W0=w0 + w0.T, W1=w1 + w1.T, shared_couplings=shared)
            yield pytest.param(p, id=f"ising-{'shared' if shared else 'classdep'}-k{k}")
    yield pytest.param(MultiFactorParams(a=rng.uniform(0.5, 2.0, 8), b=rng.normal(-0.5, 0.3, 8),
                                         loadings=rng.uniform(0.1, 1.0, 8), pi=0.4), id="factor")


@pytest.mark.parametrize("p", list(_weight_sum_cases()))
def test_flipping_negates_weight_sum(p):
    # resolve_flip relies on it: the flipped labeling is oriented the other way.
    w = p.weight_sum()
    assert abs(w) > 1.0
    assert abs(p.flipped().weight_sum() + w) <= 1e-12 * abs(w)


@pytest.fixture
def no_leftovers():
    """Fails the test if it leaves a child process or an open file descriptor behind."""
    fds = len(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.fixture
def forks(monkeypatch):
    """Sets the helper count with ``forks.helpers = n`` and counts the helpers forked in ``forks.count``."""
    state = type("Forks", (), {"helpers": 0, "count": 0})()
    fork = os.fork

    def counted():
        state.count += 1
        return fork()

    monkeypatch.setattr(em, "_helper_count", lambda restarts: min(state.helpers, restarts - 1))
    monkeypatch.setattr(os, "fork", counted)
    return state


# Forking a process whose BLAS pool runs threads: Python 3.12 warns about it.
forks_beside_threads = pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")

SCHEDULED_FITTERS = {
    "ising-classdep": lambda v: em_fit_ising(v, "class_dependent", EMConfig(seed=3)),
    "ising-shared": lambda v: em_fit_ising(v, "class_independent", EMConfig(seed=3)),
    "factor": lambda v: em_fit_factor(v, 1, EMConfig(seed=3)),
}


@forks_beside_threads
@pytest.mark.parametrize("helpers", [0, 1, 2])
@pytest.mark.parametrize("family", list(SCHEDULED_FITTERS))
def test_restarts_run_by_helpers_give_bit_identical_fits(family, helpers, forks, no_leftovers):
    v = sample_ci(CIParams(pi=0.4, alpha=np.array([0.9, 0.8, 0.7, 0.6]), beta=np.array([0.6, 0.7, 0.8, 0.9])),
                  300, 11)
    want = SCHEDULED_FITTERS[family](v)  # every restart in this process
    assert forks.count == 0
    forks.helpers = helpers
    got = SCHEDULED_FITTERS[family](v)
    assert forks.count == helpers
    assert vars(got.params).keys() == vars(want.params).keys()
    for name, value in vars(want.params).items():
        assert np.array_equal(getattr(got.params, name), value), name
    assert np.array_equal(got.posterior.gamma, want.posterior.gamma)
    for name in ("objective", "loglik", "notes", "init_used", "converged", "flipped"):
        assert getattr(got.trace, name) == getattr(want.trace, name), name


def _stub_family(behave):
    """The CI family, except that its restart from strategy s first calls ``behave[s]()``, if given."""
    def family(patterns, trace, config):
        behave.get(trace.init_used, lambda: None)()
        return ci._CIModel(patterns, trace, config)
    return family


def _stub_fit(behave):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return em.run(_constant_column_votes(), _stub_family(behave), EMConfig(), ci_fit=em_fit_ci)


def _raise(exc):
    raise exc


@forks_beside_threads
@pytest.mark.parametrize("helpers", [0, 1, 2])
def test_a_restart_error_keeps_its_type_and_message(helpers, forks, no_leftovers):
    forks.helpers = helpers
    with pytest.raises(ValueError, match="^the agreement restart failed: 7$"):
        _stub_fit({"agreement": lambda: _raise(ValueError("the agreement restart failed: 7"))})
    # An error whose __init__ takes other arguments than its args comes back whole.
    h, w = np.arange(3.0), np.eye(3)
    with pytest.raises(ising.PseudoFitError, match="^step cap$") as err:
        _stub_fit({"majority": lambda: _raise(ising.PseudoFitError("step cap", h, w))})
    assert np.array_equal(err.value.best_h, h) and np.array_equal(err.value.best_w, w)


@forks_beside_threads
@pytest.mark.parametrize("helpers", [0, 1, 2])
def test_restart_warnings_reach_the_caller_once_in_restart_order(helpers, forks, no_leftovers):
    forks.helpers = helpers
    with pytest.warns(UserWarning) as record:
        _stub_fit({s: partial(warnings.warn, f"from {s}", UserWarning) for s in em.INIT_STRATEGIES})
    assert [str(w.message) for w in record if w.category is UserWarning] == [f"from {s}" for s in em.INIT_STRATEGIES]


@forks_beside_threads
@pytest.mark.parametrize("helpers", [1, 2])
def test_a_helper_killed_before_sending_is_a_runtime_error(helpers, forks, no_leftovers):
    # The "ci" restart waits until a helper has started a restart, and a
    # restart run by a helper kills its process; one run here goes on.
    caller = os.getpid()
    started, start = os.pipe()

    def wait_for_a_helper():
        assert select.select([started], [], [], 60)[0], "no helper started a restart within 60 s"
        os.read(started, 1)

    def in_helper():
        if os.getpid() != caller:
            os.write(start, b"x")
            os.kill(os.getpid(), signal.SIGKILL)

    forks.helpers = helpers
    try:
        with pytest.raises(RuntimeError, match=f"^the 'majority' restart was lost: .* exit status -{signal.SIGKILL}"):
            _stub_fit({"ci": wait_for_a_helper, "majority": in_helper, "agreement": in_helper})
    finally:
        os.close(started)
        os.close(start)


@forks_beside_threads
@pytest.mark.parametrize("helpers", [1, 2])
def test_an_interrupted_fit_kills_and_reaps_its_helpers(helpers, forks, no_leftovers):
    forks.helpers = helpers
    with pytest.raises(KeyboardInterrupt):
        _stub_fit({"ci": lambda: _raise(KeyboardInterrupt())})
    assert forks.count == helpers


@forks_beside_threads
def test_the_queue_hands_each_restart_to_exactly_one_process(forks, no_leftovers):
    # More helpers than usable CPUs, and many short restarts. Each restart
    # writes its index to a pipe that every process shares, so a restart taken
    # twice shows there twice and a lost one not at all.
    forks.helpers = len(os.sched_getaffinity(0)) + 2
    strategies = tuple(range(40))
    log, write = os.pipe()

    def restart(s):
        os.write(write, bytes([s]))
        time.sleep(0.002)
        return s, os.getpid()

    try:
        try:
            ran = em._run_restarts(restart, strategies)
        finally:
            os.close(write)
        logged = os.read(log, 1 << 10)  # every writer has left: the whole log
    finally:
        os.close(log)
    assert sorted(logged) == list(strategies)
    assert forks.count == forks.helpers
    assert [s for s, _ in ran] == list(strategies)
    assert ran[0][1] == os.getpid()


def test_no_helper_beside_a_live_thread_or_for_a_single_restart():
    assert em._helper_count(1) == 0
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert em._helper_count(3) == 0
    finally:
        stop.set()
        thread.join()


def test_a_single_threaded_process_forks_helpers():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a single usable CPU leaves no helper to fork")
    src = str(Path(em.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", "from judgeagg import em; print(em._helper_count(3))"],
                         env=env, capture_output=True, text=True, check=True, timeout=60).stdout
    assert int(out) >= 1
