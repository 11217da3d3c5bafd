"""Shared EM machinery: the vote-pattern table and degenerate inputs."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from judgeagg import (CIParams, EMConfig, IsingParams, MultiFactorParams, VoteMatrix, em_fit_ci, em_fit_factor,
                      em_fit_ising, save_votes)
from judgeagg import em
from judgeagg.cli import main
from judgeagg.em import PI_EPS, class_prior, vote_patterns


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



def test_engine_keeps_no_restart_model_alive():
    # The engine keeps the winning restart's parameters and weight sum, not
    # its model, so each restart's arrays are freed before the next is built.
    class CountingFamily:
        """A fake family that counts its live instances; each new restart wins."""

        built = alive = peak = 0

        def __init__(self, patterns, trace):
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
