import itertools

import numpy as np
import pytest
from scipy.special import expit

from judgeagg import (
    CIParams,
    EMConfig,
    VoteMatrix,
    accuracy,
    bayes_log_odds,
    ci_log_odds,
    ci_oracle_predict,
    class_conditional_prob,
    em_fit_ci,
    rng_from,
    sample_ci,
    umv_predict,
    wmv_predict,
)
from judgeagg import presets
from judgeagg.ci import ci_from_rates
from judgeagg.reproduce import aligned_accuracy


def random_params(rng, k):
    return CIParams(
        pi=float(rng.uniform(0.1, 0.9)),
        alpha=rng.uniform(0.05, 0.95, k),
        beta=rng.uniform(0.05, 0.95, k),
    )


def brute_force_posterior(p, j):
    """Independent oracle: explicit product-Bernoulli likelihoods."""
    j = np.asarray(j)
    l1 = np.prod(np.where(j == 1, p.alpha, 1 - p.alpha))
    l0 = np.prod(np.where(j == 1, 1 - p.beta, p.beta))
    return p.pi * l1 / (p.pi * l1 + (1 - p.pi) * l0)


class TestCiLogOdds:
    def test_uninformative_judges_return_prior(self):
        p = CIParams(pi=0.3, alpha=np.full(4, 0.5), beta=np.full(4, 0.5))
        for j in itertools.product([0, 1], repeat=4):
            assert ci_log_odds(p, j) == pytest.approx(np.log(0.3 / 0.7), abs=1e-12)

    def test_hand_evaluated_single_judge(self):
        p = CIParams(pi=0.5, alpha=np.array([0.9]), beta=np.array([0.9]))
        assert ci_log_odds(p, [1]) == pytest.approx(np.log(0.9 / 0.1), abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            p = random_params(rng, k)
            for j in itertools.product([0, 1], repeat=k):
                want = brute_force_posterior(p, j)
                got = expit(ci_log_odds(p, j))
                assert got == pytest.approx(want, abs=1e-12)

    def test_affine_in_each_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            k = int(rng.integers(2, 7))
            p = random_params(rng, k)
            w = p.weights()
            j = rng.integers(0, 2, k)
            for bit in range(k):
                hi = j.copy(); hi[bit] = 1
                lo = j.copy(); lo[bit] = 0
                assert ci_log_odds(p, hi) - ci_log_odds(p, lo) == pytest.approx(w[bit], abs=1e-12)

    def test_rows_agree_with_per_vector_calls(self):
        # Both go through CIParams.log_scores, whose BLAS matrix-vector
        # product may round a row by an ulp differently when other rows share
        # it; the fits' bits rest on that product, so agreement is to rounding.
        rng = np.random.default_rng(13)
        for k in (1, 3, 6, 9, 14):
            p = random_params(rng, k)
            for n in (1, 2, 3, 5, 17):
                votes = rng.integers(0, 2, (n, k))
                got = ci_log_odds(p, votes)
                assert got.shape == (n,)
                np.testing.assert_allclose(got, [ci_log_odds(p, row) for row in votes], rtol=0, atol=1e-13)


class TestCiFromRates:
    def test_rates_become_sensitivity_and_specificity(self):
        p = ci_from_rates(0.3, np.array([0.8, 0.4]), np.array([0.1, 0.6]))
        assert p.pi == 0.3
        np.testing.assert_array_equal(p.alpha, [0.8, 0.4])
        np.testing.assert_array_equal(p.beta, [0.9, 0.4])

    def test_boundary_rates_are_clipped(self):
        p = ci_from_rates(0.5, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(p.alpha, [1 - 1e-12, 1e-12])
        np.testing.assert_array_equal(p.beta, [1 - 1e-12, 1e-12])
        assert np.isfinite(p.weights()).all()


class TestCiOraclePredict:
    @pytest.mark.parametrize("pi", [1.5, 1.0, 0.0])
    def test_prior_outside_unit_interval_rejected(self, pi):
        with pytest.raises(ValueError, match="pi must lie strictly inside"):
            ci_oracle_predict(0.3, 0.7, pi, np.array([[1, 0, 1], [0, 0, 1]]))

    def test_rate_near_the_boundary_is_clipped_not_rejected(self):
        # 1 - q0 rounds to 1, which no CIParams specificity may be.
        np.testing.assert_array_equal(ci_oracle_predict(1e-17, 0.5, 0.5, [[1, 0], [0, 0]]), [1, 0])

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.37])
    def test_equal_rates_at_even_prior_label_every_row_1(self, q):
        votes = np.random.default_rng(14).integers(0, 2, (200, 9))
        np.testing.assert_array_equal(ci_oracle_predict(q, q, 0.5, votes), np.ones(200))

    def test_labels_are_the_ci_rule_on_each_row(self):
        rng = np.random.default_rng(15)
        for k in (1, 4, 25, 200):
            q0, q1, pi = rng.uniform(0.05, 0.95, 3)
            votes = rng.integers(0, 2, (300, k))
            p = CIParams(pi=pi, alpha=np.full(k, q1), beta=np.full(k, 1.0 - q0))
            log_odds = ci_log_odds(p, votes)
            clear = np.abs(log_odds) > 1e-9  # rows on the boundary may round either way
            got = ci_oracle_predict(q0, q1, pi, votes)
            assert got.dtype == np.int8
            np.testing.assert_array_equal(got[clear], (log_odds >= 0)[clear])
            assert ci_oracle_predict(q0, q1, pi, votes[0]) == got[0]


class TestRuleVotes:
    # The public rule functions and the one vote check they share.
    RULES = {
        "ci_log_odds": lambda votes: ci_log_odds(presets.CI_SETUPS[1], votes),
        "ci_oracle_predict": lambda votes: ci_oracle_predict(0.3, 0.7, 0.5, votes),
        "bayes_log_odds": lambda votes: bayes_log_odds(presets.CLASSDEP_DEMO, votes),
        "class_conditional_prob": lambda votes: class_conditional_prob(presets.SHARED_DEMO, votes, 1),
    }

    @pytest.mark.parametrize("rule", list(RULES))
    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_entries_must_be_0_or_1(self, rule, bad):
        k = 6 if rule == "ci_log_odds" else 3
        for votes in ([bad] + [0] * (k - 1), [[1] * k, [bad] + [1] * (k - 1)]):
            with pytest.raises(ValueError, match="votes must be 0/1"):
                self.RULES[rule](votes)

    @pytest.mark.parametrize("rule", ["ci_log_odds", "bayes_log_odds", "class_conditional_prob"])
    def test_judge_count_must_be_the_model_s(self, rule):
        k = 6 if rule == "ci_log_odds" else 3
        for votes in ([1] * (k + 1), [[0] * (k - 1)] * 2):
            with pytest.raises(ValueError, match=f"votes must hold K={k} entries per row"):
                self.RULES[rule](votes)

    @pytest.mark.parametrize("rule", list(RULES))
    def test_votes_are_a_vector_or_rows(self, rule):
        with pytest.raises(ValueError, match="votes must be a vector or a matrix of rows"):
            self.RULES[rule](np.ones((1, 2, 3)))


class TestMajorityVotes:
    def test_unanimous_strong_judges(self):
        p = CIParams(pi=0.5, alpha=np.full(3, 0.9), beta=np.full(3, 0.9))
        v = VoteMatrix(votes=np.ones((1, 3), dtype=int), item_ids=("a",), judge_names=("x", "y", "z"))
        post = wmv_predict(p, v)
        assert post.hard_labels[0] == 1 and post.gamma[0] > 0.5

    def test_adversarial_judge_vote_decreases_log_odds(self):
        # alpha + beta < 1: a vote of 1 is evidence for class 0
        p = CIParams(pi=0.5, alpha=np.array([0.3]), beta=np.array([0.4]))
        assert ci_log_odds(p, [1]) < ci_log_odds(p, [0])

    def test_oracle_wmv_beats_umv_on_heterogeneous_setup(self):
        p = presets.CI_SETUPS[2]
        v = sample_ci(p, 10_000, seed=5)
        acc_w = accuracy(wmv_predict(p, v).hard_labels, v.gold_labels)
        acc_u = accuracy(umv_predict(v).hard_labels, v.gold_labels)
        assert acc_w >= acc_u

    def test_sample_ci_draws_in_blocks_the_stream_of_one_draw(self):
        # Over three row blocks, the votes equal one n x K draw from the same generator.
        p, n, seed = presets.CI_SETUPS[2], 2 * (1 << 16) + 5, 9
        rng = rng_from(seed, 11)
        y = (rng.random(n) < p.pi).astype(np.int8)
        rates = np.where(y[:, None] == 1, p.alpha[None, :], 1.0 - p.beta[None, :])
        v = sample_ci(p, n, seed)
        assert np.array_equal(v.gold_labels, y)
        assert np.array_equal(v.votes, (rng.random((n, p.k)) < rates).astype(np.int8))

    def test_umv_majority_and_minority(self):
        v = VoteMatrix(votes=np.array([[1, 1, 0], [0, 0, 1]]), item_ids=("a", "b"),
                       judge_names=("x", "y", "z"))
        assert umv_predict(v).hard_labels.tolist() == [1, 0]

    def test_umv_tie_predicts_one_with_half_gamma(self):
        v = VoteMatrix(votes=np.array([[1, 0]]), item_ids=("a",), judge_names=("x", "y"))
        post = umv_predict(v)
        assert post.gamma[0] == 0.5 and post.hard_labels[0] == 1


class TestParamValidation:
    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            CIParams(pi=0.5, alpha=np.array([1.0]), beta=np.array([0.5]))
        with pytest.raises(ValueError):
            CIParams(pi=0.0, alpha=np.array([0.5]), beta=np.array([0.5]))


class TestEmFitCi:
    def test_setup1_accuracy(self):
        accs = []
        for trial in range(20):
            v = sample_ci(presets.CI_SETUPS[1], 200, seed=1000 + trial)
            fit = em_fit_ci(v, EMConfig(seed=trial))
            accs.append(aligned_accuracy(fit.posterior.gamma, v.gold_labels))
        assert np.mean(accs) == pytest.approx(0.997, abs=0.02)

    def test_setup3_accuracy(self):
        accs = []
        for trial in range(20):
            v = sample_ci(presets.CI_SETUPS[3], 200, seed=2000 + trial)
            fit = em_fit_ci(v, EMConfig(seed=trial))
            accs.append(aligned_accuracy(fit.posterior.gamma, v.gold_labels))
        assert np.mean(accs) == pytest.approx(0.611, abs=0.05)

    def test_duplicate_columns_converge_interior_with_warning(self):
        rng = np.random.default_rng(3)
        col = rng.integers(0, 2, 60)
        v = VoteMatrix(votes=np.stack([col, col, col], axis=1),
                       item_ids=tuple(map(str, range(60))), judge_names=("a", "b", "c"))
        with pytest.warns(UserWarning, match="low-information"):
            fit = em_fit_ci(v, EMConfig(seed=0))
        assert np.all((fit.params.alpha > 0) & (fit.params.alpha < 1))
        assert np.all((fit.params.beta > 0) & (fit.params.beta < 1))
        assert fit.trace.converged

    def test_monotone_objective(self):
        for seed in range(20):
            v = sample_ci(random_params(np.random.default_rng(seed), 6), 300, seed=seed)
            fit = em_fit_ci(v, EMConfig(seed=seed))
            steps = np.diff(fit.trace.objective)
            assert steps.min(initial=0.0) >= -1e-10

    def test_label_flip_symmetry(self):
        # Flipping every vote bit mirrors the model; after resolving the
        # global flip, accuracy against the flipped gold labels must match.
        for seed in range(5):
            v = sample_ci(presets.CI_SETUPS[4], 300, seed=300 + seed)
            flipped = VoteMatrix(votes=1 - v.votes, item_ids=v.item_ids,
                                 judge_names=v.judge_names, gold_labels=1 - v.gold_labels)
            fit = em_fit_ci(v, EMConfig(seed=seed))
            fit_f = em_fit_ci(flipped, EMConfig(seed=seed))
            acc = accuracy(fit.posterior.hard_labels, v.gold_labels)
            acc_f = accuracy(fit_f.posterior.hard_labels, flipped.gold_labels)
            assert acc_f == pytest.approx(acc, abs=0.02)

    def test_posterior_calibration_on_simulated_data(self):
        # Heterogeneous K=8 judges spread the posterior over enough distinct
        # values that every decile bin is populated away from its edges.
        r = np.random.default_rng(105)
        p = CIParams(pi=0.5, alpha=r.uniform(0.55, 0.8, 8), beta=r.uniform(0.55, 0.8, 8))
        v = sample_ci(p, 10_000, seed=17)
        gamma = wmv_predict(p, v).gamma
        edges = np.linspace(0, 1, 11)
        for lo, hi in zip(edges, edges[1:]):
            mask = (gamma >= lo) & (gamma < hi)
            if mask.sum() < 100:
                continue
            emp = v.gold_labels[mask].mean()
            assert abs(emp - (lo + hi) / 2) <= 0.05
