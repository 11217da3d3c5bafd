import itertools
import warnings

import numpy as np
import pytest
from scipy.special import expit, logsumexp

from judgeagg import (
    CIParams,
    EMConfig,
    ExactEvidenceUnavailable,
    IsingParams,
    VoteMatrix,
    bayes_log_odds,
    ci_from_marginals,
    ci_log_odds,
    class_conditional_prob,
    em_fit_ci,
    em_fit_ising,
    energy,
    fit_pseudo,
    log_partition,
    pseudo_log_likelihood,
    pseudo_log_likelihood_grad,
    sample_ising,
    wmv_predict,
)
from judgeagg import em, ising, presets
from judgeagg.curie_weiss import CWClassSpec, CWExperimentSpec, sample_labeled_cw
from judgeagg.data import rng_from
from judgeagg.em import predict
from judgeagg.ising import all_configs, class_conditional_table, sample_labeled
from judgeagg.reproduce import aligned_accuracy


def random_ising(rng, k, shared=False, scale=1.0):
    h0 = rng.normal(0, scale, k)
    h1 = rng.normal(0, scale, k)
    def rand_w():
        w = np.zeros((k, k))
        iu = np.triu_indices(k, 1)
        w[iu] = rng.normal(0, scale, len(iu[0]))
        return w + w.T
    w0 = rand_w()
    w1 = w0 if shared else rand_w()
    return IsingParams(pi=float(rng.uniform(0.2, 0.8)), h0=h0, h1=h1, W0=w0, W1=w1,
                       shared_couplings=shared)


class TestEnergy:
    def test_zero_vector(self):
        w = np.zeros((3, 3))
        assert energy([0, 0, 0], np.array([1.0, -2.0, 3.0]), w) == 0.0

    def test_zero_params(self):
        w = np.zeros((4, 4))
        for j in itertools.product([0, 1], repeat=4):
            assert energy(j, np.zeros(4), w) == 0.0

    def test_demo_hand_sum(self):
        # h1 + h3 + W13 for the (1,0,1) pattern of the shared demo
        p = presets.SHARED_DEMO
        want = -1.7447 + 3.5085 + 4.4583
        assert energy([1, 0, 1], p.h0, p.W0) == pytest.approx(want, abs=1e-12)

    def test_rejects_asymmetric(self):
        w = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            energy([1, 0], np.zeros(2), w)


class TestLogPartition:
    def test_uniform(self):
        for k in (1, 3, 7):
            assert log_partition(np.zeros(k), np.zeros((k, k))) == pytest.approx(k * np.log(2), abs=1e-12)

    def test_single_bernoulli(self):
        for t in (-2.0, 0.3, 5.0):
            assert log_partition(np.array([t]), np.zeros((1, 1))) == pytest.approx(np.log1p(np.exp(t)), abs=1e-12)

    def test_two_judges_coupled(self):
        # configurations 00, 01, 10 carry weight 1 and 11 carries e^w
        for w in (-1.0, 0.0, 2.5):
            W = np.array([[0.0, w], [w, 0.0]])
            assert log_partition(np.zeros(2), W) == pytest.approx(np.log(3 + np.exp(w)), abs=1e-12)

    def test_cutoff(self):
        k = 16
        with pytest.raises(ExactEvidenceUnavailable, match="exact evidence unavailable"):
            log_partition(np.zeros(k), np.zeros((k, k)))


class TestClassConditional:
    def test_demo_values(self):
        p = presets.SHARED_DEMO
        assert class_conditional_prob(p, (0, 1, 1), 0) == pytest.approx(0.00483, abs=5e-4)
        assert class_conditional_prob(p, (0, 1, 1), 1) == pytest.approx(1.93e-4, abs=2e-5)

    def test_uniform_params(self):
        p = IsingParams(pi=0.5, h0=np.zeros(3), h1=np.zeros(3),
                        W0=np.zeros((3, 3)), W1=np.zeros((3, 3)), shared_couplings=True)
        for j in itertools.product([0, 1], repeat=3):
            assert class_conditional_prob(p, j, 0) == pytest.approx(1 / 8, abs=1e-12)

    def test_normalization_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            k = int(rng.integers(1, 11))
            p = random_ising(rng, k)
            for y in (0, 1):
                total = class_conditional_table(p, y).sum()
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_rows_are_the_table_entries(self):
        p = random_ising(np.random.default_rng(27), 5)
        for y in (0, 1):
            np.testing.assert_array_equal(class_conditional_prob(p, all_configs(5), y), class_conditional_table(p, y))

    @pytest.mark.parametrize("y", [2, -1, 0.5])
    def test_class_must_be_0_or_1(self, y):
        with pytest.raises(ValueError, match="y must be 0 or 1"):
            class_conditional_prob(presets.SHARED_DEMO, (1, 1, 1), y)
        with pytest.raises(ValueError, match="y must be 0 or 1"):
            class_conditional_table(presets.SHARED_DEMO, y)


class TestBayesLogOdds:
    def test_demo_posteriors(self):
        post = expit(bayes_log_odds(presets.CLASSDEP_DEMO, (1, 1, 0)))
        assert post == pytest.approx(0.031, abs=0.005)
        post = expit(bayes_log_odds(presets.SHARED_DEMO, (0, 1, 1)))
        assert post == pytest.approx(0.038, abs=0.005)

    def test_shared_quadratic_cancellation(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            p = random_ising(rng, k, shared=True)
            c = p.h1 - p.h0
            j1 = rng.integers(0, 2, k)
            j2 = rng.integers(0, 2, k)
            diff = bayes_log_odds(p, j1) - bayes_log_odds(p, j2)
            assert diff == pytest.approx(float(c @ (j1 - j2)), abs=1e-10)

    def test_quadratic_rule_identity(self):
        # algebraic form vs direct log-ratio of enumerated likelihoods
        rng = np.random.default_rng(23)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            p = random_ising(rng, k)
            j = rng.integers(0, 2, k)
            direct = (np.log(p.pi / (1 - p.pi))
                      + np.log(class_conditional_prob(p, j, 1))
                      - np.log(class_conditional_prob(p, j, 0)))
            assert bayes_log_odds(p, j) == pytest.approx(direct, abs=1e-10)

    def test_linear_collapse_shared_mode(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            p = random_ising(rng, k, shared=True)
            configs = all_configs(k)
            dz = (log_partition(p.h0, p.W0) - log_partition(p.h1, p.W1))
            linear = np.log(p.pi / (1 - p.pi)) + configs @ (p.h1 - p.h0) + dz
            for row, lin in zip(configs, linear):
                assert (bayes_log_odds(p, row) >= 0) == (lin >= 0)

    def test_ci_is_zero_coupling_slice(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            h0 = rng.normal(0, 1, k)
            h1 = rng.normal(0, 1, k)
            z = np.zeros((k, k))
            p = IsingParams(pi=float(rng.uniform(0.2, 0.8)), h0=h0, h1=h1, W0=z, W1=z,
                            shared_couplings=True)
            ci = CIParams(pi=p.pi, alpha=expit(h1), beta=1 - expit(h0))
            j = rng.integers(0, 2, k)
            assert bayes_log_odds(p, j) == pytest.approx(ci_log_odds(ci, j), abs=1e-10)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "class-dependent"])
    def test_rows_equal_per_vector_calls_bit_for_bit(self, shared):
        rng = np.random.default_rng(28)
        for k in (1, 3, 6, 9, 14):
            p = random_ising(rng, k, shared=shared)
            for n in (1, 2, 3, 5, 17):
                votes = rng.integers(0, 2, (n, k))
                got = bayes_log_odds(p, votes)
                assert got.shape == (n,)
                np.testing.assert_array_equal(got, [bayes_log_odds(p, row) for row in votes], strict=True)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "class-dependent"])
    def test_predict_matches_quadratic_rule(self, shared):
        # em.predict scores rows as energy - log Z per class; the quadratic
        # rule is the reference it must agree with below the exact cutoff.
        rng = np.random.default_rng(26)
        for k in (1, 3, 8, 12, ising.K_MAX_EXACT):
            p = random_ising(rng, k, shared=shared, scale=0.5)
            votes = (rng.random((300, k)) < 0.5).astype(np.int8)
            v = VoteMatrix(votes=votes, item_ids=tuple(map(str, range(300))),
                           judge_names=tuple(f"j{j + 1}" for j in range(k)))
            want = expit(bayes_log_odds(p, votes))
            np.testing.assert_allclose(predict(p, v).gamma, want, rtol=0, atol=1e-12)


class TestCiFromMarginals:
    def test_demo_marginals_and_posterior(self):
        ci = ci_from_marginals(presets.SHARED_DEMO)
        np.testing.assert_allclose(1 - ci.beta, [0.9150, 0.0277, 0.9797], atol=5e-4)
        assert expit(ci_log_odds(ci, (0, 1, 1))) == pytest.approx(0.968, abs=0.005)

    def test_symmetric_params_give_half(self):
        p = IsingParams(pi=0.5, h0=np.zeros(4), h1=np.zeros(4),
                        W0=np.zeros((4, 4)), W1=np.zeros((4, 4)), shared_couplings=True)
        ci = ci_from_marginals(p)
        np.testing.assert_allclose(ci.alpha, 0.5, atol=1e-12)
        np.testing.assert_allclose(ci.beta, 0.5, atol=1e-12)


class TestPseudoLikelihood:
    def test_single_judge_reduces_to_bernoulli(self):
        rng = np.random.default_rng(26)
        votes = rng.integers(0, 2, (40, 1)).astype(float)
        weights = rng.random(40)
        h = np.array([0.7])
        w = np.zeros((1, 1))
        want = np.sum(weights * (votes[:, 0] * 0.7 - np.logaddexp(0, 0.7)))
        assert pseudo_log_likelihood(h, w, votes, weights, lam=0.0) == pytest.approx(want, abs=1e-12)

    def test_zero_couplings_equal_independent_logistic(self):
        rng = np.random.default_rng(27)
        votes = rng.integers(0, 2, (30, 4)).astype(float)
        weights = rng.random(30)
        h = rng.normal(0, 1, 4)
        w = np.zeros((4, 4))
        eta = np.broadcast_to(h, votes.shape)
        want = np.sum(weights[:, None] * (votes * eta - np.logaddexp(0, eta)))
        assert pseudo_log_likelihood(h, w, votes, weights, lam=0.0) == pytest.approx(want, abs=1e-10)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(28)
        step = 1e-5
        for _ in range(10):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(10, 40))
            votes = rng.integers(0, 2, (n, k)).astype(float)
            weights = rng.random(n)
            h = rng.normal(0, 0.8, k)
            w = np.zeros((k, k))
            iu = np.triu_indices(k, 1)
            w[iu] = rng.normal(0, 0.8, len(iu[0]))
            w = w + w.T
            gh, gw = pseudo_log_likelihood_grad(h, w, votes, weights)
            for idx in range(k):
                hp, hm = h.copy(), h.copy()
                hp[idx] += step
                hm[idx] -= step
                fd = (pseudo_log_likelihood(hp, w, votes, weights)
                      - pseudo_log_likelihood(hm, w, votes, weights)) / (2 * step)
                assert abs(gh[idx] - fd) <= 1e-6 * (1 + abs(fd))
            for a_, b_ in zip(*iu):
                wp, wm = w.copy(), w.copy()
                wp[a_, b_] += step; wp[b_, a_] += step
                wm[a_, b_] -= step; wm[b_, a_] -= step
                fd = (pseudo_log_likelihood(h, wp, votes, weights)
                      - pseudo_log_likelihood(h, wm, votes, weights)) / (2 * step)
                assert abs(gw[a_, b_] - fd) <= 1e-6 * (1 + abs(fd))


class TestFlatFieldPrior:
    """Beta(1, 1) on the fields: no term of it may turn a saturated field into NaN."""

    def test_saturated_fields_give_finite_public_pll(self):
        rng = np.random.default_rng(31)
        votes = rng.integers(0, 2, (50, 3)).astype(float)
        weights = rng.random(50)
        h = np.array([40.0, -800.0, 0.3])
        w = np.array([[0.0, 0.2, -0.1], [0.2, 0.0, 0.4], [-0.1, 0.4, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = pseudo_log_likelihood(h, w, votes, weights)
            gh, gw = pseudo_log_likelihood_grad(h, w, votes, weights)
        assert np.isfinite(value)
        assert np.all(np.isfinite(gh)) and np.all(np.isfinite(gw))

    @pytest.mark.parametrize("mode", ["class_independent", "class_dependent"])
    def test_constant_judge_fits_without_warnings(self, mode):
        # Judge 1 always votes 1, so the Newton line search tries fields past
        # where sigma(h) rounds to 1; a Beta term with exponent 0 would
        # evaluate 0 * log1p(-1) there.
        rng = np.random.default_rng(32)
        y = rng.random(300) < 0.6
        votes = np.where(rng.random((300, 6)) < 0.8, y[:, None], ~y[:, None]).astype(np.int8)
        votes[:, 0] = 1
        v = VoteMatrix(votes=votes, item_ids=tuple(map(str, range(300))),
                       judge_names=tuple(f"j{j + 1}" for j in range(6)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = em_fit_ising(v, mode, EMConfig(prior_a=1.0, prior_b=1.0))
        assert np.all(np.isfinite(fit.params.h0)) and np.all(np.isfinite(fit.params.h1))
        assert np.all(np.isfinite(fit.posterior.gamma))


def random_pll_problem(rng, k, n=40):
    votes = rng.integers(0, 2, (n, k)).astype(float)
    return votes, 3.0 * rng.random(n), rng.normal(0, 0.6, k + k * (k - 1) // 2)


def fd_hessian(fun, x, step=1e-5):
    """Central differences of fun's gradient, one column per coordinate."""
    cols = [(fun(x + step * e)[1] - fun(x - step * e)[1]) / (2 * step) for e in np.eye(len(x))]
    return np.column_stack(cols)


def log_partition_reference(h, W):
    """Reference: full 2^K enumeration with one (2^K, K) configuration matrix."""
    k = len(h)
    configs = ((np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1).astype(float)
    e = configs @ h + 0.5 * np.einsum("ij,jk,ik->i", configs, W, configs)
    return float(logsumexp(e))


class TestNewtonMStep:
    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_hessian_matches_central_differences(self, k):
        rng = np.random.default_rng(100 + k)
        votes, w1, x = random_pll_problem(rng, k)
        design = ising._PLLDesign(votes)
        fun = lambda xx: ising._neg_pll_newton(xx, design, w1, 0.01, 2.0, 3.0)
        hess = fun(x)[2]
        np.testing.assert_array_equal(hess, hess.T)
        np.testing.assert_allclose(hess, fd_hessian(fun, x), rtol=1e-6, atol=1e-6)

        w0 = 3.0 * rng.random(len(votes))
        xj = np.concatenate([x[:k], rng.normal(0, 0.6, k), x[k:]])
        joint = lambda xx: ising._neg_pll_newton_shared(xx, design, w1, w0, 0.01, 2.0, 3.0)
        np.testing.assert_allclose(joint(xj)[2], fd_hessian(joint, xj), rtol=1e-6, atol=1e-6)

    def test_gradient_is_the_negated_public_gradient(self):
        rng = np.random.default_rng(7)
        k = 5
        votes, w, x = random_pll_problem(rng, k)
        f, g, _ = ising._neg_pll_newton(x, ising._PLLDesign(votes), w, 0.01, 1.0, 1.0)
        h, W = ising._unpack(x, k)
        gh, gw = pseudo_log_likelihood_grad(h, W, votes, w)
        assert f == pytest.approx(-pseudo_log_likelihood(h, W, votes, w), rel=1e-13)
        np.testing.assert_allclose(g, -np.concatenate([gh, gw[np.triu_indices(k, 1)]]), rtol=1e-12, atol=1e-12)

    def test_chunked_hessian_equals_unchunked(self, monkeypatch):
        rng = np.random.default_rng(8)
        k = 6
        votes, w, x = random_pll_problem(rng, k, n=50)
        whole = ising._PLLDesign(votes)
        monkeypatch.setattr(ising, "_OUTER_TABLE_BYTES", 7 * 8 * (k + 1) * (k + 2) // 2)
        chunked = ising._PLLDesign(votes)
        assert whole.table is not None and chunked.table is None and chunked.chunk == 7
        want = ising._neg_pll_newton(x, whole, w, 0.01, 2.0, 2.0)[2]
        got = ising._neg_pll_newton(x, chunked, w, 0.01, 2.0, 2.0)[2]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("k", range(1, 16))
    def test_split_half_log_partition_matches_full_enumeration(self, k):
        rng = np.random.default_rng(200 + k)
        for scale in (0.3, 1.0, 2.5):
            h = rng.normal(0, scale, k)
            W = np.zeros((k, k))
            iu = np.triu_indices(k, 1)
            W[iu] = rng.normal(0, scale, len(iu[0]))
            W = W + W.T
            want = log_partition_reference(h, W)
            assert log_partition(h, W) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("mode", ["class_dependent", "class_independent"])
    def test_em_msteps_end_at_the_gradient_stop(self, monkeypatch, mode):
        solves = []
        solve = ising.minimize

        def recording(fun, x0):
            res = solve(fun, x0)
            f, g, _ = fun(res.x)
            solves.append((res, f, np.max(np.abs(g))))
            return res

        monkeypatch.setattr(ising, "minimize", recording)
        monkeypatch.setattr(em, "_helper_count", lambda restarts: 0)  # every restart's solves are recorded here
        v = sample_labeled(presets.CLASSDEP_DEMO, 400, 0)
        fit = em_fit_ising(v, mode, EMConfig(seed=0))
        assert len(solves) >= fit.trace.n_iters
        for res, f, gmax in solves:
            assert res.success and res.nfev >= 1 and res.fun == f
            assert gmax <= 1e-9 * (1.0 + abs(f))


class TestFitPseudo:
    def test_recovers_generating_couplings(self):
        rng = np.random.default_rng(29)
        k = 5
        h_true = rng.normal(0, 0.5, k)
        w_true = np.zeros((k, k))
        iu = np.triu_indices(k, 1)
        w_true[iu] = rng.uniform(-0.6, 0.6, len(iu[0]))
        w_true = w_true + w_true.T
        votes = sample_ising(h_true, w_true, 50_000, seed=5)
        h_fit, w_fit = fit_pseudo(votes.astype(float), np.ones(50_000))
        assert np.max(np.abs(w_fit - w_true)) <= 0.15
        assert np.max(np.abs(h_fit - h_true)) <= 0.15

    def test_zero_weights_return_prior_solution(self):
        rng = np.random.default_rng(30)
        votes = rng.integers(0, 2, (50, 4)).astype(float)
        h, w = fit_pseudo(votes, np.zeros(50))
        np.testing.assert_allclose(h, 0.0, atol=1e-8)
        np.testing.assert_allclose(w, 0.0, atol=1e-8)

    def test_duplicate_judges_get_largest_positive_coupling(self):
        for seed in range(20):
            rng = rng_from(seed, 111)
            base = rng.integers(0, 2, (2000, 3)).astype(float)
            votes = np.column_stack([base, base[:, 2]])  # judge 4 duplicates judge 3
            h, w = fit_pseudo(votes, np.ones(2000))
            iu = np.triu_indices(4, 1)
            pairs = list(zip(*iu))
            vals = w[iu]
            best = pairs[int(np.argmax(vals))]
            assert best == (2, 3)
            assert w[2, 3] > 0

    def test_step_cap_raises_with_the_best_iterate(self, monkeypatch):
        rng = np.random.default_rng(32)
        votes = rng.integers(0, 2, (200, 4)).astype(float)
        cut = []
        solve = ising.minimize

        def recording(fun, x0):
            cut.append(solve(fun, x0))
            return cut[-1]

        monkeypatch.setattr(ising, "minimize", recording)
        monkeypatch.setattr(em, "_NEWTON_MAX_STEPS", 1)
        with pytest.raises(ising.PseudoFitError, match="step cap") as err:
            fit_pseudo(votes, np.ones(200))
        (res,) = cut
        assert not res.success and res.nit == 1
        h, W = ising._unpack(res.x, 4)
        np.testing.assert_array_equal(err.value.best_h, h)
        np.testing.assert_array_equal(err.value.best_w, W)
        # The one step taken improved on the zero start.
        assert pseudo_log_likelihood(h, W, votes, np.ones(200)) > pseudo_log_likelihood(
            np.zeros(4), np.zeros((4, 4)), votes, np.ones(200))

    def test_small_n_warns(self):
        rng = np.random.default_rng(31)
        votes = rng.integers(0, 2, (3, 5)).astype(float)
        with pytest.warns(UserWarning, match="poorly determined"):
            fit_pseudo(votes, np.ones(3))


class TestSampler:
    def test_matches_enumeration_within_three_se(self):
        rng = np.random.default_rng(33)
        k = 4
        p = random_ising(rng, k)
        probs = class_conditional_table(p, 1)
        n = 1_000_000
        draws = sample_ising(p.h1, p.W1, n, seed=12)
        idx = draws @ (1 << np.arange(k))
        counts = np.bincount(idx, minlength=2 ** k)
        for cell in range(2 ** k):
            se = np.sqrt(probs[cell] * (1 - probs[cell]) / n)
            assert abs(counts[cell] / n - probs[cell]) <= 3 * se + 1e-12


def cw_vote_matrix(k, n, pi, seed):
    spec = CWExperimentSpec(pi=pi, class0=CWClassSpec(beta=0.5), class1=CWClassSpec(beta=2.0), k_grid=(k,), n=n)
    y, spins = sample_labeled_cw(spec, k, rng_from(seed, 99), (seed * 4 + 1, seed * 4 + 2))
    return VoteMatrix(votes=(spins + 1) // 2, item_ids=tuple(map(str, range(n))),
                      judge_names=tuple(f"j{i}" for i in range(k)), gold_labels=y)


class TestEmFitIsing:
    def test_fits_only_its_two_modes(self):
        with pytest.raises(ValueError, match="unknown mode 'class_whatever'"):
            em_fit_ising(sample_labeled(presets.SHARED_DEMO, 50, 0), "class_whatever")

    def test_single_judge_matches_ci_fitter(self):
        # Both fitters put Beta(a, b) on the class-1 rate and on the
        # specificity P(J=0 | Y=0), so they agree under an asymmetric prior too.
        v = __import__("judgeagg").sample_ci(
            CIParams(pi=0.6, alpha=np.array([0.8]), beta=np.array([0.75])), 500, 7)
        for config in (EMConfig(seed=3), EMConfig(seed=3, prior_a=3.0, prior_b=3.0),
                       EMConfig(seed=3, prior_a=3.0, prior_b=1.5)):
            fit_c = em_fit_ci(v, config)
            for mode in ("class_dependent", "class_independent"):
                fit_i = em_fit_ising(v, mode, config)
                np.testing.assert_allclose(fit_i.posterior.gamma, fit_c.posterior.gamma, atol=1e-9)
                assert expit(fit_i.params.h1[0]) == pytest.approx(float(fit_c.params.alpha[0]), abs=1e-9)
                assert expit(-fit_i.params.h0[0]) == pytest.approx(float(fit_c.params.beta[0]), abs=1e-9)

    def test_shared_demo_dependence_gain(self):
        # The enumerated population ceiling for this generator is 0.8625
        # (joint rule) vs 0.8378 (best marginals-only rule); the fitted
        # class-dependent model should capture most of that gap while the
        # CI fitter cannot exceed its ceiling.
        gaps = []
        for seed in range(6):
            vtr = sample_labeled(presets.SHARED_DEMO, 5000, 500 + seed)
            vte = sample_labeled(presets.SHARED_DEMO, 5000, 9500 + seed)
            fit = em_fit_ising(vtr, "class_dependent", EMConfig(seed=seed))
            acc_cd = aligned_accuracy(predict(fit.params, vte).gamma, vte.gold_labels)
            fit_c = em_fit_ci(vtr, EMConfig(seed=seed))
            acc_ci = aligned_accuracy(wmv_predict(fit_c.params, vte).gamma, vte.gold_labels)
            gaps.append(acc_cd - acc_ci)
        assert np.mean(gaps) >= 0.015

    def test_shared_mode_no_worse_than_ci(self):
        diffs = []
        for seed in range(4):
            vtr = sample_labeled(presets.SHARED_DEMO, 5000, 500 + seed)
            vte = sample_labeled(presets.SHARED_DEMO, 5000, 9500 + seed)
            fit = em_fit_ising(vtr, "class_independent", EMConfig(seed=seed))
            acc_sh = aligned_accuracy(predict(fit.params, vte).gamma, vte.gold_labels)
            fit_c = em_fit_ci(vtr, EMConfig(seed=seed))
            acc_ci = aligned_accuracy(wmv_predict(fit_c.params, vte).gamma, vte.gold_labels)
            diffs.append(acc_sh - acc_ci)
        assert np.mean(diffs) >= -0.005

    def test_curie_weiss_classdep_separation(self):
        # Signal lives entirely in the couplings: per-judge marginals are 1/2
        # in both classes, so the CI fitter is capped near the prior rate
        # while the class-dependent model classifies by global agreement.
        accs, ci_accs = [], []
        for seed in range(6):
            v = cw_vote_matrix(10, 2000, 0.7, 400 + seed)
            fit = em_fit_ising(v, "class_dependent", EMConfig(seed=seed))
            accs.append(aligned_accuracy(fit.posterior.gamma, v.gold_labels))
            fit_c = em_fit_ci(v, EMConfig(seed=seed))
            ci_accs.append(aligned_accuracy(fit_c.posterior.gamma, v.gold_labels))
        assert np.mean(accs) >= 0.82
        assert np.mean(ci_accs) <= 0.7 + 0.05
        assert np.mean(accs) - np.mean(ci_accs) >= 0.25

    def test_shared_couplings_enforced_exactly(self):
        v = sample_labeled(presets.SHARED_DEMO, 800, 77)
        fit = em_fit_ising(v, "class_independent", EMConfig(seed=1, max_iters=20))
        assert np.array_equal(fit.params.W0, fit.params.W1)
        assert fit.params.shared_couplings

    def test_monotone_surrogate_objective(self):
        for seed in range(6):
            v = sample_labeled(presets.CLASSDEP_DEMO, 400, 600 + seed)
            fit = em_fit_ising(v, "class_dependent", EMConfig(seed=seed, max_iters=60))
            steps = np.diff(fit.trace.objective)
            assert steps.min(initial=0.0) >= -1e-8

    def test_pseudo_score_fallback_warns_beyond_cutoff(self):
        rng = np.random.default_rng(55)
        votes = rng.integers(0, 2, (60, 16))
        v = VoteMatrix(votes=votes, item_ids=tuple(map(str, range(60))),
                       judge_names=tuple(f"j{i}" for i in range(16)))
        with pytest.warns(UserWarning, match="exact evidence unavailable"):
            fit = em_fit_ising(v, "class_dependent", EMConfig(seed=0, max_iters=3))
        assert fit.trace.n_iters >= 1
