import numpy as np
import pytest
from scipy.special import expit

from judgeagg import (
    CWClassSpec,
    CWExperimentSpec,
    ci_oracle_predict,
    magnetization_classifier,
    magnetization_log_pmf,
    run_separation,
    sample_cw,
    solve_mean_field,
    true_marginals,
)
from judgeagg.curie_weiss import magnetization_support, marginal_limit, positive_root


class TestMagnetizationPmf:
    def test_k1_is_sigmoid_of_twice_field(self):
        for beta in (0.2, 1.0, 3.0):
            for h in (-1.0, 0.0, 0.7):
                pmf = np.exp(magnetization_log_pmf(1, beta, h))
                assert pmf[-1] == pytest.approx(expit(2 * h), abs=1e-12)

    def test_k2_zero_field_center_mass(self):
        # four spin configurations: two mixed (weight 1), two aligned (e^beta)
        for beta in (0.5, 2.0):
            pmf = np.exp(magnetization_log_pmf(2, beta, 0.0))
            assert pmf[1] == pytest.approx(1.0 / (1.0 + np.exp(beta)), abs=1e-12)

    def test_mode_tracks_mean_field_root(self):
        k = 200
        lp = magnetization_log_pmf(k, 0.5, -0.5)
        m = magnetization_support(k)
        roots = solve_mean_field(0.5, -0.5)
        assert len(roots) == 1
        assert abs(m[np.argmax(lp)] - roots[0]) <= 2.0 / k

    def test_flip_symmetry_zero_field(self):
        for k in (3, 10, 21):
            lp = magnetization_log_pmf(k, 1.7, 0.0)
            np.testing.assert_allclose(lp, lp[::-1], atol=1e-12)

    def test_large_k_no_overflow(self):
        lp = magnetization_log_pmf(10_000, 2.0, 0.1)
        assert np.isfinite(lp).all()


class TestSampler:
    def test_independent_limit(self):
        spins = sample_cw(100, 0.0, 0.0, 10_000, seed=1)
        assert spins.shape == (10_000, 100)
        assert abs(spins.mean()) <= 3.0 / np.sqrt(spins.size)

    def test_bimodal_symmetric(self):
        spins = sample_cw(100, 2.0, 0.0, 10_000, seed=2)
        m = spins.mean(axis=1)
        assert abs(m.mean()) <= 0.02
        mstar = positive_root(2.0)
        assert np.mean(np.abs(np.abs(m) - mstar) < 0.15) > 0.95

    def test_high_temperature_tail(self):
        # cross-check against the exact pmf tail mass (0.0089 at this K)
        k, n = 50, 10_000
        lp = magnetization_log_pmf(k, 0.5, 0.0)
        m = magnetization_support(k)
        exact_tail = np.exp(lp[np.abs(m) >= 0.5]).sum()
        assert exact_tail <= 0.01
        spins = sample_cw(k, 0.5, 0.0, n, seed=3)
        frac = np.mean(np.abs(spins.mean(axis=1)) >= 0.5)
        assert frac <= 0.01
        assert abs(frac - exact_tail) <= 3 * np.sqrt(exact_tail * (1 - exact_tail) / n)

    def test_tv_distance_to_exact_pmf(self):
        k, n = 20, 100_000
        grid = [(0.3, 0.0), (0.9, 0.2), (1.5, 0.0), (2.0, -0.1), (0.5, -0.5), (2.5, 0.05)]
        for i, (beta, h) in enumerate(grid):
            spins = sample_cw(k, beta, h, n, seed=100 + i)
            ups = ((spins + 1) // 2).sum(axis=1)
            emp = np.bincount(ups, minlength=k + 1) / n
            tv = 0.5 * np.abs(emp - np.exp(magnetization_log_pmf(k, beta, h))).sum()
            assert tv <= 0.02

    def test_exchangeable_placement(self):
        # each coordinate is marginally identical: per-column means agree
        spins = sample_cw(10, 1.2, 0.3, 50_000, seed=4)
        col_means = spins.mean(axis=0)
        assert col_means.max() - col_means.min() <= 0.03


class TestMeanField:
    def test_high_temperature_unique_zero(self):
        assert solve_mean_field(0.5, 0.0) == [0.0]

    def test_low_temperature_three_roots(self):
        roots = solve_mean_field(2.0, 0.0)
        assert len(roots) == 3
        assert roots[1] == pytest.approx(0.0, abs=1e-12)
        assert roots[2] == pytest.approx(0.9575, abs=1e-4)
        assert roots[0] == pytest.approx(-roots[2], abs=1e-10)

    def test_negative_field_single_negative_root(self):
        roots = solve_mean_field(0.5, -0.5)
        assert len(roots) == 1 and roots[0] < 0

    def test_residuals(self):
        for beta, h in ((0.5, 0.0), (2.0, 0.0), (0.5, -0.5), (3.0, 0.2)):
            for m in solve_mean_field(beta, h):
                assert abs(m - np.tanh(beta * m + h)) <= 1e-12


class TestClassifier:
    def test_all_up(self):
        assert magnetization_classifier(np.ones(7), t=0.9, mode="absolute") == 1
        assert magnetization_classifier(np.ones(7), t=0.9, mode="squared") == 1

    def test_alternating_even(self):
        spins = np.array([1, -1] * 5)
        assert magnetization_classifier(spins, t=0.1, mode="absolute") == 0

    def test_arithmetic(self):
        spins = np.array([1] * 8 + [-1] * 2)
        assert magnetization_classifier(spins, t=0.5, mode="absolute") == 1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            magnetization_classifier(np.ones(3), t=0.0)


class TestCiOracle:
    def test_identical_marginals_return_prior_class(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            votes = rng.integers(0, 2, 8)
            assert ci_oracle_predict(0.5, 0.5, 0.7, votes) == 1
            assert ci_oracle_predict(0.5, 0.5, 0.3, votes) == 0

    def test_informative_marginals(self):
        votes_hi = np.array([1] * 8 + [0] * 2)
        votes_lo = np.array([1] * 2 + [0] * 8)
        assert ci_oracle_predict(0.3, 0.7, 0.5, votes_hi) == 1
        assert ci_oracle_predict(0.3, 0.7, 0.5, votes_lo) == 0

    def test_degenerate_marginal_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            ci_oracle_predict(0.0, 0.7, 0.5, np.array([1, 0]))


class TestTrueMarginals:
    def test_zero_field_exactly_half(self):
        for beta in (0.5, 1.0, 2.0):
            for k in (1, 7, 40):
                spec = CWClassSpec(beta=beta)
                assert true_marginals(spec, k) == pytest.approx(0.5, abs=1e-12)

    def test_constant_field_limit(self):
        spec = CWClassSpec(beta=0.5, field_mode="constant", field_value=-0.5)
        assert abs(true_marginals(spec, 400) - marginal_limit(spec)) <= 0.01

    def test_scaled_field_limit(self):
        spec = CWClassSpec(beta=2.0, field_mode="scaled", field_value=1.5)
        mstar = positive_root(2.0)
        p = expit(2 * 1.5 * mstar)
        want = (1 + (2 * p - 1) * mstar) / 2
        assert marginal_limit(spec) == pytest.approx(want, abs=1e-12)
        assert abs(true_marginals(spec, 400) - want) <= 0.01


class TestRunSeparation:
    def test_smallest_run(self):
        spec = CWExperimentSpec(pi=0.5, class0=CWClassSpec(beta=0.5),
                                class1=CWClassSpec(beta=2.0), k_grid=(5,), n=1,
                                statistic="squared", seed=0)
        rows = run_separation(spec)
        assert rows[0]["risk_bayes"] in (0.0, 1.0)
        assert np.isnan(rows[0]["se_bayes"])

    def test_violated_separation_condition(self):
        # beta1 barely supercritical: m* is small, while a strong negative
        # field pushes q0 near zero, so m* <= 1 - 2 q0 and auto mode refuses.
        spec = CWExperimentSpec(
            pi=0.5,
            class0=CWClassSpec(beta=0.5, field_mode="constant", field_value=-2.0),
            class1=CWClassSpec(beta=1.2, field_mode="scaled", field_value=1.0),
            k_grid=(10,), n=10, statistic="absolute", seed=0)
        with pytest.raises(ValueError, match=r"m_star > 1 - 2\*q0"):
            run_separation(spec)

    def test_explicit_threshold_used(self):
        spec = CWExperimentSpec(pi=0.5, class0=CWClassSpec(beta=0.5),
                                class1=CWClassSpec(beta=2.0), k_grid=(20,), n=500,
                                statistic="absolute", threshold=0.5, seed=1)
        rows = run_separation(spec)
        assert 0.0 <= rows[0]["risk_bayes"] <= 0.2
