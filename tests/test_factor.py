import itertools

import numpy as np
import pytest
from scipy.special import expit

from judgeagg import (
    EMConfig,
    FactorParams,
    MultiFactorParams,
    bayes_limit_score,
    ci_limit_score,
    em_fit_ci,
    em_fit_factor,
    factor_to_ising,
    marginal_success,
    run_factor_separation,
    sample_factor,
)
from judgeagg import em, ising
from judgeagg import factor
from judgeagg.factor import _quad_mean, factor_log_lik
from judgeagg.reproduce import aligned_accuracy


@pytest.mark.parametrize("lam", [0.1, 0.0])
def test_factor_params_reject_an_infinite_factor_variance(lam):
    with pytest.raises(ValueError, match="^sigma2_z must be finite$"):
        FactorParams(pi=0.5, a=0.5, b=1.0, lam=lam, sigma2_z=np.inf)


class TestSampleFactor:
    def test_disabled_factor_matches_ci_rates(self):
        p = FactorParams(pi=0.5, a=0.5, b=1.0, lam=0.0, sigma2_z=1.0)
        v = sample_factor(p, 100, 10_000, seed=1)
        for y in (0, 1):
            rate = v.votes[v.gold_labels == y].mean()
            want = expit(1.0 + 0.5 * (2 * y - 1))
            n_votes = v.votes[v.gold_labels == y].size
            se = np.sqrt(want * (1 - want) / n_votes)
            assert abs(rate - want) <= 3 * se

    def test_all_fair_coins(self):
        p = FactorParams(pi=0.5, a=0.0, b=0.0, lam=0.0, sigma2_z=1.0)
        v = sample_factor(p, 100, 10_000, seed=2)
        assert abs(v.votes.mean() - 0.5) <= 3 / np.sqrt(v.votes.size) / 2

    def test_shared_factor_induces_positive_correlation(self):
        # Quadrature oracle for the exact within-class vote correlation
        # cov(J1,J2|y) / var(J|y) = (E[p^2] - E[p]^2) / (E[p] - E[p]^2):
        # 0.0078 (y=0) and 0.0050 (y=1) at these parameters. The empirical
        # correlation has standard error ~ 1/sqrt(n_class).
        p = FactorParams(pi=0.5, a=0.5, b=1.0, lam=0.15, sigma2_z=1.5)
        nodes, weights = np.polynomial.hermite.hermgauss(121)
        z = np.sqrt(2 * p.sigma2_z) * nodes
        wq = weights / np.sqrt(np.pi)
        v = sample_factor(p, 2, 100_000, seed=3)
        for y in (0, 1):
            rate = expit(p.b + p.a * (2 * y - 1) + p.lam * (2 * y - 1) * z)
            mean_p, mean_p2 = wq @ rate, wq @ rate ** 2
            exact = (mean_p2 - mean_p ** 2) / (mean_p - mean_p ** 2)
            assert exact >= 0.005
            block = v.votes[v.gold_labels == y].astype(float)
            corr = np.corrcoef(block[:, 0], block[:, 1])[0, 1]
            assert abs(corr - exact) <= 3.0 / np.sqrt(len(block))

    def test_within_class_exchangeability(self):
        p = FactorParams(pi=0.5, a=0.4, b=0.3, lam=0.5, sigma2_z=1.0)
        v = sample_factor(p, 2, 100_000, seed=4)
        for y in (0, 1):
            block = v.votes[v.gold_labels == y]
            p10 = np.mean((block[:, 0] == 1) & (block[:, 1] == 0))
            p01 = np.mean((block[:, 0] == 0) & (block[:, 1] == 1))
            se = np.sqrt((p10 + p01) / len(block))
            assert abs(p10 - p01) <= 3 * se + 1e-9


class TestMarginalSuccess:
    def test_degenerate_integral(self):
        p = FactorParams(pi=0.5, a=0.7, b=-0.2, lam=0.0, sigma2_z=2.0)
        assert marginal_success(p, 1) == pytest.approx(expit(-0.2 + 0.7), abs=1e-12)
        assert marginal_success(p, 0) == pytest.approx(expit(-0.2 - 0.7), abs=1e-12)

    @pytest.mark.parametrize("a, b, lam, sigma2", [(0.7, -0.2, 0.9, 1.0), (0.5, 1.0, 0.1, 2.5), (-0.4, 0.3, 1.7, 0.6)])
    def test_factor_family_rates_match_marginal_success(self, a, b, lam, sigma2):
        # K identical judges with a_j = 2a, b_j = b - a and lam_j = lam sqrt(sigma2)
        # are the scalar model; the implied rates that weight_sum reads
        # are then the scalar model's marginals.
        p = FactorParams(pi=0.5, a=a, b=b, lam=lam, sigma2_z=sigma2)
        k = 4
        mp = MultiFactorParams(a=np.full(k, 2 * a), b=np.full(k, b - a),
                               loadings=np.full((k, 1), lam * np.sqrt(sigma2)))
        for y in (0, 1):
            rates = _quad_mean(mp.eta(y), mp.loadings[:, 0])
            np.testing.assert_allclose(rates, marginal_success(p, y), rtol=0, atol=1e-15)

    def test_odd_symmetry(self):
        p = FactorParams(pi=0.5, a=0.0, b=0.0, lam=0.8, sigma2_z=1.3)
        assert marginal_success(p, 0) == pytest.approx(0.5, abs=1e-12)
        assert marginal_success(p, 1) == pytest.approx(0.5, abs=1e-12)

    def test_against_monte_carlo(self):
        p = FactorParams(pi=0.5, a=0.5, b=1.0, lam=0.1, sigma2_z=1.0)
        rng = np.random.default_rng(9)
        z = rng.normal(0, 1.0, 10_000_000)
        for y in (0, 1):
            draws = expit(1.0 + 0.5 * (2 * y - 1) + 0.1 * (2 * y - 1) * z)
            mc = draws.mean()
            se = draws.std() / np.sqrt(len(z))
            assert abs(marginal_success(p, y) - mc) <= 3 * se


class TestLimitScores:
    def test_bayes_score_at_reference_fraction(self):
        p = FactorParams(pi=0.3, a=0.5, b=1.0, lam=0.2, sigma2_z=1.0)
        assert bayes_limit_score(p, float(expit(1.0))) == pytest.approx(np.log(0.3 / 0.7), abs=1e-10)

    def test_hand_value(self):
        p = FactorParams(pi=0.5, a=0.5, b=1.0, lam=0.1, sigma2_z=1.0)
        assert bayes_limit_score(p, float(expit(1.2))) == pytest.approx(20.0, abs=1e-9)

    def test_monotone_in_fraction_for_positive_label_effect(self):
        p = FactorParams(pi=0.5, a=0.5, b=0.0, lam=0.3, sigma2_z=1.0)
        grid = np.linspace(0.05, 0.95, 19)
        scores = [bayes_limit_score(p, s) for s in grid]
        assert np.all(np.diff(scores) > 0)

    def test_degenerate_factor_rejected(self):
        p = FactorParams(pi=0.5, a=0.5, b=0.0, lam=0.0, sigma2_z=1.0)
        with pytest.raises(ValueError, match="degenerate"):
            bayes_limit_score(p, 0.5)

    def test_ci_score_identical_classes(self):
        for s in (0.1, 0.5, 0.9):
            assert ci_limit_score(0.4, 0.4, s) == 0.0

    def test_ci_score_kl_signs(self):
        q0, q1 = 0.35, 0.7
        assert ci_limit_score(q0, q1, q1) >= 0
        assert ci_limit_score(q0, q1, q0) <= 0

    def test_ci_score_equals_kl_difference(self):
        def kl(s, q):
            return s * np.log(s / q) + (1 - s) * np.log((1 - s) / (1 - q))

        for s in np.linspace(0.02, 0.98, 25):
            for q0, q1 in ((0.3, 0.7), (0.45, 0.5), (0.8, 0.2)):
                want = kl(s, q0) - kl(s, q1)
                assert ci_limit_score(q0, q1, s) == pytest.approx(want, abs=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            ci_limit_score(0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            ci_limit_score(0.3, 0.7, 1.0)

    def test_array_calls_match_scalar_calls(self):
        p = FactorParams(pi=0.3, a=0.5, b=1.0, lam=0.2, sigma2_z=1.5)
        s = np.linspace(0.01, 0.99, 37)
        np.testing.assert_array_equal(bayes_limit_score(p, s), [bayes_limit_score(p, x) for x in s])
        np.testing.assert_array_equal(ci_limit_score(0.35, 0.7, s), [ci_limit_score(0.35, 0.7, x) for x in s])

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, np.nan])
    def test_array_with_any_entry_outside_unit_interval_rejected(self, bad):
        p = FactorParams(pi=0.3, a=0.5, b=1.0, lam=0.2, sigma2_z=1.0)
        s = np.array([0.2, 0.5, bad, 0.8])
        with pytest.raises(ValueError, match="s must lie"):
            bayes_limit_score(p, s)
        with pytest.raises(ValueError, match="s must lie"):
            ci_limit_score(0.3, 0.7, s)
        with pytest.raises(ValueError, match="q1 must lie"):
            ci_limit_score(0.3, np.array([0.7, bad]), 0.5)


class TestRunFactorSeparation:
    def test_reference_setting_nonnegative_beyond_k50(self):
        p = FactorParams(pi=0.7, a=0.5, b=1.0, lam=0.1, sigma2_z=1.0)
        rows = run_factor_separation(p, (50, 100, 200), 1000, seed=0)
        for row in rows:
            slack = 2 * float(np.hypot(row["se_bayes"], row["se_ci"]))
            assert row["sep"] >= -slack

    def test_near_ci_regime_zero_separation(self):
        p = FactorParams(pi=0.5, a=3.0, b=0.0, lam=0.01, sigma2_z=1.0)
        rows = run_factor_separation(p, (50, 100), 2000, seed=1)
        for row in rows:
            assert row["risk_bayes"] <= 0.05 and row["risk_ci"] <= 0.05
            slack = 2 * float(np.hypot(row["se_bayes"], row["se_ci"]))
            assert abs(row["sep"]) <= slack + 1e-9

    def test_k1_both_rules_constant_under_clamp(self):
        # At K=1 the boundary clamp sends every vote fraction to 1/2, so each
        # plug-in rule returns a constant label and its risk is a class rate.
        p = FactorParams(pi=0.7, a=0.5, b=1.0, lam=0.1, sigma2_z=1.0)
        rows = run_factor_separation(p, (1,), 4000, seed=2)
        row = rows[0]
        for risk in (row["risk_bayes"], row["risk_ci"]):
            assert min(abs(risk - 0.7), abs(risk - 0.3)) <= 0.05

    def test_degenerate_factor_rejected(self):
        p = FactorParams(pi=0.5, a=0.5, b=0.0, lam=0.0, sigma2_z=1.0)
        with pytest.raises(ValueError, match="degenerate"):
            run_factor_separation(p, (5,), 10, seed=0)


class TestFactorToIsing:
    def test_zero_loadings(self):
        p = MultiFactorParams(a=np.array([0.5, -0.2, 1.0]), b=np.array([0.1, 0.0, -0.3]),
                              loadings=np.zeros((3, 2)))
        for y in (0, 1):
            h, w = factor_to_ising(p, epsilon=0.3, y=y)
            np.testing.assert_allclose(w, 0.0)
            np.testing.assert_allclose(h, p.eta(y))

    def test_rank_one_structure(self):
        rng = np.random.default_rng(6)
        lam = rng.normal(0, 1, (5, 1))
        p = MultiFactorParams(a=rng.normal(0, 1, 5), b=rng.normal(0, 1, 5), loadings=lam)
        h, w = factor_to_ising(p, epsilon=0.4, y=1)
        gram = w + np.diag((0.4 * lam[:, 0]) ** 2)
        assert np.linalg.matrix_rank(gram, tol=1e-10) == 1
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0.0)

    def test_truncation_error_shrinks_at_cubic_rate_or_better(self):
        # Oracle: high-order quadrature evidence vs the quadratic expansion;
        # the spread of the difference over all vote patterns is the
        # pattern-dependent remainder.
        rng = np.random.default_rng(7)
        base = rng.normal(0, 1.0, (3, 1))
        a = rng.normal(0, 0.8, 3)
        b = rng.normal(0, 0.8, 3)
        patterns = np.array(list(itertools.product([0, 1], repeat=3)), dtype=float)
        eps_grid = np.array([0.2, 0.1, 0.05, 0.025])
        errs = []
        for eps in eps_grid:
            p = MultiFactorParams(a=a, b=b, loadings=eps * base)
            h, w = factor_to_ising(MultiFactorParams(a=a, b=b, loadings=base), epsilon=eps, y=1)
            exact = factor_log_lik(p, patterns, 1)
            quad = patterns @ h + 0.5 * np.einsum("ij,jk,ik->i", patterns, w, patterns)
            d = exact - quad
            errs.append(np.max(np.abs(d - d.mean())))
        slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
        assert slope >= 2.5


class TestEmFitFactor:
    def test_matches_ci_at_weak_factor_setting(self):
        # The enumerated threshold analysis for this generator puts the
        # asymptotic factor rule and the marginals-only rule within 1e-3 of
        # each other, so the two fitters should score within noise.
        f_accs, c_accs = [], []
        for seed in range(6):
            p = FactorParams(pi=0.7, a=0.5, b=1.0, lam=0.15, sigma2_z=1.5)
            v = sample_factor(p, 20, 5000, 300 + seed)
            ff = em_fit_factor(v, 1, EMConfig(seed=seed))
            f_accs.append(aligned_accuracy(ff.posterior.gamma, v.gold_labels))
            cf = em_fit_ci(v, EMConfig(seed=seed))
            c_accs.append(aligned_accuracy(cf.posterior.gamma, v.gold_labels))
        assert np.mean(f_accs) >= np.mean(c_accs) - 0.01
        assert np.mean(f_accs) >= 0.83

    def test_null_loading_recovery(self):
        # With no true factor the loading likelihood is flat at the n^(-1/4)
        # noise floor, so the sample must be large enough for that floor to
        # sit below the 0.1 acceptance line; the fitter then leaves the
        # loadings at their small initialization.
        fitted = []
        for seed in range(10):
            p = FactorParams(pi=0.6, a=0.8, b=0.2, lam=0.0, sigma2_z=1.0)
            v = sample_factor(p, 4, 20_000, 700 + seed)
            fit = em_fit_factor(v, 1, EMConfig(seed=seed, max_iters=60))
            fitted.append(np.mean(np.abs(fit.params.loadings[:, 0])))
        assert np.mean(fitted) <= 0.1

    def test_tiny_sample_stays_finite(self):
        p = FactorParams(pi=0.5, a=0.5, b=0.0, lam=0.3, sigma2_z=1.0)
        v = sample_factor(p, 4, 10, seed=11)
        fit = em_fit_factor(v, 1, EMConfig(seed=0))
        assert np.isfinite(fit.params.a).all()
        assert np.isfinite(fit.params.b).all()
        assert np.isfinite(fit.params.loadings).all()

    def test_rank_above_one_rejected(self):
        p = FactorParams(pi=0.5, a=0.5, b=0.0, lam=0.3, sigma2_z=1.0)
        v = sample_factor(p, 4, 50, seed=12)
        with pytest.raises(ValueError, match="rank"):
            em_fit_factor(v, 2, EMConfig(seed=0))

    def test_monotone_surrogate_objective(self):
        for seed in range(5):
            p = FactorParams(pi=0.6, a=0.6, b=0.4, lam=0.4, sigma2_z=1.0)
            v = sample_factor(p, 6, 300, 800 + seed)
            fit = em_fit_factor(v, 1, EMConfig(seed=seed))
            steps = np.diff(fit.trace.objective)
            assert steps.min(initial=0.0) >= -1e-6

    def test_msteps_are_em_minimize_solves_at_the_gradient_stop(self, monkeypatch):
        # Each M-step is one em.minimize solve over all judges' (a, b, lam),
        # run to its gradient stop; none goes through the name the Ising
        # pseudo-likelihood trace wraps.
        solves, ising_solves = [], []
        solve = em.minimize

        def recording(fun, x0):
            res = solve(fun, x0)
            f, g, _ = fun(res.x)
            solves.append((res, f, np.max(np.abs(g))))
            return res

        def ising_recording(fun, x0):
            ising_solves.append(x0)
            return solve(fun, x0)

        monkeypatch.setattr(em, "minimize", recording)
        monkeypatch.setattr(ising, "minimize", ising_recording)
        monkeypatch.setattr(em, "_helper_count", lambda restarts: 0)  # every restart's solves are recorded here
        v = sample_factor(FactorParams(pi=0.6, a=0.8, b=0.2, lam=1.0, sigma2_z=1.0), 6, 400, 2)
        fit = em_fit_factor(v, 1, EMConfig(seed=0))
        assert len(solves) >= fit.trace.n_iters
        assert ising_solves == []
        for res, f, gmax in solves:
            assert res.success and res.nfev >= 1 and res.fun == f and res.x.shape == (3 * v.k,)
            assert gmax <= 1e-9 * (1.0 + abs(f))


class TestNodeScores:
    """The factor E-step hands normalized node responsibilities to the M-step."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(26)
        patterns = np.unique((rng.random((600, 8)) < 0.4).astype(float), axis=0)
        return patterns, rng.normal(0.0, 1.0, 8), rng.normal(0.0, 0.8, 8), rng.uniform(0.0, 5.0, len(patterns))

    @staticmethod
    def _log_scores(patterns, eta0, lam):
        """Unshifted node log-scores, summed per judge with np.logaddexp as the reference softplus."""
        eta = eta0[None, :] + np.outer(factor._ZQ, lam)  # (Q, K)
        per_judge = patterns[:, None, :] * eta[None] - np.logaddexp(0.0, eta)[None]
        return per_judge.sum(axis=2) + factor._LOG_WQ[None, :]

    def test_responsibilities_are_normalized_and_evidence_is_the_log_sum(self):
        patterns, eta0, lam, _ = self._inputs()
        evidence, resp = factor._node_scores(patterns, eta0, lam)
        scores = self._log_scores(patterns, eta0, lam)
        assert resp.shape == scores.shape
        assert (resp >= 0.0).all()
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(evidence, em.logsumexp(scores, axis=1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(resp, np.exp(scores - evidence[:, None]), rtol=0, atol=1e-13)

    def test_evidence_keeps_logsumexps_rule_for_rows_without_a_finite_maximum(self):
        rng = np.random.default_rng(27)
        scores = rng.normal(0.0, 30.0, (5, factor.QUAD_NODES))
        scores[1] = -np.inf
        scores[3, 7] = np.inf
        want = em.logsumexp(scores, axis=1)
        with np.errstate(invalid="ignore"):  # the shares of those two rows are 0/0 and inf/inf
            evidence, resp = factor._normalize_rows(scores.copy())
        assert evidence[1] == -np.inf and evidence[3] == np.inf
        np.testing.assert_allclose(evidence, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(resp[[0, 2, 4]].sum(axis=1), 1.0, rtol=0, atol=1e-13)

    def test_mstep_sums_over_responsibilities_match_the_n_by_q_forms(self):
        patterns, eta0, lam, w = self._inputs()
        _, resp = factor._node_scores(patterns, eta0, lam)
        scores = self._log_scores(patterns, eta0, lam)
        weighted = w[:, None] * np.exp(scores - em.logsumexp(scores, axis=1)[:, None])  # (n, Q)
        np.testing.assert_allclose(w @ resp, weighted.sum(axis=0), rtol=1e-12, atol=0)
        np.testing.assert_allclose((patterns * w[:, None]).T @ resp, patterns.T @ weighted, rtol=1e-12, atol=0)
