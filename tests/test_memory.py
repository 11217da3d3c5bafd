"""Transient memory of the CLI path: load, pattern table, CI fit and posterior write.

Each test runs one step at n = 200,000 items and K = 6 judges under
``tracemalloc`` and bounds its transient peak: the most it allocated at once
beyond what is still live when it returns (its result). The bounds are fixed
numbers of bytes, a few times the measured peak, and far below any n x K
temporary: an int64 copy of the votes alone is 9.6 MB.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from judgeagg import em_fit_ci, load_votes, save_votes
from judgeagg.cli import _write_posteriors
from judgeagg.data import simulated_votes, vote_patterns

N, K = 200_000, 6
MB = 1 << 20


def transient_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it held at once beyond what is live after it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - live


@pytest.fixture(scope="module")
def votes():
    rng = np.random.default_rng(19)
    gold = (rng.random(N) < 0.5).astype(np.int8)
    rates = np.where(gold[:, None] == 1, 0.8, 0.3)
    return simulated_votes((rng.random((N, K)) < rates).astype(np.int8), gold)


@pytest.fixture(scope="module")
def votes_csv(tmp_path_factory, votes):
    path = tmp_path_factory.mktemp("memory") / "votes.csv"
    save_votes(votes, str(path))
    return str(path)


# Measured at n = 200,000, K = 6, in MB (before this bound, the whole-input
# temporaries read 17.6, 10.3, 10.1 and 7.8): load_votes 2.4, the per-block
# id lists and cells; vote_patterns 1.5, the int64 keys; em_fit_ci 3.4, the
# vote fraction, the jitter and the pattern index less the posterior it
# returns; _write_posteriors 5.1, one 65,536-row chunk's rows, text and its
# UTF-8 encoding.
@pytest.mark.parametrize("step, bound_mb", [
    ("load_votes", 4),
    ("vote_patterns", 3),
    ("em_fit_ci", 5),
    ("write_posteriors", 6.5),
])
def test_transient_peak_stays_under_a_fixed_bound(step, bound_mb, votes, votes_csv, tmp_path):
    if step == "load_votes":
        v, peak = transient_peak(load_votes, votes_csv)
        assert v.item_ids == votes.item_ids and np.array_equal(v.votes, votes.votes)
    elif step == "vote_patterns":
        (patterns, counts, inverse), peak = transient_peak(vote_patterns, votes.votes)
        assert np.array_equal(patterns[inverse], votes.votes)
    elif step == "em_fit_ci":
        fit, peak = transient_peak(em_fit_ci, votes)
        assert fit.posterior.gamma.shape == (N,)
    else:
        gamma = em_fit_ci(votes).posterior.gamma
        _, peak = transient_peak(_write_posteriors, tmp_path / "posteriors.csv", votes, gamma)
    assert peak < bound_mb * MB, f"{step}: transient peak {peak / MB:.1f} MB"
