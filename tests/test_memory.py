"""Transient memory of the CLI path: load, pattern table, CI fit, posterior write and simulation.

Each test runs one step at n = 200,000 items and K = 6 judges under
``tracemalloc`` and bounds its transient peak: the most it allocated at once
beyond what is still live when it returns (its result). The bounds are fixed
numbers of bytes, a few times the measured peak, and far below any n x K
temporary: an int64 copy of the votes alone is 9.6 MB.
"""

import gc
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from judgeagg import em_fit_ci, load_votes, save_votes
from judgeagg.ci import sample_ci
from judgeagg.cli import _write_posteriors
from judgeagg.data import simulated_votes, vote_patterns
from judgeagg.presets import CI_SETUPS

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


@pytest.fixture(scope="module")
def votes_csv_copies(votes_csv):
    """The same votes with CRLF line ends, and with the first id quoted, so csv.reader reads every row."""
    raw = Path(votes_csv).read_bytes()
    header, first_id, rest = re.match(rb"([^\n]*\n)([^,]*)(.*)", raw, re.DOTALL).groups()
    copies = {"crlf": raw.replace(b"\n", b"\r\n"), "quoted": header + b'"' + first_id + b'"' + rest}
    for name, data in copies.items():
        Path(votes_csv).with_name(f"votes-{name}.csv").write_bytes(data)
    return {name: str(Path(votes_csv).with_name(f"votes-{name}.csv")) for name in copies}


# Measured at n = 200,000, K = 6, in MB (before this bound, the whole-input
# temporaries read 17.6, 10.3, 10.1 and 7.8): load_votes 2.4, the per-block
# id lists and cells; vote_patterns 1.5, the int64 keys; em_fit_ci 3.4, the
# vote fraction, the jitter and the pattern index less the posterior it
# returns; _write_posteriors 5.1, one 65,536-row chunk's rows, text and its
# UTF-8 encoding. The CRLF copy reads 3.3 (each block's CR-free copy) and
# the quoted copy 5.1 (one 65,536-row chunk of csv.reader's cells and ids);
# both read 36 when such files were read whole. sample_ci reads 6.4, one
# chunk's rates and uniforms, against 18.3 for two n x K float64 draws.
@pytest.mark.parametrize("step, bound_mb", [
    ("load_votes", 4),
    ("load_votes_crlf", 4),
    ("load_votes_quoted", 7),
    ("vote_patterns", 3),
    ("em_fit_ci", 5),
    ("write_posteriors", 6.5),
    ("sample_ci", 10),
])
def test_transient_peak_stays_under_a_fixed_bound(step, bound_mb, votes, votes_csv, votes_csv_copies, tmp_path):
    if step.startswith("load_votes"):
        path = votes_csv_copies[step.split("_")[-1]] if step != "load_votes" else votes_csv
        v, peak = transient_peak(load_votes, path)
        assert v.item_ids == votes.item_ids and np.array_equal(v.votes, votes.votes)
        assert np.array_equal(v.gold_labels, votes.gold_labels)
    elif step == "sample_ci":
        # The simulated ids, built last and kept, would hide the draw's own peak.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("judgeagg.ci.simulated_votes", lambda votes, gold: (votes, gold))
            (drawn, gold), peak = transient_peak(sample_ci, CI_SETUPS[1], N, 5)
        assert drawn.shape == (N, K) and drawn.dtype == np.int8 and gold.shape == (N,)
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
