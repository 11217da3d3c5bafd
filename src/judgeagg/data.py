"""Vote-matrix data model, CSV IO, splitting, metrics, and seeded randomness.

The vote matrix is the universal input: n items, K judges, entries in {0,1},
optionally paired with gold labels for evaluation.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from dataclasses import dataclass, field

import numpy as np


class VoteDataError(ValueError):
    """Malformed vote data (bad CSV cell, ragged row, empty file, ...)."""


def rng_from(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator derived from one 64-bit seed and a stream key.

    Every random stream in the package flows through this helper so that a
    single seed plus a structural key (trial index, K value, restart index...)
    reproduces any sub-experiment bit-for-bit.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class VoteMatrix:
    """n x K binary votes, item identifiers, and optional gold labels.

    Immutable after construction; safe to share across threads.
    """

    votes: np.ndarray
    item_ids: tuple[str, ...]
    judge_names: tuple[str, ...]
    gold_labels: np.ndarray | None = None

    def __post_init__(self):
        # Check 0/1 on the caller's values before the int8 cast, which would
        # wrap 256 to 0 and truncate 0.7 to 0.
        votes = np.asarray(self.votes)
        if votes.ndim != 2 or votes.shape[0] < 1 or votes.shape[1] < 1:
            raise VoteDataError(f"votes must be a non-empty 2-D matrix, got shape {votes.shape}")
        if not _is_binary(votes):
            raise VoteDataError("votes must contain only 0/1 entries")
        votes = votes.astype(np.int8, copy=False)
        object.__setattr__(self, "votes", votes)
        if len(self.item_ids) != votes.shape[0]:
            raise VoteDataError("item_ids length must match number of rows")
        if len(self.judge_names) != votes.shape[1]:
            raise VoteDataError("judge_names length must match number of columns")
        # Rebuilding a million ids costs about 0.1 s; checking their types is cheaper.
        if type(self.item_ids) is not tuple or not set(map(type, self.item_ids)) <= {str}:
            object.__setattr__(self, "item_ids", tuple(str(i) for i in self.item_ids))
        object.__setattr__(self, "judge_names", tuple(str(j) for j in self.judge_names))
        if self.gold_labels is not None:
            gold = np.asarray(self.gold_labels)
            if gold.shape != (votes.shape[0],):
                raise VoteDataError("gold_labels must be a length-n vector")
            if not _is_binary(gold):
                raise VoteDataError("gold_labels must contain only 0/1 entries")
            object.__setattr__(self, "gold_labels", gold.astype(np.int8, copy=False))

    @property
    def n(self) -> int:
        return self.votes.shape[0]

    @property
    def k(self) -> int:
        return self.votes.shape[1]

    def subset(self, idx: np.ndarray) -> "VoteMatrix":
        """Row subset preserving order of `idx`."""
        idx = np.asarray(idx)
        return VoteMatrix(
            votes=self.votes[idx],
            item_ids=tuple(self.item_ids[i] for i in idx),
            judge_names=self.judge_names,
            gold_labels=None if self.gold_labels is None else self.gold_labels[idx],
        )

    def select_judges(self, cols: np.ndarray) -> "VoteMatrix":
        """Column subset (judge subsample), preserving order of `cols`."""
        cols = np.asarray(cols)
        return VoteMatrix(
            votes=self.votes[:, cols],
            item_ids=self.item_ids,
            judge_names=tuple(self.judge_names[c] for c in cols),
            gold_labels=self.gold_labels,
        )


def _is_binary(a: np.ndarray) -> bool:
    """Every entry is 0 or 1; integers are checked by their range, with no n x K temporary."""
    if a.dtype.kind in "biu":
        return bool(a.min() >= 0 and a.max() <= 1)
    return bool(((a == 0) | (a == 1)).all())


def simulated_votes(votes: np.ndarray, gold: np.ndarray) -> VoteMatrix:
    """A simulated vote matrix with its gold labels: items ``0..n-1``, judges ``j1..jK``."""
    return VoteMatrix(votes=votes, item_ids=tuple(map(str, range(len(votes)))),
                      judge_names=tuple(f"j{i+1}" for i in range(votes.shape[1])), gold_labels=gold)


@dataclass(frozen=True)
class PosteriorVector:
    """Per-item posterior gamma_i = Pr(Y_i = 1 | votes) and hard labels.

    Hard labels are derived, never stored independently: label 1 exactly when
    gamma >= 1/2 (a tie at 1/2 predicts 1).
    """

    gamma: np.ndarray
    hard_labels: np.ndarray = field(init=False)

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.ndim != 1 or not np.all((gamma >= 0) & (gamma <= 1)):
            raise ValueError("gamma must be a 1-D vector of probabilities in [0,1]")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "hard_labels", (gamma >= 0.5).astype(np.int8))


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split request: fraction of items for training plus a seed."""

    train_fraction: float
    seed: int

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must lie strictly inside (0,1)")


def load_votes(path: str) -> VoteMatrix:
    """Parse a UTF-8 vote CSV: header ``item,<judge>...[,label]``, one row per item.

    Cells must be exactly 0 or 1. A trailing column named ``label`` is parsed
    as gold labels. Errors name the offending row and column.

    Plain files are parsed by a vectorized byte-level reader that reads one
    line-aligned block of about ``_BLOCK_BYTES`` at a time, so it never holds
    the whole file: beside the result it keeps each block's cells (one byte
    per cell) and id list until they are joined. Quoted or CRLF files, and
    every malformed one, are read whole and go row by row through
    ``csv.reader``.
    """
    with open(path, "rb") as fh:
        v = _parse_votes_fast(fh)
        if v is None:
            fh.seek(0)
            v = _parse_votes(io.TextIOWrapper(io.BytesIO(fh.read()), encoding="utf-8", newline=""), path)
    return v


# The fast parser reads line-aligned blocks of about this many bytes.
_BLOCK_BYTES = 1 << 20


def _parse_votes_fast(fh) -> VoteMatrix | None:
    """The :func:`_parse_votes` result for a plain vote CSV read from binary file ``fh``, or None.

    Accepts only input that ``csv.reader`` provably splits on commas and
    newlines alone: valid UTF-8 with no quote, CR or NUL, no line as long as
    the csv field limit, a well-formed header of width w, and every non-blank
    line ending in exactly w - 1 cells ``,0`` or ``,1`` after an id. Each
    block's comma count must then equal its rows * (w - 1), so no id holds a
    comma. Any other input, malformed or merely unusual, returns None and is
    left to :func:`_parse_votes`, the only source of error messages.
    """
    limit = csv.field_size_limit()
    line = fh.readline()
    if not line.endswith(b"\n") or len(line) > limit or not _plain(line):
        return None
    try:
        header = line[:-1].decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None
    if len(header) < 2 or header[0] != "item":
        return None
    has_gold = header[-1] == "label"
    judges = header[1:-1] if has_gold else header[1:]
    if not judges:
        return None
    cells, ids = [], []
    while block := fh.read(_BLOCK_BYTES):
        block = bytearray(block)
        block += fh.readline()  # to the end of the line
        parsed = _parse_block(block, len(header) - 1, limit)
        if parsed is None:
            return None
        cells.append(parsed[0])
        ids.append(parsed[1])
    n = sum(map(len, ids))
    if n == 0:
        return None
    k = len(judges)
    votes = np.concatenate([c[:k].T for c in cells], out=np.empty((n, k), dtype=np.int8))
    gold = np.concatenate([c[-1] for c in cells]) if has_gold else None
    del cells  # before the ids are joined, the other large step
    return VoteMatrix(votes=votes, item_ids=tuple(itertools.chain.from_iterable(ids)),
                      judge_names=tuple(judges), gold_labels=gold)


def _plain(raw) -> bool:
    # 0xFF never occurs in UTF-8, so it can mark the bytes that are not ids.
    return not any(c in raw for c in (b'"', b"\r", b"\0", b"\xff"))


def _parse_block(block: bytearray, n_cells: int, limit: int) -> tuple[np.ndarray, list[str]] | None:
    """The cells (``n_cells`` x lines, int8) and ids of a block of whole lines, or None.

    None unless every non-blank line is ``<id>,<c>,...,<c>`` with ``n_cells``
    cells 0 or 1 and the ids are UTF-8 (see :func:`_parse_votes_fast`).
    ``block`` is overwritten.
    """
    if not _plain(block):
        return None
    terminated = block.endswith(b"\n")
    buf = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not terminated:
        ends = np.append(ends, len(block))
    lengths = np.diff(ends, prepend=-1) - 1
    # csv.reader yields [] for a blank line; both parsers skip it.
    buf[ends[lengths == 0]] = 0xFF
    ends, lengths = ends[lengths > 0], lengths[lengths > 0]
    if block.count(b",") != len(ends) * n_cells:
        return None
    # A line shorter than its cells would reach into the line before it.
    if len(ends) and (lengths.max() >= limit or lengths.min() < 2 * n_cells):
        return None
    cells = np.empty((n_cells, len(ends)), dtype=np.uint8)
    at = ends - 2 * n_cells  # the first cell's comma on each line
    for j in range(n_cells):
        if (buf[at] != ord(",")).any():
            return None
        buf[at] = 0xFF
        at += 1
        cells[j] = buf[at] - ord("0")
        buf[at] = 0xFF
        at += 1
    if len(ends) and cells.max() > 1:
        return None
    # What is left is each id followed by its line's newline (none after an
    # unterminated last line).
    try:
        ids = block.translate(None, b"\xff").decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    if terminated:
        ids.pop()
    return cells.view(np.int8), ids


def _parse_votes(fh, name: str) -> VoteMatrix:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise VoteDataError(f"{name}: empty file") from None
    if len(header) < 2 or header[0] != "item":
        raise VoteDataError(f"{name}: header must be 'item,<judge names>[,label]'")
    has_gold = header[-1] == "label"
    judges = header[1:-1] if has_gold else header[1:]
    if not judges:
        raise VoteDataError(f"{name}: no judge columns found")
    width = len(header)
    ids, rows, gold = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise VoteDataError(f"{name}: row {lineno} has {len(row)} cells, expected {width}")
        ids.append(row[0])
        cells = row[1:-1] if has_gold else row[1:]
        parsed = []
        for col, cell in zip(judges, cells):
            if cell not in ("0", "1"):
                raise VoteDataError(f"{name}: row {lineno}, column '{col}': expected 0 or 1, got {cell!r}")
            parsed.append(int(cell))
        rows.append(parsed)
        if has_gold:
            if row[-1] not in ("0", "1"):
                raise VoteDataError(f"{name}: row {lineno}, column 'label': expected 0 or 1, got {row[-1]!r}")
            gold.append(int(row[-1]))
    if not rows:
        raise VoteDataError(f"{name}: no data rows")
    return VoteMatrix(
        votes=np.array(rows, dtype=np.int8),
        item_ids=tuple(ids),
        judge_names=tuple(judges),
        gold_labels=np.array(gold, dtype=np.int8) if has_gold else None,
    )


def save_votes(v: VoteMatrix, path: str) -> None:
    """Write a VoteMatrix as UTF-8 in the CSV schema understood by :func:`load_votes`."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        _write_votes(fh, v)


def dumps_votes(v: VoteMatrix) -> str:
    buf = io.StringIO()
    _write_votes(buf, v)
    return buf.getvalue()


def _write_votes(fh, v: VoteMatrix) -> None:
    cells = v.votes if v.gold_labels is None else np.column_stack([v.votes, v.gold_labels])
    patterns, _, inverse = vote_patterns(cells)
    tails = ["," + ",".join(map(str, row)) + "\n" for row in patterns.astype(np.int8).tolist()]
    header = ["item", *v.judge_names] + (["label"] if v.gold_labels is not None else [])
    write_csv_rows(fh, header, v.item_ids, lambda start, stop: map(tails.__getitem__, inverse[start:stop].tolist()))


# Characters that can make csv.writer quote a field; ids holding any of them
# are formatted by csv.writer itself.
_NEEDS_QUOTING = re.compile(r'[,"\r\n]')
_CHUNK_ROWS = 1 << 16


def write_csv_rows(fh, header: list[str], ids, tails) -> None:
    """Write ``header``, then the row ``ids[i] + tail`` for each item i.

    ``tails(start, stop)`` gives the tails of rows ``start..stop-1``; it is
    called once per chunk of ``_CHUNK_ROWS`` rows, so a caller can format
    each distinct tail of a chunk once and hold no n-sized table. Each row
    reads as ``csv.writer(lineterminator="\\r\\n")`` formats ``[ids[i],
    *cells]``, with the final ``\\r\\n`` written as ``\\n``, given tails
    ``",<cell>,...,<cell>\\n"`` whose cells need no quoting: a field holding a
    comma, quote, CR or LF is quoted, so any id or judge name reads back
    intact. Ids that need quoting go through csv.writer itself.
    """
    fh.write(_csv_line(header))
    for start in range(0, len(ids), _CHUNK_ROWS):
        chunk = ids[start:start + _CHUNK_ROWS]
        if _NEEDS_QUOTING.search("".join(chunk)):
            chunk = [_csv_line([i])[:-1] if _NEEDS_QUOTING.search(i) else i for i in chunk]
        rows = [""] * (2 * len(chunk))
        rows[::2] = chunk
        rows[1::2] = tails(start, start + len(chunk))
        fh.write("".join(rows))


def _csv_line(fields: list[str]) -> str:
    # With "\r\n" as its terminator csv.writer quotes a lone CR too; with
    # "\n" (Python 3.11) it would leave one bare and break the row.
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


# Up to this many judges a row is keyed by an integer counted over 2**K slots.
_INT_KEY_MAX_K = 20


def vote_patterns(votes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct 0/1 vote rows as floats, their counts, and the row -> pattern index.

    ``patterns[inverse]`` reproduces ``votes`` and ``counts`` sums to n.
    Patterns are in the order of their bits read with judge 0 as the most
    significant. Up to K = 20 a row's key is that integer and the table comes
    from ``np.bincount``, with no sort; beyond, rows are keyed by their
    bit-packed bytes (the same order), which sorts far faster than
    ``np.unique(votes, axis=0)``.
    """
    votes = np.asarray(votes)
    k = votes.shape[1]
    if k <= _INT_KEY_MAX_K:
        # Shift-or one column at a time: no n x K integer temporary.
        keys = np.zeros(len(votes), dtype=np.int64)
        for j in range(k):
            keys <<= 1
            keys |= votes[:, j] != 0
        bits = 1 << np.arange(k - 1, -1, -1)
        counts = np.bincount(keys, minlength=1 << k)
        present = counts > 0
        codes = np.flatnonzero(present)
        patterns = ((codes[:, None] & bits) != 0).astype(float)
        return patterns, counts[present].astype(float), (np.cumsum(present) - 1)[keys]
    packed = np.packbits(votes != 0, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    return votes[first].astype(float), counts.astype(float), inverse.ravel()


def split(v: VoteMatrix, s: SplitSpec) -> tuple[VoteMatrix, VoteMatrix]:
    """Disjoint, exhaustive, seed-reproducible train/test partition.

    Train size is max(1, floor(train_fraction * n)), so the train side is
    never empty. Item order within each side follows the original matrix.
    """
    if v.n < 2:
        raise VoteDataError("split requires at least 2 items")
    n_train = max(1, int(np.floor(s.train_fraction * v.n)))
    perm = rng_from(s.seed, 0).permutation(v.n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return v.subset(train_idx), v.subset(test_idx)


def accuracy(pred, gold) -> float:
    """Fraction of agreeing positions between two binary label vectors."""
    pred = np.asarray(pred)
    gold = np.asarray(gold)
    if pred.shape != gold.shape or pred.ndim != 1 or pred.size < 1:
        raise ValueError(f"length mismatch: pred {pred.shape} vs gold {gold.shape}")
    return float(np.mean(pred == gold))


def separation_row(k: int, pred_bayes, pred_ci, gold) -> dict:
    """One row of a risk-separation table at judge count k.

    Risks of the Bayes-side and the CI rule against the gold labels, their
    gap, and binomial standard errors, which are NaN for a single item.
    """
    n = len(gold)
    risk_b = float(np.mean(pred_bayes != gold))
    risk_c = float(np.mean(pred_ci != gold))
    se_b, se_c = (float(np.sqrt(r * (1 - r) / n)) if n > 1 else float("nan") for r in (risk_b, risk_c))
    return {"K": int(k), "risk_bayes": risk_b, "risk_ci": risk_c, "sep": risk_c - risk_b,
            "se_bayes": se_b, "se_ci": se_c}
