"""Vote-matrix data model, CSV IO, splitting, metrics, and seeded randomness.

The vote matrix is the universal input: n items, K judges, entries in {0,1},
optionally paired with gold labels for evaluation.
"""

from __future__ import annotations

import csv
import io
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
        if not ((votes == 0) | (votes == 1)).all():
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
            if not ((gold == 0) | (gold == 1)).all():
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
        if gamma.ndim != 1 or np.any(gamma < 0) or np.any(gamma > 1):
            raise ValueError("gamma must be a 1-D vector of probabilities in [0,1]")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "hard_labels", (gamma >= 0.5).astype(np.int8))

    def flipped(self) -> "PosteriorVector":
        return PosteriorVector(1.0 - self.gamma)


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

    Plain files are parsed by a vectorized byte-level reader; quoted or CRLF
    files, and every malformed one, go row by row through ``csv.reader``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    v = _parse_votes_fast(raw)
    if v is None:
        v = _parse_votes(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""), path)
    return v


def _parse_votes_fast(raw: bytes) -> VoteMatrix | None:
    """The :func:`_parse_votes` result for a plain vote CSV, or None.

    Accepts only input that ``csv.reader`` provably splits on commas and
    newlines alone: valid UTF-8 with no quote, CR or NUL, no line as long as
    the csv field limit, a well-formed header of width w, and every non-blank
    line ending in exactly w - 1 cells ``,0`` or ``,1`` after an id. The file's
    comma count must then equal rows * (w - 1), so no id holds a comma. Any
    other input, malformed or merely unusual, returns None and is left to
    :func:`_parse_votes`, the only source of error messages.
    """
    # 0xFF never occurs in UTF-8, so it can mark the bytes that are not ids.
    if any(c in raw for c in (b'"', b"\r", b"\0", b"\xff")):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))  # ends[0] closes the header
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))
    if len(ends) < 2:
        return None
    header_end = int(ends[0])
    try:
        header = raw[:header_end].decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None
    if len(header) < 2 or header[0] != "item":
        return None
    has_gold = header[-1] == "label"
    judges = header[1:-1] if has_gold else header[1:]
    if not judges:
        return None
    n_cells = len(header) - 1
    lengths = np.diff(ends) - 1
    blank = ends[1:][lengths == 0]  # csv.reader yields [] for a blank line; both parsers skip it
    ends = ends[1:][lengths > 0]
    lengths = lengths[lengths > 0]
    if (len(ends) == 0 or max(header_end, lengths.max()) >= csv.field_size_limit()
            or raw.count(b",", header_end) != len(ends) * n_cells):
        return None
    marked = bytearray(raw)
    mark = np.frombuffer(marked, dtype=np.uint8)
    mark[:header_end + 1] = 0xFF
    mark[blank] = 0xFF
    cells = np.empty((n_cells, len(ends)), dtype=np.uint8)
    # The first cell's comma on each line. Every byte from there to the line
    # end is checked, so on a line shorter than its cells the newline before
    # it (or, for the first line, the header's) fails the check.
    at = ends - 2 * n_cells
    for j in range(n_cells):
        if (buf[at] != ord(",")).any():
            return None
        mark[at] = 0xFF
        at += 1
        cells[j] = buf[at] - ord("0")
        mark[at] = 0xFF
        at += 1
    if cells.max() > 1:
        return None
    # What is left is each id followed by its line's newline (none after an
    # unterminated last line).
    try:
        ids = marked.translate(None, b"\xff").decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    if raw.endswith(b"\n"):
        ids.pop()
    return VoteMatrix(
        votes=np.ascontiguousarray(cells[:len(judges)].T).view(np.int8),
        item_ids=tuple(ids),
        judge_names=tuple(judges),
        gold_labels=cells[-1].copy().view(np.int8) if has_gold else None,
    )


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
    write_csv_rows(fh, header, v.item_ids, inverse, tails)


# Characters that can make csv.writer quote a field; ids holding any of them
# are formatted by csv.writer itself.
_NEEDS_QUOTING = re.compile(r'[,"\r\n]')
_CHUNK_ROWS = 1 << 16


def write_csv_rows(fh, header: list[str], ids, keys: np.ndarray, tails: list[str]) -> None:
    """Write ``header``, then the row ``ids[i] + tails[keys[i]]`` for each item i.

    Each row reads as ``csv.writer(lineterminator="\\r\\n")`` formats
    ``[ids[i], *cells]``, with the final ``\\r\\n`` written as ``\\n``, given
    tails ``",<cell>,...,<cell>\\n"`` whose cells need no quoting: a field
    holding a comma, quote, CR or LF is quoted, so any id or judge name reads
    back intact. Each distinct tail is formatted once by the caller; ids that
    need quoting go through csv.writer itself.
    """
    fh.write(_csv_line(header))
    for start in range(0, len(ids), _CHUNK_ROWS):
        chunk = ids[start:start + _CHUNK_ROWS]
        if _NEEDS_QUOTING.search("".join(chunk)):
            chunk = [_csv_line([i])[:-1] if _NEEDS_QUOTING.search(i) else i for i in chunk]
        rows = [""] * (2 * len(chunk))
        rows[::2] = chunk
        rows[1::2] = map(tails.__getitem__, keys[start:start + _CHUNK_ROWS].tolist())
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
        bits = 1 << np.arange(k - 1, -1, -1)
        keys = (votes != 0) @ bits
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
