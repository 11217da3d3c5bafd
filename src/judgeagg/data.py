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


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def rng_from(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator derived from one 64-bit seed and a stream key.

    Every random stream in the package flows through this helper so that a
    single seed plus a structural key (trial index, K value, restart index...)
    reproduces any sub-experiment bit-for-bit. A seed that is negative or not
    an integer (1.5 would draw seed 1's stream) is a ValueError.
    """
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
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
        if np.ndim(self.train_fraction) != 0:
            raise ValueError("train_fraction must be a number")
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must lie strictly inside (0,1)")


# The reader takes line-aligned blocks of about this many bytes; the csv
# fallback and the writers work in chunks of this many rows.
_BLOCK_BYTES = 1 << 20
_CHUNK_ROWS = 1 << 16


def load_votes(path: str) -> VoteMatrix:
    """Parse a UTF-8 vote CSV: header ``item,<judge>...[,label]``, one row per item.

    Cells must be exactly 0 or 1. A trailing column named ``label`` is parsed
    as gold labels. Every error, bytes that are not UTF-8 and fields over
    ``csv.field_size_limit()`` included, is a VoteDataError naming the file
    (and a bad row's row and column).

    The file is read once, front to back, in line-aligned blocks of about
    ``_BLOCK_BYTES``: by a vectorized byte-level parser while they are plain
    (see :func:`_parse_block`), and from the first that is not, by
    ``csv.reader`` ``_CHUNK_ROWS`` rows at a time. The result is that of
    ``csv.reader`` over the whole file. Beside it the reader keeps only each
    block's cells (one byte per cell) and ids until they are joined.
    """
    with open(path, "rb") as fh:
        try:
            return _read_votes(fh, path)
        except csv.Error as exc:
            raise VoteDataError(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise VoteDataError(f"{path}: {_where_not_utf8(path, exc)}") from None


def _where_not_utf8(path: str, exc: UnicodeDecodeError) -> str:
    """``exc`` restated with the line and file offset of the first bytes of ``path`` that are not UTF-8.

    The decoder's own position counts from the start of its current read.
    ``exc`` is returned as it is if the file has changed and decodes now.
    """
    offset = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            # No UTF-8 sequence holds a newline byte, so each line decodes alone.
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as bad:
                found = " ".join(f"0x{c:02x}" for c in bad.object[bad.start:bad.end])
                return (f"'utf-8' codec can't decode byte{'s' * (bad.end - bad.start > 1)} {found} "
                        f"on line {lineno}, at file offset {offset + bad.start}: {bad.reason}")
            offset += len(line)
    return str(exc)


def _read_votes(fh, name: str) -> VoteMatrix:
    limit = csv.field_size_limit()
    header = _plain_header(fh.readline(), limit)
    # Where csv.reader takes over (the start, when the header is not plain) and the records before it.
    start, records = 0, 1
    cells, ids = [], []
    if header is not None:
        judges, has_gold = _header(header, name)
        start = fh.tell()
        while block := fh.read(_BLOCK_BYTES):
            block = bytearray(block)
            block += fh.readline()  # to the end of the line
            parsed = _parse_block(block, len(header) - 1, limit)
            if parsed is None:
                break
            cells.append(parsed[0])
            ids.append(parsed[1])
            start, records = fh.tell(), records + parsed[2]
        else:
            start = None  # the block parser read it all
    if start is not None:
        fh.seek(start)
        with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:  # closes fh too
            rows = csv.reader(text)
            if header is None:
                header = next(rows, None)
                if header is None:
                    raise VoteDataError(f"{name}: empty file")
                judges, has_gold = _header(header, name)
            for block_cells, block_ids in _csv_blocks(rows, header, records + 1, name):
                cells.append(block_cells)
                ids.append(block_ids)
    n = sum(map(len, ids))
    if n == 0:
        raise VoteDataError(f"{name}: no data rows")
    k = len(judges)
    votes = np.concatenate([c[:k].T for c in cells], out=np.empty((n, k), dtype=np.int8))
    gold = np.concatenate([c[-1] for c in cells]) if has_gold else None
    del cells  # before the ids are joined, the other large step
    return VoteMatrix(votes=votes, item_ids=tuple(itertools.chain.from_iterable(ids)),
                      judge_names=tuple(judges), gold_labels=gold)


def _plain(raw) -> bool:
    # 0xFF never occurs in UTF-8, so it can mark the bytes that are not ids.
    return not any(c in raw for c in (b'"', b"\r", b"\0", b"\xff"))


def _plain_header(line: bytes, limit: int) -> list[str] | None:
    """The fields of header ``line`` split on commas, or None unless csv.reader provably splits it so."""
    line = line.replace(b"\r\n", b"\n")
    if not line.endswith(b"\n") or len(line) > limit or not _plain(line):
        return None
    try:
        return line[:-1].decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None


def _parse_block(block: bytearray, n_cells: int, limit: int) -> tuple[np.ndarray, list[str], int] | None:
    """The cells (``n_cells`` x rows, int8), ids and line count of a block of whole lines, or None.

    Accepts only what ``csv.reader`` provably splits on commas and line ends
    alone: valid UTF-8 with no quote, NUL or CR other than in ``\\r\\n``, no
    line as long as the csv field limit, and every non-blank line
    ``<id>,<c>,...,<c>`` with ``n_cells`` cells 0 or 1. The block's comma
    count must then equal its lines * ``n_cells``, so no id holds a comma.
    Anything else, malformed or merely unusual, returns None and is left to
    ``csv.reader``. ``block`` may be overwritten.
    """
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    if not _plain(block):
        return None
    terminated = block.endswith(b"\n")
    buf = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not terminated:
        ends = np.append(ends, len(block))
    lengths = np.diff(ends, prepend=-1) - 1
    lines = len(ends)  # csv.reader's records, blank lines included
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
    return cells.view(np.int8), ids, lines


_BITS = frozenset("01")


def _csv_blocks(rows, header: list[str], lineno: int, name: str):
    """The cells and ids of ``csv.reader`` ``rows`` in blocks of ``_CHUNK_ROWS``, shaped as :func:`_parse_block`'s.

    ``lineno`` is the record number of the first row. A row whose width is
    not the header's, or a cell that is not 0 or 1, is a VoteDataError that
    names its row (blank records counted) and column.
    """
    width, columns = len(header), header[1:]
    cells, ids = [], []
    for lineno, row in enumerate(rows, start=lineno):
        if not row:
            continue
        if len(row) != width:
            raise VoteDataError(f"{name}: row {lineno} has {len(row)} cells, expected {width}")
        tail = row[1:]
        if not _BITS.issuperset(tail):
            col, cell = next((col, cell) for col, cell in zip(columns, tail) if cell not in _BITS)
            raise VoteDataError(f"{name}: row {lineno}, column '{col}': expected 0 or 1, got {cell!r}")
        ids.append(row[0])
        cells += tail
        if len(ids) == _CHUNK_ROWS:
            yield _cell_block(cells, width - 1), ids
            cells, ids = [], []
    if ids:
        yield _cell_block(cells, width - 1), ids


def _cell_block(cells: list[str], n_cells: int) -> np.ndarray:
    """Cells ``"0"``/``"1"`` listed row by row as an ``n_cells`` x rows int8 array."""
    return (np.frombuffer("".join(cells).encode("ascii"), dtype=np.int8) - ord("0")).reshape(-1, n_cells).T


def _header(fields: list[str], name: str) -> tuple[list[str], bool]:
    """The judges of vote-CSV header ``fields`` (of file ``name``) and whether a ``label`` column ends it."""
    if len(fields) < 2 or fields[0] != "item":
        raise VoteDataError(f"{name}: header must be 'item,<judge names>[,label]'")
    has_gold = fields[-1] == "label"
    judges = fields[1:-1] if has_gold else fields[1:]
    if not judges:
        raise VoteDataError(f"{name}: no judge columns found")
    return judges, has_gold


def save_votes(v: VoteMatrix, path: str) -> None:
    """Write a VoteMatrix as UTF-8 in the CSV schema understood by :func:`load_votes`."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        _write_votes(fh, v)


def _write_votes(fh, v: VoteMatrix) -> None:
    cells = v.votes if v.gold_labels is None else np.column_stack([v.votes, v.gold_labels])
    patterns, _, inverse = vote_patterns(cells)
    tails = ["," + ",".join(map(str, row)) + "\n" for row in patterns.astype(np.int8).tolist()]
    header = ["item", *v.judge_names] + (["label"] if v.gold_labels is not None else [])
    write_csv_rows(fh, header, v.item_ids, lambda start, stop: map(tails.__getitem__, inverse[start:stop].tolist()))


# Characters that can make csv.writer quote a field; ids holding any of them
# are formatted by csv.writer itself.
_NEEDS_QUOTING = re.compile(r'[,"\r\n]')


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
