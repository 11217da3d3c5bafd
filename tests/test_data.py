import csv
import gc
import io
import re
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judgeagg import (
    PosteriorVector,
    SplitSpec,
    VoteDataError,
    VoteMatrix,
    accuracy,
    load_votes,
    rng_from,
    save_votes,
    split,
)
from judgeagg.cli import _write_posteriors
from judgeagg.data import _header


def write(tmp_path, text, name="votes.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def random_matrix(rng, with_gold=True):
    n = int(rng.integers(1, 30))
    k = int(rng.integers(1, 8))
    votes = rng.integers(0, 2, size=(n, k))
    gold = rng.integers(0, 2, size=n) if with_gold else None
    ids = tuple(f"item{i}" for i in range(n))
    names = tuple(f"judge{j}" for j in range(k))
    return VoteMatrix(votes=votes, item_ids=ids, judge_names=names, gold_labels=gold)


class TestLoadVotes:
    def test_single_row(self, tmp_path):
        v = load_votes(write(tmp_path, "item,j1,j2,label\na,1,0,1\n"))
        assert v.n == 1 and v.k == 2
        assert v.votes.tolist() == [[1, 0]]
        assert v.gold_labels.tolist() == [1]
        assert v.judge_names == ("j1", "j2")

    def test_no_gold_column(self, tmp_path):
        v = load_votes(write(tmp_path, "item,a,b\nx,0,1\ny,1,1\n"))
        assert v.gold_labels is None and v.k == 2

    def test_bad_cell_names_row_and_column(self, tmp_path):
        with pytest.raises(VoteDataError, match=r"row 3, column 'j2'.*got '2'"):
            load_votes(write(tmp_path, "item,j1,j2\na,1,0\nb,0,2\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(VoteDataError, match="row 2 has 2 cells"):
            load_votes(write(tmp_path, "item,j1,j2\na,1\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(VoteDataError, match="empty"):
            load_votes(write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(VoteDataError, match="no data rows"):
            load_votes(write(tmp_path, "item,j1\n"))

    @pytest.mark.parametrize("text", ['item,j1\n"a",1\n', "", "item,j1\na,2\n"], ids=["quoted", "empty", "bad-cell"])
    def test_leaves_no_file_open(self, tmp_path, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                load_votes(write(tmp_path, text))
            except VoteDataError:
                pass
            gc.collect()
        assert not caught

    def test_reads_under_the_largest_csv_field_limit(self, tmp_path):
        previous = csv.field_size_limit(sys.maxsize)
        try:
            v = load_votes(write(tmp_path, 'item,j1\nab,1\n"c",0\n'))
        finally:
            csv.field_size_limit(previous)
        assert v.item_ids == ("ab", "c") and v.votes.tolist() == [[1], [0]]

    def test_round_trip_100_random_matrices(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(100):
            v = random_matrix(rng, with_gold=bool(rng.integers(0, 2)))
            path = str(tmp_path / f"m{i}.csv")
            save_votes(v, path)
            w = load_votes(path)
            assert np.array_equal(v.votes, w.votes)
            assert v.item_ids == w.item_ids
            assert v.judge_names == w.judge_names
            if v.gold_labels is None:
                assert w.gold_labels is None
            else:
                assert np.array_equal(v.gold_labels, w.gold_labels)
            # written again, the file is the reference writer's, byte for byte
            save_votes(w, path)
            assert (tmp_path / f"m{i}.csv").read_bytes() == dumps_votes_reference(v).encode("utf-8")


@pytest.mark.parametrize("gamma", [[0.5, np.nan], [np.nan], [-0.1], [1.1]], ids=["nan-entry", "nan", "below", "above"])
def test_posterior_vector_rejects_non_probabilities(gamma):
    with pytest.raises(ValueError, match="probabilities"):
        PosteriorVector(np.array(gamma))


class TestVoteMatrix:
    def test_rejects_non_binary(self):
        with pytest.raises(VoteDataError):
            VoteMatrix(votes=np.array([[0, 2]]), item_ids=("a",), judge_names=("x", "y"))

    @pytest.mark.parametrize("votes, gold", [
        ([[256, 1]], None),
        ([[0.7, 1.0]], None),
        ([[-255, 1]], None),
        ([[0, 1]], [257]),
    ], ids=["wraps-to-0", "truncates-to-0", "wraps-to-1", "gold-wraps-to-1"])
    def test_rejects_values_an_int8_cast_would_hide(self, votes, gold):
        with pytest.raises(VoteDataError):
            VoteMatrix(votes=votes, item_ids=("a",), judge_names=("x", "y"), gold_labels=gold)

    def test_rejects_missing_gold_length(self):
        with pytest.raises(VoteDataError):
            VoteMatrix(votes=np.eye(2, dtype=int), item_ids=("a", "b"),
                       judge_names=("x", "y"), gold_labels=np.array([1]))

    @pytest.mark.parametrize("ids", [[3, 4], ("a", 4), np.array(["a", "b"]), ("a", np.str_("b"))],
                             ids=["int-list", "mixed-tuple", "numpy-array", "str-subclass"])
    def test_item_ids_become_a_tuple_of_str(self, ids):
        v = VoteMatrix(votes=np.eye(2, dtype=int), item_ids=ids, judge_names=("x", "y"))
        assert type(v.item_ids) is tuple and [type(i) for i in v.item_ids] == [str, str]
        assert v.item_ids == tuple(str(i) for i in ids)

    def test_keeps_a_tuple_of_str_as_given(self):
        ids = ("a", "b")
        assert VoteMatrix(votes=np.eye(2, dtype=int), item_ids=ids, judge_names=("x", "y")).item_ids is ids


class TestSplit:
    def test_partition(self):
        rng = np.random.default_rng(0)
        v = VoteMatrix(votes=rng.integers(0, 2, (10, 3)),
                       item_ids=tuple(map(str, range(10))),
                       judge_names=("a", "b", "c"))
        tr, te = split(v, SplitSpec(train_fraction=0.5, seed=7))
        assert tr.n == 5 and te.n == 5
        assert set(tr.item_ids) | set(te.item_ids) == set(v.item_ids)
        assert not set(tr.item_ids) & set(te.item_ids)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        v = VoteMatrix(votes=rng.integers(0, 2, (12, 2)),
                       item_ids=tuple(map(str, range(12))), judge_names=("a", "b"))
        s = SplitSpec(train_fraction=0.3, seed=99)
        a1, b1 = split(v, s)
        a2, b2 = split(v, s)
        assert a1.item_ids == a2.item_ids and b1.item_ids == b2.item_ids

    def test_floor_rule_never_empty(self):
        rng = np.random.default_rng(2)
        v = VoteMatrix(votes=rng.integers(0, 2, (5, 2)),
                       item_ids=tuple(map(str, range(5))), judge_names=("a", "b"))
        tr, te = split(v, SplitSpec(train_fraction=0.2, seed=0))
        assert tr.n == max(1, int(np.floor(0.2 * 5))) == 1
        assert te.n == 4

    def test_too_small(self):
        v = VoteMatrix(votes=np.array([[1]]), item_ids=("a",), judge_names=("x",))
        with pytest.raises(VoteDataError):
            split(v, SplitSpec(train_fraction=0.5, seed=0))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0, seed=0)


def test_rng_from_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        rng_from(-1, 3)


@pytest.mark.parametrize("seed", [1.5, 1.0, True])
def test_rng_from_rejects_a_seed_that_is_not_an_integer(seed):
    # int(1.5) would silently draw seed 1's stream.
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed}$"):
        rng_from(seed, 91, 0)


def test_rng_from_takes_numpy_integer_seeds():
    assert rng_from(np.uint64(7), 3).random() == rng_from(7, 3).random()


class TestAccuracy:
    def test_identity(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_complement(self):
        assert accuracy([1, 1], [0, 0]) == 0.0

    def test_matches_brute_force_count(self):
        rng = np.random.default_rng(3)
        p = rng.integers(0, 2, 1000)
        g = rng.integers(0, 2, 1000)
        brute = sum(1 for a, b in zip(p, g) if a == b) / 1000
        assert accuracy(p, g) == brute

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1, 0], [1])

    def test_flip_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            p = rng.integers(0, 2, n)
            g = rng.integers(0, 2, n)
            assert accuracy(p, g) + accuracy(1 - p, g) == pytest.approx(1.0)


# --- Differential tests of the vectorized CSV reader and the chunked writer ---

PLAIN_IDS = ["a", "b7", "12", "item", "x y", " pad ", "é", "日本", ""]
ODD_IDS = ["x,y", '"q"', 'a"b', "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "label"]
BAD_CELLS = ["2", "", " 1", "1 ", "01", "x", '"1"', "0.0", "\u0661"]


def make_csv_bytes(pick) -> bytes:
    """A vote CSV text, mostly well formed, with ``pick(seq)`` choosing every detail.

    Covers quoted ids and cells, CRLF and CR line ends, blank lines, a missing
    final newline, empty, spaced and non-ASCII ids, bad cells, ragged rows,
    bad or header-only files, with and without a label column, NUL and
    invalid UTF-8.
    """
    k = pick(range(1, 5))
    header = ["item", *(f"j{j}" for j in range(k))] + (["label"] if pick([True, False]) else [])
    header = pick([header] * 30 + [header[1:], ["item"], ["id", *header[1:]], ["item", "label"],
                                   ['"item"', *header[1:]], [*header, ""], ["item", "j 1", "é"]])
    lines = [",".join(header)]
    for _ in range(pick(range(7))):
        kind = pick(["ok"] * 30 + ["blank", "odd-id", "bad-cell", "short", "long", "spaces"])
        if kind == "blank":
            lines.append(pick(["", "", " "]))
            continue
        cells = [pick("01") for _ in range(len(header) - 1)]
        if kind == "bad-cell" and cells:
            cells[pick(range(len(cells)))] = pick(BAD_CELLS)
        if kind == "short":
            cells = cells[:-1]
        if kind == "long":
            cells.append(pick("01"))
        item = pick(ODD_IDS if kind == "odd-id" else PLAIN_IDS)
        line = ",".join([item, *cells])
        lines.append(" " + line if kind == "spaces" else line)
    eol = pick(["\n"] * 12 + ["\r\n", "\r"])
    text = eol.join(lines) + pick([eol, eol, ""])
    raw = text.encode("utf-8")
    corrupt = pick([None] * 20 + [b"\0", b"\xff", b"\xc3", b"\r", b"\n", b","])
    if corrupt is not None:
        at = pick(range(len(raw) + 1))
        raw = raw[:at] + corrupt + raw[at:]
    return raw


def reference_parse(raw: bytes, name: str):
    """csv.reader's verdict on the whole of ``raw``, row by row: a VoteMatrix or the exception it raises."""
    try:
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""))
        try:
            header = next(reader)
        except StopIteration:
            raise VoteDataError(f"{name}: empty file") from None
        judges, has_gold = _header(header, name)
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
        return VoteMatrix(votes=np.array(rows, dtype=np.int8), item_ids=tuple(ids), judge_names=tuple(judges),
                          gold_labels=np.array(gold, dtype=np.int8) if has_gold else None)
    except (VoteDataError, UnicodeDecodeError, csv.Error) as exc:
        return exc


def same_matrix(v: VoteMatrix, w: VoteMatrix) -> bool:
    return (v.votes.dtype == w.votes.dtype and np.array_equal(v.votes, w.votes)
            and v.item_ids == w.item_ids and v.judge_names == w.judge_names
            and (v.gold_labels is None) == (w.gold_labels is None)
            and (v.gold_labels is None or (v.gold_labels.dtype == w.gold_labels.dtype
                                           and np.array_equal(v.gold_labels, w.gold_labels))))


def assert_load_agrees(raw: bytes, path: Path) -> bool:
    """load_votes agrees with the reference on ``raw``; returns whether the block parser alone built the matrix.

    Where the reference raises csv.Error or UnicodeDecodeError, load_votes
    must raise a VoteDataError that names the file; every other verdict must
    be the same matrix or the same error text.
    """
    path.write_bytes(raw)
    expected = reference_parse(raw, str(path))
    with mock.patch.object(csv, "reader", wraps=csv.reader) as row_parser:
        try:
            got = load_votes(str(path))
        except VoteDataError as exc:
            got = exc
    if isinstance(expected, (csv.Error, UnicodeDecodeError)):
        assert isinstance(got, VoteDataError) and str(got).startswith(f"{path}: "), raw
    elif isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected), raw
    else:
        assert isinstance(got, VoteMatrix) and same_matrix(got, expected), raw
    return isinstance(got, VoteMatrix) and not row_parser.called


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "votes.csv"


class TestFastParser:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_row_parser(self, scratch_csv, data):
        raw = make_csv_bytes(lambda seq: data.draw(st.sampled_from(list(seq))))
        assert_load_agrees(raw, scratch_csv)

    def test_agrees_on_seeded_texts_and_takes_a_real_share(self, scratch_csv):
        rng = np.random.default_rng(11)
        pick = lambda seq: list(seq)[int(rng.integers(len(seq)))]
        accepted = [assert_load_agrees(make_csv_bytes(pick), scratch_csv) for _ in range(2000)]
        assert np.mean(accepted) > 0.25

    @pytest.mark.parametrize("text", [
        "item,j1,j2,label\na,1,0,1\n",
        "item,j1\n\n,1\n\n\n x ,0",
        "item,a,b\né,0,1\n日本,1,1\n",
        "item,j1\n\x0bv\x85\u2028,1\n",
        "item,j1\r\na,1\r\n",
    ], ids=["labelled", "blank-lines-empty-id-no-final-newline", "non-ascii-ids", "unicode-line-breaks-in-id",
            "crlf"])
    def test_takes_plain_files(self, text, scratch_csv):
        assert assert_load_agrees(text.encode("utf-8"), scratch_csv)

    @pytest.mark.parametrize("text", [
        'item,j1\n"a",1\n',
        "item,j1\na,b,1\n",
        "item,j1\na,2\n",
        "item,j1,j2\na,1,0\n0,1\n",
        "item,,,,,,,\n1\n",
        "item,j1\n",
        "",
    ], ids=["quoted", "comma-in-id", "bad-cell", "short-row", "short-row-under-long-header",
            "header-only", "empty"])
    def test_leaves_other_files_to_the_row_parser(self, text, scratch_csv):
        assert not assert_load_agrees(text.encode("utf-8"), scratch_csv)

    def test_line_at_the_csv_field_limit_goes_row_by_row(self, scratch_csv):
        item = "x" * csv.field_size_limit()
        assert not assert_load_agrees(f"item,j1\n{item},1\n".encode(), scratch_csv)

    @pytest.mark.parametrize("raw, message", [
        (b"item,j1\n" + b"x" * (csv.field_size_limit() + 1) + b",1\n", "field larger than field limit"),
        (b"item,j1\na,1\nb\xff,0\n", "'utf-8' codec can't decode byte 0xff"),
        (b"item,j\xc3\n", "'utf-8' codec can't decode byte 0xc3"),
        # Read by csv.reader from the quote on; the bad byte is past its first reads.
        (b'item,j1\n"a",1\n' + b"b,0\n" * 5000 + b"c\xff,1\n",
         "'utf-8' codec can't decode byte 0xff on line 5003, at file offset 20015: invalid start byte"),
        (b"item,j1\na,1\nb\xe2\x82,0\n", "'utf-8' codec can't decode bytes 0xe2 0x82 on line 3, at file offset 13"),
    ], ids=["id-over-the-csv-field-limit", "invalid-utf-8-in-an-id", "invalid-utf-8-in-the-header",
            "invalid-utf-8-on-a-late-line", "truncated-utf-8-sequence"])
    def test_unreadable_bytes_are_a_vote_data_error_naming_the_file(self, raw, message, scratch_csv):
        assert isinstance(reference_parse(raw, str(scratch_csv)), (csv.Error, UnicodeDecodeError))
        assert_load_agrees(raw, scratch_csv)
        with pytest.raises(VoteDataError, match=f"^{re.escape(str(scratch_csv))}: {re.escape(message)}"):
            load_votes(str(scratch_csv))


class TestFastParserInBlocks(TestFastParser):
    """Every TestFastParser case with blocks small enough to put lines on block boundaries.

    A block is ``_BLOCK_BYTES`` bytes read from the file and then the rest of
    the line they end in, so at 1 byte every line starts a block.
    """

    @pytest.fixture(scope="class", autouse=True, params=[1, 16, 4096])
    def block_bytes(self, request):
        # Three-row chunks put rows on the chunk boundaries of csv.reader's path too.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("judgeagg.data._BLOCK_BYTES", request.param)
            mp.setattr("judgeagg.data._CHUNK_ROWS", 3)
            yield request.param

    @pytest.mark.parametrize("raw, fast", [
        (b"item,j1,j2,j3\nabc,1,0,1\n1\n", False),
        (b"item,j1,j2,j3\n1\nabc,1,0,1\n", False),
        (b"item,j1\n\na,1\n\n\nbb,0\n\n", True),
        (b"item,j1\na,1\n\n\n\n", True),
        (b"item,j1,label\nabcdefghijkl,1,0\nb,0,1", True),
        (("item,j1\n" + "é,1\n日本,0\n" * 9 + "\U0001f600,1\n").encode("utf-8"), True),
        (b"item,j1\n" + "é,1\n".encode("utf-8") * 5 + b"\xc3,0\n", False),
        (b"item,j1,label\r\na,1,0\r\n\r\nbb,0,1\r\nccc,1,1\r\n", True),
        (b"item,j1\r\na,1\nb,0\r\n\n\r\ncc,1\ndd,0", True),
        (b"item,j1\na,1\rb,0\nc,1\n", False),
        (b'item,j1,label\na,1,0\nb,0,1\n"c",1,1\nd,0,0\ne,1,0\n', False),
        (b'item,j1\na,1\nb,0\n"x\ny",1\n"p\r\nq",0\n\nz,1\n', False),
        (b'item,j1\na,1\n\nb,0\n"c",1\n\n\nd,2\n', False),
        (b'"item",j1\na,1\nb,0\n', False),
    ], ids=["short-line-starts-a-block", "short-first-line", "blank-lines-at-boundaries", "blank-lines-end-the-file",
            "unterminated-last-line", "multi-byte-ids-after-boundaries", "invalid-utf-8-after-boundaries",
            "crlf", "mixed-line-ends", "lone-cr-mid-file", "quote-mid-file", "quoted-multi-line-ids",
            "row-numbers-after-a-quote", "quoted-header"])
    def test_block_boundaries(self, raw, fast, scratch_csv):
        assert assert_load_agrees(raw, scratch_csv) is fast


def csv_line_reference(row) -> str:
    # csv.writer quotes a lone CR only when CR is in its line terminator.
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(row)
    return buf.getvalue().removesuffix("\r\n") + "\n"


def dumps_votes_reference(v: VoteMatrix) -> str:
    lines = [csv_line_reference(["item", *v.judge_names] + (["label"] if v.gold_labels is not None else []))]
    for i in range(v.n):
        row = [v.item_ids[i], *(str(int(b)) for b in v.votes[i])]
        if v.gold_labels is not None:
            row.append(str(int(v.gold_labels[i])))
        lines.append(csv_line_reference(row))
    return "".join(lines)


def posteriors_reference(ids, gamma) -> str:
    lines = [csv_line_reference(["item", "gamma", "label"])]
    for item, g in zip(ids, gamma):
        lines.append(csv_line_reference([item, repr(float(g)), int(g >= 0.5)]))
    return "".join(lines)


JUDGE_NAMES = ["j1", "a,b", 'q"', "é", " s ", "x\ny", "c\rd"]


@st.composite
def vote_matrices(draw, ids=st.text()):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 4))
    votes = draw(st.lists(st.lists(st.sampled_from([0, 1]), min_size=k, max_size=k), min_size=n, max_size=n))
    gold = draw(st.none() | st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    return VoteMatrix(votes=votes, item_ids=tuple(draw(st.lists(ids, min_size=n, max_size=n))),
                      judge_names=tuple(draw(st.lists(st.sampled_from(JUDGE_NAMES), min_size=k, max_size=k))),
                      gold_labels=gold)


class TestWriters:
    @settings(max_examples=200, deadline=None)
    @given(vote_matrices())
    def test_votes_match_csv_writer(self, scratch_csv, v):
        save_votes(v, str(scratch_csv))
        assert scratch_csv.read_bytes() == dumps_votes_reference(v).encode("utf-8")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.text(st.characters(codec="utf-8")),
                              st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.5, 5e-324, 1.0 - 2 ** -53])),
                    min_size=1, max_size=20))
    def test_posteriors_match_csv_writer(self, scratch_csv, rows):
        ids, gamma = tuple(r[0] for r in rows), np.array([r[1] for r in rows])
        v = VoteMatrix(votes=np.zeros((len(ids), 1)), item_ids=ids, judge_names=("j",))
        _write_posteriors(scratch_csv, v, gamma)
        assert scratch_csv.read_bytes() == posteriors_reference(ids, gamma).encode("utf-8")

    def test_writes_more_rows_than_one_chunk(self, scratch_csv):
        n = 70_000
        votes = (np.arange(n * 3).reshape(n, 3) % 7 < 3).astype(np.int8)
        ids = tuple(f"i{i}" if i != 65_600 else "a,b" for i in range(n))
        v = VoteMatrix(votes=votes, item_ids=ids, judge_names=("a", "b", "c"), gold_labels=votes[:, 0])
        save_votes(v, str(scratch_csv))
        assert scratch_csv.read_bytes() == dumps_votes_reference(v).encode("utf-8")

    def test_posteriors_over_more_rows_than_one_chunk(self, scratch_csv):
        # Each chunk of rows keys its own distinct values: 0.7 first appears
        # in the second chunk, and -0.0 must not be written as 0.0.
        n = 70_000
        gamma = np.resize([0.0, -0.0, 0.25, 0.5, 1.0, 5e-324], n)
        gamma[65_600] = gamma[69_999] = 0.7
        ids = tuple(f"i{i}" if i != 65_601 else "a,b" for i in range(n))
        v = VoteMatrix(votes=np.zeros((n, 1), dtype=np.int8), item_ids=ids, judge_names=("j",))
        _write_posteriors(scratch_csv, v, gamma)
        assert scratch_csv.read_bytes() == posteriors_reference(ids, gamma).encode("utf-8")

    def test_lone_cr_in_id_and_judge_name_is_quoted(self, scratch_csv):
        v = VoteMatrix(votes=[[0, 1]], item_ids=("a\rb",), judge_names=("j\r1", "j2"))
        save_votes(v, str(scratch_csv))
        assert scratch_csv.read_bytes() == b'item,"j\r1",j2\n"a\rb",0,1\n'
        assert same_matrix(load_votes(str(scratch_csv)), v)

    @settings(max_examples=200, deadline=None)
    @given(vote_matrices(ids=st.text(st.characters(codec="utf-8"))))
    def test_round_trip_is_the_identity(self, scratch_csv, v):
        save_votes(v, str(scratch_csv))
        assert same_matrix(load_votes(str(scratch_csv)), v)
