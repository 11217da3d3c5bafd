import csv
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judgeagg import (
    SplitSpec,
    VoteDataError,
    VoteMatrix,
    accuracy,
    load_votes,
    save_votes,
    split,
)
from judgeagg.cli import _write_posteriors
from judgeagg.data import _parse_votes, _parse_votes_fast, dumps_votes


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
            # byte-identity modulo line endings
            assert dumps_votes(v).replace("\r\n", "\n") == dumps_votes(w).replace("\r\n", "\n")


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
    """csv.reader's verdict on ``raw``: a VoteMatrix or the exception it raises."""
    try:
        return _parse_votes(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""), name)
    except (VoteDataError, UnicodeDecodeError, csv.Error) as exc:
        return exc


def same_matrix(v: VoteMatrix, w: VoteMatrix) -> bool:
    return (v.votes.dtype == w.votes.dtype and np.array_equal(v.votes, w.votes)
            and v.item_ids == w.item_ids and v.judge_names == w.judge_names
            and (v.gold_labels is None) == (w.gold_labels is None)
            and (v.gold_labels is None or (v.gold_labels.dtype == w.gold_labels.dtype
                                           and np.array_equal(v.gold_labels, w.gold_labels))))


def assert_load_agrees(raw: bytes, path: Path) -> bool:
    """load_votes equals the row-wise parser on ``raw``; returns whether the fast path took it."""
    path.write_bytes(raw)
    expected = reference_parse(raw, str(path))
    fast = _parse_votes_fast(raw)
    try:
        got = load_votes(str(path))
    except (VoteDataError, UnicodeDecodeError, csv.Error) as exc:
        got = exc
    if isinstance(expected, Exception):
        assert fast is None, raw
        assert type(got) is type(expected) and str(got) == str(expected), raw
    else:
        assert isinstance(got, VoteMatrix) and same_matrix(got, expected), raw
        assert fast is None or same_matrix(fast, expected), raw
    return fast is not None


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
    ], ids=["labelled", "blank-lines-empty-id-no-final-newline", "non-ascii-ids", "unicode-line-breaks-in-id"])
    def test_takes_plain_files(self, text, scratch_csv):
        assert assert_load_agrees(text.encode("utf-8"), scratch_csv)

    @pytest.mark.parametrize("text", [
        'item,j1\n"a",1\n',
        "item,j1\r\na,1\r\n",
        "item,j1\na,b,1\n",
        "item,j1\na,2\n",
        "item,j1,j2\na,1,0\n0,1\n",
        "item,,,,,,,\n1\n",
        "item,j1\n",
        "",
    ], ids=["quoted", "crlf", "comma-in-id", "bad-cell", "short-row", "short-row-under-long-header",
            "header-only", "empty"])
    def test_leaves_other_files_to_the_row_parser(self, text, scratch_csv):
        assert not assert_load_agrees(text.encode("utf-8"), scratch_csv)

    def test_line_at_the_csv_field_limit_goes_row_by_row(self, scratch_csv):
        item = "x" * csv.field_size_limit()
        assert not assert_load_agrees(f"item,j1\n{item},1\n".encode(), scratch_csv)


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
    def test_votes_match_csv_writer(self, v):
        assert dumps_votes(v) == dumps_votes_reference(v)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.text(st.characters(codec="utf-8")),
                              st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.5, 5e-324, 1.0 - 2 ** -53])),
                    min_size=1, max_size=20))
    def test_posteriors_match_csv_writer(self, scratch_csv, rows):
        ids, gamma = tuple(r[0] for r in rows), np.array([r[1] for r in rows])
        v = VoteMatrix(votes=np.zeros((len(ids), 1)), item_ids=ids, judge_names=("j",))
        _write_posteriors(scratch_csv, v, gamma)
        assert scratch_csv.read_bytes() == posteriors_reference(ids, gamma).encode("utf-8")

    def test_writes_more_rows_than_one_chunk(self):
        n = 70_000
        votes = (np.arange(n * 3).reshape(n, 3) % 7 < 3).astype(np.int8)
        ids = tuple(f"i{i}" if i != 65_600 else "a,b" for i in range(n))
        v = VoteMatrix(votes=votes, item_ids=ids, judge_names=("a", "b", "c"), gold_labels=votes[:, 0])
        assert dumps_votes(v) == dumps_votes_reference(v)

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
