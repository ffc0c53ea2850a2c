"""Input files: the chunked reader against the line loop and against itself at other chunk sizes,
and a pair read against two file reads."""

import math
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divbound.textio as textio
from divbound.dist import FiniteDist
from divbound.errors import DistFileError, DistributionError
from divbound.textio import parse_dist_text, parse_lengths_text, read_dist_file, read_dist_pair


def _outcome(parse, text):
    """What a parse gives: its result, or its exception's class, message and line."""
    try:
        with np.errstate(invalid="ignore", divide="ignore"):  # masses summing to 0
            return parse(text)
    except DistributionError as exc:  # DistFileError too
        return type(exc), str(exc), getattr(exc, "line", None)


def _no_columns(*args):
    return None


# chunk sizes that cut the small texts here into many chunks: one line each,
# a few lines each, and several lines each
_CHUNK_SIZES = [1, 7, 64]


def _each_reading(read, *args):
    """read(*args) at each small chunk size, at the module's own (one chunk
    for a text below 64 KiB), then by the line loop."""
    outcomes = []
    for size in _CHUNK_SIZES:
        with mock.patch.object(textio, "_CHUNK", size):
            outcomes.append(read(*args))
    outcomes.append(read(*args))
    # a plain function, not a MagicMock: building one costs more than the parse
    with mock.patch.object(textio, "_columns", _no_columns):
        outcomes.append(read(*args))
    return outcomes


def _both(parse, text):
    """(one-chunk outcome, line-loop outcome) of parse on text, once the
    outcome at each small chunk size is checked to be the one-chunk one."""
    *chunked, slow = _each_reading(_outcome, parse, text)
    for got in chunked:
        _same_dist(got, chunked[-1])
    return chunked[-1], slow


def _same_dist(fast, slow):
    """The same labels and mass bytes, or else equal outcomes."""
    if isinstance(slow, FiniteDist):
        assert fast.labels == slow.labels
        assert fast.mass.tobytes() == slow.mass.tobytes()
    else:
        assert fast == slow


def _parse_dist(text):
    # any positive sum is accepted, so that most texts parse and their masses
    # can be compared bit for bit; the sum check itself is make_dist's
    return parse_dist_text(text, normalization=math.inf)


def _parse_lengths(text):
    return list(parse_lengths_text(text).items())


_LABEL_CHARS = "ab_z09.-"
# values as written in files: canonical reprs, and every spelling on which
# float() or int() and a stricter reader might part ways
_ODD_VALUES = [
    "1_0", "1e-400", "1e999", "nan", "-nan", "inf", "-inf", "Infinity", "-0.0", "0x1p-3",
    " 0.5", "0.5 ", "", " ", "abc", "3", "0", "-1", "3.0", "+2", "\u0663", "1\x1f",
]
_LABELS = st.text(_LABEL_CHARS, min_size=1, max_size=4)
_FLOAT_VALUES = st.floats(min_value=0.0, max_value=1.0).map(repr)
_INT_VALUES = st.integers(1, 60).map(str)


def _canonical(values):
    """Canonical texts: one label<TAB>value per line, newline-terminated or not."""
    lines = st.lists(st.tuples(_LABELS, values), min_size=1, max_size=12, unique_by=lambda t: t[0])
    return st.tuples(lines, st.booleans()).map(
        lambda lt: "\n".join(f"{a}\t{v}" for a, v in lt[0]) + ("\n" if lt[1] else "")
    )


# pieces that take a text off the canonical layout, one or several per text
_ODD_LABELS = ["", " a", "a ", "\ta", "#a", "\u00e9", "a\x85b", "a\u2028", "\x0bz", "a#b"]
# a line with two tabs and one with none: as many tabs as lines between them
_ODD_LINES = ["", "# a comment", "   ", "\t", "a\tb\tc", "a\t1\t1", "1", "just-a-label", "a\t1\t"]
_ODD_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ", "\n\n"]
_EDGES = ["", " ", "\t", "  \t", "\x1f"]


def _any_text(values):
    """Canonical lines with odd pieces mixed in: labels, values, lines, breaks, ends."""
    label = st.one_of(_LABELS, st.sampled_from(_ODD_LABELS))
    value = st.one_of(values, st.sampled_from(_ODD_VALUES))
    line = st.one_of(
        st.tuples(st.sampled_from(_EDGES), label, value, st.sampled_from(_EDGES)).map(
            lambda t: f"{t[0]}{t[1]}\t{t[2]}{t[3]}"
        ),
        st.sampled_from(_ODD_LINES),
    )
    brk = st.one_of(st.just("\n"), st.sampled_from(_ODD_BREAKS))
    return st.lists(st.tuples(line, brk), min_size=1, max_size=10).map(
        lambda lines: "".join(a + b for a, b in lines)
    )


class TestOnePassMatchesLineLoop:
    @settings(max_examples=150, deadline=None)
    @given(_canonical(_FLOAT_VALUES))
    def test_canonical_dist_text(self, text):
        assert textio._columns(text, textio._floats) is not None
        _same_dist(*_both(_parse_dist, text))

    @settings(max_examples=150, deadline=None)
    @given(_canonical(_INT_VALUES))
    def test_canonical_lengths_text(self, text):
        assert textio._columns(text, textio._ints) is not None
        fast, slow = _both(_parse_lengths, text)
        assert fast == slow

    @settings(max_examples=300, deadline=None)
    @given(_any_text(_FLOAT_VALUES))
    def test_any_dist_text(self, text):
        _same_dist(*_both(_parse_dist, text))

    @settings(max_examples=300, deadline=None)
    @given(_any_text(_INT_VALUES))
    def test_any_lengths_text(self, text):
        fast, slow = _both(_parse_lengths, text)
        assert fast == slow

    @pytest.mark.parametrize(
        "text",
        [
            "a\t0.5\nb\t0.5\r\n",
            "a\t0.5\n\nb\t0.5\n",
            "# c\na\t0.5\nb\t0.5\n",
            " a\t0.5\nb\t0.5\n",
            "a\t0.5\nb\t0.5 \n",
            "a\t0.5\nb\t0.5\t\n",
            "a\t0.5 b\t0.5\n",
            "a\t0.5\x85b\t0.5\n",
            "a\t0.5\u2028b\t0.5\n",
            "a\t0.5\x0bb\t0.5\n",
            "\u00e9\t0.5\nb\t0.5\n",
            "\t0.5\nb\t0.5\n",
            "a\t\nb\t0.5\n",
            "a\t1_0\nb\t1e-400\n",
            "a\tnan\nb\tinf\n",
            "a\t0.5\na\t0.5\n",
            "a\t0.5\t1\nb\t0.5\n",
            "a\t0.5\t0.5\n0.5\n",
            "a\t0.5\nb0.5\n",
            "",
        ],
    )
    def test_named_cases(self, text):
        _same_dist(*_both(_parse_dist, text))
        _same_dist(*_both(parse_dist_text, text))
        fast, slow = _both(_parse_lengths, text.replace("0.5", "1"))
        assert fast == slow

    def test_errors_name_the_line(self):
        with pytest.raises(DistFileError, match="line 3: bad probability"):
            parse_dist_text("a\t0.5\nb\t0.25\nc\tx\n")
        with pytest.raises(DistFileError, match="line 2: duplicate label 'a'"):
            parse_lengths_text("a\t1\na\t2\n")
        with pytest.raises(DistFileError, match="line 2: length must be >= 1, got 0"):
            parse_lengths_text("a\t1\nb\t0\n")
        with pytest.raises(DistFileError, match="line 1: expected"):
            parse_lengths_text("a\t1\t2\nb\t1\n")


def _canonical_file(n: int, value) -> str:
    return "".join(f"w{j:05d}\t{value(j)}\n" for j in range(n))


def _no_line_loop(text):
    raise AssertionError("the line loop ran on a canonical file")


def test_canonical_files_never_reach_the_line_loop(monkeypatch):
    # a slip back to the per-line loop fails here, not only in the benchmark
    monkeypatch.setattr(textio, "_rows", _no_line_loop)
    n = 10**4
    p = parse_dist_text(_canonical_file(n, lambda j: repr(1.0 / n)))
    assert len(p) == n and p.labels[-1] == "w09999"
    lengths = parse_lengths_text(_canonical_file(n, lambda j: str(1 + j % 20)))
    assert len(lengths) == n and lengths["w00019"] == 20
    # a duplicate label is caught without the loop, by make_dist's own error
    with pytest.raises(DistributionError, match="^labels must be unique$"):
        parse_dist_text(_canonical_file(3, lambda j: "0.25") + "w00001\t0.25\n")
    # a file off the layout still takes the loop
    with pytest.raises(AssertionError, match="line loop"):
        parse_dist_text("# header\n" + _canonical_file(3, lambda j: "0.25"))


def test_crlf_files_are_read_in_one_pass(tmp_path, monkeypatch):
    # text mode turns \r\n and \r into \n before the reader sees the text
    text = _canonical_file(100, lambda j: repr(j / 4950))
    paths = []
    for name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        paths.append(tmp_path / f"{name}.tsv")
        paths[-1].write_bytes(text.replace("\n", end).encode("ascii"))
    lf = read_dist_file(paths[0])
    monkeypatch.setattr(textio, "_rows", _no_line_loop)
    for path in paths[1:]:
        _same_dist(read_dist_file(path), lf)


def _read_both(p_path, q_path, read):
    """read(p_path, q_path) as (p, q), or the first error's class, message and line."""
    try:
        with np.errstate(invalid="ignore", divide="ignore"):
            return read(p_path, q_path)
    except DistributionError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _two_files(p_path, q_path):
    return read_dist_file(p_path, math.inf), read_dist_file(q_path, math.inf)


def _pair(p_path, q_path):
    return read_dist_pair(p_path, q_path, math.inf)


@st.composite
def _pair_texts(draw):
    """A p text, and a q text that is any text or one written on p's labels."""
    p_text = draw(st.one_of(_canonical(_FLOAT_VALUES), _any_text(_FLOAT_VALUES)))
    p = _outcome(_parse_dist, p_text)
    labels = ["a", "b"] if isinstance(p, tuple) else list(p.labels)
    kind = draw(st.sampled_from(["canonical", "any", "same", "permuted", "duplicate"]))
    if kind == "canonical":
        return p_text, draw(_canonical(_FLOAT_VALUES))
    if kind == "any":
        return p_text, draw(_any_text(_FLOAT_VALUES))
    if kind == "permuted":
        labels = draw(st.permutations(labels))
    elif kind == "duplicate":
        i = draw(st.integers(0, len(labels) - 1))
        labels.insert(draw(st.integers(0, len(labels))), labels[i])
    values = draw(st.lists(_FLOAT_VALUES, min_size=len(labels), max_size=len(labels)))
    end = draw(st.sampled_from(["", "\n"]))
    return p_text, "\n".join(f"{a}\t{v}" for a, v in zip(labels, values)) + end


def _check_pairs(pairs, two):
    """Each pair outcome is two's, and its q shares p's checked tuple exactly
    when q's label column is p's."""
    for pair in pairs:
        if isinstance(two[0], type):  # an error
            assert pair == two
            continue
        for got, want in zip(pair, two):
            _same_dist(got, want)
        p, q = pair
        assert (q.labels is p.labels) == (q.labels == p.labels)


@settings(max_examples=300, deadline=None)
@given(_pair_texts())
def test_pair_reads_as_two_files(texts):
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, name) for name in ("p.tsv", "q.tsv")]
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        pairs = _each_reading(_read_both, *paths, _pair)
        two = _read_both(*paths, _two_files)
    _check_pairs(pairs, two)


def test_bulk_floats_are_python_floats():
    values = ["0.1", "1e-400", "1_0", "nan", "-inf", "2.5e-308", "0.30000000000000004"]
    got = textio._floats(values)
    assert got.tobytes() == np.array([float(v) for v in values]).tobytes()


def test_bulk_lengths_are_python_ints():
    values = ["1", "07", "1_0", " 3", "+2", "\u0663", "123456789012345678901234567890"]
    got = textio._ints(values)
    assert got == [int(v) for v in values]
    assert all(type(n) is int for n in got)
    table = parse_lengths_text(_canonical_file(100, lambda j: str(1 + j % 20)))
    assert all(type(n) is int for n in table.values())


def _lines(n: int = 20) -> list[str]:
    return [f"w{j:05d}\t0.05\n" for j in range(n)]


def _edited(lines: list[str], at: int, line: str) -> str:
    return "".join(lines[:at] + [line] + lines[at + 1 :])


_P_TEXT = "".join(_lines())
# a text of 6 lines with no final newline, whose last line holds character 64:
# at chunk size 64, the search for the first chunk's end runs off the text
_STRADDLE = "".join(_lines(6))[:-1]
assert _STRADDLE.rfind("\n") < 63 < len(_STRADDLE)


@pytest.mark.parametrize(
    "p_text, q_text",
    [
        (_P_TEXT, _P_TEXT),
        (_P_TEXT, _edited(_lines(), 19, "x00019\t0.05\n")),  # q differs in its last chunk only
        (_P_TEXT, _P_TEXT + "w00020\t0.05\n"),  # one line more
        (_P_TEXT, "".join(_lines(19))),  # one line less
        (_P_TEXT, _edited(_lines(), 17, "\t0.05\n")),  # an empty label, late
        (_P_TEXT, _edited(_lines(), 17, "w00017\tx\n")),  # a bad value, late
        (_P_TEXT, _edited(_lines(), 17, "w00002\t0.05\n")),  # a duplicate label, late
        (_P_TEXT, _edited(_lines(), 17, "w00017\t0\n")),  # a zero: a length below 1
        (_P_TEXT, _P_TEXT[:-1]),  # no final newline
        (_STRADDLE, _STRADDLE),
        (_STRADDLE[:-5] + "x\t0.05", _STRADDLE),
    ],
)
def test_named_chunk_boundaries(tmp_path, p_text, q_text):
    paths = [tmp_path / "p.tsv", tmp_path / "q.tsv"]
    for path, text in zip(paths, (p_text, q_text)):
        path.write_bytes(text.encode("ascii"))
    _check_pairs(_each_reading(_read_both, *paths, _pair), _read_both(*paths, _two_files))
    _same_dist(*_both(_parse_dist, q_text))
    _same_dist(*_both(_parse_lengths, q_text.replace("0.05", "1")))


def test_memory_of_a_same_order_pair_read(tmp_path):
    # 1e5 labels in the same order in both files, written as the benchmark
    # writes them.  q's read keeps none of its labels, each read holds one
    # chunk's field strings at a time, and p's read frees the chunks' arrays
    # and its label list before its label set: the traced peak, at that set,
    # is 5.3x q's file size; 5.9x with those two kept, and 9.0x with each
    # text split whole
    n = 10**5
    rng = np.random.default_rng(0)
    paths = [tmp_path / "p.tsv", tmp_path / "q.tsv"]
    for path in paths:
        m = rng.exponential(size=n)
        path.write_text("".join(f"w{j:07d}\t{v!r}\n" for j, v in enumerate((m / m.sum()).tolist())))
    tracemalloc.start()
    try:
        p, q = read_dist_pair(*paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.labels is p.labels
    size = os.path.getsize(paths[1])
    assert peak < 5.6 * size, f"traced peak {peak / size:.2f}x q's file size"
