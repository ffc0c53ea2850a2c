"""Input files: the one-pass columnar reader against the line loop."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divbound.textio as textio
from divbound.errors import DistFileError, DistributionError
from divbound.textio import parse_dist_text, parse_lengths_text



def _outcome(parse, text):
    """What a parse gives: its result, or its exception's class, message and line."""
    try:
        with np.errstate(invalid="ignore", divide="ignore"):  # masses summing to 0
            return parse(text)
    except DistributionError as exc:  # DistFileError too
        return type(exc), str(exc), getattr(exc, "line", None)


def _both(parse, text):
    """(one-pass outcome, line-loop outcome) of parse on text."""
    fast = _outcome(parse, text)
    with mock.patch.object(textio, "_columns", return_value=None):
        slow = _outcome(parse, text)
    return fast, slow


def _same_dist(fast, slow):
    if isinstance(slow, tuple):
        assert fast == slow
    else:
        assert fast.labels == slow.labels
        assert fast.mass.tobytes() == slow.mass.tobytes()


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


def test_canonical_files_never_reach_the_line_loop(monkeypatch):
    # a slip back to the per-line loop fails here, not only in the benchmark
    def no_line_loop(text):
        raise AssertionError("the line loop ran on a canonical file")

    monkeypatch.setattr(textio, "_rows", no_line_loop)
    n = 10**4
    p = parse_dist_text(_canonical_file(n, lambda j: repr(1.0 / n)))
    assert len(p) == n and p.labels[-1] == "w09999"
    lengths = parse_lengths_text(_canonical_file(n, lambda j: str(1 + j % 20)))
    assert len(lengths) == n and lengths["w00019"] == 20
    # a file off the layout still takes the loop
    with pytest.raises(AssertionError, match="line loop"):
        parse_dist_text("# header\n" + _canonical_file(3, lambda j: "0.25"))


def test_bulk_floats_are_python_floats():
    values = ["0.1", "1e-400", "1_0", "nan", "-inf", "2.5e-308", "0.30000000000000004"]
    got = textio._floats(values)
    assert got.tobytes() == np.array([float(v) for v in values]).tobytes()
