"""Text formats: 12-significant-digit floats and tab-separated input files.

Distribution files are UTF-8, one ``label<TAB>probability`` per line; blank
lines and lines starting with ``#`` are ignored.  Codeword-length files use
the same layout with a positive integer in the second column.  The
distribution readers hand their ``normalization`` keyword to
:func:`~divbound.dist.make_dist`, which rescales the masses.

The distribution readers check the labels of each file once, themselves:
they are strs by construction, so one ``set`` pass proves them distinct,
and :class:`~divbound.dist.FiniteDist` takes the checked tuple as it is.
:func:`read_dist_pair` checks the second file of a pair by comparison
with the first: a label column equal to p's, line for line, takes p's
tuple, and no set is built.  Labels with a duplicate go to ``make_dist``
as a plain list, so its error, after its checks of the masses, is the one
raised.

A file in the canonical layout (see :func:`_columns`) is checked, split
and converted one chunk of whole lines, about 64 KiB of text, at a time;
any other file, and any file whose values do not convert, goes through the
line loop :func:`_rows`, which names the offending line.  Both read the
same labels and values: the chunked conversion applies the same ``float()``
or ``int()`` to the same strings.  The file readers open files in text
mode, so ``\\r\\n`` and ``\\r`` line ends reach :func:`_columns` as ``\\n``.

A canonical distribution read holds, at most, the whole text, its labels
and masses, and either one chunk's field strings or, after the last chunk,
the set that proves the labels distinct.  The second file of a pair whose
labels are p's, line for line, holds none of its own labels: each chunk's
labels are compared with their slice of p's and dropped.
"""

from __future__ import annotations

import math
import os
from itertools import chain

import numpy as np

from .dist import NORMALIZATION_TOL, FiniteDist, _Labels, make_dist
from .errors import DistFileError

__all__ = [
    "fmt_g12", "parse_dist_text", "read_dist_file", "read_dist_pair", "parse_lengths_text",
    "read_lengths_file",
]

# ASCII from the space up, as a deletion table: what it leaves of an ASCII
# text are its control characters below the space
_PRINTABLE = bytes(range(0x20, 0x80))
# characters per chunk of a canonical text, cut at the next line end.  On
# a 1e5-label pair, 16 KiB to 256 KiB read equally fast; 4 KiB, 1 MiB and
# the whole text in one chunk read slower, the last two with a higher peak
_CHUNK = 1 << 16


def fmt_g12(v: float) -> str:
    """Render a float at 12 significant digits; infinities as 'inf'/'-inf'."""
    v = float(v)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.12g}"


def _chunks(text: str):
    """text in pieces of whole lines: a piece ends at the first line end at
    or after its _CHUNK-th character, or at the end of the text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _columns(text: str, convert, known: tuple = ()):
    """(labels, [convert(values) of each chunk]) of a canonical text, or None.

    Canonical means: ASCII without '#'; tab and newline are its only
    control characters; every line holds exactly one tab and ends in '\\n'
    (the last line may omit it); and every label starts with a printable,
    non-space character.  Then the line loop would strip nothing that
    changes a label, skip no line, and split each line as each chunk is
    split here; whitespace left at the end of a value is whitespace that
    ``float()`` and ``int()`` ignore.  Returns None for any other text and
    when convert raises ValueError, so the caller can run the line loop.

    The text is checked, split and converted one chunk of whole lines at a
    time, so only one chunk's field strings are alive at once.  Labels equal
    to known, a tuple, line for line, come back as known itself; each chunk
    is compared with its slice of known and dropped while they agree.
    """
    if not text or not text.isascii() or "#" in text:
        return None
    labels, parts, i = None, [], 0  # labels stays None while known matches
    for chunk in _chunks(text):
        end = chunk.endswith("\n")
        separators = chunk.encode("ascii").translate(None, _PRINTABLE)
        if separators != b"\t\n" * (len(separators) // 2) + (b"" if end else b"\t"):
            return None
        fields = chunk.replace("\n", "\t").split("\t")
        if end:
            fields.pop()  # the empty field after the final newline
        chunk_labels = fields[0::2]
        if min(chunk_labels) < "!":  # an empty label, or one the line loop would strip
            return None
        try:
            parts.append(convert(fields[1::2]))
        except ValueError:
            return None
        if labels is None:
            if known[i : i + len(chunk_labels)] == tuple(chunk_labels):
                i += len(chunk_labels)
                continue
            labels = list(known[:i])
        labels.extend(chunk_labels)
    if labels is None:
        labels = known if i == len(known) else list(known[:i])
    return labels, parts


def _rows(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DistFileError(
                f"expected 'label<TAB>value', got {raw!r}", line=lineno
            )
        yield lineno, parts[0], parts[1]


def _floats(values: list[str]) -> np.ndarray:
    return np.fromiter(map(float, values), dtype=float, count=len(values))


def _parse_dist(text: str, normalization: float, known: tuple = ()) -> FiniteDist:
    """parse_dist_text, with the labels checked here, once.

    Labels equal to known, a checked tuple, become known itself.
    """
    columns = _columns(text, _floats, known)
    if columns is not None:
        labels, parts = columns
        mass = np.concatenate(parts)
        del columns, parts  # the chunks' arrays, and the label list once copied below
    else:
        labels, mass = [], []
        for lineno, label, value in _rows(text):
            try:
                mass.append(float(value))
            except ValueError:
                raise DistFileError(f"bad probability {value!r}", line=lineno) from None
            labels.append(label)
        if not labels:
            raise DistFileError("no distribution entries found", line=1)
        if tuple(labels) == known:
            labels = known
    if labels is not known:
        labels = _Labels(labels)
        if len(set(labels)) != len(labels):
            labels = list(labels)  # make_dist raises, after its checks of the masses
    return make_dist(labels, mass, normalization=normalization)


def parse_dist_text(text: str, normalization: float = NORMALIZATION_TOL) -> FiniteDist:
    return _parse_dist(text, normalization)


def read_dist_file(
    path: str | os.PathLike, normalization: float = NORMALIZATION_TOL
) -> FiniteDist:
    with open(path, encoding="utf-8") as fh:
        return _parse_dist(fh.read(), normalization)


def read_dist_pair(
    p_path: str | os.PathLike,
    q_path: str | os.PathLike,
    normalization: float = NORMALIZATION_TOL,
) -> tuple[FiniteDist, FiniteDist]:
    """(p, q) as two read_dist_file calls give them, errors included.

    If q's label column is p's, line for line, q.labels is p.labels.
    """
    p = read_dist_file(p_path, normalization=normalization)
    with open(q_path, encoding="utf-8") as fh:
        return p, _parse_dist(fh.read(), normalization, p.labels)


def _ints(values: list[str]) -> list[int]:
    return list(map(int, values))


def parse_lengths_text(text: str) -> dict[str, int]:
    columns = _columns(text, _ints)
    if columns is not None:
        labels, parts = columns
        table = dict(zip(labels, chain.from_iterable(parts)))
        if len(table) == len(labels) and min(map(min, parts)) >= 1:
            return table
    # the line loop, also for canonical text with a duplicate or a length < 1,
    # so that the error names the first offending line
    lengths: dict[str, int] = {}
    for lineno, label, value in _rows(text):
        try:
            n = int(value)
        except ValueError:
            raise DistFileError(f"bad length {value!r}", line=lineno) from None
        if n < 1:
            raise DistFileError(f"length must be >= 1, got {n}", line=lineno)
        if label in lengths:
            raise DistFileError(f"duplicate label {label!r}", line=lineno)
        lengths[label] = n
    if not lengths:
        raise DistFileError("no length entries found", line=1)
    return lengths


def read_lengths_file(path: str | os.PathLike) -> dict[str, int]:
    with open(path, encoding="utf-8") as fh:
        return parse_lengths_text(fh.read())
