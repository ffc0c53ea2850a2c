"""Text formats: 12-significant-digit floats and tab-separated input files.

Distribution files are UTF-8, one ``label<TAB>probability`` per line; blank
lines and lines starting with ``#`` are ignored.  Codeword-length files use
the same layout with a positive integer in the second column.  The
distribution readers hand their ``normalization`` keyword to
:func:`~divbound.dist.make_dist`, which rescales the masses.

A file in the canonical layout (see :func:`_columns`) is split in one pass
over the whole text and its value column converted in bulk; any other file,
and any file whose values do not convert, goes through the line loop
:func:`_rows`, which names the offending line.  Both read the same labels
and values: the bulk conversion applies the same ``float()`` or ``int()``
to the same strings.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .dist import NORMALIZATION_TOL, FiniteDist, make_dist
from .errors import DistFileError

__all__ = ["fmt_g12", "parse_dist_text", "read_dist_file", "parse_lengths_text", "read_lengths_file"]

# ASCII from the space up, as a deletion table: what it leaves of an ASCII
# text are its control characters below the space
_PRINTABLE = bytes(range(0x20, 0x80))


def fmt_g12(v: float) -> str:
    """Render a float at 12 significant digits; infinities as 'inf'/'-inf'."""
    v = float(v)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.12g}"


def _columns(text: str, convert):
    """(labels, convert(values)) of a canonical text, or None.

    Canonical means: ASCII without '#'; tab and newline are its only
    control characters; every line holds exactly one tab and ends in '\\n'
    (the last line may omit it); and every label starts with a printable,
    non-space character.  Then the line loop would strip nothing that
    changes a label, skip no line, and split each line as the whole text is
    split here; whitespace left at the end of a value is whitespace that
    ``float()`` and ``int()`` ignore.  Returns None for any other text and
    when convert raises ValueError, so the caller can run the line loop.
    """
    if not text.isascii() or "#" in text:
        return None
    body = text[:-1] if text.endswith("\n") else text
    separators = body.encode("ascii").translate(None, _PRINTABLE)
    if separators != b"\t\n" * (len(separators) // 2) + b"\t":
        return None
    fields = body.replace("\n", "\t").split("\t")
    labels = fields[0::2]
    if min(labels) < "!":  # an empty label, or one the line loop would strip
        return None
    try:
        return labels, convert(fields[1::2])
    except ValueError:
        return None


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


def parse_dist_text(text: str, normalization: float = NORMALIZATION_TOL) -> FiniteDist:
    columns = _columns(text, _floats)
    if columns is not None:
        return make_dist(*columns, normalization=normalization)
    labels, mass = [], []
    for lineno, label, value in _rows(text):
        try:
            mass.append(float(value))
        except ValueError:
            raise DistFileError(f"bad probability {value!r}", line=lineno) from None
        labels.append(label)
    if not labels:
        raise DistFileError("no distribution entries found", line=1)
    return make_dist(labels, mass, normalization=normalization)


def read_dist_file(
    path: str | os.PathLike, normalization: float = NORMALIZATION_TOL
) -> FiniteDist:
    with open(path, encoding="utf-8") as fh:
        return parse_dist_text(fh.read(), normalization=normalization)


def _ints(values: list[str]) -> list[int]:
    return list(map(int, values))


def parse_lengths_text(text: str) -> dict[str, int]:
    columns = _columns(text, _ints)
    if columns is not None:
        labels, lengths = columns
        table = dict(zip(labels, lengths))
        if len(table) == len(labels) and min(lengths) >= 1:
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
