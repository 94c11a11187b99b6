"""The plain-text conventions every ibquant file shares, and the one reader of them.

A file is LF-terminated lines: an optional ``# comment`` header, then data.
Floats are written with 17 significant digits, so they read back exactly.
Loaders read through a ``Reading``: a cursor over the data lines (blank and
``#`` lines skipped) that checks each line's tag and count of values, that
integers fit in int64, and that no line is left when the loader returns.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from numbers import Integral

import numpy as np

from .info import NORM_SKIP


def row(values, sep: str = " ") -> str:
    """One data line: words and integers (numpy's too) as they are, other numbers as .17g."""
    return sep.join(str(v) if isinstance(v, (str, Integral)) else f"{v:.17g}" for v in values)


def write_lines(path, lines, comment: str | None = None) -> None:
    head = [f"# {comment}"] if comment else []
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(head + list(lines)) + "\n")


def int64(token: str) -> int:
    """An integer that numpy holds as int64: every integer field and CLI flag."""
    if not -2**63 <= (value := int(token)) < 2**63:
        raise ValueError(f"{token} is outside int64")
    return value


class Reading(AbstractContextManager):
    """A loader's cursor over the data lines of ``path`` and its context: a ValueError,
    an IndexError for a line the file lacks, or a line left unread names the file."""

    def __init__(self, kind: str, path, section: str):
        self.kind, self.path, self.section, self.pos = kind, path, section, 0
        with open(path) as fh:
            lines = [line for line in map(str.strip, fh) if line]
        self.comments = [line for line in lines if line.startswith("#")]
        self.lines = [line for line in lines if not line.startswith("#")]

    def fields(self, tag: str | None = None, count: int | None = None) -> list[str]:
        """The next line's fields after ``tag`` (if given), ``count`` of them (if given)."""
        line, self.pos = self.lines[self.pos], self.pos + 1
        tokens = line.split()
        if tag is not None and tokens.pop(0) != tag:
            raise ValueError(f"expected a {tag} line, got {line!r}")
        if count is not None and len(tokens) != count:
            raise ValueError(f"expected {count} values, got {len(tokens)}")
        return tokens

    def ints(self, tag: str, count: int) -> list[int]:
        """A header line's ``count`` counts after ``tag``, each at least 1."""
        values = self.numbers((int64,) * count, tag)
        if min(values) < 1:
            raise ValueError(f"header '{row([tag, *values])}' has a count below 1")
        return values

    def numbers(self, kind=float, tag: str | None = None, count: int | None = None):
        """The next line parsed by ``kind`` into an array, or by a tuple of kinds into a list."""
        if isinstance(kind, tuple):
            return [k(t) for t, k in zip(self.fields(tag, len(kind)), kind)]
        return np.array([kind(t) for t in self.fields(tag, count)])

    def probabilities(self, count: int, rows: int = 1) -> np.ndarray:
        """``rows`` lines of ``count`` probabilities, each line summing to 1 within
        NORM_SKIP as saved rows do, so that no constructor renormalizes them."""
        values = np.array([self.numbers(count=count) for _ in range(rows)])
        if not (off := np.abs(values.sum(axis=1) - 1.0).max()) <= NORM_SKIP:  # NaN too
            raise ValueError(f"a row of probabilities is off 1 by {off!r}")
        return values

    def __exit__(self, exc_type, exc, tb) -> None:
        where = f"{self.kind} file {self.path}"
        if exc is None and self.pos < len(self.lines):
            raise ValueError(f"{where}: data after the {self.section}: {self.lines[self.pos]!r}")
        if isinstance(exc, IndexError):
            raise ValueError(f"{where} is cut short: "
                             f"the {self.section} is missing or incomplete") from None
        if isinstance(exc, ValueError):
            raise ValueError(f"{where}: malformed {self.section}: {exc}") from None
