"""The plain-text conventions every ibquant file shares.

A file is LF-terminated lines: an optional ``# comment`` header, then data.
Floats are written with 17 significant digits, so they read back exactly.
Readers skip blank lines and lines whose first non-blank character is ``#``.
"""

from __future__ import annotations

from numbers import Integral


def row(values, sep: str = " ") -> str:
    """One data line: words and integers (numpy's too) as they are, other numbers as .17g."""
    return sep.join(str(v) if isinstance(v, (str, Integral)) else f"{v:.17g}" for v in values)


def write_lines(path, lines, comment: str | None = None) -> None:
    head = [f"# {comment}"] if comment else []
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(head + list(lines)) + "\n")


def read_lines(path) -> tuple[list[str], list[str]]:
    """The stripped comment lines and data lines of a file, blank lines dropped."""
    comments, data = [], []
    with open(path) as fh:
        for line in map(str.strip, fh):
            if line:
                (comments if line.startswith("#") else data).append(line)
    return comments, data


class Reading:
    """A loader's context: a ValueError, or an IndexError for a line the file
    lacks, becomes a ValueError naming the file and the ``section`` read."""

    def __init__(self, kind: str, path, section: str):
        self.kind, self.path, self.section = kind, path, section

    def __enter__(self) -> "Reading":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        where = f"{self.kind} file {self.path}"
        if isinstance(exc, IndexError):
            raise ValueError(f"{where} is cut short: "
                             f"the {self.section} is missing or incomplete") from None
        if isinstance(exc, ValueError):
            raise ValueError(f"{where}: malformed {self.section}: {exc}") from None
