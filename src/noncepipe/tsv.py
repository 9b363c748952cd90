"""The tab-separated grammar shared by the corpus and scenario files.

A file is UTF-8 text; blank lines and lines starting with '#' are skipped;
every other line splits on tabs into a fixed number of columns. An options
column is '-' or comma-separated key=value pairs, each key at most once and
each read by the row it sits on. Each reader raises its own subclass of `TsvFormatError`, so a message reads
"<kind> line N: ...".
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional

__all__ = ["OptionTable", "TsvFormatError", "parse_options", "read_rows"]

# option key -> (the rows that read it, its allowed values or None for any)
OptionTable = dict[str, tuple[tuple[str, ...], Optional[tuple[str, ...]]]]


class TsvFormatError(ValueError):
    """A line of an input file breaks its grammar; `kind` names the file."""

    kind = "input"

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"{self.kind} line {line_number}: {message}")
        self.line_number = line_number


def read_rows(
    path: str | Path, columns: int, error: type[TsvFormatError]
) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, columns) for each data line of a file.

    A line that does not have exactly `columns` columns, or any byte that is
    not UTF-8, raises `error` with the line number.
    """
    # undecodable bytes become lone surrogates, so the check below can name
    # the line they sit on
    text = Path(path).read_bytes().decode("utf-8", errors="surrogateescape")
    for number, line in enumerate(text.splitlines(), 1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise error(number, "not valid UTF-8") from None
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != columns:
            raise error(number, f"expected {columns} tab-separated columns, got {len(fields)}")
        yield number, fields


def parse_options(
    text: str, table: OptionTable, row: str, line_number: int, error: type[TsvFormatError]
) -> tuple[tuple[str, str], ...]:
    """Split an options column into ordered (key, value) pairs: each key once,
    in `table`, read by `row` (the line's category or adversary), and holding
    one of the values the table lists, if it lists any."""
    if text == "-":
        return ()
    options: dict[str, str] = {}
    for item in text.split(","):
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise error(line_number, f"bad option {item!r} (want key=value)")
        if key in options:
            raise error(line_number, f"repeated option {key!r}")
        if key not in table:
            raise error(line_number, f"unknown option {key!r}")
        readers, allowed = table[key]
        if row not in readers:
            raise error(line_number, f"option {key!r} does not apply to {row}")
        if allowed is not None and value not in allowed:
            raise error(line_number, f"unknown {key} {value!r}")
        options[key] = value
    return tuple(options.items())
