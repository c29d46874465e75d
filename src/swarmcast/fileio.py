"""Reading inputs and writing artifacts.

Every JSON artifact goes through ``canonical_json`` (sorted keys, two-space
indent, a final newline) and every CSV artifact through ``write_csv_rows``.
An input problem is raised naming the file (and a CSV row's line or a
JSON key, whose rule is declared beside the type it builds). CSV rows are
read a chunk at a time (``csv_chunks``). A command that fails halfway
must not leave a half-written artifact next to the last good one: every
artifact is written to a temporary file in its target directory and
renamed over the target only once the write has finished.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import numbers
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import DataError

# a CSV chunk's size, in characters of text to split and rows for the csv module:
# a chunk's strings are all that is held of a file at once
CHUNK_CHARS = 1 << 15
CHUNK_LINES = 1024
# every byte but "," and "\n": deleting them from a chunk leaves its lines' shape
_NOT_COMMA_OR_NEWLINE = bytes(b for b in range(256) if b not in b",\n")


def read_json(path, what: str, error: type[Exception]) -> dict:
    """The JSON object held by the UTF-8 file ``path``.

    An unreadable file, invalid JSON or a document that is not an object
    raises ``error`` naming ``what`` and the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return doc


def is_finite(value) -> bool:
    """Whether a value is a number that converts to a finite float (a bool is not one)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def is_count(value, least: int = 1) -> bool:
    """Whether a value is an integer >= ``least`` (a bool is not one)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


COUNT_RULE = (is_count, "an integer >= 1")
SEED_RULE = (lambda value: is_count(value, 0), "an integer >= 0")
OBJECT_RULE = (lambda value: isinstance(value, dict), "an object")


def check_fields(values, rules: dict, error: type[Exception], where: str, source) -> None:
    """Raise ``error`` naming ``source: 'where.key'`` for the first key of ``rules``
    (key -> (check, what it wants)) that ``values``, a dict or not, lacks or breaks."""
    for key, (check, wanted) in rules.items():
        name = f"{where}.{key}" if where else key
        if not isinstance(values, dict) or key not in values:
            raise error(f"{source}: missing key {name!r}")
        if not check(values[key]):
            raise error(f"{source}: {name!r} must be {wanted}, got {values[key]!r}")


def numbered_rows(reader, path):
    """A ``csv.reader``'s non-blank rows, each as (line it starts on, cells).

    A csv error, such as a cell longer than ``csv.field_size_limit()``, is
    a DataError naming ``path`` and the line the row starts on.
    """
    line = reader.line_num + 1
    try:
        for row in reader:
            if row:
                yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path}:{line}: {exc}") from None


def header_row(reader, path) -> list[str]:
    """A fresh ``csv.reader``'s first row, [] if it is blank or absent; a
    csv error is raised as ``numbered_rows`` raises it."""
    try:
        return next(reader, [])
    except csv.Error as exc:
        raise DataError(f"{path}:1: {exc}") from None


def csv_chunks(fh, width: int):
    """The rows left in the CSV text stream ``fh`` (opened with
    ``newline=""``), a chunk at a time, blank lines skipped: per chunk,
    its rows' first ``width`` columns (a short row's missing cells are
    ""), and whether every row held ``width`` cells.

    The cells are those ``csv.reader`` gives. The stream is read
    ``CHUNK_CHARS`` characters at a time and cut at the last line end.
    A chunk without a quote, a CR or a NUL, whose every line holds
    ``width`` cells and is no longer than ``csv.field_size_limit()``, is
    split with ``str.split``, which gives exactly those cells. Any other
    chunk goes through ``csv.reader``, ``CHUNK_LINES`` rows at a time, and
    from the first quote or CR (a quoted cell may span lines) or NUL
    (which ``csv.reader`` refuses before Python 3.11) on, so does the rest
    of the stream. The reader's ``csv.Error`` propagates.
    """
    limit = csv.field_size_limit()
    shape = ("," * (width - 1) + "\n").encode()  # a split line's commas and line end
    text = ""  # read but not yet chunked: at most one unfinished line
    while block := fh.read(CHUNK_CHARS):
        text += block
        if ('"' in block or "\r" in block or "\x00" in block
                or len(text) > limit and "\n" not in text):
            # whole lines for the csv module: the block's last line ends as read on
            lines = io.StringIO(text + fh.readline(), newline="")
            yield from _reader_chunks(csv.reader(itertools.chain(lines, fh)), width)
            return
        cut = text.rfind("\n") + 1
        if cut:
            yield from _split_chunk(text[:cut], width, shape, limit)
            text = text[cut:]
    if text:
        yield from _split_chunk(text + "\n", width, shape, limit)


def _split_chunk(text: str, width: int, shape: bytes, limit: int):
    """``csv_chunks``' chunks of whole lines of text free of quotes, CRs and NULs."""
    lines = text.encode().translate(None, _NOT_COMMA_OR_NEWLINE)  # each line's commas and end
    if (lines != shape * (len(lines) // len(shape))
            # with one cell to a line, a blank line has the shape of a full one
            or width == 1 and ("\n\n" in text or text[0] == "\n")
            or len(text) > limit and max(map(len, text.split("\n"))) > limit):
        yield from _reader_chunks(csv.reader(text.split("\n")), width)
    else:
        cells = text[:-1].replace("\n", ",").split(",")
        yield [cells[i::width] for i in range(width)], True


def _reader_chunks(reader, width: int):
    """``csv_chunks``' chunks of a csv.reader's rows."""
    while rows := list(itertools.islice(reader, CHUNK_LINES)):
        if rows := [row for row in rows if row]:
            lengths = list(map(len, rows))
            if min(lengths) < width:
                for row in rows:
                    row += [""] * (width - len(row))
            yield list(zip(*rows))[:width], min(lengths) == max(lengths) == width


@contextmanager
def atomic_writer(path, newline=None):
    """Open a text stream whose content replaces ``path`` when the block ends.

    If the block raises, the temporary file is removed and ``path`` keeps
    its previous content (or stays absent).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    with atomic_writer(path) as fh:
        fh.write(canonical_json(obj))


def write_csv_rows(path, header, rows) -> None:
    with atomic_writer(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
