"""Reading inputs and writing artifacts.

Every JSON artifact goes through ``canonical_json`` (sorted keys, two-space
indent, a final newline) and every CSV artifact through ``write_csv_rows``.
An input problem is raised naming the file (and a CSV row's line or a
JSON key, whose rule is declared beside the type it builds). A command
that fails halfway must not leave a half-written artifact next to the
last good one: every artifact is written to a temporary file in its
target directory and renamed over the target only once the write has
finished.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
import sys
from contextlib import contextmanager
from pathlib import Path


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


def numbered_rows(reader):
    """A ``csv.reader``'s non-blank rows, each as (line it starts on, cells)."""
    line = reader.line_num + 1
    for row in reader:
        if row:
            yield line, row
        line = reader.line_num + 1


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
