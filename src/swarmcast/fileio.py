"""Reading inputs and writing artifacts.

Every JSON artifact goes through ``canonical_json`` (sorted keys, two-space
indent, a final newline) and every CSV artifact through ``write_csv_rows``.
An input problem is raised naming the file (and a CSV row's line). A
command that fails halfway must not leave a half-written artifact next
to the last good one: every artifact is written to a temporary file in
its target directory and renamed over the target only once the write
has finished.
"""

from __future__ import annotations

import csv
import json
import os
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
