"""Atomic artifact writes.

A command that fails halfway must not leave a half-written artifact
next to the last good one: every artifact is written to a temporary
file in its target directory and renamed over the target only once the
write has finished.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


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
