"""Small shared I/O helpers.

One home for the atomic-write pattern the persistence planes (cache
store, shard result files, campaign ledgers) all rely on: their
durability arguments are only as good as the write discipline, so the
discipline lives exactly once.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path: str | os.PathLike, blob: bytes) -> Path:
    """Durably write ``blob`` to ``path`` via a same-directory temp file + rename.

    A reader racing the writer sees either the old file or the new one,
    never a torn mix, and a crash mid-write leaves the target untouched
    (the orphaned temp file is unlinked on every failure path that still
    runs).  Concurrent writers degrade to last-writer-wins.  The temp
    file is fsynced before the rename and the directory after it, so
    once this returns the new bytes survive power loss, not only a
    killed process.
    """
    path = Path(path)
    fd, temp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)
    return path


def _fsync_directory(directory: Path) -> None:
    """Persist a directory's entries (a rename lives in its directory)."""
    fd = os.open(directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
