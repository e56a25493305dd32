"""Crash-safe JSON publishing shared by the report store, shard leases and
the corpus cache."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def atomic_write_json(path: Path, payload: dict) -> None:
    """Write JSON via a same-directory ``*.tmp`` file + ``os.replace``.

    The temp file is fsynced before the publish, and unlinked when anything
    fails before it, so a failed write (a full disk, say) leaves no temp file
    behind.  ``os.replace`` is atomic on POSIX and Windows for same-filesystem
    moves, so readers either see the old file or the complete new one, never a
    prefix; racing writers simply replace each other with identical content.
    """
    handle = tempfile.NamedTemporaryFile(
        mode="w", dir=path.parent, prefix=path.name + ".", suffix=".tmp",
        delete=False)
    try:
        with handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
