"""Crash-safe artifact writes."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes | str) -> None:
    """Write `data` (a str is UTF-8 encoded) to `path` all at once.

    The bytes go to a temporary file in the same directory, which is synced
    and then renamed over `path`: a reader sees the old file or the whole
    new one, never a torn one, whenever the writer crashes or is killed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
