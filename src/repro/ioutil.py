"""Durable file-write helpers shared by every on-disk cache writer.

All persistent state in this repo (page-cache index + blobs, sweep result
records, the lint fingerprint table) follows one discipline: *atomic
rename with fsync*.  A writer never leaves a torn file where a reader
could find it — the bytes go to a sibling temp file, are flushed and
fsynced, and only then renamed over the destination (``os.replace`` is
atomic on POSIX and Windows).  A crash mid-write loses at most the new
version, never the old one.

``fsync`` is best-effort on the containing directory (some filesystems
refuse ``open(dir)``); the file-level fsync is the load-bearing one.

:func:`file_fingerprint` is the one definition of "this file changed"
that the activity catalog, the serve layer's rebuild scanner and the
lint cache all key on.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path

__all__ = ["atomic_write_bytes", "atomic_write_text", "file_fingerprint"]

_counter = itertools.count()


def file_fingerprint(path: str | Path) -> tuple[str, int, int]:
    """``(name, mtime_ns, size)`` of one file, from a single ``stat``."""
    stat = os.stat(path)
    return (os.path.basename(path), stat.st_mtime_ns, stat.st_size)


def atomic_write_bytes(path: str | Path, data: bytes, fsync: bool = True) -> Path:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename)."""
    path = Path(path)
    # The tmp name must be unique per write: concurrent writers of the
    # same destination (content-addressed stores hit this) would race on
    # a shared tmp file and the loser's rename would fail.
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{next(_counter)}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_dir(path.parent)
    return path


def atomic_write_text(path: str | Path, text: str, fsync: bool = True,
                      encoding: str = "utf-8") -> Path:
    """Text flavour of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def _fsync_dir(directory: Path) -> None:
    """Flush the directory entry so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
