"""Atomic file writes shared by every artifact writer."""

from __future__ import annotations

import os
import secrets


def write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` all at once or not at all.

    The bytes go to a fresh temporary file in the target's directory, which
    then replaces the target with os.replace. A failed write removes the
    temporary file and leaves any previous file at `path` untouched. The
    new file gets the permissions a plain open() would give it.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
