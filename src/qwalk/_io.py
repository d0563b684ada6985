"""The artifact formats every writer shares: atomic writes, CSV tables and
compact JSON.

Every artifact is written whole through `write_atomic`. The five CSV tables
(trace, training history, metrics and the two weight tables) go through
`write_csv`, so one cell rule holds for all of them. Model files and dataset
lines are encoded by `compact_json`: sorted keys, no spaces, shortest
round-trip floats.
"""

from __future__ import annotations

import json
import os
import secrets

import numpy as np

# One encoder for every model file and dataset line; `json.dumps` with these
# options would build a new one per call.
compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` all at once or not at all.

    The bytes go to a fresh temporary file in the target's directory, which
    then replaces the target with os.replace. A failed write removes the
    temporary file and leaves any previous file at `path` untouched. The
    new file gets the permissions a plain open() would give it. An OS error
    names `path`, the file the caller asked for, not the temporary file.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def _cell(value) -> str:
    # floats first: they fill most cells, and no bool or integer is one
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a CSV table atomically: the header, then one line per row.

    A None cell is blank, a bool is true or false, an integer is written
    as one and a float as its shortest round-trip repr; anything else is
    its str. Lines end in LF and the file is UTF-8.
    """
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
