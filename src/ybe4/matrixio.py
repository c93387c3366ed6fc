"""JSON matrix files: square complex matrices with [re, im] entry pairs.

Schema (version "1"):

    {
      "version": "1",
      "dim": 4,
      "rows": [[[re, im], ...], ...],
      "metadata": {"name": "...", "family": "..."}   # optional
    }

Entries are decimal floats; json round-trips Python floats exactly, so
write -> read -> write is bit-identical.  Integer entries are read as
floats when they fit one; booleans and integers beyond the float range
are rejected.

write_matrix_file writes the text json.dump(payload, indent=2,
sort_keys=True) gives, plus a newline, byte for byte.  It encodes the rows
with json's C encoder in one call and lays the numbers out one per line,
since the pure-Python encoder that indent selects costs far more than the
file write on a small matrix.

It rewrites an existing file in place: it opens without O_TRUNC, writes
from offset 0 and then trims a longer regular file to the new length.
Truncating to zero, as open(path, "w") does, makes ext4 (auto_da_alloc,
its default) start writeback of the new data at close(), which costs
several times the write itself on a small file.  The result is what
open(path, "w") gives: the same inode, an existing file's mode kept, a new
file created with 0o666 & ~umask, symlinks followed, IsADirectoryError
for a directory, and os.devnull (not a regular file, so never trimmed)
accepted.

Matrix files hold finite numbers only: matrix_payload, and so
write_matrix_file, raises NonFiniteValue for a NaN or infinite entry,
since JSON has no token for one, and ConstraintViolation for metadata that
is not a dict; write_matrix_file refuses metadata that json cannot encode
with sorted keys the same way, before it opens the file.  It returns the
bytes it wrote, so a caller can digest them without reading the file back.

read_matrix_file reads the file's bytes once and decodes them as UTF-8
itself; it maps every failure to read the file (missing, a directory,
unreadable, not UTF-8) to ParseError.  rows_to_matrix builds
rows made only of [float, float] pairs in a square layout with one numpy
conversion and one finiteness check; anything else (integers, booleans,
a non-finite entry, a wrong shape) goes through the per-entry checks,
which give each rejection its message.
"""

from __future__ import annotations

import json
import math
import os
import stat
from itertools import chain
from typing import Any

import numpy as np

from .errors import ConstraintViolation, ParseError
from .linalg import _numeric, as_square, check_instance

__all__ = [
    "MATRIX_FILE_VERSION",
    "matrix_to_rows",
    "rows_to_matrix",
    "matrix_payload",
    "payload_matrix",
    "write_matrix_file",
    "read_matrix_file",
    "dump_report",
]

MATRIX_FILE_VERSION = "1"


def matrix_to_rows(M: np.ndarray) -> list[list[list[float]]]:
    M = _numeric(M)
    return np.stack([M.real, M.imag], -1).tolist()


def _is_number(v: Any) -> bool:
    """A JSON number: an int or float, and not a bool (which is an int)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _checked_rows_to_matrix(rows: Any) -> np.ndarray:
    """rows_to_matrix checking entry by entry; it names the first bad entry."""
    if not isinstance(rows, list) or not rows:
        raise ParseError("rows must be a non-empty list")
    dim = len(rows)
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"row {i} is not a list of {dim} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(_is_number(v) for v in entry)
            ):
                raise ParseError(f"entry ({i}, {j}) is not an [re, im] pair")
            try:
                re, im = float(entry[0]), float(entry[1])
            except OverflowError:
                raise ParseError(f"entry ({i}, {j}) is beyond the float range") from None
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ParseError(f"entry ({i}, {j}) is not finite")
            out[i, j] = complex(re, im)
    return out


def rows_to_matrix(rows: Any) -> np.ndarray:
    # fast path: dim lists of dim [float, float] lists, every value finite
    if type(rows) is list and rows:
        dim = len(rows)
        if set(map(type, rows)) == {list} and set(map(len, rows)) == {dim}:
            entries = list(chain.from_iterable(rows))
            if set(map(type, entries)) == {list} and set(map(len, entries)) == {2}:
                flat = list(chain.from_iterable(entries))
                # an inf or NaN makes the sum inf or NaN; a sum of finite
                # values that overflows only sends them to the checked loop
                if set(map(type, flat)) == {float} and math.isfinite(sum(flat)):
                    return np.array(flat).view(complex).reshape(dim, dim)
    return _checked_rows_to_matrix(rows)


def matrix_payload(M: np.ndarray, metadata: dict | None = None) -> dict:
    """Raises DimensionError unless M is square, NonFiniteValue unless finite,
    and ConstraintViolation unless metadata is None or a dict."""
    M = as_square(M)
    if metadata is not None:
        check_instance("metadata", metadata, dict)
    payload: dict = {
        "version": MATRIX_FILE_VERSION,
        "dim": int(M.shape[0]),
        "rows": matrix_to_rows(M),
    }
    if metadata:
        payload["metadata"] = dict(metadata)
    return payload


def payload_matrix(payload: Any) -> tuple[np.ndarray, dict]:
    if not isinstance(payload, dict):
        raise ParseError("matrix file must hold a JSON object")
    version = payload.get("version")
    if version != MATRIX_FILE_VERSION:
        raise ParseError(f"unsupported matrix file version {version!r}")
    if "dim" not in payload or "rows" not in payload:
        raise ParseError("matrix file needs 'dim' and 'rows'")
    M = rows_to_matrix(payload["rows"])
    dim = payload["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim != M.shape[0]:
        raise ParseError(f"declared dim {dim!r} does not match {M.shape[0]} rows")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("metadata must be an object")
    return M, metadata


# compact C-encoder separators of the rows, deepest first, and the text
# indent=2 puts in their place: rows at depth 2, entries 3, numbers 4
_ROW_LAYOUT = (
    ("]], [[", "\n      ]\n    ],\n    [\n      [\n        "),
    ("], [", "\n      ],\n      [\n        "),
    (", ", ",\n        "),
)


def _rows_text(rows: list) -> str:
    """json.dumps(rows, indent=2) as the value of a top-level key."""
    if not rows:
        return "[]"
    body = json.dumps(rows)[3:-3]
    for compact, indented in _ROW_LAYOUT:
        body = body.replace(compact, indented)
    return f"[\n    [\n      [\n        {body}\n      ]\n    ]\n  ]"


def write_matrix_file(path: str, M: np.ndarray, metadata: dict | None = None) -> bytes:
    """Write the matrix file text of json.dump(payload, indent=2, sort_keys=True).

    Returns the bytes written.  An existing file is rewritten in place and
    trimmed (see the module docstring).  As with open(path, "w"), the write
    is not atomic: a crash or a failed write can leave a partial file, here
    possibly with a tail of the old text.
    """
    payload = matrix_payload(M, metadata)
    fields = [f'"dim": {json.dumps(payload["dim"])}']
    if "metadata" in payload:
        try:
            block = json.dumps(payload["metadata"], indent=2, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ConstraintViolation(f"metadata is not JSON encodable: {exc}") from None
        fields.append('"metadata": ' + block.replace("\n", "\n  "))
    fields.append(f'"rows": {_rows_text(payload["rows"])}')
    fields.append(f'"version": {json.dumps(payload["version"])}')
    data = ("{\n  " + ",\n  ".join(fields) + "\n}\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        st = os.fstat(fd)
        fh.write(data)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            fh.truncate(len(data))
    return data


def read_matrix_file(path: str) -> tuple[np.ndarray, dict]:
    return _read_matrix_bytes(path)[:2]


def _read_matrix_bytes(path: str) -> tuple[np.ndarray, dict, bytes]:
    """read_matrix_file, also returning the bytes it parsed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        payload = json.loads(data.decode("utf-8"))
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    return (*payload_matrix(payload), data)


def dump_report(report: dict) -> str:
    """Canonical report text: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
