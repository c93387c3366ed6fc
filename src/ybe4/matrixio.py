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
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from .errors import DimensionError, ParseError

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
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def _is_number(v: Any) -> bool:
    """A JSON number: an int or float, and not a bool (which is an int)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def rows_to_matrix(rows: Any) -> np.ndarray:
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


def matrix_payload(M: np.ndarray, metadata: dict | None = None) -> dict:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError("matrix files hold square matrices")
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


def write_matrix_file(path: str, M: np.ndarray, metadata: dict | None = None) -> None:
    """Write the matrix file text of json.dump(payload, indent=2, sort_keys=True)."""
    payload = matrix_payload(M, metadata)
    fields = [f'"dim": {json.dumps(payload["dim"])}']
    if "metadata" in payload:
        block = json.dumps(payload["metadata"], indent=2, sort_keys=True)
        fields.append('"metadata": ' + block.replace("\n", "\n  "))
    fields.append(f'"rows": {_rows_text(payload["rows"])}')
    fields.append(f'"version": {json.dumps(payload["version"])}')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n  " + ",\n  ".join(fields) + "\n}\n")


def read_matrix_file(path: str) -> tuple[np.ndarray, dict]:
    if not os.path.exists(path):
        raise ParseError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return payload_matrix(payload)


def dump_report(report: dict) -> str:
    """Canonical report text: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
