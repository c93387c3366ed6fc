from __future__ import annotations

import json

import numpy as np
import pytest

from ybe4.errors import DimensionError, ParseError
from ybe4.matrixio import (
    matrix_payload,
    payload_matrix,
    read_matrix_file,
    rows_to_matrix,
    write_matrix_file,
)


def test_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    first = tmp_path / "m.json"
    second = tmp_path / "m2.json"
    write_matrix_file(str(first), M, {"name": "random"})
    back, metadata = read_matrix_file(str(first))
    assert np.array_equal(back, M)
    assert metadata == {"name": "random"}
    write_matrix_file(str(second), back, metadata)
    assert first.read_bytes() == second.read_bytes()


def test_payload_shape():
    payload = matrix_payload(np.eye(2), {"family": "F5"})
    assert payload["version"] == "1"
    assert payload["dim"] == 2
    assert payload["rows"][0][0] == [1.0, 0.0]
    assert payload["metadata"] == {"family": "F5"}
    M, metadata = payload_matrix(payload)
    assert np.array_equal(M, np.eye(2))
    assert metadata == {"family": "F5"}


def test_metadata_optional():
    payload = matrix_payload(np.eye(2))
    assert "metadata" not in payload
    _, metadata = payload_matrix(payload)
    assert metadata == {}


def test_rejects_bad_version():
    payload = matrix_payload(np.eye(2))
    payload["version"] = "2"
    with pytest.raises(ParseError):
        payload_matrix(payload)


def test_rejects_dim_mismatch():
    payload = matrix_payload(np.eye(2))
    payload["dim"] = 3
    with pytest.raises(ParseError):
        payload_matrix(payload)


def test_rejects_ragged_rows():
    with pytest.raises(ParseError):
        rows_to_matrix([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]])


def test_rejects_non_pair_entries():
    with pytest.raises(ParseError):
        rows_to_matrix([[[1.0, 0.0, 0.0]]])
    with pytest.raises(ParseError):
        rows_to_matrix([[["1", "0"]]])


def test_rejects_non_finite():
    with pytest.raises(ParseError):
        rows_to_matrix([[[float("nan"), 0.0]]])


def test_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ParseError):
        read_matrix_file(str(path))
    with pytest.raises(ParseError):
        read_matrix_file(str(tmp_path / "absent.json"))


def test_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ParseError):
        read_matrix_file(str(path))


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        matrix_payload(np.ones((2, 3)))


def test_nonsquare_is_a_dimension_error(tmp_path):
    with pytest.raises(DimensionError):
        matrix_payload(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        write_matrix_file(str(tmp_path / "m.json"), np.ones(4))


def test_integer_entries_read_as_floats_unless_out_of_range():
    M = rows_to_matrix([[[1, -2]]])
    assert M[0, 0] == complex(1.0, -2.0)
    with pytest.raises(ParseError, match="float range"):
        rows_to_matrix([[[10 ** 400, 0]]])
    with pytest.raises(ParseError, match="float range"):
        rows_to_matrix([[[0.0, -(10 ** 309)]]])


def test_rejects_boolean_entries_and_dim():
    for entry in ([True, 0.0], [0.0, False]):
        with pytest.raises(ParseError):
            rows_to_matrix([[entry]])
    payload = matrix_payload(np.eye(1))
    payload["dim"] = True
    with pytest.raises(ParseError):
        payload_matrix(payload)


SPECIAL_VALUES = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -2.5e-310)
METADATA = (
    None,
    {},
    {"name": "item_3", "family": "F2"},
    {"name": 'a "quoted"\nline é', "nested": {"z": [1, 2.5, None], "a": {}}, "b": []},
)


def random_entries(rng, dim):
    """Complex entries mixing exponents up to +-300 with special values."""
    kind = rng.integers(4)
    if kind == 0:
        return np.zeros((dim, dim), dtype=complex)
    mant = rng.normal(size=(2, dim, dim))
    if kind == 1:
        exps = rng.integers(-300, 301, size=(2, dim, dim))
    else:
        exps = rng.integers(-3, 4)
    parts = mant * 10.0 ** exps
    if kind == 3:
        mask = rng.random(parts.shape) < 0.3
        parts[mask] = rng.choice(SPECIAL_VALUES, size=int(mask.sum()))
    M = np.empty((dim, dim), dtype=complex)
    M.real, M.imag = parts
    return M


def test_write_matches_json_dump_bytes(tmp_path):
    """write_matrix_file writes json.dump(payload, indent=2, sort_keys=True) + newline."""
    rng = np.random.default_rng(2024)
    path = tmp_path / "m.json"
    for case in range(400):
        M = random_entries(rng, int(rng.integers(0, 10)))
        metadata = METADATA[case % len(METADATA)]
        write_matrix_file(str(path), M, metadata)
        want = json.dumps(matrix_payload(M, metadata), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode("utf-8"), (case, M.shape, metadata)
