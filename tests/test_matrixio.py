from __future__ import annotations

import json
import os

import numpy as np
import pytest

from ybe4.errors import DimensionError, ParseError
from ybe4.matrixio import (
    _checked_rows_to_matrix,
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


def expected_bytes(M, metadata=None):
    payload = matrix_payload(M, metadata)
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_overwrite_trims_a_longer_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b"x" * 10_000)
    write_matrix_file(str(path), np.eye(2), {"name": "short"})
    assert path.read_bytes() == expected_bytes(np.eye(2), {"name": "short"})
    # a shorter file is overwritten and extended the same way
    path.write_bytes(b"{}")
    write_matrix_file(str(path), np.eye(4))
    assert path.read_bytes() == expected_bytes(np.eye(4))


def test_overwrite_keeps_mode_and_inode(tmp_path):
    path = tmp_path / "m.json"
    write_matrix_file(str(path), np.eye(4), {"name": "long" * 50})
    os.chmod(path, 0o600)
    before = os.stat(path)
    write_matrix_file(str(path), np.eye(2))
    after = os.stat(path)
    assert after.st_ino == before.st_ino
    assert after.st_mode == before.st_mode
    assert path.read_bytes() == expected_bytes(np.eye(2))


def test_new_file_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_matrix_file(str(tmp_path / "m.json"), np.eye(2))
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "m.json").st_mode & 0o777 == 0o640


def test_write_through_symlink_rewrites_target(tmp_path):
    target = tmp_path / "target.json"
    target.write_bytes(b"y" * 5_000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_matrix_file(str(link), np.eye(2))
    assert link.is_symlink()
    assert os.readlink(link) == str(target)
    assert target.read_bytes() == expected_bytes(np.eye(2))


def test_write_to_devnull():
    write_matrix_file(os.devnull, np.eye(4), {"name": "discarded"})


def test_directory_path_raises_and_leaves_no_descriptor(tmp_path):
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        with pytest.raises(IsADirectoryError):
            write_matrix_file(str(tmp_path), np.eye(2))
    assert len(os.listdir("/proc/self/fd")) == before


def test_unserialisable_metadata_raises_before_opening(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_matrix_file(str(path), np.eye(2), {"bad": object()})
    assert path.read_bytes() == b"old"


def test_unreadable_files_are_parse_errors(tmp_path):
    with pytest.raises(ParseError, match="no such file"):
        read_matrix_file(str(tmp_path / "absent.json"))
    with pytest.raises(ParseError, match="Is a directory"):
        read_matrix_file(str(tmp_path))
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    with pytest.raises(ParseError, match="not UTF-8"):
        read_matrix_file(str(path))


def outcome(reader, rows):
    """The matrix bytes a reader returns, or the ParseError message it raises."""
    try:
        M = reader(rows)
    except ParseError as exc:
        return ("error", str(exc))
    return ("matrix", M.shape, M.dtype, M.tobytes())


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.0, -3.0, 2.0 ** 52)


def test_fast_rows_match_checked_loop():
    """Float rows take the one-array path; the bytes equal the per-entry loop's."""
    rng = np.random.default_rng(24)
    for case in range(2_000):
        dim = int(rng.integers(1, 9))
        parts = rng.normal(size=(dim, dim, 2)) * 10.0 ** rng.integers(-300, 301, size=(dim, dim, 2))
        if case % 2:
            mask = rng.random(parts.shape) < 0.4
            parts[mask] = rng.choice(EDGE_FLOATS, size=int(mask.sum()))
        rows = parts.tolist()
        want = outcome(_checked_rows_to_matrix, rows)
        assert want[0] == "matrix"
        assert outcome(rows_to_matrix, rows) == want, case


BAD_ROWS = {
    "int": [[[1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, -2]]],
    "bool": [[[True, 0.0]]],
    "bigint": [[[0.0, 10 ** 400]]],
    "nan": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, float("nan")], [1.0, 0.0]]],
    "inf": [[[float("inf"), 0.0]]],
    "-inf": [[[0.0, float("-inf")]]],
    "inf-inf": [[[float("inf"), float("-inf")]]],
    "overflowing sum": [[[1e308, 1e308]]],
    "ragged": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
    "long row": [[[1.0, 0.0], [0.0, 0.0]]],
    "triple": [[[1.0, 0.0, 0.0]]],
    "tuple entry": [[(1.0, 0.0)]],
    "string": [[["1", "0"]]],
    "empty": [],
    "not a list": {"rows": 1},
    "float subclass": [[[np.float64(1.0), 0.0]]],
}


@pytest.mark.parametrize("name", sorted(BAD_ROWS))
def test_fast_path_keeps_checked_verdicts(name):
    rows = BAD_ROWS[name]
    assert outcome(rows_to_matrix, rows) == outcome(_checked_rows_to_matrix, rows)
