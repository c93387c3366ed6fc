"""Bad input to every command ends in its documented exit code, never a traceback."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ybe4.cli import main
from ybe4.matrixio import write_matrix_file

# exit codes: 0 pass, 2 parse error or non-finite value, 3 dimension error,
# 4 constraint violation, 5 not unitary / not a solution, 6 degenerate parameter
MATRIX_FILES = {
    "malformed": (2, 2),
    "empty": (2, 2),
    "nan": (2, 2),
    "3x3": (3, 3),
    "2x2": (3, 3),
    "huge": (2, 5),
    "missing": (2, 2),
    "bigint": (2, 2),
    "bool": (2, 2),
    "directory": (2, 2),
    "not_utf8": (2, 2),
}


def write_case(tmp_path, name):
    path = tmp_path / f"{name}.json"
    if name == "malformed":
        path.write_text('{"version": "1", "dim": 4, "rows": [')
    elif name == "empty":
        path.write_text("")
    elif name == "nan":
        write_matrix_file(str(path), np.full((4, 4), np.nan), {})
    elif name == "3x3":
        write_matrix_file(str(path), np.eye(3), {})
    elif name == "2x2":
        write_matrix_file(str(path), np.eye(2), {})
    elif name == "huge":
        write_matrix_file(str(path), np.full((4, 4), 1e300), {})
    elif name in ("bigint", "bool"):
        # one 1x1 entry that json reads as a Python int or bool, not a float
        value = "1" + "0" * 400 if name == "bigint" else "true"
        path.write_text(f'{{"version": "1", "dim": 1, "rows": [[[{value}, 0]]]}}')
    elif name == "directory":
        path.mkdir()
    elif name == "not_utf8":
        # a UTF-16 byte order mark, which no UTF-8 text starts with
        path.write_bytes(b"\xff\xfe" + '{"version": "1"}'.encode("utf-16-le"))
    return str(path)


def run_clean(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err, (argv, err)
    report = json.loads(out)
    if code >= 2:
        assert set(report["error"]) == {"type", "message"}
    return code


# a numpy RuntimeWarning on stderr is noise the typed verdict should not need
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(MATRIX_FILES))
@pytest.mark.parametrize(
    "command", [("verify",), ("verify", "--form", "both"), ("classify",)]
)
def test_matrix_file_fuzz(capsys, tmp_path, name, command):
    verify_code, classify_code = MATRIX_FILES[name]
    want = classify_code if command[0] == "classify" else verify_code
    argv = [command[0], write_case(tmp_path, name), *command[1:]]
    assert run_clean(capsys, argv) == want


@pytest.mark.parametrize(
    "argv, want",
    [
        (("filter", "--samples", "-3"), 4),
        (("filter", "--samples", "1", "--rel-tol", "-1"), 4),
        (("generate", "--family", "1", "--params", "p=nan"), 2),
        (("generate", "--family", "9"), 4),
        (("generate", "--family", "1", "--count", "0"), 4),
        (("bracket", "--r", "inf"), 2),
        (("bracket", "--r", "2"), 4),
        (("bracket", "--r", "0.004", "--emit-family"), 0),
    ],
)
def test_flag_fuzz(capsys, argv, want):
    assert run_clean(capsys, list(argv)) == want


@pytest.mark.parametrize(
    "r, want", [("5e-3", 0), ("1e-4", 0), ("1e-5", 0), ("1e-6", 6), ("1e-8", 6)]
)
def test_bracket_emit_family_small_radius(capsys, r, want):
    code = main(["bracket", "--r", r, "--g", "0.3", "--p", "1.1", "--emit-family"])
    report = json.loads(capsys.readouterr().out)
    assert code == want
    if want == 0:
        assert report["family"]["tag"] == "F3"
    else:
        assert report["error"]["type"] == "DegenerateParameter"
