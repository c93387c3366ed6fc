"""Seeded `ybe4` reports agree with the reports pinned in tests/golden/.

`cli_reports.json` holds, per case, the exit code and the parsed stdout
report of `generate` (families 1-5, three members, seed 7, matrices
inline), of `classify` and `verify --form both` on member files written
from those pinned matrices (so their input digests are stable), and of
`bracket --emit-family` at two (r, g, p) points.

Everything that is not a float (keys, verdicts, tags, messages, check
names, digests, exit codes) must match exactly.  A float x must agree
within 1e-12 * max(1, |x|), so the pin survives a BLAS build that rounds
the last bits differently while still catching any change of result.

Regenerate the pins with ``PYTHONPATH=src python tests/test_cli_golden.py``
only when a change of result is intended.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ybe4.cli import main
from ybe4.matrixio import dump_report, payload_matrix, write_matrix_file

GOLDEN = Path(__file__).parent / "golden" / "cli_reports.json"
FAMILIES = range(1, 6)
MEMBERS = 3
BRACKET_POINTS = (("0.37", "0", "0"), ("0.5", "0.3", "1.1"))
FLOAT_RTOL = 1e-12


def _cases() -> dict[str, list[str]]:
    cases = {}
    for f in FAMILIES:
        cases[f"generate F{f}"] = [
            "generate", "--family", str(f), "--count", str(MEMBERS), "--seed", "7"
        ]
    for f in FAMILIES:
        for i in range(MEMBERS):
            path = _member_path(f, i)
            cases[f"classify {path}"] = ["classify", path]
            cases[f"verify {path}"] = ["verify", path, "--form", "both"]
    for r, g, p in BRACKET_POINTS:
        cases[f"bracket r={r} g={g} p={p}"] = [
            "bracket", "--r", r, "--g", g, "--p", p, "--emit-family"
        ]
    return cases


def _member_path(family: int, index: int) -> str:
    return f"f{family}_member_{index}.json"


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "report": json.loads(out.getvalue())}


def _write_members(golden: dict, directory: Path) -> None:
    """Member files holding the matrices the pinned generate reports carry."""
    for f in FAMILIES:
        for entry in golden[f"generate F{f}"]["report"]["members"]:
            M, metadata = payload_matrix(entry["matrix"])
            write_matrix_file(
                str(directory / _member_path(f, entry["index"])), M, metadata
            )


def assert_matches(got, want, where: str = "report") -> None:
    """Equal apart from floats, which agree within FLOAT_RTOL * max(1, |x|)."""
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert abs(got - want) <= FLOAT_RTOL * max(1.0, abs(want)), (
            f"{where}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict), f"{where}: {got!r} is not an object"
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list), f"{where}: {got!r} is not a list"
        assert len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def member_dir(golden, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("members")
    _write_members(golden, directory)
    return directory


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("name, argv", sorted(_cases().items()))
def test_seeded_report_matches_golden(golden, member_dir, monkeypatch, name, argv):
    monkeypatch.chdir(member_dir)
    monkeypatch.delenv("YBE4_SEED", raising=False)
    assert_matches(_run(argv), golden[name], name)


@pytest.mark.parametrize(
    "got, want",
    [
        (1.0 + 2e-12, 1.0),
        ({"a": [1, "x"]}, {"a": [1, "y"]}),
        ({"a": 1}, {"a": 1, "b": 2}),
        (1, 1.0),
        (True, 1),
    ],
)
def test_assert_matches_rejects(got, want):
    with pytest.raises(AssertionError):
        assert_matches(got, want)


def _regenerate() -> None:
    os.environ.pop("YBE4_SEED", None)
    cases = _cases()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            golden = {
                name: _run(argv) for name, argv in cases.items() if argv[0] == "generate"
            }
            _write_members(golden, Path(tmp))
            for name, argv in cases.items():
                if name not in golden:
                    golden[name] = _run(argv)
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(dump_report(golden))


if __name__ == "__main__":
    _regenerate()
