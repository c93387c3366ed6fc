from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ybe4
from ybe4.cli import main
from ybe4.core import swap_matrix
from ybe4.errors import NonConvergence
from ybe4.linalg import inverse
from ybe4.matrixio import read_matrix_file, write_matrix_file

HADA = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
        [-1, 0, 0, 1],
    ],
    dtype=complex,
) / np.sqrt(2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def rows_to_array(rows):
    return np.array([[complex(*entry) for entry in row] for row in rows])


@pytest.fixture
def fixtures(tmp_path):
    paths = {}
    mats = {
        "identity": np.eye(4, dtype=complex),
        "swap": swap_matrix(2).astype(complex),
        "hada_swap": HADA @ swap_matrix(2),
    }
    rng = np.random.default_rng(3)
    mats["random"] = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / 2
    mats["small"] = np.eye(2, dtype=complex)
    for name, M in mats.items():
        path = tmp_path / f"{name}.json"
        write_matrix_file(str(path), M, {"name": name})
        paths[name] = str(path)
    return paths


def test_verify_identity_both_forms(capsys, fixtures):
    code, report, err = run(capsys, "verify", fixtures["identity"], "--form", "both")
    assert code == 0
    assert report["verdict"] == "pass"
    assert len(report["checks"]) == 6
    assert all(c["residual"] == 0.0 for c in report["checks"])
    assert "verify: pass" in err


def test_verify_braided_solution(capsys, fixtures):
    code, report, _ = run(capsys, "verify", fixtures["hada_swap"])
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == ["braided embedding", "braided contraction", "braided route agreement"]


def test_verify_random_fails(capsys, fixtures):
    code, report, _ = run(capsys, "verify", fixtures["random"])
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["checks"][0]["residual"] > 1.0


def test_verify_route_agreement_scales_with_residual(capsys, tmp_path):
    # at scale 10 the residuals are ~1e5 and the two routes round apart by
    # ~1e-11, which is agreement, not a fault
    for seed in range(5):
        rng = np.random.default_rng(seed)
        M = 10 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        path = tmp_path / f"scaled_{seed}.json"
        write_matrix_file(str(path), M, {"name": "scaled"})
        code, report, _ = run(capsys, "verify", str(path), "--form", "both")
        assert code == 1
        by_name = {c["name"]: c for c in report["checks"]}
        for form in ("braided", "algebraic"):
            agree = by_name[f"{form} route agreement"]
            assert agree["verdict"] == "pass", (seed, agree)
            residual = by_name[f"{form} embedding"]["residual"]
            assert agree["bound"] >= 1e-12 * residual


def test_verify_scaled_solution_passes(capsys, tmp_path):
    # c*R solves the equation whenever R does; at c = 30 both residuals are
    # ~3e-11 of pure rounding and differ by a few 1e-12
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    K = np.kron(U, U)
    path = tmp_path / "scaled_solution.json"
    write_matrix_file(str(path), 30 * K @ HADA @ swap_matrix(2) @ K.conj().T, {})
    code, report, _ = run(capsys, "verify", str(path))
    assert code == 0 and report["verdict"] == "pass", report["checks"]


def test_verify_residual_bound_scales_with_solution(capsys, tmp_path):
    # at c = 100 the rounding residuals of local-unitary conjugates of one
    # solution straddle the unit-scale bound 1e-9
    rng = np.random.default_rng(1)
    path = tmp_path / "scaled_solution.json"
    for _ in range(20):
        U = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        K = np.kron(U, U)
        write_matrix_file(str(path), 100 * K @ HADA @ swap_matrix(2) @ K.conj().T, {})
        code, report, _ = run(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] == "pass", report["checks"]


def test_verify_unit_scale_route_bound(capsys, fixtures):
    # a unit-scale solution keeps the plain 1e-12 bound
    code, report, _ = run(capsys, "verify", fixtures["hada_swap"])
    assert code == 0
    assert report["checks"][2]["bound"] == 1e-12


def test_verify_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code, report, _ = run(capsys, "verify", str(bad))
    assert code == 2
    assert report["error"]["type"] == "ParseError"


def test_verify_dimension_error(capsys, fixtures):
    code, report, _ = run(capsys, "verify", fixtures["small"])
    assert code == 3
    assert report["error"]["type"] == "DimensionError"


def test_verify_res_tol_flag(capsys, fixtures):
    # loosening the bound far enough turns the random matrix into a "pass"
    code, report, _ = run(
        capsys, "verify", fixtures["random"], "--res-tol", "1e6"
    )
    assert code == 0 and report["verdict"] == "pass"


def test_generate_explicit_diagonal_params(capsys, tmp_path):
    out = tmp_path / "out"
    code, report, _ = run(
        capsys,
        "generate",
        "--family", "1",
        "--params", "p=1,q=1,r=1,Q=I",
        "--out-dir", str(out),
    )
    assert code == 0
    M, metadata = read_matrix_file(report["members"][0]["path"])
    assert np.array_equal(M, swap_matrix(2).astype(complex))
    assert metadata["family"] == "F1"


def test_generate_scalar_family_members(capsys):
    code, report, _ = run(capsys, "generate", "--family", "5", "--count", "3", "--seed", "2")
    assert code == 0
    assert len(report["members"]) == 3
    for member in report["members"]:
        M = rows_to_array(member["matrix"]["rows"])
        k = M[0, 0]
        assert abs(abs(k) - 1.0) < 1e-12
        assert np.abs(M - k * np.eye(4)).max() < 1e-12


def test_generate_members_verify(capsys, tmp_path, fixtures):
    out = tmp_path / "gen4"
    code, report, _ = run(
        capsys, "generate", "--family", "4", "--seed", "7", "--count", "10",
        "--out-dir", str(out),
    )
    assert code == 0
    assert len(report["members"]) == 10
    for member in report["members"]:
        vcode, vreport, _ = run(capsys, "verify", member["path"])
        assert vcode == 0 and vreport["verdict"] == "pass"


def record_opens(monkeypatch, on_open=None):
    """Patch open(), which matrixio and cli both use, to record each path it opens.

    ``on_open(path)`` runs right after a path is opened, handle in hand.
    """
    opened = []
    real_open = open

    def recording_open(file, *args, **kwargs):
        handle = real_open(file, *args, **kwargs)
        if isinstance(file, (str, os.PathLike)):
            opened.append(os.fspath(file))
            if on_open is not None:
                on_open(os.fspath(file))
        return handle

    monkeypatch.setattr("builtins.open", recording_open)
    return opened


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_input_is_read_once_and_digested_as_parsed(capsys, monkeypatch, fixtures, command):
    path = fixtures["hada_swap"]
    parsed = Path(path).read_bytes()

    def replace_after_first_open(opened_path):
        # once the command holds its handle, another file takes the path:
        # a second read would see the identity matrix and other bytes
        if opened_path == path and os.path.exists(fixtures["identity"]):
            os.replace(fixtures["identity"], path)

    opened = record_opens(monkeypatch, replace_after_first_open)
    code, report, _ = run(capsys, command, path)
    monkeypatch.undo()
    assert opened.count(path) == 1
    assert report["inputs"] == {"path": path, "sha256": hashlib.sha256(parsed).hexdigest()}
    assert report["metadata"] == {"name": "hada_swap"}
    assert code == 0 and report["verdict"] == "pass"


def test_generate_out_dir_digests_the_bytes_it_wrote(capsys, monkeypatch, tmp_path):
    out = tmp_path / "gen3"
    opened = record_opens(monkeypatch)
    code, report, _ = run(
        capsys, "generate", "--family", "3", "--seed", "5", "--count", "4",
        "--out-dir", str(out),
    )
    monkeypatch.undo()
    assert code == 0
    paths = [member["path"] for member in report["members"]]
    assert not set(opened) & set(paths)
    for member in report["members"]:
        data = Path(member["path"]).read_bytes()
        assert member["sha256"] == hashlib.sha256(data).hexdigest()


def test_generate_constraint_violation(capsys):
    # the free-Gram family has no valid member over Q = I
    code, report, _ = run(capsys, "generate", "--family", "2", "--params", "Q=I")
    assert code == 4
    assert report["error"]["type"] == "ConstraintViolation"


def test_generate_rejects_bad_family(capsys):
    code, report, _ = run(capsys, "generate", "--family", "7")
    assert code == 4


def test_generate_rejects_unknown_param(capsys):
    code, report, _ = run(capsys, "generate", "--family", "5", "--params", "p=1")
    assert code == 4
    code, report, _ = run(capsys, "generate", "--family", "1", "--params", "p=oops")
    assert code == 2


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("4", "p=2", "F4 takes no parameter 'p'"),
        ("1", "p=1,q=1,r=1,s=1", "F1 takes no parameter 's'"),
        ("3", "p=1j", "F3 needs parameter q"),
    ],
)
def test_generate_params_are_checked_by_the_library(capsys, family, params, message):
    # the message is validate_spec's own
    code, report, _ = run(capsys, "generate", "--family", family, "--params", params)
    assert code == 4
    assert report["error"] == {"type": "ConstraintViolation", "message": message}


def test_generate_params_k_and_empty_chunks(capsys):
    code, report, _ = run(capsys, "generate", "--family", "5", "--params", " k=1j ,, ")
    assert code == 0
    assert report["members"][0]["spec"]["k"] == [0.0, 1.0]


@pytest.mark.parametrize(
    "params, message",
    [
        ("k", "--params entries look like key=value, got 'k'"),
        ("Q=X", "only Q=I is expressible on the command line"),
    ],
)
def test_generate_params_syntax_is_a_parse_error(capsys, params, message):
    code, report, _ = run(capsys, "generate", "--family", "5", "--params", params)
    assert code == 2
    assert report["error"] == {"type": "ParseError", "message": message}


def test_classify_fixed_points(capsys, fixtures):
    for name, family, entangling in (
        ("identity", "F5", False),
        ("swap", "F1", False),
        ("hada_swap", "F4", True),
    ):
        code, report, _ = run(capsys, "classify", fixtures[name])
        assert code == 0
        assert report["family"] == family
        assert report["entangling"] is entangling
        assert report["certificate_residual"] <= 1e-6
    # the entangling witness comes with its achieved output determinant
    code, report, _ = run(capsys, "classify", fixtures["hada_swap"])
    assert report["witness"]["output_pair_determinant"] >= 0.4


def test_classify_near_scalar_diagonal_member(capsys, tmp_path):
    phases = np.exp(1j * np.array([0.0, 3e-6, -2e-6, 5e-6]))
    path = tmp_path / "near_scalar.json"
    write_matrix_file(str(path), np.diag(phases) @ swap_matrix(2), {"name": "near"})
    code, report, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert report["family"] == "F1"
    assert report["certificate_residual"] <= 1e-12


def test_classify_not_a_solution(capsys, fixtures):
    code, report, _ = run(capsys, "classify", fixtures["random"])
    assert code == 5
    assert report["error"]["type"] in ("NotASolution", "NotUnitary")


def test_filter_single_sample(capsys):
    code, report, _ = run(capsys, "filter", "--samples", "1", "--seed", "0")
    assert code == 0
    assert len(report["candidates"]) == 11
    for name in ("R01", "R02", "R03"):
        row = report["candidates"][name]
        assert row["attempts"] == 1 and row["pass_rate"] == 1.0


def test_filter_determinism(capsys):
    _, first, _ = run(capsys, "filter", "--samples", "25", "--seed", "4")
    _, second, _ = run(capsys, "filter", "--samples", "25", "--seed", "4")
    assert first == second


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("YBE4_SEED", "4")
    _, via_env, _ = run(capsys, "filter", "--samples", "25")
    _, via_flag, _ = run(capsys, "filter", "--samples", "25", "--seed", "4")
    assert via_env == via_flag
    monkeypatch.setenv("YBE4_SEED", "not-a-number")
    code, report, _ = run(capsys, "generate", "--family", "5")
    assert code == 2


def test_bracket_trivial_seed(capsys):
    code, report, _ = run(capsys, "bracket", "--r", "1", "--g", "0", "--p", "0")
    assert code == 0
    R = rows_to_array(report["solution"]["rows"])
    want = np.array(
        [
            [0, 0, 0, -1j],
            [0, 1j, 0, 0],
            [0, 0, 1j, 0],
            [-1j, 0, 0, 0],
        ]
    )
    assert np.array_equal(R, want)


def test_bracket_emit_family(capsys):
    code, report, _ = run(
        capsys, "bracket", "--r", "0.5", "--g", "0.3", "--p", "1.1", "--emit-family"
    )
    assert code == 0
    assert report["verdict"] == "pass"
    family = report["family"]
    assert family["tag"] == "F3"
    assert family["certificate_residual"] <= 1e-9
    # classify's certificate: F3, k = i, real orthogonal Q, unimodular corners
    certificate = family["certificate"]
    assert certificate["family"] == "F3" and certificate["k"] == [0.0, 1.0]
    Q = rows_to_array(certificate["Q"])
    assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-12) and not Q.imag.any()
    for name in ("p", "q"):
        assert abs(complex(*certificate["params"][name])) == pytest.approx(1.0, abs=1e-9)


def test_bracket_emit_family_honours_tolerances(capsys):
    argv = ["bracket", "--r", "0.5", "--emit-family"]
    bounds = {}
    for extra in ([], ["--eq-tol", "1e-3", "--res-tol", "1e-3"]):
        code, report, _ = run(capsys, *argv, *extra)
        assert code == 0 and report["family"]["tag"] == "F3"
        rebuild = report["checks"][-1]
        assert rebuild["name"] == "family certificate rebuild"
        bounds[len(extra)] = rebuild["bound"]
    # the rebuild residual of a unitary member needs no scale: --res-tol itself
    assert bounds[0] == 1e-9
    assert bounds[4] == 1e-3


def test_bracket_emit_family_near_singular_radius(capsys):
    # the congruence's corners reach 1/r here; the certificate's stay
    # unimodular, so its rebuild meets the fixed bound; tag and verdict agree
    code, report, _ = run(
        capsys, "bracket", "--r", "1.01e-6", "--g", "5.077165", "--p", "4.189581",
        "--emit-family",
    )
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["family"]["tag"] == "F3"
    assert report["family"]["certificate_residual"] <= 1e-14


def test_bracket_degenerate_radius(capsys):
    # r = 0 makes the congruence singular but not the certificate
    code, report, _ = run(capsys, "bracket", "--r", "0", "--emit-family")
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["family"]["tag"] == "F3"
    code, report, _ = run(capsys, "bracket", "--r", "0")
    assert code == 0


def test_bracket_out_of_range(capsys):
    code, report, _ = run(capsys, "bracket", "--r", "1.5")
    assert code == 4


def test_bracket_out_dir(capsys, tmp_path):
    out = tmp_path / "bk"
    code, report, _ = run(capsys, "bracket", "--r", "0.7", "--out-dir", str(out))
    assert code == 0
    R, _ = read_matrix_file(report["paths"]["solution"])
    assert R.shape == (4, 4)
    N, _ = read_matrix_file(report["paths"]["seed"])
    assert N.shape == (2, 2)


@pytest.mark.parametrize(
    "argv, builder",
    [
        (("generate", "--family", "1", "--count", "1"), "family_member"),
        (("bracket", "--r", "0.7"), "unitary_bracket_family"),
    ],
)
def test_out_dir_naming_a_file_is_a_constraint_violation(
    capsys, tmp_path, monkeypatch, argv, builder
):
    taken = tmp_path / "taken"
    taken.write_text("keep")

    def no_build(*args, **kwargs):
        raise AssertionError("built a member before checking --out-dir")

    monkeypatch.setattr(f"ybe4.cli.{builder}", no_build)
    code, report, err = run(capsys, *argv, "--out-dir", str(taken))
    assert code == 4
    assert report["error"]["type"] == "ConstraintViolation"
    assert "Traceback" not in err
    assert taken.read_text() == "keep"


@pytest.mark.parametrize(
    "argv, env",
    [
        (("filter", "--samples", "5", "--seed", "-1"), None),
        (("generate", "--family", "1", "--seed", "-1"), None),
        (("filter", "--samples", "5"), "-3"),
        (("generate", "--family", "2"), "-3"),
    ],
)
def test_negative_seed_is_a_constraint_violation(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("YBE4_SEED", env)
    code, report, err = run(capsys, *argv)
    assert code == 4
    assert report["error"]["type"] == "ConstraintViolation"
    assert "seed must be an integer >= 0" in report["error"]["message"]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, target",
    [
        (("generate", "--family", "1", "--count", "2"), "f1_member_1.json"),
        (("bracket", "--r", "0.7"), "bracket_solution.json"),
    ],
)
def test_unwritable_path_under_out_dir_is_a_constraint_violation(
    capsys, tmp_path, argv, target
):
    out = tmp_path / "out"
    (out / target).mkdir(parents=True)
    code, report, err = run(capsys, *argv, "--out-dir", str(out))
    assert code == 4
    assert report["error"]["type"] == "ConstraintViolation"
    assert target in report["error"]["message"]
    assert "Traceback" not in err
    assert (out / target).is_dir()


def test_usage_error_exits_two(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "identity", "--eq-tol", "1e-3"),
        ("filter", "--samples", "1", "--eq-tol", "1e-3"),
        ("filter", "--samples", "1", "--res-tol", "1e-3"),
    ],
)
def test_tolerance_flags_a_command_never_reads_are_usage_errors(capsys, fixtures, argv):
    argv = [fixtures.get(arg, arg) for arg in argv]
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_reports_record_the_tolerance_the_command_ran_under(capsys, fixtures):
    code, report, _ = run(capsys, "verify", fixtures["identity"], "--res-tol", "1e-6")
    assert code == 0
    # verify takes no --eq-tol; its block records the default
    assert report["tolerances"] == {"eq_tol": 1e-9, "residual_tol": 1e-6}


def test_unlisted_ybe4_error_exits_one(capsys, monkeypatch):
    def no_convergence(**kwargs):
        raise NonConvergence("R11 draw 0: root residual 1e-3 exceeds 1e-9")

    monkeypatch.setattr("ybe4.cli.run_elimination", no_convergence)
    code, report, err = run(capsys, "filter", "--samples", "1")
    assert code == 1
    assert report["error"]["type"] == "NonConvergence"
    assert "Traceback" not in err


@pytest.mark.parametrize("extra, inversions", [((), 1), (("--emit-family",), 2)])
def test_bracket_inverts_each_seed_once(capsys, monkeypatch, extra, inversions):
    # N for the solution, and again for the member the certificate rebuilds;
    # the checks read U and the loop value off the solution
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return inverse(*args, **kwargs)

    monkeypatch.setattr("ybe4.bracket.inverse", counting)
    code, report, _ = run(capsys, "bracket", "--r", "0.5", *extra)
    assert code == 0
    assert len(calls) == inversions
    names = [check["name"] for check in report["checks"]]
    assert "loop value is 2" in names and "projector relation" in names


@pytest.mark.parametrize(
    "argv",
    [
        ("filter", "--samples", "1", "--rel-tol", "nan"),
        ("filter", "--samples", "1", "--rel-tol", "-1"),
        ("verify", "hada_swap", "--res-tol", "nan"),
        ("classify", "hada_swap", "--res-tol", "nan"),
    ],
)
def test_bad_tolerance_is_a_constraint_violation(capsys, fixtures, argv):
    # a NaN or negative bound would fail or pass every check silently
    argv = [fixtures.get(arg, arg) for arg in argv]
    code, report, _ = run(capsys, *argv)
    assert code == 4
    assert report["error"]["type"] == "ConstraintViolation"


@pytest.mark.parametrize(
    "argv",
    [
        ("bracket", "--r", "0.5", "--g", "inf"),
        ("generate", "--family", "3", "--params", "p=nan,q=1"),
    ],
)
def test_non_finite_number_is_a_parse_error(capsys, argv):
    code, report, _ = run(capsys, *argv)
    assert code == 2
    assert report["error"]["type"] == "ParseError"


def test_cli_import_does_not_load_scipy():
    src = str(Path(ybe4.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ybe4.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_module_entry_point_runs_main(tmp_path):
    src = str(Path(ybe4.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "ybe4.cli", "verify", str(tmp_path / "missing.json")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 2
    assert json.loads(out.stdout)["error"]["type"] == "ParseError"
