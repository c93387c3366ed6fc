"""Command line front end: verify, generate, classify, filter, bracket.

Reports go to stdout as JSON (sorted keys, stable formatting); a short
human-readable summary goes to stderr.  Every command that draws random
numbers takes --seed, falling back to the YBE4_SEED environment variable
and then to 0, so repeated runs are byte-identical.  classify also takes
--seed and records it in its report; its result does not depend on it.

Each command takes only the tolerance flags it reads: verify --res-tol;
generate, classify and bracket --eq-tol and --res-tol; filter neither (its
bound is --rel-tol).  A report's "tolerances" block is the Tolerance the
command ran under.  generate --params reads k, Q=I and the family's own
parameters as key=value pairs; families names those and refuses an unknown
or missing one (exit 4).

verify and classify read their matrix file once, and the report's
inputs.sha256 is the digest of the bytes they parsed; generate --out-dir
gives each member the digest of the bytes it wrote and never reads the
file back.  Matrix files hold finite numbers only.  The exit code follows
the report's verdict.

Every residual check on the equation takes its bound from
core.solution_check: residual_tol * max(1, max|M|)**3, which is --res-tol
itself for a unitary M.

bracket's "loop value is 2" and "projector relation" checks read U = I + i R
and its loop value tr U off the solution R = i I + U / i it reports, so
they certify the matrix it emits.

Exit codes: 0 pass, 1 check failed, 2 parse error (or a non-finite value,
such as a residual that overflows, or a matrix file that cannot be read),
3 dimension error, 4 constraint violation (among them a negative seed, and
an --out-dir that names an existing file, cannot be made or has a target
path that cannot be written), 5 not a solution (or not unitary), 6
degenerate parameter.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from .bracket import BracketParams, bracket_to_family, unitary_bracket_family
from .classify import classify, is_entangling_gate
from .core import contraction_residual, solution_check
from .errors import (
    ConstraintViolation,
    DegenerateParameter,
    DimensionError,
    NonFiniteValue,
    NotASolution,
    NotUnitary,
    ParseError,
    Ybe4Error,
)
from .families import (
    _FILTER_REL_TOL,
    _FILTER_SAMPLES,
    FAMILY_NAMES,
    FamilySpec,
    family_member,
    random_family_spec,
    run_elimination,
)
from .linalg import DEFAULT_TOL, Tolerance, frobenius, is_unitary
from .matrixio import (
    _read_matrix_bytes,
    dump_report,
    matrix_payload,
    matrix_to_rows,
    write_matrix_file,
)

__all__ = ["main", "build_parser"]

REPORT_VERSION = "1"

# verify and classify read operators on C^2 (x) C^2 only
_SOLUTION_DIM = 4

_ERROR_EXIT = (
    (ParseError, 2),
    (NonFiniteValue, 2),
    (DimensionError, 3),
    (ConstraintViolation, 4),
    (NotASolution, 5),
    (NotUnitary, 5),
    (DegenerateParameter, 6),
)


def _pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _default_seed() -> int:
    raw = os.environ.get("YBE4_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"YBE4_SEED must be an integer, got {raw!r}") from None


def _seed(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if seed < 0:
        raise ConstraintViolation(f"seed must be an integer >= 0, got {seed}")
    return seed


# Tolerance field -> (flag, help); a command takes only the flags it reads
_TOL_FLAGS = {
    "eq_tol": ("--eq-tol", "equality tolerance for constraint checks"),
    "residual_tol": ("--res-tol", "residual tolerance for equation checks"),
}


def _tolerance(args) -> Tolerance:
    """The Tolerance of the flags the command took, defaults for the rest."""
    return Tolerance(**{field: getattr(args, field) for field in _TOL_FLAGS if field in args})


def _require_finite(name: str, value) -> None:
    if not np.isfinite(value):
        raise ParseError(f"{name} must be a finite number, got {value!r}")


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConstraintViolation(f"cannot make --out-dir {path!r}: {exc.strerror}") from exc


def _write_out(path: str, M: np.ndarray, metadata: dict) -> bytes:
    try:
        return write_matrix_file(path, M, metadata)
    except OSError as exc:
        raise ConstraintViolation(f"cannot write {path!r}: {exc.strerror}") from exc


def _load_solution_file(path: str):
    """(M, metadata, inputs record) from one read of a 4x4 matrix file."""
    M, metadata, data = _read_matrix_bytes(path)
    n, d = M.shape[0], _SOLUTION_DIM
    if n != d:
        raise DimensionError(f"{path}: need a {d}x{d} matrix, got {n}x{n}")
    return M, metadata, {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _base_report(command: str, args, **extra) -> dict:
    """The report fields every command shares, then ``extra``; without a
    "verdict" in ``extra``, the verdict is "pass" when every check passed."""
    report = {
        "version": REPORT_VERSION,
        "command": command,
        "tolerances": {"eq_tol": args.tol.eq_tol, "residual_tol": args.tol.residual_tol},
    }
    report.update(extra)
    if "verdict" not in report:
        passed = all(c["verdict"] == "pass" for c in report["checks"])
        report["verdict"] = "pass" if passed else "fail"
    return report


def _check(name: str, residual: float, bound: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "bound": float(bound),
        "verdict": "pass" if residual <= bound else "fail",
    }


def _cmd_verify(args) -> dict:
    tol = args.tol
    M, metadata, inputs = _load_solution_file(args.path)
    forms = ("braided", "algebraic") if args.form == "both" else (args.form,)
    checks = []
    for form in forms:
        matrix_res, bound = solution_check(M, form, tol)
        index_res = contraction_residual(M, form=form)
        checks.append(_check(f"{form} embedding", matrix_res, bound))
        checks.append(_check(f"{form} contraction", index_res, bound))
        # the routes round apart at the size of the cubic terms, which
        # bound / residual_tol = max(1, max|M|)**3 measures, or of the
        # residual itself when that is larger
        checks.append(
            _check(
                f"{form} route agreement",
                abs(matrix_res - index_res),
                1e-12 * max(bound / tol.residual_tol, matrix_res, index_res),
            )
        )
    return _base_report(
        "verify", args, inputs=inputs, metadata=metadata, form=args.form, checks=checks
    )


def _explicit_spec(family: str, text: str) -> FamilySpec:
    params: dict[str, complex] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"--params entries look like key=value, got {chunk!r}")
        key, value = (part.strip() for part in chunk.split("=", 1))
        if key == "Q":
            if value != "I":
                raise ParseError("only Q=I is expressible on the command line")
            continue
        try:
            parsed = complex(value)
        except ValueError:
            raise ParseError(f"cannot parse {key}={value!r} as a complex number") from None
        _require_finite(key, parsed)
        params[key] = parsed
    k = params.pop("k", 1.0 + 0.0j)
    return FamilySpec(family=family, Q=np.eye(2, dtype=complex), k=k, params=params)


def _spec_payload(spec: FamilySpec) -> dict:
    return {
        "family": spec.family,
        "k": _pair(spec.k),
        "Q": matrix_to_rows(spec.Q),
        "params": {name: _pair(value) for name, value in sorted(spec.params.items())},
    }


def _cmd_generate(args) -> dict:
    family = f"F{args.family}"
    if family not in FAMILY_NAMES:
        raise ConstraintViolation(f"--family must be 1..5, got {args.family}")
    if args.count < 1:
        raise ConstraintViolation(f"--count must be >= 1, got {args.count}")
    seed = _seed(args)
    tol = args.tol
    rng = np.random.default_rng(seed)
    if args.out_dir:
        _make_out_dir(args.out_dir)
    explicit = None if args.params is None else _explicit_spec(family, args.params)
    members = []
    checks = []
    for index in range(args.count):
        spec = explicit or random_family_spec(family, rng)
        M = family_member(spec, form=args.form, tol=tol)
        _, defect = is_unitary(M, tol)
        residual, bound = solution_check(M, args.form, tol)
        checks.append(_check(f"member {index} unitarity", defect, tol.residual_tol))
        checks.append(_check(f"member {index} residual", residual, bound))
        entry = {
            "index": index,
            "spec": _spec_payload(spec),
            "unitarity_defect": float(defect),
            "residual": float(residual),
        }
        metadata = {"name": f"{family.lower()}_member_{index}", "family": family}
        if args.out_dir:
            path = os.path.join(args.out_dir, f"{family.lower()}_member_{index}.json")
            entry["path"] = path
            entry["sha256"] = hashlib.sha256(_write_out(path, M, metadata)).hexdigest()
        else:
            entry["matrix"] = matrix_payload(M, metadata)
        members.append(entry)
    return _base_report(
        "generate",
        args,
        family=family,
        form=args.form,
        seed=seed,
        count=args.count,
        members=members,
        checks=checks,
    )


def _cmd_classify(args) -> dict:
    tol = args.tol
    M, metadata, inputs = _load_solution_file(args.path)
    seed = _seed(args)
    result = classify(M, tol=tol)
    gate = is_entangling_gate(M, witness=True, tol=tol)
    return _base_report(
        "classify",
        args,
        inputs=inputs,
        metadata=metadata,
        seed=seed,
        family=result.family,
        certificate=_spec_payload(result.spec) if result.spec is not None else None,
        certificate_residual=None if result.family is None else float(result.residual),
        message=result.message,
        entangling=gate.entangling,
        witness=None
        if gate.witness is None
        else {
            "angles": [float(a) for a in gate.witness.angles],
            "input_state": [_pair(z) for z in gate.witness.state.vec],
            "output_pair_determinant": gate.witness.output_pair_determinant,
        },
        verdict="fail" if result.family is None else "pass",
    )


def _cmd_filter(args) -> dict:
    seed = _seed(args)
    table = run_elimination(samples=args.samples, seed=seed, rel_tol=args.rel_tol)
    eliminated = table.pop("eliminated")
    passing = sorted(name for name in table if name not in eliminated)
    return _base_report(
        "filter",
        args,
        samples=args.samples,
        seed=seed,
        rel_tol=args.rel_tol,
        candidates={name: table[name] for name in sorted(table)},
        passing=passing,
        eliminated=eliminated,
        verdict="pass",
    )


def _cmd_bracket(args) -> dict:
    tol = args.tol
    for name in ("r", "g", "p"):
        _require_finite(f"--{name}", getattr(args, name))
    params = BracketParams(r=args.r, g=args.g, p=args.p)
    if args.out_dir:
        _make_out_dir(args.out_dir)
    if args.emit_family:
        red = bracket_to_family(params, tol)
        N, R = red.N, red.R_hat
    else:
        N, R = unitary_bracket_family(params)
    # R = i I + U / i, so the checks below read U and its loop value off R
    U = np.eye(4) + 1j * R
    delta = complex(np.trace(U))
    _, r_defect = is_unitary(R, tol)
    checks = [
        _check("seed inverse-conjugate", frobenius(np.conj(N) @ N - np.eye(2)), 1e-12),
        _check("loop value is 2", abs(delta - 2.0), 1e-10),
        _check("projector relation", frobenius(U @ U - 2.0 * U), 1e-10),
        _check("solution unitarity", r_defect, tol.residual_tol),
        _check("braided residual", *solution_check(R, "braided", tol)),
    ]
    payload = {
        "params": {"r": args.r, "g": args.g, "p": args.p, "alpha": _pair(1j)},
        "loop_value": _pair(delta),
        "seed_matrix": matrix_payload(N, {"name": "bracket_seed"}),
        "solution": matrix_payload(R, {"name": "bracket_solution"}),
    }
    if args.emit_family:
        checks.extend(_check(*check) for check in red.checks)
        payload["family"] = {
            "tag": red.family,
            "Q": matrix_to_rows(red.Q),
            "M": matrix_to_rows(red.M),
            "p0": _pair(red.p0),
            "q0": _pair(red.q0),
            "constraint_defects": [float(d) for d in red.constraint_defects],
        }
    if args.out_dir:
        seed_path = os.path.join(args.out_dir, "bracket_seed.json")
        sol_path = os.path.join(args.out_dir, "bracket_solution.json")
        _write_out(seed_path, N, {"name": "bracket_seed"})
        _write_out(sol_path, R, {"name": "bracket_solution"})
        payload["paths"] = {"seed": seed_path, "solution": sol_path}
    return _base_report("bracket", args, checks=checks, **payload)


def _add_tol_flags(sub: argparse.ArgumentParser, *fields: str) -> None:
    for field in fields:
        flag, help_text = _TOL_FLAGS[field]
        sub.add_argument(
            flag, dest=field, type=float, default=getattr(DEFAULT_TOL, field), help=help_text
        )


def _add_seed_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed (default: YBE4_SEED environment variable, then 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybe4",
        description="Construct, verify, and classify 4x4 unitary braid-equation solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a matrix file against the equation")
    p_verify.add_argument("path", help="matrix file (JSON, dim 4)")
    p_verify.add_argument(
        "--form",
        choices=("braided", "algebraic", "both"),
        default="braided",
        help="which equation form(s) to check",
    )
    _add_tol_flags(p_verify, "residual_tol")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("generate", help="emit verified members of a family")
    p_gen.add_argument("--family", type=int, required=True, help="family id 1..5")
    p_gen.add_argument("--count", type=int, default=1, help="how many members")
    p_gen.add_argument(
        "--params",
        default=None,
        help="key=value pairs: k, Q=I and the family's parameters (random when omitted)",
    )
    p_gen.add_argument(
        "--form", choices=("braided", "algebraic"), default="braided"
    )
    p_gen.add_argument("--out-dir", default=None, help="write matrix files here")
    _add_seed_flag(p_gen)
    _add_tol_flags(p_gen, "eq_tol", "residual_tol")
    p_gen.set_defaults(func=_cmd_generate)

    p_cls = sub.add_parser("classify", help="family tag and entanglement verdict")
    p_cls.add_argument("path", help="matrix file (JSON, dim 4)")
    _add_seed_flag(p_cls)
    _add_tol_flags(p_cls, "eq_tol", "residual_tol")
    p_cls.set_defaults(func=_cmd_classify)

    p_flt = sub.add_parser(
        "filter", help="eigenvalue-modulus elimination over the candidate inventory"
    )
    p_flt.add_argument("--samples", type=int, default=_FILTER_SAMPLES)
    p_flt.add_argument(
        "--rel-tol",
        type=float,
        default=_FILTER_REL_TOL,
        help="relative spread allowed between eigenvalue moduli",
    )
    _add_seed_flag(p_flt)
    p_flt.set_defaults(func=_cmd_filter)

    p_brk = sub.add_parser("bracket", help="skein-relation seed and its solution")
    p_brk.add_argument("--r", type=float, required=True)
    p_brk.add_argument("--g", type=float, default=0.0)
    p_brk.add_argument("--p", type=float, default=0.0)
    p_brk.add_argument(
        "--emit-family",
        action="store_true",
        help="also reduce to the anti-diagonal family (needs r > 0)",
    )
    p_brk.add_argument("--out-dir", default=None, help="write matrix files here")
    _add_tol_flags(p_brk, "eq_tol", "residual_tol")
    p_brk.set_defaults(func=_cmd_bracket)

    return parser


def _human_summary(report: dict, stream) -> None:
    command = report.get("command", "?")
    for check in report.get("checks", ()):
        print(
            f"{command}: {check['name']}: residual {check['residual']:.3e} "
            f"(bound {check['bound']:.1e}) {check['verdict']}",
            file=stream,
        )
    if command == "classify":
        residual = report.get("certificate_residual")
        residual_text = "n/a" if residual is None else f"{residual:.3e}"
        print(
            f"classify: family {report.get('family')} "
            f"(certificate residual {residual_text}), "
            f"entangling: {report.get('entangling')}",
            file=stream,
        )
    if command == "filter":
        for name, row in report.get("candidates", {}).items():
            print(
                f"filter: {name}: {row['passes']}/{row['attempts']} pass",
                file=stream,
            )
        print(f"filter: eliminated: {report.get('eliminated')}", file=stream)
    print(f"{command}: {report.get('verdict', 'pass')}", file=stream)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.tol = _tolerance(args)
        report = args.func(args)
    except Ybe4Error as exc:
        code = next((code for kind, code in _ERROR_EXIT if isinstance(exc, kind)), 1)
        error_report = {
            "version": REPORT_VERSION,
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        sys.stdout.write(dump_report(error_report))
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return code
    sys.stdout.write(dump_report(report))
    _human_summary(report, sys.stderr)
    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
