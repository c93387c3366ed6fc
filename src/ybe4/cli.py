"""Command line front end: verify, generate, classify, filter, bracket.

Reports go to stdout as JSON (sorted keys, stable formatting); a short
human-readable summary goes to stderr.  Every command that draws random
numbers takes --seed, falling back to the YBE4_SEED environment variable
and then to 0, so repeated runs are byte-identical.  classify also takes
--seed and records it in its report; its result does not depend on it.

Every residual check on the equation takes its bound from
core.solution_check: residual_tol * max(1, max|M|)**3, which is --res-tol
itself for a unitary M.

Exit codes: 0 pass, 1 check failed, 2 parse error (or a non-finite value,
such as a residual that overflows, or a matrix file that cannot be read),
3 dimension error, 4 constraint violation (among them an --out-dir that
names an existing file or cannot be made), 5 not a solution (or not
unitary), 6 degenerate parameter.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from .bracket import BracketParams, SkeinTriple, bracket_to_family, unitary_bracket_family
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
from .families import FamilySpec, family_member, random_family_spec, run_elimination
from .linalg import DEFAULT_TOL, Tolerance, frobenius, is_unitary
from .matrixio import (
    dump_report,
    matrix_payload,
    matrix_to_rows,
    read_matrix_file,
    write_matrix_file,
)

__all__ = ["main", "build_parser"]

REPORT_VERSION = "1"

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
    return args.seed if args.seed is not None else _default_seed()


def _tolerance(args) -> Tolerance:
    return Tolerance(eq_tol=args.eq_tol, residual_tol=args.res_tol)


def _require_finite(name: str, value) -> None:
    if not np.isfinite(value):
        raise ParseError(f"{name} must be a finite number, got {value!r}")


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return _digest_bytes(fh.read())


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConstraintViolation(f"cannot make --out-dir {path!r}: {exc.strerror}") from exc


def _load_solution_file(path: str, want_dim: int = 4):
    M, metadata = read_matrix_file(path)
    if M.shape[0] != want_dim:
        raise DimensionError(
            f"{path}: need a {want_dim}x{want_dim} matrix, got {M.shape[0]}x{M.shape[0]}"
        )
    return M, metadata


def _base_report(command: str, args, **extra) -> dict:
    report = {
        "version": REPORT_VERSION,
        "command": command,
        "tolerances": {"eq_tol": args.eq_tol, "residual_tol": args.res_tol},
    }
    report.update(extra)
    return report


def _check(name: str, residual: float, bound: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "bound": float(bound),
        "verdict": "pass" if residual <= bound else "fail",
    }


def _all_pass(checks) -> bool:
    return all(c["verdict"] == "pass" for c in checks)


def _cmd_verify(args) -> tuple[dict, bool]:
    tol = args.tol
    M, metadata = _load_solution_file(args.path)
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
    ok = _all_pass(checks)
    report = _base_report(
        "verify",
        args,
        inputs={"path": args.path, "sha256": _digest_file(args.path)},
        metadata=metadata,
        form=args.form,
        checks=checks,
        verdict="pass" if ok else "fail",
    )
    return report, ok


_EXPLICIT_KEYS = {"F1": ("p", "q", "r"), "F3": ("p", "q")}


def _explicit_spec(family: str, text: str) -> FamilySpec:
    params: dict[str, complex] = {}
    k = 1.0 + 0.0j
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
        if key == "k":
            k = parsed
        elif key in _EXPLICIT_KEYS.get(family, ()):
            params[key] = parsed
        else:
            raise ConstraintViolation(
                f"family {family} takes no explicit parameter {key!r}"
            )
    return FamilySpec(family=family, Q=np.eye(2, dtype=complex), k=k, params=params)


def _spec_payload(spec: FamilySpec) -> dict:
    return {
        "family": spec.family,
        "k": _pair(spec.k),
        "Q": matrix_to_rows(spec.Q),
        "params": {name: _pair(value) for name, value in sorted(spec.params.items())},
    }


def _cmd_generate(args) -> tuple[dict, bool]:
    if not 1 <= args.family <= 5:
        raise ConstraintViolation(f"--family must be 1..5, got {args.family}")
    if args.count < 1:
        raise ConstraintViolation(f"--count must be >= 1, got {args.count}")
    family = f"F{args.family}"
    seed = _seed(args)
    tol = args.tol
    rng = np.random.default_rng(seed)
    if args.out_dir:
        _make_out_dir(args.out_dir)
    members = []
    checks = []
    for index in range(args.count):
        if args.params is not None:
            spec = _explicit_spec(family, args.params)
        else:
            spec = random_family_spec(family, rng)
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
            write_matrix_file(path, M, metadata)
            entry["path"] = path
            entry["sha256"] = _digest_file(path)
        else:
            entry["matrix"] = matrix_payload(M, metadata)
        members.append(entry)
    ok = _all_pass(checks)
    report = _base_report(
        "generate",
        args,
        family=family,
        form=args.form,
        seed=seed,
        count=args.count,
        members=members,
        checks=checks,
        verdict="pass" if ok else "fail",
    )
    return report, ok


def _cmd_classify(args) -> tuple[dict, bool]:
    tol = args.tol
    M, metadata = _load_solution_file(args.path)
    seed = _seed(args)
    result = classify(M, tol=tol)
    gate = is_entangling_gate(M, witness=True, tol=tol)
    ok = result.family is not None
    report = _base_report(
        "classify",
        args,
        inputs={"path": args.path, "sha256": _digest_file(args.path)},
        metadata=metadata,
        seed=seed,
        family=result.family,
        certificate=_spec_payload(result.spec) if result.spec is not None else None,
        certificate_residual=float(result.residual) if ok else None,
        message=result.message,
        entangling=gate.entangling,
        witness=None
        if gate.witness is None
        else {
            "angles": [float(a) for a in gate.witness.angles],
            "input_state": [_pair(z) for z in gate.witness.state.vec],
            "output_pair_determinant": gate.witness.output_pair_determinant,
        },
        verdict="pass" if ok else "fail",
    )
    return report, ok


def _cmd_filter(args) -> tuple[dict, bool]:
    seed = _seed(args)
    table = run_elimination(samples=args.samples, seed=seed, rel_tol=args.rel_tol)
    eliminated = table.pop("eliminated")
    passing = sorted(name for name in table if name not in eliminated)
    report = _base_report(
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
    return report, True


def _cmd_bracket(args) -> tuple[dict, bool]:
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
    triple = SkeinTriple.from_seed(N)
    U, delta = triple.U, triple.delta
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
        write_matrix_file(seed_path, N, {"name": "bracket_seed"})
        write_matrix_file(sol_path, R, {"name": "bracket_solution"})
        payload["paths"] = {"seed": seed_path, "solution": sol_path}
    ok = _all_pass(checks)
    report = _base_report(
        "bracket", args, checks=checks, verdict="pass" if ok else "fail", **payload
    )
    return report, ok


def _add_tol_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--eq-tol",
        type=float,
        default=DEFAULT_TOL.eq_tol,
        help="equality tolerance for constraint checks",
    )
    sub.add_argument(
        "--res-tol",
        type=float,
        default=DEFAULT_TOL.residual_tol,
        help="residual tolerance for equation checks",
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
    _add_tol_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("generate", help="emit verified members of a family")
    p_gen.add_argument("--family", type=int, required=True, help="family id 1..5")
    p_gen.add_argument("--count", type=int, default=1, help="how many members")
    p_gen.add_argument(
        "--params",
        default=None,
        help="explicit parameters, e.g. p=1,q=1,r=1,Q=I (random when omitted)",
    )
    p_gen.add_argument(
        "--form", choices=("braided", "algebraic"), default="braided"
    )
    p_gen.add_argument("--out-dir", default=None, help="write matrix files here")
    _add_seed_flag(p_gen)
    _add_tol_flags(p_gen)
    p_gen.set_defaults(func=_cmd_generate)

    p_cls = sub.add_parser("classify", help="family tag and entanglement verdict")
    p_cls.add_argument("path", help="matrix file (JSON, dim 4)")
    _add_seed_flag(p_cls)
    _add_tol_flags(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    p_flt = sub.add_parser(
        "filter", help="eigenvalue-modulus elimination over the candidate inventory"
    )
    p_flt.add_argument("--samples", type=int, default=1000)
    p_flt.add_argument(
        "--rel-tol",
        type=float,
        default=1e-6,
        help="relative spread allowed between eigenvalue moduli",
    )
    _add_seed_flag(p_flt)
    _add_tol_flags(p_flt)
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
    _add_tol_flags(p_brk)
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
        report, ok = args.func(args)
    except Ybe4Error as exc:
        for err_type, code in _ERROR_EXIT:
            if isinstance(exc, err_type):
                break
        else:
            code = 1
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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
