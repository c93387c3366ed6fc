"""The benchmark's four workloads.

Each workload is a closed loop with a single client: operation i starts when
operation i-1 has returned.  Inputs come only from the workload seed, so one
seed gives the same operations in every run.  ``run_op`` makes the calls into
the program and is what the harness times; ``check`` compares the outputs
with expectations pinned from the seed commit and is not timed.

* classify_mix  - certify members of F1..F5 in equal shares (classify plus
                  the entangling verdict with its witness); the optimizers
                  and eigenvalue calls of the classifier dominate.
* filter_scan   - the inventory elimination filter; nearly all time is in
                  the eigenvalue solver, and R13/R23 draws have 4-fold
                  defective spectra.
* build_verify  - construction and verification: members of both forms,
                  skein members, a matrix-file round trip, both residual
                  routes and a braid relation on 6 strands.
* cli_session   - the ``ybe4`` command, one subprocess per call; interpreter
                  start and import dominate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

FAMILIES = ("F1", "F2", "F3", "F4", "F5")

# Outputs of the seed commit that every run must reproduce.  F2 members carry
# the forced p q = 1 and so also have a diagonal-family certificate, which the
# classifier's precedence prefers; they are local gates.
EXPECTED = {
    "tag": {"F1": "F1", "F2": "F1", "F3": "F3", "F4": "F4", "F5": "F5"},
    "entangling": {"F1": True, "F2": False, "F3": True, "F4": True, "F5": False},
    "filter_passing": (
        "R01", "R02", "R03", "R12", "R13", "R14", "R21", "R22", "R23", "R31",
    ),
    "filter_eliminated": ("R11",),
    "cli_verdict": "pass",
}
REBUILD_TOL = 1e-6
RESIDUAL_TOL = 1e-9
WITNESS_TOL = 1e-9


def _pair_det(psi: np.ndarray) -> float:
    return abs(psi[0] * psi[3] - psi[1] * psi[2])


class Workload:
    """Base class: subclasses define the inputs, one operation and its check."""

    name = ""
    # percentile reported as the tail latency; the run lasts until at least
    # ten samples lie beyond it
    tail_pct = 90.0
    # operations in each pass of a traced run; fixed so counts repeat exactly
    trace_ops = 0
    # the workload's own names for the generic end-to-end metrics
    aliases: dict[str, str] = {}

    def __init__(self, program, seed: int, workdir: str):
        self.p = program
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the inputs; the harness then runs operation 0 as a warm-up."""

    def label(self, i: int) -> str:
        return "op"

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        """Problems found in the outputs of operation i; empty when correct."""
        raise NotImplementedError

    def units(self, out) -> int:
        """Units of work one operation did, for the throughput metric."""
        return 1

    def layer_metrics(self, op_ms: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics that spans in this process cannot give; op_ms
        holds the mean traced latency of the operations with each label."""
        return {}


class ClassifyMix(Workload):
    name = "classify_mix"
    aliases = {
        "ops_per_s": "certify_per_s",
        "op_p50_ms": "certify_p50_ms",
        "op_tail_ms": "certify_p90_ms",
    }
    trace_ops = 250
    pool_size = 500  # a multiple of 5, so operation i certifies FAMILIES[i % 5]

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        fam = self.p.families
        self.pool = [
            fam.family_member(fam.random_family_spec(FAMILIES[j % 5], rng))
            for j in range(self.pool_size)
        ]

    def label(self, i: int) -> str:
        return FAMILIES[i % 5]

    def run_op(self, i: int):
        j = i % self.pool_size
        M = self.pool[j]
        cls = self.p.classify
        result = cls.classify(M, rng=np.random.default_rng([self.seed, j]))
        gate = cls.is_entangling_gate(M, witness=True)
        return result, gate

    def check(self, i: int, out) -> list[str]:
        result, gate = out
        source = self.label(i)
        M = self.pool[i % self.pool_size]
        problems = []
        if result.family != EXPECTED["tag"][source]:
            problems.append(f"{source} member tagged {result.family}")
        elif np.linalg.norm(self.p.families.family_member(result.spec) - M) > REBUILD_TOL:
            problems.append(f"{source} certificate does not rebuild the member")
        if gate.entangling != EXPECTED["entangling"][source]:
            problems.append(f"{source} member entangling verdict {gate.entangling}")
        if gate.witness is not None:
            recomputed = _pair_det(M @ gate.witness.state.vec)
            if abs(recomputed - gate.witness.output_pair_determinant) > WITNESS_TOL:
                problems.append(f"{source} witness determinant does not recompute")
        return problems


class FilterScan(Workload):
    name = "filter_scan"
    aliases = {
        "ops_per_s": "filter_draws_per_s",
        "op_p50_ms": "elimination_p50_ms",
        "op_tail_ms": "elimination_p75_ms",
    }
    # Draws per parametric candidate in one elimination run.  The three
    # parameter-free candidates are drawn once per run whatever the count, so
    # they take 3 of 163 draws (1.7 % of filter time) here, against 7 % at 5
    # samples and 0.04 % at the default 1000.  A run of 20 s then holds about
    # 65 operations, which leaves ten beyond p75 but not beyond p90.
    samples = 20
    tail_pct = 75.0
    trace_ops = 15

    def run_op(self, i: int):
        seed = int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        return self.p.families.run_elimination(samples=self.samples, seed=seed)

    def check(self, i: int, out) -> list[str]:
        problems = []
        for name in EXPECTED["filter_passing"]:
            row = out[name]
            if row["passes"] != row["attempts"]:
                problems.append(f"{name}: {row['passes']}/{row['attempts']} draws pass")
        for name in EXPECTED["filter_eliminated"]:
            if out[name]["passes"]:
                problems.append(f"{name}: {out[name]['passes']} draws pass")
        if tuple(out["eliminated"]) != EXPECTED["filter_eliminated"]:
            problems.append(f"eliminated {out['eliminated']}")
        return problems

    def units(self, out) -> int:
        return sum(
            row["attempts"] + row["redraws"]
            for name, row in out.items()
            if name != "eliminated"
        )


class BuildVerify(Workload):
    name = "build_verify"
    aliases = {
        "ops_per_s": "verified_per_s",
        "op_p50_ms": "verify_p50_ms",
        "op_tail_ms": "verify_p90_ms",
    }
    trace_ops = 750
    bracket_every = 4  # one item in four also builds a skein member
    strands = 6
    file_slots = 8  # matrix files are reused so the disk footprint stays fixed

    def setup(self) -> None:
        word = self.p.core.BraidWord
        n = self.strands
        self.relations = [
            (word(n, ((s, 1), (s + 1, 1), (s, 1))), word(n, ((s + 1, 1), (s, 1), (s + 1, 1))))
            for s in range(1, n - 1)
        ]

    def label(self, i: int) -> str:
        return FAMILIES[i % 5]

    def run_op(self, i: int):
        fam, core, lin, mio = self.p.families, self.p.core, self.p.linalg, self.p.matrixio
        rng = np.random.default_rng([self.seed, i])
        spec = fam.random_family_spec(self.label(i), rng)
        braided = fam.family_member(spec)
        algebraic = fam.family_member(spec, form="algebraic")
        path = os.path.join(self.workdir, f"member_{i % self.file_slots}.json")
        metadata = {"name": f"item_{i}", "family": spec.family}
        mio.write_matrix_file(path, braided, metadata)
        read_back = mio.read_matrix_file(path)
        lhs, rhs = self.relations[i % len(self.relations)]
        out = {
            "braided": braided,
            "metadata": metadata,
            "read_back": read_back,
            "unitary": [lin.is_unitary(braided)[0], lin.is_unitary(algebraic)[0]],
            "residuals": {
                "braided embedding": core.braided_residual(braided),
                "braided contraction": core.contraction_residual(braided, "braided"),
                "algebraic embedding": core.algebraic_residual(algebraic),
                "algebraic contraction": core.contraction_residual(algebraic, "algebraic"),
            },
            "relation": (core.braid_rep(braided, lhs), core.braid_rep(braided, rhs)),
        }
        if i % self.bracket_every == 0:
            br = self.p.bracket
            params = br.BracketParams(
                r=rng.uniform(0.1, 0.95), g=rng.uniform(0, 2 * np.pi), p=rng.uniform(0, 2 * np.pi)
            )
            _, R = br.unitary_bracket_family(params)
            out["bracket_family"] = br.bracket_to_family(params).family
            out["unitary"].append(lin.is_unitary(R)[0])
            out["residuals"]["bracket embedding"] = core.braided_residual(R)
            out["residuals"]["bracket contraction"] = core.contraction_residual(R, "braided")
        return out

    def check(self, i: int, out) -> list[str]:
        problems = []
        if not all(out["unitary"]):
            problems.append(f"unitarity verdicts {out['unitary']}")
        for name, value in out["residuals"].items():
            if not value <= RESIDUAL_TOL:
                problems.append(f"{name} residual {value:.3e}")
        matrix, metadata = out["read_back"]
        if not np.array_equal(matrix, out["braided"]) or metadata != out["metadata"]:
            problems.append("matrix file round trip changed the member")
        lhs, rhs = out["relation"]
        if not np.linalg.norm(lhs - rhs) <= RESIDUAL_TOL:
            problems.append("braid relation fails on 6 strands")
        if out.get("bracket_family", "F3") != "F3":
            problems.append(f"skein member reduced to {out['bracket_family']!r}")
        return problems


# Runs one command of the ybe4 CLI; the first stderr line is the time the
# import of the CLI took inside the child.
CLI_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "from ybe4.cli import main\n"
    "sys.stderr.write('import_ms %r\\n' % (1e3 * (time.perf_counter() - t0)))\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


class CliSession(Workload):
    name = "cli_session"
    aliases = {
        "ops_per_s": "cli_calls_per_s",
        "op_p50_ms": "cli_call_p50_ms",
        "op_tail_ms": "cli_call_p50_ms",
    }
    # About one call a second: the median is the highest percentile that a
    # run of this length leaves ten samples beyond.
    tail_pct = 50.0
    trace_ops = 10
    commands = ("generate", "verify", "classify", "bracket", "filter")
    filter_samples = 5

    def __init__(self, program, seed: int, workdir: str):
        super().__init__(program, seed, workdir)
        self.env = dict(os.environ, PYTHONPATH=program.src)
        self.import_ms: list[float] = []

    def setup(self) -> None:
        fam, mio = self.p.families, self.p.matrixio
        rng = np.random.default_rng([self.seed, 1])
        self.members = []
        for j in range(10):
            family = FAMILIES[j % 5]
            path = os.path.join(self.workdir, f"member_{j}.json")
            mio.write_matrix_file(
                path, fam.family_member(fam.random_family_spec(family, rng)), {"family": family}
            )
            self.members.append(path)
        # Only scalar members (F5) solve both equation forms, which
        # ``verify --form both`` requires.
        self.scalars = [path for j, path in enumerate(self.members) if j % 5 == 4]

    def label(self, i: int) -> str:
        return self.commands[i % len(self.commands)]

    def argv(self, i: int) -> list[str]:
        command = self.label(i)
        rng = np.random.default_rng([self.seed, i])
        seed = str(int(rng.integers(1 << 31)))
        turn = i // len(self.commands)
        if command == "generate":
            out_dir = os.path.join(self.workdir, "generated")
            family = str(1 + turn % 5)
            return [command, "--family", family, "--count", "2", "--seed", seed, "--out-dir", out_dir]
        if command == "verify":
            return [command, self.scalars[turn % len(self.scalars)], "--form", "both"]
        if command == "classify":
            return [command, self.members[turn % len(self.members)], "--seed", seed]
        if command == "bracket":
            r, g, p = rng.uniform(0.1, 0.95), rng.uniform(0, 6.28), rng.uniform(0, 6.28)
            return [command, "--r", f"{r:.6f}", "--g", f"{g:.6f}", "--p", f"{p:.6f}", "--emit-family"]
        return [command, "--samples", str(self.filter_samples), "--seed", seed]

    def run_op(self, i: int):
        argv = self.argv(i)
        return subprocess.run(
            [sys.executable, "-c", CLI_CHILD, *argv],
            env=self.env,
            cwd=self.workdir,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def check(self, i: int, out) -> list[str]:
        command = self.label(i)
        first, _, _ = out.stderr.partition("\n")
        if first.startswith("import_ms "):
            self.import_ms.append(float(first.split()[1]))
        if out.returncode != 0:
            return [f"{command} exited {out.returncode}: {out.stderr.strip()[-300:]}"]
        try:
            verdict = json.loads(out.stdout).get("verdict")
        except json.JSONDecodeError:
            return [f"{command} printed no JSON report"]
        if verdict != EXPECTED["cli_verdict"]:
            return [f"{command} verdict {verdict!r}"]
        return []

    def layer_metrics(self, op_ms: dict[str, float]) -> dict[str, float]:
        out = {f"cli.{c}.ms": op_ms.get(c, 0.0) for c in self.commands}
        out["cli.import_ms"] = float(np.median(self.import_ms)) if self.import_ms else 0.0
        return out


WORKLOADS = {w.name: w for w in (ClassifyMix, FilterScan, BuildVerify, CliSession)}
