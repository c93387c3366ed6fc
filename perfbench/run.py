"""Run one benchmark workload against the program in ``src/`` and print its metrics.

    python3 perfbench/run.py --workload classify_mix --seed 1 --seconds 20 --trace 0

Run it from the repository root.  With ``--trace 0`` the run measures the
end-to-end metrics for ``--seconds`` (longer if the tail percentile needs
more samples); with ``--trace 1`` it runs the workload's fixed traced passes
and reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the environment header.  Human-readable
metric lines go to standard error.  Exits 2 without a result when the
program cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("classify_mix", "filter_scan", "build_verify", "cli_session")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, run the warm-up operation, print 'ready' and exit "
        "(used to time set-up in a fresh process)",
    )
    args = parser.parse_args(argv)

    # BLAS and OpenMP read these when numpy loads, so they are set before the
    # first numpy import; every subprocess inherits them.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    import harness

    try:
        program = harness.load_program(ROOT)
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    return harness.run(
        ROOT, program, args.workload, args.seed, args.seconds, bool(args.trace),
        setup_only=args.setup_only,
    )


if __name__ == "__main__":
    sys.exit(main())
