"""Seeded `ybe4 filter` reports are pinned byte for byte.

The files under tests/golden/ hold the stdout of earlier filter loops (the
per-draw loop, and per-candidate stacks for filter_samples1000_seed1.json).
None of these runs redraws, and without a redraw every loop since, up to
the first-in-first-out stacked passes, takes the same draws in the same
order; any change to a draw's verdict, a count or the generator stream
shows up here.  The stack digest below goes one step further and pins the
bytes of every stacked matrix the filter checks, redraws included.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from ybe4 import families
from ybe4.cli import main

GOLDEN = Path(__file__).parent / "golden"


# (1000, 1) is the README's own command: eight capped stacked passes
@pytest.mark.parametrize("samples, seed", [(1000, 1), (200, 1), (25, 4)])
def test_filter_report_is_byte_identical(capsys, samples, seed):
    code = main(["filter", "--samples", str(samples), "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"filter_samples{samples}_seed{seed}.json").read_text()


# sha256 of every stack run_elimination hands to _filter_verdicts (shape,
# dtype and bytes), each run followed by its report, for the runs below
STACK_DIGEST = "c7073ac835b85609803f8034f205e280cc8fce9402535dc7fc00e274ecd4c28e"


def test_filter_stacks_are_byte_identical(monkeypatch):
    digest = hashlib.sha256()
    verdicts = families._filter_verdicts

    def hashing(M, rel_tol):
        digest.update(f"{M.shape} {M.dtype}".encode())
        digest.update(M.tobytes())
        return verdicts(M, rel_tol)

    monkeypatch.setattr(families, "_filter_verdicts", hashing)
    for samples, seeds in ((20, range(100)), (1000, range(3))):
        for seed in seeds:
            report = families.run_elimination(samples, seed)
            digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == STACK_DIGEST
