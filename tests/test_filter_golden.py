"""Seeded `ybe4 filter` reports are pinned byte for byte.

The files under tests/golden/ hold the stdout of earlier filter loops (the
per-draw loop, and per-candidate stacks for filter_samples1000_seed1.json).
None of these runs redraws, and without a redraw every loop since, up to
the first-in-first-out stacked passes, takes the same draws in the same
order; any change to a draw's verdict, a count or the generator stream
shows up here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ybe4.cli import main

GOLDEN = Path(__file__).parent / "golden"


# (1000, 1) is the README's own command: eight capped stacked passes
@pytest.mark.parametrize("samples, seed", [(1000, 1), (200, 1), (25, 4)])
def test_filter_report_is_byte_identical(capsys, samples, seed):
    code = main(["filter", "--samples", str(samples), "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"filter_samples{samples}_seed{seed}.json").read_text()
