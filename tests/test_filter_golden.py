"""Seeded `ybe4 filter` reports are pinned byte for byte.

The files under tests/golden/ hold the stdout of the per-draw filter loop
that the stacked filter replaced; any change to a draw's verdict, a count
or the generator stream shows up here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ybe4.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("samples, seed", [(200, 1), (25, 4)])
def test_filter_report_is_byte_identical(capsys, samples, seed):
    code = main(["filter", "--samples", str(samples), "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"filter_samples{samples}_seed{seed}.json").read_text()
