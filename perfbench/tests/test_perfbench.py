"""Tests of the benchmark itself: spans, the percentile rule, checks, repeatability.

    python3 -m pytest -q perfbench/tests
"""

import os

import numpy as np
import pytest

import harness
import workloads
import speed
from spans import Tracer, layer_functions


def test_self_time_subtracts_direct_children():
    ticks = iter([0, 10, 30, 40, 45, 50, 70, 100])
    tracer = Tracer(clock=lambda: next(ticks))
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    c = tracer.open("c")
    d = tracer.open("d")
    tracer.close(d)
    tracer.close(c)
    tracer.close(a)
    rows = tracer.summary()
    assert {n: r["self_ns"] for n, r in rows.items()} == {"a": 50, "b": 20, "c": 25, "d": 5}
    assert {n: r["total_ns"] for n, r in rows.items()} == {"a": 100, "b": 20, "c": 30, "d": 5}
    assert rows["d"]["self_ns_by_parent"] == {"c": 5}
    assert rows["b"]["self_ns_by_parent"] == {"a": 20}


def test_summary_refuses_open_spans():
    tracer = Tracer()
    tracer.open("a")
    with pytest.raises(RuntimeError):
        tracer.summary()


def test_wrapped_calls_nest_and_originals_come_back(program):
    fam = program.families
    original = fam.family_member
    spec = fam.FamilySpec("F5", np.eye(2))
    with Tracer() as tracer:
        assert fam.family_member is not original
        tracer.active = True
        fam.family_member(spec)
        tracer.active = False
    assert fam.family_member is original
    rows = tracer.summary()
    assert rows["families.family_member"]["calls"] == 1
    assert "families.family_member" in rows["linalg.inverse"]["self_ns_by_parent"]
    member = rows["families.family_member"]
    assert member["self_ns"] < member["total_ns"]


def test_missing_name_is_skipped_and_reads_zero(program, monkeypatch):
    monkeypatch.delattr(program.classify, "minimize")
    assert "classify.minimize" not in layer_functions("classify")
    with Tracer() as tracer:
        pass
    values = harness.layer_values(workloads.Workload(program, 0, ""), tracer, 0.0)
    picked = harness.pick(values, {"classify.minimize.calls": "count"}, harness.ZERO_SUFFIXES)
    assert picked["classify.minimize.calls"]["value"] == 0


@pytest.mark.parametrize("pct, need", [(50, 20), (75, 40), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(pct, need):
    assert harness.min_samples(pct) == need
    with pytest.raises(ValueError):
        harness.percentile(list(range(need - 1)), pct)
    samples = list(range(need))
    value = harness.percentile(samples, pct)
    assert sum(s > value for s in samples) == 10


class _Instant(workloads.Workload):
    name = "instant"
    tail_pct = 50.0

    def run_op(self, i):
        return i

    def check(self, i, out):
        return []


def test_timed_run_lasts_until_the_median_has_support():
    tally = harness.Tally()
    values = harness.timed_run(_Instant(None, 0, ""), 0.0, tally)
    assert values["samples"] == 20 and tally.attempted == 20


def test_wrong_expectation_counts_as_failure(program, tmp_path, monkeypatch):
    w = workloads.ClassifyMix(program, 3, str(tmp_path))
    monkeypatch.setattr(w, "pool_size", 5)
    w.setup()
    monkeypatch.setitem(workloads.EXPECTED, "tag", dict(workloads.EXPECTED["tag"], F2="F2"))
    tally = harness.Tally()
    results = [harness.attempt(w, i, tally) for i in range(1, 6)]
    assert (tally.attempted, tally.failed) == (5, 1)
    assert results[0] is None and all(r is not None for r in results[1:])


def test_exception_counts_as_failure(program, tmp_path, monkeypatch):
    w = workloads.FilterScan(program, 3, str(tmp_path))

    def broken(**kwargs):
        raise RuntimeError("stalled")

    monkeypatch.setattr(program.families, "run_elimination", broken)
    tally = harness.Tally()
    assert harness.attempt(w, 1, tally) is None
    assert (tally.attempted, tally.failed) == (1, 1)


ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _counts(values):
    # Levenberg-Marquardt's step count in the F3 stage moves by a few percent
    # with last-bit rounding differences that the placement of numpy buffers
    # causes, and so do the undeclared counts of helpers its residuals call;
    # every other declared count must repeat exactly.
    declared = harness.declared_metrics(ROOT)["per_layer"]
    return {
        k: values.get(k, 0) for k in declared
        if k.endswith((".calls", ".nfev", ".errors", "bytes_written"))
        and k != "classify.least_squares.nfev"
    }


@pytest.mark.parametrize("cls, ops", [(workloads.ClassifyMix, 10), (workloads.BuildVerify, 8)])
def test_traced_counts_repeat_at_one_seed(program, tmp_path, cls, ops):
    runs = []
    for k in range(2):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        w = cls(program, 11, str(workdir))
        w.trace_ops = ops
        w.setup()
        tally = harness.Tally()
        runs.append(_counts(harness.traced_run(w, tally)))
        assert tally.failed == 0
    assert runs[0] == runs[1]
    assert any(k.endswith(".nfev") or k.endswith("bytes_written") for k, v in runs[0].items() if v)


def test_slowdown_is_the_median_of_the_nearest_slices():
    gauge = speed.SpeedGauge()
    gauge.ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    gauge.samples = [speed.REFERENCE_S * f for f in (9, 1, 2, 3, 4, 9, 9)]
    assert gauge.slowdown_at(3.5) == pytest.approx(2.5)  # slices 2..5
    assert gauge.slowdown_at(0.0) == pytest.approx(2.5)  # the first four
    assert gauge.slowdown_at(99.0) == pytest.approx(6.5)  # the last four
    gauge.samples = [speed.REFERENCE_S * f for f in (3, 1, 2)]
    assert gauge.slowdown() == pytest.approx(2.0)
