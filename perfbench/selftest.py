"""Self-tests of the benchmark, at a tiny size.

Run from the root of the repository::

    python -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gate, run, runner, speed  # noqa: E402
from perfbench.inputs import TINY, Inputs  # noqa: E402
from perfbench.spans import SpanTracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    RESTORES,
    Bench,
    Browse,
    Durability,
    Ingest,
    Tally,
    durability_round,
    open_session,
    restore_divergence,
)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    result = runner.run_workload(workload, 3, 0.3, trace, tmp_path / "store", TINY)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = declared("per_layer" if trace else "end_to_end")
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == expected
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def tiny_bench(tmp_path: Path) -> Bench:
    inputs = Inputs(5, TINY)
    bench = Bench(inputs, open_session(inputs, True), tmp_path / "store", Tally())
    bench.commit(Ingest(bench).tail_batch())
    return bench


def test_gate_fails_when_a_view_row_is_dropped(tmp_path):
    bench = tiny_bench(tmp_path)
    gate.check(bench)
    assert bench.tally.failed == 0, bench.tally.failures
    bench.view.result.offers.pop()
    gate.check(bench)
    assert bench.tally.failed == 2
    assert "view 'population'" in bench.tally.failures[0]
    assert "tab holds" in bench.tally.failures[1]


def test_gate_fails_on_a_stale_read_version(tmp_path):
    bench = tiny_bench(tmp_path)
    bench.last_sequence += 1
    bench.read(Browse(bench).hot[0])
    assert bench.tally.failed == 1 and "served version" in bench.tally.failures[0]


def test_restore_check_catches_the_log_offset_trap(tmp_path):
    """A checkpoint whose offset counts unlogged preload events replays no tail."""
    bench = tiny_bench(tmp_path)
    tail = Browse(bench).tail_batch()
    bench.recovery.checkpoint(bench.session)  # offset = events ingested, log is empty
    bench.record(tail)
    bench.commit(tail)
    restored = bench.recovery.restore(scenario=bench.inputs.scenario)
    problem = restore_divergence(bench.session, restored, len(tail), bench.recovery)
    assert "replayed 0 tail events" in problem


def test_durability_rounds_restore_equal_sessions(tmp_path):
    bench = tiny_bench(tmp_path)
    workload = Browse(bench)
    measured = Durability()
    for _ in range(2):
        durability_round(bench, workload.tail_batch(), measured)
    assert bench.tally.failed == 0, bench.tally.failures
    assert bench.tally.attempted > 0
    assert len(measured.checkpoint_s) == 2 and len(measured.restore_s) == 2 * RESTORES
    assert all(size > 0 for size in measured.checkpoint_bytes)


def test_gate_fails_on_a_wrongly_carried_cache_entry(tmp_path):
    """A cache entry carried across a commit that no longer matches the engine is caught."""
    bench = tiny_bench(tmp_path)
    workload = Browse(bench)
    cache = bench.session.engine.readpath.cache
    for spec in workload.hot:
        bench.read(spec)
    bench.commit(workload.tail_batch())  # revisions in one city
    carried = [spec for spec in workload.hot if cache.get(spec, bench.last_sequence) is not None]
    assert carried
    gate.check(bench)
    assert bench.tally.failed == 0, bench.tally.failures
    cache.get(carried[0], bench.last_sequence).offers.pop()
    gate.check(bench)
    assert bench.tally.failed == 1
    assert f"read of {carried[0].describe()!r}" in bench.tally.failures[0]


def test_run_exits_nonzero_on_divergence(tmp_path, monkeypatch, capsys):
    original = gate.check

    def corrupting_check(bench):
        bench.view.result.offers.pop()
        original(bench)

    monkeypatch.setattr(gate, "check", corrupting_check)
    monkeypatch.setattr(runner, "run_workload", functools.partial(runner.run_workload, size=TINY))
    code = run.main(["--workload", "ingest", "--seed", "1", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_correction_scales_by_the_reference_around_a_stretch():
    meter = speed._Meter()
    nominal = speed.NOMINAL_S
    meter.stamps = [0.0, 0.1, 0.2, 0.3, 0.4, 5.0]
    meter.seconds = [2 * nominal, 2 * nominal, 8 * nominal, 2 * nominal, 4 * nominal, nominal]
    # A short stretch takes the median of the samples within HALO_S of it.
    assert meter.factor(0.15, 0.16) == pytest.approx(0.5)
    # A long one takes their mean: the samples from 0.0 to 0.4.
    assert meter.factor(0.0, 0.3) == pytest.approx(5 / 18)
    # With no sample near it, the stretch is measured afresh.
    assert meter.factor(9.0, 9.01) > 0 and len(meter.stamps) == 7


def test_samples_are_taken_off_the_benchmark_clock():
    meter = speed._METER
    samples, probing = len(meter.stamps), meter.probing_s
    with speed.sampling():
        started, wall = speed.now(), time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            pass
        stopped, wall = speed.now(), time.perf_counter() - wall
    assert len(meter.stamps) - samples >= 3
    assert stopped - started == pytest.approx(wall - (meter.probing_s - probing), abs=0.002)


class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_self_time_excludes_child_spans():
    tracer = SpanTracer()
    tracer.add(_Layer, "outer", "outer")
    tracer.add(_Layer, "inner", "inner")
    tracer.install()
    try:
        assert _Layer().outer() == 2
    finally:
        tracer.uninstall()
    assert _Layer.outer.__name__ == "outer" and not hasattr(_Layer.outer, "__wrapped__")
    stats = tracer.stats()
    assert stats["outer"].calls == stats["inner"].calls == 1
    assert stats["outer"].self_s == pytest.approx(
        stats["outer"].total_s - stats["inner"].total_s
    )
    (inner_record,) = [record for record in tracer.records if record[0] == "inner"]
    (outer_record,) = [record for record in tracer.records if record[0] == "outer"]
    assert inner_record[2] == outer_record[1]  # parent id


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
