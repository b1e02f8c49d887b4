"""One benchmark run: set-ups, timed phase, durability rounds, oracles, metrics.

With tracing off the run reports the end-to-end metrics.  With tracing on,
the timed phase alternates untraced and traced windows of
:data:`TRACE_WINDOW_S` step-seconds each: the traced windows give the
per-layer metrics, and the two window kinds' throughputs give
``tracing.overhead``.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from perfbench import gate
from perfbench.inputs import FULL, Inputs, Size
from perfbench.spans import SpanStats, SpanTracer
from perfbench.speed import corrected
from perfbench.workloads import (
    WORKLOADS,
    Bench,
    Durability,
    Interval,
    Tally,
    Workload,
    durability_round,
    log_bytes,
    percentile,
    timed_setup,
)

#: Step time of one traced or untraced window in a traced run.
TRACE_WINDOW_S = 0.5
#: Timed-phase segments, each followed by one durability round.
ROUNDS = 4
#: Set-ups a run times at least; a workload that opens fewer sessions than
#: this sets up and closes more after its durability rounds.
SETUPS = 5

#: Spans the traced run reports, each as ``.calls``, ``.self_s`` and ``.ms.p50``.
SPANS = (
    "session.ingest",
    "session.commit",
    "session.query",
    "live.apply",
    "live.commit",
    "aggregation.aggregate_group",
    "aggregation.aggregate_group.engine",
    "aggregation.aggregate_group.materialize",
    "live.warehouse.apply",
    "live.warehouse.apply_commit",
    "live.subscriptions.publish",
    "readpath.on_commit",
    "readpath.snapshot.advance",
    "readpath.cache.advance",
    "readpath.read",
    "views.sync",
    "store.record",
    "store.checkpoint",
    "store.restore",
)

#: Layers each workload is built to stress, and layers it is built to bypass.
DOMINANT = {
    "ingest": ("live.warehouse", "store"),
    "browse": ("readpath",),
}
BYPASSED = {
    "ingest": (),
    "browse": ("live.warehouse", "aggregation", "session.materialize"),
}


def phase_tracer() -> SpanTracer:
    """Spans around every layer's entry point on the commit and read paths."""
    import repro.live.engine as live_engine
    import repro.session.materialize as materialize
    from repro.live.subscriptions import SubscriptionHub
    from repro.live.warehouse import LiveWarehouse
    from repro.readpath.cache import ResultCache
    from repro.readpath.publisher import ReadPath
    from repro.readpath.snapshot import AggregateSnapshot
    from repro.session.facade import FlexSession
    from repro.store.recovery import RecoveryManager
    from repro.views.framework import MaterializedViewTab

    tracer = SpanTracer()
    tracer.add(FlexSession, "ingest", "session.ingest")
    tracer.add(FlexSession, "commit", "session.commit")
    tracer.add(FlexSession, "query", "session.query")
    tracer.add(live_engine.LiveAggregationEngine, "apply", "live.apply")
    tracer.add(live_engine.LiveAggregationEngine, "commit", "live.commit")
    tracer.add(live_engine, "aggregate_group", "aggregation.aggregate_group.engine")
    tracer.add(materialize, "aggregate_group", "aggregation.aggregate_group.materialize")
    tracer.add(LiveWarehouse, "apply", "live.warehouse.apply")
    tracer.add(LiveWarehouse, "apply_commit", "live.warehouse.apply_commit")
    tracer.add(SubscriptionHub, "publish", "live.subscriptions.publish")
    tracer.add(ReadPath, "on_commit", "readpath.on_commit")
    tracer.add(AggregateSnapshot, "advance", "readpath.snapshot.advance")
    tracer.add(ResultCache, "advance", "readpath.cache.advance")
    tracer.add(ReadPath, "read", "readpath.read")
    tracer.add(MaterializedViewTab, "sync", "views.sync")
    tracer.add(RecoveryManager, "record", "store.record")
    return tracer


def durability_tracer() -> SpanTracer:
    """Spans around checkpoint and restore, which only the durability rounds call."""
    from repro.store.recovery import RecoveryManager

    tracer = SpanTracer()
    tracer.add(RecoveryManager, "checkpoint", "store.checkpoint")
    tracer.add(RecoveryManager, "restore", "store.restore")
    return tracer


COUNTERS = (
    "hits", "misses", "invalidations", "carried", "evictions", "chunks_reaggregated",
    "chunks_skipped", "apply_s", "deltas_applied", "commits_skipped",
)


def counters(bench: Bench) -> dict[str, float]:
    """The layers' own public counters, read between steps."""
    cache = bench.session.engine.readpath.cache.stats()
    chunks = bench.session.engine.chunk_stats
    view = bench.view
    maintained = (
        (view.maintenance_seconds, view.deltas_applied, view.commits_skipped)
        if view is not None
        else (0.0, 0, 0)
    )
    return {
        "hits": cache["hits"],
        "misses": cache["misses"],
        "invalidations": cache["invalidations"],
        "carried": cache["carried"],
        "evictions": cache["evictions"],
        "chunks_reaggregated": chunks["chunks_reaggregated"],
        "chunks_skipped": chunks["chunks_skipped"],
        "apply_s": maintained[0],
        "deltas_applied": maintained[1],
        "commits_skipped": maintained[2],
    }


@dataclass
class Phase:
    """What the timed phase measured, split by window kind."""

    steps: dict[bool, list[Interval]] = field(default_factory=lambda: {False: [], True: []})
    operations: dict[bool, int] = field(default_factory=lambda: {False: 0, True: 0})
    traced_counters: dict[str, float] = field(default_factory=dict)

    def seconds(self, traced: bool) -> float:
        """Corrected seconds of the steps in one kind of window."""
        return sum(corrected(*interval) for interval in self.steps[traced])

    def rate(self, traced: bool) -> float:
        return self.operations[traced] / self.seconds(traced)


def run_segment(
    workload: Workload,
    seconds: float,
    phase: Phase,
    tracer: SpanTracer | None,
    renew: Callable[[], None],
) -> None:
    """Repeat the workload's step until the steps' seconds reach ``seconds``.

    With a tracer, untraced and traced windows of :data:`TRACE_WINDOW_S`
    step-seconds alternate, starting untraced; the tracer is off again when
    the segment returns.  When the workload is due for a fresh session,
    ``renew`` runs between two windows, outside every clock.
    """
    window = min(TRACE_WINDOW_S, seconds / 4) if tracer is not None else seconds
    traced = False
    spent = 0.0
    gc.collect()
    while spent < seconds:
        if workload.due():
            renew()
        operations = workload.operations
        if traced:
            assert tracer is not None
            mark = counters(workload.bench)
            tracer.install()
        steps = phase.steps[traced]
        elapsed = 0.0
        while elapsed < window and spent + elapsed < seconds and not workload.due():
            started, ended = workload.step()
            steps.append((started, ended))
            elapsed += ended - started
        if traced:
            tracer.uninstall()
            for key, value in counters(workload.bench).items():
                phase.traced_counters[key] = phase.traced_counters.get(key, 0) + value - mark[key]
        phase.operations[traced] += workload.operations - operations
        spent += elapsed
        if tracer is not None:
            traced = not traced


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(
    workload: Workload, phase: Phase, setup_s: list[float], durable: Bench, leg: Durability
) -> dict[str, tuple[float, str]]:
    seconds = phase.seconds(False)
    visible_s = [corrected(*interval) for interval in workload.visible]
    read_s = [corrected(*interval) for interval in workload.read]
    logs = (workload.bench, durable)
    logged_bytes = sum(log_bytes(bench.recovery.directory) for bench in logs)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "events_per_s": (workload.events / seconds, "1/s"),
        "reads_per_s": (workload.reads / seconds, "1/s"),
        "visible_ms.p50": (percentile(visible_s, 0.50) * 1000, "ms"),
        "visible_ms.p95": (percentile(visible_s, 0.95) * 1000, "ms"),
        "read_ms.p50": (percentile(read_s, 0.50) * 1000, "ms"),
        "read_ms.p95": (percentile(read_s, 0.95) * 1000, "ms"),
        "checkpoint_s": (statistics.median(leg.checkpoint_s), "s"),
        "restore_s": (statistics.median(leg.restore_s), "s"),
        "checkpoint_mb": (statistics.median(leg.checkpoint_bytes) / 1e6, "MB"),
        "log_bytes_per_event": (logged_bytes / sum(bench.recorded for bench in logs), "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(
    phase: Phase, spans: dict[str, SpanStats]
) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        entry = spans.get(name, SpanStats())
        metrics[f"{name}.calls"] = (entry.calls, "count")
        metrics[f"{name}.self_s"] = (entry.self_s, "s")
        metrics[f"{name}.ms.p50"] = (entry.p50_ms, "ms")
    count = phase.traced_counters or dict.fromkeys(COUNTERS, 0)
    lookups = count["hits"] + count["misses"]
    metrics.update(
        {
            "live.chunks_reaggregated": (count["chunks_reaggregated"], "count"),
            "live.chunks_skipped": (count["chunks_skipped"], "count"),
            "readpath.cache.hit_ratio": (count["hits"] / lookups if lookups else 0.0, "ratio"),
            "readpath.cache.invalidations": (count["invalidations"], "count"),
            "readpath.cache.carried": (count["carried"], "count"),
            "readpath.cache.evictions": (count["evictions"], "count"),
            "session.materialize.apply_s": (count["apply_s"], "s"),
            "session.materialize.deltas_applied": (count["deltas_applied"], "count"),
            "session.materialize.commits_skipped": (count["commits_skipped"], "count"),
            "tracing.overhead": (
                phase.rate(False) / phase.rate(True) if phase.operations[True] else 0.0,
                "ratio",
            ),
        }
    )
    return metrics


def fold_spans(
    phase: Phase, tracer: SpanTracer, leg_tracer: SpanTracer
) -> dict[str, SpanStats]:
    """Per-span totals, with the two derived adjustments the layers need.

    ``aggregation.aggregate_group`` is the sum of its two call sites.  The
    materialized view's delta apply has no span of its own (its time comes
    from ``MaterializedView.maintenance_seconds``); it runs inside the hub
    publish, so it is taken out of the publish span's self time.
    """
    spans = tracer.stats()
    spans.update(leg_tracer.stats())
    combined = SpanStats()
    for part in ("engine", "materialize"):
        entry = spans.get(f"aggregation.aggregate_group.{part}")
        if entry is not None:
            combined.calls += entry.calls
            combined.total_s += entry.total_s
            combined.self_s += entry.self_s
            combined.durations_s.extend(entry.durations_s)
    spans["aggregation.aggregate_group"] = combined
    publish = spans.get("live.subscriptions.publish")
    if publish is not None:
        publish.self_s = max(0.0, publish.self_s - materialize_self_s(phase, spans))
    return spans


def materialize_self_s(phase: Phase, spans: dict[str, SpanStats]) -> float:
    kernel = spans.get("aggregation.aggregate_group.materialize", SpanStats())
    return max(0.0, phase.traced_counters.get("apply_s", 0.0) - kernel.total_s)


def layer_split(
    name: str, phase: Phase, spans: dict[str, SpanStats], tracer: SpanTracer
) -> list[str]:
    """Self time per layer in the traced windows, and whether the claimed split holds."""

    def self_of(*names: str) -> float:
        return sum(spans[n].self_s for n in names if n in spans)

    layers = {
        "session": self_of("session.ingest", "session.commit", "session.query"),
        "live": self_of("live.apply", "live.commit"),
        "aggregation": spans["aggregation.aggregate_group"].self_s,
        "live.warehouse": self_of("live.warehouse.apply", "live.warehouse.apply_commit"),
        "live.subscriptions": self_of("live.subscriptions.publish"),
        "session.materialize": materialize_self_s(phase, spans),
        "readpath": self_of(
            "readpath.on_commit", "readpath.snapshot.advance", "readpath.cache.advance",
            "readpath.read",
        ),
        "views": self_of("views.sync"),
        "store": self_of("store.record"),
    }
    total = tracer.covered_seconds()
    ranked = sorted(layers, key=layers.get, reverse=True)
    lines = [f"{layer:20s} {layers[layer]:9.4f} s {layers[layer] / total:7.1%}" for layer in ranked]
    top = set(ranked[:3])
    missing = [layer for layer in DOMINANT[name] if layer not in top]
    heavy = [layer for layer in BYPASSED[name] if layers[layer] / total >= 0.05]
    verdict = "confirmed" if not (missing or heavy) else "NOT confirmed"
    lines.append(
        f"split {verdict}: dominant {DOMINANT[name]} in top 3 {ranked[:3]}; "
        f"bypassed {BYPASSED[name]} under 5%" + (f" (over: {heavy})" if heavy else "")
    )
    return lines


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path, size: Size = FULL
) -> dict[str, Any]:
    """One complete run; returns the result object the benchmark prints.

    The timed phase runs in :data:`ROUNDS` segments with a durability round
    after each, so every metric's samples spread over the whole run instead
    of one stretch of it.  Set-ups are timed for the durability rounds'
    session and every session of the timed phase (``ingest`` replaces its
    session after every :data:`~perfbench.workloads.SESSION_BATCHES` batches;
    its sessions all take the same batches, and the gate checks the last);
    after a round, a run with fewer than
    :data:`SETUPS` set-ups so far sets up and closes one more.  Each set-up
    is timed on its own heap (see :func:`~perfbench.workloads.timed`), so
    what the run holds by then does not change its time.
    """
    inputs = Inputs(seed, size)
    kind = WORKLOADS[name]
    tally = Tally()
    setup_s: list[float] = []

    def setup() -> tuple:
        return timed_setup(inputs, kind.standing_view, setup_s)

    durable = Bench(inputs, setup(), workdir / "durable", tally)
    bench = Bench(inputs, setup(), workdir / "phase", tally)
    workload = kind(bench)

    def renew() -> None:
        bench.close()
        workload.reopen(setup())

    tracer = phase_tracer() if trace else None
    leg_tracer = durability_tracer()
    phase = Phase()
    leg = Durability()
    for _ in range(ROUNDS):
        run_segment(workload, seconds / ROUNDS, phase, tracer, renew)
        if trace:
            leg_tracer.install()
        try:
            durability_round(durable, workload.tail_batch(), leg)
        finally:
            leg_tracer.uninstall()
        if len(setup_s) < SETUPS:
            setup()[0].close()
    gate.check(bench)
    if trace:
        assert tracer is not None
        spans = fold_spans(phase, tracer, leg_tracer)
        metrics = layer_metrics(phase, spans)
        for line in layer_split(name, phase, spans, tracer):
            print(line, file=sys.stderr)
    else:
        metrics = end_to_end_metrics(workload, phase, setup_s, durable, leg)
    bench.close()
    durable.close()
    for problem in tally.failures:
        print(f"perfbench: {problem}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
