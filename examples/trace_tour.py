"""A guided tour of the tracing layer: ids, cross-thread traces, sampling,
and the flamegraph exporters.

Run with::

    python examples/trace_tour.py

The script streams a scenario into the async engine with observability on,
one ``ingest.batch`` span per 64 events.  It shows that a commit the
background worker runs is still part of the trace of the ingest that caused
it — the engine hands the ingesting span's context to its worker thread —
demonstrates the head-based sampler (traces thin out, metrics stay exact),
and writes the three trace artifacts — a JSONL dump, a Chrome
``trace_event`` file for Perfetto/``chrome://tracing`` and a folded-stack
file for speedscope/``flamegraph.pl`` — into ``examples/output/``.
"""

from __future__ import annotations

from pathlib import Path

from repro import obs
from repro.datagen import ScenarioConfig, generate_scenario
from repro.live.replay import scenario_event_stream
from repro.session import FlexSession

OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: Events per ``ingest.batch`` span (and the worker's drain batch).
BATCH = 64

#: The thread the async engine commits on.
WORKER = "async-commit-worker"


def replay_once(scenario) -> int:
    """Stream the scenario in traced batches; returns the batch count."""
    session = FlexSession(
        scenario, engine="async", micro_batch_size=BATCH, live_preload=False
    )
    tracer = obs.get_tracer()
    events = scenario_event_stream(scenario, seed=9).replay_order()
    batches = 0
    for start in range(0, len(events), BATCH):
        with tracer.span("ingest.batch"):
            for event in events[start : start + BATCH]:
                session.ingest(event)
        batches += 1
    session.offers().aggregate().fetch()
    session.close()
    return batches


def main() -> None:
    OUTPUT_DIR.mkdir(exist_ok=True)
    scenario = generate_scenario(ScenarioConfig(prosumer_count=120, seed=9))

    # ------------------------------------------------------------------
    # 1. One ingest, one trace — across threads.
    # ------------------------------------------------------------------
    obs.reset()
    obs.enable()
    replay_once(scenario)
    tracer = obs.get_tracer()
    spans = tracer.finished()
    # A worker commit opened under a handed-off context has a parent: the
    # ingest span on the main thread.
    handed_off = [
        span
        for span in spans
        if span.name == "async.commit" and span.thread == WORKER and span.parent_id
    ]
    last = handed_off[-1]
    trace = tracer.finished(trace_id=last.trace_id)
    threads = {span.thread for span in trace}
    print(f"{len(spans)} spans finished; last handed-off commit = trace {last.trace_id}")
    print(
        f"  that one trace holds {len(trace)} spans across "
        f"{len(threads)} threads: {sorted(threads)}"
    )
    print("  (the async engine handed the ingesting span's TraceContext to its")
    print("   worker — the worker's commit carries that trace_id and parent_id)")
    print()
    print(obs.format_trace(spans, last.trace_id))
    print()

    # ------------------------------------------------------------------
    # 2. The artifacts: JSONL, Chrome trace_event, folded stacks.
    # ------------------------------------------------------------------
    jsonl = OUTPUT_DIR / "trace_tour.jsonl"
    flame = OUTPUT_DIR / "trace_tour.trace.json"
    folded = OUTPUT_DIR / "trace_tour.folded"
    lines = obs.export_jsonl(jsonl, obs.get_registry(), tracer)
    events = obs.export_chrome_trace(flame, spans)
    stacks = obs.write_folded(folded, spans)
    print(f"wrote {lines} JSONL records to {jsonl}")
    print(f"wrote {events} trace events to {flame}  (open in https://ui.perfetto.dev)")
    print(f"wrote {stacks} folded stacks to {folded}  (open in https://speedscope.app)")
    print()

    # ------------------------------------------------------------------
    # 3. Head-based sampling: 1-in-4 traces kept, metrics still exact.
    # ------------------------------------------------------------------
    obs.reset()
    obs.enable()
    obs.set_sampler(obs.Sampler(default_rate=4, rates={"store.checkpoint": 1}))
    batches = replay_once(scenario)
    sampled_roots = obs.get_tracer().finished(name="ingest.batch")
    commits = obs.get_registry().histogram(
        "repro.live.commit.seconds", "end-to-end commit latency (drain + publish)"
    )
    print(
        f"sampled 1-in-4: {len(sampled_roots)} of {batches} ingest traces recorded, "
        f"but the histogram still counted every one of the {commits.count} commits"
    )
    print("  (sampling thins the span log only; checkpoints would keep rate 1)")
    obs.disable()
    obs.reset()


if __name__ == "__main__":
    main()
