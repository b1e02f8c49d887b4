"""The closed-loop workloads and the durability rounds every run performs.

One client, the process's only thread, drives one ``FlexSession`` on the
``"live"`` engine: it sends its next operation only after the previous one
returned.  A second session of the same set-up is the subject of the
durability rounds (checkpoint, a logged tail of the workload's own events,
restore, compare), so checkpoint sizes do not depend on how far the timed
phase got.  Input generation happens inside a step but before its clock
starts.
"""

from __future__ import annotations

import gc
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.live.engine import canonical_form
from repro.session.facade import FlexSession
from repro.session.materialize import MaterializedView
from repro.session.spec import QuerySpec
from repro.store.recovery import EVENTS_SUBDIR, RecoveryManager
from repro.views.framework import MaterializedViewTab

from perfbench import speed
from perfbench.inputs import (
    PARAMETERS,
    Inputs,
    arrivals_spec,
    browse_specs,
    standing_spec,
)

#: Events per ingest micro-batch: the ``flexviz live --batch-size`` default.
INGEST_BATCH = 64
#: Ingest batches one session takes before a fresh session replaces it.
SESSION_BATCHES = 40
#: Reads between two browse commits, and revisions per browse commit.
BROWSE_READS_PER_COMMIT = 50
BROWSE_CHANGES = 4
#: Share of browse reads drawn from the drill-down tail.  An assumption: no
#: source gives one (see the README for how the figures move with it).
BROWSE_TAIL_SHARE = 0.05
#: A durability round's tail is this many of the workload's commit batches.
TAIL_BATCHES = 4
#: Restores per durability round, each from the round's checkpoint and tail.
RESTORES = 2

#: (start, end) of a timed operation on the :func:`perfbench.speed.now` clock.
Interval = tuple[float, float]


class Tally:
    """Operations attempted and failed over a whole run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


class Bench:
    """A session under test, its standing view and tab (if any), a segment log."""

    def __init__(self, inputs: Inputs, opened: tuple, workdir: Path, tally: Tally) -> None:
        self.inputs = inputs
        self.recovery = RecoveryManager(workdir)
        self.tally = tally
        self.recorded = 0
        self.open(opened)

    def open(self, opened: tuple) -> None:
        """Take ``opened`` (see :func:`open_session`) as the session under test.

        The segment log carries on across sessions: it holds what every
        session of the bench recorded.
        """
        self.session, self.view, self.tab = opened
        self.last_sequence = self.session.engine.engine.commit_count
        #: Every spec read, for the gate to re-check at the end of the run.
        self.specs_read: set[QuerySpec] = set()

    def close(self) -> None:
        """Close the session and drop it, so a fresh one is set up on a clean heap."""
        self.session.close()
        self.session = self.view = self.tab = None

    def record(self, events) -> None:
        self.recorded += self.recovery.record(events)

    def commit(self, events) -> Interval:
        """Ingest and commit ``events``, then redraw the tab.

        Returns the ingest-to-visible interval: from handing the first event
        to the session until the commit returned, when the snapshot is
        published and the view is maintained.
        """
        session = self.session
        started = speed.now()
        for event in events:
            session.ingest(event)
        result = session.commit()
        visible = (started, speed.now())
        self.last_sequence = result.sequence
        self.tally.attempted += len(events) + 1
        if self.tab is not None:
            self.tab.sync()
        return visible

    def read(self, spec: QuerySpec) -> Interval:
        """One ``latest`` read; returns its interval and checks its version."""
        started = speed.now()
        result = self.session.query(spec, consistency="latest")
        elapsed = (started, speed.now())
        self.tally.attempted += 1
        self.specs_read.add(spec)
        if result.version != self.last_sequence:
            self.tally.fail(
                f"read of {spec.describe()!r} served version {result.version}, "
                f"last commit was {self.last_sequence}"
            )
        return elapsed


def open_session(
    inputs: Inputs, standing_view: bool
) -> tuple[FlexSession, MaterializedView | None, MaterializedViewTab | None]:
    """Set-up as a user pays it: preloaded live session, standing view and tab."""
    session = FlexSession(inputs.scenario, engine="live", parameters=PARAMETERS)
    if not standing_view:
        return session, None, None
    view = session.materialize(standing_spec(), name="population")
    tab = session.framework().open_materialized_tab(view)
    return session, view, tab


def timed(operation: Callable[[], object]) -> tuple[object, float]:
    """Run ``operation`` on its own heap; returns (result, corrected seconds).

    After a full collection everything alive is frozen, so the collections
    ``operation`` triggers scan only what it allocated, not whatever the run
    holds at that moment.  The seconds are corrected for the box's speed
    (see :mod:`perfbench.speed`).
    """
    gc.collect()
    gc.freeze()
    try:
        started = speed.now()
        result = operation()
        return result, speed.corrected(started, speed.now())
    finally:
        gc.unfreeze()


def timed_setup(inputs: Inputs, standing_view: bool, seconds: list[float]) -> tuple:
    """:func:`open_session`, its seconds appended to ``seconds``."""
    opened, elapsed = timed(lambda: open_session(inputs, standing_view))
    seconds.append(elapsed)
    return opened


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One closed-loop client; :meth:`step` is one timed operation group."""

    #: Whether the session keeps the standing whole-population view and tab.
    standing_view = True

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        #: Ingest-to-visible and read intervals, corrected when reported.
        self.visible: list[Interval] = []
        self.read: list[Interval] = []
        self.events = 0
        self.reads = 0

    @property
    def operations(self) -> int:
        """The throughput unit ``tracing.overhead`` compares."""
        return self.events

    def tail_batch(self) -> list:
        """:data:`TAIL_BATCHES` batches of this workload's events, for a durability round."""
        raise NotImplementedError

    def due(self) -> bool:
        """Whether a fresh session should replace the current one before the next step."""
        return False

    def reopen(self, opened: tuple) -> None:
        """Go on with ``opened``, a fresh session of the same set-up."""
        self.bench.open(opened)

    def step(self) -> Interval:
        """Run one operation group; returns its timed interval."""
        raise NotImplementedError

    def _commit(self, events) -> None:
        self.visible.append(self.bench.commit(events))
        self.events += len(events)


class Ingest(Workload):
    """New offers stream in; each micro-batch is logged, committed and read.

    Every session takes the same :data:`SESSION_BATCHES` batches, the start
    of one seeded arrival stream; then a fresh session replaces it and the
    stream starts over.  So every stretch of the timed phase does the same
    work on the same population, however fast the box ran before it.
    """

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        arrivals = bench.inputs.arrivals(INGEST_BATCH, stream=0)
        self.stream = [next(arrivals) for _ in range(SESSION_BATCHES)]
        # The durability session gets its own arrivals: a state change must
        # follow its offer's arrival in the same session.
        self.tail_batches = bench.inputs.arrivals(INGEST_BATCH, stream=1)
        self.spec = arrivals_spec()
        self.session_batches = 0

    def tail_batch(self) -> list:
        return [event for _ in range(TAIL_BATCHES) for event in next(self.tail_batches)]

    def due(self) -> bool:
        return self.session_batches == SESSION_BATCHES

    def reopen(self, opened: tuple) -> None:
        super().reopen(opened)
        self.session_batches = 0

    def step(self) -> Interval:
        bench = self.bench
        batch = self.stream[self.session_batches]
        self.session_batches += 1
        started = speed.now()
        bench.record(batch)
        self._commit(batch)
        self.read.append(bench.read(self.spec))
        self.reads += 1
        return started, speed.now()


class Browse(Workload):
    """An analyst reading a cached working set while a trickle of writes lands.

    No standing view: the reads go through the result cache and snapshots,
    and the view machinery stays out of the way.
    """

    standing_view = False

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        self.hot, self.tail = browse_specs(bench.inputs)
        self.cities = sorted(bench.inputs.resident_ids_by("city").items())
        self.rng = bench.inputs.rng("browse")
        self.tail_rng = bench.inputs.rng("browse-tail")
        self.since_commit = 0

    @property
    def operations(self) -> int:
        return self.reads

    def tail_batch(self) -> list:
        return self._city_batch(TAIL_BATCHES * BROWSE_CHANGES, self.tail_rng)

    def _city_batch(self, changes: int, rng: random.Random) -> list:
        _city, ids = rng.choice(self.cities)
        return self.bench.inputs.city_batch(ids, changes, rng)

    def step(self) -> Interval:
        bench = self.bench
        rng = self.rng
        if self.since_commit >= BROWSE_READS_PER_COMMIT:
            batch = self._city_batch(BROWSE_CHANGES, rng)
            self.since_commit = 0
            started = speed.now()
            self._commit(batch)
            return started, speed.now()
        if rng.random() < BROWSE_TAIL_SHARE:
            spec = rng.choice(self.tail)
        else:
            # Uniform over the working set, as the reader pool of
            # benchmarks/bench_live_engine.py's query storm reads its specs.
            spec = rng.choice(self.hot)
        interval = bench.read(spec)
        self.read.append(interval)
        self.reads += 1
        self.since_commit += 1
        return interval


WORKLOADS: dict[str, Callable[[Bench], Workload]] = {
    "ingest": Ingest,
    "browse": Browse,
}


# ----------------------------------------------------------------------
# Durability rounds
# ----------------------------------------------------------------------
def checkpoint_bytes(directory: Path) -> int:
    """Bytes of the committed checkpoint: the manifest plus its data buffer."""
    manifest = directory / "manifest.json"
    buffer = directory / json.loads(manifest.read_text(encoding="utf-8"))["data"]
    return manifest.stat().st_size + sum(
        path.stat().st_size for path in buffer.rglob("*") if path.is_file()
    )


def log_bytes(directory: Path) -> int:
    """Bytes of the segment log (segments plus their index sidecars)."""
    return sum(
        path.stat().st_size for path in (directory / EVENTS_SUBDIR).rglob("*") if path.is_file()
    )


@dataclass
class Durability:
    """What the durability rounds measured."""

    checkpoint_s: list[float] = field(default_factory=list)
    restore_s: list[float] = field(default_factory=list)
    checkpoint_bytes: list[int] = field(default_factory=list)


def durability_round(bench: Bench, tail: list, measured: Durability) -> None:
    """Checkpoint, log and commit ``tail``, restore, and compare with the source.

    The checkpoint's log offset is passed explicitly: the log holds only what
    was recorded, not the preload the session's ingest counter includes.
    A restore is half the price of a checkpoint, so each round restores
    :data:`RESTORES` times, for as many samples of each at a similar cost.
    """
    recovery = bench.recovery
    _, elapsed = timed(lambda: recovery.checkpoint(bench.session, offset=bench.recorded))
    measured.checkpoint_s.append(elapsed)
    measured.checkpoint_bytes.append(checkpoint_bytes(recovery.directory))
    bench.tally.attempted += 1
    bench.record(tail)
    bench.commit(tail)
    for _ in range(RESTORES):
        restored, elapsed = timed(lambda: recovery.restore(scenario=bench.inputs.scenario))
        measured.restore_s.append(elapsed)
        bench.tally.attempted += 1
        problem = restore_divergence(bench.session, restored, len(tail), bench.recovery)
        if problem:
            bench.tally.fail(problem)
        restored.close()


def restore_divergence(
    source: FlexSession, restored: FlexSession, tail_events: int, recovery: RecoveryManager
) -> str:
    """Why ``restored`` differs from ``source`` (empty when it does not)."""
    report = recovery.last_restore
    if report is None or report.tail_events != tail_events:
        replayed = None if report is None else report.tail_events
        return f"restore replayed {replayed} tail events, expected {tail_events}"
    if restored.engine.offers() != source.engine.offers():
        return (
            f"restored offers differ: {len(restored.engine.offers())} restored vs "
            f"{len(source.engine.offers())} source"
        )
    restored_out = Counter(map(canonical_form, restored.engine.engine.aggregated_offers()))
    source_out = Counter(map(canonical_form, source.engine.engine.aggregated_offers()))
    if restored_out != source_out:
        return "restored aggregation outputs differ from the source session's"
    return ""


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = math.ceil(share * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]
