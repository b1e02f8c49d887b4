"""The black-box concurrent-read checker (the SI-paper proof obligation).

Reader threads race a committing engine, and every read records a
``(version observed, canonical result)`` pair.  Afterwards the history is
verified against the retained snapshots, the way the snapshot-isolation
checker in PAPERS.md treats a database as a black box:

* **Atomicity** — every observed result must be *bit-identical* to a
  from-scratch execution of the same spec against the snapshot of the
  version it claims to have read.  A reader that saw half a commit (some
  cells from version ``v``, some from ``v+1``) cannot pass this, because no
  single committed snapshot produces its result.
* **Monotonic reads** — the versions one thread observes never decrease; a
  reader never travels back in time across its own reads.

Violations come back as human-readable strings (empty list = the history is
clean), so test failures say exactly which read tore.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import ReadPathError
from repro.session.query import execute

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.spec import QuerySpec, ResultSet


@dataclass(frozen=True)
class ReadObservation:
    """One recorded read: who read, in what order, and what they saw."""

    thread: int
    sequence: int
    version: int | None
    spec: "QuerySpec"
    canonical: Counter


@dataclass
class ReadHistory:
    """A thread-safe recorder of concurrent read observations."""

    observations: list[ReadObservation] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(
        self, thread: int, sequence: int, spec: "QuerySpec", result: "ResultSet"
    ) -> None:
        observation = ReadObservation(
            thread=thread,
            sequence=sequence,
            version=result.version,
            spec=spec,
            canonical=result.canonical(),
        )
        with self._lock:
            self.observations.append(observation)

    def __len__(self) -> int:
        return len(self.observations)


def run_concurrent_readers(
    session,
    specs: Sequence["QuerySpec"],
    threads: int = 4,
    reads_per_thread: int = 25,
    consistency: str = "latest",
) -> ReadHistory:
    """Spawn reader threads over ``session`` and record what each one saw.

    Readers use ``consistency="latest"`` by default — the lock-free mode that
    does *not* flush, so they genuinely race whatever is committing
    underneath (the async worker, or a writer thread driving a sync engine).
    """
    history = ReadHistory()
    errors: list[BaseException] = []

    def reader(thread_id: int) -> None:
        try:
            for index in range(reads_per_thread):
                spec = specs[(thread_id + index) % len(specs)]
                result = session.query(spec, consistency=consistency)
                history.record(thread_id, index, spec, result)
        except BaseException as exc:  # pragma: no cover - surfaced by caller
            errors.append(exc)

    workers = [
        threading.Thread(target=reader, args=(thread_id,), name=f"reader-{thread_id}")
        for thread_id in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    return history


def verify_history(history: ReadHistory, backend) -> list[str]:
    """Check a recorded history for torn reads and time travel.

    ``backend`` is the live-family session backend the readers queried; its
    retained snapshots are the ground truth.  Reads whose version has been
    evicted from the ring are skipped for the atomicity check (raise the
    manager's ``retain`` in tests that want full coverage) but still count
    for monotonicity.
    """
    violations: list[str] = []
    readpath = backend.readpath
    verified: dict[tuple[int, "QuerySpec"], Counter] = {}
    for observation in history.observations:
        if observation.version is None:
            violations.append(
                f"thread {observation.thread} read #{observation.sequence} "
                "carried no snapshot version"
            )
            continue
        key = (observation.version, observation.spec)
        expected = verified.get(key)
        if expected is None:
            try:
                snapshot = readpath.manager.get(observation.version)
            except ReadPathError:
                continue  # evicted: unverifiable, not a violation
            expected = execute(snapshot, readpath.grid, observation.spec).canonical()
            verified[key] = expected
        if observation.canonical != expected:
            violations.append(
                f"torn read: thread {observation.thread} read #{observation.sequence} "
                f"at version {observation.version} does not match that committed "
                "snapshot"
            )
    by_thread: dict[int, list[ReadObservation]] = {}
    for observation in history.observations:
        by_thread.setdefault(observation.thread, []).append(observation)
    for thread_id, observations in by_thread.items():
        observations.sort(key=lambda observation: observation.sequence)
        last: int | None = None
        for observation in observations:
            if observation.version is None:
                continue
            if last is not None and observation.version < last:
                violations.append(
                    f"time travel: thread {thread_id} read #{observation.sequence} "
                    f"went from version {last} back to {observation.version}"
                )
            last = observation.version
    return violations
