"""Correctness oracles run after the timed phase, outside every timer.

Each check is one attempted operation; a failing check is one failed
operation and makes the run incorrect.  The per-read version check and the
per-restore comparison run where those operations happen (see
:mod:`perfbench.workloads`).

What a read should return comes from two references that bypass the
result cache and the chain of advanced snapshots the benchmarked reads go
through: a read path rebuilt from the engine's committed state (cheap, so
every spec the run read is checked against it), and a ``consistency="live"``
query answered from the engine directly (about ten times dearer, so the view
and an even sample of :data:`LIVE_SAMPLE` read specs are checked against it).
"""

from __future__ import annotations

from repro.errors import LiveEngineError
from repro.live.engine import assert_batch_equivalent
from repro.readpath.publisher import ReadPath

from perfbench.workloads import Bench

#: Read specs checked against a ``live`` query, spread evenly over the specs
#: the run read.
LIVE_SAMPLE = 24


def check(bench: Bench) -> None:
    """Run every end-of-run oracle against ``bench``, recording failures on it."""
    checks = [engine_divergence]
    if bench.view is not None:
        checks += [view_divergence, tab_divergence]
    problems = [check_one(bench) for check_one in checks]
    problems += read_divergences(bench)
    for problem in problems:
        bench.tally.attempted += 1
        if problem:
            bench.tally.fail(problem)


def engine_divergence(bench: Bench) -> str:
    """The live engine's committed outputs against the batch pipeline."""
    try:
        assert_batch_equivalent(bench.session.engine.engine)
    except LiveEngineError as exc:
        return str(exc)
    return ""


def view_divergence(bench: Bench) -> str:
    """The materialized view against a fresh query of its spec, at the last commit."""
    view = bench.view
    if view.version != bench.last_sequence:
        return f"view {view.name!r} at version {view.version}, last commit {bench.last_sequence}"
    fresh = bench.session.query(view.spec, consistency="live")
    if not view.result.matches(fresh):
        return (
            f"view {view.name!r} holds {len(view.result)} outputs, "
            f"a fresh query returns {len(fresh)}"
        )
    return ""


def tab_divergence(bench: Bench) -> str:
    """The tab's offers against the view it mirrors (synced after every commit)."""
    if bench.tab.offers != list(bench.view.result.offers):
        return (
            f"tab holds {len(bench.tab.offers)} offers, "
            f"its view {len(bench.view.result.offers)}"
        )
    return ""


def read_divergences(bench: Bench) -> list[str]:
    """Every spec the run read, as a ``latest`` read serves it now, against the references.

    A ``latest`` read is served from the result cache when the spec's entry
    was carried across the commits, so a wrongly carried entry shows here;
    the per-read version check cannot see one, because the cache re-stamps a
    carried entry to the new version itself.
    """
    backend = bench.session.engine
    rebuilt = ReadPath(backend.grid, backend.name, backend.parameters)
    snapshot = rebuilt.seed(backend.engine)
    specs = sorted(bench.specs_read, key=repr)
    step = max(1, len(specs) // LIVE_SAMPLE)
    problems = []
    for index, spec in enumerate(specs):
        served = bench.session.query(spec, consistency="latest")
        references = [("a rebuilt read path", rebuilt.read(snapshot, spec))]
        if index % step == 0:
            references.append(("a live query", bench.session.query(spec, consistency="live")))
        problem = ""
        for source, expected in references:
            if not served.matches(expected):
                problem = (
                    f"read of {spec.describe()!r} returns {len(served)} outputs, "
                    f"{source} {len(expected)}"
                )
                break
        problems.append(problem)
    return problems
