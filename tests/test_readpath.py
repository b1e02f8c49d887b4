"""The versioned read path: snapshots, the result cache and historical reads.

Three contracts:

* **Versioned reads rebuild exactly** — ``query(at_version=v)`` is equivalent
  to the batch pipeline rebuilt over the population that was committed at
  version ``v``, for every live-family engine.
* **Cache invalidation is offer-exact** — a commit none of whose departed or
  arrived offers match a cached entry's spec carries the entry (same object,
  a hit), even when those offers share a grid cell with the entry's offers;
  a commit changing an offer the spec matches, before or after, drops it.
  A hypothesis differential checks every cached read against a freshly
  seeded read path after every commit of random event streams.
* **The ring is bounded but pin-safe** — eviction keeps ``retain`` versions,
  never the latest or a pinned one; pins release their excess on exit.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import timedelta
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datagen.scenarios import ScenarioConfig, generate_scenario
from repro.errors import ReadPathError, SessionError
from repro.flexoffer.model import FlexOfferState
from repro.live.events import (
    OfferAdded,
    OfferStateChanged,
    OfferUpdated,
    OfferWithdrawn,
    apply_transition,
)
from repro.live.replay import scenario_event_stream
from repro.readpath import ReadPath, SnapshotManager
from repro.session import FlexSession
from repro.session.engines import BatchEngine
from repro.session.query import execute
from repro.session.spec import QuerySpec
from repro.store.recovery import RecoveryManager
from tests.conftest import make_offer

LIVE_ENGINES = ("live", "async")


@pytest.fixture(scope="module")
def small_scenario():
    return generate_scenario(ScenarioConfig(prosumer_count=30, seed=13))


def _mutated_events(scenario, seed=5):
    log = scenario_event_stream(
        scenario, update_fraction=0.3, withdraw_fraction=0.2, seed=seed
    )
    return log.replay_order()


# ----------------------------------------------------------------------
# Historical reads rebuild exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", LIVE_ENGINES)
def test_at_version_matches_batch_rebuild_at_that_commit(engine, small_scenario):
    """Every retained version answers like a batch engine over that commit's
    population — raw ids exactly, aggregation profiles modulo canonical form."""
    with FlexSession(small_scenario, engine=engine, live_preload=False) as session:
        backend = session.engine
        backend.readpath.manager.retain = 512  # keep every version for the test
        events = _mutated_events(small_scenario)
        populations = {}
        chunk = max(1, len(events) // 6)
        for start in range(0, len(events), chunk):
            session.ingest_many(events[start : start + chunk])
            session.commit()
            backend.refresh()
            version = backend.readpath.manager.latest_version
            populations[version] = list(backend.offers())
        assert len(populations) >= 4
        raw_spec = QuerySpec()
        filtered_spec = QuerySpec.build(state="assigned")
        agg_spec = QuerySpec.build(parameters=session.parameters)
        for version, offers in populations.items():
            batch = BatchEngine(
                small_scenario.replace_offers(offers), session.parameters
            )
            for spec in (raw_spec, filtered_spec, agg_spec):
                expected = execute(batch, session.grid, spec)
                observed = session.query(spec, at_version=version)
                assert observed.version == version
                assert observed.matches(expected), (
                    f"version {version} diverges from its batch rebuild for "
                    f"{spec.describe() or 'all offers'}"
                )
                if spec.parameters is None:
                    assert sorted(o.id for o in observed) == sorted(
                        o.id for o in expected
                    )


def test_at_version_is_immune_to_later_commits(small_scenario):
    """A pinned-version read keeps answering the old state after new commits."""
    with FlexSession(small_scenario, engine="live") as session:
        backend = session.engine
        version = backend.readpath.manager.latest_version
        before = session.query(QuerySpec(), at_version=version)
        victim = backend.offers()[0]
        session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
        session.commit()
        after = session.query(QuerySpec(), at_version=version)
        assert sorted(o.id for o in after) == sorted(o.id for o in before)
        assert victim.id in {o.id for o in after}
        latest = session.query(QuerySpec())
        assert victim.id not in {o.id for o in latest}
        assert latest.version > version


# ----------------------------------------------------------------------
# The query front door
# ----------------------------------------------------------------------
def test_query_modes_and_errors(small_scenario):
    with FlexSession(small_scenario, engine="live") as session:
        live_result = session.query(QuerySpec(), consistency="live")
        assert live_result.version is None  # direct path bypasses versioning
        snapshot_result = session.query(QuerySpec())
        assert snapshot_result.version is not None
        with pytest.raises(SessionError):
            session.query(QuerySpec(), consistency="eventually")
        with pytest.raises(ReadPathError):
            session.query(QuerySpec(), at_version=10_000)
        session.use_engine("batch")
        with pytest.raises(SessionError):
            session.query(QuerySpec(), at_version=0)


def test_latest_consistency_does_not_flush_pending_writes(small_scenario):
    """``consistency="latest"`` reads the published snapshot lock-free; the
    default ``"snapshot"`` mode flushes first (read-your-writes)."""
    with FlexSession(small_scenario, engine="live") as session:
        backend = session.engine
        version = backend.readpath.manager.latest_version
        victim = backend.offers()[0]
        session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
        stale = session.query(QuerySpec(), consistency="latest")
        assert stale.version == version
        assert victim.id in {o.id for o in stale}
        assert backend.engine.pending_events > 0  # genuinely did not flush
        fresh = session.query(QuerySpec())  # the default flushes
        assert fresh.version > version
        assert victim.id not in {o.id for o in fresh}


# ----------------------------------------------------------------------
# Cache invalidation exactness
# ----------------------------------------------------------------------
def _disjoint_cell_pair(engine):
    """Two populated grid cells whose prosumer sets do not intersect."""
    cells = [cell for cell in engine.cells() if engine.cell_members(cell)]
    for i, first in enumerate(cells):
        first_prosumers = {o.prosumer_id for o in engine.cell_members(first)}
        for second in cells[i + 1 :]:
            second_prosumers = {o.prosumer_id for o in engine.cell_members(second)}
            if first_prosumers.isdisjoint(second_prosumers):
                return first, second
    pytest.skip("scenario produced no prosumer-disjoint cell pair")


def test_untouched_cells_survive_commits_as_hits(small_scenario):
    with FlexSession(small_scenario, engine="live") as session:
        backend = session.engine
        engine = backend.engine
        cache = backend.readpath.cache
        ours, theirs = _disjoint_cell_pair(engine)
        our_prosumers = sorted({o.prosumer_id for o in engine.cell_members(ours)})
        spec = QuerySpec.build(
            prosumer_id=our_prosumers, parameters=session.parameters
        )
        first = session.query(spec)
        assert session.query(spec) is first  # same version: a plain hit
        # A commit dirtying only the *other* cell carries the entry.
        victim = engine.cell_members(theirs)[0]
        session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
        session.commit()
        carried = session.query(spec)
        assert carried is first
        # The carry re-stamped the result at the new version.
        assert carried.version == backend.readpath.manager.latest_version
        assert cache.carried >= 1
        # A commit dirtying *our* cell invalidates: the next read recomputes.
        ours_victim = engine.cell_members(ours)[0]
        session.ingest(OfferWithdrawn(ours_victim.creation_time, ours_victim.id))
        session.commit()
        recomputed = session.query(spec)
        assert recomputed is not first
        assert ours_victim.id not in {
            o.id for group in recomputed.constituents.values() for o in group
        } | {o.id for o in recomputed}
        assert cache.invalidations >= 1
        stats = cache.stats()
        assert stats["hits"] >= 2 and stats["misses"] >= 2


def test_withdraw_from_fully_skipped_chunk_invalidates_entry(small_scenario):
    """A withdrawal whose cell re-aggregated *zero* chunks must still drop
    the cached entry — never carry/re-stamp it to the new version.

    Deterministic setup: five identical-cell offers under
    ``max_group_size=2`` chunk as [1,2], [3,4], [5].  Withdrawing id 5
    retires its singleton chunk alone — the surviving chunks are untouched,
    so the commit reports ``chunks_reaggregated == 0`` — yet the entry's
    matched set contained id 5, so carrying it would serve a withdrawn offer
    at the new version.  The new snapshot's diff against the previous one
    (which still held id 5) puts id 5's object in ``departed``, and the spec
    matches it, which is exactly what makes this sound; this test pins that
    behaviour.
    """
    from repro.aggregation.parameters import AggregationParameters

    scenario = small_scenario.replace_offers([])
    parameters = AggregationParameters(max_group_size=2)
    with FlexSession(
        scenario, engine="live", parameters=parameters, live_preload=False
    ) as session:
        offers = [
            make_offer(offer_id=i, earliest_start=40, time_flexibility=8)
            for i in range(1, 6)
        ]
        for offer in offers:
            session.ingest(OfferAdded(offer.creation_time, offer))
        session.commit()
        cache = session.engine.readpath.cache
        spec = QuerySpec()
        first = session.query(spec)  # miss + fill
        assert session.query(spec) is first  # cached
        assert 5 in {o.id for o in first.offers}
        invalidations_before = cache.invalidations
        result = session.ingest(
            OfferWithdrawn(offers[-1].assignment_deadline, 5)
        ) or session.commit()
        # The precondition that makes this the dangerous case: the withdrawal
        # retired the [5] chunk alone, nothing was re-aggregated.
        assert result.chunks_reaggregated == 0
        assert result.chunks_skipped > 0
        assert [o.id for o in result.removed] == [5]
        # The entry must have been invalidated, not carried/re-stamped.
        assert cache.invalidations == invalidations_before + 1
        recomputed = session.query(spec)
        assert recomputed is not first
        assert recomputed.version == session.engine.readpath.manager.latest_version
        assert sorted(o.id for o in recomputed.offers) == [1, 2, 3, 4]


def _session_over(scenario, offers):
    """A live session over exactly ``offers``, committed once."""
    session = FlexSession(scenario.replace_offers([]), engine="live", live_preload=False)
    for offer in offers:
        session.ingest(OfferAdded(offer.creation_time, offer))
    session.commit()
    return session


def _commit_counting(session, *events):
    """Ingest ``events``, commit, and return the (carried, invalidated) deltas."""
    cache = session.engine.readpath.cache
    carried, invalidations = cache.carried, cache.invalidations
    for event in events:
        session.ingest(event)
    session.commit()
    return cache.carried - carried, cache.invalidations - invalidations


def test_revision_carries_other_district_sharing_its_cell(small_scenario):
    """Two districts share one grid cell: revising an offer in one of them
    carries the other district's raw and aggregated entries and drops its own."""
    offers = [
        make_offer(offer_id=1, prosumer_id=1, district="North"),
        make_offer(offer_id=2, prosumer_id=2, district="North"),
        make_offer(offer_id=3, prosumer_id=3, district="South"),
        make_offer(offer_id=4, prosumer_id=4, district="South"),
    ]
    with _session_over(small_scenario, offers) as session:
        engine = session.engine.engine
        assert len({engine.cell_of(offer.id) for offer in offers}) == 1
        specs = {
            (district, parameters): QuerySpec.build(
                district=district, parameters=parameters
            )
            for district in ("North", "South")
            for parameters in (None, session.parameters)
        }
        first = {key: session.query(spec) for key, spec in specs.items()}
        revised = make_offer(
            offer_id=3, prosumer_id=3, district="South", profile=((2.0, 4.0), (1.0, 1.0))
        )
        cell = engine.cell_of(3)
        event = OfferUpdated(revised.creation_time, revised)
        assert _commit_counting(session, event) == (2, 2)
        assert engine.cell_of(3) == cell  # an in-place revision
        for key, spec in specs.items():
            served = session.query(spec)
            if key[0] == "North":
                assert served is first[key]
            else:
                assert served is not first[key]
        raw_south = session.query(specs[("South", None)])
        assert any(offer is revised for offer in raw_south.offers)


def test_cell_migration_invalidates_specs_matching_old_or_new_object(small_scenario):
    """A revision that moves an offer to another cell (and district) drops the
    entries matching its old or its new object and carries the co-members'."""
    offers = [
        make_offer(offer_id=1, prosumer_id=1, district="North", earliest_start=40),
        make_offer(offer_id=2, prosumer_id=2, district="South", earliest_start=40),
        make_offer(offer_id=3, prosumer_id=3, district="East", earliest_start=120),
    ]
    with _session_over(small_scenario, offers) as session:
        engine = session.engine.engine
        specs = {
            district: QuerySpec.build(district=district)
            for district in ("North", "South", "East", "West")
        }
        first = {district: session.query(spec) for district, spec in specs.items()}
        assert len(first["West"]) == 0
        moved = make_offer(offer_id=1, prosumer_id=1, district="West", earliest_start=120)
        event = OfferUpdated(moved.creation_time, moved)
        assert _commit_counting(session, event) == (2, 2)
        assert engine.cell_of(1) == engine.cell_of(3) != engine.cell_of(2)
        assert session.query(specs["South"]) is first["South"]
        assert session.query(specs["East"]) is first["East"]
        assert len(session.query(specs["North"])) == 0
        assert [offer.id for offer in session.query(specs["West"])] == [1]


def test_state_change_out_of_a_state_spec_invalidates_it(small_scenario):
    """Accepting an offer drops the ``offered`` and ``accepted`` entries and
    carries a state spec neither of its objects matches."""
    offers = [
        make_offer(offer_id=1, prosumer_id=1),
        make_offer(offer_id=2, prosumer_id=2),
    ]
    with _session_over(small_scenario, offers) as session:
        specs = {
            state: QuerySpec.build(state=state)
            for state in ("offered", "accepted", "rejected")
        }
        first = {state: session.query(spec) for state, spec in specs.items()}
        assert len(first["offered"]) == 2
        event = OfferStateChanged(offers[0].creation_time, 1, FlexOfferState.ACCEPTED)
        assert _commit_counting(session, event) == (1, 2)
        assert session.query(specs["rejected"]) is first["rejected"]
        assert [offer.id for offer in session.query(specs["offered"])] == [2]
        assert [offer.id for offer in session.query(specs["accepted"])] == [1]


def test_passthrough_change_and_removal_drop_only_matching_specs(small_scenario):
    """A revised or withdrawn passthrough aggregate drops exactly the entries
    whose specs match it; raw offers sharing nothing with it stay carried."""

    def aggregate(offer_id, district):
        return replace(
            make_offer(offer_id=offer_id, district=district),
            is_aggregate=True,
            constituent_ids=(7, 8),
        )

    offers = [
        make_offer(offer_id=1, prosumer_id=1, district="North"),
        make_offer(offer_id=2, prosumer_id=2, district="South"),
        aggregate(50, "North"),
        aggregate(60, "East"),
    ]
    with _session_over(small_scenario, offers) as session:
        specs = {
            district: QuerySpec.build(district=district)
            for district in ("North", "South", "East")
        }
        first = {district: session.query(spec) for district, spec in specs.items()}
        assert {offer.id for offer in first["North"]} == {1, 50}
        revised = replace(offers[3], price_per_kwh=0.75)
        event = OfferUpdated(revised.creation_time, revised)
        assert _commit_counting(session, event) == (2, 1)
        assert session.query(specs["North"]) is first["North"]
        assert session.query(specs["South"]) is first["South"]
        east = session.query(specs["East"])
        assert east is not first["East"] and list(east.offers) == [revised]
        withdrawn = OfferWithdrawn(offers[2].assignment_deadline, 50)
        assert _commit_counting(session, withdrawn) == (2, 1)
        assert session.query(specs["South"]) is first["South"]
        assert session.query(specs["East"]) is east
        assert [offer.id for offer in session.query(specs["North"])] == [1]


# ----------------------------------------------------------------------
# Differential: cached reads against a freshly seeded read path
# ----------------------------------------------------------------------
ADD, REVISE, MIGRATE, TRANSITION, WITHDRAW, COMMIT = range(6)
_DISTRICTS = ("North", "South", "East")

_streams = st.lists(
    st.tuples(
        st.sampled_from((ADD, ADD, REVISE, MIGRATE, TRANSITION, WITHDRAW, COMMIT, COMMIT)),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=4,
    max_size=40,
)


def _spec_pool(parameters) -> list[QuerySpec]:
    """District, state and aggregated specs, plus the untouched anchor's."""
    pool = [QuerySpec.build(district=district) for district in _DISTRICTS + ("Anchor",)]
    pool += [QuerySpec.build(state=state) for state in ("offered", "accepted", "rejected")]
    pool += [
        QuerySpec.build(district=district, parameters=parameters)
        for district in _DISTRICTS + ("Anchor",)
    ]
    pool.append(QuerySpec.build(parameters=parameters))
    return pool


def _check_cached_reads(session, pool) -> None:
    """Every pooled ``latest`` read against a read path seeded from the engine."""
    backend = session.engine
    fresh = ReadPath(backend.grid, backend.name, backend.parameters)
    snapshot = fresh.seed(backend.engine)
    for spec in pool:
        served = session.query(spec, consistency="latest")
        expected = fresh.read(snapshot, spec)
        assert served.version == backend.readpath.manager.latest_version
        assert served.matches(expected), f"cached read of {spec.describe()!r} diverged"
        if spec.parameters is None:
            assert [o.id for o in served] == [o.id for o in expected]


@pytest.mark.parametrize("engine", ("live",))
@given(stream=_streams)
def test_cached_reads_match_a_fresh_read_path_after_every_commit(
    small_scenario, engine, stream
):
    """Random add / in-place revise / cell-migrating revise / state change /
    withdraw streams, passthrough aggregates included: after every commit each
    cached spec reads like a read path seeded from the engine from scratch."""
    anchor = make_offer(offer_id=1, prosumer_id=99, district="Anchor")
    with FlexSession(
        small_scenario.replace_offers([]), engine=engine, live_preload=False
    ) as session:
        session.ingest(OfferAdded(anchor.creation_time, anchor))
        session.commit()
        pool = _spec_pool(session.parameters)
        _check_cached_reads(session, pool)
        cache = session.engine.readpath.cache
        carried_before = cache.carried
        population: dict[int, object] = {}
        next_id = 2
        for op, selector in stream + [(ADD, 0), (COMMIT, 0)]:
            if op == COMMIT:
                session.commit()
                _check_cached_reads(session, pool)
                continue
            if op == ADD or not population:
                offer = make_offer(
                    offer_id=next_id,
                    prosumer_id=selector % 5 + 1,
                    earliest_start=36 + selector % 12,
                    time_flexibility=4 + selector % 6,
                    district=_DISTRICTS[selector % 3],
                )
                if selector % 7 == 0:
                    offer = replace(offer, is_aggregate=True, constituent_ids=(7, 8))
                next_id += 1
                population[offer.id] = offer
                session.ingest(OfferAdded(offer.creation_time, offer))
                continue
            target = sorted(population)[selector % len(population)]
            current = population[target]
            if op == REVISE:  # same cell: only non-grouping attributes move
                revised = replace(
                    current,
                    district=_DISTRICTS[selector % 3],
                    price_per_kwh=current.price_per_kwh + 0.25,
                )
                event = OfferUpdated(current.creation_time, revised)
            elif op == MIGRATE:
                shift = 4 + selector % 8
                revised = replace(
                    current,
                    earliest_start_slot=current.earliest_start_slot + shift,
                    latest_start_slot=current.latest_start_slot + shift,
                )
                event = OfferUpdated(current.creation_time, revised)
            elif op == TRANSITION and current.state is FlexOfferState.OFFERED:
                state = (FlexOfferState.ACCEPTED, FlexOfferState.REJECTED)[selector % 2]
                revised = apply_transition(current, state)
                event = OfferStateChanged(current.creation_time, target, state)
            elif op == WITHDRAW:
                del population[target]
                session.ingest(
                    OfferWithdrawn(current.assignment_deadline + timedelta(minutes=15), target)
                )
                continue
            else:
                continue
            population[target] = revised
            session.ingest(event)
        assert cache.carried > carried_before  # the anchor's entries, at least


def test_cache_entry_version_follows_carries(small_scenario):
    """A carried entry serves the *new* version — stats agree with the facade."""
    with FlexSession(small_scenario, engine="live") as session:
        backend = session.engine
        spec = QuerySpec.build(state="assigned")
        session.query(spec)
        summary = session.summary()
        assert summary["snapshot_version"] == backend.readpath.manager.latest_version
        assert summary["result_cache"]["entries"] >= 1
        assert summary["result_cache"]["version"] == summary["snapshot_version"]


# ----------------------------------------------------------------------
# Ring retention and pinning
# ----------------------------------------------------------------------
def test_ring_eviction_respects_pins_and_latest():
    manager = SnapshotManager(retain=3)
    for version in range(1, 5):
        manager.publish(SimpleNamespace(version=version))
    assert manager.versions() == (2, 3, 4)
    with pytest.raises(ReadPathError):
        manager.publish(SimpleNamespace(version=4))  # versions must increase
    with manager.pin(2) as pinned:
        assert pinned.version == 2
        assert manager.pin_count(2) == 1
        for version in (5, 6, 7):
            manager.publish(SimpleNamespace(version=version))
        # Eviction went around the pinned version: it survives, the ring
        # stays at budget by dropping the unpinned middle versions instead.
        assert manager.versions() == (2, 6, 7)
        assert manager.get(2).version == 2
    # Pin released: version 2 is ordinary again — the next publication
    # evicts it as the oldest unpinned entry.
    manager.publish(SimpleNamespace(version=8))
    assert 2 not in manager.versions()
    assert len(manager.versions()) <= 3
    assert manager.latest_version == 8
    with pytest.raises(ReadPathError):
        manager.get(2)
    with pytest.raises(ReadPathError):
        manager.pin(2).__enter__()


def test_ring_overfills_under_pins_and_reclaims_on_release():
    manager = SnapshotManager(retain=2)
    manager.publish(SimpleNamespace(version=1))
    manager.publish(SimpleNamespace(version=2))
    with manager.pin(1):
        with manager.pin(2):
            manager.publish(SimpleNamespace(version=3))
            # Everything old is pinned: the ring holds above retain.
            assert manager.versions() == (1, 2, 3)
        # Releasing one pin reclaims the excess immediately (3 is latest).
        assert manager.versions() == (1, 3)
    manager.publish(SimpleNamespace(version=4))
    assert manager.versions() == (3, 4)


def test_session_ring_is_bounded_and_old_versions_evict(small_scenario):
    with FlexSession(small_scenario, engine="live") as session:
        backend = session.engine
        first_version = backend.readpath.manager.latest_version
        offers = backend.offers()
        for victim in offers[:12]:
            session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
            session.commit()
        retained = backend.readpath.manager.versions()
        assert len(retained) <= backend.readpath.manager.retain
        assert first_version not in retained
        with pytest.raises(ReadPathError):
            session.query(QuerySpec(), at_version=first_version)


# ----------------------------------------------------------------------
# Satellite 2: cumulative session totals across engine swaps
# ----------------------------------------------------------------------
def test_engine_swap_keeps_cumulative_session_totals(small_scenario):
    """``use_engine``/``replay(engine=...)`` must never silently reset the
    session's events-ingested and chunk totals (regression for the swap bug)."""
    with FlexSession(small_scenario, engine="live") as session:
        live_totals = session.summary()
        assert live_totals["events_ingested"] == session.engine.events_ingested
        assert live_totals["chunks_reaggregated"] > 0
        events = _mutated_events(small_scenario, seed=9)
        half = len(events) // 2
        session.replay(events[:half], engine="async", reset=True)
        replayed = session.summary()
        # Both backends contribute: the live totals survive the swap.
        assert replayed["events_ingested"] == live_totals["events_ingested"] + half
        assert replayed["chunks_reaggregated"] > live_totals["chunks_reaggregated"]
        session.use_engine("live")
        swapped = session.summary()
        assert swapped["events_ingested"] == replayed["events_ingested"]
        assert swapped["chunks_reaggregated"] == replayed["chunks_reaggregated"]
        session.use_engine("batch")
        assert "events_ingested" not in session.summary()


# ----------------------------------------------------------------------
# Store integration: restore re-seeds the snapshot sequence
# ----------------------------------------------------------------------
def test_restore_seeds_snapshot_version_from_checkpoint(tmp_path, small_scenario):
    events = _mutated_events(small_scenario, seed=3)
    cut = len(events) // 2
    with FlexSession(small_scenario, engine="live", live_preload=False) as session:
        session.replay(events[:cut])
        manager = RecoveryManager(tmp_path / "store")
        manager.record(events)
        manager.checkpoint(session)
        checkpoint_commits = session.engine._state_engine.commit_count
    restored = RecoveryManager(tmp_path / "store").restore(scenario=small_scenario)
    try:
        backend = restored.engine
        # The baseline snapshot continued the checkpoint's commit sequence and
        # the tail replay advanced it — never a restart from zero.
        assert backend.readpath.manager.latest_version == (
            backend._state_engine.commit_count
        )
        assert backend.readpath.manager.latest_version >= checkpoint_commits
        result = restored.query(QuerySpec())
        assert result.version == backend.readpath.manager.latest_version
        assert sorted(o.id for o in result) == sorted(
            o.id for o in backend.offers()
        )
    finally:
        restored.close()
