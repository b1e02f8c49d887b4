"""Seeded inputs: the resident population, the event batches and the read specs.

Everything here runs before any timer starts.  The base scenario
(``prosumers`` prosumers, generated with :data:`SCENARIO_SEED`) and its
replication to ``resident`` offers under fresh ids are the same in every
run, so every run measures the same population.  The run's seed fixes every
random choice the traffic makes: which offers arrive and how they are
revised, decided and withdrawn, which specs are read, which city is revised.
The same seed always yields the same inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.aggregation.parameters import AggregationParameters
from repro.datagen.scenarios import Scenario, ScenarioConfig, generate_scenario
from repro.flexoffer.model import FlexOffer, FlexOfferState, ProfileSlice
from repro.live.events import OfferEvent, OfferUpdated
from repro.live.replay import scenario_event_stream
from repro.session.spec import QuerySpec

#: Grouping parameters of every session and every aggregating read.
PARAMETERS = AggregationParameters(max_group_size=64)

#: Seed of the base scenario; the run's own seed drives the traffic.
SCENARIO_SEED = 0

#: Shares of new offers revised and withdrawn in the ingest stream: the
#: ``flexviz live`` command's ``--update`` and ``--withdraw`` defaults.
UPDATE_FRACTION = 0.1
WITHDRAW_FRACTION = 0.05
#: Ids of arrival stream ``n`` are ``(n + 1) * STREAM_IDS`` and up: above
#: every resident id, below the live engine's aggregate ids (1 000 000 and up).
STREAM_IDS = 200_000


@dataclass(frozen=True)
class Size:
    """How big a run is; :data:`FULL` is what the benchmark measures."""

    prosumers: int
    resident: int


FULL = Size(prosumers=1000, resident=10_000)
#: The size the self-tests run at.
TINY = Size(prosumers=40, resident=300)


class Inputs:
    """The base scenario, resident population and one seed's random streams."""

    def __init__(self, seed: int, size: Size = FULL) -> None:
        self.seed = seed
        self.size = size
        base = generate_scenario(
            ScenarioConfig(prosumer_count=size.prosumers, seed=SCENARIO_SEED)
        )
        self.base: list[FlexOffer] = sorted(base.flex_offers, key=lambda offer: offer.id)
        resident = [self.replica(offer_id) for offer_id in range(1, size.resident + 1)]
        #: The scenario every session of the run is opened over.
        self.scenario: Scenario = base.replace_offers(resident)

    def rng(self, stream: str) -> random.Random:
        """The random source of one named stream of choices.

        Each stream (the timed phase's, the durability rounds') draws from its
        own source, so what one stream gets does not depend on how far the
        other got when the clock stopped it.
        """
        return random.Random(f"{self.seed}/{stream}")

    # ------------------------------------------------------------------
    # Offers
    # ------------------------------------------------------------------
    def _base_of(self, offer_id: int) -> FlexOffer:
        return self.base[(offer_id - 1) % len(self.base)]

    def replica(self, offer_id: int) -> FlexOffer:
        """Resident offer ``offer_id``: a copy of a base offer under that id."""
        return replace(self._base_of(offer_id), id=offer_id)

    def revised(self, offer_id: int, rng: random.Random) -> FlexOffer:
        """An in-place revision: wider energy band and a new price, same slots.

        The slots decide the grouping cell, so the offer stays in its cell;
        the band only widens around the base profile, so any schedule built
        from the base offer stays feasible.
        """
        base = self._base_of(offer_id)
        low = rng.uniform(0.85, 1.0)
        high = rng.uniform(1.0, 1.15)
        profile = tuple(
            ProfileSlice(piece.min_energy * low, piece.max_energy * high, piece.duration_slots)
            for piece in base.profile
        )
        return replace(
            base,
            id=offer_id,
            state=FlexOfferState.OFFERED,
            schedule=None,
            profile=profile,
            price_per_kwh=base.price_per_kwh * rng.uniform(0.9, 1.1),
        )

    # ------------------------------------------------------------------
    # Event batches
    # ------------------------------------------------------------------
    def arrivals(self, batch_events: int, stream: int) -> Iterator[list[OfferEvent]]:
        """Endless micro-batches of ``batch_events`` events about new offers.

        The stream is the repository's own event model,
        :func:`repro.live.replay.scenario_event_stream` with the
        ``flexviz live`` defaults (``update_fraction=0.1``,
        ``withdraw_fraction=0.05``), run over one copy of the base scenario
        after another, each copy under fresh ids.  Every offer arrives as
        ``OfferAdded``; most get an ``OfferStateChanged`` later, some an
        ``OfferUpdated`` in between, some an ``OfferWithdrawn``.  Streams
        with different ``stream`` numbers use disjoint ids.
        """
        events = itertools.chain.from_iterable(self._arrival_blocks(stream))
        while True:
            yield list(itertools.islice(events, batch_events))

    def _arrival_blocks(self, stream: int) -> Iterator[Iterable[OfferEvent]]:
        rng = self.rng(f"arrivals-{stream}")
        first = (stream + 1) * STREAM_IDS
        while True:
            if first + len(self.base) > (stream + 2) * STREAM_IDS:
                raise RuntimeError(f"arrival stream {stream} ran out of ids")
            copy = self.scenario.replace_offers(
                [replace(offer, id=first + index) for index, offer in enumerate(self.base)]
            )
            first += len(self.base)
            yield scenario_event_stream(
                copy,
                update_fraction=UPDATE_FRACTION,
                withdraw_fraction=WITHDRAW_FRACTION,
                seed=rng.randrange(2**32),
            )

    def city_batch(
        self, city_ids: list[int], changes: int, rng: random.Random
    ) -> list[OfferEvent]:
        """``changes`` in-place revisions of offers drawn from one city."""
        events: list[OfferEvent] = []
        for offer_id in rng.sample(city_ids, min(changes, len(city_ids))):
            offer = self.revised(offer_id, rng)
            events.append(OfferUpdated(offer.creation_time, offer))
        return events

    def resident_ids_by(self, field_name: str) -> dict[str, list[int]]:
        """Resident ids grouped by one offer attribute (e.g. ``"city"``)."""
        groups: dict[str, list[int]] = {}
        for offer in self.scenario.flex_offers:
            groups.setdefault(getattr(offer, field_name), []).append(offer.id)
        return groups


# ----------------------------------------------------------------------
# Read specs
# ----------------------------------------------------------------------
def arrivals_spec() -> QuerySpec:
    """Offers still awaiting a decision, aggregated: the ingest dashboard panel."""
    return QuerySpec.build(state="offered", parameters=PARAMETERS)


def standing_spec() -> QuerySpec:
    """The whole population, aggregated: the materialized view every workload keeps."""
    return QuerySpec.build(parameters=PARAMETERS)


def browse_specs(inputs: Inputs) -> tuple[list[QuerySpec], list[QuerySpec]]:
    """(working set, drill-down tail) of the browsing analyst.

    The working set — one raw and one aggregated panel per district, largest
    districts first — fits the result cache.  The tail re-aggregates
    districts under other grouping tolerances, as an analyst tuning the
    aggregation parameters would; with it the specs outnumber the cache's
    entries, so evictions can show.
    """
    by_size = sorted(
        inputs.resident_ids_by("district").items(), key=lambda item: (-len(item[1]), item[0])
    )
    hot = [
        spec
        for district, _ids in by_size
        for spec in (
            QuerySpec.build(district=district),
            QuerySpec.build(district=district, parameters=PARAMETERS),
        )
    ]
    tolerances = [
        AggregationParameters(est, flexibility, max_group_size=PARAMETERS.max_group_size)
        for est in (2, 8)
        for flexibility in (2, 8)
    ]
    tail = [
        QuerySpec.build(district=district, parameters=parameters)
        for district, _ids in by_size
        for parameters in tolerances
    ]
    return hot, tail
