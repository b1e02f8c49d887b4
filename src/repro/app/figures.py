"""Regeneration of every figure of the paper.

One function per figure (1-11) builds the corresponding view from a synthetic
scenario and returns a :class:`FigureArtifact` bundling the renderable object,
the SVG string and the headline numbers the figure conveys.  The benchmark
harness, the CLI (``flexviz figures``) and the examples all call these
functions, so paper figures are regenerated from a single code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.aggregation.parameters import AggregationParameters
from repro.datagen.scenarios import Scenario, ScenarioConfig, generate_scenario
from repro.enterprise.planning import PlanningReport, run_planning_cycle
from repro.flexoffer.model import count_by_state
from repro.render.svg import render_svg
from repro.scheduling.greedy import GreedyScheduler
from repro.views.aggregation_panel import AggregationPanel, AggregationPanelView
from repro.views.basic import BasicView, BasicViewOptions
from repro.views.dashboard import BalanceView, BalanceViewOptions, DashboardOptions, DashboardView
from repro.views.framework import VisualAnalysisFramework
from repro.views.map_view import MapView
from repro.views.pivot_view import PivotView, PivotViewOptions
from repro.views.profile_view import ProfileView, ProfileViewOptions
from repro.views.schematic import SchematicView
from repro.views.selection import SelectionRectangle
from repro.views.tooltip import describe, overlay


@dataclass
class FigureArtifact:
    """One regenerated figure: its id, SVG document and headline numbers."""

    figure_id: str
    title: str
    svg: str
    summary: dict[str, Any] = field(default_factory=dict)

    def save(self, directory: str) -> str:
        """Write the SVG under ``directory`` and return the file path."""
        from pathlib import Path

        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        path = target / f"{self.figure_id}.svg"
        path.write_text(self.svg, encoding="utf-8")
        return str(path)


def default_scenario(seed: int = 42) -> Scenario:
    """The scenario the figure functions use unless one is supplied."""
    return generate_scenario(ScenarioConfig(prosumer_count=200, seed=seed))


def _scenario_of(source) -> Scenario:
    """Normalize a figure source — ``Scenario``, ``FlexSession`` or ``None``.

    Every figure builder accepts either shape, so callers that have moved to
    the session facade pass it straight through while pre-session code keeps
    passing scenarios.
    """
    if source is None:
        return default_scenario()
    scenario = getattr(source, "scenario", None)
    return scenario if isinstance(scenario, Scenario) else source


# ----------------------------------------------------------------------
# Figure 1 — loads before and after balancing
# ----------------------------------------------------------------------
def figure_1(scenario: Scenario | None = None) -> tuple[FigureArtifact, FigureArtifact]:
    """Figure 1: RES vs demand before and after the MIRABEL system balances."""
    scenario = _scenario_of(scenario)
    plan: PlanningReport = run_planning_cycle(scenario, scheduler=GreedyScheduler())
    before_view = BalanceView(
        scenario.res_production,
        scenario.base_demand,
        plan.unplanned_load,
        scenario.grid,
        options=BalanceViewOptions(caption="before balancing"),
    )
    after_view = BalanceView(
        scenario.res_production,
        scenario.base_demand,
        plan.planned_load,
        scenario.grid,
        options=BalanceViewOptions(caption="after balancing"),
    )
    before = FigureArtifact(
        figure_id="figure_01_before",
        title="Loads before MIRABEL balancing",
        svg=before_view.to_svg(),
        summary={
            "res_energy_kwh": scenario.res_production.total(),
            "base_demand_kwh": scenario.base_demand.total(),
            "flexible_energy_kwh": plan.unplanned_load.total(),
            "overlap_with_res_surplus_kwh": before_view.overlap_energy(),
        },
    )
    after = FigureArtifact(
        figure_id="figure_01_after",
        title="Loads after MIRABEL balancing",
        svg=after_view.to_svg(),
        summary={
            "flexible_energy_kwh": plan.planned_load.total(),
            "overlap_with_res_surplus_kwh": after_view.overlap_energy(),
            "absorption_ratio": plan.balance_report.absorption_ratio,
            "imbalance_energy_kwh": plan.balance_report.imbalance_energy,
        },
    )
    return before, after


# ----------------------------------------------------------------------
# Figure 2 — structural elements of a flex-offer
# ----------------------------------------------------------------------
def figure_2(scenario: Scenario | None = None) -> FigureArtifact:
    """Figure 2: one EV-charging flex-offer with all structural elements visible."""
    scenario = _scenario_of(scenario)
    candidates = [
        offer
        for offer in scenario.flex_offers
        if offer.schedule is not None and offer.time_flexibility_slots >= 4
    ]
    offer = max(candidates, key=lambda o: o.max_total_energy) if candidates else scenario.flex_offers[0]
    view = ProfileView([offer], scenario.grid, options=ProfileViewOptions(height=320, max_lane_height=220))
    scene = view.scene()
    # Add the deadline markers so acceptance/assignment times are visible, as in Figure 2.
    area = view.options.plot_area
    scale = view._time_scale(area)
    scene.add(overlay(offer, scale, area))
    details = describe(offer, scenario.grid)
    return FigureArtifact(
        figure_id="figure_02_structure",
        title="Structural elements of a flex-offer",
        svg=render_svg(scene),
        summary={
            "offer_id": offer.id,
            "profile_slices": len(offer.profile),
            "time_flexibility_slots": offer.time_flexibility_slots,
            "min_total_energy": offer.min_total_energy,
            "max_total_energy": offer.max_total_energy,
            "scheduled_energy": offer.scheduled_energy,
            "detail_lines": details.lines(),
        },
    )


# ----------------------------------------------------------------------
# Figure 3 — map view
# ----------------------------------------------------------------------
def figure_3(scenario: Scenario | None = None) -> FigureArtifact:
    """Figure 3: flex-offer counts per region on the map view."""
    scenario = _scenario_of(scenario)
    view = MapView(scenario.flex_offers, scenario.geography, scenario.grid)
    return FigureArtifact(
        figure_id="figure_03_map",
        title="Map view of flex-offers",
        svg=view.to_svg(),
        summary={"counts_per_region": view.state_counts()},
    )


# ----------------------------------------------------------------------
# Figure 4 — schematic (topology) view
# ----------------------------------------------------------------------
def figure_4(scenario: Scenario | None = None) -> FigureArtifact:
    """Figure 4: grid topology with accepted/assigned/rejected pies per node."""
    scenario = _scenario_of(scenario)
    view = SchematicView(scenario.flex_offers, scenario.topology, scenario.grid)
    return FigureArtifact(
        figure_id="figure_04_schematic",
        title="Schematic view of flex-offers",
        svg=view.to_svg(),
        summary={"state_shares": view.state_shares()},
    )


# ----------------------------------------------------------------------
# Figure 5 — pivot view
# ----------------------------------------------------------------------
def figure_5(scenario: Scenario | None = None) -> FigureArtifact:
    """Figure 5: prosumer-type swimlanes over time with the MDX query window."""
    scenario = _scenario_of(scenario)
    view = PivotView(
        scenario.flex_offers,
        scenario.grid,
        options=PivotViewOptions(
            row_dimension="Prosumer",
            row_level="prosumer_type",
            column_dimension="Time",
            column_level="hour",
            measure="scheduled_energy",
        ),
    )
    table = view.pivot_table()
    mdx_result = view.run_mdx(view.default_mdx())
    return FigureArtifact(
        figure_id="figure_05_pivot",
        title="Pivot view of flex-offers",
        svg=view.to_svg(),
        summary={
            "row_members": table.row_members,
            "column_count": len(table.column_members),
            "row_totals": dict(zip(table.row_members, table.row_totals("scheduled_energy"))),
            "mdx_rows": mdx_result.row_members,
        },
    )


# ----------------------------------------------------------------------
# Figure 6 — dashboard view
# ----------------------------------------------------------------------
def figure_6(scenario: Scenario | None = None) -> FigureArtifact:
    """Figure 6: status pie plus stacked per-interval counts for one afternoon window."""
    scenario = _scenario_of(scenario)
    origin = scenario.grid.origin
    start = origin.replace(hour=12, minute=0)
    end = origin.replace(hour=13, minute=15)
    view = DashboardView(
        scenario.flex_offers,
        scenario.grid,
        options=DashboardOptions(interval_start=start, interval_end=end, bucket_slots=1),
    )
    return FigureArtifact(
        figure_id="figure_06_dashboard",
        title="Dashboard view of flex-offers",
        svg=view.to_svg(),
        summary={
            "interval": [start.isoformat(), end.isoformat()],
            "state_totals": view.state_totals(),
            "state_percentages": view.state_percentages(),
        },
    )


# ----------------------------------------------------------------------
# Figure 7 — loading tab
# ----------------------------------------------------------------------
def figure_7(scenario: Scenario | None = None) -> FigureArtifact:
    """Figure 7: the loading workflow — choose a legal entity and a time interval."""
    # The framework accepts a FlexSession directly, so an already-open session
    # (CLI, examples) is reused instead of reloading the warehouse.
    source = scenario if scenario is not None else default_scenario()
    framework = VisualAnalysisFramework(source)
    scenario = _scenario_of(source)
    entities = framework.loading.available_entities()
    # Pick the first legal entity that actually issued flex-offers.
    entity_id = next(
        (entity["entity_id"] for entity in entities if scenario.offers_of_prosumer(entity["entity_id"])),
        entities[0]["entity_id"],
    )
    start = scenario.grid.origin
    end = scenario.grid.to_datetime(scenario.config.horizon_slots)
    tab = framework.open_tab_for_entity(entity_id, start, end)
    summary = framework.loading.warehouse_summary()
    view = tab.view()
    return FigureArtifact(
        figure_id="figure_07_loading",
        title="Flex-offer loading workflow",
        svg=view.to_svg(),
        summary={
            "warehouse_rows": summary["row_counts"],
            "entity_id": entity_id,
            "loaded_offers": len(tab.offers),
            "open_tabs": framework.tab_titles,
        },
    )


# ----------------------------------------------------------------------
# Figure 8 — basic view
# ----------------------------------------------------------------------
def figure_8(scenario: Scenario | None = None) -> FigureArtifact:
    """Figure 8: the basic view with a rectangle selection drawn on top."""
    scenario = _scenario_of(scenario)
    options = BasicViewOptions()
    selection_rectangle = SelectionRectangle(
        x1=options.plot_area.left + 120,
        y1=options.plot_area.top + 60,
        x2=options.plot_area.left + 360,
        y2=options.plot_area.top + 220,
    )
    view = BasicView(scenario.flex_offers, scenario.grid, options=options, selection_rectangle=selection_rectangle)
    left, top, right, bottom = selection_rectangle.normalized()
    selected = view.offers_in_rectangle(left, top, right, bottom)
    aggregated_count = sum(1 for offer in scenario.flex_offers if offer.is_aggregate)
    return FigureArtifact(
        figure_id="figure_08_basic",
        title="Basic view of flex-offers",
        svg=view.to_svg(),
        summary={
            "offer_count": len(scenario.flex_offers),
            "lane_count": max(view.lane_assignment.values()) + 1 if view.lane_assignment else 0,
            "aggregated_offers": aggregated_count,
            "selected_by_rectangle": len(selected),
            "states": {state.value: count for state, count in count_by_state(scenario.flex_offers).items()},
        },
    )


# ----------------------------------------------------------------------
# Figure 9 — profile view
# ----------------------------------------------------------------------
def figure_9(scenario: Scenario | None = None, offer_limit: int = 40) -> FigureArtifact:
    """Figure 9: the profile view over a smaller flex-offer set."""
    scenario = _scenario_of(scenario)
    offers = scenario.flex_offers[:offer_limit]
    view = ProfileView(offers, scenario.grid)
    return FigureArtifact(
        figure_id="figure_09_profile",
        title="Profile view of flex-offers",
        svg=view.to_svg(),
        summary={
            "offer_count": len(offers),
            "shared_energy_scale_max": view.max_slice_energy(),
        },
    )


# ----------------------------------------------------------------------
# Figure 10 — on-the-fly information
# ----------------------------------------------------------------------
def figure_10(scenario: Scenario | None = None) -> FigureArtifact:
    """Figure 10: hover details with time markers and aggregation provenance."""
    scenario = _scenario_of(scenario)
    panel = AggregationPanel(scenario.flex_offers, scenario.grid, AggregationParameters(est_tolerance_slots=6, time_flexibility_tolerance_slots=6))
    aggregated = panel.aggregated_offers()
    aggregate_offer = next((offer for offer in aggregated if offer.is_aggregate), aggregated[0])
    # Show the hovered aggregate together with the raw offers so the red dashed
    # provenance links can point at its constituents' lanes (as in Figure 10).
    view = BasicView(list(scenario.flex_offers) + [aggregate_offer], scenario.grid)
    scene = view.scene()
    area = view.options.plot_area
    scale = view._time_scale(area)
    scene.add(
        overlay(
            aggregate_offer,
            scale,
            area,
            lane_assignment=view.lane_assignment,
            lane_height=view._lane_height(area),
        )
    )
    details = describe(aggregate_offer, scenario.grid)
    return FigureArtifact(
        figure_id="figure_10_tooltip",
        title="On-the-fly information about flex-offers",
        svg=render_svg(scene),
        summary={
            "hovered_offer": aggregate_offer.id,
            "is_aggregate": aggregate_offer.is_aggregate,
            "constituents": list(aggregate_offer.constituent_ids),
            "detail_lines": details.lines(),
        },
    )


# ----------------------------------------------------------------------
# Figure 11 — aggregation tools
# ----------------------------------------------------------------------
def figure_11(scenario: Scenario | None = None) -> FigureArtifact:
    """Figure 11: the aggregation tools panel with before/after views and metrics."""
    scenario = _scenario_of(scenario)
    panel = AggregationPanel(scenario.flex_offers, scenario.grid, AggregationParameters(est_tolerance_slots=8, time_flexibility_tolerance_slots=8))
    view = AggregationPanelView(panel)
    metrics = panel.metrics()
    sweep = panel.sweep(est_tolerances=[2, 4, 8, 16], time_flexibility_tolerances=[4])
    return FigureArtifact(
        figure_id="figure_11_aggregation",
        title="Aggregation tools of flex-offers",
        svg=view.to_svg(),
        summary={
            "original_count": metrics.original_count,
            "aggregated_count": metrics.aggregated_count,
            "reduction_ratio": metrics.reduction_ratio,
            "time_flexibility_loss_ratio": metrics.time_flexibility_loss_ratio,
            "sweep": [
                {
                    "est_tolerance": point.parameters.est_tolerance_slots,
                    "reduction_ratio": point.metrics.reduction_ratio,
                }
                for point in sweep
            ],
        },
    )


#: All figure builders keyed by their identifier, in paper order.
FIGURE_BUILDERS: dict[str, Callable[..., object]] = {
    "figure_01": figure_1,
    "figure_02": figure_2,
    "figure_03": figure_3,
    "figure_04": figure_4,
    "figure_05": figure_5,
    "figure_06": figure_6,
    "figure_07": figure_7,
    "figure_08": figure_8,
    "figure_09": figure_9,
    "figure_10": figure_10,
    "figure_11": figure_11,
}


def generate_all_figures(scenario: Scenario | None = None, directory: str | None = None) -> list[FigureArtifact]:
    """Regenerate every figure; optionally save all SVGs under ``directory``.

    ``scenario`` may be a :class:`Scenario` or a ``FlexSession``; passing the
    session lets figure 7 reuse its already-loaded warehouse.
    """
    source = scenario if scenario is not None else default_scenario()
    artifacts: list[FigureArtifact] = []
    for builder in FIGURE_BUILDERS.values():
        result = builder(source)
        if isinstance(result, tuple):
            artifacts.extend(result)
        else:
            artifacts.append(result)  # type: ignore[arg-type]
    if directory is not None:
        for artifact in artifacts:
            artifact.save(directory)
    return artifacts
