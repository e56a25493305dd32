"""Pareto design-space search: domination logic, golden quick-grid frontier."""

import itertools
import json

import pytest

from repro.experiments import registry
from repro.experiments.runner import ExperimentContext, clear_process_caches
from repro.experiments.scheduler import EvaluationScheduler
from repro.experiments.search import (
    DesignConfig,
    dominates,
    format_frontier,
    search_frontier,
)
from repro.experiments.store import ReportStore
from repro.tensor.suite import small_suite

#: The quick grid the golden assertions run on: small and fully enumerable.
QUICK_GRID = dict(kernels=("gram",), y_values=(0.05, 0.22),
                  glb_scales=(0.5, 1.0), pe_scales=(1.0,))
#: Serial, store-less: configuration only, so the tests share one.
SERIAL = EvaluationScheduler(max_workers=1)


@pytest.fixture(scope="module")
def quick_frontier():
    clear_process_caches()
    return search_frontier(small_suite(), max_generations=2,
                           scheduler=SERIAL, **QUICK_GRID)


class TestDomination:
    def test_dominates_requires_strict_improvement(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))  # equal: no
        assert not dominates((1.0, 3.0), (2.0, 2.0))  # trade-off: no
        assert not dominates((2.0, 2.0), (1.0, 1.0))

    def test_pareto_frontier_brute_force_equivalence(self, quick_frontier):
        """The search's frontier == an independent brute-force filter."""
        for kernel, workload in {(p.kernel, p.workload)
                                 for p in quick_frontier.points}:
            group = [p for p in quick_frontier.points
                     if p.kernel == kernel and p.workload == workload]
            # Independent O(n^2) re-derivation, written the dumb way.
            expected = []
            for candidate in group:
                beaten = any(
                    (o.dram_words <= candidate.dram_words
                     and o.energy_pj <= candidate.energy_pj
                     and (o.dram_words < candidate.dram_words
                          or o.energy_pj < candidate.energy_pj))
                    for o in group)
                if not beaten and candidate.objectives not in {
                        e.objectives for e in expected}:
                    expected.append(candidate)
            got = quick_frontier.frontier_for(kernel, workload)
            assert {(p.config, p.objectives) for p in got} == \
                {(p.config, p.objectives) for p in expected}


class TestSearchFrontier:
    def test_generation_zero_covers_seed_grid(self, quick_frontier):
        seed_cells = [DesignConfig(y, glb, pe) for y, glb, pe
                      in itertools.product((0.05, 0.22), (0.5, 1.0), (1.0,))]
        gen0 = {p.config for p in quick_frontier.points if p.generation == 0}
        assert gen0 == set(seed_cells)

    def test_refinement_only_expands_around_survivors(self, quick_frontier):
        gen1 = {p.config for p in quick_frontier.points if p.generation == 1}
        # Midpoint refinement: every generation-1 axis value is either a
        # seed value or the midpoint of two adjacent seed values.
        y_allowed = {0.05, 0.22, (0.05 + 0.22) / 2}
        glb_allowed = {0.5, 1.0, 0.75}
        pe_allowed = {1.0}  # single seed value: nothing to refine toward
        for config in gen1:
            assert config.overbooking_target in y_allowed, config
            assert config.glb_scale in glb_allowed, config
            assert config.pe_scale in pe_allowed, config
        assert {p.config for p in quick_frontier.frontier}  # survivors exist

    def test_deterministic_across_runs(self, quick_frontier):
        clear_process_caches()
        again = search_frontier(small_suite(), max_generations=2,
                                scheduler=SERIAL, **QUICK_GRID)
        assert again.points == quick_frontier.points
        assert again.frontier == quick_frontier.frontier
        assert json.dumps(again.to_jsonable()) == \
            json.dumps(quick_frontier.to_jsonable())

    def test_golden_quick_grid_frontier_shape(self, quick_frontier):
        """Golden facts of the quick grid that should survive refactors."""
        # One frontier entry set per (kernel, workload) group, every group
        # non-empty, and every frontier point actually evaluated.
        for workload in quick_frontier.workloads:
            group = quick_frontier.frontier_for("gram", workload)
            assert group, workload
            for point in group:
                assert point in quick_frontier.points
        # The frontier never contains a dominated point (the acceptance
        # criterion: a verified non-dominated set).
        for point in quick_frontier.frontier:
            rivals = [p for p in quick_frontier.points
                      if (p.kernel, p.workload) == (point.kernel, point.workload)]
            assert not any(dominates(r.objectives, point.objectives)
                           for r in rivals)

    def test_max_generations_one_is_plain_grid(self):
        clear_process_caches()
        result = search_frontier(small_suite(), max_generations=1,
                                 scheduler=SERIAL, **QUICK_GRID)
        assert [g.generation for g in result.generations] == [0]
        assert len(result.points) == 4 * 3  # 4 configs x 3 workloads

    def test_store_makes_search_resumable(self, tmp_path):
        clear_process_caches()
        first = search_frontier(
            small_suite(), max_generations=2, **QUICK_GRID,
            scheduler=EvaluationScheduler(
                max_workers=1, store=ReportStore(tmp_path / "store")))
        clear_process_caches()
        rerun = search_frontier(
            small_suite(), max_generations=2, **QUICK_GRID,
            scheduler=EvaluationScheduler(
                max_workers=1, store=ReportStore(tmp_path / "store")))
        assert all(g.schedule.computed == 0 for g in rerun.generations)
        assert sum(g.schedule.store_hits for g in rerun.generations) > 0
        assert rerun.points == first.points

    def test_rejects_empty_axes_and_suiteless_calls(self):
        with pytest.raises(ValueError, match="axis"):
            search_frontier(small_suite(), y_values=(), scheduler=SERIAL)
        with pytest.raises(TypeError, match="suite"):
            search_frontier()

    def test_refined_axis_dedups_rounded_midpoints(self):
        """Midpoints that round onto an existing value (or inputs differing
        only below the rounding precision) collapse to one candidate —
        regression: near-duplicate axis values each cost an exact eval."""
        from repro.experiments.search import _refined_axis

        axis = _refined_axis([0.1, 0.1000000004, 0.2], survivors={0.1})
        assert axis == sorted(set(axis))
        assert axis == [0.1, 0.15, 0.2]
        # Survivor membership is decided after rounding too.
        assert _refined_axis([0.1, 0.2], survivors={0.1000000004}) \
            == [0.1, 0.15, 0.2]
        # Adjacent values whose midpoint rounds onto a neighbor: no dupe.
        close = _refined_axis([0.1, 0.100001, 0.2], survivors={0.1})
        assert close == sorted(set(close))

    def test_write_artifacts_and_overwrite_guard(self, quick_frontier,
                                                 tmp_path):
        json_path = quick_frontier.write_json(tmp_path / "frontier.json")
        csv_path = quick_frontier.write_csv(tmp_path / "frontier.csv")
        payload = json.loads(json_path.read_text())
        assert "generations" not in payload  # deterministic artifact
        assert len(payload["points"]) == len(quick_frontier.points)
        header, *rows = csv_path.read_text().splitlines()
        assert "on_frontier" in header
        assert sum(row.endswith(",1") for row in rows) == \
            len(quick_frontier.frontier)
        with pytest.raises(FileExistsError, match="force"):
            quick_frontier.write_json(json_path)
        quick_frontier.write_json(json_path, force=True)


class TestFig14Experiment:
    def test_registered_with_store_plumbing(self):
        # The run's scheduler, and with it the store, reaches the search.
        experiment = registry.get("fig14")
        assert experiment.accepts_param("scheduler")
        assert not experiment.accepts_param("store")
        assert not experiment.accepts_param("max_workers")
        assert not registry.get("fig5").accepts_param("scheduler")

    def test_quick_run_produces_frontier(self):
        experiment = registry.get("fig14")
        result = experiment.run(ExperimentContext.quick(),
                                **experiment.quick_params, scheduler=SERIAL)
        assert result.frontier
        text = format_frontier(result)
        assert "Pareto frontier" in text
        payload = json.dumps(experiment.to_json(result))
        assert "dram_words" in payload

    def test_context_y_seeds_the_axis(self):
        from repro.experiments import fig14

        result = fig14.run(ExperimentContext.quick(overbooking_target=0.17),
                           specs=("uniform:n=200,nnz=1500",),
                           kernels=("gram",), y_values=(0.05,),
                           glb_scales=(1.0,), pe_scales=(1.0,),
                           max_generations=1, scheduler=SERIAL)
        swept_y = {p.config.overbooking_target for p in result.points}
        assert swept_y == {0.05, 0.17}
