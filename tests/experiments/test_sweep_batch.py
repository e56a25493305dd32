"""Sweep artifacts are byte-identical to the per-point engine's.

The batch evaluator's contract is stronger than numerical agreement: a grid
swept through :func:`repro.experiments.sweep.sweep_grid` must serialize to
the *same bytes* whether its reports come from the per-point
:class:`~repro.model.engine.AnalyticalEngine` (the independent oracle),
from the batch evaluator serially, or from the batch evaluator across a
worker pool with shared-memory suite transport.
"""

import pytest

from repro.accelerator.extensor import AcceleratorVariant, ExTensorModel
from repro.experiments.runner import (
    CACHE,
    ExperimentContext,
    clear_process_caches,
)
from repro.experiments.sweep import plan_grid, sweep_grid
from repro.tensor.suite import small_suite

GRID = dict(y_values=(0.05, 0.10), glb_scales=(0.5, 1.0), pe_scales=(1.0,))


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_process_caches()
    yield
    clear_process_caches()


def _artifacts(tmp_path, tag, *, max_workers=1):
    result = sweep_grid(small_suite(), max_workers=max_workers, **GRID)
    json_path = result.write_json(tmp_path / f"{tag}.json")
    csv_path = result.write_csv(tmp_path / f"{tag}.csv")
    return json_path.read_bytes(), csv_path.read_bytes(), result


def _fill_memo_from_engine():
    """Memoize the per-point engine's reports for every planned cell."""
    suite = small_suite()
    for request in plan_grid(suite, **GRID).unique_requests:
        context = ExperimentContext(
            suite=suite, architecture=request.architecture,
            overbooking_target=request.overbooking_target,
            kernel=request.kernel)
        model = ExTensorModel(request.architecture, [
            AcceleratorVariant.naive(),
            AcceleratorVariant.prescient(),
            AcceleratorVariant.overbooking(
                overbooking_target=request.overbooking_target),
        ])
        CACHE.reports[request.memo_key] = model.evaluate_workload(
            context.workload(request.workload))


def test_batched_sweep_artifacts_byte_identical(tmp_path):
    clear_process_caches()
    batched_json, batched_csv, batched = _artifacts(tmp_path, "batched")
    assert batched.schedule.batched
    assert batched.schedule.batch_groups == len(small_suite().names)

    clear_process_caches()
    _fill_memo_from_engine()
    engine_json, engine_csv, engine = _artifacts(tmp_path, "engine")
    assert engine.schedule.computed == 0  # every cell came from the engine
    assert batched_json == engine_json
    assert batched_csv == engine_csv


def test_pooled_batched_sweep_matches_serial(tmp_path):
    clear_process_caches()
    serial_json, serial_csv, _ = _artifacts(tmp_path, "serial", max_workers=1)
    clear_process_caches()
    pooled_json, pooled_csv, pooled = _artifacts(tmp_path, "pooled",
                                                 max_workers=2)
    assert pooled.schedule.workers == 2
    assert serial_json == pooled_json
    assert serial_csv == pooled_csv
    # The pool's shared-memory exports must all be released afterwards.
    from repro.tensor import shm

    assert shm.active_segments() == []
