"""The scheduler's worker pool: one per scheduler, reused, always released.

A pooled :class:`EvaluationScheduler` starts one ``ProcessPoolExecutor`` on
its first pooled prefetch and reuses it until :meth:`close`; every owner of
a scheduler (the CLI commands, ``sweep_grid``, the evaluation service)
closes it, so no worker process outlives the request that started it.
"""

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import cli
from repro.experiments import scheduler as scheduler_module
from repro.experiments.runner import CACHE, clear_process_caches
from repro.experiments.scheduler import EvaluationScheduler
from repro.experiments.sweep import plan_grid, sweep_grid
from repro.server.service import EvaluationService


@pytest.fixture()
def pools(monkeypatch):
    """Every executor the scheduler constructs during the test (shut down
    afterwards, so a failing test leaves no workers to the next one).

    The tests prefetch grids of three cold requests, so the pooling
    threshold is lowered to let every such prefetch use the pool."""
    created = []
    monkeypatch.setattr(scheduler_module, "MIN_PARALLEL_REQUESTS", 1)

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor", RecordingPool)
    yield created
    for pool in created:
        pool.shutdown()


def _requests(suite, *y_values):
    return list(plan_grid(suite, y_values=list(y_values)).unique_requests)


def _worker_pids():
    return {child.pid for child in multiprocessing.active_children()}


def test_prefetches_share_one_pool_and_its_workers(test_suite, pools):
    clear_process_caches()
    with EvaluationScheduler(max_workers=2) as scheduler:
        first = scheduler.prefetch(_requests(test_suite, 0.05))
        first_pids = _worker_pids()
        second = scheduler.prefetch(_requests(test_suite, 0.10))
        second_pids = _worker_pids()
    assert first.workers == second.workers == 2
    assert second.computed == len(test_suite.names)
    assert len(pools) == 1
    assert len(first_pids) == 2 and second_pids == first_pids
    assert multiprocessing.active_children() == []


def test_close_is_idempotent_and_releases_workers(test_suite, pools):
    clear_process_caches()
    scheduler = EvaluationScheduler(max_workers=2)
    scheduler.prefetch(_requests(test_suite, 0.05))
    assert len(_worker_pids()) == 2
    scheduler.close()
    assert multiprocessing.active_children() == []
    scheduler.close()
    # A closed scheduler starts a new pool when it is used again.
    scheduler.prefetch(_requests(test_suite, 0.10))
    assert len(pools) == 2
    scheduler.close()
    assert multiprocessing.active_children() == []


def test_dropped_scheduler_releases_its_workers(test_suite, pools):
    clear_process_caches()
    EvaluationScheduler(max_workers=2).prefetch(
        _requests(test_suite, 0.05))
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_sweep_grid_closes_the_scheduler_it_builds(test_suite, pools):
    clear_process_caches()
    result = sweep_grid(test_suite, y_values=[0.05, 0.10], max_workers=2)
    assert result.schedule.workers == 2 and len(pools) == 1
    assert multiprocessing.active_children() == []


def test_sweep_grid_leaves_a_passed_scheduler_open(test_suite, pools):
    clear_process_caches()
    with EvaluationScheduler(max_workers=2) as scheduler:
        sweep_grid(test_suite, y_values=[0.05], scheduler=scheduler)
        pids = _worker_pids()
        assert len(pids) == 2
        sweep_grid(test_suite, y_values=[0.10], scheduler=scheduler)
        assert _worker_pids() == pids
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_service_close_releases_the_pool(test_suite, pools):
    clear_process_caches()
    service = EvaluationService(max_workers=2)
    try:
        ticket = service.submit(_requests(test_suite, 0.05, 0.10))
        ticket.wait()
        assert len(pools) == 1
    finally:
        service.close()
    assert multiprocessing.active_children() == []


def test_cli_run_releases_the_pool(pools, capsys):
    clear_process_caches()
    assert cli.main(["run", "fig14", "--quick", "--workers", "2",
                     "--no-artifacts", "--quiet"]) == 0
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_threads_sharing_a_pooled_scheduler_match_serial(test_suite, pools):
    grids = [_requests(test_suite, 0.05, 0.10),
             _requests(test_suite, 0.15, 0.20)]
    clear_process_caches()
    EvaluationScheduler(max_workers=1).prefetch(grids[0] + grids[1])
    serial = {request.memo_key: CACHE.reports[request.memo_key]
              for grid in grids for request in grid}

    clear_process_caches()
    barrier = threading.Barrier(len(grids))
    errors = []
    with EvaluationScheduler(max_workers=2) as scheduler:
        def prefetch(grid):
            try:
                barrier.wait()
                scheduler.prefetch(grid)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=prefetch, args=(grid,))
                   for grid in grids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert errors == []
    assert len(pools) == 1
    assert {key: CACHE.reports[key] for key in serial} == serial
    assert multiprocessing.active_children() == []
