"""Injected faults must be invisible in artifacts and survivable in pools.

Covers the in-process fault drills: transient store I/O errors absorbed by
the retry policy, torn writes quarantined on the next read, and
``BrokenProcessPool`` recovery in the scheduler.  The cross-process drill
(a real SIGKILL) lives in ``test_crash_recovery.py``.
"""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import scheduler as scheduler_module
from repro.experiments.runner import CACHE, clear_process_caches
from repro.experiments.scheduler import EvaluationScheduler
from repro.experiments.store import ReportStore
from repro.experiments.sweep import plan_grid, sweep_grid
from repro.utils import faults
from repro.utils.faults import FaultInjector


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    faults.set_injector(FaultInjector())
    yield
    faults.set_injector(None)


@pytest.fixture()
def store(tmp_path):
    return ReportStore(tmp_path / "store")


def _reports_of(request):
    return CACHE.evaluate(request.memo_key)


class TestTransientStoreFaults:
    def test_load_retries_through_injected_oserror(self, store, test_suite):
        plan = plan_grid(test_suite, y_values=[0.05])
        request = plan.unique_requests[0]
        reports = _reports_of(request)
        store.store(request.memo_key, reports)

        faults.set_injector(FaultInjector.from_spec("store.load=2"))
        loaded = store.load(request.memo_key)
        assert loaded == reports  # both firings absorbed by the retry policy
        assert store.session.io_retries == 2
        assert faults.active().fired["store.load"] == 2

    def test_store_retries_through_injected_oserror(self, store, test_suite):
        plan = plan_grid(test_suite, y_values=[0.05])
        request = plan.unique_requests[0]
        reports = _reports_of(request)

        faults.set_injector(FaultInjector.from_spec("store.store=1"))
        store.store(request.memo_key, reports)
        assert store.session.io_retries == 1
        faults.set_injector(FaultInjector())
        assert store.load(request.memo_key) == reports

    def test_exhausted_budget_of_faults_still_raises(self, store, test_suite):
        """A *persistent* I/O failure (budget > attempts) must surface."""
        plan = plan_grid(test_suite, y_values=[0.05])
        request = plan.unique_requests[0]
        reports = _reports_of(request)
        store.store(request.memo_key, reports)

        faults.set_injector(FaultInjector.from_spec("store.load=100"))
        with pytest.raises(OSError, match="injected"):
            store.load(request.memo_key)

    def test_torn_write_quarantined_on_next_load(self, store, test_suite):
        plan = plan_grid(test_suite, y_values=[0.05])
        request = plan.unique_requests[0]
        reports = _reports_of(request)

        faults.set_injector(FaultInjector.from_spec("store.corrupt=1"))
        path = store.store(request.memo_key, reports)
        assert path.exists()  # written, then truncated behind our back

        assert store.load(request.memo_key) is None
        assert store.session.quarantined == 1
        # The miss is recoverable and the second write is clean.
        store.store(request.memo_key, reports)
        assert store.load(request.memo_key) == reports

    def test_sweep_artifacts_byte_identical_under_transient_faults(
            self, tmp_path, test_suite):
        clear_process_caches()
        clean = sweep_grid(test_suite, y_values=[0.05, 0.10], max_workers=1)
        clean_json = tmp_path / "clean.json"
        clean_csv = tmp_path / "clean.csv"
        clean.write_json(clean_json)
        clean.write_csv(clean_csv)

        clear_process_caches()
        faults.set_injector(
            FaultInjector.from_spec("store.load=2,store.store=2"))
        faulted = sweep_grid(test_suite, y_values=[0.05, 0.10], max_workers=1,
                             store=ReportStore(tmp_path / "store"))
        faulted_json = tmp_path / "faulted.json"
        faulted_csv = tmp_path / "faulted.csv"
        faulted.write_json(faulted_json)
        faulted.write_csv(faulted_csv)

        assert faulted_json.read_bytes() == clean_json.read_bytes()
        assert faulted_csv.read_bytes() == clean_csv.read_bytes()
        assert sum(faults.active().fired.values()) > 0  # the drill ran


class _FlakyPool:
    """Stands in for ProcessPoolExecutor; breaks on request, serial otherwise."""

    breaks_remaining = 0
    #: Every pool constructed since the fixture reset it.
    created = []

    def __init__(self, max_workers=None):
        self.max_workers = max_workers
        self.shut_down = False
        _FlakyPool.created.append(self)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shut_down = True

    def map(self, fn, items, chunksize=1):
        for index, item in enumerate(items):
            if _FlakyPool.breaks_remaining > 0 and index >= 1:
                _FlakyPool.breaks_remaining -= 1
                raise BrokenProcessPool("injected pool crash")
            yield fn(item)


class TestBrokenPoolRecovery:
    @pytest.fixture(autouse=True)
    def _flaky_pool(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor",
                            _FlakyPool)
        _FlakyPool.breaks_remaining = 0
        _FlakyPool.created = []
        yield

    def _cold_requests(self, test_suite):
        clear_process_caches()
        return list(plan_grid(test_suite,
                              y_values=[0.05, 0.10]).unique_requests)

    def test_single_break_respawns_and_finishes(self, test_suite, capsys):
        requests = self._cold_requests(test_suite)
        _FlakyPool.breaks_remaining = 1
        stats = EvaluationScheduler(max_workers=2).prefetch(requests)
        assert stats.pool_restarts == 1
        assert not stats.degraded_serial
        assert stats.computed == len(requests)
        assert all(r.memo_key in CACHE.reports for r in requests)
        assert "respawning the pool" in capsys.readouterr().err

    def test_second_break_degrades_to_serial(self, test_suite, capsys):
        requests = self._cold_requests(test_suite)
        _FlakyPool.breaks_remaining = 2
        stats = EvaluationScheduler(max_workers=2).prefetch(requests)
        assert stats.pool_restarts == 2
        assert stats.degraded_serial
        assert all(r.memo_key in CACHE.reports for r in requests)
        assert "degrading to serial" in capsys.readouterr().err

    def test_no_break_means_no_restarts(self, test_suite):
        requests = self._cold_requests(test_suite)
        stats = EvaluationScheduler(max_workers=2).prefetch(requests)
        assert stats.pool_restarts == 0 and not stats.degraded_serial

    def test_next_prefetch_after_a_break_gets_a_new_pool(self, test_suite):
        scheduler = EvaluationScheduler(max_workers=2)
        _FlakyPool.breaks_remaining = 2
        scheduler.prefetch(self._cold_requests(test_suite))
        broken = list(_FlakyPool.created)
        assert len(broken) == 2 and all(pool.shut_down for pool in broken)

        requests = self._cold_requests(test_suite)
        stats = scheduler.prefetch(requests)
        assert stats.pool_restarts == 0 and not stats.degraded_serial
        assert stats.computed == len(requests)
        assert all(r.memo_key in CACHE.reports for r in requests)
        fresh = _FlakyPool.created[2:]
        assert len(fresh) == 1 and not fresh[0].shut_down
        scheduler.close()
        assert fresh[0].shut_down
