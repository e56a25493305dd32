"""Sharded cooperative sweeps: partitioning, leases, steal, merge, status.

The cross-process crash drill (kill -9 a real worker) lives in
``test_crash_recovery.py``; everything here runs in-process, with fake
clocks where expiry is involved, so the whole protocol is exercised without
a single real sleep.
"""

import pytest

from repro.experiments.runner import clear_process_caches
from repro.experiments.shard import (
    LeaseManager,
    ShardError,
    ShardSpec,
    merge_shards,
    run_shard,
    shard_of,
    shard_status,
)
from repro.experiments.store import ReportStore
from repro.experiments.sweep import plan_grid, sweep_grid
from repro.utils import faults
from repro.utils.faults import FaultInjector

Y_VALUES = [0.05, 0.10]


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    faults.set_injector(FaultInjector())
    yield
    faults.set_injector(None)


@pytest.fixture()
def store(tmp_path):
    return ReportStore(tmp_path / "store")


@pytest.fixture()
def plan(test_suite):
    return plan_grid(test_suite, y_values=Y_VALUES)


class FakeClock:
    """A monotonic clock tests advance by hand (sleep == advance)."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestShardSpec:
    def test_parse(self):
        spec = ShardSpec.parse("2/4")
        assert (spec.index, spec.count, spec.label) == (2, 4, "2/4")

    @pytest.mark.parametrize("text", ["2", "a/b", "", "1/2/3"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ShardError, match="shard"):
            ShardSpec.parse(text)

    @pytest.mark.parametrize("index,count", [(0, 4), (5, 4), (1, 0)])
    def test_out_of_range_rejected(self, index, count):
        with pytest.raises(ShardError):
            ShardSpec(index=index, count=count)


class TestPartitioning:
    def test_disjoint_and_covering(self, plan):
        """Every cell lands on exactly one shard, for any shard count."""
        for count in (1, 2, 3, 5):
            assignments = [shard_of(request.memo_key, count)
                           for request in plan.unique_requests]
            assert all(1 <= shard <= count for shard in assignments)
            per_shard = [
                {request.memo_key for request in plan.unique_requests
                 if shard_of(request.memo_key, count) == index}
                for index in range(1, count + 1)
            ]
            union = set().union(*per_shard)
            assert union == {r.memo_key for r in plan.unique_requests}
            assert sum(len(cells) for cells in per_shard) == len(union)

    def test_deterministic_across_processes_in_spirit(self, plan):
        """The assignment is a pure function of the cell, not of any state."""
        first = [shard_of(r.memo_key, 4) for r in plan.unique_requests]
        second = [shard_of(r.memo_key, 4) for r in plan.unique_requests]
        assert first == second

    def test_single_shard_owns_everything(self, plan):
        assert all(shard_of(r.memo_key, 1) == 1 for r in plan.unique_requests)


class TestLeases:
    def _cell(self, plan):
        return plan.unique_requests[0].memo_key

    def test_claim_free_then_peer_blocked(self, store, plan):
        clock = FakeClock()
        alice = LeaseManager(store.root, owner="alice", ttl=5.0, clock=clock)
        bob = LeaseManager(store.root, owner="bob", ttl=5.0, clock=clock)
        cell = self._cell(plan)
        lease = alice.try_claim(cell)
        assert lease is not None
        assert bob.try_claim(cell) is None
        assert bob.state(cell) == "held-unknown"
        assert alice.state(cell) == "mine"

    def test_release_frees_the_cell(self, store, plan):
        clock = FakeClock()
        alice = LeaseManager(store.root, owner="alice", ttl=5.0, clock=clock)
        bob = LeaseManager(store.root, owner="bob", ttl=5.0, clock=clock)
        cell = self._cell(plan)
        alice.try_claim(cell).release()
        assert bob.state(cell) == "free"
        assert bob.try_claim(cell) is not None

    def test_renewing_heartbeat_reads_as_alive(self, store, plan):
        clock = FakeClock()
        alice = LeaseManager(store.root, owner="alice", ttl=5.0, clock=clock)
        bob = LeaseManager(store.root, owner="bob", ttl=5.0, clock=clock)
        cell = self._cell(plan)
        lease = alice.try_claim(cell)
        assert bob.state(cell) == "held-unknown"
        lease.renew()
        assert bob.state(cell) == "held-alive"
        # A previously-advancing heartbeat stays "alive" within the TTL ...
        clock.advance(4.9)
        assert bob.state(cell) == "held-alive"
        # ... and renewal resets the observation window.
        lease.renew()
        clock.advance(4.9)
        assert bob.state(cell) == "held-alive"

    def test_frozen_heartbeat_expires_after_ttl(self, store, plan):
        clock = FakeClock()
        alice = LeaseManager(store.root, owner="alice", ttl=5.0, clock=clock)
        bob = LeaseManager(store.root, owner="bob", ttl=5.0, clock=clock)
        cell = self._cell(plan)
        alice.try_claim(cell)  # never renewed: a crashed worker
        assert bob.state(cell) == "held-unknown"
        clock.advance(4.0)
        assert bob.state(cell) == "held-unknown"  # not judged yet
        clock.advance(1.5)
        assert bob.state(cell) == "expired"

    def test_expired_lease_is_reclaimed_with_ownership_readback(
            self, store, plan):
        clock = FakeClock()
        dead = LeaseManager(store.root, owner="dead", ttl=5.0, clock=clock)
        bob = LeaseManager(store.root, owner="bob", ttl=5.0, clock=clock)
        cell = self._cell(plan)
        dead.try_claim(cell)
        bob.state(cell)
        clock.advance(6.0)
        lease = bob.try_claim(cell)
        assert lease is not None
        assert bob.reclaimed == 1
        assert bob.read(cell).owner == "bob"
        # A third worker now sees a fresh, unknown-liveness lease, not an
        # expired one: reclaim resets the heartbeat observation.
        carol = LeaseManager(store.root, owner="carol", ttl=5.0, clock=clock)
        assert carol.state(cell) == "held-unknown"
        assert carol.try_claim(cell) is None

    def test_stalled_heartbeat_fault_freezes_renewal(self, store, plan):
        faults.set_injector(FaultInjector.from_spec("heartbeat.stall=1"))
        clock = FakeClock()
        alice = LeaseManager(store.root, owner="alice", ttl=5.0, clock=clock)
        bob = LeaseManager(store.root, owner="bob", ttl=5.0, clock=clock)
        cell = self._cell(plan)
        lease = alice.try_claim(cell)
        bob.state(cell)
        for _ in range(10):
            lease.renew()  # all silently dropped: the worker is "wedged"
        assert alice.read(cell).heartbeat == 0
        clock.advance(6.0)
        assert bob.state(cell) == "expired"

    def test_torn_lease_file_does_not_block_the_cell(self, store, plan):
        manager = LeaseManager(store.root, owner="alice", ttl=5.0)
        cell = self._cell(plan)
        path = manager.path_for(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{torn")
        assert manager.state(cell) == "free"
        lease = manager.try_claim(cell)  # atomic takeover, not O_EXCL
        assert lease is not None
        assert manager.read(cell).owner == "alice"


class TestRunShardAndMerge:
    def _serial_artifacts(self, tmp_path, suite):
        clear_process_caches()
        result = sweep_grid(suite, y_values=Y_VALUES, max_workers=1)
        json_path = tmp_path / "serial.json"
        csv_path = tmp_path / "serial.csv"
        result.write_json(json_path)
        result.write_csv(csv_path)
        return json_path.read_bytes(), csv_path.read_bytes()

    def test_single_worker_matches_serial_bytes(self, tmp_path, test_suite):
        serial_json, serial_csv = self._serial_artifacts(tmp_path, test_suite)
        clear_process_caches()
        store = ReportStore(tmp_path / "store")
        stats = run_shard(test_suite, shard="1/1", store=store,
                          y_values=Y_VALUES)
        assert stats.evaluated == stats.grid_cells == stats.own_cells
        assert stats.left_to_peers == 0

        clear_process_caches()  # merge must reassemble purely from disk
        merged = merge_shards(test_suite, store=ReportStore(tmp_path / "store"),
                              y_values=Y_VALUES)
        json_path = tmp_path / "merged.json"
        csv_path = tmp_path / "merged.csv"
        merged.write_json(json_path)
        merged.write_csv(csv_path)
        assert json_path.read_bytes() == serial_json
        assert csv_path.read_bytes() == serial_csv

    def test_two_sequential_workers_split_the_grid(self, store, test_suite):
        one = run_shard(test_suite, shard="1/2", store=store,
                        y_values=Y_VALUES, steal=False)
        two = run_shard(test_suite, shard="2/2", store=store,
                        y_values=Y_VALUES, steal=False)
        assert one.evaluated == one.own_cells
        assert two.evaluated == two.own_cells
        assert one.evaluated + two.evaluated == one.grid_cells
        assert one.stolen == two.stolen == 0
        assert two.left_to_peers == 0

    def test_worker_steals_absent_peers_cells(self, store, test_suite):
        stats = run_shard(test_suite, shard="1/2", store=store,
                          y_values=Y_VALUES)
        assert stats.evaluated == stats.grid_cells
        assert stats.stolen == stats.grid_cells - stats.own_cells > 0
        assert stats.left_to_peers == 0

    def test_worker_reclaims_a_dead_workers_lease(self, store, test_suite,
                                                  plan):
        # A "worker" that claimed a cell and died without storing a result.
        dead = LeaseManager(store.root, owner="dead-worker", ttl=0.2)
        victim = plan.unique_requests[0].memo_key
        assert dead.try_claim(victim) is not None

        clock = FakeClock()
        stats = run_shard(test_suite, shard="1/1", store=store,
                          y_values=Y_VALUES, lease_ttl=0.2,
                          clock=clock, sleep=clock.advance)
        assert stats.reclaimed_leases == 1
        assert stats.evaluated == stats.grid_cells
        assert stats.left_to_peers == 0

    def test_worker_leaves_a_live_peers_cell_alone(self, store, test_suite,
                                                   plan):
        peer = LeaseManager(store.root, owner="live-peer", ttl=5.0)
        victim = plan.unique_requests[0].memo_key
        peer_lease = peer.try_claim(victim)

        clock = FakeClock()
        renew_on_sleep = []

        def sleep(seconds):
            clock.advance(seconds)
            peer_lease.renew()  # the peer is alive: it keeps renewing
            renew_on_sleep.append(seconds)

        stats = run_shard(test_suite, shard="1/1", store=store,
                          y_values=Y_VALUES, lease_ttl=0.5,
                          clock=clock, sleep=sleep)
        assert stats.evaluated == stats.grid_cells - 1
        assert stats.left_to_peers == 1
        assert stats.reclaimed_leases == 0
        assert renew_on_sleep  # it actually waited on the peer

    def test_merge_refuses_incomplete_grid(self, store, test_suite):
        run_shard(test_suite, shard="1/2", store=store, y_values=Y_VALUES,
                  steal=False)
        with pytest.raises(ShardError, match="missing from the store"):
            merge_shards(test_suite, store=store, y_values=Y_VALUES)

    def test_merge_refuses_unknown_grid(self, store, test_suite):
        with pytest.raises(ShardError, match="no manifest"):
            merge_shards(test_suite, store=store, y_values=Y_VALUES)

    def test_merge_refuses_mismatched_manifest(self, store, test_suite, plan):
        run_shard(test_suite, shard="1/1", store=store, y_values=Y_VALUES)
        payload = store.read_manifest(plan.signature)
        payload["cells"] = payload["cells"] + 1
        store.write_manifest(plan.signature, payload)
        with pytest.raises(ShardError, match="grid"):
            merge_shards(test_suite, store=store, y_values=Y_VALUES)

    def test_status_tracks_progress(self, store, test_suite, plan):
        before = shard_status(test_suite, store=store, y_values=Y_VALUES)
        assert (before.stored, before.missing) == (0, before.cells)
        assert not before.complete

        run_shard(test_suite, shard="1/2", store=store, y_values=Y_VALUES,
                  steal=False)
        holder = LeaseManager(store.root, owner="worker-2", ttl=5.0)
        held = [request for request in plan.unique_requests
                if not store.contains(request.memo_key)]
        holder.try_claim(held[0].memo_key)

        during = shard_status(test_suite, store=store, y_values=Y_VALUES)
        assert during.stored + during.missing == during.cells
        assert during.missing == len(held)
        assert [view.owner for view in during.leases] == ["worker-2"]
        assert not during.complete

        run_shard(test_suite, shard="2/2", store=store, y_values=Y_VALUES)
        after = shard_status(test_suite, store=store, y_values=Y_VALUES)
        assert after.complete and after.missing == 0 and not after.leases
