"""Persistent report store: round-trips, schema versioning, atomicity."""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.runner import ExperimentContext, clear_process_caches
from repro.experiments.scheduler import EvaluationScheduler, requests_for_context
from repro.experiments.store import (
    SCHEMA_VERSION,
    TMP_GRACE_SECONDS,
    GcStats,
    ReportStore,
    StoreError,
    StoreSchemaError,
    decode_report,
    encode_report,
    format_stats,
    key_digest,
)


@pytest.fixture()
def quick_context():
    return ExperimentContext.quick()


@pytest.fixture()
def store(tmp_path):
    return ReportStore(tmp_path / "store")


def _memo_key(context, name):
    key = context.memo_key(name)
    assert key is not None
    return key


class TestRoundTrip:
    def test_report_disk_report_identical(self, store, quick_context):
        """report -> disk -> report is exact (frozen dataclass equality)."""
        for name in quick_context.workload_names:
            reports = quick_context.reports(name)
            key = _memo_key(quick_context, name)
            store.store(key, reports)
            loaded = store.load(key)
            assert loaded is not None
            assert set(loaded) == set(reports)
            for variant in reports:
                # Frozen dataclasses compare field-by-field, so this asserts
                # bit-exact floats everywhere (far stronger than 1e-9).
                assert loaded[variant] == reports[variant]

    def test_round_trip_values_within_1e9(self, store, quick_context):
        """The ISSUE's tolerance, stated explicitly on the headline metrics."""
        name = quick_context.workload_names[0]
        reports = quick_context.reports(name)
        key = _memo_key(quick_context, name)
        store.store(key, reports)
        loaded = store.load(key)
        for variant, report in reports.items():
            assert loaded[variant].cycles == pytest.approx(
                report.cycles, abs=1e-9)
            assert loaded[variant].total_energy_pj == pytest.approx(
                report.total_energy_pj, abs=1e-9)
            assert loaded[variant].dram_words == pytest.approx(
                report.dram_words, abs=1e-9)

    def test_encode_decode_preserves_derived_properties(self, quick_context):
        reports = quick_context.reports("tiny-fem")
        for report in reports.values():
            clone = decode_report(json.loads(json.dumps(encode_report(report))))
            assert clone.total_energy_pj == report.total_energy_pj
            assert clone.traffic.dram_overhead_fraction == \
                report.traffic.dram_overhead_fraction
            assert clone.details == report.details

    def test_miss_returns_none_and_counts(self, store, quick_context):
        key = _memo_key(quick_context, "tiny-fem")
        assert store.load(key) is None
        assert store.session.misses == 1
        assert not store.contains(key)


class TestContentAddressing:
    def test_same_identity_same_path(self, tmp_path, quick_context):
        a = ReportStore(tmp_path / "store")
        b = ReportStore(tmp_path / "store")
        key = _memo_key(quick_context, "tiny-fem")
        assert a.path_for(key) == b.path_for(key)

    def test_different_workload_different_digest(self, quick_context):
        assert key_digest(_memo_key(quick_context, "tiny-fem")) != \
            key_digest(_memo_key(quick_context, "tiny-road"))

    def test_different_y_different_digest(self, quick_context):
        other = quick_context.with_overbooking_target(0.22)
        assert key_digest(_memo_key(quick_context, "tiny-fem")) != \
            key_digest(_memo_key(other, "tiny-fem"))

    def test_different_kernel_different_digest(self, quick_context):
        other = quick_context.with_kernel("spmv")
        assert key_digest(_memo_key(quick_context, "tiny-fem")) != \
            key_digest(_memo_key(other, "tiny-fem"))


class TestSchemaVersioning:
    def test_entry_version_mismatch_rejected(self, store, quick_context):
        key = _memo_key(quick_context, "tiny-fem")
        path = store.store(key, quick_context.reports("tiny-fem"))
        payload = json.loads(path.read_text())
        payload["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreSchemaError, match="schema"):
            store.load(key)

    def test_corrupt_entry_quarantined_and_treated_as_miss(self, store,
                                                           quick_context):
        key = _memo_key(quick_context, "tiny-fem")
        path = store.store(key, quick_context.reports("tiny-fem"))
        path.write_text("{not json")
        # A torn/corrupt entry must never crash a reader: it is sidelined
        # into quarantine/ and the key becomes a plain miss.
        assert store.load(key) is None
        assert not path.exists()
        assert store.session.quarantined == 1
        assert store.session.misses == 1
        assert [p.name for p in store.quarantine_paths()] == [path.name]
        assert store.stats().quarantined == 1
        # The miss is recoverable: re-store and load round-trips again.
        store.store(key, quick_context.reports("tiny-fem"))
        assert store.load(key) is not None

    def test_undecodable_reports_quarantined(self, store, quick_context):
        key = _memo_key(quick_context, "tiny-fem")
        path = store.store(key, quick_context.reports("tiny-fem"))
        payload = json.loads(path.read_text())
        del payload["reports"][next(iter(payload["reports"]))]["traffic"]
        path.write_text(json.dumps(payload))
        assert store.load(key) is None  # valid JSON, wrong shape -> miss
        assert store.session.quarantined == 1

    def test_create_false_refuses_nonexistent_store(self, tmp_path):
        with pytest.raises(StoreError, match="no report store"):
            ReportStore(tmp_path / "nonesuch", create=False)
        assert not (tmp_path / "nonesuch").exists()  # nothing initialized

    def test_cli_store_stats_on_missing_path_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["store", "stats", "--store",
                     str(tmp_path / "typo")]) == 2
        assert "no report store" in capsys.readouterr().err

    def test_marker_version_mismatch_rejected_at_open(self, tmp_path):
        root = tmp_path / "store"
        ReportStore(root)  # creates the marker
        marker = root / "store.json"
        marker.write_text(json.dumps({"schema_version": SCHEMA_VERSION + 1}))
        with pytest.raises(StoreSchemaError, match="store gc"):
            ReportStore(root)
        # ... but gc can open it (check_marker=False) and repair the marker.
        ReportStore(root, check_marker=False).gc()
        ReportStore(root)

    def test_gc_prunes_stale_and_corrupt_entries(self, store, quick_context):
        keys = [_memo_key(quick_context, name)
                for name in quick_context.workload_names]
        paths = [store.store(key, quick_context.reports(key[-1]))
                 for key in keys]
        stale = json.loads(paths[0].read_text())
        stale["schema_version"] = 0
        paths[0].write_text(json.dumps(stale))
        paths[1].write_text("garbage")
        orphan = paths[2].parent / (paths[2].name + ".tmpleftover")
        orphan.write_text("x")
        # Age the orphan past the live-writer grace period: gc only reaps
        # temp files no writer could still be about to publish.
        stamp = time.time() - 2 * TMP_GRACE_SECONDS
        os.utime(orphan, (stamp, stamp))

        outcome = store.gc()
        assert isinstance(outcome, GcStats)
        assert outcome.removed_entries == 2
        assert outcome.removed_temp_files == 1
        assert outcome.kept == 1
        assert outcome.reclaimed_bytes > 0
        assert not paths[0].exists() and not paths[1].exists()
        assert store.load(keys[2]) is not None


class TestLoadMany:
    def test_matches_individual_loads(self, store, quick_context):
        names = ["tiny-fem", "tiny-social", "tiny-road"]
        keys = [_memo_key(quick_context, name) for name in names]
        for name, key in zip(names, keys):
            store.store(key, quick_context.reports(name))
        loaded = store.load_many(keys)
        assert set(loaded) == set(keys)
        for name, key in zip(names, keys):
            assert loaded[key] == quick_context.reports(name)

    def test_absent_keys_are_misses(self, store, quick_context):
        present = _memo_key(quick_context, "tiny-fem")
        absent = _memo_key(quick_context, "tiny-road")
        store.store(present, quick_context.reports("tiny-fem"))
        loaded = store.load_many([present, absent])
        assert set(loaded) == {present}
        assert store.session.hits == 1
        assert store.session.misses == 1

    def test_empty_batch_and_all_missing_shard(self, store, quick_context):
        assert store.load_many([]) == {}
        # A batch whose shard directories don't exist yet: all misses.
        keys = [_memo_key(quick_context, name)
                for name in ("tiny-fem", "tiny-road")]
        assert store.load_many(keys) == {}
        assert store.session.misses == 2

    def test_duplicate_keys_loaded_once(self, store, quick_context):
        key = _memo_key(quick_context, "tiny-fem")
        store.store(key, quick_context.reports("tiny-fem"))
        loaded = store.load_many([key, key, key])
        assert loaded == {key: quick_context.reports("tiny-fem")}
        assert store.session.hits == 1

    def test_corrupt_entry_quarantined_in_batch(self, store, quick_context):
        good = _memo_key(quick_context, "tiny-fem")
        bad = _memo_key(quick_context, "tiny-road")
        store.store(good, quick_context.reports("tiny-fem"))
        bad_path = store.store(bad, quick_context.reports("tiny-road"))
        bad_path.write_text("{not json")
        loaded = store.load_many([good, bad])
        assert set(loaded) == {good}
        assert store.session.quarantined == 1
        assert not bad_path.exists()


class TestConcurrency:
    def test_concurrent_writers_atomic(self, store, quick_context):
        """Racing writers on one key leave a valid entry and no temp files."""
        key = _memo_key(quick_context, "tiny-fem")
        reports = quick_context.reports("tiny-fem")
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: store.store(key, reports), range(64)))
        loaded = store.load(key)
        assert loaded == reports
        leftovers = list(store.path_for(key).parent.glob("*.tmp*"))
        assert leftovers == []

    def test_two_store_instances_share_entries(self, tmp_path, quick_context):
        a = ReportStore(tmp_path / "store")
        b = ReportStore(tmp_path / "store")
        key = _memo_key(quick_context, "tiny-fem")
        a.store(key, quick_context.reports("tiny-fem"))
        assert b.load(key) == quick_context.reports("tiny-fem")


class TestSchedulerIntegration:
    def test_warm_store_computes_nothing(self, tmp_path):
        store = ReportStore(tmp_path / "store")
        clear_process_caches()
        context = ExperimentContext.quick()
        first = EvaluationScheduler(max_workers=1, store=store) \
            .prefetch(requests_for_context(context))
        assert first.computed == 3 and first.store_writes == 3

        clear_process_caches()  # simulate a fresh process: memo gone
        rerun_store = ReportStore(tmp_path / "store")
        rerun = EvaluationScheduler(max_workers=1, store=rerun_store) \
            .prefetch(requests_for_context(ExperimentContext.quick()))
        assert rerun.computed == 0
        assert rerun.store_hits == 3
        assert rerun_store.session.hits == 3

    def test_store_served_reports_equal_fresh_evaluation(self, tmp_path):
        store = ReportStore(tmp_path / "store")
        clear_process_caches()
        context = ExperimentContext.quick()
        EvaluationScheduler(max_workers=1, store=store) \
            .prefetch(requests_for_context(context))
        fresh = {name: context.reports(name)
                 for name in context.workload_names}

        clear_process_caches()
        context2 = ExperimentContext.quick()
        EvaluationScheduler(max_workers=1,
                            store=ReportStore(tmp_path / "store")) \
            .prefetch(requests_for_context(context2))
        for name, per_variant in fresh.items():
            assert context2.reports(name) == per_variant


class TestStatsAndFormatting:
    def test_stats_counts_entries_and_kernels(self, store, quick_context):
        for name in quick_context.workload_names:
            store.store(_memo_key(quick_context, name),
                        quick_context.reports(name))
        stats = store.stats()
        assert stats.entries == 3
        assert stats.reports == 9  # 3 workloads x 3 variants
        assert stats.kernels == {"gram": 3}
        assert stats.schema_versions == {str(SCHEMA_VERSION): 3}
        text = format_stats(stats, store.session, root=store.root)
        assert "entries" in text and "gram=3" in text


class TestLiveStoreMaintenance:
    """Maintenance passes racing live readers/writers (the server case)."""

    def test_gc_leaves_a_paused_writers_tmp_file_alone(self, store,
                                                       quick_context):
        """Regression: gc used to unlink *every* ``*.tmp*`` unconditionally,
        deleting a live writer's temp file out from under its ``os.replace``
        and failing the write.  A temp file younger than the grace period
        must survive gc, and the paused writer's publish must succeed."""
        key = _memo_key(quick_context, "tiny-fem")
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A writer paused between writing its temp file and publishing it —
        # exactly the file _atomic_write_json would have open.
        tmp = path.parent / (path.name + ".tmp-paused")
        tmp.write_text(json.dumps({"half": "written"}))

        outcome = store.gc()
        assert tmp.exists(), "gc reaped a live writer's in-flight temp file"
        assert outcome.removed_temp_files == 0
        assert outcome.skipped >= 1

        # The paused writer resumes: its atomic publish must succeed.
        os.replace(tmp, path)
        assert path.exists()

    def test_gc_reaps_orphaned_tmp_files_after_grace(self, store,
                                                     quick_context):
        key = _memo_key(quick_context, "tiny-fem")
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        orphan = path.parent / (path.name + ".tmp-orphan")
        orphan.write_text("dead writer's leftovers")

        # Injectable clock: "now" is far enough in the future that the file
        # has aged past the grace period.
        outcome = store.gc(now=time.time() + TMP_GRACE_SECONDS + 1)
        assert not orphan.exists()
        assert outcome.removed_temp_files == 1

    def test_stats_tolerates_entries_vanishing_mid_walk(self, store,
                                                        quick_context,
                                                        monkeypatch):
        """Regression: ``stats`` used to ``stat()`` each listed path and
        crash with FileNotFoundError when a concurrent gc or quarantine
        move deleted the file between listing and stat."""
        for name in quick_context.workload_names:
            store.store(_memo_key(quick_context, name),
                        quick_context.reports(name))
        real_entry_paths = store._entry_paths

        def vanishing_entry_paths():
            for index, path in enumerate(list(real_entry_paths())):
                if index == 1:
                    path.unlink()  # a concurrent gc got there first
                yield path

        monkeypatch.setattr(store, "_entry_paths", vanishing_entry_paths)
        stats = store.stats()
        assert stats.entries == 2
        assert stats.skipped == 1
        assert "vanished mid-scan" in format_stats(stats)

    def test_gc_tolerates_entries_vanishing_mid_walk(self, store,
                                                     quick_context,
                                                     monkeypatch):
        for name in quick_context.workload_names:
            store.store(_memo_key(quick_context, name),
                        quick_context.reports(name))
        real_entry_paths = store._entry_paths

        def vanishing_entry_paths():
            for index, path in enumerate(list(real_entry_paths())):
                if index == 0:
                    path.unlink()
                yield path

        monkeypatch.setattr(store, "_entry_paths", vanishing_entry_paths)
        outcome = store.gc()
        assert outcome.kept == 2
        assert outcome.skipped == 1
        assert outcome.removed_entries == 0

    def test_verify_tolerates_entries_vanishing_mid_walk(self, store,
                                                         quick_context,
                                                         monkeypatch):
        for name in quick_context.workload_names:
            store.store(_memo_key(quick_context, name),
                        quick_context.reports(name))
        real_entry_paths = store._entry_paths

        def vanishing_entry_paths():
            for index, path in enumerate(list(real_entry_paths())):
                if index == 2:
                    path.unlink()
                yield path

        monkeypatch.setattr(store, "_entry_paths", vanishing_entry_paths)
        outcome = store.verify()
        assert outcome.ok == 2
        assert outcome.skipped == 1
        assert outcome.quarantined == 0
