"""The corpus manager: catalogs, transports, the checksummed offline cache.

Everything here runs against the committed fixture corpus under
``tests/data/corpus/`` — through ``file://`` URLs or the in-memory fake
transport — so the whole subsystem is exercised with zero network access.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.tensor import corpus
from repro.tensor.corpus import (
    ChecksumMismatch,
    CorpusCache,
    CorpusError,
    CorpusFetchWarning,
    InMemoryTransport,
    MatrixDescriptor,
    UrllibTransport,
    builtin_catalog,
    corpus_workload_suite,
    load_manifest,
    parse_corpus_ids,
    read_smtx,
    resolve_catalog,
)
from repro.utils import faults
from repro.utils.faults import FaultInjector

FIXTURES = Path(__file__).resolve().parents[1] / "data" / "corpus"
MANIFEST = FIXTURES / "manifest.json"

#: Every fixture matrix ID, dataset-major.
FIXTURE_IDS = [
    "dlmc:fixture/magnitude-080",
    "dlmc:fixture/random-050",
    "suitesparse:fixture/fem-band",
    "suitesparse:fixture/powerlaw-graph",
    "suitesparse:fixture/cant-mini",
]


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    faults.set_injector(FaultInjector())
    yield
    faults.set_injector(None)


@pytest.fixture(autouse=True)
def _no_ambient_corpus_env(monkeypatch):
    monkeypatch.delenv(corpus.ENV_CACHE, raising=False)
    monkeypatch.delenv(corpus.ENV_OFFLINE, raising=False)


@pytest.fixture
def cache(tmp_path):
    return CorpusCache(tmp_path / "cache")


@pytest.fixture
def catalog():
    return resolve_catalog(MANIFEST)


def fake_transport():
    """An in-memory transport serving the fixture corpus by its real URLs."""
    resources = {}
    for descriptor in load_manifest(MANIFEST):
        local = FIXTURES / descriptor.url.rsplit("/", 1)[-1]
        resources[descriptor.url] = local.read_bytes()
    return InMemoryTransport(resources)


class TestParseCorpusIds:
    def test_sticky_dataset_prefix(self):
        ids = parse_corpus_ids("dlmc:a/b,c/d,suitesparse:Williams/cant")
        assert ids == ["dlmc:a/b", "dlmc:c/d", "suitesparse:Williams/cant"]

    def test_default_dataset(self):
        assert parse_corpus_ids("g/n", default_dataset="dlmc") == ["dlmc:g/n"]

    def test_missing_dataset_prefix_is_an_error(self):
        with pytest.raises(CorpusError, match="no dataset prefix"):
            parse_corpus_ids("Williams/cant")

    def test_missing_group_is_an_error(self):
        with pytest.raises(CorpusError, match="no group"):
            parse_corpus_ids("dlmc:cant")

    def test_empty_spec_is_an_error(self):
        with pytest.raises(CorpusError, match="empty corpus spec"):
            parse_corpus_ids(" , ")


class TestDescriptorsAndCatalogs:
    def test_builtin_catalog_covers_the_papers_matrices(self):
        catalog = builtin_catalog()
        assert "suitesparse:Williams/cant" in catalog
        assert "suitesparse:SNAP/web-Google" in catalog
        suitesparse = [d for d in catalog if d.dataset == "suitesparse"]
        assert len(suitesparse) == 22  # the paper's Table 2 evaluation set
        assert all(d.format == "tar.gz" and d.member for d in suitesparse)
        dlmc = [d for d in catalog if d.dataset == "dlmc"]
        assert dlmc and all(d.member.endswith(".smtx") for d in dlmc)

    def test_unknown_matrix_error_names_siblings(self):
        with pytest.raises(CorpusError, match="Williams/cant"):
            builtin_catalog().get("suitesparse:Williams/nope")

    def test_unknown_dataset_error_suggests_a_manifest(self):
        with pytest.raises(CorpusError, match="manifest"):
            builtin_catalog().get("nonsense:a/b")

    def test_unknown_format_rejected(self):
        with pytest.raises(CorpusError, match="unknown corpus format"):
            MatrixDescriptor(dataset="d", group="g", name="n",
                             url="file:///x", format="zip")

    def test_archive_entry_requires_member(self):
        with pytest.raises(CorpusError, match="member"):
            MatrixDescriptor(dataset="d", group="g", name="n",
                             url="file:///x", format="tar.gz")

    def test_installed_suffix_follows_archive_member(self):
        descriptor = MatrixDescriptor(
            dataset="dlmc", group="g", name="n", url="file:///x",
            format="tar.gz", member="dlmc/g/n.smtx")
        assert descriptor.installed_suffix == ".smtx"
        assert descriptor.filename == "n.smtx"


class TestManifest:
    def test_relative_urls_resolve_against_the_manifest(self):
        catalog = load_manifest(MANIFEST)
        for descriptor in catalog:
            assert descriptor.url.startswith("file://")
            assert descriptor.sha256 and descriptor.rows and descriptor.nnz

    def test_manifest_overlays_the_builtin_catalog(self, catalog):
        assert "suitesparse:fixture/fem-band" in catalog
        assert "suitesparse:Williams/cant" in catalog  # builtin still there

    def test_missing_manifest_is_a_corpus_error(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            load_manifest(tmp_path / "absent.json")

    def test_invalid_json_is_a_corpus_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(CorpusError, match="not valid JSON"):
            load_manifest(path)

    def test_entry_errors_name_their_index(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"dataset": "dlmc",
             "matrices": [{"group": "g", "name": "n", "url": "u"},
                          {"group": "g", "url": "u"}]}))
        with pytest.raises(CorpusError, match=r"matrices\[1\]"):
            load_manifest(path)

    def test_missing_dataset_everywhere_is_an_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"matrices": [{"group": "g", "name": "n", "url": "u"}]}))
        with pytest.raises(CorpusError, match="dataset"):
            load_manifest(path)


class TestTransports:
    def test_in_memory_transport_records_requests(self):
        transport = InMemoryTransport({"u": b"payload"})
        import io

        sink = io.BytesIO()
        transport.fetch("u", sink)
        assert sink.getvalue() == b"payload"
        assert transport.requests == ["u"]

    def test_in_memory_transport_unknown_url_raises_oserror(self):
        import io

        with pytest.raises(OSError, match="no resource"):
            InMemoryTransport({}).fetch("u", io.BytesIO())

    def test_urllib_transport_serves_file_urls(self, tmp_path):
        import io

        path = tmp_path / "payload.bin"
        path.write_bytes(b"local bytes")
        sink = io.BytesIO()
        UrllibTransport().fetch(path.as_uri(), sink)
        assert sink.getvalue() == b"local bytes"

    def test_default_transport_override_and_restore(self):
        fake = InMemoryTransport({})
        corpus.set_default_transport(fake)
        try:
            assert corpus.default_transport() is fake
        finally:
            corpus.set_default_transport(None)
        assert isinstance(corpus.default_transport(), UrllibTransport)


class TestCacheInstall:
    @pytest.mark.parametrize("matrix_id", FIXTURE_IDS)
    def test_fetch_installs_every_wire_format(self, cache, catalog, matrix_id):
        descriptor = catalog.get(matrix_id)
        path = cache.ensure_local(descriptor, transport=fake_transport())
        assert path.exists()
        assert path == cache.matrix_path(descriptor)
        receipt = json.loads(cache.receipt_path(descriptor).read_text())
        assert receipt["matrix_id"] == matrix_id
        assert receipt["size"] == path.stat().st_size

    def test_warm_hit_touches_no_transport(self, cache, catalog):
        descriptor = catalog.get("dlmc:fixture/magnitude-080")
        transport = fake_transport()
        cache.ensure_local(descriptor, transport=transport)
        assert len(transport.requests) == 1
        cache.ensure_local(descriptor, transport=transport)
        assert len(transport.requests) == 1  # served from the cache

    def test_refresh_refetches(self, cache, catalog):
        descriptor = catalog.get("suitesparse:fixture/powerlaw-graph")
        transport = fake_transport()
        cache.ensure_local(descriptor, transport=transport)
        cache.ensure_local(descriptor, transport=transport, refresh=True)
        assert transport.requests.count(descriptor.url) == 2

    def test_archive_download_shared_across_members(self, cache, tmp_path):
        # Two descriptors pointing into the same archive: one download.
        base = load_manifest(MANIFEST).get("suitesparse:fixture/cant-mini")
        twin = MatrixDescriptor(
            dataset=base.dataset, group=base.group, name="cant-twin",
            url=base.url, sha256=base.sha256, format="tar.gz",
            member=base.member)
        transport = fake_transport()
        cache.ensure_local(base, transport=transport)
        cache.ensure_local(twin, transport=transport)
        assert transport.requests.count(base.url) == 1

    def test_missing_archive_member_is_a_clear_error(self, cache):
        base = load_manifest(MANIFEST).get("suitesparse:fixture/cant-mini")
        wrong = MatrixDescriptor(
            dataset=base.dataset, group=base.group, name=base.name,
            url=base.url, sha256=base.sha256, format="tar.gz",
            member="cant-mini/absent.mtx")
        with pytest.raises(CorpusError, match="absent.mtx"):
            cache.ensure_local(wrong, transport=fake_transport())


class TestTornCache:
    def test_truncated_install_is_a_miss_and_refetched(self, cache, catalog):
        descriptor = catalog.get("suitesparse:fixture/fem-band")
        transport = fake_transport()
        path = cache.ensure_local(descriptor, transport=transport)
        good = path.read_bytes()
        path.write_bytes(good[: len(good) // 2])  # torn sync / truncation

        assert cache.installed_path(descriptor) is None
        assert list(cache.quarantine_root.iterdir())  # sidelined, not served
        fresh = cache.ensure_local(descriptor, transport=transport)
        assert fresh.read_bytes() == good
        assert transport.requests.count(descriptor.url) == 2

    def test_install_without_receipt_is_a_miss(self, cache, catalog):
        descriptor = catalog.get("suitesparse:fixture/fem-band")
        transport = fake_transport()
        cache.ensure_local(descriptor, transport=transport)
        cache.receipt_path(descriptor).unlink()
        assert cache.installed_path(descriptor) is None


class TestChecksums:
    def test_mismatch_quarantines_warns_and_refetches(self, cache, catalog):
        descriptor = catalog.get("dlmc:fixture/random-050")
        good = (FIXTURES / "random-050.smtx").read_bytes()
        served = iter([b"corrupted bytes", good])
        transport = InMemoryTransport({descriptor.url: lambda: next(served)})

        with pytest.warns(CorpusFetchWarning, match="checksum mismatch"):
            path = cache.ensure_local(descriptor, transport=transport)
        assert path.read_bytes() == good
        quarantined = list(cache.quarantine_root.iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith("checksum-mismatch")
        assert quarantined[0].read_bytes() == b"corrupted bytes"

    def test_persistent_mismatch_raises_checksum_mismatch(self, cache, catalog):
        descriptor = catalog.get("dlmc:fixture/random-050")
        transport = InMemoryTransport({descriptor.url: b"always wrong"})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CorpusFetchWarning)
            with pytest.raises(ChecksumMismatch, match="twice"):
                cache.ensure_local(descriptor, transport=transport)
        assert len(list(cache.quarantine_root.iterdir())) == 2
        assert cache.installed_path(descriptor) is None

    def test_trust_on_first_use_records_digest_in_receipt(self, cache):
        unpinned = MatrixDescriptor(
            dataset="suitesparse", group="fixture", name="powerlaw-graph",
            url=(FIXTURES / "powerlaw-graph.mtx").as_uri(), format="mtx")
        path = cache.ensure_local(unpinned)
        receipt = json.loads(cache.receipt_path(unpinned).read_text())
        import hashlib

        assert receipt["sha256"] == hashlib.sha256(
            path.read_bytes()).hexdigest()


class TestOfflineAndDegradation:
    def test_offline_mode_refuses_remote_urls(self, cache):
        remote = MatrixDescriptor(
            dataset="suitesparse", group="g", name="n",
            url="https://example.org/n.mtx", format="mtx")
        with pytest.raises(CorpusError, match="offline mode"):
            cache.ensure_local(remote, offline=True)

    def test_offline_env_variable_is_honored(self, cache, monkeypatch):
        monkeypatch.setenv(corpus.ENV_OFFLINE, "1")
        remote = MatrixDescriptor(
            dataset="suitesparse", group="g", name="n",
            url="https://example.org/n.mtx", format="mtx")
        with pytest.raises(CorpusError, match="offline mode"):
            cache.ensure_local(remote)

    def test_offline_mode_still_serves_file_urls(self, cache, catalog):
        descriptor = catalog.get("suitesparse:fixture/powerlaw-graph")
        assert cache.ensure_local(descriptor, offline=True).exists()

    def test_transport_failure_degrades_to_cached_copy(self, cache, catalog):
        descriptor = catalog.get("suitesparse:fixture/fem-band")
        path = cache.ensure_local(descriptor, transport=fake_transport())
        dead = InMemoryTransport({})  # every fetch raises OSError
        with pytest.warns(CorpusFetchWarning, match="using the cached copy"):
            served = cache.ensure_local(descriptor, transport=dead,
                                        refresh=True)
        assert served == path

    def test_transport_failure_with_cold_cache_is_a_clear_error(self, cache,
                                                                catalog):
        descriptor = catalog.get("suitesparse:fixture/fem-band")
        with pytest.raises(CorpusError) as excinfo:
            cache.ensure_local(descriptor, transport=InMemoryTransport({}))
        message = str(excinfo.value)
        assert "not cached" in message
        assert descriptor.url in message
        assert str(cache.matrix_path(descriptor)) in message


class TestFaultInjection:
    def test_corpus_fetch_fault_degrades_to_cache(self, cache, catalog):
        descriptor = catalog.get("dlmc:fixture/magnitude-080")
        transport = fake_transport()
        cache.ensure_local(descriptor, transport=transport)

        faults.set_injector(FaultInjector.from_spec("corpus.fetch=1"))
        with pytest.warns(CorpusFetchWarning, match="injected transient"):
            path = cache.ensure_local(descriptor, transport=transport,
                                      refresh=True)
        assert path.exists()
        assert faults.active().fired["corpus.fetch"] == 1

    def test_corpus_fetch_fault_on_cold_cache_errors_clearly(self, cache,
                                                             catalog):
        descriptor = catalog.get("dlmc:fixture/magnitude-080")
        faults.set_injector(FaultInjector.from_spec("corpus.fetch=1"))
        with pytest.raises(CorpusError, match="not cached"):
            cache.ensure_local(descriptor, transport=fake_transport())

    def test_corpus_corrupt_fault_quarantines_and_refetches(self, cache,
                                                            catalog):
        descriptor = catalog.get("dlmc:fixture/random-050")
        transport = fake_transport()
        faults.set_injector(FaultInjector.from_spec("corpus.corrupt=1"))
        with pytest.warns(CorpusFetchWarning, match="checksum mismatch"):
            path = cache.ensure_local(descriptor, transport=transport)
        assert path.read_bytes() == (FIXTURES / "random-050.smtx").read_bytes()
        assert faults.active().fired["corpus.corrupt"] == 1
        assert any(entry.name.startswith("checksum-mismatch")
                   for entry in cache.quarantine_root.iterdir())

    def test_corpus_sites_are_known_to_the_spec_parser(self):
        injector = FaultInjector.from_spec("corpus.fetch=2,corpus.corrupt=1")
        assert injector.armed("corpus.fetch")
        assert injector.armed("corpus.corrupt")


class TestVerifyAndGc:
    def test_verify_reports_ok_and_quarantines_corruption(self, cache,
                                                          catalog):
        fem = catalog.get("suitesparse:fixture/fem-band")
        graph = catalog.get("suitesparse:fixture/powerlaw-graph")
        transport = fake_transport()
        cache.ensure_local(fem, transport=transport)
        target = cache.ensure_local(graph, transport=transport)
        # Same-size bit rot: the torn-file size check cannot catch this,
        # only a real re-hash can.
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))

        outcome = cache.verify([fem, graph])
        assert outcome.ok == 1
        assert outcome.corrupt == [graph.matrix_id]
        assert cache.installed_path(graph) is None  # quarantined
        # The next ensure_local re-fetches cleanly.
        fresh = cache.ensure_local(graph, transport=transport)
        assert cache.verify([graph]).ok == 1
        assert fresh.exists()

    def test_verify_without_descriptors_scans_everything(self, cache, catalog):
        transport = fake_transport()
        for matrix_id in FIXTURE_IDS:
            cache.ensure_local(catalog.get(matrix_id), transport=transport)
        outcome = cache.verify()
        assert outcome.checked == len(FIXTURE_IDS)
        assert outcome.ok == len(FIXTURE_IDS)

    def test_gc_reclaims_downloads_and_quarantine_keeps_matrices(self, cache,
                                                                 catalog):
        descriptor = catalog.get("suitesparse:fixture/cant-mini")
        path = cache.ensure_local(descriptor, transport=fake_transport())
        cache.quarantine_root.mkdir(parents=True, exist_ok=True)
        (cache.quarantine_root / "junk").write_bytes(b"x" * 100)

        outcome = cache.gc()
        assert outcome.removed_downloads == 1  # the shared archive
        assert outcome.removed_quarantined == 1
        assert outcome.reclaimed_bytes > 100
        assert path.exists()  # installed tier untouched
        assert cache.installed_path(descriptor) == path


class TestReadSmtx:
    def test_round_trips_the_fixture_mask(self):
        matrix = read_smtx(FIXTURES / "magnitude-080.smtx")
        assert matrix.name == "magnitude-080"
        assert (matrix.num_rows, matrix.num_cols) == (96, 128)
        header = (FIXTURES / "magnitude-080.smtx").read_text().splitlines()[0]
        assert matrix.nnz == int(header.replace(",", " ").split()[2])
        assert np.all(matrix.values() == 1.0)

    def test_malformed_header_is_a_value_error(self, tmp_path):
        path = tmp_path / "bad.smtx"
        path.write_text("1 2\n0 1\n0\n")
        with pytest.raises(ValueError, match="malformed .smtx header"):
            read_smtx(path)

    def test_inconsistent_counts_are_value_errors(self, tmp_path):
        path = tmp_path / "bad.smtx"
        path.write_text("2, 2, 3\n0 1 2\n0 1\n")
        with pytest.raises(ValueError, match="column indices"):
            read_smtx(path)
        path.write_text("2, 2, 2\n0 1\n0 1\n")
        with pytest.raises(ValueError, match="row offsets"):
            read_smtx(path)


class TestCorpusWorkloadSuite:
    def test_builds_lazy_suite_with_manifest_metadata(self, cache):
        suite = corpus_workload_suite(
            FIXTURE_IDS, manifest=MANIFEST, cache=cache, offline=True)
        assert suite.names == ["magnitude-080", "random-050", "fem-band",
                               "powerlaw-graph", "cant-mini"]
        # Dimension metadata came from the manifest: nothing installed yet.
        assert not list(cache.matrices_root.rglob("*.smtx"))
        spec = suite.spec("magnitude-080")
        assert spec.category == "corpus"
        assert spec.paper_rows == 96 and spec.paper_cols == 128
        matrix = suite.matrix("magnitude-080")
        assert matrix.nnz == 2496  # now it is installed

    def test_comma_separated_ids_are_expanded(self, cache):
        suite = corpus_workload_suite(
            ["dlmc:fixture/magnitude-080,fixture/random-050"],
            manifest=MANIFEST, cache=cache, offline=True)
        assert suite.names == ["magnitude-080", "random-050"]

    def test_duplicate_ids_are_a_value_error(self, cache):
        with pytest.raises(ValueError, match="duplicate corpus matrix id"):
            corpus_workload_suite(
                ["dlmc:fixture/magnitude-080", "dlmc:fixture/magnitude-080"],
                manifest=MANIFEST, cache=cache, offline=True)

    def test_cache_token_records_ids_and_manifest(self, cache):
        suite = corpus_workload_suite(
            ["dlmc:fixture/magnitude-080"], manifest=MANIFEST, cache=cache,
            offline=True)
        scope, seed, order = suite.cache_token
        assert scope == ("corpus", ("dlmc:fixture/magnitude-080",),
                         str(MANIFEST))
        assert seed == 2023
        assert order == ("magnitude-080",)

    def test_name_collisions_qualify_with_the_group(self, cache, tmp_path):
        manifest = tmp_path / "collide.json"
        manifest.write_text(json.dumps({"matrices": [
            {"dataset": "suitesparse", "group": "alpha", "name": "same",
             "url": (FIXTURES / "powerlaw-graph.mtx").as_uri(),
             "format": "mtx", "rows": 140, "cols": 140, "nnz": 1400},
            {"dataset": "suitesparse", "group": "beta/deep", "name": "same",
             "url": (FIXTURES / "powerlaw-graph.mtx").as_uri(),
             "format": "mtx", "rows": 140, "cols": 140, "nnz": 1400},
        ]}))
        suite = corpus_workload_suite(
            ["suitesparse:alpha/same", "suitesparse:beta/deep/same"],
            manifest=manifest, cache=cache, offline=True)
        assert suite.names == ["alpha.same", "beta.deep.same"]

    def test_unknown_id_is_a_corpus_error(self, cache):
        with pytest.raises(CorpusError, match="unknown corpus matrix"):
            corpus_workload_suite(["dlmc:fixture/absent"], manifest=MANIFEST,
                                  cache=cache, offline=True)

    def test_load_failure_names_the_matrix_and_path(self, cache, catalog):
        descriptor = catalog.get("dlmc:fixture/magnitude-080")
        suite = corpus_workload_suite(
            ["dlmc:fixture/magnitude-080"], manifest=MANIFEST, cache=cache,
            offline=True)
        path = cache.ensure_local(descriptor, offline=True)
        path.write_text("garbage\n")
        cache._write_receipt(descriptor, path)  # keep the receipt consistent
        with pytest.raises(CorpusError, match="magnitude-080"):
            suite.matrix("magnitude-080")
