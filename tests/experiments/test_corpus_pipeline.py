"""Corpus suites through the whole pipeline: scheduler, sweep, table5, CLI.

Everything runs against the committed fixture corpus (``tests/data/corpus``)
with ``REPRO_CORPUS_OFFLINE=1`` and an isolated cache root — zero network —
which is exactly how the CI smoke step drives the same paths.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import table5
from repro.experiments.registry import get
from repro.experiments.runner import ExperimentContext, clear_process_caches
from repro.experiments.scheduler import (
    EvaluationScheduler,
    requests_for_context,
)
from repro.experiments.store import ReportStore
from repro.experiments.sweep import sweep_grid
from repro.tensor import corpus
from repro.tensor.corpus import corpus_workload_suite
from repro.tensor.kernels import kernel_names
from repro.tensor.suite import corpus_suite, suite_from_token

FIXTURES = Path(__file__).resolve().parents[1] / "data" / "corpus"
MANIFEST = FIXTURES / "manifest.json"

#: Three fixtures spanning all wire formats (smtx, mtx.gz, tar.gz member).
CORPUS_IDS = (
    "dlmc:fixture/magnitude-080",
    "suitesparse:fixture/fem-band",
    "suitesparse:fixture/cant-mini",
)

ALL_FIXTURE_IDS = CORPUS_IDS + (
    "dlmc:fixture/random-050",
    "suitesparse:fixture/powerlaw-graph",
)


@pytest.fixture(scope="module", autouse=True)
def _hermetic_corpus_env(tmp_path_factory):
    """Isolated cache root + offline mode, inherited by pool workers."""
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setenv(corpus.ENV_CACHE,
                       str(tmp_path_factory.mktemp("corpus-cache")))
        patcher.setenv(corpus.ENV_OFFLINE, "1")
        yield


def _fixture_suite(ids=CORPUS_IDS, seed=2023):
    return corpus_workload_suite(list(ids), manifest=MANIFEST, seed=seed)


class TestCorpusSuiteErrorPaths:
    """Regressions for the ``corpus_suite`` error paths hardened in this PR.

    Both failed before the fix: duplicates produced a confusing
    "filenames must yield unique workload names" message naming only the
    stems, and an unreadable file surfaced as a raw parser traceback with
    no offending path in the message.
    """

    def test_duplicate_paths_are_rejected_by_path(self):
        path = FIXTURES / "powerlaw-graph.mtx"
        with pytest.raises(ValueError, match="duplicate corpus path"):
            corpus_suite([path, path])
        with pytest.raises(ValueError, match=str(path)):
            corpus_suite([path, FIXTURES.parent / "corpus" /
                          "powerlaw-graph.mtx"])  # distinct spellings, one file

    def test_unreadable_matrix_names_the_path(self, tmp_path):
        bad = tmp_path / "absent.mtx"
        with pytest.raises(ValueError,
                           match=f"failed to load corpus matrix {bad}"):
            corpus_suite([bad])
        garbled = tmp_path / "garbled.mtx"
        garbled.write_text("not a MatrixMarket header\n")
        with pytest.raises(ValueError, match="garbled.mtx"):
            corpus_suite([garbled])


class TestCorpusTokenRebuild:
    def test_worker_rebuilt_suite_is_float_identical_in_process(self):
        suite = _fixture_suite()
        rebuilt = suite_from_token(suite.cache_token)
        assert rebuilt.names == suite.names
        for name in suite.names:
            left, right = suite.matrix(name), rebuilt.matrix(name)
            assert (left.csr != right.csr).nnz == 0
            assert np.array_equal(left.values(), right.values())
            pair_left = suite.paired_matrix(name)
            pair_right = rebuilt.paired_matrix(name)
            assert (pair_left.csr != pair_right.csr).nnz == 0

    def test_token_survives_a_seed_override(self):
        suite = _fixture_suite(seed=7)
        scope, seed, order = suite.cache_token
        assert seed == 7
        rebuilt = suite_from_token((scope, seed, order))
        assert (rebuilt.paired_matrix(order[0]).csr !=
                suite.paired_matrix(order[0]).csr).nnz == 0


def _report_values(report):
    return {
        "bound": report.bound,
        "bumped_fraction": report.bumped_fraction,
        "cycles": report.cycles,
        "dram_total_words": report.traffic.dram.total_words,
        "effectual_multiplies": report.effectual_multiplies,
        "energy_total_pj": report.energy.total_pj,
        "glb_overbooking_rate": report.glb_overbooking_rate,
        "glb_total_words": report.traffic.global_buffer.total_words,
        "output_nonzeros": report.output_nonzeros,
        "tiling_tax_elements": report.tiling_tax_elements,
    }


def _all_kernel_reports(max_workers):
    """Evaluate the fixture corpus under every kernel with a cold cache."""
    clear_process_caches()
    suite = _fixture_suite()
    base = ExperimentContext(suite=suite, kernel="gram")
    contexts = {kernel: base.with_kernel(kernel) for kernel in kernel_names()}
    requests = [request for ctx in contexts.values()
                for request in requests_for_context(ctx)]
    stats = EvaluationScheduler(
        max_workers=max_workers, min_parallel_requests=1).prefetch(requests)
    reports = {
        (kernel, name): ctx.reports(name)
        for kernel, ctx in contexts.items() for name in ctx.workload_names
    }
    return stats, reports


class TestCorpusParallelBitIdentical:
    def test_two_workers_match_serial_exactly_across_all_kernels(self):
        """Pool workers rebuild ``("corpus", ...)`` suites from dataset IDs
        through the shared on-disk cache; the reports must carry the same
        floats as the serial in-process path — bit-identical, not close."""
        serial_stats, serial = _all_kernel_reports(max_workers=1)
        parallel_stats, parallel = _all_kernel_reports(max_workers=2)

        expected = len(kernel_names()) * len(CORPUS_IDS)
        assert serial_stats.computed == expected
        assert parallel_stats.computed == expected
        assert parallel_stats.workers == 2

        assert sorted(parallel) == sorted(serial)
        for key, per_variant in serial.items():
            assert sorted(parallel[key]) == sorted(per_variant)
            for variant, report in per_variant.items():
                assert _report_values(parallel[key][variant]) == \
                    _report_values(report), (key, variant)

    def test_worker_rebuilt_requests_are_memo_hits_afterwards(self):
        _all_kernel_reports(max_workers=2)
        context = ExperimentContext(suite=_fixture_suite())
        stats = EvaluationScheduler(max_workers=2, min_parallel_requests=1) \
            .prefetch(requests_for_context(context))
        assert stats.computed == 0
        assert stats.warm == len(CORPUS_IDS)


class TestCorpusSweep:
    def test_sweep_grid_accepts_a_corpus_axis(self):
        clear_process_caches()
        result = sweep_grid(_fixture_suite(), y_values=(0.10,),
                            max_workers=1)
        workloads = sorted({row.workload for row in result.rows})
        assert workloads == ["cant-mini", "fem-band", "magnitude-080"]

    def test_store_resumed_sweep_is_byte_identical(self, tmp_path):
        grid = dict(y_values=(0.05, 0.10), max_workers=1)

        clear_process_caches()
        clean = sweep_grid(_fixture_suite(), **grid)
        clean_json = clean.write_json(tmp_path / "clean.json").read_bytes()
        clean_csv = clean.write_csv(tmp_path / "clean.csv").read_bytes()

        clear_process_caches()
        sweep_grid(_fixture_suite(), store=ReportStore(tmp_path / "store"),
                   **grid)

        clear_process_caches()  # "fresh process": memos gone, store remains
        resumed = sweep_grid(_fixture_suite(),
                             store=ReportStore(tmp_path / "store"),
                             resume=True, **grid)
        assert resumed.schedule.computed == 0
        assert resumed.schedule.store_hits == len(CORPUS_IDS) * 2

        assert resumed.write_json(
            tmp_path / "resumed.json").read_bytes() == clean_json
        assert resumed.write_csv(
            tmp_path / "resumed.csv").read_bytes() == clean_csv


@pytest.fixture(scope="module")
def quick_result():
    experiment = get("table5")
    with EvaluationScheduler(max_workers=1) as scheduler:
        return experiment.run(ExperimentContext.quick(), scheduler=scheduler,
                              **experiment.quick_params)


class TestTable5:
    def test_sources_and_row_counts(self, quick_result):
        assert quick_result.sources == ["dlmc", "suitesparse", "synth"]
        assert quick_result.kernels == list(table5.QUICK_KERNELS)
        workloads = (len(table5.QUICK_DLMC) + len(table5.QUICK_SUITESPARSE)
                     + len(table5.QUICK_SYNTH))
        assert len(quick_result.rows) == \
            workloads * len(quick_result.kernels)

    def test_rows_are_source_major(self, quick_result):
        sources = [row.source for row in quick_result.rows]
        assert sources == sorted(sources, key=quick_result.sources.index)

    def test_speedups_and_rates_are_sane(self, quick_result):
        for row in quick_result.rows:
            assert row.speedup_ob_vs_naive > 0
            assert row.speedup_ob_vs_prescient > 0
            assert row.energy_ratio_ob_vs_naive > 0
            assert 0.0 <= row.glb_overbooking_rate <= 1.0
            assert row.nnz > 0 and row.rows > 0 and row.cols > 0
            assert row.occupancy_cv >= 0.0

    def test_summaries_cover_every_source(self, quick_result):
        for source in quick_result.sources:
            summary = quick_result.summary(source)
            assert summary.workloads > 0
            assert summary.geomean_speedup_ob_vs_naive > 0
        with pytest.raises(KeyError):
            quick_result.summary("imagined")

    def test_fixture_dimensions_flow_from_the_corpus(self, quick_result):
        by_workload = {(row.source, row.workload): row
                       for row in quick_result.rows}
        mag = by_workload[("dlmc", "magnitude-080")]
        assert (mag.rows, mag.cols, mag.nnz) == (96, 128, 2496)

    def test_result_formats_as_two_tables(self, quick_result):
        text = table5.format_result(quick_result)
        assert "Table 5" in text
        assert "per-source geomeans" in text
        assert "suitesparse" in text

    def test_needs_at_least_one_source(self):
        with pytest.raises(ValueError, match="at least one"):
            get("table5").run(ExperimentContext.quick(), dlmc=(),
                              suitesparse=(), synth=(),
                              scheduler=EvaluationScheduler(max_workers=1))


class TestCorpusCli:
    def test_run_with_corpus_flag(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main(["run", "fig7",
                     "--corpus", "suitesparse:fixture/fem-band",
                     "--corpus", "suitesparse:fixture/cant-mini",
                     "--corpus-manifest", str(MANIFEST),
                     "--workers", "1", "--output-dir", str(out_dir)])
        assert code == 0
        payload = json.loads((out_dir / "fig7.json").read_text())
        assert payload["suite"] == "corpus"
        workloads = [row["workload"] for row in payload["result"]["rows"]]
        assert workloads == ["fem-band", "cant-mini"]

    def test_run_table5_quick(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main(["run", "table5", "--quick", "--workers", "1",
                     "--output-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        payload = json.loads((out_dir / "table5.json").read_text())
        assert payload["result"]["sources"] == \
            ["dlmc", "suitesparse", "synth"]

    def test_sweep_with_corpus_flag(self, tmp_path):
        out_dir = tmp_path / "artifacts"
        code = main(["sweep", "--corpus", "dlmc:fixture/magnitude-080",
                     "--corpus-manifest", str(MANIFEST), "--y", "0.1",
                     "--workers", "1", "--output-dir", str(out_dir)])
        assert code == 0
        payload = json.loads((out_dir / "sweep.json").read_text())
        assert payload["suite_workloads"] == ["magnitude-080"]

    def test_corpus_list_fetch_verify_gc_cycle(self, tmp_path, capsys):
        cache = tmp_path / "cli-cache"
        common = ["--corpus-manifest", str(MANIFEST),
                  "--corpus-cache", str(cache)]

        assert main(["corpus", "list"] + common) == 0
        out = capsys.readouterr().out
        assert "fixture/fem-band" in out
        assert "Williams/cant" in out  # builtin catalog is still listed

        assert main(["corpus", "fetch", "suitesparse:fixture/fem-band",
                     "dlmc:fixture/random-050"] + common) == 0
        capsys.readouterr()

        assert main(["corpus", "verify"] + common) == 0
        assert "2 ok" in capsys.readouterr().out

        assert main(["corpus", "gc"] + common) == 0
        capsys.readouterr()
        assert main(["corpus", "verify"] + common) == 0
        assert "2 ok" in capsys.readouterr().out  # gc kept the matrices

    def test_corpus_fetch_unknown_matrix_fails_cleanly(self, tmp_path,
                                                       capsys):
        code = main(["corpus", "fetch", "dlmc:fixture/absent",
                     "--corpus-manifest", str(MANIFEST),
                     "--corpus-cache", str(tmp_path / "cache")])
        assert code != 0
        assert "absent" in capsys.readouterr().err
