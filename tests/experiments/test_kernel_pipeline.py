"""The kernel axis end to end: contexts, scheduler, sweep, table3, CLI."""

import json

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.experiments import scheduler as scheduler_module
from repro.experiments.runner import ExperimentContext, clear_process_caches
from repro.experiments.scheduler import (
    EvaluationScheduler,
    requests_for_context,
)
from repro.experiments.sweep import sweep_grid
from repro.model.workload import WorkloadDescriptor
from repro.tensor.io import write_matrix_market
from repro.tensor.kernels import kernel_names
from repro.tensor.suite import corpus_suite, small_suite, suite_from_token

NON_GRAM = ("spmspm", "spmm", "spmv", "sddmm")


def _headline(report):
    return (report.bound, report.cycles, report.energy.total_pj,
            report.traffic.dram.total_words,
            report.traffic.global_buffer.total_words,
            report.effectual_multiplies, report.output_nonzeros)


class TestKernelContexts:
    @pytest.mark.parametrize("kernel", NON_GRAM)
    def test_every_kernel_evaluates_end_to_end(self, kernel):
        context = ExperimentContext.quick(kernel=kernel)
        reports = context.reports("tiny-social")
        assert sorted(reports) == sorted(
            [context.naive_name, context.prescient_name,
             context.overbooking_name])
        for report in reports.values():
            assert report.kernel == kernel
            assert report.cycles > 0
            assert report.effectual_multiplies > 0

    def test_unknown_kernel_rejected_eagerly(self):
        with pytest.raises(KeyError, match="spmm"):
            ExperimentContext.quick(kernel="nonesuch")

    def test_with_kernel_shares_suite_and_matrices(self):
        base = ExperimentContext.quick()
        derived = base.with_kernel("spmm")
        assert derived.suite is base.suite
        assert derived.matrix("tiny-fem") is base.matrix("tiny-fem")
        assert derived.kernel == "spmm"

    def test_kernels_share_primary_matrix_but_differ(self):
        base = ExperimentContext.quick()
        gram = base.workload("tiny-fem")
        spmm = base.with_kernel("spmm").workload("tiny-fem")
        assert spmm.a is gram.a  # same stationary operand
        assert spmm.effectual_multiplies != gram.effectual_multiplies

    def test_memo_keys_differ_per_kernel(self):
        base = ExperimentContext.quick()
        assert base.memo_key("tiny-fem") != \
            base.with_kernel("spmv").memo_key("tiny-fem")

    def test_gram_descriptor_unchanged(self):
        context = ExperimentContext.quick()
        workload = context.workload("tiny-fem")
        assert workload.kernel == "gram"
        assert workload.b.csr.shape == workload.a.csr.shape[::-1]


class TestSchedulerKernelAxis:
    def test_parallel_matches_serial_for_spmm(self, monkeypatch):
        """Acceptance criterion: non-Gram parallel reports == serial."""
        # Three cold requests: below the pooling threshold unless lowered.
        monkeypatch.setattr(scheduler_module, "MIN_PARALLEL_REQUESTS", 1)
        clear_process_caches()
        serial = ExperimentContext.quick(kernel="spmm").all_reports()

        clear_process_caches()
        context = ExperimentContext.quick(kernel="spmm")
        stats = EvaluationScheduler(max_workers=2) \
            .prefetch(requests_for_context(context))
        assert stats.computed == 3 and stats.workers == 2
        parallel = context.all_reports()

        for workload, per_variant in serial.items():
            for variant, expected in per_variant.items():
                assert _headline(parallel[workload][variant]) == \
                    _headline(expected), f"{workload}/{variant}"

    def test_requests_carry_the_context_kernel(self):
        context = ExperimentContext.quick(kernel="sddmm")
        requests = requests_for_context(context)
        assert {r.kernel for r in requests} == {"sddmm"}
        assert all(r.memo_key == context.memo_key(r.workload)
                   for r in requests)

    def test_three_tuple_targets_override_kernel(self):
        context = ExperimentContext.quick()
        requests = requests_for_context(
            context, targets=[(0.1, "tiny-fem", "spmv"), (0.1, "tiny-fem")])
        assert [r.kernel for r in requests] == ["spmv", "gram"]

    def test_dense_factors_identical_across_rebuilt_suites(self):
        # What makes worker-side rebuilds bit-identical: a dense factor is
        # its shape, and the paired matrix a pure function of the suite token.
        suite = small_suite()
        rebuilt = suite_from_token(suite.cache_token)
        for kernel in ("spmm", "spmv", "sddmm"):
            one = WorkloadDescriptor.from_suite(suite, "tiny-fem", kernel=kernel)
            two = WorkloadDescriptor.from_suite(rebuilt, "tiny-fem",
                                                kernel=kernel)
            assert (one.b.num_rows, one.b.num_cols) == \
                (two.b.num_rows, two.b.num_cols)
            assert one.operation_counts == two.operation_counts
        pair_a = suite.paired_matrix("tiny-social")
        pair_b = rebuilt.paired_matrix("tiny-social")
        assert (pair_a.csr != pair_b.csr).nnz == 0


class TestSweepKernelAxis:
    def test_kernel_dimension_in_rows_and_csv(self, tmp_path):
        result = sweep_grid(small_suite(), y_values=(0.10,),
                            kernels=("gram", "spmv"), max_workers=1,
                            workloads=["tiny-fem"])
        assert [p.kernel for p in result.points] == ["gram", "spmv"]
        assert {row.kernel for row in result.rows} == {"gram", "spmv"}
        assert result.summary_at(0.10, kernel="spmv") is not None

        csv_path = result.write_csv(tmp_path / "sweep.csv")
        header, *body = csv_path.read_text().splitlines()
        assert "kernel" in header.split(",")
        assert any(",spmv," in line for line in body)

        payload = result.to_jsonable()
        assert payload["points"][1]["kernel"] == "spmv"

    def test_empty_kernels_rejected(self):
        with pytest.raises(ValueError, match="kernels"):
            sweep_grid(small_suite(), kernels=(), max_workers=1)


class TestTable3:
    def test_rows_cover_requested_kernels(self):
        experiment = registry.get("table3")
        result = experiment.run(ExperimentContext.quick(),
                                kernels=("gram", "spmm"))
        assert [row.kernel for row in result.rows] == ["gram", "spmm"]
        for row in result.rows:
            assert row.geomean_speedup_ob_vs_naive > 0
        text = experiment.format_result(result)
        assert "spmm" in text and "OB/N speedup" in text
        json.dumps(experiment.to_json(result))

    def test_announces_cross_kernel_targets(self):
        context = ExperimentContext.quick()
        targets = registry.get("table3").evaluation_targets(
            context, kernels=("gram", "spmv"))
        kernels = {t[2] for t in targets}
        assert kernels == {"gram", "spmv"}
        assert len(targets) == 2 * len(context.workload_names)

    def test_default_covers_whole_family(self):
        context = ExperimentContext.quick()
        targets = registry.get("table3").evaluation_targets(context)
        assert {t[2] for t in targets} == set(kernel_names())


class TestCliKernelAxis:
    def test_list_renders_kernel_column(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kernels" in out
        assert "table3" in out
        assert "any" in out

    def test_run_with_kernel_flag(self, tmp_path, capsys):
        code = main(["run", "fig7", "--suite", "quick", "--kernel", "spmv",
                     "--workers", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "fig7.json").read_text())
        assert payload["kernel"] == "spmv"

    def test_run_rejects_unknown_kernel(self, capsys):
        assert main(["run", "fig7", "--kernel", "bogus",
                     "--no-artifacts"]) == 2
        assert "unknown kernel 'bogus'" in capsys.readouterr().err

    def test_sweep_kernel_grid(self, tmp_path):
        code = main(["sweep", "--suite", "quick", "--y", "0.1",
                     "--kernel", "gram,spmv", "--workloads", "tiny-fem",
                     "--workers", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert len(payload["summaries"]) == 2
        csv_header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert "kernel" in csv_header.split(",")

    def test_sweep_rejects_unknown_kernel(self, capsys):
        assert main(["sweep", "--kernel", "gram,bogus"]) == 2
        assert "known" in capsys.readouterr().err


class TestCliMatrixCorpus:
    @pytest.fixture
    def corpus(self, tmp_path, test_suite):
        paths = []
        for name in ("tiny-fem", "tiny-social"):
            path = tmp_path / f"{name}.mtx.gz"
            write_matrix_market(test_suite.matrix(name), path)
            paths.append(path)
        return paths

    def test_corpus_suite_round_trips_through_gzip(self, corpus, test_suite):
        suite = corpus_suite(corpus)
        assert suite.names == ["tiny-fem", "tiny-social"]
        for name in suite.names:
            assert (suite.matrix(name).csr != test_suite.matrix(name).csr).nnz == 0

    def test_corpus_token_rebuilds_suite(self, corpus):
        suite = corpus_suite(corpus)
        token = suite.cache_token
        assert token is not None
        rebuilt = suite_from_token(token)
        assert rebuilt.names == suite.names
        matrix = suite.matrix("tiny-fem")
        assert (rebuilt.matrix("tiny-fem").csr != matrix.csr).nnz == 0

    def test_run_with_matrix_flag(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main(["run", "fig7", "--matrix", str(corpus[0]),
                     "--matrix", str(corpus[1]), "--workers", "1",
                     "--output-dir", str(out_dir)])
        assert code == 0
        payload = json.loads((out_dir / "fig7.json").read_text())
        assert payload["suite"] == "corpus"
        workloads = [row["workload"] for row in payload["result"]["rows"]]
        assert workloads == ["tiny-fem", "tiny-social"]

    def test_sweep_with_matrix_flag(self, corpus, tmp_path):
        out_dir = tmp_path / "artifacts"
        code = main(["sweep", "--matrix", str(corpus[0]), "--y", "0.1",
                     "--workers", "1", "--output-dir", str(out_dir)])
        assert code == 0
        payload = json.loads((out_dir / "sweep.json").read_text())
        assert payload["suite_workloads"] == ["tiny-fem"]

    def test_corpus_paired_operand_is_distinct(self, corpus):
        # The spmspm kernel on a corpus must not silently evaluate A x A:
        # the paired operand is a permuted transpose — same nnz, distinct.
        suite = corpus_suite(corpus)
        primary = suite.matrix("tiny-fem")
        pair = suite.paired_matrix("tiny-fem")
        assert pair.nnz == primary.nnz
        assert pair != primary
        context = ExperimentContext(suite=suite, kernel="spmspm")
        workload = context.workload("tiny-fem")
        assert workload.b is pair
        assert workload.effectual_multiplies > 0

    def test_rectangular_corpus_spmspm_composes(self, tmp_path):
        from repro.tensor.generators import uniform_random_matrix

        rect = uniform_random_matrix(40, 25, 200, rng=3, name="rect")
        path = tmp_path / "rect.mtx"
        write_matrix_market(rect, path)
        suite = corpus_suite([path])
        context = ExperimentContext(suite=suite, kernel="spmspm")
        workload = context.workload("rect")
        assert workload.a.csr.shape == (40, 25)
        assert workload.b.csr.shape == (25, 40)  # permuted transpose
        reports = context.reports("rect")
        assert all(r.cycles > 0 for r in reports.values())

    def test_symmetric_corpus_sparsity_accounts_for_mirroring(self, tmp_path):
        from repro.tensor.suite import WorkloadSpec

        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "4 4 3\n"
            "2 1 5.0\n"
            "3 1 2.0\n"
            "4 4 7.0\n"
        )
        spec = WorkloadSpec.from_matrix_market(path)
        # 3 stored entries, 2 off-diagonal -> 5 loaded nonzeros; the metadata
        # hint uses the 2x upper bound (6/16), not the stored count (3/16).
        assert spec.paper_sparsity == pytest.approx(1.0 - 6 / 16)

    def test_gram_only_experiment_kernel_labeled_honestly(self, tmp_path,
                                                          capsys):
        out_dir = tmp_path / "artifacts"
        code = main(["run", "fig1", "--suite", "quick", "--kernel", "spmv",
                     "--workers", "1", "--output-dir", str(out_dir)])
        assert code == 0
        assert "does not apply" in capsys.readouterr().err
        payload = json.loads((out_dir / "fig1.json").read_text())
        assert payload["kernel"] == "gram"  # what the results actually model
