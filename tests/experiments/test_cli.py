"""CLI smoke tests (in-process via ``repro.cli.main``)."""

import json

import pytest

from repro import cli
from repro.cli import main
from repro.experiments.runner import clear_process_caches
from repro.experiments.scheduler import EvaluationScheduler
from repro.experiments.store import ReportStore


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table2", "fig1", "fig5", "fig7", "fig13"):
            assert name in out


class TestRun:
    def test_requires_names_or_all(self, capsys):
        assert main(["run"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_unknown_experiment_raises(self, capsys):
        assert main(["run", "fig99", "--no-artifacts"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fig99" in err

    def test_single_experiment_quick(self, tmp_path, capsys):
        code = main(["run", "fig7", "--suite", "quick", "--workers", "1",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out and "geomean" in out

        payload = json.loads((tmp_path / "fig7.json").read_text())
        assert payload["experiment"] == "fig7"
        assert payload["artifact"] == "Fig. 7"
        assert payload["suite"] == "quick"
        assert len(payload["result"]["rows"]) == 3

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [e["experiment"] for e in manifest["experiments"]] == ["fig7"]

    def test_run_all_quick_writes_every_artifact(self, tmp_path):
        code = main(["run", "--all", "--suite", "quick", "--workers", "1",
                     "--quiet", "--output-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        names = [entry["experiment"] for entry in manifest["experiments"]]
        assert len(names) == 15
        for entry in manifest["experiments"]:
            artifact = json.loads((tmp_path / entry["path"]).read_text())
            assert artifact["experiment"] == entry["experiment"]
            assert artifact["result"] is not None

    def test_no_artifacts_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig5", "--no-artifacts", "--quiet"]) == 0
        assert not (tmp_path / "artifacts").exists()


class TestSweep:
    def test_sweep_quick_three_targets(self, tmp_path, capsys):
        code = main(["sweep", "--suite", "quick", "--y", "0.05,0.1,0.22",
                     "--workers", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        assert "OB/P speedup" in capsys.readouterr().out

        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert len(payload["summaries"]) == 3
        # Run-dependent scheduling stats are excluded so sweep artifacts are
        # byte-deterministic (interrupted + resumed == uninterrupted).
        assert "schedule" not in payload

        csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 3 * 3  # header + targets x workloads

    def test_sweep_workload_subset(self, tmp_path):
        code = main(["sweep", "--suite", "quick", "--y", "0.1",
                     "--workloads", "tiny-fem", "--workers", "1",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["suite_workloads"] == ["tiny-fem"]

    def test_bad_float_list_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--y", "abc"])
        assert "comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--glb-scales", "-1"], "must be positive"),
        (["--pe-scales", ""], "must not be empty"),
    ])
    def test_bad_scale_axis_is_a_usage_error(self, capsys, argv, message):
        assert main(["sweep", "--suite", "quick", "--no-artifacts",
                     *argv]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert "Traceback" not in err


class TestRequestErrors:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--suite", "quick", "--workloads", "nope", "--no-artifacts"],
        ["sweep", "--suite", "quick", "--y", "", "--no-artifacts"],
        ["search", "--generations", "0", "--no-artifacts"],
        ["search", "--surrogate-budget", "2", "--no-artifacts"],
        ["run", "fig7", "--overbooking-target", "-1", "--no-artifacts"],
        ["run", "nonesuch", "--no-artifacts"],
        ["sweep", "--suite", "quick", "--workers", "0", "--no-artifacts"],
        ["run", "fig7", "--workers", "-3", "--no-artifacts"],
        ["search", "--workers", "0", "--no-artifacts"],
        ["serve", "--port", "0", "--workers", "0"],
        ["serve", "--port", "0", "--batch-window", "inf"],
        ["serve", "--port", "0", "--batch-window", "nan"],
        ["serve", "--port", "0", "--batch-window", "-1"],
    ], ids=["unknown-workload", "empty-y", "zero-generations",
            "surrogate-budget-above-1", "negative-target",
            "unknown-experiment", "sweep-zero-workers",
            "run-negative-workers", "search-zero-workers",
            "serve-zero-workers", "infinite-batch-window",
            "nan-batch-window", "negative-batch-window"])
    def test_bad_request_exits_2_with_an_error_line(self, capsys,
                                                    monkeypatch, argv):
        """The schema's RequestError is a usage error, not a traceback.  A
        ``serve`` that wrongly got past its checks stops at once."""
        monkeypatch.setattr("repro.server.http.serve",
                            lambda server: server.server_close())
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:"), err
        assert "Traceback" not in err


class TestSynthCli:
    def test_run_with_synth_workloads(self, tmp_path, capsys):
        code = main(["run", "fig7", "--synth", "uniform:n=200,nnz=1500",
                     "--synth", "power_law_rows:n=220,nnz=1600",
                     "--workers", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "fig7.json").read_text())
        assert payload["suite"] == "synth"
        workloads = [row["workload"] for row in payload["result"]["rows"]]
        assert workloads == ["uniform[n=200,nnz=1500]",
                             "power_law_rows[n=220,nnz=1600]"]

    def test_run_table4_quick_flag(self, tmp_path):
        # The acceptance path: `python -m repro run table4 --quick`.
        code = main(["run", "table4", "--quick", "--workers", "1",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "table4.json").read_text())
        assert payload["suite"] == "quick"
        rows = payload["result"]["rows"]
        assert {row["model"] for row in rows} == {
            "uniform", "density_gradient", "banded", "power_law_rows"}
        assert {row["kernel"] for row in rows} == {"gram", "spmv"}

    def test_sweep_with_synth_has_model_columns(self, tmp_path):
        code = main(["sweep", "--synth", "uniform:n=180,nnz=1200",
                     "--synth", "banded:n=180,bandwidth=6",
                     "--y", "0.1", "--workers", "1",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        header, *rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert "model" in header.split(",") and "model_params" in header.split(",")
        assert len(rows) == 2
        assert any(",uniform," in row for row in rows)

        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert {row["model"] for row in payload["rows"]} == {"uniform", "banded"}

    def test_malformed_synth_spec_rejected(self, capsys):
        assert main(["run", "fig7", "--synth", "uniform:n=abc"]) == 2
        assert "must be numeric" in capsys.readouterr().err

    def test_unknown_synth_model_rejected(self, capsys):
        assert main(["run", "fig7", "--synth", "rmat"]) == 2
        assert "unknown sparsity model" in capsys.readouterr().err

    def test_run_table4_warns_that_synth_does_not_apply(self, tmp_path, capsys):
        code = main(["run", "table4", "--quick", "--synth", "uniform:n=150,nnz=800",
                     "--workers", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert "--synth does not apply" in err

    def test_run_threads_workers_into_self_scheduling_experiments(
            self, tmp_path, monkeypatch):
        # table4 and fig14 evaluate their own workload sets; they must do it
        # through the run's one scheduler, which carries --workers/--store.
        built, used = [], []
        make = cli._scheduler_for
        prefetch = EvaluationScheduler.prefetch

        def recording_make(args):
            built.append(make(args))
            return built[-1]

        def recording_prefetch(self, requests, **kwargs):
            used.append((self, len(requests)))
            return prefetch(self, requests, **kwargs)

        monkeypatch.setattr(cli, "_scheduler_for", recording_make)
        monkeypatch.setattr(EvaluationScheduler, "prefetch",
                            recording_prefetch)
        clear_process_caches()
        code = main(["run", "table4", "fig14", "--quick", "--workers", "1",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        assert len(built) == 1 and built[0].max_workers == 1
        assert all(scheduler is built[0] for scheduler, _ in used)
        # The (empty) run prefetch, table4's ladder, fig14's generations.
        assert sum(count for _, count in used) > 0 and len(used) >= 3
        for name in ("table4", "fig14"):
            payload = json.loads((tmp_path / f"{name}.json").read_text())
            assert "max_workers" not in payload["params"]
            assert "store" not in payload["params"]

    def test_run_table4_store_persists_and_reruns_warm(self, tmp_path):
        # --store reaches table4: the ladder's evaluations land in the
        # store, and an identical rerun adds nothing.
        argv = ["run", "table4", "--quick", "--workers", "1",
                "--store", str(tmp_path / "store"), "--no-artifacts",
                "--quiet"]
        clear_process_caches()
        assert main(argv) == 0
        entries = ReportStore(tmp_path / "store").stats().entries
        assert entries > 0
        clear_process_caches()
        assert main(argv) == 0
        assert ReportStore(tmp_path / "store").stats().entries == entries
