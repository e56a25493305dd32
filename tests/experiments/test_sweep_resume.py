"""Resumable sweeps: interrupted + resumed == uninterrupted, byte for byte."""

import json

import pytest

from repro.experiments.runner import clear_process_caches
from repro.experiments import scheduler as scheduler_mod
from repro.experiments.scheduler import EvaluationScheduler
from repro.experiments.store import ReportStore
from repro.experiments.sweep import sweep_grid, sweep_signature
from repro.tensor.suite import small_suite

Y_VALUES = (0.05, 0.10)


def _run_clean(tmp_path):
    clear_process_caches()
    result = sweep_grid(small_suite(), y_values=Y_VALUES, max_workers=1)
    return (result.write_json(tmp_path / "clean.json").read_bytes(),
            result.write_csv(tmp_path / "clean.csv").read_bytes())


class TestResume:
    def test_interrupted_then_resumed_is_byte_identical(self, tmp_path,
                                                        monkeypatch):
        """The acceptance criterion, end to end.

        A sweep is killed mid-grid (after the first batch unit — 2 of 6
        cells), the process dies (simulated by clearing every in-process
        memo), and the rerun with ``resume=True`` must (a) re-evaluate only
        the missing cells and (b) write byte-identical JSON/CSV to an
        uninterrupted run.
        """
        clean_json, clean_csv = _run_clean(tmp_path)

        # --- interrupted run: crash after the 1st evaluated unit ----------
        # (a unit is one workload's y-axis group: 2 cells of the 6)
        clear_process_caches()
        store = ReportStore(tmp_path / "store")
        real_evaluate = scheduler_mod._evaluate_request_group
        calls = {"n": 0}

        def dying_evaluate(unit):
            if calls["n"] >= 1:
                raise KeyboardInterrupt("simulated crash mid-grid")
            calls["n"] += 1
            return real_evaluate(unit)

        monkeypatch.setattr(scheduler_mod, "_evaluate_request_group",
                            dying_evaluate)
        with pytest.raises(KeyboardInterrupt):
            sweep_grid(small_suite(), y_values=Y_VALUES, max_workers=1,
                       store=store)
        monkeypatch.setattr(scheduler_mod, "_evaluate_request_group",
                            real_evaluate)

        # The two finished cells are durable; the manifest records the grid.
        assert store.stats().entries == 2
        signature = sweep_signature(
            small_suite(), y_values=Y_VALUES, glb_scales=(1.0,),
            pe_scales=(1.0,), kernels=("gram",),
            base=__import__("repro.accelerator.config",
                            fromlist=["scaled_default_config"]
                            ).scaled_default_config())
        manifest = store.read_manifest(signature)
        assert manifest is not None
        assert manifest["status"] == "in-progress"
        assert manifest["cells"] == 6

        # --- resumed run in a "fresh process" -----------------------------
        clear_process_caches()
        resumed = sweep_grid(small_suite(), y_values=Y_VALUES, max_workers=1,
                             store=ReportStore(tmp_path / "store"),
                             resume=True)
        assert resumed.schedule.store_hits == 2   # only the missing cells...
        assert resumed.schedule.computed == 4     # ...were re-evaluated

        resumed_json = resumed.write_json(tmp_path / "resumed.json")
        resumed_csv = resumed.write_csv(tmp_path / "resumed.csv")
        assert resumed_json.read_bytes() == clean_json
        assert resumed_csv.read_bytes() == clean_csv

        manifest = ReportStore(tmp_path / "store").read_manifest(signature)
        assert manifest["status"] == "complete"
        assert manifest["store_hits"] == 2

    def test_resume_on_warm_store_recomputes_nothing(self, tmp_path):
        clear_process_caches()
        store = ReportStore(tmp_path / "store")
        sweep_grid(small_suite(), y_values=Y_VALUES, max_workers=1,
                   store=store)

        clear_process_caches()
        resumed = sweep_grid(small_suite(), y_values=Y_VALUES, max_workers=1,
                             store=ReportStore(tmp_path / "store"),
                             resume=True)
        assert resumed.schedule.computed == 0
        assert resumed.schedule.store_hits == 6

    def test_resume_requires_store(self):
        with pytest.raises(ValueError, match="store"):
            sweep_grid(small_suite(), y_values=(0.10,), resume=True)

    def test_scheduler_with_max_workers_or_store_is_refused(self, tmp_path):
        # A scheduler already decides the workers and the store.
        scheduler = EvaluationScheduler(max_workers=1)
        store = ReportStore(tmp_path / "store")
        for extra in ({"store": store}, {"max_workers": 1}):
            with pytest.raises(ValueError, match="not both"):
                sweep_grid(small_suite(), y_values=(0.10,),
                           scheduler=scheduler, **extra)
        assert store.stats().entries == 0


class TestOverwriteGuard:
    def test_write_json_refuses_existing_path(self, tmp_path):
        clear_process_caches()
        result = sweep_grid(small_suite(), y_values=(0.10,), max_workers=1,
                            workloads=["tiny-fem"])
        path = result.write_json(tmp_path / "sweep.json")
        with pytest.raises(FileExistsError, match="--force"):
            result.write_json(path)
        with pytest.raises(FileExistsError, match="--force"):
            result.write_csv(path)
        result.write_json(path, force=True)  # explicit overwrite works

    def test_cli_sweep_refuses_then_forces(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["sweep", "--suite", "quick", "--y", "0.1", "--workers", "1",
                "--workloads", "tiny-fem", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2  # refuses before evaluating anything
        assert "--force" in capsys.readouterr().err
        assert main(argv + ["--force"]) == 0

    def test_cli_resume_requires_store(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--suite", "quick", "--resume",
                     "--no-artifacts"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_cli_sweep_store_resume_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        argv = ["sweep", "--suite", "quick", "--y", "0.05,0.1",
                "--workers", "1", "--output-dir", str(tmp_path),
                "--store", store_dir]
        clear_process_caches()
        assert main(argv) == 0
        first = (tmp_path / "sweep.json").read_bytes()

        clear_process_caches()
        assert main(argv + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert "resumed from the store" in err
        assert (tmp_path / "sweep.json").read_bytes() == first

    def test_sweep_json_deterministic_payload(self, tmp_path):
        clear_process_caches()
        result = sweep_grid(small_suite(), y_values=(0.10,), max_workers=1)
        payload = json.loads(
            result.write_json(tmp_path / "sweep.json").read_text())
        assert "schedule" not in payload
        assert result.schedule.computed >= 0  # still available in-process
