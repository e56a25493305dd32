"""Smoke and output-check tests of the benchmark (tiny problem size)."""

import json
import os
import subprocess
import sys

import pytest

from common import ROOT, SRC, OutputMismatch, digest, json_bytes
from run import END_TO_END, PER_LAYER
from workloads import (
    HOT_GRID,
    SIZES,
    WORKLOADS,
    ColdSweep,
    Outcome,
    RegridStore,
    Reproduce,
    ServeMixed,
    check_served,
)

TINY = SIZES["tiny"]


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = PER_LAYER if trace else END_TO_END
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == named
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_refuses_fault_drills():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "cold_sweep", "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "REPRO_FAULTS": "store.load=1"})
    assert completed.returncode == 2
    assert completed.stdout == ""


def _perturbed(payload: dict) -> dict:
    """``payload`` with the first float it holds nudged in its last digit."""
    text = json.dumps(payload)
    for token in text.replace(",", " ").replace("}", " ").split():
        if "." in token and token.replace(".", "").isdigit():
            nudged = token[:-1] + str((int(token[-1]) + 1) % 10)
            return json.loads(text.replace(token, nudged, 1))
    raise AssertionError("no float to perturb")


def test_perturbed_sweep_artifact_trips_the_checks(tmp_path):
    sweep = ColdSweep(TINY, 0, tmp_path)
    sweep.reset()
    result = sweep.op(workers=1)
    good = sweep.output_of(result)
    sweep.verify([good])
    bad = digest(json_bytes(_perturbed(result.to_jsonable())))
    with pytest.raises(OutputMismatch):
        sweep.verify([good, (bad, good[1])])

    regrid = RegridStore(TINY, 0, tmp_path)
    with pytest.raises(OutputMismatch):
        regrid.verify([(bad, good[1], 0, 0)])


def test_perturbed_served_artifact_trips_the_check():
    from repro.experiments.sweep import sweep_grid
    from repro.tensor.suite import small_suite

    grid = {"y": [0.1], "glb_scales": [1.0], "pe_scales": [1.0],
            "kernels": ["gram"]}
    artifact = sweep_grid(small_suite(), y_values=[0.1],
                          max_workers=1).to_jsonable()
    good = Outcome("hot", 0.0, True, grid=grid,
                   digest=digest(json_bytes(artifact)))
    check_served([good])
    bad = Outcome("hot", 0.0, True, grid=grid,
                  digest=digest(json_bytes(_perturbed(artifact))))
    with pytest.raises(OutputMismatch):
        check_served([good, bad])


def test_failed_request_trips_the_serve_check(tmp_path):
    serve = ServeMixed(TINY, 0, tmp_path)
    dropped = Outcome("cold", 0.1, False, grid=HOT_GRID,
                      error="RemoteDisconnected()")
    with pytest.raises(OutputMismatch):
        serve.verify([dropped])


def test_perturbed_reproduce_artifact_trips_the_check(tmp_path):
    reproduce = Reproduce(TINY, 0, tmp_path)
    reproduce.reset()
    subprocess.run([sys.executable, "-m", "repro",
                    *reproduce.argv(reproduce.out_dir, 1)],
                   check=True, cwd=tmp_path, capture_output=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    reproduce.verify([reproduce.output_of(reproduce.out_dir)])

    fig7 = reproduce.out_dir / "fig7.json"
    fig7.write_text(json.dumps(_perturbed(json.loads(fig7.read_text())),
                               indent=2) + "\n")
    with pytest.raises(OutputMismatch):
        reproduce.verify([reproduce.output_of(reproduce.out_dir)])
