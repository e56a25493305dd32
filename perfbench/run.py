"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` runs it once, serially, with every layer's entry points wrapped
in spans and prints the per-layer metrics (and writes a Chrome trace).  The
last stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The line before it is the full run record, also written to
``.bench_out/``.  The exit code is 1 when an output check fails and 2 when
the benchmark cannot run here.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time

from common import (
    OUT,
    ROOT,
    BenchError,
    OutputMismatch,
    adopt_descendants,
    host_fingerprint,
    latency_summary,
    prepare_environment,
    reap_descendants,
    result_line,
    summary,
    write_record,
)

#: Metric names and units, as declared in BENCHMARK.json: the end-to-end
#: ones are printed by every ``--trace 0`` run, the per-layer ones by every
#: ``--trace 1`` run.  Per-layer ``*_s``/``*_ms`` times are self times; a
#: layer a workload does not reach reads 0.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def timed_run(workload, seconds: float) -> tuple:
    setups = [workload.setup() for _ in range(workload.setups)]
    measurement = workload.measure(seconds)
    workload.close()
    latencies = measurement.latencies
    values = {
        "setup_s": statistics.median(setups),
        "p50_ms": statistics.median(latencies) * 1000.0,
        "ops_per_s": measurement.attempted / measurement.wall,
        "peak_rss_mb": measurement.peak_rss_mb,
    }
    record = {
        "setup_s": summary(setups),
        "latency": latency_summary(latencies),
        "latency_s": summary(latencies),
        "wall_s": measurement.wall,
        "failed_frac": measurement.failed / measurement.attempted,
        **measurement.details,
    }
    try:
        workload.verify(measurement.outputs)
        correct = True
    except OutputMismatch as error:
        correct, record["mismatch"] = False, str(error)
    return (correct, measurement.attempted, measurement.failed,
            {name: (values[name], unit) for name, unit in END_TO_END.items()},
            record)


def layer_metrics(tracer, extras: dict) -> dict:
    from spans import span_cost

    self_times = tracer.self_times()
    spans = tracer.named

    def attr_sum(name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in spans(name))

    tiles = len(spans("tiling.tile"))
    builds = attr_sum("tiling.tile", "built")
    wall = tracer.window[1] - tracer.window[0]
    values = {
        "suite.matrices_built": len(spans("suite.build")),
        "opcount.s": self_times.get("opcount", 0.0),
        "opcount.workloads": len(spans("opcount")),
        "tiling.tile_calls": tiles,
        "tiling.tile_builds": builds,
        "tiling.memo_hit_ratio": _ratio(tiles - builds, tiles),
        "batch.cells": attr_sum("batch.prime", "cells"),
        "engine.calls": len(spans("engine.evaluate")),
        "store.hits": attr_sum("store.load", "hits"),
        "store.writes": len(spans("store.write")),
        "store.hit_ratio": _ratio(attr_sum("store.load", "hits"),
                                  attr_sum("store.load", "keys")),
        "scheduler.units": attr_sum("scheduler.prefetch", "units"),
        "search.s": self_times.get("search", 0.0),
        "search.exact_evals": attr_sum("search", "exact_evals"),
        "memo.hit_ratio": _ratio(attr_sum("scheduler.prefetch", "warm"),
                                 attr_sum("scheduler.prefetch", "unique")),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - tracer.attributed(),
        "trace.overhead_s": len(tracer.spans) * span_cost(),
    }
    values.update(extras)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name not in values and name.endswith("_s"):
            values[name] = self_times.get(name[:-2], 0.0)
        metrics[name] = (values.get(name, 0), unit)
    return metrics, {"self_time_s": self_times, "spans": len(tracer.spans)}


def traced_run(workload, name: str) -> tuple:
    from spans import Tracer

    tracer = Tracer()
    extras = workload.traced(tracer)
    metrics, record = layer_metrics(tracer, extras)
    trace_path = OUT / f"trace-{name}.json"
    OUT.mkdir(exist_ok=True)
    tracer.write_chrome_trace(trace_path, tracer.window[0])
    record["chrome_trace"] = str(trace_path.relative_to(OUT.parent))
    return True, 1, 0, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test problem size")
    args = parser.parse_args(argv)

    try:
        prepare_environment()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # A terminated run still stops the daemon and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{run_name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](SIZES[args.size], args.seed, workdir)
    started = time.time()
    try:
        if args.trace:
            correct, attempted, failed, metrics, record = traced_run(
                workload, run_name)
        else:
            correct, attempted, failed, metrics, record = timed_run(
                workload, args.seconds)
    except OutputMismatch as error:
        print(f"perfbench: output check failed: {error}", file=sys.stderr)
        print(result_line(correct=False, attempted=1, failed=1, metrics={}))
        return 1
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "size": args.size,
              "seconds": args.seconds, "started_unix": started,
              "host": host_fingerprint(), "correct": correct,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()},
              **record}
    write_record(run_name, record)
    print(json.dumps(record))
    print(result_line(correct=correct, attempted=attempted, failed=failed,
                      metrics=metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    # Every exit, a failed check or SIGTERM included, waits for each process
    # the run started, and for the processes those started, to end.
    adopt_descendants()
    try:
        status = main()
    finally:
        reap_descendants()
    sys.exit(status)
