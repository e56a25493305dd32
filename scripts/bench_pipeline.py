#!/usr/bin/env python
"""End-to-end pipeline benchmark: wall time per stage of ``all_reports()``.

Writes ``BENCH_pipeline.json`` at the repository root so successive PRs have a
performance trajectory to compare against.  Stages:

* ``matrix_generation`` — building the 22 synthetic suite matrices;
* ``operation_counts`` — effectual multiplies / output occupancy per workload;
* ``evaluation`` — tiling + traffic + energy for all workloads × variants;
* ``all_reports_cold`` — a fresh ``ExperimentContext.full().all_reports()``
  in the same process *with every process-wide memo cleared first* (what a
  cold process pays);
* ``all_reports_warm`` — a fresh context afterwards (what every *subsequent*
  context in a process pays, exercising the memoization layer);
* ``parallel`` — the cold full-suite evaluation again, but pre-computed by
  the :mod:`repro.experiments.scheduler` worker pool at each worker count in
  ``--workers-sweep`` (what ``python -m repro run --workers N`` pays);
* ``store`` — the persistent report store (:mod:`repro.experiments.store`):
  a full-suite 3-target sweep evaluated cold *writing* a store, then the
  same sweep on a cold process *reading* it (what ``--store``/``--resume``
  pays), plus raw store write/load throughput in entries per second;
* ``shard_scaling`` — the same full-suite 3-target sweep executed by 1 vs 2
  vs 4 cooperative shard workers (real ``python -m repro sweep --shard i/N``
  subprocesses, see :mod:`repro.experiments.shard`), wall time from first
  launch to last exit — what multi-worker sharding buys end to end,
  including process startup and lease traffic;
* ``batch_grid`` — a cold ``y × GLB × PE-buffer × PE-count`` grid (serial,
  one process) evaluated twice: once per-point (one
  ``ExTensorModel.evaluate_workload`` call per cell, the engine loop) and
  once through the scheduler's vectorized batch engine
  (:mod:`repro.model.batch`), recording both wall times,
  cells/second, and ``speedup_batch_vs_loop``.  Runs even on 1-core
  machines — it measures the serial evaluation kernel, not pool scaling;
* ``search`` — the design-space search benchmark grid run twice: brute
  force (every candidate exactly evaluated) vs. surrogate-ranked
  (:mod:`repro.experiments.surrogate`), recording wall times, exact
  evaluation counts, the reduction factor, and the surrogate frontier's
  precision/recall against the brute-force frontier (pinned at 1.0/1.0 —
  the frontiers must be identical);
* ``corpus`` — the real-matrix corpus cache (:mod:`repro.tensor.corpus`)
  against the committed offline fixture corpus: cold transport + checksum +
  atomic install + parse for every wire format vs. warm cache-hit loading,
  plus warm matrix loads per second;
* ``server`` — the evaluation daemon (:mod:`repro.server`) under the
  ``scripts/bench_server.py`` load generator: N concurrent clients over a
  mixed hot/cold request stream, recording per-phase p50/p99 latency,
  throughput, and memo/store warm hit rates (the repeated-request phase
  must stay above 90 %).

Run with::

    PYTHONPATH=src python scripts/bench_pipeline.py [--output BENCH_pipeline.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.runner import (  # noqa: E402
    ExperimentContext,
    clear_process_caches,
)
from repro.experiments.scheduler import EvaluationScheduler  # noqa: E402

#: Wall time of ``ExperimentContext.full().all_reports()`` at the seed commit
#: (before the tiling layer was vectorized), best of 3 on the machine this PR
#: was developed on.  Recorded here so BENCH_pipeline.json always carries the
#: seed-vs-current comparison; re-measure by checking out the seed commit and
#: running ``scripts/bench_pipeline.py`` there.
SEED_ALL_REPORTS_SECONDS = 3.329


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _timed_parallel(workers: int) -> float:
    """Cold full-suite evaluation pre-computed on a ``workers``-process pool."""
    clear_process_caches()
    context = ExperimentContext.full()
    scheduler = EvaluationScheduler(max_workers=workers, min_parallel_requests=1)

    def run() -> None:
        scheduler.prefetch_context(context)
        context.all_reports()  # memo hits: collects what the pool computed

    return _timed(run)


def _bench_store() -> dict:
    """Cold-vs-warm-store sweep wall time + raw store throughput."""
    import tempfile

    from repro.experiments.store import ReportStore
    from repro.experiments.sweep import sweep_grid

    y_values = (0.05, 0.10, 0.22)
    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        store_dir = Path(tmp) / "store"

        clear_process_caches()
        store = ReportStore(store_dir)
        start = time.perf_counter()
        sweep_grid(ExperimentContext.full().suite, y_values=y_values,
                   max_workers=1, store=store)
        cold = time.perf_counter() - start

        clear_process_caches()  # "fresh process": memo gone, store remains
        warm_store = ReportStore(store_dir)
        start = time.perf_counter()
        result = sweep_grid(ExperimentContext.full().suite, y_values=y_values,
                            max_workers=1, store=warm_store, resume=True)
        warm = time.perf_counter() - start
        assert result.schedule.computed == 0, "warm-store sweep re-evaluated"

        # Raw store-hit throughput: load every entry back repeatedly.
        clear_process_caches()
        reader = ReportStore(store_dir)
        context = ExperimentContext.full()
        keys = [context.memo_key(name) for name in context.workload_names]
        rounds = 5
        start = time.perf_counter()
        for _ in range(rounds):
            for key in keys:
                assert reader.load(key) is not None
        load_seconds = time.perf_counter() - start
        loads = rounds * len(keys)

        # Bulk lookup (one scandir per shard instead of one open per key):
        # what the scheduler's prefetch pays when warm-starting a search.
        clear_process_caches()
        bulk_reader = ReportStore(store_dir)
        start = time.perf_counter()
        for _ in range(rounds):
            assert len(bulk_reader.load_many(keys)) == len(keys)
        bulk_seconds = time.perf_counter() - start

    return {
        "sweep_cells": result.schedule.unique,
        "sweep_cold_write_seconds": round(cold, 4),
        "sweep_warm_store_seconds": round(warm, 4),
        "warm_vs_cold_speedup": round(cold / warm, 2),
        "store_hit_entries_per_second": round(loads / load_seconds, 1),
        "store_hit_reports_per_second": round(3 * loads / load_seconds, 1),
        "store_bulk_load_entries_per_second": round(loads / bulk_seconds, 1),
    }


def _bench_shards(shard_counts=(1, 2, 4)) -> dict:
    """Wall time of an N-worker cooperative sharded sweep, per N.

    Each worker is a real ``python -m repro sweep --shard i/N`` subprocess
    against a shared fresh store, so the measurement includes interpreter
    startup, suite rebuild, and lease-file traffic — the honest end-to-end
    cost of sharding, not just the evaluation kernel.
    """
    import subprocess
    import tempfile

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULTS", None)  # never benchmark with fault drills armed

    results = {}
    for count in shard_counts:
        with tempfile.TemporaryDirectory(prefix="bench-shard-") as tmp:
            start = time.perf_counter()
            workers = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro", "sweep",
                     "--suite", "full", "--y", "0.05,0.10,0.22",
                     "--shard", f"{index}/{count}",
                     "--store", str(Path(tmp) / "store")],
                    env=env, cwd=tmp,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                for index in range(1, count + 1)
            ]
            for worker in workers:
                if worker.wait(timeout=600) != 0:
                    raise RuntimeError(
                        f"shard worker exited {worker.returncode}")
            results[str(count)] = round(time.perf_counter() - start, 4)
    return results


def _bench_batch_grid() -> dict:
    """Cold batched vs. per-point grid evaluation, serial, same requests.

    The grid crosses ``y`` with GLB/PE-buffer scaling *and a PE-count axis*
    (the batch evaluator's cheapest direction: PE count changes no tiling, so
    thousands of cells share one set of occupancy reductions) — the shape a
    design-space search over the paper's architecture actually sweeps.  Both
    measurements start from cleared process caches and run on one worker, so
    the difference is purely the per-cell evaluation path.
    """
    from repro.accelerator.config import scaled_default_config
    from repro.accelerator.extensor import AcceleratorVariant, ExTensorModel
    from repro.experiments.scheduler import EvaluationRequest

    y_values = (0.02, 0.05, 0.08, 0.10, 0.14, 0.18, 0.22, 0.30)
    glb_scales = (0.5, 1.0, 2.0)
    pe_scales = (0.5, 1.0, 2.0)
    pe_counts = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256,
                 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144)
    workload_count = 4

    base = scaled_default_config()
    suite = ExperimentContext.full().suite
    token = suite.cache_token
    names = list(suite.names)[:workload_count]

    architectures = []
    for glb_scale in glb_scales:
        for pe_scale in pe_scales:
            scaled = base.with_overrides(
                glb_capacity_words=max(
                    1, int(round(base.glb_capacity_words * glb_scale))),
                pe_buffer_capacity_words=max(
                    1, int(round(base.pe_buffer_capacity_words * pe_scale))))
            architectures.extend(scaled.with_overrides(num_pes=count)
                                 for count in pe_counts)
    requests = [
        EvaluationRequest(suite_token=token, architecture=architecture,
                          overbooking_target=y, workload=name)
        for name in names for architecture in architectures for y in y_values
    ]

    def cold_batched() -> float:
        clear_process_caches()
        start = time.perf_counter()
        stats = EvaluationScheduler(max_workers=1).prefetch(requests)
        seconds = time.perf_counter() - start
        assert stats.computed == len(requests), "grid cells were not cold"
        return seconds

    def cold_loop() -> float:
        clear_process_caches()
        start = time.perf_counter()
        context = ExperimentContext.full()
        for request in requests:
            ExTensorModel(request.architecture, [
                AcceleratorVariant.naive(),
                AcceleratorVariant.prescient(),
                AcceleratorVariant.overbooking(
                    overbooking_target=request.overbooking_target),
            ]).evaluate_workload(context.workload(request.workload))
        return time.perf_counter() - start

    batched = cold_batched()
    loop = cold_loop()
    cells = len(requests)
    return {
        "cells": cells,
        "workloads": workload_count,
        "grid": {
            "y_values": len(y_values),
            "glb_scales": len(glb_scales),
            "pe_scales": len(pe_scales),
            "pe_counts": len(pe_counts),
        },
        "batched_seconds": round(batched, 4),
        "per_point_seconds": round(loop, 4),
        "batched_cells_per_second": round(cells / batched, 1),
        "per_point_cells_per_second": round(cells / loop, 1),
        "speedup_batch_vs_loop": round(loop / batched, 2),
    }


#: The design-space search benchmark grid: large enough that the surrogate
#: trains, verifies, and pays for itself, validated to reproduce the
#: brute-force frontier exactly (the golden tests pin the same grid).
SEARCH_BENCH_GRID = dict(
    kernels=("gram",),
    y_values=(0.02, 0.05, 0.10, 0.22),
    glb_scales=(0.4, 0.7, 1.0, 1.5),
    pe_scales=(0.5, 1.0, 2.0),
    max_generations=4,
    max_evaluations=100000,
)


def _frontier_keys(result):
    """Comparable per-group frontier membership: (kernel, workload, config)."""
    return {(p.kernel, p.workload, p.config) for p in result.frontier}


def _bench_search() -> dict:
    """Brute-force vs. surrogate-ranked design-space search on one grid."""
    from repro.experiments.search import search_frontier
    from repro.tensor.suite import small_suite

    def cold_run(use_surrogate: bool):
        clear_process_caches()
        start = time.perf_counter()
        result = search_frontier(small_suite(), use_surrogate=use_surrogate,
                                 scheduler=EvaluationScheduler(max_workers=1),
                                 **SEARCH_BENCH_GRID)
        return result, time.perf_counter() - start

    brute, brute_seconds = cold_run(False)
    surrogate, surrogate_seconds = cold_run(True)

    brute_evals = sum(s.evaluated_configs for s in brute.generations)
    surrogate_evals = sum(s.evaluated_configs for s in surrogate.generations)
    brute_frontier = _frontier_keys(brute)
    surrogate_frontier = _frontier_keys(surrogate)
    true_positives = len(surrogate_frontier & brute_frontier)

    return {
        "grid": {
            "y_values": len(SEARCH_BENCH_GRID["y_values"]),
            "glb_scales": len(SEARCH_BENCH_GRID["glb_scales"]),
            "pe_scales": len(SEARCH_BENCH_GRID["pe_scales"]),
            "generations": SEARCH_BENCH_GRID["max_generations"],
        },
        "brute_seconds": round(brute_seconds, 4),
        "surrogate_seconds": round(surrogate_seconds, 4),
        "brute_exact_evaluations": brute_evals,
        "surrogate_exact_evaluations": surrogate_evals,
        "evaluation_reduction": round(brute_evals / surrogate_evals, 2),
        "frontier_precision": round(
            true_positives / max(len(surrogate_frontier), 1), 4),
        "frontier_recall": round(
            true_positives / max(len(brute_frontier), 1), 4),
        "frontier_equal": surrogate_frontier == brute_frontier,
    }


def _bench_corpus() -> dict:
    """The corpus cache: cold fetch+install vs. warm cache-hit loading.

    Runs entirely offline against the committed fixture corpus
    (``tests/data/corpus/``): the cold phase pays transport + checksum +
    atomic install + parse for every fixture matrix across all wire
    formats, the warm phase pays only the installed-file check and parse
    — the per-evaluation overhead a corpus workload adds once cached.
    """
    import tempfile

    from repro.tensor.corpus import CorpusCache, corpus_workload_suite

    manifest = REPO_ROOT / "tests" / "data" / "corpus" / "manifest.json"
    ids = [
        "dlmc:fixture/magnitude-080",
        "dlmc:fixture/random-050",
        "suitesparse:fixture/fem-band",
        "suitesparse:fixture/powerlaw-graph",
        "suitesparse:fixture/cant-mini",
    ]

    with tempfile.TemporaryDirectory(prefix="bench-corpus-") as tmp:
        cache = CorpusCache(Path(tmp) / "cache")

        def build_and_load():
            suite = corpus_workload_suite(
                ids, manifest=manifest, cache=cache, offline=True)
            return [suite.matrix(name) for name in suite.names]

        cold = _timed(build_and_load)
        warm = _timed(build_and_load)
        rounds = 5
        start = time.perf_counter()
        for _ in range(rounds):
            build_and_load()
        warm_loads_per_second = rounds * len(ids) / \
            (time.perf_counter() - start)

    return {
        "matrices": len(ids),
        "cold_fetch_install_load_seconds": round(cold, 4),
        "warm_cache_hit_load_seconds": round(warm, 4),
        "warm_vs_cold_speedup": round(cold / warm, 2),
        "warm_matrix_loads_per_second": round(warm_loads_per_second, 1),
    }


def _bench_server() -> dict:
    """The daemon under concurrent load (see ``scripts/bench_server.py``)."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        from bench_server import run_server_bench
    finally:
        sys.path.pop(0)
    return run_server_bench()


def run_benchmark(workers_sweep=(1, 2, 4)) -> dict:
    clear_process_caches()

    context = ExperimentContext.full()
    names = context.workload_names

    generation = _timed(lambda: [context.matrix(n) for n in names])
    counts = _timed(lambda: [context.workload(n).operation_counts for n in names])
    evaluation = _timed(context.all_reports)

    clear_process_caches()
    cold = _timed(lambda: ExperimentContext.full().all_reports())

    warm = _timed(lambda: ExperimentContext.full().all_reports())

    # On a 1-core machine the worker sweep measures ProcessPoolExecutor
    # overhead, not parallel scaling (every pool worker timeshares the single
    # core), which badly distorts the recorded trajectory.  Record the core
    # count and skip the sweep with a note instead.
    cpu_count = os.cpu_count() or 1
    if cpu_count <= 1:
        parallel = {}
        parallel_note = (
            "skipped: os.cpu_count() == 1, so a worker sweep would measure "
            "pool overhead rather than scaling; re-run on multi-core "
            "hardware (the serial batch_grid section is still measured)")
    else:
        parallel = {
            str(workers): round(_timed_parallel(workers), 4)
            for workers in workers_sweep
        }
        parallel_note = f"measured on {cpu_count} cores"

    store = _bench_store()

    # Same 1-core caveat as the worker sweep: N shard subprocesses
    # timesharing one core measure contention, not scaling.
    if cpu_count <= 1:
        shards = {}
        shard_note = (
            "skipped: os.cpu_count() == 1, so concurrent shard workers "
            "would measure core contention rather than scaling; re-run on "
            "multi-core hardware (the serial batch_grid section is still "
            "measured)")
    else:
        shards = _bench_shards()
        shard_note = f"measured on {cpu_count} cores"

    batch_grid = _bench_batch_grid()
    search = _bench_search()
    corpus = _bench_corpus()
    server = _bench_server()

    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": cpu_count,
        "seed": {"all_reports_cold_seconds": SEED_ALL_REPORTS_SECONDS},
        "current": {
            "matrix_generation_seconds": round(generation, 4),
            "operation_counts_seconds": round(counts, 4),
            "evaluation_seconds": round(evaluation, 4),
            "all_reports_cold_seconds": round(cold, 4),
            "all_reports_warm_seconds": round(warm, 4),
        },
        "parallel_cold_seconds_by_workers": parallel,
        "parallel_note": parallel_note,
        "store": store,
        "shard_scaling_seconds_by_workers": shards,
        "shard_scaling_note": shard_note,
        "batch_grid": batch_grid,
        "search": search,
        "corpus": corpus,
        "server": server,
        "speedup_cold_vs_seed": round(SEED_ALL_REPORTS_SECONDS / cold, 2),
        "speedup_warm_vs_seed": round(SEED_ALL_REPORTS_SECONDS / warm, 2),
        "speedup_batch_vs_loop": batch_grid["speedup_batch_vs_loop"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_pipeline.json",
                        help="where to write the JSON result")
    parser.add_argument("--workers-sweep", default="1,2,4",
                        help="comma-separated scheduler worker counts to time "
                             "on the cold full suite (default: 1,2,4)")
    args = parser.parse_args(argv)

    workers_sweep = [int(w) for w in args.workers_sweep.split(",") if w.strip()]
    result = run_benchmark(workers_sweep)
    args.output.write_text(json.dumps(result, indent=2) + "\n")

    current = result["current"]
    print(f"matrix generation : {current['matrix_generation_seconds']:.3f}s")
    print(f"operation counts  : {current['operation_counts_seconds']:.3f}s")
    print(f"evaluation        : {current['evaluation_seconds']:.3f}s")
    print(f"all_reports cold  : {current['all_reports_cold_seconds']:.3f}s "
          f"({result['speedup_cold_vs_seed']:.1f}x vs seed "
          f"{SEED_ALL_REPORTS_SECONDS:.3f}s)")
    print(f"all_reports warm  : {current['all_reports_warm_seconds']:.3f}s "
          f"({result['speedup_warm_vs_seed']:.1f}x vs seed)")
    if result["parallel_cold_seconds_by_workers"]:
        for workers, seconds in result["parallel_cold_seconds_by_workers"].items():
            print(f"scheduler cold, {workers} worker(s): {seconds:.3f}s")
    else:
        print(f"worker sweep {result['parallel_note']}")
    store = result["store"]
    print(f"store: 3-target sweep cold {store['sweep_cold_write_seconds']:.3f}s"
          f" -> warm-store {store['sweep_warm_store_seconds']:.3f}s "
          f"({store['warm_vs_cold_speedup']:.1f}x); "
          f"{store['store_hit_entries_per_second']:.0f} entry loads/s, "
          f"{store['store_bulk_load_entries_per_second']:.0f} bulk loads/s")
    if result["shard_scaling_seconds_by_workers"]:
        for count, seconds in \
                result["shard_scaling_seconds_by_workers"].items():
            print(f"sharded sweep, {count} worker(s): {seconds:.3f}s")
    else:
        print(f"shard scaling {result['shard_scaling_note']}")
    grid = result["batch_grid"]
    print(f"batch grid: {grid['cells']} cells cold in "
          f"{grid['batched_seconds']:.3f}s batched vs "
          f"{grid['per_point_seconds']:.3f}s per-point "
          f"({grid['speedup_batch_vs_loop']:.1f}x, "
          f"{grid['batched_cells_per_second']:.0f} cells/s)")
    search = result["search"]
    print(f"search: surrogate {search['surrogate_exact_evaluations']} vs "
          f"brute {search['brute_exact_evaluations']} exact evals "
          f"({search['evaluation_reduction']:.2f}x fewer), frontier "
          f"precision/recall {search['frontier_precision']:.2f}/"
          f"{search['frontier_recall']:.2f}, equal={search['frontier_equal']}")
    corpus = result["corpus"]
    print(f"corpus: {corpus['matrices']} fixture matrices cold "
          f"fetch+install+load {corpus['cold_fetch_install_load_seconds']:.3f}s"
          f" -> warm {corpus['warm_cache_hit_load_seconds']:.3f}s "
          f"({corpus['warm_vs_cold_speedup']:.1f}x, "
          f"{corpus['warm_matrix_loads_per_second']:.0f} loads/s)")
    server = result["server"]
    hot = server["phases"]["hot"]
    print(f"server: {server['clients']} clients, hot phase p50 "
          f"{hot['latency_p50_ms']:.1f}ms / p99 {hot['latency_p99_ms']:.1f}ms "
          f"at {hot['throughput_rps']:.1f} req/s, warm hit rate "
          f"{hot['warm_hit_rate']:.0%}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
