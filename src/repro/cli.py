"""``python -m repro`` — list, run, and sweep the paper's experiments.

Subcommands
-----------

``list``
    Show every registered experiment (name, paper artifact, title).

``run``
    Regenerate figures/tables: pick experiments by name or ``--all``, choose
    the workload suite, pre-compute the shared evaluations on a worker pool,
    print each experiment's text rendering, and write one JSON artifact per
    experiment (plus a manifest) to the output directory.

``sweep``
    Run a grid over the overbooking target ``y`` and GLB/PE capacity scaling
    through the same scheduler, and write JSON + CSV artifacts.  Existing
    outputs are never overwritten without ``--force``; with ``--store DIR``
    every grid cell is persisted as it completes, and ``--resume`` finishes
    an interrupted grid recomputing only the missing cells.  ``--shard i/N``
    turns the sweep into one worker of a fault-tolerant cooperative job (see
    :mod:`repro.experiments.shard`): N workers launched with the same grid
    split the cells deterministically, claim them via lease files in the
    store, reclaim cells from crashed peers, and write no artifacts — run
    ``merge`` when they are done.

``merge``
    Verify a sharded grid is complete in the store and assemble the final
    ``sweep.json``/``sweep.csv`` — byte-identical to a serial ``sweep`` of
    the same grid.  Must be launched with the workers' exact grid arguments.

``status``
    Report a sharded grid's progress (stored / leased / missing cells)
    without evaluating or claiming anything.  Exits 0 when the grid is
    complete and ready to merge, 1 otherwise.

``search``
    Pareto design-space search: generationally expand a ``(y, GLB-scale,
    PE-scale)`` grid, prune dominated configurations, and write the
    traffic/energy frontier per kernel × workload (see
    :mod:`repro.experiments.search`).

``serve``
    Run the evaluation daemon (see :mod:`repro.server` and
    ``docs/SERVER.md``): ``run``, ``sweep`` and ``search`` become JSON
    endpoints over one shared scheduler + store, concurrent clients'
    requests are coalesced into shared evaluation passes, and results
    stream back as chunked JSON lines — byte-identical artifacts to the
    CLI path.

``store``
    Inspect (``store stats``), integrity-check (``store verify``) or
    garbage-collect (``store gc``) a persistent report store directory (see
    :mod:`repro.experiments.store`).  ``verify`` full-decodes every entry,
    quarantines corrupt ones, and with ``--clear`` empties the quarantine.

``corpus``
    Manage the real-world matrix cache (see :mod:`repro.tensor.corpus` and
    ``docs/CORPUS.md``): ``corpus list`` shows the known DLMC/SuiteSparse
    matrices and their install state, ``corpus fetch`` downloads/verifies/
    installs them, ``corpus verify`` re-hashes the installed files against
    their receipts (quarantining corruption), and ``corpus gc`` reclaims the
    re-fetchable tiers (downloads, quarantine).

``run``, ``sweep``, ``merge``, ``status`` and ``search`` turn their flags
into one request of :mod:`repro.experiments.schema` (the daemon decodes its
JSON bodies into the same dataclasses): a kernel axis (``--kernel``; see
:mod:`repro.tensor.kernels`) over a built-in suite, MatrixMarket files
(``--matrix``), corpus-managed datasets (``--corpus``; see
:mod:`repro.tensor.corpus`) or sparsity models (``--synth``; see
:mod:`repro.tensor.synth`).  A value the schema refuses, a ``--workers``
below 1 or a negative or non-finite ``--batch-window`` prints one
``error:`` line and exits 2.  ``--store DIR`` serves and persists
evaluations through the on-disk report store.

Examples (the full reference with sample output lives in ``docs/CLI.md``)::

    python -m repro list
    python -m repro run --all
    python -m repro run fig7 fig8 --suite quick --workers 2
    python -m repro run fig7 --kernel spmm --suite quick
    python -m repro run table3 --suite quick        # all kernels, one table
    python -m repro run table4 --quick              # structure-skew ladder
    python -m repro run fig7 --matrix data/cage4.mtx.gz
    python -m repro run fig7 --corpus suitesparse:Williams/cant
    python -m repro run table5 --quick               # cross-corpus comparison
    python -m repro run fig7 --synth power_law_rows:alpha=2.1 --synth uniform
    python -m repro corpus list
    python -m repro corpus fetch suitesparse:Williams/cant
    python -m repro corpus verify
    python -m repro corpus gc
    python -m repro sweep --y 0.05,0.10,0.22 --glb-scales 0.5,1.0
    python -m repro sweep --kernel gram,spmm,spmv --suite quick
    python -m repro sweep --synth uniform --synth banded:bandwidth=24
    python -m repro sweep --suite quick --store .repro-store --resume
    python -m repro sweep --suite quick --store .repro-store --shard 1/4
    python -m repro status --suite quick --store .repro-store
    python -m repro merge --suite quick --store .repro-store
    python -m repro run fig14 --quick --store .repro-store
    python -m repro search --suite quick --generations 2 --store .repro-store
    python -m repro serve --port 8734 --store .repro-store
    python -m repro store stats --store .repro-store
    python -m repro store verify --store .repro-store --clear
    python -m repro store gc --store .repro-store
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import List, Optional

from repro.experiments import registry
from repro.experiments.scheduler import EvaluationScheduler, format_schedule
from repro.experiments.schema import (
    GridRequest,
    RequestError,
    RunRequest,
    SearchRequest,
    artifact_payload,
    plan_run,
)
from repro.experiments.search import format_frontier, search_frontier
from repro.experiments.shard import (
    DEFAULT_LEASE_TTL,
    format_shard_stats,
    format_status,
    merge_shards,
    run_shard,
    shard_status,
)
from repro.experiments.store import (
    ReportStore,
    StoreError,
    format_stats,
    format_verify,
)
from repro.experiments.sweep import format_summaries, sweep_grid
from repro.server.service import DEFAULT_BATCH_WINDOW as SERVER_DEFAULT_BATCH_WINDOW
from repro.tensor import corpus as corpus_manager
from repro.tensor.kernels import kernel_names
from repro.tensor.synth import model_names
from repro.utils.text import format_table


# --------------------------------------------------------------------- #
# Surface syntax: argparse splits lists; the schema checks every value.
# --------------------------------------------------------------------- #
def _parse_floats(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}") from None


def _parse_names(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _shown(value) -> str:
    """A schema default spelled the way its flag takes it."""
    if isinstance(value, tuple):
        return ",".join(_shown(item) for item in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def _request(cls, args: argparse.Namespace):
    """The ``cls`` request of the parsed flags.

    Each schema field is the ``dest`` of one flag; a flag left unset
    (``None``) keeps the schema's default.
    """
    values = {spec.name: getattr(args, spec.name, None)
              for spec in fields(cls)}
    return cls(**{name: value for name, value in values.items()
                  if value is not None})


def _store_for(args: argparse.Namespace) -> Optional[ReportStore]:
    """Open the persistent report store when ``--store DIR`` was given."""
    if getattr(args, "store", None) is None:
        return None
    return ReportStore(args.store)


def _check_workers(args: argparse.Namespace) -> None:
    """Refuse a ``--workers`` the scheduler would silently raise to 1."""
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        raise RequestError(f"--workers must be at least 1, got {workers}")


def _scheduler_for(args: argparse.Namespace) -> EvaluationScheduler:
    """The one scheduler of a ``run``/``sweep``/``search`` request: the
    ``--workers`` budget and the ``--store`` every evaluation goes
    through."""
    return EvaluationScheduler(max_workers=args.workers,
                               store=_store_for(args))


def _add_store_argument(parser: argparse.ArgumentParser, *,
                        required: bool = False) -> None:
    parser.add_argument("--store", type=Path, default=None, required=required,
                        metavar="DIR",
                        help="persistent report store directory: completed "
                             "evaluations are served from it and new ones "
                             "persisted to it (created on first use)")


def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    """The catalog and cache flags of every corpus-reading subcommand."""
    parser.add_argument("--corpus-manifest", default=None,
                        metavar="MANIFEST.json",
                        help="descriptor manifest overlaying the built-in "
                             "DLMC/SuiteSparse catalogs (pinned checksums, "
                             "file:// fixtures, private mirrors)")
    parser.add_argument("--corpus-cache", type=Path, default=None,
                        metavar="DIR",
                        help="matrix cache root (default: "
                             f"${corpus_manager.ENV_CACHE} or "
                             "~/.cache/repro/corpus)")


def _add_suite_arguments(parser: argparse.ArgumentParser, cls) -> None:
    """The workload-selection flags of a
    :class:`~repro.experiments.schema.SuiteSpec`."""
    parser.add_argument("--suite", default=None,
                        help=f"workload suite: full or quick "
                             f"(default: {cls.suite})")
    parser.add_argument("--matrix", action="append", default=None,
                        metavar="PATH.mtx[.gz]",
                        help="evaluate real MatrixMarket matrices instead of "
                             "a built-in suite (repeatable; overrides "
                             "--suite)")
    parser.add_argument("--synth", action="append", default=None,
                        metavar="MODEL[:K=V,...]",
                        help="evaluate seeded sparsity-model workloads — the "
                             "model/params columns land in the artifacts "
                             "(repeatable; overrides --suite and --matrix; "
                             f"models: {', '.join(model_names())})")
    parser.add_argument("--corpus", action="append", default=None,
                        metavar="DATASET:GROUP/NAME,...",
                        help="evaluate corpus-managed real matrices (DLMC / "
                             "SuiteSparse; comma-separated IDs with a sticky "
                             "dataset prefix, repeatable; overrides --suite "
                             "and --matrix; see docs/CORPUS.md)")
    _add_corpus_arguments(parser)


def _add_output_arguments(parser: argparse.ArgumentParser, *,
                          workers: bool = True,
                          force: Optional[str] = None) -> None:
    """``--workers`` and the artifact flags of the evaluating subcommands;
    ``force`` names the outputs ``--force`` may overwrite."""
    if workers:
        parser.add_argument("--workers", type=int, default=None, metavar="N",
                            help="worker processes for the evaluation "
                                 "scheduler (default: CPU count; 1 = serial)")
    parser.add_argument("--output-dir", type=Path, default=Path("artifacts"),
                        metavar="DIR",
                        help="artifact directory (default: artifacts/)")
    parser.add_argument("--no-artifacts", action="store_true",
                        help="print results only, write nothing")
    if force is not None:
        parser.add_argument("--force", action="store_true",
                            help=f"overwrite existing {force} outputs "
                                 "(without this, an existing output path "
                                 "is an error)")


def _add_grid_arguments(parser: argparse.ArgumentParser, cls) -> None:
    """The grid flags of ``sweep``, ``merge`` and ``status`` (a
    :class:`~repro.experiments.schema.GridRequest`) and ``search`` (whose
    :class:`~repro.experiments.schema.SearchRequest` seeds its axes).

    ``sweep``, ``merge`` and ``status`` must agree on them — they define the
    grid's identity (its manifest signature), so a cooperative sweep's
    workers and its merge are launched with the same flags.
    """
    parser.add_argument("--y", type=_parse_floats, default=None,
                        metavar="Y1,Y2,...",
                        help=f"overbooking targets (default: {_shown(cls.y)})")
    parser.add_argument("--glb-scales", type=_parse_floats, default=None,
                        metavar="S1,S2,...",
                        help="GLB capacity scaling factors "
                             f"(default: {_shown(cls.glb_scales)})")
    parser.add_argument("--pe-scales", type=_parse_floats, default=None,
                        metavar="S1,S2,...",
                        help="PE buffer scaling factors "
                             f"(default: {_shown(cls.pe_scales)})")
    parser.add_argument("--kernel", type=_parse_names, default=None,
                        metavar="K1,K2,...", dest="kernels",
                        help="kernel grid dimension (comma-separated; "
                             f"known: {', '.join(kernel_names())}; "
                             f"default: {_shown(cls.kernels)})")
    _add_suite_arguments(parser, cls)
    parser.add_argument("--workloads", type=_parse_names, default=None,
                        metavar="W1,W2,...",
                        help="restrict to a comma-separated workload subset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the figures/tables of the Tailors (MICRO 2023) "
                    "reproduction and run parameter sweeps.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered experiments")

    run = subparsers.add_parser("run", help="run experiments, write artifacts")
    run.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                     help="experiment names (see 'list'); default with --all")
    run.add_argument("--all", action="store_true", dest="run_all",
                     help="run every registered experiment")
    _add_suite_arguments(run, RunRequest)
    run.add_argument("--quick", action="store_const", dest="suite",
                     const="quick", help="shorthand for --suite quick (which "
                                         "also switches to each experiment's "
                                         "fast parameter set)")
    run.add_argument("--kernel", default=None,
                     help="kernel to evaluate the workloads under "
                          f"(known: {', '.join(kernel_names())}; default: "
                          f"{RunRequest.kernel}, the paper's A x A^T)")
    run.add_argument("--overbooking-target", type=float, default=None,
                     metavar="Y",
                     help="ExTensor-OB target y (default: "
                          f"{_shown(RunRequest.overbooking_target)})")
    run.add_argument("--no-surrogate", action="store_false", default=None,
                     dest="surrogate",
                     help="for search-driven experiments (fig14): evaluate "
                          "every candidate exactly instead of surrogate "
                          "ranking (escape hatch)")
    _add_output_arguments(run)
    run.add_argument("--quiet", action="store_true",
                     help="suppress experiment text output (artifacts only)")
    _add_store_argument(run)

    sweep = subparsers.add_parser(
        "sweep", help="run a y / buffer-scaling grid, write JSON + CSV")
    _add_grid_arguments(sweep, GridRequest)
    _add_output_arguments(sweep, force="sweep.json/sweep.csv")
    sweep.add_argument("--resume", action="store_true",
                       help="finish an interrupted sweep: grid cells already "
                            "in the store are not re-evaluated (requires "
                            "--store; implies --force for the output files)")
    sweep.add_argument("--shard", default=None, metavar="I/N",
                       help="run as worker I of N in a fault-tolerant "
                            "cooperative sweep (requires --store; writes no "
                            "artifacts — run 'merge' with the same grid "
                            "flags once the workers are done)")
    sweep.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL,
                       metavar="SECONDS",
                       help="with --shard: how long a peer's lease heartbeat "
                            "may stay frozen before its cell is reclaimed "
                            f"(default: {DEFAULT_LEASE_TTL:g}s)")
    _add_store_argument(sweep)

    merge = subparsers.add_parser(
        "merge", help="assemble a completed sharded sweep into sweep.json + "
                      "sweep.csv (byte-identical to a serial sweep)")
    _add_grid_arguments(merge, GridRequest)
    _add_output_arguments(merge, workers=False, force="sweep.json/sweep.csv")
    _add_store_argument(merge, required=True)

    status = subparsers.add_parser(
        "status", help="report a sharded sweep's progress (stored / leased / "
                       "missing cells); exits 0 when ready to merge")
    _add_grid_arguments(status, GridRequest)
    _add_store_argument(status, required=True)

    search = subparsers.add_parser(
        "search", help="Pareto design-space search over (y, GLB, PE) "
                       "configurations; writes frontier.json + frontier.csv")
    _add_grid_arguments(search, SearchRequest)
    search.add_argument("--generations", type=int, default=None, metavar="N",
                        help="search generations: the seed grid plus N-1 "
                             "rounds of axis refinement around the frontier "
                             f"(default: {SearchRequest.generations})")
    search.add_argument("--constraint", action="append", default=None,
                        dest="constraints", metavar="METRIC<=BOUND",
                        help="keep only design points satisfying the bound "
                             "(repeatable; metrics: traffic (DRAM words), "
                             "energy (pJ), pe_area (PE buffer words); e.g. "
                             "--constraint 'traffic<=6e4')")
    search.add_argument("--surrogate-budget", type=float, default=None,
                        metavar="F",
                        help="fraction of remaining candidates exactly "
                             "evaluated per surrogate ranking round "
                             f"(default: {SearchRequest.surrogate_budget:g})")
    search.add_argument("--no-surrogate", action="store_false", default=None,
                        dest="surrogate",
                        help="rank nothing: exactly evaluate every candidate "
                             "in every generation (brute-force reference "
                             "path)")
    _add_output_arguments(search, force="frontier.json/frontier.csv")
    _add_store_argument(search)

    serve = subparsers.add_parser(
        "serve", help="run the evaluation daemon: run/sweep/search as JSON "
                      "endpoints, concurrent clients coalesced into shared "
                      "scheduler passes (see docs/SERVER.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8734,
                       help="bind port; 0 picks a free one — the chosen "
                            "port is printed on stderr (default: 8734)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes per evaluation pass "
                            "(default: CPU count; 1 = serial)")
    serve.add_argument("--batch-window", type=float,
                       default=SERVER_DEFAULT_BATCH_WINDOW, metavar="SECONDS",
                       help="how long each pass waits for more clients to "
                            "coalesce with it (default: "
                            f"{SERVER_DEFAULT_BATCH_WINDOW:g}s; 0 disables)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    _add_store_argument(serve)

    store = subparsers.add_parser(
        "store", help="inspect or garbage-collect a report store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    stats = store_sub.add_parser(
        "stats", help="scan the store: entries, bytes, kernels, schemas")
    _add_store_argument(stats, required=True)
    verify = store_sub.add_parser(
        "verify", help="full-decode every entry, quarantine the corrupt, "
                       "report the quarantine backlog")
    verify.add_argument("--clear", action="store_true",
                        help="empty quarantine/ after the scan")
    _add_store_argument(verify, required=True)
    gc = store_sub.add_parser(
        "gc", help="prune unreadable/old-schema entries and stale temp files")
    _add_store_argument(gc, required=True)

    corpus = subparsers.add_parser(
        "corpus", help="manage the real-world matrix cache (DLMC + "
                       "SuiteSparse; see docs/CORPUS.md)")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_list = corpus_sub.add_parser(
        "list", help="list known matrices and their install state")
    corpus_list.add_argument("--dataset", choices=corpus_manager.KNOWN_DATASETS,
                             default=None,
                             help="restrict the listing to one dataset")
    _add_corpus_arguments(corpus_list)
    corpus_fetch = corpus_sub.add_parser(
        "fetch", help="download, verify and install matrices into the cache")
    corpus_fetch.add_argument("ids", nargs="+",
                              metavar="DATASET:GROUP/NAME,...",
                              help="matrix IDs (comma-separated, sticky "
                                   "dataset prefix)")
    corpus_fetch.add_argument("--refresh", action="store_true",
                              help="re-download even when a cached copy "
                                   "exists")
    corpus_fetch.add_argument("--offline", action="store_true",
                              help="refuse remote URLs (file:// manifests "
                                   "still work)")
    _add_corpus_arguments(corpus_fetch)
    corpus_verify = corpus_sub.add_parser(
        "verify", help="re-hash installed matrices against their install "
                       "receipts; corrupt files are quarantined")
    _add_corpus_arguments(corpus_verify)
    corpus_gc = corpus_sub.add_parser(
        "gc", help="reclaim the re-fetchable cache tiers (downloads, "
                   "quarantine); installed matrices are kept")
    _add_corpus_arguments(corpus_gc)
    return parser


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #
def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        (experiment.name, experiment.artifact, experiment.title,
         "-" if experiment.needs_context else "none",
         experiment.kernel_axis)
        for experiment in registry.experiments()
    ]
    print(format_table(["name", "artifact", "title", "suite", "kernels"], rows,
                       title="Registered experiments"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    request = _request(RunRequest, args)
    with _scheduler_for(args) as scheduler:
        plan = plan_run(request, scheduler=scheduler)
        for warning in plan.warnings:
            print(f"[warning] {warning}", file=sys.stderr)

        start = time.perf_counter()
        summary = format_schedule(
            scheduler.prefetch(plan.evaluation_requests()))
        if summary:
            print(f"[scheduler] {summary} in "
                  f"{time.perf_counter() - start:.2f}s", file=sys.stderr)

        output_dir = None if args.no_artifacts else args.output_dir
        if output_dir is not None:
            output_dir.mkdir(parents=True, exist_ok=True)

        manifest = []
        for experiment in plan.experiments:
            run_start = time.perf_counter()
            result = plan.run(experiment)
            elapsed = time.perf_counter() - run_start
            if not args.quiet:
                print(experiment.format_result(result))
                print()
            if output_dir is not None:
                artifact_path = output_dir / f"{experiment.name}.json"
                payload = artifact_payload(plan, experiment, result,
                                           seconds=round(elapsed, 4))
                artifact_path.write_text(json.dumps(payload, indent=2) + "\n")
                manifest.append({"experiment": experiment.name,
                                 "artifact": experiment.artifact,
                                 "path": artifact_path.name,
                                 "seconds": round(elapsed, 4)})
            print(f"[{experiment.name}] {experiment.artifact} regenerated "
                  f"in {elapsed:.2f}s", file=sys.stderr)

    if output_dir is not None:
        manifest_path = output_dir / "manifest.json"
        manifest_path.write_text(json.dumps({
            "suite": request.label,
            "overbooking_target": request.overbooking_target,
            "total_seconds": round(time.perf_counter() - start, 4),
            "experiments": manifest,
        }, indent=2) + "\n")
        print(f"wrote {len(manifest)} artifact(s) + manifest to {output_dir}/",
              file=sys.stderr)
    return 0


def _refuse_clobber(args: argparse.Namespace, stem: str,
                    hint: str = "") -> None:
    """Refuse, before computing, to overwrite ``stem.json``/``stem.csv``
    without ``--force`` (or ``--resume``)."""
    if args.no_artifacts or args.force or getattr(args, "resume", False):
        return
    for path in (args.output_dir / f"{stem}.json",
                 args.output_dir / f"{stem}.csv"):
        if path.exists():
            raise RequestError(f"{path} already exists; pass --force to "
                               f"overwrite{hint}")


def _write_outputs(args: argparse.Namespace, result, stem: str, *,
                   force: bool) -> None:
    """Write ``result`` as ``stem.json`` + ``stem.csv`` unless
    ``--no-artifacts``."""
    if args.no_artifacts:
        return
    args.output_dir.mkdir(parents=True, exist_ok=True)
    json_path = result.write_json(args.output_dir / f"{stem}.json",
                                  force=force)
    csv_path = result.write_csv(args.output_dir / f"{stem}.csv", force=force)
    print(f"wrote {json_path} and {csv_path}", file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    request = _request(GridRequest, args)
    if args.resume and args.store is None:
        raise RequestError("--resume requires --store (there is nothing to "
                           "resume from without a persistent store)")
    if args.shard is not None:
        if args.store is None:
            raise RequestError("--shard requires --store (the store is the "
                               "coordination substrate the workers share)")
        start = time.perf_counter()
        stats = run_shard(
            request.build(),
            shard=args.shard,
            store=_store_for(args),
            lease_ttl=args.lease_ttl,
            **request.grid_args(),
        )
        print(format_shard_stats(stats), file=sys.stderr)
        print(f"shard worker finished in "
              f"{time.perf_counter() - start:.2f}s", file=sys.stderr)
        return 0
    _refuse_clobber(args, "sweep", " it (or --resume to finish an "
                                   "interrupted sweep)")

    start = time.perf_counter()
    with _scheduler_for(args) as scheduler:
        result = sweep_grid(
            request.build(),
            **request.grid_args(),
            scheduler=scheduler,
            resume=args.resume,
        )
    print(format_summaries(result))
    resumed = (f" ({result.schedule.store_hits} cell(s) resumed from the "
               f"store)" if result.schedule.store_hits else "")
    print(f"\nsweep of {len(result.points)} point(s) finished in "
          f"{time.perf_counter() - start:.2f}s{resumed}", file=sys.stderr)

    _write_outputs(args, result, "sweep", force=args.force or args.resume)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    request = _request(SearchRequest, args)
    _refuse_clobber(args, "frontier")

    start = time.perf_counter()
    with _scheduler_for(args) as scheduler:
        result = search_frontier(
            request.build(),
            **request.search_args(),
            scheduler=scheduler,
        )
    print(format_frontier(result))
    pruned = sum(stats.pruned_configs for stats in result.generations)
    pruned_note = f" ({pruned} configs skipped by the surrogate)" if pruned else ""
    print(f"\nsearch evaluated {len(result.points)} design points over "
          f"{len(result.generations)} generation(s){pruned_note} in "
          f"{time.perf_counter() - start:.2f}s", file=sys.stderr)

    _write_outputs(args, result, "frontier", force=args.force)
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    request = _request(GridRequest, args)
    _refuse_clobber(args, "sweep")

    start = time.perf_counter()
    result = merge_shards(
        request.build(),
        store=ReportStore(args.store, create=False),
        **request.grid_args(),
    )
    print(format_summaries(result))
    print(f"\nmerged {len(result.points)} point(s) from the store in "
          f"{time.perf_counter() - start:.2f}s", file=sys.stderr)

    _write_outputs(args, result, "sweep", force=args.force)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    request = _request(GridRequest, args)
    status = shard_status(
        request.build(),
        store=ReportStore(args.store, create=False),
        **request.grid_args(),
    )
    print(format_status(status))
    return 0 if status.complete else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.http import create_server
    from repro.server.http import serve as run_server

    store = _store_for(args)
    try:
        server = create_server(
            host=args.host, port=args.port, store=store,
            max_workers=args.workers,
            batch_window=args.batch_window, verbose=args.verbose)
    except ValueError as error:  # the service refuses the window
        raise RequestError(f"--batch-window: {error}") from None
    host, port = server.server_address[:2]
    store_note = str(store.root) if store is not None else "none (in-memory)"
    print(f"[server] serving on http://{host}:{port} "
          f"(store: {store_note}); POST /shutdown or Ctrl-C to stop",
          file=sys.stderr, flush=True)
    run_server(server)
    print("[server] drained and stopped", file=sys.stderr)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    # gc must be able to open a store written under another schema — it is
    # the tool that prunes such entries; stats checks the marker.  Neither
    # creates a store: a mistyped path is an error, not a new empty store.
    store = ReportStore(args.store, check_marker=args.store_command != "gc",
                        create=False)
    if args.store_command == "stats":
        print(format_stats(store.stats(), root=store.root))
        return 0
    if args.store_command == "verify":
        outcome = store.verify(clear=args.clear)
        print(format_verify(outcome, root=store.root))
        # Non-zero when something needs attention: corruption found this
        # pass, or a quarantine backlog left unexamined.
        return 1 if (outcome.quarantined or outcome.quarantine_backlog) else 0
    if args.store_command == "gc":
        outcome = store.gc()
        print(f"scanned {outcome.scanned} entr(ies): kept {outcome.kept}, "
              f"removed {outcome.removed_entries} stale entr(ies) and "
              f"{outcome.removed_temp_files} temp file(s), reclaimed "
              f"{outcome.reclaimed_bytes / 1024:.1f} KiB")
        return 0
    raise AssertionError(f"unhandled store command {args.store_command!r}")


def _cmd_corpus(args: argparse.Namespace) -> int:
    cache = corpus_manager.CorpusCache(args.corpus_cache)
    catalog = corpus_manager.resolve_catalog(args.corpus_manifest)

    if args.corpus_command == "list":
        rows = []
        for descriptor in catalog:
            if args.dataset and descriptor.dataset != args.dataset:
                continue
            installed = cache.installed_path(descriptor)
            rows.append((descriptor.matrix_id, descriptor.format,
                         "yes" if installed is not None else "-",
                         "pinned" if descriptor.sha256 else "first-use"))
        print(format_table(["matrix", "format", "installed", "checksum"],
                           rows, title=f"Corpus catalog ({len(rows)} "
                                       f"matrices; cache: {cache.root})"))
        return 0
    if args.corpus_command == "fetch":
        ids = [matrix_id for text in args.ids
               for matrix_id in corpus_manager.parse_corpus_ids(text)]
        failures = 0
        for matrix_id in ids:
            descriptor = catalog.get(matrix_id)
            try:
                path = cache.fetch(descriptor, refresh=args.refresh,
                                   offline=args.offline or None)
            except corpus_manager.CorpusError as error:
                print(f"error: {error}", file=sys.stderr)
                failures += 1
                continue
            print(f"[corpus] {matrix_id} -> {path}")
        return 1 if failures else 0
    if args.corpus_command == "verify":
        outcome = cache.verify()
        print(f"checked {outcome.checked} matrice(s): {outcome.ok} ok, "
              f"{len(outcome.missing)} missing receipt(s), "
              f"{len(outcome.corrupt)} corrupt (quarantined)")
        for path in outcome.corrupt:
            print(f"  corrupt: {path}", file=sys.stderr)
        return 1 if outcome.corrupt else 0
    if args.corpus_command == "gc":
        outcome = cache.gc()
        print(f"removed {outcome.removed_downloads} cached download(s) and "
              f"{outcome.removed_quarantined} quarantined file(s), reclaimed "
              f"{outcome.reclaimed_bytes / 1024:.1f} KiB")
        return 0
    raise AssertionError(f"unhandled corpus command {args.corpus_command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "corpus_cache", None) is not None:
        # Exported, so forked scheduler workers resolve the same cache.
        os.environ[corpus_manager.ENV_CACHE] = str(args.corpus_cache)
    handlers = {"list": _cmd_list, "run": _cmd_run, "sweep": _cmd_sweep,
                "merge": _cmd_merge, "status": _cmd_status,
                "search": _cmd_search, "serve": _cmd_serve,
                "store": _cmd_store, "corpus": _cmd_corpus}
    try:
        _check_workers(args)
        return handlers[args.command](args)
    except (RequestError, StoreError, corpus_manager.CorpusError) as error:
        # Bad requests, schema mismatches, corrupt or missing stores,
        # unknown matrix IDs, unreachable mirrors with a cold cache: all
        # user-facing conditions with actionable messages, not tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
