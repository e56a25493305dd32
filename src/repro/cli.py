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

``run``, ``sweep`` and ``search`` take a kernel axis (``--kernel``; Gram
SpMSpM, general SpMSpM, SpMM, SpMV, SDDMM — see :mod:`repro.tensor.kernels`),
can evaluate real MatrixMarket corpora (``--matrix path.mtx[.gz]``,
repeatable), corpus-managed real datasets (``--corpus
dataset:group/name,...`` with ``--corpus-manifest``/``--corpus-cache``; see
:mod:`repro.tensor.corpus`) or seeded sparsity-model workloads (``--synth
model:param=value,...``, repeatable; see :mod:`repro.tensor.synth`) instead
of the built-in suites, and accept ``--store DIR`` to serve/persist
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
from pathlib import Path
from typing import List, Optional

from repro.experiments import registry
from repro.experiments.runner import ExperimentContext
from repro.experiments.scheduler import EvaluationScheduler
from repro.experiments.search import (
    DEFAULT_SURROGATE_BUDGET,
    format_frontier,
    search_frontier,
)
from repro.experiments.surrogate import parse_constraint
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
from repro.tensor.suite import corpus_suite, default_suite, small_suite, synth_suite
from repro.tensor.synth import model_names, parse_synth_spec
from repro.utils.text import format_table


def _parse_floats(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}") from None


def _parse_kernels(text: str) -> List[str]:
    kernels = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [k for k in kernels if k not in kernel_names()]
    if unknown or not kernels:
        raise argparse.ArgumentTypeError(
            f"unknown kernel(s) {unknown or text!r}; "
            f"known: {', '.join(kernel_names())}")
    return kernels


def _parse_synth(text: str):
    try:
        return parse_synth_spec(text)
    except (KeyError, ValueError) as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_constraint(text: str) -> str:
    try:
        return parse_constraint(text).label
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_corpus(text: str) -> List[str]:
    try:
        return corpus_manager.parse_corpus_ids(text)
    except corpus_manager.CorpusError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _apply_corpus_cache(args: argparse.Namespace) -> None:
    """Export ``--corpus-cache`` so this process *and* forked scheduler
    workers resolve the same on-disk matrix cache."""
    if getattr(args, "corpus_cache", None) is not None:
        os.environ[corpus_manager.ENV_CACHE] = str(args.corpus_cache)


def _suite_for(args: argparse.Namespace):
    """The workload suite for ``run``/``sweep``: synth specs, corpus IDs,
    MatrixMarket files or a built-in."""
    if getattr(args, "synth", None):
        return synth_suite(args.synth)
    if getattr(args, "corpus", None):
        _apply_corpus_cache(args)
        ids = [entry for group in args.corpus for entry in group]
        return corpus_manager.corpus_workload_suite(
            ids, manifest=getattr(args, "corpus_manifest", None))
    if args.matrix:
        return corpus_suite([str(path) for path in args.matrix])
    return {"full": default_suite, "quick": small_suite}[args.suite]()


def _suite_label(args: argparse.Namespace) -> str:
    if getattr(args, "synth", None):
        return "synth"
    if getattr(args, "corpus", None) or args.matrix:
        return "corpus"
    return args.suite


def _store_for(args: argparse.Namespace) -> Optional[ReportStore]:
    """Open the persistent report store when ``--store DIR`` was given."""
    if getattr(args, "store", None) is None:
        return None
    return ReportStore(args.store)


def _add_store_argument(parser: argparse.ArgumentParser, *,
                        required: bool = False) -> None:
    parser.add_argument("--store", type=Path, default=None, required=required,
                        metavar="DIR",
                        help="persistent report store directory: completed "
                             "evaluations are served from it and new ones "
                             "persisted to it (created on first use)")


def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    """The corpus-selection flags shared by ``run``, ``sweep`` and ``search``."""
    parser.add_argument("--corpus", action="append", type=_parse_corpus,
                        default=None, metavar="DATASET:GROUP/NAME,...",
                        help="evaluate corpus-managed real matrices (DLMC / "
                             "SuiteSparse; comma-separated IDs with a sticky "
                             "dataset prefix, repeatable; overrides --suite "
                             "and --matrix; see docs/CORPUS.md)")
    parser.add_argument("--corpus-manifest", type=Path, default=None,
                        metavar="MANIFEST.json",
                        help="descriptor manifest overlaying the built-in "
                             "DLMC/SuiteSparse catalogs (pinned checksums, "
                             "file:// fixtures, private mirrors)")
    parser.add_argument("--corpus-cache", type=Path, default=None,
                        metavar="DIR",
                        help="matrix cache root (default: "
                             f"${corpus_manager.ENV_CACHE} or "
                             "~/.cache/repro/corpus)")


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The grid-shaping flags shared by ``sweep``, ``merge`` and ``status``.

    All three must agree on them — they define the grid's identity (its
    manifest signature), so a cooperative sweep's workers and its merge are
    launched with the same flags.
    """
    parser.add_argument("--y", type=_parse_floats, default=[0.05, 0.10, 0.22],
                        metavar="Y1,Y2,...",
                        help="overbooking targets (default: 0.05,0.10,0.22)")
    parser.add_argument("--glb-scales", type=_parse_floats, default=[1.0],
                        metavar="S1,S2,...",
                        help="GLB capacity scaling factors (default: 1.0)")
    parser.add_argument("--pe-scales", type=_parse_floats, default=[1.0],
                        metavar="S1,S2,...",
                        help="PE buffer scaling factors (default: 1.0)")
    parser.add_argument("--kernel", type=_parse_kernels, default=["gram"],
                        metavar="K1,K2,...", dest="kernels",
                        help="kernel grid dimension (comma-separated; "
                             f"known: {', '.join(kernel_names())}; "
                             "default: gram)")
    parser.add_argument("--suite", choices=("full", "quick"), default="full",
                        help="workload suite (default: full)")
    parser.add_argument("--matrix", action="append", type=Path, default=None,
                        metavar="PATH.mtx[.gz]",
                        help="use real MatrixMarket matrices instead of the "
                             "synthetic suite (repeatable; overrides --suite)")
    parser.add_argument("--synth", action="append", type=_parse_synth,
                        default=None, metavar="MODEL[:K=V,...]",
                        help="use seeded sparsity-model workloads — the "
                             "model/params columns land in the JSON/CSV "
                             "(repeatable; overrides --suite and --matrix; "
                             f"models: {', '.join(model_names())})")
    _add_corpus_arguments(parser)
    parser.add_argument("--workloads", default=None, metavar="W1,W2,...",
                        help="restrict to a comma-separated workload subset")


def _grid_kwargs(args: argparse.Namespace) -> dict:
    """The grid-shaping keyword arguments for sweep/shard/merge/status."""
    return {
        "y_values": args.y,
        "glb_scales": args.glb_scales,
        "pe_scales": args.pe_scales,
        "kernels": args.kernels,
        "workloads": _parse_workload_subset(args),
    }


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
    run.add_argument("--suite", choices=("full", "quick"), default="full",
                     help="workload suite (default: full; quick also switches "
                          "to each experiment's fast parameter set)")
    run.add_argument("--quick", action="store_const", dest="suite",
                     const="quick", help="shorthand for --suite quick")
    run.add_argument("--matrix", action="append", type=Path, default=None,
                     metavar="PATH.mtx[.gz]",
                     help="evaluate real MatrixMarket matrices instead of the "
                          "synthetic suite (repeatable; overrides --suite)")
    run.add_argument("--synth", action="append", type=_parse_synth,
                     default=None, metavar="MODEL[:K=V,...]",
                     help="evaluate seeded sparsity-model workloads instead "
                          "of a built-in suite (repeatable; overrides --suite "
                          f"and --matrix; models: {', '.join(model_names())})")
    _add_corpus_arguments(run)
    run.add_argument("--kernel", choices=kernel_names(), default="gram",
                     help="kernel to evaluate the workloads under "
                          "(default: gram, the paper's A x A^T)")
    run.add_argument("--overbooking-target", type=float, default=0.10,
                     metavar="Y", help="ExTensor-OB target y (default: 0.10)")
    run.add_argument("--workers", type=int, default=None, metavar="N",
                     help="worker processes for the evaluation scheduler "
                          "(default: CPU count; 1 = serial)")
    run.add_argument("--no-surrogate", action="store_true",
                     help="for search-driven experiments (fig14): evaluate "
                          "every candidate exactly instead of surrogate "
                          "ranking (escape hatch)")
    run.add_argument("--output-dir", type=Path, default=Path("artifacts"),
                     metavar="DIR",
                     help="where JSON artifacts are written (default: artifacts/)")
    run.add_argument("--no-artifacts", action="store_true",
                     help="print results only, write nothing")
    run.add_argument("--quiet", action="store_true",
                     help="suppress experiment text output (artifacts only)")
    _add_store_argument(run)

    sweep = subparsers.add_parser(
        "sweep", help="run a y / buffer-scaling grid, write JSON + CSV")
    _add_grid_arguments(sweep)
    sweep.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes (default: CPU count; 1 = serial)")
    sweep.add_argument("--output-dir", type=Path, default=Path("artifacts"),
                       metavar="DIR",
                       help="artifact directory (default: artifacts/)")
    sweep.add_argument("--no-artifacts", action="store_true",
                       help="print the summary only, write nothing")
    sweep.add_argument("--force", action="store_true",
                       help="overwrite existing sweep.json/sweep.csv outputs "
                            "(without this, an existing output path is an "
                            "error)")
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
    _add_grid_arguments(merge)
    merge.add_argument("--output-dir", type=Path, default=Path("artifacts"),
                       metavar="DIR",
                       help="artifact directory (default: artifacts/)")
    merge.add_argument("--no-artifacts", action="store_true",
                       help="print the summary only, write nothing")
    merge.add_argument("--force", action="store_true",
                       help="overwrite existing sweep.json/sweep.csv outputs")
    _add_store_argument(merge, required=True)

    status = subparsers.add_parser(
        "status", help="report a sharded sweep's progress (stored / leased / "
                       "missing cells); exits 0 when ready to merge")
    _add_grid_arguments(status)
    _add_store_argument(status, required=True)

    search = subparsers.add_parser(
        "search", help="Pareto design-space search over (y, GLB, PE) "
                       "configurations; writes frontier.json + frontier.csv")
    search.add_argument("--y", type=_parse_floats, default=[0.05, 0.10, 0.22],
                        metavar="Y1,Y2,...",
                        help="seed overbooking-target axis "
                             "(default: 0.05,0.10,0.22)")
    search.add_argument("--glb-scales", type=_parse_floats,
                        default=[0.5, 1.0, 2.0], metavar="S1,S2,...",
                        help="seed GLB capacity scaling axis "
                             "(default: 0.5,1.0,2.0)")
    search.add_argument("--pe-scales", type=_parse_floats,
                        default=[0.5, 1.0, 2.0], metavar="S1,S2,...",
                        help="seed PE buffer scaling axis "
                             "(default: 0.5,1.0,2.0)")
    search.add_argument("--generations", type=int, default=3, metavar="N",
                        help="search generations: the seed grid plus N-1 "
                             "rounds of axis refinement around the frontier "
                             "(default: 3)")
    search.add_argument("--kernel", type=_parse_kernels, default=["gram"],
                        metavar="K1,K2,...", dest="kernels",
                        help="kernels searched (comma-separated; "
                             f"known: {', '.join(kernel_names())}; "
                             "default: gram)")
    search.add_argument("--suite", choices=("full", "quick"), default="quick",
                        help="workload suite (default: quick — the full "
                             "suite times a large design space; use a store)")
    search.add_argument("--matrix", action="append", type=Path, default=None,
                        metavar="PATH.mtx[.gz]",
                        help="search over real MatrixMarket matrices instead "
                             "of a built-in suite (repeatable)")
    search.add_argument("--synth", action="append", type=_parse_synth,
                        default=None, metavar="MODEL[:K=V,...]",
                        help="search over seeded sparsity-model workloads — "
                             "the frontier is reported per model (repeatable; "
                             f"models: {', '.join(model_names())})")
    _add_corpus_arguments(search)
    search.add_argument("--workloads", default=None, metavar="W1,W2,...",
                        help="restrict to a comma-separated workload subset")
    search.add_argument("--constraint", action="append",
                        type=_parse_constraint, default=None,
                        metavar="METRIC<=BOUND",
                        help="keep only design points satisfying the bound "
                             "(repeatable; metrics: traffic (DRAM words), "
                             "energy (pJ), pe_area (PE buffer words); e.g. "
                             "--constraint 'traffic<=6e4')")
    search.add_argument("--surrogate-budget", type=float,
                        default=DEFAULT_SURROGATE_BUDGET, metavar="F",
                        help="fraction of remaining candidates exactly "
                             "evaluated per surrogate ranking round "
                             f"(default: {DEFAULT_SURROGATE_BUDGET})")
    search.add_argument("--no-surrogate", action="store_true",
                        help="rank nothing: exactly evaluate every candidate "
                             "in every generation (brute-force reference "
                             "path)")
    search.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes (default: CPU count; "
                             "1 = serial)")
    search.add_argument("--output-dir", type=Path, default=Path("artifacts"),
                        metavar="DIR",
                        help="artifact directory (default: artifacts/)")
    search.add_argument("--no-artifacts", action="store_true",
                        help="print the frontier only, write nothing")
    search.add_argument("--force", action="store_true",
                        help="overwrite existing frontier.json/frontier.csv")
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

    def _corpus_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--corpus-manifest", type=Path, default=None,
                         metavar="MANIFEST.json",
                         help="descriptor manifest overlaying the built-in "
                              "catalogs")
        sub.add_argument("--corpus-cache", type=Path, default=None,
                         metavar="DIR",
                         help="matrix cache root (default: "
                              f"${corpus_manager.ENV_CACHE} or "
                              "~/.cache/repro/corpus)")

    corpus_list = corpus_sub.add_parser(
        "list", help="list known matrices and their install state")
    corpus_list.add_argument("--dataset", choices=corpus_manager.KNOWN_DATASETS,
                             default=None,
                             help="restrict the listing to one dataset")
    _corpus_common(corpus_list)
    corpus_fetch = corpus_sub.add_parser(
        "fetch", help="download, verify and install matrices into the cache")
    corpus_fetch.add_argument("ids", nargs="+", type=_parse_corpus,
                              metavar="DATASET:GROUP/NAME,...",
                              help="matrix IDs (comma-separated, sticky "
                                   "dataset prefix)")
    corpus_fetch.add_argument("--refresh", action="store_true",
                              help="re-download even when a cached copy "
                                   "exists")
    corpus_fetch.add_argument("--offline", action="store_true",
                              help="refuse remote URLs (file:// manifests "
                                   "still work)")
    _corpus_common(corpus_fetch)
    corpus_verify = corpus_sub.add_parser(
        "verify", help="re-hash installed matrices against their install "
                       "receipts; corrupt files are quarantined")
    _corpus_common(corpus_verify)
    corpus_gc = corpus_sub.add_parser(
        "gc", help="reclaim the re-fetchable cache tiers (downloads, "
                   "quarantine); installed matrices are kept")
    _corpus_common(corpus_gc)
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
    if args.run_all:
        selected = registry.experiments()
    elif args.experiments:
        selected = [registry.get(name) for name in args.experiments]
    else:
        print("error: name at least one experiment or pass --all",
              file=sys.stderr)
        return 2

    quick = args.suite == "quick"
    params = {
        experiment.name: dict(experiment.quick_params) if quick else {}
        for experiment in selected
    }

    # The kernel(s) actually reflected in each experiment's results: report
    # consumers follow --kernel; matrix-direct experiments model a fixed
    # kernel and cross-kernel tables (table3) always evaluate their whole
    # declared family, both regardless of the flag (warn so artifacts are
    # never mislabeled).
    def effective_kernel(experiment):
        if not experiment.needs_context or not experiment.kernels:
            return None
        if "any" in experiment.kernels:
            return args.kernel
        if len(experiment.kernels) > 1:
            return "all"
        return experiment.kernels[0]

    for experiment in selected:
        effective = effective_kernel(experiment)
        if (experiment.needs_context and args.kernel != "gram"
                and effective != args.kernel):
            pinned = ",".join(experiment.kernels) if experiment.kernels else "no"
            print(f"[warning] {experiment.name} is pinned to kernel(s) "
                  f"{pinned}; --kernel {args.kernel} does not apply to it",
                  file=sys.stderr)
        if ((args.synth or args.matrix or args.corpus)
                and experiment.needs_context
                and not experiment.uses_context_suite):
            flag = ("--synth" if args.synth
                    else "--corpus" if args.corpus else "--matrix")
            print(f"[warning] {experiment.name} evaluates its own workload "
                  f"set; {flag} does not apply to it (only the architecture, "
                  f"overbooking target and seed carry over)", file=sys.stderr)
        # Experiments that schedule their own evaluations take the worker
        # budget as a parameter; thread --workers through so it is honored.
        if experiment.accepts_max_workers and args.workers is not None:
            params[experiment.name].setdefault("max_workers", args.workers)
        if experiment.accepts_use_surrogate and args.no_surrogate:
            params[experiment.name].setdefault("use_surrogate", False)
        # Corpus-evaluating experiments (table5) resolve dataset IDs through
        # a manifest; thread --corpus-manifest so private mirrors and the
        # offline fixtures reach them.
        if experiment.accepts_param("manifest") and args.corpus_manifest:
            params[experiment.name]["manifest"] = str(args.corpus_manifest)
    store = _store_for(args)
    if store is not None:
        for experiment in selected:
            # Same for the report store: self-scheduling experiments with a
            # "reports" store scope take it as a parameter.
            if experiment.accepts_store and experiment.store_scope == "reports":
                params[experiment.name].setdefault("store", store)
    _apply_corpus_cache(args)
    context = None
    if any(experiment.needs_context for experiment in selected):
        if args.matrix or args.synth or args.corpus:
            context = ExperimentContext(
                suite=_suite_for(args),
                overbooking_target=args.overbooking_target,
                kernel=args.kernel)
        else:
            context = ExperimentContext.for_suite(
                args.suite, overbooking_target=args.overbooking_target,
                kernel=args.kernel)

    scheduler = EvaluationScheduler(max_workers=args.workers, store=store)
    start = time.perf_counter()
    if context is not None:
        stats = scheduler.prefetch_experiments(context, selected, params)
        if stats.computed:
            store_note = (f", {stats.store_hits} from the store"
                          if stats.store_hits else "")
            print(f"[scheduler] {stats.unique} evaluations requested, "
                  f"{stats.warm} warm{store_note}, {stats.computed} computed "
                  f"on {stats.workers} worker(s) in "
                  f"{time.perf_counter() - start:.2f}s", file=sys.stderr)
        elif stats.store_hits:
            print(f"[scheduler] all {stats.unique} evaluations served warm "
                  f"({stats.store_hits} from the report store)",
                  file=sys.stderr)
        else:
            print(f"[scheduler] all {stats.unique} evaluations served from "
                  f"the report memo", file=sys.stderr)

    output_dir: Optional[Path] = None if args.no_artifacts else args.output_dir
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)

    manifest = []
    for experiment in selected:
        run_start = time.perf_counter()
        result = experiment.run(context if experiment.needs_context else None,
                                **params[experiment.name])
        elapsed = time.perf_counter() - run_start
        if not args.quiet:
            print(experiment.format_result(result))
            print()
        if output_dir is not None:
            artifact_path = output_dir / f"{experiment.name}.json"
            payload = {
                "experiment": experiment.name,
                "artifact": experiment.artifact,
                "title": experiment.title,
                "suite": (_suite_label(args)
                          if experiment.needs_context else None),
                "kernel": effective_kernel(experiment),
                "overbooking_target": (args.overbooking_target
                                       if experiment.needs_context else None),
                # The store parameter is a live handle; record its path.
                "params": {key: (str(value.root)
                                 if isinstance(value, ReportStore) else value)
                           for key, value in params[experiment.name].items()},
                "seconds": round(elapsed, 4),
                "result": experiment.to_json(result),
            }
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
            "suite": _suite_label(args),
            "overbooking_target": args.overbooking_target,
            "total_seconds": round(time.perf_counter() - start, 4),
            "experiments": manifest,
        }, indent=2) + "\n")
        print(f"wrote {len(manifest)} artifact(s) + manifest to {output_dir}/",
              file=sys.stderr)
    return 0


def _parse_workload_subset(args: argparse.Namespace) -> Optional[List[str]]:
    if not args.workloads:
        return None
    return [name.strip() for name in args.workloads.split(",") if name.strip()]


def _check_outputs_writable(args: argparse.Namespace,
                            filenames: List[str]) -> Optional[str]:
    """Refuse-before-computing: the path that would be clobbered, or None."""
    overwrite_ok = args.force or getattr(args, "resume", False)
    if args.no_artifacts or overwrite_ok:
        return None
    for filename in filenames:
        path = args.output_dir / filename
        if path.exists():
            return str(path)
    return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.resume and args.store is None:
        print("error: --resume requires --store (there is nothing to resume "
              "from without a persistent store)", file=sys.stderr)
        return 2
    if args.shard is not None:
        if args.store is None:
            print("error: --shard requires --store (the store is the "
                  "coordination substrate the workers share)",
                  file=sys.stderr)
            return 2
        start = time.perf_counter()
        stats = run_shard(
            _suite_for(args),
            shard=args.shard,
            store=_store_for(args),
            lease_ttl=args.lease_ttl,
            **_grid_kwargs(args),
        )
        print(format_shard_stats(stats), file=sys.stderr)
        print(f"shard worker finished in "
              f"{time.perf_counter() - start:.2f}s", file=sys.stderr)
        return 0
    clobbered = _check_outputs_writable(args, ["sweep.json", "sweep.csv"])
    if clobbered is not None:
        print(f"error: {clobbered} already exists; pass --force to overwrite "
              f"it (or --resume to finish an interrupted sweep)",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    result = sweep_grid(
        _suite_for(args),
        y_values=args.y,
        glb_scales=args.glb_scales,
        pe_scales=args.pe_scales,
        kernels=args.kernels,
        workloads=_parse_workload_subset(args),
        max_workers=args.workers,
        store=_store_for(args),
        resume=args.resume,
    )
    print(format_summaries(result))
    resumed = (f" ({result.schedule.store_hits} cell(s) resumed from the "
               f"store)" if result.schedule.store_hits else "")
    print(f"\nsweep of {len(result.points)} point(s) finished in "
          f"{time.perf_counter() - start:.2f}s{resumed}", file=sys.stderr)

    if not args.no_artifacts:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        force = args.force or args.resume
        json_path = result.write_json(args.output_dir / "sweep.json",
                                      force=force)
        csv_path = result.write_csv(args.output_dir / "sweep.csv",
                                    force=force)
        print(f"wrote {json_path} and {csv_path}", file=sys.stderr)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    clobbered = _check_outputs_writable(args, ["frontier.json", "frontier.csv"])
    if clobbered is not None:
        print(f"error: {clobbered} already exists; pass --force to overwrite",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    result = search_frontier(
        _suite_for(args),
        kernels=args.kernels,
        y_values=args.y,
        glb_scales=args.glb_scales,
        pe_scales=args.pe_scales,
        max_generations=args.generations,
        workloads=_parse_workload_subset(args),
        max_workers=args.workers,
        store=_store_for(args),
        use_surrogate=not args.no_surrogate,
        surrogate_budget=args.surrogate_budget,
        constraints=args.constraint,
    )
    print(format_frontier(result))
    pruned = sum(stats.pruned_configs for stats in result.generations)
    pruned_note = f" ({pruned} configs skipped by the surrogate)" if pruned else ""
    print(f"\nsearch evaluated {len(result.points)} design points over "
          f"{len(result.generations)} generation(s){pruned_note} in "
          f"{time.perf_counter() - start:.2f}s", file=sys.stderr)

    if not args.no_artifacts:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        json_path = result.write_json(args.output_dir / "frontier.json",
                                      force=args.force)
        csv_path = result.write_csv(args.output_dir / "frontier.csv",
                                    force=args.force)
        print(f"wrote {json_path} and {csv_path}", file=sys.stderr)
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    args.resume = False  # _check_outputs_writable probes it
    clobbered = _check_outputs_writable(args, ["sweep.json", "sweep.csv"])
    if clobbered is not None:
        print(f"error: {clobbered} already exists; pass --force to overwrite",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    result = merge_shards(
        _suite_for(args),
        store=ReportStore(args.store, create=False),
        **_grid_kwargs(args),
    )
    print(format_summaries(result))
    print(f"\nmerged {len(result.points)} point(s) from the store in "
          f"{time.perf_counter() - start:.2f}s", file=sys.stderr)

    if not args.no_artifacts:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        json_path = result.write_json(args.output_dir / "sweep.json",
                                      force=args.force)
        csv_path = result.write_csv(args.output_dir / "sweep.csv",
                                    force=args.force)
        print(f"wrote {json_path} and {csv_path}", file=sys.stderr)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    status = shard_status(
        _suite_for(args),
        store=ReportStore(args.store, create=False),
        **_grid_kwargs(args),
    )
    print(format_status(status))
    return 0 if status.complete else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.http import create_server
    from repro.server.http import serve as run_server

    store = _store_for(args)
    server = create_server(
        host=args.host, port=args.port, store=store,
        max_workers=args.workers,
        batch_window=args.batch_window, verbose=args.verbose)
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
    _apply_corpus_cache(args)
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
        ids = [entry for group in args.ids for entry in group]
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
    handlers = {"list": _cmd_list, "run": _cmd_run, "sweep": _cmd_sweep,
                "merge": _cmd_merge, "status": _cmd_status,
                "search": _cmd_search, "serve": _cmd_serve,
                "store": _cmd_store, "corpus": _cmd_corpus}
    try:
        return handlers[args.command](args)
    except StoreError as error:
        # Schema mismatches, corrupt entries, missing stores: user-facing
        # conditions with actionable messages, not tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except corpus_manager.CorpusError as error:
        # Unknown matrix IDs, unreachable mirrors with a cold cache, failed
        # checksums: likewise user-facing.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
