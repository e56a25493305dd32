#!/usr/bin/env python
"""Reachability report: which ``src/`` lines and functions no production
entry point ever runs.

Runs every production entry point — the CLI commands CI smokes (``run``,
``sweep``, ``store``, shards and ``merge``, ``search``, synth, corpus and
``--matrix`` workloads), a ``run`` and a ``sweep`` on the full suite (the
only callers of the code that builds its larger workloads), the evaluation
daemon with a client driving it, the ``examples/`` and the ``scripts/`` —
each in a fresh interpreter at
``--workers 1`` under ``sys.settrace`` and ``threading.settrace``.  It then
merges the lines every run executed and prints, per module, how many
executable lines were never reached, followed by every function that was
never entered.  Stdlib only: no coverage package is needed.

A report, not a gate: unreached code is listed, never failed on.  The exit
status is 1 only when an entry point itself exits with an unexpected status
(or outlives its timeout).

``ENTRY_POINTS``, ``SERVE_ARGV`` and the daemon client follow the CLI smoke
steps of ``.github/workflows/ci.yml``: when a step there is added or changed,
change the table too, or the report stops tracing it.
``tests/test_reachability.py`` fails when a ``python -m repro`` command in
ci.yml has no matching entry here.

Usage::

    python scripts/reachability.py [--root REPO_ROOT]
"""

from __future__ import annotations

import argparse
import dis
import inspect
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where the entry points find the fixture corpus (offline, no network).
FIXTURE_MANIFEST = "tests/data/corpus/manifest.json"

_SYNTH = ("--synth", "uniform:n=300,nnz=2500",
          "--synth", "power_law_rows:n=300,nnz=2600,alpha=1.9")
_CORPUS = ("--corpus", "suitesparse:fixture/fem-band,fixture/cant-mini",
           "--corpus-manifest", "{root}/" + FIXTURE_MANIFEST)
_SEARCH_SYNTH = ("--synth", "uniform:n=400,nnz=3000",
                 "--synth", "power_law_rows:n=400,nnz=3200,alpha=1.9",
                 "--y", "0.02,0.05,0.10,0.22", "--glb-scales", "0.5,1.0,2.0",
                 "--pe-scales", "1.0", "--generations", "3", "--workers", "1")
_QUICK_Y = ("--suite", "quick", "--y", "0.05,0.10")
#: Every registered experiment but table5, which reads real corpora.
_FULL_SUITE_EXPERIMENTS = ("table1", "table2", "table3", "table4", "fig1",
                           "fig5", "fig7", "fig8", "fig9", "fig10", "fig11",
                           "fig12", "fig13", "fig14")

#: ``(name, argv, extra environment, expected exit status)``, run in order in
#: one scratch directory (later entries read the stores earlier ones wrote).
#: ``argv`` starts with ``-m repro`` or a repository-relative script path;
#: ``{root}`` expands to the repository root.
ENTRY_POINTS: Tuple[Tuple[str, Tuple[str, ...], Dict[str, str], int], ...] = (
    ("list", ("-m", "repro", "list"), {}, 0),
    ("help", ("-m", "repro", "--help"), {}, 0),
    ("run --all", ("-m", "repro", "run", "--suite", "quick", "--all",
                   "--workers", "1", "--output-dir", "artifacts"), {}, 0),
    ("run --suite full", ("-m", "repro", "run", *_FULL_SUITE_EXPERIMENTS,
                          "--suite", "full", "--workers", "1",
                          "--output-dir", "artifacts/full", "--quiet"), {}, 0),
    ("sweep --suite full", ("-m", "repro", "sweep", "--suite", "full",
                            "--workers", "1",
                            "--output-dir", "artifacts/full"), {}, 0),
    *((f"run fig7 --kernel {kernel}",
       ("-m", "repro", "run", "fig7", "--suite", "quick", "--kernel", kernel,
        "--workers", "1", "--output-dir", f"artifacts/{kernel}", "--quiet"),
       {}, 0) for kernel in ("spmm", "sddmm", "spmv", "spmspm")),
    ("sweep", ("-m", "repro", "sweep", "--suite", "quick",
               "--y", "0.05,0.10,0.22", "--kernel", "gram,spmv",
               "--workers", "1", "--output-dir", "artifacts"), {}, 0),
    ("sweep bad request", ("-m", "repro", "sweep", "--suite", "quick",
                           "--workloads", "nope", "--no-artifacts"), {}, 2),
    ("sweep --store", ("-m", "repro", "sweep", *_QUICK_Y, "--workers", "1",
                       "--output-dir", "artifacts/stored",
                       "--store", "artifacts/store"), {}, 0),
    ("sweep --resume", ("-m", "repro", "sweep", *_QUICK_Y, "--workers", "1",
                        "--output-dir", "artifacts/stored",
                        "--store", "artifacts/store", "--resume"), {}, 0),
    *((f"store {command}", ("-m", "repro", "store", command,
                            "--store", "artifacts/store"), {}, 0)
      for command in ("stats", "verify", "gc")),
    ("run table4 --store", ("-m", "repro", "run", "table4", "--quick",
                            "--workers", "1", "--store", "artifacts/t4-store",
                            "--no-artifacts", "--quiet"), {}, 0),
    ("run fig14 table4 table5", ("-m", "repro", "run", "fig14", "table4",
                                 "table5", "--quick", "--workers", "1",
                                 "--output-dir", "artifacts/pool",
                                 "--quiet"), {}, 0),
    *((f"sweep --shard {shard}",
       ("-m", "repro", "sweep", *_QUICK_Y, "--shard", shard,
        "--store", "artifacts/shard-store", "--lease-ttl", "5"), {}, 0)
      for shard in ("1/2", "2/2")),
    ("status", ("-m", "repro", "status", *_QUICK_Y,
                "--store", "artifacts/shard-store"), {}, 0),
    ("merge", ("-m", "repro", "merge", *_QUICK_Y,
               "--store", "artifacts/shard-store",
               "--output-dir", "artifacts/sharded"), {}, 0),
    ("sweep with faults", ("-m", "repro", "sweep", *_QUICK_Y,
                           "--workers", "1", "--output-dir", "artifacts/faulted",
                           "--store", "artifacts/faulted-store"),
     {"REPRO_FAULTS": "store.load=2,store.store=2"}, 0),
    ("search", ("-m", "repro", "search", "--suite", "quick",
                "--y", "0.05,0.22", "--glb-scales", "0.5,1.0",
                "--pe-scales", "1.0", "--generations", "2", "--workers", "1",
                "--output-dir", "artifacts", "--store", "artifacts/store"),
     {}, 0),
    ("run fig14 --store", ("-m", "repro", "run", "fig14", "--quick",
                           "--workers", "1", "--output-dir", "artifacts",
                           "--store", "artifacts/store"), {}, 0),
    ("run fig14 --no-surrogate", ("-m", "repro", "run", "fig14", "--quick",
                                  "--workers", "1", "--no-surrogate",
                                  "--no-artifacts"), {}, 0),
    ("search synth", ("-m", "repro", "search", *_SEARCH_SYNTH,
                      "--output-dir", "artifacts/surrogate"), {}, 0),
    ("search synth --no-surrogate", ("-m", "repro", "search", *_SEARCH_SYNTH,
                                     "--no-surrogate",
                                     "--output-dir", "artifacts/brute"), {}, 0),
    ("search --constraint", ("-m", "repro", "search", "--suite", "quick",
                             "--y", "0.05,0.22", "--glb-scales", "0.5,1.0",
                             "--pe-scales", "1.0", "--generations", "2",
                             "--workers", "1", "--constraint", "traffic<=6e4",
                             "--no-artifacts"), {}, 0),
    ("run fig7 --synth", ("-m", "repro", "run", "fig7", *_SYNTH,
                          "--workers", "1", "--output-dir", "artifacts/synth"),
     {}, 0),
    ("run table4", ("-m", "repro", "run", "table4", "--quick", "--workers", "1",
                    "--output-dir", "artifacts/synth"), {}, 0),
    ("sweep --synth", ("-m", "repro", "sweep", "--synth", "uniform:n=300,nnz=2500",
                       "--synth", "density_gradient:n=300,nnz=2500",
                       "--y", "0.10", "--workers", "1",
                       "--output-dir", "artifacts/synth"), {}, 0),
    ("sweep --matrix", ("-m", "repro", "sweep",
                        "--matrix", "{root}/tests/data/corpus/powerlaw-graph.mtx",
                        "--y", "0.10", "--workers", "1",
                        "--output-dir", "artifacts/matrix"), {}, 0),
    ("make_fixture_corpus --check", ("scripts/make_fixture_corpus.py",
                                     "--check"), {}, 0),
    ("check_docs", ("scripts/check_docs.py", "--root", "{root}"), {}, 0),
    ("corpus list", ("-m", "repro", "corpus", "list",
                     "--corpus-manifest", "{root}/" + FIXTURE_MANIFEST), {}, 0),
    ("corpus fetch", ("-m", "repro", "corpus", "fetch",
                      "suitesparse:fixture/fem-band", "dlmc:fixture/random-050",
                      "--corpus-manifest", "{root}/" + FIXTURE_MANIFEST), {}, 0),
    *((f"corpus {command}", ("-m", "repro", "corpus", command,
                             "--corpus-manifest", "{root}/" + FIXTURE_MANIFEST),
       {}, 0) for command in ("verify", "gc")),
    ("run table5", ("-m", "repro", "run", "table5", "--quick", "--workers", "1",
                    "--output-dir", "artifacts/corpus-run"), {}, 0),
    *((f"sweep --corpus{suffix}",
       ("-m", "repro", "sweep", *_CORPUS, "--y", "0.05,0.10", "--workers", "1",
        "--output-dir", "artifacts/corpus-sweep",
        "--store", "artifacts/corpus-store", *flags), {}, 0)
      for suffix, flags in (("", ()), (" --resume", ("--resume",)))),
    ("examples/quickstart", ("examples/quickstart.py",), {}, 0),
    ("examples/tailors_buffer_trace", ("examples/tailors_buffer_trace.py",),
     {}, 0),
    ("examples/swiftiles_tile_sizing", ("examples/swiftiles_tile_sizing.py",),
     {}, 0),
    ("examples/accelerator_design_space",
     ("examples/accelerator_design_space.py",), {}, 0),
)

#: The daemon entry point: ``repro serve`` plus a traced client process.
DAEMON = "serve + client"
#: The daemon's argv; ``{port}`` expands to a free local port.
SERVE_ARGV = ("-m", "repro", "serve", "--port", "{port}", "--workers", "1",
              "--store", "server-store")
#: Seconds an entry point (or the daemon's client) may run before it is
#: killed and reported as a failure.
TIMEOUT = 1800


# --------------------------------------------------------------------- #
# The tracer (runs inside each traced interpreter)
# --------------------------------------------------------------------- #
class LineTracer:
    """Records the lines executed, and the functions entered, in files under
    one directory; frames elsewhere are not line-traced at all."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.lines: Dict[str, Set[int]] = defaultdict(set)
        self.entered: Set[Tuple[str, int, str]] = set()
        self._local: Dict[str, object] = {}

    def _local_for(self, filename: str):
        tracer = self._local.get(filename)
        if tracer is None:
            if not filename.startswith(self.prefix):
                tracer = self._local[filename] = False
            else:
                lines = self.lines[filename]

                def tracer(frame, event, arg):
                    if event == "line":
                        lines.add(frame.f_lineno)
                    return tracer

                self._local[filename] = tracer
        return tracer

    def __call__(self, frame, event, arg):
        code = frame.f_code
        tracer = self._local_for(code.co_filename)
        if not tracer:
            return None
        self.entered.add((code.co_filename, code.co_firstlineno,
                          code.co_name))
        self.lines[code.co_filename].add(frame.f_lineno)
        return tracer

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "lines": {name: sorted(lines) for name, lines in self.lines.items()},
            "entered": sorted(self.entered),
        }))


def _run_traced(root: Path, out: Path, argv: Sequence[str]) -> int:
    """Run ``argv`` (``-m MODULE ...``, ``client PORT`` or ``SCRIPT ...``) in
    this interpreter under a tracer of ``root/src``, then write what it
    executed to ``out``."""
    import runpy

    tracer = LineTracer(str(root / "src") + os.sep)
    status = 0
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1], *argv[2:]]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        elif argv[0] == "client":
            _drive_daemon(int(argv[1]))
        else:
            sys.argv = list(argv)
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exit_:
        code = exit_.code
        status = code if isinstance(code, int) else (0 if code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        tracer.dump(out)
    return status


def _drive_daemon(port: int) -> None:
    """The daemon client: concurrent cold sweeps, a hot repeat, a run and a
    search request, malformed bodies, a bad Content-Length, then shutdown."""
    import http.client

    from repro.server import ServerClient

    client = ServerClient("127.0.0.1", port)
    for _ in range(300):
        try:
            client.health()
            break
        except OSError:
            time.sleep(0.1)
    else:
        raise SystemExit("daemon never answered /health")

    outcomes: list = [None] * 3

    def sweep(index: int) -> None:
        outcomes[index] = client.sweep(suite="quick", y=[0.05, 0.10])

    threads = [threading.Thread(target=sweep, args=(index,)) for index in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert all(outcome is not None and outcome.artifact for outcome in outcomes)
    assert client.sweep(suite="quick", y=[0.05, 0.10]).cell_sources().get(
        "computed", 0) == 0
    client.stats()
    client.run(["fig7", "table2"], suite="quick")
    client.search(suite="quick", y=[0.05, 0.22], glb_scales=[0.5, 1.0],
                  pe_scales=[1.0], generations=2)

    malformed = (
        ("/sweep", {"y": 5}), ("/sweep", {"workloads": 3}),
        ("/sweep", {"kernels": ["nope"]}), ("/sweep", {"workloads": ["nope"]}),
        ("/sweep", {"glb_scales": [-1.0]}), ("/sweep", {"pe_scales": []}),
        ("/run", {"experiments": ["fig7"], "overbooking_target": "abc"}),
        ("/run", {"experiments": ["fig7"], "kernel": "nope"}),
        ("/run", {"experiments": "fig7"}),
        ("/search", {"constraints": "traffic<=1"}),
        ("/sweep", {"kernel": "spmm"}), ("/sweep", {"matrix": ["x.mtx"]}),
        ("/sweep", {"corpus": ["suitesparse:Williams/cant"]}),
        ("/search", {"surrogate": "false"}),
        ("/nowhere", {}),
    )
    for path, body in malformed:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        connection.request("POST", path, body=json.dumps(body).encode(),
                           headers={"Connection": "close"})
        response = connection.getresponse()
        response.read()
        connection.close()
        assert 400 <= response.status < 500, (path, body, response.status)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(b"POST /sweep HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: -1\r\n\r\n")
        while sock.recv(4096):
            pass
    client.shutdown()


# --------------------------------------------------------------------- #
# The driver
# --------------------------------------------------------------------- #
def _child_command(root: Path, out: Path, argv: Sequence[str]) -> List[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--root", str(root),
            "--trace-into", str(out), "--", *argv]


def _environment(root: Path, work: Path, extra: Dict[str, str]) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "REPRO_CORPUS_OFFLINE": "1",
        "REPRO_CORPUS_CACHE": str(work / "corpus-cache"),
        **extra,
    })
    return env


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _run(command: List[str], **kwargs) -> Tuple[int, str]:
    """Run ``command``; return its status and stderr.  A run that outlives
    ``TIMEOUT`` is killed and reported as status -1."""
    try:
        done = subprocess.run(command, timeout=TIMEOUT, stderr=subprocess.PIPE,
                              text=True, **kwargs)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT} s"
    return done.returncode, done.stderr


def run_entry_points(root: Path, work: Path):
    """Run every entry point traced; return the trace files written and
    ``(name, status)`` for each entry point that exited unexpectedly."""
    traces: List[Path] = []
    failures: List[Tuple[str, int]] = []

    def trace_file() -> Path:
        traces.append(work / f"trace-{len(traces):03d}.json")
        return traces[-1]

    def finished(name: str, status: int, stderr: str, start: float,
                 expected: int = 0) -> None:
        print(f"[reachability] {name}: exit {status} in "
              f"{time.perf_counter() - start:.1f}s", file=sys.stderr)
        if status != expected:
            print(stderr[-2000:], file=sys.stderr)
            failures.append((name, status))

    for name, argv, extra, expected in ENTRY_POINTS:
        argv = [part.replace("{root}", str(root)) for part in argv]
        if argv[0] != "-m":
            argv[0] = str(root / argv[0])
        start = time.perf_counter()
        status, stderr = _run(_child_command(root, trace_file(), argv),
                              cwd=work, env=_environment(root, work, extra),
                              stdout=subprocess.DEVNULL)
        finished(name, status, stderr, start, expected)

    start = time.perf_counter()
    port = str(_free_port())
    env = _environment(root, work, {})
    serve = [part.replace("{port}", port) for part in SERVE_ARGV]
    server = subprocess.Popen(
        _child_command(root, trace_file(), serve), cwd=work, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        client_status, stderr = _run(
            _child_command(root, trace_file(), ["client", port]),
            cwd=work, env=env, stdout=subprocess.DEVNULL)
        if client_status:
            server.terminate()
        server_status = server.wait(timeout=120)
    except subprocess.TimeoutExpired:
        server_status, stderr = -1, "the daemon outlived its client by 120 s"
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    finished(DAEMON, client_status or server_status, stderr, start)
    return traces, failures


def _code_objects(code, qualname: str = ""):
    """``(code, qualname)`` for ``code`` and every code object nested in it;
    the qualified names are built here, as ``co_qualname`` is Python 3.11+."""
    yield code, qualname
    local = qualname + (".<locals>." if code.co_flags & inspect.CO_OPTIMIZED
                        else ".") if qualname else ""
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const, local + const.co_name)


def _code_lines(code) -> Set[int]:
    return {line for _, line in dis.findlinestarts(code) if line is not None}


def executable_lines(path: Path) -> Set[int]:
    """Every line of ``path`` that starts a bytecode instruction."""
    module = compile(path.read_text(), str(path), "exec")
    lines: Set[int] = set()
    for code, _ in _code_objects(module):
        lines |= _code_lines(code)
    return lines


def functions(path: Path):
    """``(firstlineno, name, qualname, line_count, nested keys)`` for each
    named function (not lambda or comprehension) defined in ``path``; a key
    is ``(firstlineno, name)``, as the tracer records it."""
    module = compile(path.read_text(), str(path), "exec")
    found = []
    for code, qualname in _code_objects(module):
        if not code.co_flags & inspect.CO_OPTIMIZED or code.co_name.startswith("<"):
            continue
        nested = [inner for inner, _ in _code_objects(code)]
        last = max(max(_code_lines(inner), default=code.co_firstlineno)
                   for inner in nested)
        found.append((code.co_firstlineno, code.co_name, qualname,
                      last - code.co_firstlineno + 1,
                      {(inner.co_firstlineno, inner.co_name)
                       for inner in nested[1:]}))
    return found


def report(root: Path, traces: Sequence[Path]) -> str:
    """Merge the trace files and render the per-module report."""
    executed: Dict[str, Set[int]] = defaultdict(set)
    entered: Set[Tuple[str, int, str]] = set()
    for trace in traces:
        if not trace.exists():
            continue
        data = json.loads(trace.read_text())
        for name, lines in data["lines"].items():
            executed[name].update(lines)
        entered.update(tuple(key) for key in data["entered"])

    package = root / "src"
    rows = []
    never_entered = []
    total_lines = total_unreached = 0
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        lines = executable_lines(path)
        unreached = lines - executed.get(str(path), set())
        total_lines += len(lines)
        total_unreached += len(unreached)
        if unreached:
            rows.append((len(unreached), len(lines), module))
        covered_by_parent: Set[Tuple[int, str]] = set()
        for first, name, qualname, count, nested in functions(path):
            if (str(path), first, name) in entered:
                continue
            if (first, name) not in covered_by_parent:
                never_entered.append((module, first, qualname, count))
            covered_by_parent |= nested

    out = [f"Unreached executable lines: {total_unreached} of {total_lines} "
           f"({total_unreached / max(total_lines, 1):.1%})", ""]
    width = max((len(module) for _, _, module in rows), default=10)
    out.append(f"{'module':{width}s} {'unreached':>9s} {'of':>6s}")
    for unreached, lines, module in sorted(rows, key=lambda row: (-row[0], row[2])):
        out.append(f"{module:{width}s} {unreached:9d} {lines:6d}")
    out += ["", f"Functions never entered: {len(never_entered)} "
                f"({sum(row[3] for row in never_entered)} lines; functions "
                f"nested in one are not listed)"]
    for module, first, qualname, count in never_entered:
        out.append(f"  {module}:{first} {qualname} ({count} lines)")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repository root whose src/ is traced "
                             "(default: this script's repository)")
    parser.add_argument("--trace-into", type=Path, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("command", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.trace_into is not None:
        return _run_traced(root, args.trace_into, args.command)

    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        traces, failures = run_entry_points(root, Path(scratch))
        print(report(root, traces))
    for name, status in failures:
        print(f"[reachability] entry point {name!r} exited {status}",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
