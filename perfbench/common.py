"""Shared pieces of the benchmark: environment guard, statistics, host
fingerprint, digests and the result line."""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (git-ignored).
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Scheduler workers and client connections: 2, capped at the host's cores.
PARALLELISM = 2

#: Modules a fresh interpreter imports in the set-up probe: the CLI pulls in
#: every layer except the daemon, which is imported lazily by ``serve``.
IMPORT_PROBE = "import repro.cli, repro.server.http"


class BenchError(RuntimeError):
    """The benchmark cannot run here (refused environment, missing source)."""


class OutputMismatch(AssertionError):
    """A workload produced output that differs from its reference."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parallelism() -> int:
    """Workers and client connections to use: never more than ``nproc``."""
    return max(1, min(PARALLELISM, nproc()))


def prepare_environment() -> None:
    """Refuse fault drills, force offline corpora, make ``src`` importable.

    Child processes (the daemon, ``python -m repro run``) inherit the same
    environment through ``os.environ``.
    """
    if os.environ.get("REPRO_FAULTS"):
        raise BenchError("REPRO_FAULTS is set; fault drills would make the "
                         "timings and outputs meaningless -- unset it")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a full "
                         f"checkout of the repository")
    os.environ["REPRO_CORPUS_OFFLINE"] = "1"
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: ``prctl`` option that makes a process the reaper of its orphaned
#: descendants (Linux 3.4+).
PR_SET_CHILD_SUBREAPER = 36


def adopt_descendants() -> None:
    """Make this process the parent of every orphan among its descendants.

    A process the benchmark starts can leave its own children behind: the
    ``multiprocessing`` resource tracker of a pool outlives the pool's
    owner by design, and the daemon and ``repro run`` each start one.  As a
    subreaper this process inherits such orphans instead of init, so
    :func:`reap_descendants` can wait for them.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, as they would anyway


def _children() -> List[int]:
    """Pids whose parent is this process (read from ``/proc``)."""
    me, pids = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # The command name may hold spaces; the ppid follows its ")".
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(stat.parent.name))
    return pids


def reap_descendants(grace: float = 20.0) -> None:
    """Stop this process's resource tracker and wait for every child and
    adopted orphan to end; kill whatever still runs after ``grace`` s."""
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()  # closes its pipe, waits
    except (AttributeError, ChildProcessError, OSError):
        pass
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)


def import_probe_seconds() -> float:
    """Wall time of a fresh interpreter importing the package."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                   cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def summary(values: Sequence[float]) -> dict:
    """Median, quartiles, spread (IQR / median) and the sample count."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values)}


def latency_summary(seconds: Sequence[float]) -> dict:
    """Latency in ms: the median and every tail percentile (p90, p99) that
    has at least ten samples beyond it, with the sample count."""
    ms = sorted(value * 1000.0 for value in seconds)
    out = {"n": len(ms), "p50_ms": statistics.median(ms)}
    for pct in (90, 99):
        if len(ms) * (100 - pct) / 100 >= 10:
            out[f"p{pct}_ms"] = statistics.quantiles(ms, n=100)[pct - 1]
    return out


# ---------------------------------------------------------------------- #
# Host, digests, output
# ---------------------------------------------------------------------- #
def host_fingerprint() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the benchmark checkout need not be a git repository
    return {"nproc": nproc(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": sha,
            "parallelism": parallelism()}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_bytes(payload) -> bytes:
    """The bytes the CLI writes for a JSON artifact."""
    return (json.dumps(payload, indent=2) + "\n").encode()


def expected(workload: str, size: str):
    return json.loads(EXPECTED.read_text())[workload][size]


def check_equal(label: str, got, want) -> None:
    if got != want:
        raise OutputMismatch(f"{label}: got {got!r}, expected {want!r}")


def write_record(name: str, record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def result_line(*, correct: bool, attempted: int, failed: int,
                metrics: Dict[str, tuple]) -> str:
    """The last stdout line: ``metrics`` maps name -> (value, unit)."""
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
