"""The benchmark's four workloads.

Each workload has a set-up (repeatable from scratch, timed as ``setup_s``),
one timed operation repeated for the run's seconds, an output check, and a
traced variant that runs the operation serially with every layer's entry
points wrapped in spans (see ``spans.py``).  README.md says why each
workload exists and which layer metric should move which end-to-end metric.

The workload seed drives only generated inputs -- the new ``y`` values of
``regrid_store`` and the request stream of ``serve_mixed``.  The program
keeps its own suite seed, so every simulated number repeats exactly.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    BenchError,
    OutputMismatch,
    check_equal,
    digest,
    expected,
    import_probe_seconds,
    json_bytes,
    latency_summary,
    parallelism,
)

#: The overbooking targets of every fixed grid (below, at, above y = 10%).
Y_VALUES = (0.05, 0.10, 0.22)
ALL_KERNELS = ("gram", "spmspm", "spmm", "spmv", "sddmm")
REPRODUCE_EXPERIMENTS = ("table1", "table2", "table3", "table4", "fig1",
                         "fig5", "fig7", "fig8", "fig9", "fig10", "fig11",
                         "fig12", "fig13", "fig14")


@dataclass(frozen=True)
class Size:
    """Problem sizes: ``full`` is the benchmark, ``tiny`` its smoke test."""

    suite: str
    sweep_kernels: tuple
    sweep_scales: tuple
    regrid_kernels: tuple
    regrid_scales: tuple
    experiments: tuple
    setups: int
    #: ``regrid_store``'s set-up builds a store snapshot, which takes ~4 s, so
    #: it does fewer and leaves the run's time to the operations.
    store_setups: int
    traced_requests: int


SIZES = {
    "full": Size(suite="full", sweep_kernels=ALL_KERNELS,
                 sweep_scales=(0.5, 1.0, 2.0),
                 regrid_kernels=("gram", "spmm"),
                 regrid_scales=(0.5, 1.0, 2.0),
                 experiments=REPRODUCE_EXPERIMENTS, setups=7, store_setups=3,
                 traced_requests=24),
    "tiny": Size(suite="quick", sweep_kernels=("gram", "spmm"),
                 sweep_scales=(1.0,), regrid_kernels=("gram",),
                 regrid_scales=(1.0,), experiments=("table1", "fig7"),
                 setups=1, store_setups=1, traced_requests=4),
}


def _suite(name: str):
    from repro.tensor.suite import default_suite, small_suite

    return default_suite() if name == "full" else small_suite()


def _clear_caches() -> None:
    from repro.experiments.runner import clear_process_caches

    clear_process_caches()


def _sweep_digest(result) -> str:
    return digest(json_bytes(result.to_jsonable()))


def _fresh_y_values(rng: random.Random, count: int) -> List[float]:
    """``count`` distinct seeded targets in [3%, 35%], none on a fixed grid."""
    taken = {round(y * 10000) for y in Y_VALUES}
    pool = [step for step in range(300, 3501) if step not in taken]
    return [step / 10000 for step in rng.sample(pool, count)]


def pool_speedup(requests) -> tuple:
    """Prefetch wall at 1 worker over the wall at :func:`parallelism`
    workers on the same cold cells, plus the seconds spent exporting suites
    to shared memory in the parallel pass."""
    from repro.experiments.scheduler import EvaluationScheduler
    from repro.tensor import shm
    from spans import Tracer

    walls = []
    shm_tracer = Tracer()
    for workers in (1, parallelism()):
        _clear_caches()
        if workers > 1:
            shm_tracer.wrap_function(shm, "export_suite", "shm.export")
        start = time.perf_counter()
        try:
            EvaluationScheduler(max_workers=workers).prefetch(list(requests))
        finally:
            shm_tracer.unpatch()
        walls.append(time.perf_counter() - start)
    return walls[0] / walls[1], sum(span.duration
                                    for span in shm_tracer.spans)


@dataclass
class Measurement:
    """What one timed run observed."""

    #: The latencies ``p50_ms`` is taken over.
    latencies: List[float]
    wall: float
    peak_rss_mb: float
    attempted: int
    outputs: list
    failed: int = 0
    details: Dict[str, object] = field(default_factory=dict)


class Workload:
    """A sequential workload: the timed operation runs back to back."""

    name = ""

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = workdir

    @property
    def setups(self) -> int:
        """Set-ups per timed run; ``setup_s`` is their median."""
        return self.size.setups

    def setup(self) -> float:
        raise NotImplementedError

    def reset(self) -> None:
        """Untimed per-operation preparation."""

    def op(self):
        raise NotImplementedError

    def output_of(self, result):
        """The checkable identity of one operation's output."""
        raise NotImplementedError

    def verify(self, outputs: list) -> None:
        """Raise :class:`~common.OutputMismatch` on any wrong output."""
        raise NotImplementedError

    def details(self, outputs: list, latencies: List[float]) -> dict:
        """Workload-specific figures for the run record."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest process the workload has run, in MiB:
        this one, or any child it reaped (a pool worker, the daemon, a
        ``repro run``) with the descendants that child reaped in turn.
        ``ru_maxrss`` is in KiB."""
        return max(resource.getrusage(who).ru_maxrss for who in
                   (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0

    def close(self) -> None:
        """Stop anything the workload started."""

    def measure(self, seconds: float) -> Measurement:
        latencies, outputs = [], []
        deadline = time.perf_counter() + seconds
        while not latencies or time.perf_counter() < deadline:
            self.reset()
            start = time.perf_counter()
            result = self.op()
            latencies.append(time.perf_counter() - start)
            outputs.append(self.output_of(result))
        return Measurement(latencies=latencies, wall=sum(latencies),
                           peak_rss_mb=self.peak_rss_mb(),
                           attempted=len(latencies), outputs=outputs,
                           details=self.details(outputs, latencies))

    def serial_op(self):
        """The operation at one worker, in this process."""
        return self.op(workers=1)

    def cold_requests(self) -> list:
        """The cells the operation evaluates cold (for the pool speed-up)."""
        raise NotImplementedError

    def traced(self, tracer) -> dict:
        """Run the operation once, serially, under ``tracer``; returns the
        per-layer figures the spans cannot give."""
        from spans import install_layer_hooks

        self.reset()
        install_layer_hooks(tracer)
        try:
            result = self.serial_op()
        finally:
            tracer.unpatch()
        self.verify([self.output_of(result)])
        speedup, export = pool_speedup(self.cold_requests())
        return {"scheduler.pool_speedup": speedup, "shm.export_s": export}


# ---------------------------------------------------------------------- #
# cold_sweep
# ---------------------------------------------------------------------- #
class ColdSweep(Workload):
    """The full grid from cleared process caches, no store."""

    name = "cold_sweep"

    def grid(self) -> dict:
        return {"y_values": Y_VALUES,
                "glb_scales": self.size.sweep_scales,
                "pe_scales": self.size.sweep_scales,
                "kernels": self.size.sweep_kernels}

    def setup(self) -> float:
        from repro.experiments.sweep import plan_grid

        probe = import_probe_seconds()
        start = time.perf_counter()
        _clear_caches()
        plan_grid(_suite(self.size.suite), **self.grid())
        return probe + time.perf_counter() - start

    def reset(self) -> None:
        _clear_caches()

    def op(self, workers: Optional[int] = None):
        from repro.experiments.sweep import sweep_grid

        return sweep_grid(_suite(self.size.suite), **self.grid(),
                          max_workers=workers or parallelism())

    def output_of(self, result) -> tuple:
        return _sweep_digest(result), len(result.rows)

    def verify(self, outputs: list) -> None:
        want = expected(self.name, self.size.suite)["sweep_sha256"]
        for index, (got, _) in enumerate(outputs):
            check_equal(f"cold_sweep op {index} artifact digest", got, want)

    def details(self, outputs: list, latencies: List[float]) -> dict:
        return _cell_rates(outputs, latencies)

    def cold_requests(self):
        from repro.experiments.sweep import plan_grid

        return list(plan_grid(_suite(self.size.suite),
                              **self.grid()).requests)


# ---------------------------------------------------------------------- #
# regrid_store
# ---------------------------------------------------------------------- #
class RegridStore(Workload):
    """A new grid on known matrices, resumed from a report-store snapshot."""

    name = "regrid_store"

    def __init__(self, size: Size, seed: int, workdir: Path):
        super().__init__(size, seed, workdir)
        self.new_y = _fresh_y_values(random.Random(f"regrid-{seed}"), 2)
        self.snapshot = workdir / "snapshot"
        self.store_dir = workdir / "store"

    @property
    def setups(self) -> int:
        return self.size.store_setups

    def grid(self, y_values) -> dict:
        return {"y_values": tuple(y_values),
                "glb_scales": self.size.regrid_scales,
                "pe_scales": self.size.regrid_scales,
                "kernels": self.size.regrid_kernels}

    def setup(self) -> float:
        from repro.experiments.store import ReportStore
        from repro.experiments.sweep import sweep_grid

        shutil.rmtree(self.snapshot, ignore_errors=True)
        os.sync()
        probe = import_probe_seconds()
        start = time.perf_counter()
        _clear_caches()
        sweep_grid(_suite(self.size.suite), **self.grid(Y_VALUES),
                   store=ReportStore(self.snapshot),
                   max_workers=parallelism())
        return probe + time.perf_counter() - start

    def reset(self) -> None:
        # Hard links restore the snapshot without writing its data again
        # (safe: the store only ever replaces entry files, atomically), and
        # the sync settles the previous operation's writes and deletions, so
        # no leftover disk work overlaps the timed operation.
        shutil.rmtree(self.store_dir, ignore_errors=True)
        shutil.copytree(self.snapshot, self.store_dir, copy_function=os.link)
        _clear_caches()
        os.sync()

    def op(self, workers: Optional[int] = None):
        from repro.experiments.store import ReportStore
        from repro.experiments.sweep import sweep_grid

        return sweep_grid(_suite(self.size.suite),
                          **self.grid(Y_VALUES + tuple(self.new_y)),
                          store=ReportStore(self.store_dir), resume=True,
                          max_workers=workers or parallelism())

    def output_of(self, result) -> tuple:
        schedule = result.schedule
        return (_sweep_digest(result), len(result.rows), schedule.store_hits,
                schedule.computed)

    def reference_digest(self) -> str:
        """Digest of a store-less serial sweep of the same grid."""
        from repro.experiments.sweep import sweep_grid

        _clear_caches()
        return _sweep_digest(sweep_grid(
            _suite(self.size.suite),
            **self.grid(Y_VALUES + tuple(self.new_y)), max_workers=1))

    def verify(self, outputs: list) -> None:
        want = self.reference_digest()
        for index, (got, *_) in enumerate(outputs):
            check_equal(f"regrid_store op {index} artifact digest", got, want)

    def details(self, outputs: list, latencies: List[float]) -> dict:
        return {**_cell_rates(outputs, latencies), "new_y": self.new_y,
                "store_hits_per_op": outputs[0][2],
                "computed_per_op": outputs[0][3]}

    def cold_requests(self):
        from repro.experiments.sweep import plan_grid

        suite = _suite(self.size.suite)
        known = {request.memo_key for request in
                 plan_grid(suite, **self.grid(Y_VALUES)).requests}
        return [request for request in plan_grid(
            suite, **self.grid(Y_VALUES + tuple(self.new_y))).requests
                if request.memo_key not in known]

    def traced(self, tracer) -> dict:
        self.setup()
        return super().traced(tracer)


def _cell_rates(outputs: list, latencies: List[float]) -> dict:
    """Grid cells per operation and per second (the sweeps' throughput)."""
    cells = outputs[0][1]
    return {"cells_per_op": cells,
            "cells_per_s": cells / statistics.median(latencies)}


# ---------------------------------------------------------------------- #
# reproduce
# ---------------------------------------------------------------------- #
def artifact_digests(out_dir: Path, experiments) -> Dict[str, str]:
    """Digest of each experiment's JSON artifact, minus its run-dependent
    fields: the run time and the worker count."""
    digests = {}
    for name in experiments:
        payload = json.loads((out_dir / f"{name}.json").read_text())
        payload.pop("seconds", None)
        payload["params"].pop("max_workers", None)
        digests[name] = digest(json_bytes(payload))
    return digests


def fig7_geomean(out_dir: Path) -> float:
    """ExTensor-OB vs ExTensor-N geomean speedup at y = 10% (simulated by the
    model, which has no hardware validation)."""
    from repro.model.stats import geometric_mean

    rows = json.loads((out_dir / "fig7.json").read_text())["result"]["rows"]
    return geometric_mean(row["overbooking_speedup"] for row in rows)


class Reproduce(Workload):
    """``python -m repro run <every figure and table>`` as a subprocess."""

    name = "reproduce"

    def __init__(self, size: Size, seed: int, workdir: Path):
        super().__init__(size, seed, workdir)
        self.out_dir = workdir / "artifacts"

    def argv(self, out_dir: Path, workers: int) -> List[str]:
        return ["run", *self.size.experiments, "--suite", self.size.suite,
                "--workers", str(workers), "--output-dir", str(out_dir),
                "--quiet"]

    def setup(self) -> float:
        return import_probe_seconds()

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro",
             *self.argv(self.out_dir, parallelism())],
            cwd=self.workdir, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        if completed.returncode != 0:
            raise BenchError(f"repro run exited {completed.returncode}:\n"
                             f"{completed.stderr}")
        return self.out_dir

    def output_of(self, out_dir: Path) -> tuple:
        return (artifact_digests(out_dir, self.size.experiments),
                repr(fig7_geomean(out_dir)))

    def verify(self, outputs: list) -> None:
        want = expected(self.name, self.size.suite)
        for index, (digests, geomean) in enumerate(outputs):
            check_equal(f"reproduce op {index} artifact digests", digests,
                        want["artifacts"])
            check_equal(f"reproduce op {index} fig7 OB vs N geomean speedup",
                        geomean, want["fig7_ob_vs_n_geomean"])

    def serial_op(self) -> Path:
        """``repro run`` in this process, so every span lands here."""
        from repro import cli

        _clear_caches()
        with contextlib.redirect_stdout(sys.stderr):
            status = cli.main(self.argv(self.out_dir, 1))
        if status != 0:
            raise BenchError(f"repro run exited {status}")
        return self.out_dir

    def cold_requests(self) -> list:
        from repro.experiments import registry
        from repro.experiments.runner import ExperimentContext
        from repro.experiments.scheduler import requests_for_context

        context = ExperimentContext.for_suite(self.size.suite)
        quick = self.size.suite == "quick"
        targets = []
        for name in self.size.experiments:
            experiment = registry.get(name)
            if experiment.needs_context:
                targets.extend(experiment.evaluation_targets(
                    context, **(dict(experiment.quick_params) if quick
                                else {})))
        return requests_for_context(context, targets)


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #
#: The request mix follows the mixed phase of ``scripts/bench_server.py``,
#: the repository's own load generator: half the sweeps repeat its hot grid
#: (warmed during set-up), half ask for a grid of the same shape on ``y``
#: values nothing has evaluated.  The malformed share is an assumption: "a
#: few" bad bodies, enough to exercise the error path on every run.
HOT_GRID = {"y": list(Y_VALUES), "glb_scales": [1.0], "pe_scales": [1.0],
            "kernels": ["gram"]}
COLD_Y_COUNT = 3
MALFORMED_SHARE = 0.05
#: Malformed ``/sweep`` bodies the daemon answers with a JSON 4xx today.
MALFORMED_BODIES = (
    b"not json",
    b"[1, 2]",
    b'{"suite": "nope"}',
    b'{"y": []}',
    b'{"kernels": []}',
    b'{"synth": ["nope:x=1"]}',
    b'{"y": ["a"]}',
)
#: Probe bodies that crash the handler or are wrongly accepted today; sent
#: only by the traced run, which counts connections dropped without an
#: answer (``http.dropped``).
PROBE_BODIES = (
    b'{"y": 5}',
    b'{"workloads": 3}',
    b'{"kernels": ["nope"]}',
    b'{"workloads": ["nope"]}',
    b'{"glb_scales": [-1.0]}',
    b'{"pe_scales": []}',
)


def _grid_key(grid: dict) -> str:
    return json.dumps(grid, sort_keys=True)


def _plan_kwargs(grid: dict) -> dict:
    return {"y_values": grid["y"], "glb_scales": grid["glb_scales"],
            "pe_scales": grid["pe_scales"], "kernels": grid["kernels"]}


class RequestStream:
    """One client's seeded, endless request stream."""

    def __init__(self, seed: int, client: int, clients: int):
        self.rng = random.Random(f"serve-{seed}-{client}")
        pool = _fresh_y_values(random.Random(f"serve-{seed}"), 3000)
        self.fresh_y = pool[client::clients]

    def next(self):
        """``("hot"|"cold", grid)`` or ``("malformed", body bytes)``."""
        if self.rng.random() < MALFORMED_SHARE:
            return "malformed", self.rng.choice(MALFORMED_BODIES)
        if self.rng.random() < 0.5 or len(self.fresh_y) < COLD_Y_COUNT:
            return "hot", HOT_GRID
        y_values = sorted(self.fresh_y[:COLD_Y_COUNT])
        del self.fresh_y[:COLD_Y_COUNT]
        return "cold", {**HOT_GRID, "y": y_values}


@dataclass
class Outcome:
    kind: str
    latency: float
    ok: bool
    grid: Optional[dict] = None
    digest: Optional[str] = None
    cells: int = 0
    error: str = ""


def post_raw(host: str, port: int, body: bytes) -> tuple:
    """POST raw bytes to ``/sweep``: ``(status, content type, body)``."""
    connection = HTTPConnection(host, port, timeout=60)
    try:
        connection.request("POST", "/sweep", body=body,
                           headers={"Content-Type": "application/json",
                                    "Connection": "close"})
        response = connection.getresponse()
        return (response.status, response.getheader("Content-Type", ""),
                response.read())
    finally:
        connection.close()


def send(client, kind: str, payload) -> Outcome:
    """Send one request of the stream and judge the answer."""
    from repro.server.client import artifact_bytes

    start = time.perf_counter()
    try:
        if kind == "malformed":
            status, content_type, body = post_raw(client.host, client.port,
                                                  payload)
            latency = time.perf_counter() - start
            ok = (400 <= status < 500 and content_type == "application/json"
                  and "error" in json.loads(body))
            return Outcome(kind, latency, ok,
                           error="" if ok else f"answered {status}")
        outcome = client.sweep(suite="quick", **payload)
        latency = time.perf_counter() - start
        return Outcome(kind, latency, True, grid=payload,
                       digest=digest(artifact_bytes(outcome.artifact)),
                       cells=len(outcome.cells))
    except (OSError, HTTPException, ValueError, RuntimeError) as error:
        return Outcome(kind, time.perf_counter() - start, False,
                       grid=payload if kind != "malformed" else None,
                       error=repr(error))


def check_served(outcomes: List[Outcome]) -> None:
    """Every served artifact equals the in-process ``collect_result``
    artifact of its grid, byte for byte."""
    from repro.experiments.sweep import sweep_grid

    served: Dict[str, set] = {}
    grids: Dict[str, dict] = {}
    for outcome in outcomes:
        if outcome.ok and outcome.digest is not None:
            key = _grid_key(outcome.grid)
            served.setdefault(key, set()).add(outcome.digest)
            grids[key] = outcome.grid
    _clear_caches()
    suite = _suite("quick")
    for key, digests in served.items():
        want = _sweep_digest(sweep_grid(suite, **_plan_kwargs(grids[key]),
                                        max_workers=1))
        check_equal(f"served artifact digests of grid {key}", digests,
                    {want})


class Daemon:
    """``python -m repro serve`` as its own process."""

    def __init__(self, workdir: Path, store_dir: Path, workers: int):
        self.log_path = workdir / "daemon.log"
        self.log = self.log_path.open("w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers), "--store", str(store_dir)],
            cwd=workdir, stdout=subprocess.DEVNULL, stderr=self.log)
        self.port = self._wait_for_port()

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        marker = "serving on http://127.0.0.1:"
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0])
            if self.process.poll() is not None:
                raise BenchError(f"daemon exited at start:\n{text}")
            time.sleep(0.01)
        raise BenchError("daemon did not report its port in time")

    def stop(self) -> None:
        from repro.server.client import ServerClient

        try:
            if self.process.poll() is None:
                ServerClient(port=self.port, timeout=10).shutdown()
                self.process.wait(timeout=30)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self.log.close()


class ServeMixed(Workload):
    """The daemon under two closed-loop clients sending a seeded mix."""

    name = "serve_mixed"

    def __init__(self, size: Size, seed: int, workdir: Path):
        super().__init__(size, seed, workdir)
        self.daemon: Optional[Daemon] = None

    def client(self):
        from repro.server.client import ServerClient

        return ServerClient(port=self.daemon.port, timeout=120)

    def setup(self) -> float:
        self.close()
        store_dir = self.workdir / "store"
        shutil.rmtree(store_dir, ignore_errors=True)
        os.sync()
        start = time.perf_counter()
        self.daemon = Daemon(self.workdir, store_dir, parallelism())
        self.client().sweep(suite="quick", **HOT_GRID)
        return time.perf_counter() - start

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def measure(self, seconds: float) -> Measurement:
        clients = parallelism()
        results: List[List[Outcome]] = [[] for _ in range(clients)]
        start = time.perf_counter()
        deadline = start + seconds

        def loop(index: int) -> None:
            # Each client sends at least one cold request, which p50_ms needs.
            stream = RequestStream(self.seed, index, clients)
            client = self.client()
            mine = results[index]
            while (time.perf_counter() < deadline
                   or not any(o.kind == "cold" for o in mine)):
                mine.append(send(client, *stream.next()))

        threads = [threading.Thread(target=loop, args=(index,))
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        # Stopping the daemon reaps it, so its peak (and that of its pool
        # workers, which it reaped) reaches RUSAGE_CHILDREN.
        self.close()
        peak = self.peak_rss_mb()
        outcomes = [outcome for group in results for outcome in group]
        latency = {kind: [o.latency for o in outcomes
                          if o.kind == kind and o.ok]
                   for kind in ("hot", "cold", "malformed")}
        failures = [o.error for o in outcomes if not o.ok]
        if not latency["cold"]:
            self.verify(outcomes)  # every cold request failed: this raises
        return Measurement(
            latencies=latency["cold"], wall=wall,
            peak_rss_mb=peak, attempted=len(outcomes), outputs=outcomes,
            failed=len(failures),
            details={"clients": clients,
                     "latency_by_kind": {kind: latency_summary(values)
                                         for kind, values in latency.items()
                                         if values},
                     "cells_served": sum(o.cells for o in outcomes),
                     "failures": failures[:10]})

    def verify(self, outputs: list) -> None:
        failures = [f"{o.kind}: {o.error}" for o in outputs if not o.ok]
        if failures:
            raise OutputMismatch(f"{len(failures)} of {len(outputs)} requests "
                                 f"failed, e.g. {failures[:3]}")
        check_served(outputs)

    def traced(self, tracer) -> dict:
        extras = self._service_phase()
        extras.update(self._http_phase(tracer))
        return extras

    def _streams(self, clients: int) -> List[list]:
        """The first ``traced_requests`` requests of each client's stream."""
        streams = []
        for index in range(clients):
            stream = RequestStream(self.seed, index, clients)
            streams.append([stream.next()
                            for _ in range(self.size.traced_requests)])
        return streams

    def _service_phase(self) -> dict:
        """In-process service, same streams minus malformed bodies:
        ``submit(...).wait()`` latency minus the prefetch of its pass."""
        from repro.experiments.store import ReportStore
        from repro.experiments.sweep import plan_grid
        from repro.server.service import EvaluationService

        _clear_caches()
        service = EvaluationService(store=ReportStore(self.workdir / "svc"),
                                    max_workers=1)
        passes: List[tuple] = []
        prefetch = service.scheduler.prefetch

        def timed_prefetch(*args, **kwargs):
            start = time.perf_counter()
            try:
                return prefetch(*args, **kwargs)
            finally:
                passes.append((start, time.perf_counter()))

        service.scheduler.prefetch = timed_prefetch
        suite = _suite("quick")
        waits: List[tuple] = []
        lock = threading.Lock()

        def run(requests) -> None:
            for kind, grid in requests:
                if kind == "malformed":
                    continue
                plan = plan_grid(suite, **_plan_kwargs(grid))
                start = time.perf_counter()
                service.submit(list(plan.requests)).wait()
                with lock:
                    waits.append((start, time.perf_counter()))

        try:
            run([("hot", HOT_GRID)])
            waits.clear()
            before = (service.counters.passes, service.counters.requests,
                      service.counters.coalesced)
            threads = [threading.Thread(target=run, args=(stream,))
                       for stream in self._streams(parallelism())]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            service.close()
        queue_ms = []
        for start, end in waits:
            served_by = [p for p in passes if start <= p[1] <= end]
            busy = (served_by[-1][1] - served_by[-1][0]) if served_by else 0.0
            queue_ms.append((end - start - busy) * 1000.0)
        counters = service.counters
        requests = counters.requests - before[1]
        return {"service.queue_ms": statistics.median(queue_ms),
                "service.passes": counters.passes - before[0],
                "service.coalesced_ratio":
                    (counters.coalesced - before[2]) / requests
                    if requests else 0.0}

    def _http_phase(self, tracer) -> dict:
        """In-process HTTP server, one request at a time, fully traced."""
        from repro.experiments.store import ReportStore
        from repro.experiments.sweep import plan_grid
        from repro.server.client import ServerClient
        from repro.server.http import create_server
        from spans import install_layer_hooks

        _clear_caches()
        server = create_server(port=0, max_workers=1,
                               store=ReportStore(self.workdir / "http"))
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        outcomes: List[Outcome] = []
        spans: List[int] = []
        try:
            client = ServerClient(port=server.server_address[1], timeout=120)
            client.sweep(suite="quick", **HOT_GRID)
            requests = [request for stream in self._streams(parallelism())
                        for request in stream]
            install_layer_hooks(tracer)
            try:
                for kind, payload in requests:
                    index = tracer.open("http.request", kind=kind)
                    outcomes.append(send(client, kind, payload))
                    tracer.close(index)
                    spans.append(index)
            finally:
                tracer.unpatch()
            dropped = 0
            for body in PROBE_BODIES:
                try:
                    post_raw("127.0.0.1", server.server_address[1], body)
                except (OSError, HTTPException):
                    dropped += 1
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()
            thread.join()
        failures = [o.error for o in outcomes if not o.ok]
        if failures:
            raise BenchError(f"traced requests failed: {failures[:3]}")
        check_served(outcomes)
        self_times = tracer.span_self_times()
        overhead = [self_times[index] * 1000.0
                    for index, outcome in zip(spans, outcomes)
                    if outcome.kind != "malformed"]

        suite = _suite("quick")
        cold_requests = [request for kind, grid in requests if kind == "cold"
                         for request in
                         plan_grid(suite, **_plan_kwargs(grid)).requests]
        speedup, export = (pool_speedup(cold_requests) if cold_requests
                           else (1.0, 0.0))
        return {"http.overhead_ms": statistics.median(overhead),
                "http.dropped": dropped,
                "scheduler.pool_speedup": speedup, "shm.export_s": export}


WORKLOADS = {cls.name: cls for cls in (ColdSweep, RegridStore, ServeMixed,
                                       Reproduce)}
