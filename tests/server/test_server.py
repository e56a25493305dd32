"""Evaluation daemon integration: coalescing, byte-identity, shutdown.

The server's contract is that it is *transparent*: any artifact fetched
through it is byte-identical to the one the serial CLI path writes, no
matter how many clients were coalesced into the pass that computed it —
and stopping the daemon never strands a ticket, a lease, or a
shared-memory segment (the autouse ``no_leaked_shared_memory`` check
covers the last).
"""

import dataclasses
import http.client
import json
import socket
import threading
import time
from collections import Counter

import pytest

from repro.cli import main
from repro.experiments.runner import clear_process_caches
from repro.experiments.store import LEASES_DIR, ReportStore
from repro.experiments.sweep import plan_grid
from repro.server.http import MAX_BODY_BYTES
from repro.server import (
    EvaluationService,
    ServerClient,
    ServiceClosed,
    ServiceError,
    artifact_bytes,
    create_server,
    serve,
)
from repro.tensor.suite import small_suite


def _requests(y_values=(0.05,)):
    return list(plan_grid(small_suite(), y_values=list(y_values)).requests)


@pytest.fixture()
def live_server(tmp_path):
    """A daemon on a free port over a fresh store; drained at teardown."""
    clear_process_caches()
    store = ReportStore(tmp_path / "store")
    server = create_server(port=0, store=store, batch_window=0.05)
    thread = threading.Thread(target=serve, args=(server,))
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServerClient(host, port), store
    finally:
        if thread.is_alive():
            try:
                ServerClient(host, port).shutdown()
            except Exception:
                server.shutdown()
        thread.join(timeout=60)
        assert not thread.is_alive(), "server failed to drain and stop"


class TestService:
    """The coalescing loop, driven deterministically (no timing windows)."""

    def test_concurrent_tickets_coalesce_into_one_pass(self):
        clear_process_caches()
        service = EvaluationService(auto_start=False)
        first = service.submit(_requests())
        second = service.submit(_requests())
        assert service.step() == 2

        counters = service.counters
        assert counters.passes == 1
        assert counters.tickets == 2
        assert counters.requests == 2 * len(_requests())
        assert counters.coalesced == len(_requests())  # second ticket free
        assert counters.computed == len(_requests())

        for ticket in (first, second):
            events = list(ticket.events())
            cells = [event for event in events if event["event"] == "cell"]
            assert len(cells) == len(_requests())
            assert {cell["source"] for cell in cells} == {"computed"}
            assert events[-1]["event"] == "done"
        service.close()

    def test_cells_report_their_serving_tier(self, tmp_path):
        """The same grid is served ``computed`` → ``store`` → ``memo`` as it
        climbs the warm tiers."""
        def sources(ticket):
            return {event["source"] for event in ticket.events()
                    if event["event"] == "cell"}

        clear_process_caches()
        store = ReportStore(tmp_path / "store")
        service = EvaluationService(store=store, auto_start=False)
        cold = service.submit(_requests())
        service.step()
        assert sources(cold) == {"computed"}
        service.close()

        clear_process_caches()  # simulate a fresh process over the store
        service = EvaluationService(store=store, auto_start=False)
        warm_disk = service.submit(_requests())
        service.step()
        assert sources(warm_disk) == {"store"}

        warm_memo = service.submit(_requests())
        service.step()
        assert sources(warm_memo) == {"memo"}
        assert service.counters.store_hits == len(_requests())
        assert service.counters.memo_hits == len(_requests())
        service.close()

    @staticmethod
    def _queued_events(ticket):
        """The events already in ``ticket``'s stream, without waiting."""
        events = []
        while not ticket._events.empty():
            events.append(ticket._events.get_nowait())
        return events

    def test_warm_ticket_is_answered_at_submit(self):
        """A fully warm ticket is a one-ticket pass run inside submit():
        finished on return, nothing left for the loop, the schedule of an
        all-warm prefetch and the counters of one pass."""
        clear_process_caches()
        service = EvaluationService(auto_start=False)
        service.submit(_requests())
        assert service.step() == 1
        before = dataclasses.replace(service.counters)

        ticket = service.submit(_requests())
        events = self._queued_events(ticket)
        assert service.step() == 0
        assert [event["source"] for event in events[:-1]] == (
            ["memo"] * len(_requests()))
        assert events[-1] == {
            "event": "done",
            "schedule": dataclasses.asdict(
                service.scheduler.prefetch(_requests()))}
        cells = len(_requests())
        assert service.counters == dataclasses.replace(
            before, passes=before.passes + 1, tickets=before.tickets + 1,
            requests=before.requests + cells,
            memo_hits=before.memo_hits + cells)
        service.close()

    def test_ticket_with_a_cold_cell_is_queued(self):
        clear_process_caches()
        service = EvaluationService(auto_start=False)
        service.submit(_requests())
        service.step()
        ticket = service.submit(_requests() + _requests((0.33,))[:1])
        assert self._queued_events(ticket) == []
        assert service.step() == 1
        assert ticket.wait()["schedule"]["computed"] == 1
        service.close()

    def test_warm_submit_after_close_is_refused(self):
        clear_process_caches()
        service = EvaluationService(auto_start=False)
        service.submit(_requests())
        service.step()
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(_requests())

    def test_close_drains_queued_tickets(self, tmp_path):
        """Graceful shutdown: a ticket queued (in flight) at close() time is
        still evaluated to completion, not dropped."""
        clear_process_caches()
        service = EvaluationService(
            store=ReportStore(tmp_path / "store"), auto_start=False)
        ticket = service.submit(_requests())
        service.close(drain=True)  # no loop thread: drains inline
        done = ticket.wait()
        assert done["event"] == "done"
        assert done["schedule"]["computed"] == len(_requests())
        with pytest.raises(ServiceClosed):
            service.submit(_requests())

    def test_close_without_drain_fails_tickets_fast(self):
        clear_process_caches()
        service = EvaluationService(auto_start=False)
        ticket = service.submit(_requests())
        service.close(drain=False)
        with pytest.raises(ServiceError, match="shut down"):
            ticket.wait()

    @pytest.mark.parametrize("window", [float("inf"), float("nan"), -0.01])
    def test_bad_batch_window_is_refused(self, window):
        with pytest.raises(ValueError, match="batch window"):
            EvaluationService(batch_window=window, auto_start=False)

    def test_pass_failure_fails_every_coalesced_ticket(self):
        clear_process_caches()
        service = EvaluationService(auto_start=False)
        bad = _requests()[0]
        bad = type(bad)(suite_token=("bogus",), architecture=bad.architecture,
                        overbooking_target=0.1, workload=bad.workload)
        first = service.submit([bad])
        second = service.submit([bad])
        service.step()
        for ticket in (first, second):
            with pytest.raises(ServiceError):
                ticket.wait()
        service.close()


class TestHTTPEndpoints:
    def test_health_and_stats_counters(self, live_server):
        client, _store = live_server
        assert client.health() == {"status": "ok"}

        cold = client.sweep(suite="quick", y=[0.05])
        hot = client.sweep(suite="quick", y=[0.05])
        assert cold.cell_sources() == {"computed": 3}
        assert hot.cell_sources() == {"memo": 3}

        stats = client.stats()
        assert stats["passes"] >= 2
        assert stats["computed"] == 3
        assert stats["memo_hits"] == 3
        assert stats["store_session"]["writes"] == 3
        assert 0.0 < stats["warm_hit_rate"] <= 1.0

    def test_store_tier_serves_a_cold_process(self, tmp_path):
        """A second daemon over the same store serves the first one's work
        from disk — the fleet-wide warm path."""
        store_dir = tmp_path / "store"
        clear_process_caches()
        server = create_server(port=0, store=ReportStore(store_dir),
                               batch_window=0.0)
        thread = threading.Thread(target=serve, args=(server,))
        thread.start()
        client = ServerClient(*server.server_address[:2])
        try:
            assert client.sweep(suite="quick",
                                y=[0.05]).cell_sources() == {"computed": 3}
        finally:
            client.shutdown()
            thread.join(timeout=60)

        clear_process_caches()  # "new process": memo gone, store remains
        server = create_server(port=0, store=ReportStore(store_dir),
                               batch_window=0.0)
        thread = threading.Thread(target=serve, args=(server,))
        thread.start()
        client = ServerClient(*server.server_address[:2])
        try:
            assert client.sweep(suite="quick",
                                y=[0.05]).cell_sources() == {"store": 3}
        finally:
            client.shutdown()
            thread.join(timeout=60)

    def test_unknown_path_and_bad_body(self, live_server):
        client, _store = live_server
        connection = http.client.HTTPConnection(client.host, client.port)
        connection.request("POST", "/sweep", body=b"{not json",
                           headers={"Connection": "close"})
        response = connection.getresponse()
        assert response.status == 400
        assert b"not JSON" in response.read()
        connection.close()

        with pytest.raises(Exception, match="404|unknown"):
            client._json("GET", "/nonesuch")

    @pytest.mark.parametrize("path, body, message", [
        ("/sweep", {"y": 5}, "'y' must be a JSON list"),
        ("/sweep", {"workloads": 3}, "'workloads' must be a JSON list"),
        ("/sweep", {"kernels": ["nope"]}, "unknown kernel 'nope'"),
        ("/sweep", {"workloads": ["nope"]}, "unknown workloads"),
        ("/sweep", {"glb_scales": [-1.0]}, "glb_scales must be positive"),
        ("/sweep", {"pe_scales": []}, "pe_scales must not be empty"),
        ("/run", {"experiments": ["fig7"], "overbooking_target": "abc"},
         "could not convert"),
        ("/run", {"experiments": ["fig7"], "kernel": "nope"},
         "unknown kernel 'nope'"),
        ("/run", {"experiments": "fig7"}, "'experiments' must be a JSON list"),
        ("/search", {"constraints": "traffic<=1"},
         "'constraints' must be a JSON list"),
    ])
    def test_malformed_body_gets_a_json_400(self, live_server, path, body,
                                            message):
        """No dropped connection, no 200, no per-character iteration."""
        client, _store = live_server
        connection = http.client.HTTPConnection(client.host, client.port,
                                                timeout=60)
        try:
            connection.request("POST", path, body=json.dumps(body).encode(),
                               headers={"Connection": "close"})
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Content-Type") == "application/json"
            assert message in json.loads(response.read())["error"]
        finally:
            connection.close()

    @pytest.mark.parametrize("path, body, message", [
        ("/sweep", {"kernel": "spmm"}, "unknown key 'kernel'"),
        ("/sweep", {"matrix": ["x.mtx"]}, "server-local"),
        ("/sweep", {"corpus": ["suitesparse:Williams/cant"]},
         "server-local"),
        ("/search", {"surrogate": "false"},
         "'surrogate' must be a JSON boolean"),
    ], ids=["unknown-key", "matrix", "corpus", "string-boolean"])
    def test_unserviceable_body_gets_a_json_400(self, live_server, path,
                                                body, message):
        """Keys the schema lacks, server-local suite sources and non-JSON
        booleans are refused, never silently ignored or coerced."""
        client, _store = live_server
        connection = http.client.HTTPConnection(client.host, client.port,
                                                timeout=60)
        try:
            connection.request("POST", path, body=json.dumps(body).encode(),
                               headers={"Connection": "close"})
            response = connection.getresponse()
            assert response.status == 400
            assert message in json.loads(response.read())["error"]
        finally:
            connection.close()

    @pytest.mark.parametrize("length, status", [
        ("-1", 400), ("abc", 400), (str(MAX_BODY_BYTES + 1), 413),
    ], ids=["negative", "not-an-integer", "too-large"])
    def test_bad_content_length_is_answered_unread(self, live_server, length,
                                                   status):
        """Framing errors get a JSON answer at once: the daemon neither
        blocks reading a negative length nor buffers an oversized body."""
        client, _store = live_server
        with socket.create_connection((client.host, client.port),
                                      timeout=5) as sock:
            sock.sendall(f"POST /sweep HTTP/1.1\r\nHost: x\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode())
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = sock.recv(4096)
                assert chunk, "connection closed without a response"
                reply += chunk
            head, _, rest = reply.partition(b"\r\n\r\n")
            assert head.split()[1] == str(status).encode()
            size = int(next(line.split(b":")[1] for line in head.split(b"\r\n")
                            if line.lower().startswith(b"content-length")))
            while len(rest) < size:
                chunk = sock.recv(4096)
                assert chunk
                rest += chunk
        assert "error" in json.loads(rest[:size])

    def test_unknown_experiment_is_a_request_error(self, live_server):
        client, _store = live_server
        with pytest.raises(Exception, match="nonesuch|unknown"):
            client.run(["nonesuch"])


class TestByteIdentity:
    def test_concurrent_overlapping_clients_match_serial_cli(
            self, live_server, tmp_path, capsys):
        """The golden test: N concurrent clients with overlapping grids all
        receive artifacts byte-identical to a serial ``python -m repro
        sweep`` of the same grid."""
        client, _store = live_server
        grids = [
            {"suite": "quick", "y": [0.05, 0.10]},
            {"suite": "quick", "y": [0.05, 0.10]},   # identical (coalesces)
            {"suite": "quick", "y": [0.10, 0.22]},   # overlaps at y=0.10
        ]
        outcomes = [None] * len(grids)

        def drive(index):
            outcomes[index] = client.sweep(**grids[index])

        threads = [threading.Thread(target=drive, args=(index,))
                   for index in range(len(grids))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for index, grid in enumerate(grids):
            out_dir = tmp_path / f"cli-{index}"
            assert main(["sweep", "--suite", "quick",
                         "--y", ",".join(str(y) for y in grid["y"]),
                         "--output-dir", str(out_dir)]) == 0
            cli_bytes = (out_dir / "sweep.json").read_bytes()
            assert artifact_bytes(outcomes[index].artifact) == cli_bytes, (
                f"server artifact {index} diverged from the CLI bytes")

    def test_run_endpoint_matches_cli_artifact_payload(
            self, live_server, tmp_path, capsys):
        """``/run`` artifacts equal the CLI's, apart from the wall-clock
        ``seconds``.  The CLI is given ``--suite quick``, the daemon's
        default."""
        client, _store = live_server
        cases = [
            (["table2"], {}, []),
            (["table2", "table3"], {"kernel": "spmm"}, ["--kernel", "spmm"]),
            (["fig7"], {"synth": ["uniform"]}, ["--synth", "uniform"]),
        ]
        for index, (names, body, flags) in enumerate(cases):
            outcome = client.run(names, **body)
            served = {event["payload"]["experiment"]: event["payload"]
                      for event in outcome.events
                      if event["event"] == "artifact"}
            out_dir = tmp_path / f"cli-run-{index}"
            assert main(["run", *names, "--suite", "quick", *flags,
                         "--quiet", "--output-dir", str(out_dir)]) == 0
            for name in names:
                cli_payload = json.loads(
                    (out_dir / f"{name}.json").read_text())
                del cli_payload["seconds"]
                assert served[name] == cli_payload, (names, body)

    def test_run_endpoint_persists_self_scheduled_evaluations(
            self, live_server):
        """table4 evaluates its own ladder through the daemon's scheduler,
        so the daemon's store keeps what it computed."""
        client, store = live_server
        outcome = client.run(["table4"])
        assert [event["payload"]["experiment"] for event in outcome.events
                if event["event"] == "artifact"] == ["table4"]
        assert store.stats().entries > 0


class TestHotPath:
    CLIENTS = 4
    HOT_ROUNDS = 2
    GRID = dict(suite="quick", y=[0.05, 0.10, 0.22], kernels=["gram"])

    def _concurrently(self, client, rounds):
        """Each of ``CLIENTS`` threads sends ``rounds`` sweeps of ``GRID``
        over its own client; returns the cell-source tallies."""
        sources = Counter()
        errors = []
        lock = threading.Lock()

        def drive():
            own = ServerClient(client.host, client.port)
            try:
                for _ in range(rounds):
                    tally = own.sweep(**self.GRID).cell_sources()
                    with lock:
                        sources.update(tally)
            except Exception as error:  # noqa: BLE001 - asserted below
                with lock:
                    errors.append(error)

        threads = [threading.Thread(target=drive)
                   for _ in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        return sources

    def test_concurrent_hot_rounds_are_served_from_the_memo(
            self, live_server):
        """4 clients ask for one cold grid at once, then repeat it: every
        request succeeds, every repeated cell is a memo hit, and the daemon
        still shuts down cleanly (the fixture's teardown)."""
        client, _store = live_server
        cells = len(self.GRID["y"]) * len(small_suite().names)
        cold = self._concurrently(client, rounds=1)
        assert sum(cold.values()) == self.CLIENTS * cells
        hot = self._concurrently(client, rounds=self.HOT_ROUNDS)
        assert hot == {"memo": self.CLIENTS * self.HOT_ROUNDS * cells}
        client.shutdown()


    def test_hot_repeat_skips_the_coalescing_window(self, tmp_path):
        """Only a ticket with a cold cell waits the window: at a 1 s window
        the cold first sweep takes at least 1 s, its hot repeat less."""
        clear_process_caches()
        server = create_server(port=0, store=ReportStore(tmp_path / "store"),
                               batch_window=1.0)
        thread = threading.Thread(target=serve, args=(server,))
        thread.start()
        client = ServerClient(*server.server_address[:2])
        try:
            seconds = []
            for _ in range(2):
                start = time.monotonic()
                client.sweep(**self.GRID)
                seconds.append(time.monotonic() - start)
        finally:
            client.shutdown()
            thread.join(timeout=60)
        cold, hot = seconds
        assert cold >= 1.0
        assert hot < 1.0


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight_request(self, tmp_path):
        """A /shutdown racing an in-flight /sweep: the sweep still streams
        to completion (drained, not dropped), and nothing is orphaned —
        no lease files in the store, no shm segments (autouse check)."""
        clear_process_caches()
        store = ReportStore(tmp_path / "store")
        server = create_server(port=0, store=store, batch_window=0.3)
        thread = threading.Thread(target=serve, args=(server,))
        thread.start()
        host, port = server.server_address[:2]

        # Raw connection so the stream can be read event by event.
        connection = http.client.HTTPConnection(host, port, timeout=120)
        connection.request(
            "POST", "/sweep",
            body=json.dumps({"suite": "quick", "y": [0.05]}).encode(),
            headers={"Content-Type": "application/json",
                     "Connection": "close"})
        response = connection.getresponse()
        first = json.loads(response.readline())
        assert first["event"] == "plan"

        # The ticket now sits in the 0.3s coalescing window; shut down
        # while it is unambiguously in flight.
        ServerClient(host, port).shutdown()

        events = [json.loads(line) for line in response if line.strip()]
        assert events[-1]["event"] == "result"
        assert events[-1]["schedule"]["computed"] == 3
        connection.close()

        thread.join(timeout=60)
        assert not thread.is_alive()

        leases = store.root / LEASES_DIR
        assert not leases.exists() or not any(leases.iterdir()), (
            "graceful shutdown left orphaned lease files")

        # And the daemon really is down: new requests are refused.
        with pytest.raises(OSError):
            probe = http.client.HTTPConnection(host, port, timeout=5)
            probe.request("GET", "/health")
            probe.getresponse()
