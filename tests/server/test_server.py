"""Evaluation daemon integration: coalescing, byte-identity, shutdown.

The server's contract is that it is *transparent*: any artifact fetched
through it is byte-identical to the one the serial CLI path writes, no
matter how many clients were coalesced into the pass that computed it —
and stopping the daemon never strands a ticket, a lease, or a
shared-memory segment (the autouse ``no_leaked_shared_memory`` check
covers the last).
"""

import http.client
import json
import threading

import pytest

from repro.cli import main
from repro.experiments.runner import clear_process_caches
from repro.experiments.store import LEASES_DIR, ReportStore
from repro.experiments.sweep import plan_grid
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
        client, _store = live_server
        outcome = client.run(["table2"], suite="quick")
        artifact = [event for event in outcome.events
                    if event["event"] == "artifact"][0]["payload"]

        out_dir = tmp_path / "cli-run"
        assert main(["run", "table2", "--suite", "quick", "--quiet",
                     "--output-dir", str(out_dir)]) == 0
        cli_payload = json.loads((out_dir / "table2.json").read_text())
        # The CLI payload adds wall-clock ``seconds``; everything
        # identity-bearing must match exactly.
        assert artifact["result"] == cli_payload["result"]
        assert artifact["experiment"] == cli_payload["experiment"]
        assert artifact["suite"] == cli_payload["suite"]


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
