"""HTTP front end of the evaluation service (stdlib ``http.server`` only).

``python -m repro serve`` binds a :class:`ReproServer` —
:class:`http.server.ThreadingHTTPServer` over one shared
:class:`~repro.server.service.EvaluationService` — exposing the pipeline's
three drivers as JSON endpoints:

``POST /sweep``
    Body: the ``sweep`` subcommand's grid arguments as JSON (see
    ``docs/SERVER.md``).  Streams newline-delimited JSON (chunked):
    a ``plan`` event, one ``cell`` event per grid cell as it completes
    (tagged ``memo``/``store``/``computed``), then a terminal ``result``
    event whose ``artifact`` field is *exactly* the payload of the CLI's
    ``sweep.json`` — ``json.dumps(artifact, indent=2) + "\\n"`` on the
    client reproduces the CLI file byte for byte.

``POST /run``
    Body: ``{"experiments": [...], ...}``.  Streams ``cell`` events for the
    prefetched evaluations, one ``artifact`` event per experiment, then
    ``result``.

``POST /search``
    Body: the ``search`` subcommand's arguments.  The generational loop
    cannot be coalesced (each generation depends on the last), so it runs
    in the handler thread against the *shared* store and memo — concurrent
    searches and sweeps still dedup through both.  Streams ``result``.

``GET /stats``
    Service counters (passes, coalesced cells, memo/store hits, warm hit
    rate) plus the shared store's session counters.

``GET /health``
    Liveness probe.

``POST /shutdown``
    Graceful stop: responds immediately, then the server stops accepting
    connections, finishes every in-flight request (handler threads are
    non-daemon and ``server_close`` joins them), and drains the service
    queue.  No orphaned leases, tickets, or shared-memory segments.

Requests are deliberately *identity-only* (suite names, grid axes, synth
specs) — never server-local paths — so any client's request means the same
thing on any server sharing a store.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.experiments import registry
from repro.experiments.runner import ExperimentContext
from repro.experiments.scheduler import ScheduleStats, requests_for_context
from repro.experiments.search import search_frontier
from repro.experiments.store import ReportStore
from repro.experiments.surrogate import parse_constraint
from repro.experiments.sweep import collect_result, plan_grid
from repro.server.service import (
    DEFAULT_BATCH_WINDOW,
    EvaluationService,
    ServiceClosed,
)
from repro.tensor.suite import default_suite, small_suite, synth_suite
from repro.tensor.synth import parse_synth_spec


class RequestError(ValueError):
    """A client request that cannot be served (HTTP 400)."""


#: What planning raises on a body it cannot serve — a bad value, an unknown
#: name, a wrong JSON type.  Raised before a stream starts, each is a 400.
_PLANNING_ERRORS = (KeyError, TypeError, ValueError)


def _list_field(body: dict, key: str, default=None) -> Optional[list]:
    """``body[key]`` (or ``default``); a set value must be a JSON list."""
    value = body.get(key, default)
    if value is not None and not isinstance(value, list):
        raise RequestError(f"{key!r} must be a JSON list, got "
                           f"{type(value).__name__}")
    return value


def _suite_from_body(body: dict):
    """Resolve the request's suite: synth specs or a named built-in.

    Corpus matrices (``--matrix``) are CLI-only: they name *server-local*
    files, which a multi-tenant endpoint must not dereference.
    """
    synth = _list_field(body, "synth")
    if synth:
        try:
            return synth_suite([parse_synth_spec(str(spec)) for spec in synth])
        except (KeyError, ValueError) as error:
            raise RequestError(f"bad synth spec: {error}") from error
    name = body.get("suite", "quick")
    suites = {"full": default_suite, "quick": small_suite}
    if not isinstance(name, str) or name not in suites:
        raise RequestError(f"unknown suite {name!r} (known: full, quick)")
    return suites[name]()


def _grid_kwargs_from_body(body: dict) -> dict:
    """The ``plan_grid`` axes of a ``/sweep`` body (CLI-flag defaults)."""
    return {
        "y_values": [float(y) for y in
                     _list_field(body, "y", [0.05, 0.10, 0.22])],
        "glb_scales": [float(s) for s in
                       _list_field(body, "glb_scales", [1.0])],
        "pe_scales": [float(s) for s in _list_field(body, "pe_scales", [1.0])],
        "kernels": [str(k) for k in _list_field(body, "kernels", ["gram"])],
        "workloads": _list_field(body, "workloads"),
    }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-server/1"

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    @property
    def service(self) -> EvaluationService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        data = (json.dumps(payload) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw or b"{}")
        except json.JSONDecodeError as error:
            raise RequestError(f"request body is not JSON: {error}") from error
        if not isinstance(body, dict):
            raise RequestError("request body must be a JSON object")
        return body

    # Chunked NDJSON streaming (HTTP/1.1 framing written by hand: the
    # stdlib server offers no helper, and each event must reach the client
    # as soon as it happens).
    def _begin_stream(self) -> None:
        self._streaming = True
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

    def _stream_event(self, payload: dict) -> None:
        data = (json.dumps(payload) + "\n").encode()
        self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")
        self.wfile.flush()

    def _end_stream(self) -> None:
        self.wfile.write(b"0\r\n\r\n")

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/health":
            self._send_json({"status": "ok"})
        elif self.path == "/stats":
            self._send_json(self.service.stats())
        else:
            self._send_json({"error": f"unknown path {self.path}"}, 404)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/shutdown":
            self._send_json({"status": "draining"})
            # shutdown() blocks until serve_forever returns — hand it to a
            # helper thread so this response can complete first.
            threading.Thread(target=self.server.shutdown,
                             daemon=True).start()
            return
        handlers = {"/sweep": self._handle_sweep, "/run": self._handle_run,
                    "/search": self._handle_search}
        handler = handlers.get(self.path)
        if handler is None:
            self._send_json({"error": f"unknown path {self.path}"}, 404)
            return
        self._streaming = False
        try:
            handler(self._read_body())
        except _PLANNING_ERRORS as error:
            if self._streaming:
                raise
            if isinstance(error, KeyError) and error.args:
                error = error.args[0]  # str(KeyError) adds quotes
            self._send_json({"error": str(error)}, 400)
        except ServiceClosed:
            self._send_json({"error": "server is shutting down"}, 503)

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _handle_sweep(self, body: dict) -> None:
        plan = plan_grid(_suite_from_body(body), **_grid_kwargs_from_body(body))

        store = self.service.store
        if store is not None:
            store.write_manifest(plan.signature,
                                 plan.manifest_payload("in-progress"))

        ticket = self.service.submit(list(plan.requests))
        self._begin_stream()
        self._stream_event({
            "event": "plan",
            "signature": plan.signature,
            "points": len(plan.points),
            "cells": len(plan.requests),
        })
        schedule: Optional[dict] = None
        for event in ticket.events():
            if event["event"] == "done":
                schedule = event["schedule"]
            else:
                self._stream_event(event)
                if event["event"] == "error":
                    self._end_stream()
                    return
        result = collect_result(plan, ScheduleStats(**schedule))
        if store is not None:
            store.write_manifest(plan.signature, plan.manifest_payload(
                "complete", computed=schedule["computed"],
                store_hits=schedule["store_hits"]))
        self._stream_event({"event": "result",
                            "artifact": result.to_jsonable(),
                            "schedule": schedule})
        self._end_stream()

    def _handle_run(self, body: dict) -> None:
        names = _list_field(body, "experiments") or []
        if not names:
            raise RequestError("name at least one experiment "
                               "(\"experiments\": [...])")
        selected = [registry.get(name) for name in names]

        suite_name = body.get("suite", "quick")
        if suite_name not in ("full", "quick"):
            raise RequestError(f"unknown suite {suite_name!r} "
                               "(known: full, quick)")
        kernel = str(body.get("kernel", "gram"))
        y = float(body.get("overbooking_target", 0.10))
        quick = suite_name == "quick"
        params = {
            experiment.name: dict(experiment.quick_params) if quick else {}
            for experiment in selected
        }
        store = self.service.store
        for experiment in selected:
            if experiment.accepts_max_workers:
                params[experiment.name].setdefault(
                    "max_workers", self.service.scheduler.max_workers)
            if (store is not None and experiment.accepts_store
                    and experiment.store_scope == "reports"):
                params[experiment.name].setdefault("store", store)

        context = None
        if any(experiment.needs_context for experiment in selected):
            context = ExperimentContext.for_suite(
                suite_name, overbooking_target=y, kernel=kernel)

        ticket = None
        if context is not None:
            targets = []
            for experiment in selected:
                targets.extend(experiment.evaluation_targets(
                    context, **params[experiment.name]))
            ticket = self.service.submit(
                requests_for_context(context, targets))
        self._begin_stream()
        if ticket is not None:
            for event in ticket.events():
                if event["event"] == "done":
                    continue
                self._stream_event(event)
                if event["event"] == "error":
                    self._end_stream()
                    return
        manifest = []
        for experiment in selected:
            result = experiment.run(
                context if experiment.needs_context else None,
                **params[experiment.name])
            payload = {
                "experiment": experiment.name,
                "artifact": experiment.artifact,
                "title": experiment.title,
                "suite": suite_name if experiment.needs_context else None,
                "kernel": kernel if experiment.needs_context else None,
                "overbooking_target": y if experiment.needs_context else None,
                "params": {key: (str(value.root)
                                 if isinstance(value, ReportStore) else value)
                           for key, value in params[experiment.name].items()},
                "result": experiment.to_json(result),
            }
            self._stream_event({"event": "artifact", "payload": payload})
            manifest.append({"experiment": experiment.name,
                             "artifact": experiment.artifact})
        self._stream_event({"event": "result", "experiments": manifest})
        self._end_stream()

    def _handle_search(self, body: dict) -> None:
        suite = _suite_from_body(body)
        constraints = _list_field(body, "constraints")
        if constraints is not None:
            constraints = [parse_constraint(text) for text in constraints]
        # Runs in this handler thread: generations cannot be coalesced, but
        # sharing the service's store (and the process cache) still dedups
        # against everything the fleet has evaluated.
        result = search_frontier(
            suite,
            kernels=[str(k) for k in _list_field(body, "kernels", ["gram"])],
            y_values=[float(v) for v in
                      _list_field(body, "y", [0.05, 0.10, 0.22])],
            glb_scales=[float(s) for s in
                        _list_field(body, "glb_scales", [0.5, 1.0, 2.0])],
            pe_scales=[float(s) for s in
                       _list_field(body, "pe_scales", [0.5, 1.0, 2.0])],
            max_generations=int(body.get("generations", 3)),
            workloads=_list_field(body, "workloads"),
            max_workers=self.service.scheduler.max_workers,
            store=self.service.store,
            use_surrogate=bool(body.get("surrogate", True)),
            constraints=constraints,
        )
        self._begin_stream()
        self._stream_event({"event": "result",
                            "artifact": result.to_jsonable()})
        self._end_stream()


class ReproServer(ThreadingHTTPServer):
    """Threading HTTP server wired to one shared evaluation service.

    ``daemon_threads = False`` + ``block_on_close = True`` make
    :meth:`server_close` wait for every in-flight handler — the first half
    of graceful shutdown (the second is ``service.close(drain=True)``).
    """

    daemon_threads = False
    block_on_close = True

    def __init__(self, address, service: EvaluationService, *,
                 verbose: bool = False):
        self.service = service
        self.verbose = verbose
        super().__init__(address, _Handler)


def create_server(*, host: str = "127.0.0.1", port: int = 0, store=None,
                  max_workers: Optional[int] = None,
                  batch_window: float = DEFAULT_BATCH_WINDOW,
                  verbose: bool = False) -> ReproServer:
    """Bind a :class:`ReproServer` (``port=0`` picks a free port).

    The caller owns the loop: call ``serve_forever()``, and on the way out
    ``server_close()`` then ``service.close(drain=True)`` — or use
    :func:`serve`, which does all three.
    """
    service = EvaluationService(store=store, max_workers=max_workers,
                                batch_window=batch_window)
    return ReproServer((host, port), service, verbose=verbose)


def serve(server: ReproServer) -> None:
    """Run ``server`` until ``/shutdown`` or KeyboardInterrupt, then drain.

    Shutdown order matters: stop accepting (serve_forever returns), join
    in-flight handlers (``server_close`` — they may still be submitting),
    then drain the service queue (``service.close``).
    """
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.service.close(drain=True)
