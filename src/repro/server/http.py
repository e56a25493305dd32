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
    rate), the report memo's size, capacity and evictions, and the shared
    store's session counters.

``GET /health``
    Liveness probe.

``POST /shutdown``
    Graceful stop: responds immediately, then the server stops accepting
    connections, finishes every in-flight request (handler threads are
    non-daemon and ``server_close`` joins them), and drains the service
    queue.  No orphaned leases, tickets, or shared-memory segments.

Bodies decode into the request schema (:mod:`repro.experiments.schema`),
the same dataclasses the CLI builds, so a body means exactly what the
matching CLI flags mean.  Requests are deliberately *identity-only* (suite
names, grid axes, synth specs) — never server-local paths — so any client's
request means the same thing on any server sharing a store.
"""

from __future__ import annotations

import json
import threading
from dataclasses import fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.experiments.schema import (
    GridRequest,
    RequestError,
    RunRequest,
    SearchRequest,
    artifact_payload,
    plan_run,
)
from repro.experiments.scheduler import ScheduleStats
from repro.experiments.search import search_frontier
from repro.experiments.sweep import collect_result, plan_grid
from repro.server.service import EvaluationService, ServiceClosed

#: The request each streamed endpoint decodes its body into.
REQUESTS = {"/sweep": GridRequest, "/run": RunRequest,
            "/search": SearchRequest}

#: The one default that differs from the CLI: a body naming no suite gets
#: the quick suite (the CLI's ``run`` and ``sweep`` default to ``full``).
DAEMON_DEFAULT_SUITE = "quick"

#: Suite sources that name server-local files: CLI-only, refused here.
SERVER_LOCAL_FIELDS = frozenset({"matrix", "corpus", "corpus_manifest"})

#: Largest request body the daemon reads; a longer one is answered 413.
MAX_BODY_BYTES = 1 << 20

#: Largest ``|y| · |glb_scales| · |pe_scales| · |kernels|`` a ``/sweep`` or
#: ``/search`` may name, and the most ``synth`` specs a body may list; more is
#: answered 413.  Larger grids run through the CLI, sharded if need be.
MAX_GRID_POINTS = 4096
MAX_SYNTH_SPECS = 64


class PayloadTooLarge(RequestError):
    """A body over :data:`MAX_BODY_BYTES`, :data:`MAX_GRID_POINTS` or
    :data:`MAX_SYNTH_SPECS` (HTTP 413)."""

    status = 413


def decode_request(path: str, body: dict):
    """The schema request a JSON object ``body`` POSTed to ``path`` names.

    Only JSON types and the daemon's size limits are checked here — a list
    field must be a list (or ``null``, meaning unset) and a boolean a JSON
    bool — and unknown keys and server-local suite sources are refused.
    The schema's ``__post_init__`` validates every value; everything raises
    :class:`RequestError`.
    """
    cls = REQUESTS[path]
    known = {spec.name: spec for spec in fields(cls)}
    values = {"suite": DAEMON_DEFAULT_SUITE}
    for key, value in body.items():
        spec = known.get(key)
        if spec is None:
            accepted = sorted(set(known) - SERVER_LOCAL_FIELDS)
            raise RequestError(f"unknown key {key!r} for {path}; "
                               f"known: {', '.join(accepted)}")
        if key in SERVER_LOCAL_FIELDS:
            raise RequestError(f"{key!r} names server-local files, which "
                               f"the daemon does not read; use the CLI")
        if value is None:
            continue
        if "Tuple" in str(spec.type) and not isinstance(value, list):
            raise RequestError(f"{key!r} must be a JSON list, got "
                               f"{type(value).__name__}")
        if isinstance(spec.default, bool) and not isinstance(value, bool):
            raise RequestError(f"{key!r} must be a JSON boolean, got "
                               f"{type(value).__name__}")
        values[key] = value
    if len(values.get("synth", ())) > MAX_SYNTH_SPECS:
        raise PayloadTooLarge(f"{len(values['synth'])} synth specs exceed "
                              f"the daemon's limit of {MAX_SYNTH_SPECS}")
    request = cls(**values)
    if isinstance(request, GridRequest):
        points = (len(request.y) * len(request.glb_scales)
                  * len(request.pe_scales) * len(request.kernels))
        if points > MAX_GRID_POINTS:
            raise PayloadTooLarge(
                f"a grid of {points} points (y × glb_scales × pe_scales × "
                f"kernels) exceeds the daemon's limit of {MAX_GRID_POINTS}; "
                f"run larger grids with the CLI")
    return request


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
        text = self.headers.get("Content-Length") or "0"
        try:
            length = int(text)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry another
            # request after the answer.
            self.close_connection = True
            if length > MAX_BODY_BYTES:
                raise PayloadTooLarge(f"request body of {length} bytes "
                                      f"exceeds {MAX_BODY_BYTES}")
            raise RequestError(f"bad Content-Length {text!r}")
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
            handler(decode_request(self.path, self._read_body()))
        except ValueError as error:
            # A request the schema refuses (or planning cannot serve) is a
            # 400 before any stream starts; after that it is a server fault.
            if self._streaming:
                raise
            self._send_json({"error": str(error)},
                            getattr(error, "status", 400))
        except ServiceClosed:
            self._send_json({"error": "server is shutting down"}, 503)

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _handle_sweep(self, request: GridRequest) -> None:
        plan = plan_grid(request.build(), **request.grid_args())

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
        result = collect_result(plan, ScheduleStats(**schedule),
                                ticket.reports)
        if store is not None:
            store.write_manifest(plan.signature, plan.manifest_payload(
                "complete", computed=schedule["computed"],
                store_hits=schedule["store_hits"]))
        self._stream_event({"event": "result",
                            "artifact": result.to_jsonable(),
                            "schedule": schedule})
        self._end_stream()

    def _handle_run(self, request: RunRequest) -> None:
        plan = plan_run(request, scheduler=self.service.scheduler)
        ticket = None
        if plan.context is not None:
            ticket = self.service.submit(plan.evaluation_requests())
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
        for experiment in plan.experiments:
            payload = artifact_payload(plan, experiment, plan.run(experiment))
            self._stream_event({"event": "artifact", "payload": payload})
            manifest.append({"experiment": experiment.name,
                             "artifact": experiment.artifact})
        self._stream_event({"event": "result", "experiments": manifest})
        self._end_stream()

    def _handle_search(self, request: SearchRequest) -> None:
        # Runs in this handler thread: generations cannot be coalesced, but
        # the service's scheduler (its store) and the process cache still
        # dedup against everything the fleet has evaluated.
        result = search_frontier(
            request.build(),
            **request.search_args(),
            scheduler=self.service.scheduler,
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
                  verbose: bool = False) -> ReproServer:
    """Bind a :class:`ReproServer` (``port=0`` picks a free port).

    The caller owns the loop: call ``serve_forever()``, and on the way out
    ``server_close()`` then ``service.close(drain=True)`` — or use
    :func:`serve`, which does all three.
    """
    service = EvaluationService(store=store, max_workers=max_workers)
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
