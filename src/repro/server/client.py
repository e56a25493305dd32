"""Stdlib client for the evaluation daemon (``http.client``, no deps).

One :class:`ServerClient` per server; each call opens its own connection
(requests are long-lived streams, not chatty RPCs, so keep-alive buys
nothing and per-call connections keep the client thread-safe — the load
generator drives one instance from many threads).

Streamed endpoints return a :class:`StreamOutcome`: the ordered event list,
the terminal artifact, and the pass's schedule stats.  To materialize a
server-side sweep exactly as the CLI would have written it, use
:func:`artifact_bytes` — the artifact dict round-trips through JSON with
key order and float reprs intact, so the bytes match ``sweep.json`` from
``python -m repro sweep`` exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from http.client import HTTPConnection
from typing import List, Optional, Sequence


class ServerProtocolError(RuntimeError):
    """The server answered with an error status or a failed stream."""


def artifact_bytes(artifact: dict) -> bytes:
    """Encode a streamed artifact exactly as the CLI writes it to disk."""
    return (json.dumps(artifact, indent=2) + "\n").encode()


@dataclass
class StreamOutcome:
    """Everything one streamed request produced."""

    events: List[dict] = field(default_factory=list)
    artifact: Optional[dict] = None
    schedule: Optional[dict] = None

    @property
    def cells(self) -> List[dict]:
        return [event for event in self.events if event["event"] == "cell"]

    def cell_sources(self) -> dict:
        """Histogram of where this request's cells were served from."""
        counts: dict = {}
        for cell in self.cells:
            counts[cell["source"]] = counts.get(cell["source"], 0) + 1
        return counts


class ServerClient:
    def __init__(self, host: str = "127.0.0.1", port: int = 8000, *,
                 timeout: float = 300.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> HTTPConnection:
        connection = HTTPConnection(self.host, self.port,
                                    timeout=self.timeout)
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Connection": "close"}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=payload, headers=headers)
        return connection

    def _json(self, method: str, path: str,
              body: Optional[dict] = None) -> dict:
        connection = self._request(method, path, body)
        try:
            response = connection.getresponse()
            payload = json.loads(response.read() or b"{}")
            if response.status >= 400:
                raise ServerProtocolError(
                    f"{method} {path} -> {response.status}: "
                    f"{payload.get('error', payload)}")
            return payload
        finally:
            connection.close()

    def _stream(self, path: str, body: dict) -> StreamOutcome:
        connection = self._request("POST", path, body)
        try:
            response = connection.getresponse()
            if response.status >= 400:
                payload = json.loads(response.read() or b"{}")
                raise ServerProtocolError(
                    f"POST {path} -> {response.status}: "
                    f"{payload.get('error', payload)}")
            outcome = StreamOutcome()
            # http.client undoes the chunked framing; each line is one event.
            for line in response:
                if not line.strip():
                    continue
                event = json.loads(line)
                outcome.events.append(event)
                if event["event"] == "error":
                    raise ServerProtocolError(
                        f"POST {path} failed server-side:\n"
                        f"{event.get('detail', '')}")
                if event["event"] == "result":
                    outcome.artifact = event.get("artifact")
                    outcome.schedule = event.get("schedule")
            if not any(event["event"] == "result"
                       for event in outcome.events):
                raise ServerProtocolError(
                    f"POST {path}: stream ended without a result event")
            return outcome
        finally:
            connection.close()

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        return self._json("GET", "/health")

    def stats(self) -> dict:
        return self._json("GET", "/stats")

    def shutdown(self) -> dict:
        return self._json("POST", "/shutdown")

    # The request endpoints send the keys their caller passes — the request
    # schema's field names (docs/SERVER.md); ``None`` (JSON null) means
    # unset.  Every default, and every check, is the schema's.
    def sweep(self, **request) -> StreamOutcome:
        return self._stream("/sweep", request)

    def run(self, experiments: Sequence[str], **request) -> StreamOutcome:
        return self._stream("/run", {"experiments": experiments, **request})

    def search(self, **request) -> StreamOutcome:
        return self._stream("/search", request)
