"""Evaluation-as-a-service: a resident daemon over the scheduler/store stack.

Three layers, importable separately:

* :mod:`repro.server.service` — :class:`EvaluationService`, the coalescing
  loop that turns many clients' requests into shared scheduler passes.
* :mod:`repro.server.http` — the stdlib HTTP front end
  (:func:`create_server` / :func:`serve`) streaming chunked JSON lines.
* :mod:`repro.server.client` — the stdlib client (:class:`ServerClient`)
  used by tests, CI and the repository benchmark.
"""

from repro.server.client import ServerClient, StreamOutcome, artifact_bytes
from repro.server.http import ReproServer, create_server, serve
from repro.server.service import (
    DEFAULT_BATCH_WINDOW,
    EvaluationService,
    ServiceClosed,
    ServiceError,
    Ticket,
)

__all__ = [
    "DEFAULT_BATCH_WINDOW",
    "EvaluationService",
    "ReproServer",
    "ServerClient",
    "ServiceClosed",
    "ServiceError",
    "StreamOutcome",
    "Ticket",
    "artifact_bytes",
    "create_server",
    "serve",
]
