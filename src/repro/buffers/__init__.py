"""Storage idioms for explicit decoupled data orchestration (EDDO).

Section 2.3 and 3.2 of the paper survey the buffering idioms a sparse tensor
accelerator can use:

* **FIFOs** — cheap, composable, but restricted to first-in/first-out access;
* **buffets** — a queue-managed buffer supporting Fill / Read / Update /
  Shrink with credit-based synchronization toward the parent level;
* **caches** — tag-matched, associativity-managed buffers typical of CPUs/GPUs
  (high overhead for accelerators, but they tolerate overflowing working
  sets, which is the behaviour overbooking wants without the cost).

This subpackage implements buffets and caches as functional models that
count every access, so the reuse experiments can charge traffic and energy to
them.  The paper's contribution — Tailors — extends the
buffet idiom and lives in :mod:`repro.core.tailors`.
"""

from repro.buffers.base import (
    AccessCounters,
    BufferError,
    BufferFullError,
    BufferStallError,
    StorageIdiom,
)
from repro.buffers.credits import CreditChannel
from repro.buffers.buffet import Buffet
from repro.buffers.cache import LruCache

__all__ = [
    "AccessCounters",
    "BufferError",
    "BufferFullError",
    "BufferStallError",
    "StorageIdiom",
    "CreditChannel",
    "Buffet",
    "LruCache",
]
