"""Common machinery for storage-idiom models: counters, exceptions, base class."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.utils.validation import check_positive_int


class BufferError(Exception):
    """Base class for storage-idiom errors."""


class BufferFullError(BufferError):
    """Raised when a fill is attempted on a buffer with no free capacity.

    In hardware the producer would simply stall (credits prevent the push);
    the functional model surfaces the condition as an exception so that an
    incorrectly-sequenced driver fails loudly instead of silently dropping
    data.
    """


class BufferStallError(BufferError):
    """Raised when a read references data that has not been filled yet.

    The hardware semantics are a stall until the data arrives; the functional
    model raises so that tests can assert on the condition.
    """


@dataclass
class AccessCounters:
    """Per-buffer action counts, the quantities the energy model charges for."""

    fills: int = 0
    reads: int = 0
    updates: int = 0
    shrinks: int = 0
    overwriting_fills: int = 0
    evictions: int = 0
    misses: int = 0

    def total_writes(self) -> int:
        """All actions that write the storage array."""
        return self.fills + self.updates + self.overwriting_fills

    def total_accesses(self) -> int:
        """All data-array accesses (reads + writes)."""
        return self.total_writes() + self.reads

    def merged(self, other: "AccessCounters") -> "AccessCounters":
        """Element-wise sum of two counter sets."""
        return AccessCounters(
            fills=self.fills + other.fills,
            reads=self.reads + other.reads,
            updates=self.updates + other.updates,
            shrinks=self.shrinks + other.shrinks,
            overwriting_fills=self.overwriting_fills + other.overwriting_fills,
            evictions=self.evictions + other.evictions,
            misses=self.misses + other.misses,
        )

    def as_dict(self) -> dict:
        return {
            "fills": self.fills,
            "reads": self.reads,
            "updates": self.updates,
            "shrinks": self.shrinks,
            "overwriting_fills": self.overwriting_fills,
            "evictions": self.evictions,
            "misses": self.misses,
        }


@dataclass
class StorageIdiom(ABC):
    """Base class for buffer models.

    Every idiom has a fixed ``capacity`` in data words and an
    :class:`AccessCounters` instance tracking the actions performed on it.
    Sub-classes implement the storage-management policy.
    """

    capacity: int
    name: str = "buffer"
    counters: AccessCounters = field(default_factory=AccessCounters)

    def __post_init__(self) -> None:
        check_positive_int(self.capacity, "capacity")

    @property
    @abstractmethod
    def occupancy(self) -> int:
        """Number of valid data words currently held."""

    @property
    def is_full(self) -> bool:
        return self.occupancy >= self.capacity

    @property
    def utilization(self) -> float:
        """Instantaneous buffer utilization (occupancy / capacity)."""
        return self.occupancy / self.capacity

    @abstractmethod
    def reset(self) -> None:
        """Drop all contents (counters are preserved)."""

    def describe(self) -> dict[str, Any]:
        """Debug/report snapshot."""
        return {
            "name": self.name,
            "capacity": self.capacity,
            "occupancy": self.occupancy,
            "counters": self.counters.as_dict(),
        }
