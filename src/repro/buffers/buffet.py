"""The buffet storage idiom (Pellauer et al., ASPLOS 2019), as used by the paper.

A buffet manages its storage as a queue but allows *random access* to any data
currently held, through four operations (Section 3.2 of the paper):

* ``Fill(data)`` — append new data at the tail of the queue;
* ``Read(index)`` — read the element ``index`` positions past the head;
* ``Update(index, data)`` — overwrite the element at ``index``;
* ``Shrink(num)`` — free ``num`` elements from the head.

Synchronization toward the parent uses credits: fills may only be pushed when
free slots exist, and every shrink releases credits.

The model below is a functional simulator: it stores real values (so the
accelerator pipeline can be checked end-to-end for correctness), counts every
action (so the energy model can charge for them), and enforces the idiom's
restrictions by raising :class:`BufferFullError` / :class:`BufferStallError`
when a driver violates them.

The crucial limitation motivating Tailors is visible directly in the API:
data can only leave through ``shrink`` — i.e. from the *head*, oldest first —
so when a tile is larger than the buffer the only way to make room for the
tail of the tile is to throw away data that is still inside the reuse window.
:meth:`Buffet.index_to_offset` documents the index/offset equivalence that
Tailors later has to break.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.buffers.base import BufferFullError, BufferStallError, StorageIdiom
from repro.buffers.credits import CreditChannel
from repro.utils.validation import check_non_negative_int, check_positive_int


class Buffet(StorageIdiom):
    """Functional model of a buffet.

    The storage is a rolling buffer of ``capacity`` slots with a head pointer
    and an occupancy counter; index ``i`` (relative to the head of the queue)
    maps to physical slot ``(head + i) % capacity``.
    """

    def __init__(self, capacity: int, name: str = "buffet"):
        super().__init__(capacity=capacity, name=name)
        self._slots: List[Optional[Any]] = [None] * capacity
        self._head = 0
        self._occupancy = 0
        self._credits = CreditChannel(capacity)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def occupancy(self) -> int:
        return self._occupancy

    @property
    def credits(self) -> CreditChannel:
        """The credit channel toward the parent level."""
        return self._credits

    def reset(self) -> None:
        self._slots = [None] * self.capacity
        self._head = 0
        self._occupancy = 0
        self._credits.reset()

    def contents(self) -> List[Any]:
        """Valid data in queue order, head first (for tests and traces)."""
        return [self._slots[(self._head + i) % self.capacity] for i in range(self._occupancy)]

    def index_to_offset(self, index: int) -> int:
        """Physical slot that queue index ``index`` occupies.

        For a buffet the *index* (position within the current tile/window) and
        the *offset* (position within the buffer) coincide up to the rolling
        head — this identity is what Tailors must generalize once the buffer
        splits into buffet- and FIFO-managed regions.
        """
        check_non_negative_int(index, "index")
        if index >= self.capacity:
            raise IndexError(
                f"{self.name}: index {index} exceeds the buffer capacity {self.capacity}"
            )
        return (self._head + index) % self.capacity

    # ------------------------------------------------------------------ #
    # Buffet operations
    # ------------------------------------------------------------------ #
    def can_fill(self) -> bool:
        """Whether the parent holds a credit for another fill."""
        return not self.is_full

    def fill(self, value: Any) -> None:
        """Append ``value`` at the tail of the queue.

        Raises :class:`BufferFullError` when no free slot exists — in hardware
        the credit channel would have prevented the push.
        """
        if self.is_full:
            raise BufferFullError(f"{self.name}: fill into a full buffet")
        self._credits.consume(1)
        slot = (self._head + self._occupancy) % self.capacity
        self._slots[slot] = value
        self._occupancy += 1
        self.counters.fills += 1

    def read(self, index: int) -> Any:
        """Read the element ``index`` positions past the head of the queue.

        Raises :class:`BufferStallError` if the element has not been filled
        yet (the hardware would stall until the fill arrives).
        """
        check_non_negative_int(index, "index")
        if index >= self._occupancy:
            raise BufferStallError(
                f"{self.name}: read of index {index} but occupancy is {self._occupancy}"
            )
        self.counters.reads += 1
        return self._slots[(self._head + index) % self.capacity]

    def update(self, index: int, value: Any) -> None:
        """Overwrite the element at ``index`` with ``value``."""
        check_non_negative_int(index, "index")
        if index >= self._occupancy:
            raise BufferStallError(
                f"{self.name}: update of index {index} but occupancy is {self._occupancy}"
            )
        self._slots[(self._head + index) % self.capacity] = value
        self.counters.updates += 1

    def shrink(self, num: int = 1) -> None:
        """Free ``num`` elements from the head of the queue, releasing credits."""
        check_positive_int(num, "num")
        if num > self._occupancy:
            raise BufferStallError(
                f"{self.name}: shrink of {num} but occupancy is {self._occupancy}"
            )
        for i in range(num):
            self._slots[(self._head + i) % self.capacity] = None
        self._head = (self._head + num) % self.capacity
        self._occupancy -= num
        self._credits.release(num)
        self.counters.shrinks += num
