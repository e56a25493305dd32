"""Tailors: the Tail-Overbooked Buffer storage idiom (Section 3 of the paper).

A Tailor behaves exactly like a buffet while the tile it holds fits within the
buffer.  The moment the buffer is full and more of the tile still needs to
arrive (i.e. the tile *overbooks* the buffer), the Tailor switches the tail of
the buffer into a FIFO-managed streaming region:

* the first *overwriting fill* (``OWFill``) atomically reclaims the last
  ``fifo_region_size`` slots of the buffet-managed region and writes the first
  bumped element there;
* subsequent ``OWFill`` operations stream further bumped elements through that
  region, replacing the oldest streamed element (FIFO policy);
* reads with an index below the FIFO head keep hitting the buffet-managed
  region unchanged — that resident portion of the tile is what keeps being
  reused;
* reads with an index at or past the FIFO head are served from the FIFO
  region; the Tailor tracks which tile index each streamed slot currently
  holds, which realizes the paper's *FIFO offset* bookkeeping
  (``Index - FIFO offset`` gives the position to access).

The implementation below is a functional model with exact slot tracking: it
returns real data (so correctness can be asserted end to end), counts every
action (so energy can be charged), and exposes the FIFO offset so the
operation-by-operation example of Fig. 5 can be reproduced as a golden test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.buffers.base import BufferFullError, BufferStallError, StorageIdiom
from repro.buffers.credits import CreditChannel
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class TailorsConfig:
    """Static configuration of a Tailor.

    Attributes
    ----------
    capacity:
        Buffer capacity in data words.
    fifo_region_size:
        Number of slots at the tail reserved for streaming once the buffer is
        overbooked.  The paper sizes this region statically so that the
        round-trip latency to the parent can be hidden by double-buffering
        (Section 3.3); it must be smaller than the capacity so that some data
        remains resident for reuse.
    """

    capacity: int
    fifo_region_size: int

    def __post_init__(self) -> None:
        check_positive_int(self.capacity, "capacity")
        check_positive_int(self.fifo_region_size, "fifo_region_size")
        if self.fifo_region_size >= self.capacity:
            raise ValueError(
                "fifo_region_size must be smaller than capacity "
                f"(got {self.fifo_region_size} >= {self.capacity})"
            )

    @property
    def resident_capacity(self) -> int:
        """Slots that keep holding the head of the tile when overbooked."""
        return self.capacity - self.fifo_region_size

    @classmethod
    def for_latency(cls, capacity: int, *, round_trip_latency: int = 2,
                    fill_bandwidth: int = 1) -> "TailorsConfig":
        """Size the FIFO region to hide a parent round-trip latency.

        ``round_trip_latency * fill_bandwidth`` words are in flight while a
        request travels to the parent and back; double-buffering that amount
        keeps the child from starving, which is the static sizing rule the
        paper uses for all workloads.
        """
        fifo = min(capacity - 1, max(1, 2 * round_trip_latency * fill_bandwidth))
        return cls(capacity=capacity, fifo_region_size=fifo)


class Tailors(StorageIdiom):
    """Functional model of a Tail-Overbooked Buffer.

    The buffer has two operating modes:

    * **buffet mode** (not overbooked): :meth:`fill`, :meth:`read`,
      :meth:`update`, :meth:`shrink` behave exactly like
      :class:`repro.buffers.buffet.Buffet`;
    * **overbooked mode** (after the first :meth:`overwriting_fill`): the last
      ``fifo_region_size`` physical slots become the FIFO-managed region;
      reads below the FIFO head are unchanged, reads into the region return
      the streamed element with the requested tile index.
    """

    def __init__(self, config: TailorsConfig, name: str = "tailors"):
        super().__init__(capacity=config.capacity, name=name)
        self.config = config
        self._slots: List[Optional[Any]] = [None] * config.capacity
        # Tile index currently held by each physical slot (None = invalid).
        self._slot_index: List[Optional[int]] = [None] * config.capacity
        self._occupancy = 0
        self._overbooked = False
        # Next FIFO slot (physical offset) an overwriting fill will write, and
        # a monotonically increasing stamp used to find the least recent entry.
        self._fifo_next = 0
        self._fill_stamp = 0
        self._slot_stamp: List[int] = [0] * config.capacity
        # Index → physical slot for the FIFO-managed region, kept in stream
        # (insertion) order: the first key is always the least recently
        # streamed element still resident.  Maintained on every overwriting
        # fill and cleared on shrink/reset, so FIFO reads and the FIFO-offset
        # bookkeeping are O(1) instead of a linear scan of the region.
        self._streamed_slots: Dict[int, int] = {}
        self._credits = CreditChannel(config.capacity)
        # Tile indices ever bumped (streamed) — used by reuse accounting.
        self._streamed_fills = 0

    # ------------------------------------------------------------------ #
    # State and derived quantities
    # ------------------------------------------------------------------ #
    @property
    def occupancy(self) -> int:
        return self._occupancy

    @property
    def is_overbooked(self) -> bool:
        """Whether the Tailor has switched to split buffet/FIFO management."""
        return self._overbooked

    @property
    def fifo_head(self) -> int:
        """Physical offset where the FIFO-managed region starts.

        Equals the size of the buffet-managed region; only meaningful once the
        buffer is overbooked (before that the whole buffer is buffet-managed).
        """
        return self.config.resident_capacity

    @property
    def fifo_region_size(self) -> int:
        return self.config.fifo_region_size

    @property
    def credits(self) -> CreditChannel:
        """Credit channel toward the parent level."""
        return self._credits

    @property
    def streamed_fills(self) -> int:
        """Number of overwriting fills performed (bumped words streamed in)."""
        return self._streamed_fills

    @property
    def fifo_offset(self) -> int:
        """The paper's FIFO offset bookkeeping value.

        Defined as the difference between the tile index of the *least
        recently streamed* element currently in the FIFO-managed region and
        the FIFO head.  ``Index - fifo_offset`` then gives the queue position
        to access, which is how reads into the FIFO region are served without
        changing the buffet read semantics (Section 3.3.2).  Returns 0 when
        the buffer is not overbooked.
        """
        if not self._overbooked or not self._streamed_slots:
            return 0
        # Streaming writes evict in insertion order, so the first key of the
        # index→slot map is the least recently streamed resident element.
        oldest_index = next(iter(self._streamed_slots))
        return oldest_index - self.fifo_head

    def reset(self) -> None:
        self._slots = [None] * self.capacity
        self._slot_index = [None] * self.capacity
        self._slot_stamp = [0] * self.capacity
        self._streamed_slots = {}
        self._occupancy = 0
        self._overbooked = False
        self._fifo_next = 0
        self._fill_stamp = 0
        self._credits.reset()

    def contents(self) -> List[Any]:
        """Data currently valid, in physical-slot order (``None`` = invalid)."""
        return list(self._slots)

    # ------------------------------------------------------------------ #
    # Buffet-compatible operations
    # ------------------------------------------------------------------ #
    def can_fill(self) -> bool:
        """Whether a (non-overwriting) fill can be accepted."""
        return not self.is_full

    def fill(self, value: Any) -> None:
        """Buffet fill: append ``value`` at the tail of the queue.

        Only legal while the buffer is not full and not overbooked — once
        streaming has begun, new data must arrive through
        :meth:`overwriting_fill` until a shrink drains the tile
        (Section 3.3.2, "Maintaining support for Fill").
        """
        if self._overbooked:
            raise BufferFullError(
                f"{self.name}: plain fill while overbooked; use overwriting_fill"
            )
        if self.is_full:
            raise BufferFullError(f"{self.name}: fill into a full buffer")
        self._credits.consume(1)
        offset = self._occupancy
        self._slots[offset] = value
        self._slot_index[offset] = offset
        self._fill_stamp += 1
        self._slot_stamp[offset] = self._fill_stamp
        self._occupancy += 1
        self.counters.fills += 1

    def overwriting_fill(self, value: Any, index: int | None = None) -> None:
        """Stream one bumped element of the tile through the FIFO region.

        Parameters
        ----------
        value:
            The data word being streamed.
        index:
            The tile index this word corresponds to.  When omitted, the word
            is assumed to be the next sequential element of the tile (one past
            the largest index seen so far), which matches the scan access
            pattern of the ExTensor dataflow.

        The first overwriting fill flips the buffer into overbooked mode:
        the last ``fifo_region_size`` slots of the buffet-managed region are
        invalidated (their data will be re-streamed later if needed) and the
        streamed word takes the first of them.
        """
        if not self.is_full and not self._overbooked:
            raise BufferFullError(
                f"{self.name}: overwriting fill is only legal when the buffer is full "
                "(streaming must not race with plain fills)"
            )
        if index is None:
            highest = max((i for i in self._slot_index if i is not None), default=-1)
            index = highest + 1

        if not self._overbooked:
            # Initial overwriting fill: carve the FIFO region out of the tail
            # of the buffet-managed region.
            self._overbooked = True
            for offset in range(self.fifo_head, self.capacity):
                self._slots[offset] = None
                self._slot_index[offset] = None
            self._streamed_slots = {}
            self._fifo_next = self.fifo_head

        offset = self._fifo_next
        evicted = self._slot_index[offset]
        if evicted is not None and self._streamed_slots.get(evicted) == offset:
            del self._streamed_slots[evicted]
        self._streamed_slots.pop(index, None)
        self._streamed_slots[index] = offset
        self._slots[offset] = value
        self._slot_index[offset] = index
        self._fill_stamp += 1
        self._slot_stamp[offset] = self._fill_stamp
        self._fifo_next += 1
        if self._fifo_next >= self.capacity:
            self._fifo_next = self.fifo_head
        self.counters.overwriting_fills += 1
        self._streamed_fills += 1

    def read(self, index: int) -> Any:
        """Read the element of the current tile with tile index ``index``.

        Reads below the FIFO head (or any read while not overbooked) behave
        exactly like buffet reads.  Reads at or past the FIFO head are served
        from the FIFO-managed region; if the requested element is not
        currently streamed in, the read stalls
        (:class:`~repro.buffers.base.BufferStallError`), signalling that the
        driver must issue the corresponding :meth:`overwriting_fill` first.
        """
        if index < 0:
            raise IndexError(f"{self.name}: negative index {index}")
        if not self._overbooked or index < self.fifo_head:
            if index >= self._occupancy:
                raise BufferStallError(
                    f"{self.name}: read of index {index} but occupancy is {self._occupancy}"
                )
            self.counters.reads += 1
            return self._slots[index]

        offset = self._find_streamed(index)
        if offset is None:
            raise BufferStallError(
                f"{self.name}: tile index {index} is not resident in the FIFO region; "
                "stream it with overwriting_fill first"
            )
        self.counters.reads += 1
        return self._slots[offset]

    def offset_of(self, index: int) -> int:
        """Physical buffer offset that currently holds tile index ``index``.

        Used by the Fig. 5 golden test to check the index→offset translation;
        raises :class:`BufferStallError` when the element is not resident.
        """
        if not self._overbooked or index < self.fifo_head:
            if index >= self._occupancy:
                raise BufferStallError(f"{self.name}: index {index} not resident")
            return index
        offset = self._find_streamed(index)
        if offset is None:
            raise BufferStallError(f"{self.name}: index {index} not resident")
        return offset

    def update(self, index: int, value: Any) -> None:
        """Overwrite the element with tile index ``index`` (must be resident)."""
        offset = self.offset_of(index)
        self._slots[offset] = value
        self.counters.updates += 1

    def shrink(self, num: int = 1) -> None:
        """Free ``num`` elements from the head of the buffer.

        A shrink ends the current tile's residency of those slots and releases
        credits to the parent.  Per Section 3.3.2 a shrink also terminates the
        overbooked episode: the next tile starts with a clean buffet-managed
        buffer (backfill of any still-needed data arrives as ordinary fills).
        """
        check_positive_int(num, "num")
        if num > self._occupancy:
            raise BufferStallError(
                f"{self.name}: shrink of {num} but occupancy is {self._occupancy}"
            )
        remaining = [
            (self._slot_index[o], self._slots[o], self._slot_stamp[o])
            for o in range(self.capacity)
            if self._slot_index[o] is not None and self._slot_index[o] >= num
        ]
        if remaining:
            self._slots = [None] * self.capacity
            self._slot_index = [None] * self.capacity
            self._slot_stamp = [0] * self.capacity
            # Re-base the surviving elements to their new indices at the head.
            remaining.sort(key=lambda item: item[0])
            for new_offset, (old_index, value, stamp) in enumerate(remaining):
                if new_offset >= self.capacity:
                    break
                self._slots[new_offset] = value
                self._slot_index[new_offset] = old_index - num
                self._slot_stamp[new_offset] = stamp
            self._occupancy = min(len(remaining), self.capacity)
        else:
            # Nothing survives: invalidate the occupied slots in place rather
            # than allocating three fresh full-capacity arrays.
            for offset in range(self.capacity):
                if self._slot_index[offset] is not None:
                    self._slots[offset] = None
                    self._slot_index[offset] = None
                    self._slot_stamp[offset] = 0
            self._occupancy = 0
        self._streamed_slots = {}
        self._overbooked = False
        self._fifo_next = 0
        self._credits.release(min(num, self._credits.initial_credits - self._credits.available))
        self.counters.shrinks += num

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _find_streamed(self, index: int) -> Optional[int]:
        return self._streamed_slots.get(index)
