"""A dict that keeps only its most recently used entries.

The evaluation caches (the report memo, each evaluator's per-``y`` tiling
state, each matrix's ``memo``) are pure functions of their keys, so dropping
an entry costs a recomputation, never a wrong answer.  :class:`LRU` bounds
them by entry count: a read through ``[]`` or :meth:`LRU.get` refreshes the
entry, and an insert beyond ``capacity`` evicts the least recently used one.

There is no lock, for the reason :class:`~repro.experiments.runner.
EvaluationCache` gives (pool workers fork while service threads may be
mid-call).  A key evicted by another thread between a read and its refresh
reads as a miss.
"""

from __future__ import annotations

from collections import OrderedDict


class LRU(OrderedDict):
    """An :class:`~collections.OrderedDict` of at most ``capacity``
    entries, least recently used first.  ``in`` does not refresh an entry;
    ``evictions`` counts the entries dropped to make room."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = int(capacity)
        self.evictions = 0

    def __getitem__(self, key):
        self.move_to_end(key)  # KeyError on a miss, as dict raises
        return super().__getitem__(key)

    def get(self, key, default=None):
        # Every cache lookup comes here: keep it to two C calls.
        try:
            self.move_to_end(key)
        except KeyError:
            return default
        return dict.get(self, key, default)

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        try:
            self.move_to_end(key)
        except KeyError:  # evicted by another thread meanwhile
            pass
        while len(self) > self.capacity:
            try:
                self.popitem(last=False)
            except KeyError:  # another thread emptied it meanwhile
                break
            self.evictions += 1
