"""The bounded LRU dict behind the evaluation caches."""

from repro.utils.lru import LRU


def _filled(capacity, keys):
    lru = LRU(capacity)
    for key in keys:
        lru[key] = key * 10
    return lru


def test_keeps_the_most_recent_entries_and_counts_evictions():
    lru = _filled(3, range(5))
    assert list(lru) == [2, 3, 4]
    assert lru.evictions == 2


def test_reads_refresh_recency_but_membership_does_not():
    lru = _filled(3, range(3))
    assert lru.get(0) == 0
    assert lru[1] == 10
    assert 2 in lru
    lru[3] = 30
    assert list(lru) == [0, 1, 3]


def test_overwrite_refreshes_without_evicting():
    lru = _filled(2, range(2))
    lru[0] = 7
    assert list(lru.items()) == [(1, 10), (0, 7)]
    assert lru.evictions == 0


def test_misses_and_setdefault():
    lru = _filled(2, range(2))
    assert lru.get(9) is None and lru.get(9, "x") == "x"
    assert lru.setdefault(5, 50) == 50
    assert list(lru) == [1, 5] and lru.evictions == 1
