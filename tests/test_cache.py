"""Set-associative cache model: LRU, eviction, dirty bits, stats."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import EMPTY_SET, Cache
from repro.sim.checkpoint import _cache_dump


def small_cache():
    # 4 sets x 2 ways x 64B lines.
    return Cache(512, 2, 64, name="tiny")


class TestUntouchedSets:
    def test_fresh_sets_are_the_shared_empty_set(self):
        cache = Cache(48 * 1024, 12, 64)
        assert all(cache_set is EMPTY_SET for cache_set in cache.sets)

    def test_direct_write_raises(self):
        cache = small_cache()
        for write in (lambda s: s.__setitem__(5, False),
                      lambda s: s.update({5: False}),
                      lambda s: s.setdefault(5, False)):
            with pytest.raises(TypeError):
                write(cache.sets[1])
        assert not EMPTY_SET

    def test_fill_makes_only_its_own_set(self):
        cache = small_cache()
        cache.fill(5)
        assert cache.sets[1] == {5: False}
        assert [s is EMPTY_SET for s in cache.sets] == [True, False,
                                                         True, True]
        assert cache.lookup(5) and not cache.lookup(4)


class TestGeometry:
    def test_parameters(self):
        cache = Cache(48 * 1024, 12, 64)
        assert cache.num_sets == 64
        assert cache.line_shift == 6

    def test_bad_divisibility(self):
        with pytest.raises(ValueError):
            Cache(1000, 3, 64)

    def test_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            Cache(3 * 64 * 2, 2, 64)  # 3 sets

    def test_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            Cache(512, 2, 48)

    def test_line_addr(self):
        """Callers form line addresses as ``addr >> line_shift``."""
        cache = small_cache()
        assert 0 >> cache.line_shift == 0
        assert 63 >> cache.line_shift == 0
        assert 64 >> cache.line_shift == 1


class TestLookupFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(5)
        cache.fill(5)
        assert cache.lookup(5)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_contains_no_stats(self):
        cache = small_cache()
        cache.fill(5)
        assert cache.contains(5)
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_lru_eviction(self):
        cache = small_cache()  # 2 ways, set = line % 4
        cache.fill(0)
        cache.fill(4)
        cache.fill(8)  # evicts line 0 (LRU)
        assert not cache.contains(0)
        assert cache.contains(4) and cache.contains(8)

    def test_lookup_refreshes_lru(self):
        cache = small_cache()
        cache.fill(0)
        cache.fill(4)
        cache.lookup(0)   # 0 becomes MRU
        cache.fill(8)     # evicts 4
        assert cache.contains(0)
        assert not cache.contains(4)

    def test_fill_returns_victim(self):
        cache = small_cache()
        cache.fill(0, dirty=True)
        cache.fill(4)
        victim = cache.fill(8)
        assert victim == (0, True)

    def test_refill_merges_dirty(self):
        cache = small_cache()
        cache.fill(0, dirty=True)
        cache.fill(0, dirty=False)
        cache.fill(4)
        victim = cache.fill(8)
        assert victim == (0, True)

    def test_mark_dirty(self):
        cache = small_cache()
        cache.fill(0)
        assert cache.mark_dirty(0)
        assert not cache.mark_dirty(99)

    def test_occupancy(self):
        """Eight lines fill the 4 sets x 2 ways without an eviction."""
        cache = small_cache()
        for line in range(8):
            cache.fill(line)
        assert sum(len(lines) for lines in cache.sets) == 8
        assert cache.stats.evictions == 0
        cache.fill(8)
        assert sum(len(lines) for lines in cache.sets) == 8
        assert cache.stats.evictions == 1

    def test_prefetch_fill_counted(self):
        cache = small_cache()
        cache.fill(1, is_prefetch=True)
        assert cache.stats.prefetch_fills == 1


class TestStats:
    def test_hit_rate(self):
        cache = small_cache()
        cache.fill(0)
        cache.lookup(0)
        cache.lookup(1)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_empty_hit_rate(self):
        stats = small_cache().stats
        assert (stats.hits, stats.misses) == (0, 0)

    def test_as_dict_keys(self):
        """A checkpoint carries every counter of a cache level."""
        cache = small_cache()
        cache.fill(0)
        cache.lookup(0)
        cache.fill(1, is_prefetch=True)
        assert _cache_dump(cache)["stats"] == [1, 0, 0, 2, 1]


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 30)), max_size=200))
def test_cache_matches_reference_lru(ops):
    """The cache must behave exactly like a per-set LRU list reference."""
    cache = Cache(512, 2, 64)
    reference = {s: [] for s in range(4)}  # set -> MRU-last list of lines

    def ref_touch(line):
        bucket = reference[line % 4]
        if line in bucket:
            bucket.remove(line)
            bucket.append(line)
            return True
        return False

    def ref_fill(line):
        bucket = reference[line % 4]
        if line in bucket:
            bucket.remove(line)
        elif len(bucket) >= 2:
            bucket.pop(0)
        bucket.append(line)

    for is_fill, line in ops:
        if is_fill:
            cache.fill(line)
            ref_fill(line)
        else:
            assert cache.lookup(line) == ref_touch(line)
    for s in range(4):
        resident = sorted(l for l in range(0, 31) if cache.contains(l) and l % 4 == s)
        assert resident == sorted(reference[s])
