"""Tests for the set-associative cache model (repro.memory.cache)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import Cache


def small_cache(n_lines=8, assoc=2, line_bytes=64):
    return Cache(n_lines, assoc, line_bytes, name="t")


class TestGeometry:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Cache(0, 1, 64)
        with pytest.raises(ValueError):
            Cache(7, 2, 64)
        with pytest.raises(ValueError):
            Cache(8, 2, 48)

    def test_set_count(self):
        c = small_cache(16, 4)
        assert c.n_sets == 4

    def test_line_of(self):
        c = small_cache()
        assert c.line_of(0x10FF) == 0x10C0


class TestProbeFill:
    def test_miss_then_hit(self):
        c = small_cache()
        assert not c.probe(0x1000).hit
        c.fill(0x1000)
        access = c.probe(0x1000)
        assert access.hit
        assert c.hits == 1 and c.misses == 1

    def test_same_line_offsets_hit(self):
        c = small_cache()
        c.fill(0x1000)
        assert c.probe(0x103C).hit

    def test_tag_probe_counting(self):
        c = small_cache()
        c.probe(0x1000)
        c.probe(0x1000, count_tag_access=False)
        assert c.tag_probes == 1

    def test_contains_no_side_effects(self):
        c = small_cache()
        c.fill(0x1000)
        before = (c.hits, c.misses, c.tag_probes)
        assert c.contains(0x1000)
        assert not c.contains(0x9000)
        assert (c.hits, c.misses, c.tag_probes) == before

    def test_fill_is_idempotent_on_presence(self):
        c = small_cache()
        c.fill(0x1000)
        result = c.fill(0x1000)
        assert result.hit
        assert c.occupancy == 1


class TestLRU:
    def test_eviction_order(self):
        c = small_cache(n_lines=4, assoc=2)  # 2 sets
        # Same set: lines whose index maps to set 0.
        step = c.n_sets * 64
        a, b, d = 0x0, step, 2 * step
        c.fill(a)
        c.fill(b)
        access = c.fill(d)  # evicts LRU = a
        assert access.victim == a
        assert not c.contains(a)
        assert c.contains(b) and c.contains(d)

    def test_probe_refreshes_lru(self):
        c = small_cache(n_lines=4, assoc=2)
        step = c.n_sets * 64
        a, b, d = 0x0, step, 2 * step
        c.fill(a)
        c.fill(b)
        c.probe(a)  # a becomes MRU
        access = c.fill(d)
        assert access.victim == b

    def test_eviction_counter(self):
        c = small_cache(n_lines=4, assoc=1)
        step = c.n_sets * 64
        c.fill(0)
        c.fill(step)
        assert c.evictions == 1


class TestInvalidate:
    def test_invalidate_present(self):
        c = small_cache()
        c.fill(0x1000)
        assert c.invalidate(0x1000)
        assert not c.contains(0x1000)

    def test_invalidate_absent(self):
        assert not small_cache().invalidate(0x1000)


class TestStats:
    def test_reset(self):
        c = small_cache()
        c.probe(0x1000)
        c.reset_stats()
        assert c.tag_probes == 0 and c.misses == 0

    def test_resident_lines(self):
        c = small_cache()
        c.fill(0x1000)
        c.fill(0x2000)
        assert c.resident_lines() == {0x1000, 0x2000}


@settings(max_examples=30, deadline=None)
@given(
    addrs=st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200)
)
def test_matches_reference_lru_model(addrs):
    """The cache must agree with a straightforward per-set LRU model."""
    cache = Cache(16, 4, 64)
    reference: dict[int, list[int]] = {i: [] for i in range(cache.n_sets)}

    for addr in addrs:
        line = addr & ~63
        set_idx = (line >> 6) % cache.n_sets
        ways = reference[set_idx]
        model_hit = line in ways
        got = cache.probe(addr)
        assert got.hit == model_hit
        if model_hit:
            ways.remove(line)
            ways.insert(0, line)
        else:
            cache.fill(addr)
            if len(ways) >= 4:
                ways.pop()
            ways.insert(0, line)

    assert cache.resident_lines() == {l for ways in reference.values() for l in ways}


class TestFillRange:
    """``fill_range`` leaves what per-line ``fill`` in address order leaves."""

    @staticmethod
    def _per_line(cache, start, end):
        for line in range(start & ~(cache.line_bytes - 1), end, cache.line_bytes):
            cache.fill(line)

    @pytest.mark.parametrize(
        "n_lines,assoc,start,end",
        [
            (64, 4, 0x1000, 0x1400),  # power-of-two sets, aligned
            (48, 4, 0x1000, 0x1400),  # 12 sets: the modulo index path
            (64, 4, 0x1013, 0x13C1),  # unaligned start and end
            (48, 4, 0x1013, 0x13C1),
            (64, 4, 0x2000, 0x2000),  # empty range
            (64, 4, 0x2040, 0x2000),  # end before start
            (64, 4, 0x1000, 0x1000 + 64 * 200),  # 3x the capacity: evictions
            (48, 4, 0x1008, 0x1008 + 64 * 150),
            (8, 1, 0x0, 0x1000),  # direct-mapped
        ],
    )
    def test_matches_per_line_fill(self, n_lines, assoc, start, end):
        bulk, ref = Cache(n_lines, assoc, 64), Cache(n_lines, assoc, 64)
        bulk.fill_range(start, end)
        self._per_line(ref, start, end)
        assert bulk._sets == ref._sets
        assert (bulk.evictions, bulk.hits, bulk.misses, bulk.tag_probes) == (
            ref.evictions,
            ref.hits,
            ref.misses,
            ref.tag_probes,
        )
        assert bulk.validate() == []

    @given(
        n_sets=st.sampled_from([1, 3, 4, 6, 8]),
        assoc=st.integers(1, 4),
        prefill=st.lists(st.integers(0, 1 << 13), max_size=12),
        start=st.integers(0, 1 << 13),
        length=st.integers(-128, 1 << 13),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_line_fill_on_prefilled_cache(self, n_sets, assoc, prefill, start, length):
        """Sets that already hold lines take the per-line path; the rest slice."""
        bulk, ref = Cache(n_sets * assoc, assoc, 64), Cache(n_sets * assoc, assoc, 64)
        for cache in (bulk, ref):
            for addr in prefill:
                cache.fill(addr)
        bulk.fill_range(start, start + length)
        self._per_line(ref, start, start + length)
        assert bulk._sets == ref._sets
        assert bulk.evictions == ref.evictions
