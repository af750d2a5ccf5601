"""Unit tests for the page cache (repro.cluster.memory)."""

import pytest

from repro.cluster import PageCache


def test_miss_then_hit():
    cache = PageCache(100.0)
    assert not cache.lookup("/a")
    cache.insert("/a", 10.0)
    assert cache.lookup("/a")
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == pytest.approx(0.5)


def test_lru_eviction_order():
    cache = PageCache(30.0)
    cache.insert("/a", 10.0)
    cache.insert("/b", 10.0)
    cache.insert("/c", 10.0)
    cache.lookup("/a")          # /a becomes most-recent; /b is LRU
    cache.insert("/d", 10.0)    # evicts /b
    assert "/a" in cache and "/c" in cache and "/d" in cache
    assert "/b" not in cache
    assert cache.evictions == 1


def test_file_larger_than_cache_never_cached():
    cache = PageCache(10.0)
    assert not cache.insert("/huge", 20.0)
    assert "/huge" not in cache
    assert cache.used_bytes == 0.0


def test_eviction_frees_enough_space():
    cache = PageCache(100.0)
    for i in range(10):
        cache.insert(f"/f{i}", 10.0)
    cache.insert("/big", 55.0)
    assert cache.used_bytes <= 100.0
    assert "/big" in cache


def test_reinsert_updates_recency_not_size():
    cache = PageCache(30.0)
    cache.insert("/a", 10.0)
    cache.insert("/b", 10.0)
    cache.insert("/a", 10.0)   # refresh
    cache.insert("/c", 10.0)
    cache.insert("/d", 10.0)   # evicts /b (LRU), not /a
    assert "/a" in cache and "/b" not in cache


def test_clear():
    cache = PageCache(100.0)
    cache.insert("/a", 10.0)
    cache.insert("/b", 10.0)
    cache.clear()
    assert len(cache) == 0
    assert cache.used_bytes == 0.0


def test_zero_capacity_cache_always_misses():
    cache = PageCache(0.0)
    assert not cache.insert("/a", 1.0)
    assert not cache.lookup("/a")


def test_invalid_args():
    with pytest.raises(ValueError):
        PageCache(-1.0)
    cache = PageCache(10.0)
    with pytest.raises(ValueError):
        cache.insert("/a", -1.0)
