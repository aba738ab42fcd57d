"""The per-tree decoded-leaf table: each compressed leaf is decoded once.

A compressed tree owns one lazily filled table of decoded leaves
(:class:`repro.core.compressed_leaf.DecodedLeafTable`).  Every Bonsai reader
fills it through :func:`~repro.core.leaf_compression.decompress_leaf`, so
counting that function's calls counts decodes.  The table must not change
results or the per-visit byte and slice accounting, and it must hold under
concurrent searches from several threads.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.core.compressed_leaf as compressed_leaf
from repro.core.bonsai_knn import BonsaiNearestNeighbors
from repro.core.bonsai_search import BonsaiRadiusSearch, BonsaiStats
from repro.core.floatfmt import BFLOAT16, FLOAT16
from repro.engine import get_backend
from repro.kdtree import SearchStats, build_kdtree
from repro.runtime.bonsai import BonsaiBatchSearcher

RADIUS = 0.8


def _decode_every_leaf(tree) -> None:
    for leaf in tree.leaves:
        tree.compressed_array.decoded(leaf.leaf_id, FLOAT16)


@pytest.fixture
def decode_counter(monkeypatch):
    """Counts ``decompress_leaf`` calls per compressed leaf object."""
    counts: Counter = Counter()
    original = compressed_leaf.decompress_leaf

    def counting(compressed, fmt=None):
        counts[id(compressed)] += 1
        return original(compressed, fmt)

    monkeypatch.setattr(compressed_leaf, "decompress_leaf", counting)
    return counts


@pytest.fixture(scope="module")
def small_calls(random_cloud):
    """Many small radius calls, as the clustering BFS issues them."""
    rng = np.random.default_rng(41)
    base = random_cloud.points[rng.integers(0, len(random_cloud), 240)]
    queries = base.astype(np.float64) + rng.normal(0.0, 0.3, base.shape)
    return [queries[start:start + 6] for start in range(0, len(queries), 6)]


def _run_calls(backend, calls):
    return [backend.radius_search(batch, RADIUS) for batch in calls]


class TestDecodeOnce:
    def test_batched_backend_decodes_each_leaf_at_most_once(
            self, random_cloud, small_calls, decode_counter):
        tree = build_kdtree(random_cloud)
        backend = get_backend("bonsai-batched", tree)
        _run_calls(backend, small_calls)
        _run_calls(backend, small_calls)
        assert decode_counter, "no leaf was decoded"
        assert max(decode_counter.values()) == 1
        # Several calls reached the same leaf, so a per-call cache would
        # have decoded some leaves more than once.
        visits = backend.stats.leaf_visit_counts
        assert sum(visits.values()) > 2 * len(decode_counter)

    def test_all_readers_share_one_table(self, random_cloud, decode_counter):
        tree = build_kdtree(random_cloud)
        queries = random_cloud.points[::11].astype(np.float64)
        BonsaiBatchSearcher(tree).radius_search(queries, RADIUS)
        per_query = BonsaiRadiusSearch(tree)
        knn = BonsaiNearestNeighbors(tree)
        for query in queries:
            per_query.search(query, RADIUS)
            knn.search(query, 4)
        assert max(decode_counter.values()) == 1

    def test_counters_equal_per_call_decoding(self, random_cloud, small_calls):
        """Byte and slice accounting is charged per visit, not per decode.

        The reference compresses a fresh tree for every call, so each call
        decodes its leaves again, as a per-call cache did."""
        shared = get_backend("bonsai-batched", build_kdtree(random_cloud))
        shared_results = _run_calls(shared, small_calls)
        stats, bstats = SearchStats(), BonsaiStats()
        for batch, shared_result in zip(small_calls, shared_results):
            fresh = get_backend("bonsai-batched", build_kdtree(random_cloud))
            result = fresh.radius_search(batch, RADIUS)
            assert np.array_equal(result.offsets, shared_result.offsets)
            assert np.array_equal(result.point_indices, shared_result.point_indices)
            stats.merge(fresh.stats)
            bstats.merge(fresh.bonsai_stats)
        assert shared.stats == stats
        assert shared.bonsai_stats == bstats
        assert bstats.leaf_visits > 0 and bstats.slices_loaded > 0

    def test_concurrent_threads_decode_once_and_agree(
            self, random_cloud, small_calls, decode_counter, monkeypatch):
        tree = build_kdtree(random_cloud)
        expected = [get_backend("baseline-batched", build_kdtree(random_cloud))
                    .radius_search(batch, RADIUS) for batch in small_calls]
        # Slow every decode down so that threads overlap inside the fill.
        counting = compressed_leaf.decompress_leaf

        def slow(compressed, fmt=None):
            time.sleep(0.0005)
            return counting(compressed, fmt)

        monkeypatch.setattr(compressed_leaf, "decompress_leaf", slow)
        compressed_leaf.compress_tree(tree)
        n_threads = 4
        barrier = threading.Barrier(n_threads, timeout=60)

        def worker(_):
            searcher = BonsaiBatchSearcher(tree)
            barrier.wait()
            return [searcher.radius_search(batch, RADIUS) for batch in small_calls]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                runs = list(pool.map(worker, range(n_threads), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for results in runs:
            for result, reference in zip(results, expected):
                assert np.array_equal(result.offsets, reference.offsets)
                assert np.array_equal(result.point_indices, reference.point_indices)
        assert max(decode_counter.values()) == 1


class TestDecodedLeafTable:
    def test_entries_are_read_only_and_match_the_codec(self, random_tree):
        tree = build_kdtree(random_tree.points)
        compressed_leaf.compress_tree(tree)
        array = tree.compressed_array
        leaf = tree.leaves[3]
        entry = array.decoded(leaf.leaf_id, FLOAT16)
        assert array.decoded(leaf.leaf_id, FLOAT16) is entry
        expected = tree.points[leaf.indices].astype(np.float16).astype(np.float64)
        np.testing.assert_array_equal(entry.reduced, expected)
        assert entry.max_delta.shape == entry.reduced.shape
        assert not entry.reduced.flags.writeable
        assert not entry.max_delta.flags.writeable

    def test_format_mismatch_rejected(self, random_tree):
        tree = build_kdtree(random_tree.points)
        compressed_leaf.compress_tree(tree)
        leaf_id = tree.leaves[0].leaf_id
        with pytest.raises(ValueError):
            tree.compressed_array.decoded(leaf_id, BFLOAT16)
        tree.compressed_array.decoded(leaf_id, FLOAT16)
        with pytest.raises(ValueError):
            tree.compressed_array.decoded(leaf_id, BFLOAT16)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_does_not_inherit_a_held_lock(self, random_tree):
        """A worker forked while a parent thread fills the table still
        decodes (the inherited lock would never be released in it)."""
        tree = build_kdtree(random_tree.points)
        compressed_leaf.compress_tree(tree)
        ctx = multiprocessing.get_context("fork")
        with tree.compressed_array._decode_lock:
            child = ctx.Process(target=_decode_every_leaf, args=(tree,))
            child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
