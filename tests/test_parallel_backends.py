"""Lockdown of the one worker-pool helper (:mod:`repro.engine.parallel`).

Worker-count resolution, order-preserving collection in :func:`process_map`
(workers that finish in reverse order still yield results in item order),
its serial fallback, and the commutative statistics merge the pooled
sweeps rely on.  The sweeps themselves are checked against the golden
snapshots in ``test_parallel_sweep.py``.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.engine.parallel import process_map, resolve_workers
from repro.engine.sharded import plan_shards
from repro.kdtree import build_kdtree

RADIUS = 0.8


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(11)
    points = rng.uniform(-15.0, 15.0, (5000, 3)).astype(np.float32)
    tree = build_kdtree(points)
    base = points[rng.integers(0, len(points), 400)]
    queries = base.astype(np.float64) + rng.normal(0.0, 0.3, base.shape)
    return tree, queries


# ----------------------------------------------------------------------
# Order independence of the merge
# ----------------------------------------------------------------------
class TestOrderIndependence:
    """Worker completion order cannot change a pooled sweep's totals."""

    def test_hierarchy_stats_merge_commutes(self, case):
        """The sweep's HierarchyStats merge is order-insensitive too."""
        from repro.engine import ExecutionConfig

        tree, queries = case
        halves = []
        for chunk in (queries[:40], queries[40:80]):
            backend = ExecutionConfig(hardware=True).make_backend(tree)
            backend.radius_search(chunk, RADIUS)
            halves.append(backend.hierarchy)
        from repro.hwmodel.cache import HierarchyStats
        ab, ba = HierarchyStats(), HierarchyStats()
        ab.merge(halves[0]); ab.merge(halves[1])
        ba.merge(halves[1]); ba.merge(halves[0])
        assert dataclasses.asdict(ab) == dataclasses.asdict(ba)


# ----------------------------------------------------------------------
# Pool utilities (and the sharded index's chunk plan)
# ----------------------------------------------------------------------
def _slow_echo(item):
    """Completes in *reverse* submission order (later items finish first)."""
    index, total = item
    time.sleep(0.01 * (total - index))
    return index


class TestUtilities:
    def test_plan_shards_contiguous_and_complete(self):
        for n, k in ((400, 4), (5, 8), (1, 3), (97, 3)):
            shards = plan_shards(n, k)
            assert shards[0][0] == 0 and shards[-1][1] == n
            assert all(stop > start for start, stop in shards)
            assert all(shards[i][1] == shards[i + 1][0]
                       for i in range(len(shards) - 1))
            assert len(shards) == min(n, k)
        assert plan_shards(0, 4) == []

    def test_resolve_workers_precedence(self, monkeypatch):
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError):
            resolve_workers(0)
        monkeypatch.setenv("REPRO_MP_WORKERS", "7")
        assert resolve_workers() == 7
        monkeypatch.delenv("REPRO_MP_WORKERS")
        assert resolve_workers() >= 2

    @pytest.mark.parametrize("garbage", ["four", "0", "-2", "2.5", "1e1"])
    def test_resolve_workers_rejects_garbage_env(self, monkeypatch, garbage):
        """A broken REPRO_MP_WORKERS must fail loudly, naming the variable.

        Regression: non-numeric values used to escape as raw ValueError
        from ``int()`` and non-positive ones crashed the pool later with
        an inscrutable multiprocessing error.
        """
        monkeypatch.setenv("REPRO_MP_WORKERS", garbage)
        with pytest.raises(ValueError, match="REPRO_MP_WORKERS"):
            resolve_workers()

    def test_resolve_workers_blank_env_means_unset(self, monkeypatch):
        """Whitespace-only values behave like the variable being absent."""
        for blank in ("", "   ", "\t"):
            monkeypatch.setenv("REPRO_MP_WORKERS", blank)
            assert resolve_workers() >= 2
        # An explicit n_workers still wins over a (valid) env value.
        monkeypatch.setenv("REPRO_MP_WORKERS", "7")
        assert resolve_workers(2) == 2

    def test_process_map_preserves_item_order(self):
        """Results come back in item order even when completion inverts it."""
        items = [(i, 6) for i in range(6)]
        assert process_map(_slow_echo, items, n_jobs=3) == list(range(6))

    def test_process_map_serial_fallback(self):
        items = [(i, 2) for i in range(2)]
        assert process_map(_slow_echo, items, n_jobs=1) == [0, 1]
