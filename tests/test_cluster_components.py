"""One-query euclidean clustering equals the recorded per-query BFS.

Unrecorded clustering radius-searches every point in one batch and labels
the connected components of the neighbour graph; recorded clustering grows
each cluster query by query, as PCL does.  The two agree only because the
radius relation is symmetric (``j`` is a neighbour of ``i`` exactly when
``i`` is a neighbour of ``j``), so these tests check that invariant on
every registered backend, then compare the two paths on clouds built to
hit their edges: chains longer than the pointer-jumping rounds, duplicate
and isolated points, and clusters of exactly the size bounds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ExecutionConfig, backend_names, get_backend
from repro.kdtree import build_kdtree
from repro.perception import ClusterConfig, EuclideanClusterExtractor
from repro.pointcloud import PointCloud

TOLERANCE = 0.6
SIZES = ClusterConfig(tolerance=TOLERANCE, min_cluster_size=3, max_cluster_size=40)


def _random_cloud(seed: int) -> np.ndarray:
    """Clustered random points with some exact duplicates."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-8.0, 8.0, (12, 3))
    points = np.vstack([c + rng.normal(0.0, 0.5, (rng.integers(5, 40), 3))
                        for c in centers])
    points[rng.integers(0, len(points), 20)] = points[rng.integers(0, len(points), 20)]
    return points.astype(np.float32)


def _edges(result):
    """Every (query, hit) pair and its reverse, each encoded as one integer."""
    n = result.n_queries
    sources = np.repeat(np.arange(n, dtype=np.int64), result.counts)
    return sources * n + result.point_indices, result.point_indices * n + sources


class TestRadiusSymmetry:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", backend_names())
    def test_neighbour_relation_is_symmetric(self, name, seed):
        points = _random_cloud(seed)
        radius = float(np.random.default_rng(seed).uniform(0.3, 1.2))
        result = get_backend(name, build_kdtree(points)).radius_search(points, radius)
        forward, backward = _edges(result)
        assert np.array_equal(np.sort(forward), np.sort(backward)), name


def _chain(rng: np.random.Generator, length: int) -> np.ndarray:
    """Points 0.9 tolerance apart along a random direction."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return rng.uniform(-20.0, 20.0, 3) + np.outer(np.arange(length) * 0.9 * TOLERANCE,
                                                   direction)


def _blob(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` points within a 0.1 m cube: always one component."""
    return rng.uniform(-20.0, 20.0, 3) + rng.uniform(0.0, 0.1, (size, 3))


def _multiscale_blob(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` points near the origin whose coordinates span twelve orders
    of magnitude, so their float64 sum depends on the summation order."""
    return rng.uniform(-0.1, 0.1, (size, 3)) * 10.0 ** -rng.integers(0, 12, (size, 3))


@st.composite
def clouds(draw) -> np.ndarray:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [_chain(rng, draw(st.integers(2, 60)))
             for _ in range(draw(st.integers(0, 3)))]
    parts += [_blob(rng, size) for size in draw(st.lists(
        st.sampled_from([1, 2, SIZES.min_cluster_size, SIZES.max_cluster_size,
                         SIZES.max_cluster_size + 1]), max_size=6))]
    if draw(st.booleans()):
        parts.append(_multiscale_blob(rng, draw(st.integers(
            SIZES.min_cluster_size, SIZES.max_cluster_size))))
    parts.append(rng.uniform(-20.0, 20.0, (draw(st.integers(0, 15)), 3)))
    points = np.vstack(parts)
    n_dupes = draw(st.integers(0, 8))
    if len(points) and n_dupes:
        points = np.vstack([points, points[rng.integers(0, len(points), n_dupes)]])
    # Shuffled, so a chain's lowest index sits anywhere along it.
    return points[rng.permutation(len(points))].astype(np.float32)


def _run(points: np.ndarray, execution: ExecutionConfig):
    result = EuclideanClusterExtractor(SIZES, execution=execution).extract(PointCloud(points))
    clusters = [(c.indices, c.centroid.tobytes(), c.bbox.minimum.tobytes(),
                 c.bbox.maximum.tobytes()) for c in result.clusters]
    bonsai = result.bonsai.bonsai_stats if result.bonsai is not None else None
    return clusters, result.search_stats, bonsai


def _assert_one_query_matches_bfs(points: np.ndarray, name: str) -> None:
    one_query = _run(points, ExecutionConfig(backend=name))
    recorded = _run(points, ExecutionConfig(backend=name, hardware=True))
    assert one_query[0] == recorded[0], name
    assert one_query[1] == recorded[1], name
    assert one_query[2] == recorded[2], name


class TestOneQueryClustering:
    @settings(max_examples=60, deadline=None)
    @given(points=clouds(), name=st.sampled_from(backend_names()))
    def test_matches_recorded_bfs(self, points, name):
        if not len(points):
            return
        _assert_one_query_matches_bfs(points, name)

    def test_long_shuffled_chain_is_one_cluster(self):
        rng = np.random.default_rng(9)
        chain = _chain(rng, 500)[rng.permutation(500)].astype(np.float32)
        config = ClusterConfig(tolerance=TOLERANCE, min_cluster_size=1,
                               max_cluster_size=1000)
        result = EuclideanClusterExtractor(config).extract(PointCloud(chain))
        assert [c.indices for c in result.clusters] == [list(range(500))]
