"""Euclidean cluster extraction (the Autoware.ai task the paper evaluates).

The algorithm is the classic PCL ``EuclideanClusterExtraction`` used by
Autoware's lidar_euclidean_cluster_detect node: grow clusters by repeatedly
radius-searching around unprocessed points, then keep clusters whose size
falls within configured bounds.  Radius search dominates its execution time,
which is exactly the property the paper exploits (Figure 2).  Those clusters
are the connected components of the fixed-radius neighbour graph, so
unrecorded runs search every point in one batch and label the components in
NumPy; recorded runs keep PCL's query-by-query growth.

The extractor selects its search through the execution-backend registry
(:mod:`repro.engine`), so the same clustering code runs on top of any named
backend — per-query or batched, baseline 32-bit or K-D Bonsai compressed —
mirroring how the paper's PCL modification is toggled by a boolean flag but
keeping the mode as *data* (an :class:`~repro.engine.execution.ExecutionConfig`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..engine.backends import SearchBackend
from ..engine.execution import ExecutionConfig
from ..kdtree.build import KDTree, KDTreeConfig, build_kdtree
from ..kdtree.layout import TreeMemoryLayout
from ..kdtree.radius_search import MemoryRecorder, SearchStats
from ..pointcloud.cloud import BoundingBox, PointCloud
from ..runtime.batch import BatchRadiusResult

__all__ = ["Cluster", "ClusterConfig", "ClusterResult", "EuclideanClusterExtractor"]


@dataclass
class Cluster:
    """One extracted cluster: point indices plus derived geometry."""

    indices: List[int]
    centroid: np.ndarray
    bbox: BoundingBox

    @property
    def size(self) -> int:
        """Number of points in the cluster."""
        return len(self.indices)


@dataclass
class ClusterConfig:
    """Parameters of euclidean cluster extraction.

    Defaults follow Autoware's euclidean cluster node: clustering tolerance
    (the radius) in the tens of centimetres, and size bounds that discard
    sensor noise and oversized merges.
    """

    tolerance: float = 0.6
    min_cluster_size: int = 5
    max_cluster_size: int = 20000
    max_leaf_size: int = 15


@dataclass
class ClusterResult:
    """Clusters plus the accounting gathered while extracting them."""

    clusters: List[Cluster]
    n_points: int
    search_stats: SearchStats
    tree: KDTree
    #: The Bonsai backend that served the searches (``None`` for baseline
    #: runs); exposes ``bonsai_stats`` and the compression ``report``.
    bonsai: Optional[SearchBackend] = None

    @property
    def n_clusters(self) -> int:
        """Number of clusters that passed the size filters."""
        return len(self.clusters)

    @property
    def labels(self) -> np.ndarray:
        """Per-point cluster label (-1 for unclustered points)."""
        labels = np.full(self.n_points, -1, dtype=np.int64)
        for cluster_id, cluster in enumerate(self.clusters):
            labels[cluster.indices] = cluster_id
        return labels


class EuclideanClusterExtractor:
    """Cluster a point cloud by euclidean proximity over a k-d tree.

    The search backend is selected by :class:`ExecutionConfig` (default:
    ``baseline-batched``).  All backends produce identical clusters and
    search statistics.
    """

    def __init__(self, config: Optional[ClusterConfig] = None,
                 recorder: Optional[MemoryRecorder] = None,
                 execution: Optional[ExecutionConfig] = None):
        self.config = config or ClusterConfig()
        self.execution = execution = execution or ExecutionConfig()
        if recorder is None and execution.hardware:
            recorder = execution.make_recorder()
        self.recorder = recorder

    def extract(self, cloud: PointCloud) -> ClusterResult:
        """Build the tree, find the clusters and return the filtered result.

        Unrecorded backends radius-search every point in one batch and
        label the connected components of the resulting neighbour graph
        (:func:`_component_roots`).  With a memory recorder attached the
        clusters grow query by query instead, because the trace-driven
        cache simulation depends on the exact order of the recorded memory
        accesses.  Both paths search every point exactly once and produce
        identical clusters and search statistics.
        """
        if cloud.is_empty:
            return ClusterResult(clusters=[], n_points=0, search_stats=SearchStats(),
                                 tree=None)  # type: ignore[arg-type]
        tree = build_kdtree(cloud, KDTreeConfig(max_leaf_size=self.config.max_leaf_size))
        execution = self.execution

        if self.recorder is not None:
            # Recorded (hardware-in-the-loop) extraction: make_backend
            # resolves to the per-query backend of the configured flavour
            # with the recorder attached, so leaf/point loads — including
            # the build-time compression traffic of a fresh Bonsai tree —
            # stream into the cache model.
            layout = TreeMemoryLayout(n_points=tree.n_points)
            backend = execution.make_backend(tree, recorder=self.recorder,
                                             layout=layout)
            clusters = self._grow_clusters(cloud, backend.search, layout)
        else:
            backend = execution.make_backend(tree)
            neighbors = backend.radius_search(cloud.points, self.config.tolerance)
            clusters = self._components_to_clusters(cloud, _component_roots(neighbors))
        return ClusterResult(
            clusters=clusters,
            n_points=len(cloud),
            search_stats=backend.stats,
            tree=tree,
            bonsai=backend if execution.use_bonsai else None,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _keeps(self, size: int) -> bool:
        return self.config.min_cluster_size <= size <= self.config.max_cluster_size

    def _components_to_clusters(self, cloud: PointCloud,
                                roots: np.ndarray) -> List[Cluster]:
        """Clusters of the components named by ``roots``, in seed order.

        A component's root is its lowest point index — the seed the BFS
        would start it from — so components come out in the BFS order,
        each with its members sorted.
        """
        sizes = np.bincount(roots, minlength=roots.shape[0])
        members = np.argsort(roots, kind="stable")
        seeds = np.flatnonzero(sizes)
        stops = np.cumsum(sizes[seeds])
        return [_make_cluster(cloud, members[stop - sizes[seed]:stop])
                for seed, stop in zip(seeds.tolist(), stops.tolist())
                if self._keeps(int(sizes[seed]))]

    def _grow_clusters(self, cloud: PointCloud,
                       search: Callable[[Sequence[float], float], List[int]],
                       layout: TreeMemoryLayout) -> List[Cluster]:
        """Grow clusters query by query, recording the extract kernel's loads."""
        n = len(cloud)
        processed = np.zeros(n, dtype=bool)
        clusters: List[Cluster] = []
        tolerance = self.config.tolerance
        recorder = self.recorder

        for seed in range(n):
            if processed[seed]:
                continue
            processed[seed] = True
            members = [seed]
            frontier = deque([seed])
            while frontier:
                current = frontier.popleft()
                # The cluster loop reads the query point from the cloud and
                # its processed flag; these accesses are part of the extract
                # kernel's memory behaviour and keep the point array warm in
                # the baseline configuration.
                recorder.record_load(layout.point_address(current), 16)
                recorder.record_load(layout.flag_address(current), 1)
                neighbors = search(cloud[current], tolerance)
                for neighbor in neighbors:
                    recorder.record_load(layout.flag_address(neighbor), 1)
                    if not processed[neighbor]:
                        processed[neighbor] = True
                        members.append(neighbor)
                        frontier.append(neighbor)
                        recorder.record_store(layout.flag_address(neighbor), 1)
                        recorder.record_store(layout.queue_address(len(frontier)), 4)
            if self._keeps(len(members)):
                clusters.append(_make_cluster(cloud, np.sort(np.asarray(members, dtype=np.intp))))
        return clusters


def _make_cluster(cloud: PointCloud, members: np.ndarray) -> Cluster:
    """A cluster of the index-sorted ``members``; the centroid sums them in order."""
    points = cloud.points[members].astype(np.float64)
    return Cluster(indices=members.tolist(), centroid=points.mean(axis=0),
                   bbox=BoundingBox.from_points(points))


def _component_roots(neighbors: BatchRadiusResult) -> np.ndarray:
    """Each point's component root: the lowest point index it is connected to.

    ``neighbors`` is the radius search of every point of the cloud, in point
    order.  The radius relation is symmetric (``(a - b)**2`` does not depend
    on the sign of the difference), so each edge is kept once and the
    components equal what a BFS from the lowest unprocessed point reaches.
    Labels are found by min-label hooking — every root whose component
    touches a lower root adopts the lowest one — followed by pointer jumping
    until every point names its root directly; rounds repeat until no edge
    joins two components.
    """
    n = neighbors.n_queries
    sources = np.repeat(np.arange(n, dtype=np.intp), neighbors.counts)
    targets = neighbors.point_indices
    lower = targets < sources
    a, b = sources[lower], targets[lower]
    roots = np.arange(n, dtype=np.intp)
    while a.size:
        root_a, root_b = roots[a], roots[b]
        np.minimum.at(roots, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                break
            roots = jumped
        joined = roots[a] != roots[b]
        a, b = a[joined], b[joined]
    return roots
