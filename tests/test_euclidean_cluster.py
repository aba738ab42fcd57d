"""Tests of euclidean cluster extraction (baseline and Bonsai paths)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ExecutionConfig
from repro.hwmodel.cache import HierarchyRecorder
from repro.perception import ClusterConfig, EuclideanClusterExtractor
from repro.pointcloud import PointCloud

BONSAI = ExecutionConfig(backend="bonsai-batched")


def _two_blobs(rng, separation=10.0, n=40):
    a = rng.normal(0.0, 0.3, size=(n, 3))
    b = rng.normal(0.0, 0.3, size=(n, 3)) + np.array([separation, 0.0, 0.0])
    return PointCloud(np.vstack([a, b]).astype(np.float32))


class TestClustering:
    def test_two_separated_blobs_give_two_clusters(self, rng):
        cloud = _two_blobs(rng)
        extractor = EuclideanClusterExtractor(ClusterConfig(tolerance=1.0, min_cluster_size=5))
        result = extractor.extract(cloud)
        assert result.n_clusters == 2
        sizes = sorted(c.size for c in result.clusters)
        assert sizes == [40, 40]

    def test_blobs_merge_when_tolerance_spans_gap(self, rng):
        cloud = _two_blobs(rng, separation=2.0)
        extractor = EuclideanClusterExtractor(ClusterConfig(tolerance=3.0, min_cluster_size=5))
        result = extractor.extract(cloud)
        assert result.n_clusters == 1
        assert result.clusters[0].size == 80

    def test_min_cluster_size_filters_noise(self, rng):
        blob = rng.normal(0.0, 0.2, size=(30, 3))
        noise = np.array([[50.0, 50.0, 0.0], [-60.0, 40.0, 1.0]])
        cloud = PointCloud(np.vstack([blob, noise]).astype(np.float32))
        extractor = EuclideanClusterExtractor(ClusterConfig(tolerance=1.0, min_cluster_size=5))
        result = extractor.extract(cloud)
        assert result.n_clusters == 1
        labels = result.labels
        assert (labels == -1).sum() == 2

    def test_max_cluster_size_filters_giant_clusters(self, rng):
        cloud = _two_blobs(rng)
        extractor = EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=5, max_cluster_size=30)
        )
        assert extractor.extract(cloud).n_clusters == 0

    def test_every_point_in_at_most_one_cluster(self, rng):
        cloud = _two_blobs(rng)
        result = EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=1)).extract(cloud)
        all_indices = [i for cluster in result.clusters for i in cluster.indices]
        assert len(all_indices) == len(set(all_indices))

    def test_cluster_geometry(self, rng):
        cloud = _two_blobs(rng)
        result = EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=5)).extract(cloud)
        centroids_x = sorted(c.centroid[0] for c in result.clusters)
        assert centroids_x[0] == pytest.approx(0.0, abs=0.3)
        assert centroids_x[1] == pytest.approx(10.0, abs=0.3)
        for cluster in result.clusters:
            assert cluster.bbox.volume < 50.0

    def test_empty_cloud(self):
        result = EuclideanClusterExtractor().extract(PointCloud())
        assert result.n_clusters == 0
        assert result.n_points == 0

    def test_search_stats_populated(self, rng):
        cloud = _two_blobs(rng)
        result = EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=5)).extract(cloud)
        assert result.search_stats.queries == len(cloud)
        assert result.search_stats.points_examined > 0


class TestBonsaiEquivalence:
    def test_same_clusters_with_bonsai(self, rng):
        cloud = _two_blobs(rng)
        config = ClusterConfig(tolerance=1.0, min_cluster_size=5)
        baseline = EuclideanClusterExtractor(config).extract(cloud)
        bonsai = EuclideanClusterExtractor(config, execution=BONSAI).extract(cloud)
        assert baseline.n_clusters == bonsai.n_clusters
        for a, b in zip(baseline.clusters, bonsai.clusters):
            assert a.indices == b.indices

    def test_same_clusters_on_lidar_frame(self, filtered_frame):
        config = ClusterConfig(tolerance=0.6, min_cluster_size=5)
        baseline = EuclideanClusterExtractor(config).extract(filtered_frame)
        bonsai = EuclideanClusterExtractor(config, execution=BONSAI).extract(
            filtered_frame)
        assert baseline.n_clusters == bonsai.n_clusters
        np.testing.assert_array_equal(baseline.labels, bonsai.labels)

    def test_bonsai_stats_available(self, rng):
        cloud = _two_blobs(rng)
        result = EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=5),
            execution=BONSAI).extract(cloud)
        assert result.bonsai is not None
        assert result.bonsai.bonsai_stats.points_classified > 0

    def test_recorder_wired_through(self, rng):
        cloud = _two_blobs(rng)
        recorder = HierarchyRecorder()
        EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=5),
            recorder=recorder,
        ).extract(cloud)
        assert recorder.stats.l1_accesses > 0


class TestClusterResultLabels:
    def test_labels_shape_and_values(self, rng):
        cloud = _two_blobs(rng)
        result = EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=5)).extract(cloud)
        labels = result.labels
        assert labels.shape == (len(cloud),)
        assert set(np.unique(labels)) <= {-1, 0, 1}
