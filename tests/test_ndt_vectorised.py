"""The stacked NDT score and voxel map are bit-identical to per-item loops.

``score_gradient_hessian`` computes every (scan point, voxel) term at once
and then sums the terms sequentially; ``NDTMap`` buckets the map points per
voxel with NumPy.  The per-pair and per-point loops they replaced are kept
here as oracles, and the results must match them byte for byte: the NDT
iterations, and with them every pipeline golden, depend on the last bit.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perception import NDTConfig, NDTMap, NDTMatcher
from repro.perception.ndt import score_gradient_hessian
from repro.pointcloud import PointCloud
from repro.runtime.batch import BatchRadiusResult


def _per_pair_reference(transformed, neighbors, means, inverse_covariances):
    """The original NDT accumulation: one Python iteration per pair."""
    score = 0.0
    gradient = np.zeros(3)
    hessian = np.zeros((3, 3))
    for point_index, point in enumerate(transformed):
        for voxel_index in neighbors.indices_for(point_index):
            mean = means[voxel_index]
            inverse = inverse_covariances[voxel_index]
            diff = point - mean
            exponent = -0.5 * float(diff @ inverse @ diff)
            weight = float(np.exp(max(exponent, -50.0)))
            score += weight
            grad_term = weight * (inverse @ diff)
            gradient += -grad_term
            hessian += weight * (np.outer(inverse @ diff, inverse @ diff) - inverse)
    return score, gradient, hessian


def _assert_bit_equal(actual, expected) -> None:
    score, gradient, hessian = actual
    ref_score, ref_gradient, ref_hessian = expected
    assert isinstance(score, float)
    assert np.float64(score).tobytes() == np.float64(ref_score).tobytes()
    assert gradient.shape == (3,) and hessian.shape == (3, 3)
    assert gradient.tobytes() == ref_gradient.tobytes()
    assert hessian.tobytes() == ref_hessian.tobytes()


def _csr(lists: List[List[int]]) -> BatchRadiusResult:
    offsets = np.zeros(len(lists) + 1, dtype=np.intp)
    offsets[1:] = np.cumsum([len(hits) for hits in lists])
    flat = np.array([i for hits in lists for i in hits], dtype=np.intp)
    return BatchRadiusResult(offsets=offsets, point_indices=flat)


coordinate = st.one_of(st.just(0.0), st.floats(-8.0, 8.0))


@st.composite
def score_cases(draw):
    n_voxels = draw(st.integers(1, 6))
    means = np.array(draw(st.lists(st.tuples(coordinate, coordinate, coordinate),
                                   min_size=n_voxels, max_size=n_voxels)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Random positive-definite inverse covariances (a singular one among
    # them), some scaled up so the exponent reaches the -50 clamp.
    scales = rng.choice([1.0, 1e3], size=(n_voxels, 1, 1))
    factors = rng.normal(0.0, 1.0, (n_voxels, 3, 3))
    inverse = (factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(3)) * scales
    inverse[rng.random(n_voxels) < 0.3] = np.diag([2.0, 0.0, 1.0])
    n_points = draw(st.integers(0, 40))
    hits = draw(st.lists(st.lists(st.integers(0, n_voxels - 1), max_size=6),
                         min_size=n_points, max_size=n_points))
    # Scan points sometimes sit exactly on a mean, so d = 0 and the
    # gradient terms are -0.0.
    points = np.array([means[draw(st.integers(0, n_voxels - 1))]
                       if draw(st.booleans())
                       else draw(st.tuples(coordinate, coordinate, coordinate))
                       for _ in range(n_points)], dtype=np.float64).reshape(-1, 3)
    return points, _csr([sorted(h) for h in hits]), means, inverse


class TestScoreGradientHessian:
    @settings(max_examples=300, deadline=None)
    @given(case=score_cases())
    def test_bit_equal_to_per_pair_loop(self, case):
        _assert_bit_equal(score_gradient_hessian(*case), _per_pair_reference(*case))

    def test_no_pairs(self):
        means = np.zeros((1, 3))
        inverse = np.eye(3)[None]
        for points, lists in ((np.zeros((0, 3)), []), (np.ones((3, 3)), [[], [], []])):
            case = (points, _csr(lists), means, inverse)
            actual = score_gradient_hessian(*case)
            _assert_bit_equal(actual, _per_pair_reference(*case))
            assert actual[0] == 0.0 and not np.any(actual[1]) and not np.any(actual[2])

    def test_exponent_clamp(self):
        case = (np.array([[30.0, 0.0, 0.0]]), _csr([[0]]), np.zeros((1, 3)),
                np.eye(3)[None])
        score, _, _ = score_gradient_hessian(*case)
        assert score == float(np.exp(-50.0))
        _assert_bit_equal(score_gradient_hessian(*case), _per_pair_reference(*case))

    def test_negative_zero_gradient_terms_sum_to_positive_zero(self):
        # d = 0: every gradient term is -(w * 0.0) = -0.0, and a sum started
        # at +0.0 stays +0.0.
        case = (np.ones((2, 3)), _csr([[0], [0]]), np.ones((1, 3)), np.eye(3)[None])
        _, gradient, _ = score_gradient_hessian(*case)
        assert not np.any(np.signbit(gradient))
        _assert_bit_equal(score_gradient_hessian(*case), _per_pair_reference(*case))


def _per_point_voxels(cloud: PointCloud, config: NDTConfig):
    """The original voxel bucketing: a dict filled point by point."""
    points = cloud.points.astype(np.float64)
    keys = np.floor(points / config.voxel_size).astype(np.int64)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    buckets: Dict[int, List[int]] = {}
    for index, bucket in enumerate(inverse.reshape(-1)):
        buckets.setdefault(int(bucket), []).append(index)
    voxels = []
    for indices in buckets.values():
        if len(indices) < config.min_points_per_voxel:
            continue
        subset = points[indices]
        mean = subset.mean(axis=0)
        centered = subset - mean
        covariance = centered.T @ centered / max(len(indices) - 1, 1)
        eigvals, eigvecs = np.linalg.eigh(covariance)
        floor = max(max(eigvals.max(), 1e-6) * 1e-2, config.min_component_std ** 2)
        eigvals = np.maximum(eigvals, floor)
        covariance = eigvecs @ np.diag(eigvals) @ eigvecs.T
        voxels.append((mean, covariance, np.linalg.inv(covariance), len(indices)))
    return voxels


@pytest.fixture(scope="module")
def map_cloud():
    rng = np.random.default_rng(7)
    wall = np.column_stack([rng.uniform(-20, 20, 1500), np.full(1500, 6.0)
                            + rng.normal(0, 0.05, 1500), rng.uniform(-1, 2, 1500)])
    clutter = rng.uniform(-20, 20, (1500, 3))
    points = np.vstack([wall, clutter])
    return PointCloud(points[rng.permutation(len(points))].astype(np.float32))


class TestVoxelMap:
    @pytest.mark.parametrize("voxel_size,min_points", [(2.0, 4), (1.0, 1), (3.0, 12)])
    def test_bit_equal_to_per_point_bucketing(self, map_cloud, voxel_size, min_points):
        config = NDTConfig(voxel_size=voxel_size, min_points_per_voxel=min_points)
        ndt_map = NDTMap(map_cloud, config)
        expected = _per_point_voxels(map_cloud, config)
        assert len(ndt_map.voxels) == len(expected)
        for voxel, (mean, covariance, inverse, count) in zip(ndt_map.voxels, expected):
            assert voxel.mean.tobytes() == mean.tobytes()
            assert voxel.covariance.tobytes() == covariance.tobytes()
            assert voxel.inverse_covariance.tobytes() == inverse.tobytes()
            assert voxel.n_points == count
        assert ndt_map.means.tobytes() == np.array([v[0] for v in expected]).tobytes()
        assert ndt_map.inverse_covariances.tobytes() == \
            np.array([v[2] for v in expected]).tobytes()

    def test_matcher_evaluate_matches_per_pair_loop(self, map_cloud):
        ndt_map = NDTMap(map_cloud, NDTConfig(voxel_size=2.0))
        matcher = NDTMatcher(ndt_map)
        points = map_cloud.points[::7].astype(np.float64)
        for translation in ([0.0, 0.0, 0.0], [0.4, -0.3, 0.1], [5.0, 5.0, 0.0]):
            translation = np.array(translation)
            transformed = points + translation
            neighbors = matcher._batch_search(transformed, ndt_map.config.search_radius)
            assert neighbors.total_matches > 0
            _assert_bit_equal(
                matcher._evaluate(points, translation),
                _per_pair_reference(transformed, neighbors, ndt_map.means,
                                    ndt_map.inverse_covariances))
