"""Simplified NDT (Normal Distributions Transform) scan registration.

Autoware's localization node (``ndt_matching``) registers each LiDAR scan
against a point cloud map.  Its inner loop radius-searches a k-d tree built
over the map's voxel distributions to find the Gaussians influencing each scan
point — which is why Figure 2 of the paper attributes ~51% of NDT matching to
radius search.

This implementation keeps the structure that matters for the reproduction:

* the map is voxelised and each voxel stores a Gaussian (mean, covariance),
  as in ``pcl::VoxelGridCovariance``;
* a k-d tree is built over the voxel means;
* every optimisation iteration radius-searches that tree once per scan point
  (all scan points of an iteration are issued as one batched query through
  :mod:`repro.runtime`) and scores all (scan point, voxel) pairs at once;
* a 3-DoF (translation) Newton optimisation maximises the NDT score.

The restriction to translation keeps the optimiser small while leaving the
radius-search workload (the part the paper accelerates) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.bonsai_search import BonsaiStats
from ..core.compressed_leaf import compress_tree
from ..engine.execution import ExecutionConfig
from ..kdtree.build import KDTree, build_kdtree
from ..kdtree.layout import TreeMemoryLayout
from ..kdtree.radius_search import MemoryRecorder, SearchStats
from ..pointcloud.cloud import PointCloud
from ..runtime.batch import BatchRadiusResult

__all__ = ["VoxelGaussian", "NDTConfig", "NDTResult", "NDTMap", "NDTMatcher",
           "score_gradient_hessian"]


@dataclass(frozen=True)
class VoxelGaussian:
    """Gaussian fitted to the map points falling in one voxel."""

    mean: np.ndarray
    covariance: np.ndarray
    inverse_covariance: np.ndarray
    n_points: int


@dataclass
class NDTConfig:
    """Parameters of the simplified NDT matcher."""

    voxel_size: float = 2.0
    search_radius: float = 2.5
    max_iterations: int = 10
    convergence_translation: float = 1e-3
    min_points_per_voxel: int = 4
    step_damping: float = 0.7
    max_scan_points: int = 400
    outlier_ratio: float = 0.55
    #: Lower bound on the per-axis standard deviation of a voxel Gaussian.
    #: Thin surfaces (walls) otherwise produce nearly singular covariances
    #: whose basin of attraction is narrower than typical odometry error.
    min_component_std: float = 0.2
    #: Maximum translation update per iteration (fraction of the voxel size).
    max_step_fraction: float = 0.25


@dataclass
class NDTResult:
    """Outcome of one registration."""

    translation: np.ndarray
    iterations: int
    converged: bool
    final_score: float
    search_stats: SearchStats


class NDTMap:
    """Voxelised Gaussian map plus a k-d tree over the voxel means.

    The Gaussians are held stacked, in the order their voxels first appear
    in the map cloud: ``means`` ``(V, 3)``, ``covariances`` and
    ``inverse_covariances`` ``(V, 3, 3)``, all float64, and the per-voxel
    point counts ``n_points`` ``(V,)``.
    """

    def __init__(self, map_cloud: PointCloud, config: Optional[NDTConfig] = None):
        self.config = config or NDTConfig()
        if map_cloud.is_empty:
            raise ValueError("cannot build an NDT map from an empty cloud")
        (self.means, self.covariances, self.inverse_covariances,
         self.n_points) = self._fit_voxels(map_cloud)
        if not self.n_points.size:
            raise ValueError(
                "no voxel accumulated enough points; decrease min_points_per_voxel "
                "or increase voxel_size"
            )
        self.tree: KDTree = build_kdtree(self.means.astype(np.float32))

    @property
    def voxels(self) -> List[VoxelGaussian]:
        """One :class:`VoxelGaussian` per voxel, viewing the stacked arrays."""
        return [VoxelGaussian(mean=mean, covariance=covariance,
                              inverse_covariance=inverse, n_points=int(count))
                for mean, covariance, inverse, count in zip(
                    self.means, self.covariances, self.inverse_covariances,
                    self.n_points)]

    def _fit_voxels(self, cloud: PointCloud):
        """Stacked Gaussians of the voxels holding enough points, in the
        order the voxels first appear in ``cloud``."""
        config = self.config
        points = cloud.points.astype(np.float64)
        keys = np.floor(points / config.voxel_size).astype(np.int64)
        _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
        # Renumber the voxels by first appearance; a stable sort by that
        # number groups the points per voxel, each group in point order.
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.shape[0])
        voxel_of_point = rank[inverse.reshape(-1)]
        grouped = np.argsort(voxel_of_point, kind="stable")
        sizes = np.bincount(voxel_of_point)
        stops = np.cumsum(sizes)
        kept = np.flatnonzero(sizes >= config.min_points_per_voxel)

        # Means and covariances stay per voxel: the covariance is a BLAS
        # product whose summation order depends on the voxel's point count.
        means = np.empty((kept.shape[0], 3))
        covariances = np.empty((kept.shape[0], 3, 3))
        for row, (stop, size) in enumerate(zip(stops[kept].tolist(), sizes[kept].tolist())):
            subset = points[grouped[stop - size:stop]]
            means[row] = subset.mean(axis=0)
            centered = subset - means[row]
            covariances[row] = centered.T @ centered / max(size - 1, 1)
        # Regularise small eigenvalues (as PCL's VoxelGridCovariance does)
        # so the inverse exists and thin surfaces keep a usable basin.
        eigvals, eigvecs = np.linalg.eigh(covariances)
        floor = np.maximum(np.maximum(eigvals.max(axis=1), 1e-6) * 1e-2,
                           config.min_component_std ** 2)
        diagonal = np.zeros_like(covariances)
        diagonal[:, [0, 1, 2], [0, 1, 2]] = np.maximum(eigvals, floor[:, None])
        covariances = eigvecs @ diagonal @ eigvecs.transpose(0, 2, 1)
        return means, covariances, np.linalg.inv(covariances), sizes[kept]


class NDTMatcher:
    """Registers a scan against an :class:`NDTMap` by translation-only NDT.

    The per-iteration neighbour lookup — one radius search per transformed
    scan point — goes through the execution backend selected by
    :class:`~repro.engine.execution.ExecutionConfig` (batched by default).
    All backends return identical results and accumulate identical
    :class:`SearchStats`.

    With a memory ``recorder`` attached the recorded per-query backend of
    the configured flavour is used instead, so every map-tree load streams
    through the trace-driven cache simulation (:mod:`repro.hwmodel.cache`);
    results stay identical — the per-query hits are re-sorted by point
    index, matching the batched engine's order, so even the floating-point
    summation order of the NDT score is preserved.
    """

    def __init__(self, ndt_map: NDTMap,
                 recorder: Optional[MemoryRecorder] = None,
                 execution: Optional[ExecutionConfig] = None):
        self.map = ndt_map
        self.config = ndt_map.config
        self.execution = execution = execution or ExecutionConfig()
        if recorder is None and execution.hardware:
            recorder = execution.make_recorder()
        self.recorder = recorder
        if recorder is not None:
            layout = TreeMemoryLayout(n_points=ndt_map.tree.n_points)
            if execution.use_bonsai:
                # Compress the map tree *before* attaching the recorder: map
                # preparation is offline (unlike the per-frame clustering
                # trees), so its compression traffic must neither enter the
                # localization trace nor pre-warm the simulated caches.
                if getattr(ndt_map.tree, "compressed_array", None) is None:
                    compress_tree(ndt_map.tree)
            self._backend = execution.make_backend(
                ndt_map.tree, recorder=recorder, layout=layout)
        else:
            self._backend = execution.make_backend(ndt_map.tree)
        self._batch_search = self._backend.radius_search
        self._stats = self._backend.stats

    @property
    def search_stats(self) -> SearchStats:
        """Radius-search counters accumulated across registrations."""
        return self._stats

    @property
    def bonsai_stats(self) -> Optional[BonsaiStats]:
        """Compressed-search counters (``None`` in the baseline configuration)."""
        return self._backend.bonsai_stats

    def register(self, scan: PointCloud,
                 initial_translation: Sequence[float] = (0.0, 0.0, 0.0)) -> NDTResult:
        """Estimate the translation aligning ``scan`` onto the map."""
        config = self.config
        translation = np.asarray(initial_translation, dtype=np.float64).copy()
        points = scan.points.astype(np.float64)
        if points.shape[0] > config.max_scan_points:
            step = points.shape[0] // config.max_scan_points
            points = points[::step][: config.max_scan_points]

        score = 0.0
        converged = False
        iterations = 0
        max_step = config.max_step_fraction * config.voxel_size
        for iterations in range(1, config.max_iterations + 1):
            score, gradient, hessian = self._evaluate(points, translation)
            delta = self._ascent_step(gradient, hessian, max_step)
            delta *= config.step_damping
            translation += delta
            if float(np.linalg.norm(delta)) < config.convergence_translation:
                converged = True
                break
        return NDTResult(
            translation=translation,
            iterations=iterations,
            converged=converged,
            final_score=score,
            search_stats=self._stats,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _ascent_step(gradient: np.ndarray, hessian: np.ndarray, max_step: float) -> np.ndarray:
        """Safeguarded Newton step for maximising the NDT score.

        Away from the optimum the Hessian is often indefinite; in that case
        (or when the Newton direction is not an ascent direction) fall back to
        a gradient-ascent step.  Steps are clamped to ``max_step``.
        """
        grad_norm = float(np.linalg.norm(gradient))
        if grad_norm == 0.0:
            return np.zeros(3)
        try:
            delta = np.linalg.solve(hessian - 1e-6 * np.eye(3), -gradient)
        except np.linalg.LinAlgError:
            delta = gradient / grad_norm * max_step
        # The score is maximised: a valid step must have positive projection
        # on the gradient.
        if float(delta @ gradient) <= 0.0 or not np.all(np.isfinite(delta)):
            delta = gradient / grad_norm * max_step
        norm = float(np.linalg.norm(delta))
        if norm > max_step:
            delta = delta / norm * max_step
        return delta

    def _evaluate(self, points: np.ndarray,
                  translation: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
        """NDT score, gradient and Hessian w.r.t. the translation."""
        transformed = points + translation
        neighbors = self._batch_search(transformed, self.config.search_radius)
        return score_gradient_hessian(transformed, neighbors, self.map.means,
                                      self.map.inverse_covariances)


def score_gradient_hessian(
        transformed: np.ndarray, neighbors: BatchRadiusResult, means: np.ndarray,
        inverse_covariances: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
    """NDT score, gradient and Hessian summed over (scan point, voxel) pairs.

    ``neighbors`` lists, per row of ``transformed``, the voxels within the
    search radius.  With ``d`` the point's offset from the voxel mean and
    ``S`` the voxel's inverse covariance, a pair adds the weight
    ``w = exp(max(-d.S.d / 2, -50))`` to the score, ``-w S d`` to the
    gradient and ``w ((S d)(S d)^T - S)`` to the Hessian.  All pair terms
    are computed at once with stacked matmuls, which run the same BLAS
    kernel per pair as one-pair products do.  The sums then run
    sequentially in pair order from a zero start (``np.cumsum``; a pairwise
    ``np.sum`` would round differently, and the zero start turns a leading
    ``-0.0`` into ``+0.0``), so every result is bit-identical to adding the
    pairs one by one.
    """
    voxels = neighbors.point_indices
    inverse = inverse_covariances[voxels]
    diff = np.repeat(transformed, neighbors.counts, axis=0) - means[voxels]
    quad = np.matmul(np.matmul(diff[:, None, :], inverse), diff[:, :, None])[:, 0, 0]
    weight = np.exp(np.maximum(-0.5 * quad, -50.0))
    scaled = np.matmul(inverse, diff[:, :, None])[:, :, 0]
    terms = np.zeros((voxels.shape[0] + 1, 13))
    terms[1:, 0] = weight
    terms[1:, 1:4] = -(weight[:, None] * scaled)
    terms[1:, 4:] = (weight[:, None, None]
                     * (scaled[:, :, None] * scaled[:, None, :] - inverse)).reshape(-1, 9)
    totals = np.cumsum(terms, axis=0)[-1]
    return float(totals[0]), totals[1:4], totals[4:].reshape(3, 3)
