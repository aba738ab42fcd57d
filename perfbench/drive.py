"""The ``drive-*`` workloads: the euclidean-cluster task plus NDT registration.

Set-up samples ``scenes`` urban worlds from the workload seed.  Each world
contributes one short drive at the scenario's default sensor: a map frame,
from which an NDT map is built during set-up, followed by ``frames``
consecutive frames.  The timed loop is closed: one client takes the next
step as soon as the previous one completes.  A step is one frame of one
drive, run through ``EuclideanClusterPipeline.run_frame`` and
``FrameFold.fold`` (the path ``PipelineRunner.run`` takes) and then
registered by ``NDTLocalizationPipeline.register_scan`` against that drive's
map.  A lap is every frame of every drive once, round-robin over the drives,
with fresh trackers.  A run measures whole laps and stops at the first lap
boundary after ``--seconds``, so every run of a seed measures the same
inputs, however fast the program or the host runs.

Outputs — per-frame detections, confirmed tracks and NDT poses — are checked
after the loop against the same drives run on a reference backend.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (Latencies, Outcome, SpeedSampler, clock, latency_lines,
                    peak_rss_mb, timed_setups)
from tracing import Tracer

from repro.engine import ExecutionConfig
from repro.pointcloud import PointCloud
from repro.scenarios import get_scenario
from repro.workloads.autoware import EuclideanClusterPipeline
from repro.workloads.localization import NDTLocalizationPipeline
from repro.workloads.pipeline import FrameFold, PipelineRunnerConfig

#: workload -> (execution under test, reference execution of the check).
EXECUTIONS: Dict[str, Tuple[ExecutionConfig, ExecutionConfig]] = {
    "drive-bonsai": (ExecutionConfig(backend="bonsai-batched"),
                     ExecutionConfig(backend="baseline-batched")),
    "drive-baseline": (ExecutionConfig(backend="baseline-batched"),
                       ExecutionConfig(backend="baseline-perquery")),
    "drive-hw": (ExecutionConfig(backend="bonsai-batched", hardware=True),
                 ExecutionConfig(backend="bonsai-batched")),
}

SCENARIO = "urban"


@dataclass(frozen=True)
class DriveScale:
    """How much input one run generates."""

    scenes: int
    frames: int
    setups: int


SCALES = {
    "full": DriveScale(scenes=3, frames=2, setups=3),
    "smoke": DriveScale(scenes=1, frames=2, setups=1),
}


@dataclass
class Drive:
    """One world's short drive: map frame, NDT map, the frames to process."""

    clouds: list
    #: Ground-truth translation of each frame relative to the map frame.
    truths: List[np.ndarray]
    map_cloud: object
    ndt: Optional[NDTLocalizationPipeline] = None


#: Tolerance on cluster and track centroids, metres.  A per-query BFS sums
#: a cluster's members in visiting order, the batched one in index order, so
#: centroids may differ in the last bits; everything else compares exactly.
CENTROID_ATOL_M = 1e-9


@dataclass
class StepRecord:
    """The outputs of one step, compared against the reference."""

    #: (cluster id, size, class, box min, box max) per detection.
    detections: tuple
    detection_centroids: np.ndarray
    #: (track id, class, hits) per confirmed track.
    tracks: tuple
    track_centroids: np.ndarray
    pose: bytes
    iterations: int

    def frame_matches(self, other: "StepRecord") -> bool:
        return (self.detections == other.detections
                and self.tracks == other.tracks
                and _close(self.detection_centroids, other.detection_centroids)
                and _close(self.track_centroids, other.track_centroids))

    def scan_matches(self, other: "StepRecord") -> bool:
        return (self.pose, self.iterations) == (other.pose, other.iterations)


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= CENTROID_ATOL_M))


@dataclass
class LoopResult:
    #: Calibrated latencies (the reported metrics) and raw wall times.
    latencies: Latencies = field(default_factory=Latencies)
    wall: Latencies = field(default_factory=Latencies)
    #: ((drive, frame), record) per completed step, in loop order.
    records: List[Tuple[Tuple[int, int], StepRecord]] = field(default_factory=list)
    elapsed: float = 0.0
    measurements: list = field(default_factory=list)
    registrations: list = field(default_factory=list)


def _scene_seeds(seed: int, count: int) -> List[int]:
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(value) % 1_000_000 for value in state]


def _start_frames(seed: int, count: int) -> List[int]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    return [int(value) for value in rng.integers(0, 40, size=count)]


def generate_drives(seed: int, scale: DriveScale) -> List[Drive]:
    """The workload's inputs: ``scale.scenes`` drives from ``seed``."""
    spec = get_scenario(SCENARIO)
    drives = []
    for scene_seed, start in zip(_scene_seeds(seed, scale.scenes),
                                 _start_frames(seed, scale.scenes)):
        sequence = spec.sequence(n_frames=start + scale.frames + 1,
                                 seed=scene_seed)
        origin = sequence.ego_position(start)
        indices = range(start + 1, start + 1 + scale.frames)
        drives.append(Drive(
            clouds=[sequence.frame(i) for i in indices],
            truths=[sequence.ego_position(i) - origin for i in indices],
            map_cloud=sequence.frame(start),
        ))
    return drives


def _ndt_pipeline(map_cloud, execution: ExecutionConfig,
                  config: PipelineRunnerConfig) -> NDTLocalizationPipeline:
    localization = config.localization_config
    recorder = (execution.make_recorder(localization.cpu)
                if execution.hardware else None)
    return NDTLocalizationPipeline(map_cloud, config=localization,
                                   execution=execution, recorder=recorder)


def setup(seed: int, execution: ExecutionConfig, scale: DriveScale,
          config: PipelineRunnerConfig) -> List[Drive]:
    """Generate the inputs, build every NDT map and warm the code paths."""
    drives = generate_drives(seed, scale)
    for drive in drives:
        drive.ndt = _ndt_pipeline(drive.map_cloud, execution, config)
    # Warm-up on a thinned copy of one map frame, with its own NDT map so
    # the drives' simulated caches stay cold: every stage runs once and
    # first-call costs land in set-up, not in the first timed frame.
    warm = PointCloud(drives[0].map_cloud.points[::4])
    EuclideanClusterPipeline(config.pipeline).run_frame(warm, execution=execution)
    _ndt_pipeline(warm, execution, config).register_scan(warm)
    return drives


def _record(measurement, fold: FrameFold, registration) -> StepRecord:
    detections = measurement.detections
    tracks = fold.tracker.confirmed_tracks
    return StepRecord(
        detections=tuple((d.cluster_id, d.n_points, d.label,
                          d.bbox.minimum.tobytes(), d.bbox.maximum.tobytes())
                         for d in detections),
        detection_centroids=np.array([d.centroid for d in detections],
                                     dtype=np.float64).reshape(-1, 3),
        tracks=tuple((t.track_id, t.label, t.hits) for t in tracks),
        track_centroids=np.array([t.centroid for t in tracks],
                                 dtype=np.float64).reshape(-1, 3),
        pose=np.asarray(registration.translation).tobytes(),
        iterations=int(registration.iterations))


def run_loop(drives: List[Drive], execution: ExecutionConfig,
             config: PipelineRunnerConfig, seconds: float,
             sampler: SpeedSampler, tracer: Optional[Tracer] = None,
             keep_measurements: bool = False) -> LoopResult:
    """The closed loop: laps of steps back to back, until the first lap
    boundary after ``seconds``.

    Latencies are recorded in calibrated time (see :class:`SpeedSampler`,
    which must be running), wall times alongside them.
    """
    pipeline = EuclideanClusterPipeline(config.pipeline)
    perturbation = np.asarray(config.initial_translation_error, dtype=np.float64)
    n_frames = len(drives[0].clouds)
    result = LoopResult()
    windows: List[Tuple[str, float, float]] = []
    start = clock()
    step = 0
    while True:
        folds = [FrameFold(config, execution) for _ in drives]
        for frame in range(n_frames):
            for index, drive in enumerate(drives):
                cloud = drive.clouds[frame]
                guess = drive.truths[frame] + perturbation
                with _op(tracer, "op.frame", step):
                    t0 = clock()
                    measurement = pipeline.run_frame(
                        cloud, frame_index=frame, execution=execution)
                    folds[index].fold(frame, cloud, measurement)
                    t1 = clock()
                with _op(tracer, "op.scan", step):
                    registration = drive.ndt.register_scan(
                        cloud, scan_index=frame, initial_translation=guess)
                    t2 = clock()
                windows += [("frame", t0, t1), ("scan", t1, t2)]
                result.records.append(
                    ((index, frame), _record(measurement, folds[index],
                                             registration)))
                if keep_measurements:
                    result.measurements.append(measurement)
                    result.registrations.append(registration)
                step += 1
        if windows[-1][2] - start >= seconds:
            result.elapsed = windows[-1][2] - start
            for kind, begin, end in windows:
                result.latencies.add(kind, sampler.calibrated(begin, end))
                result.wall.add(kind, end - begin)
            return result


def _op(tracer: Optional[Tracer], name: str, step: int):
    return tracer.op(name, step) if tracer is not None else nullcontext()


def reference_records(drives: List[Drive], reference: ExecutionConfig,
                      config: PipelineRunnerConfig, wanted: Dict[int, int],
                      ) -> Tuple[Dict[Tuple[int, int], StepRecord], Latencies]:
    """Each drive's outputs on the reference backend, frames ``0..wanted[d]``,
    and the wall time of each reference frame and scan."""
    pipeline = EuclideanClusterPipeline(config.pipeline)
    perturbation = np.asarray(config.initial_translation_error, dtype=np.float64)
    records = {}
    wall = Latencies()
    for index, last in wanted.items():
        drive = drives[index]
        ndt = _ndt_pipeline(drive.map_cloud, reference, config)
        fold = FrameFold(config, reference)
        for frame in range(last + 1):
            cloud = drive.clouds[frame]
            t0 = clock()
            measurement = pipeline.run_frame(cloud, frame_index=frame,
                                             execution=reference)
            fold.fold(frame, cloud, measurement)
            t1 = clock()
            registration = ndt.register_scan(
                cloud, scan_index=frame,
                initial_translation=drive.truths[frame] + perturbation)
            wall.add("frame", t1 - t0)
            wall.add("scan", clock() - t1)
            records[(index, frame)] = _record(measurement, fold, registration)
    return records, wall


def check(loops: List[LoopResult], drives: List[Drive],
          reference: ExecutionConfig, config: PipelineRunnerConfig,
          inject_fault: bool) -> Tuple[int, int, List[str]]:
    """Compare every step with the reference; ``(attempted, failed, lines)``.

    A step is two operations, the frame and its scan; a frame fails when
    its detections or tracks differ, a scan when its pose or iteration
    count differs.
    """
    wanted: Dict[int, int] = {}
    for loop in loops:
        for (index, frame), _ in loop.records:
            wanted[index] = max(wanted.get(index, 0), frame)
    expected, wall = reference_records(drives, reference, config, wanted)
    attempted = failed = 0
    lines = [f"reference {reference.backend} (information only, wall, "
             f"N={wall.count('frame')}): frame p50 {wall.p50_ms('frame'):.3f} "
             f"ms, scan p50 {wall.p50_ms('scan'):.3f} ms"]
    for loop in loops:
        for position, (key, record) in enumerate(loop.records):
            if inject_fault and position == 0 and loop is loops[0]:
                record = replace(
                    record, detections=record.detections[:-1],
                    detection_centroids=record.detection_centroids[:-1])
            want = expected[key]
            attempted += 2
            if not record.frame_matches(want):
                failed += 1
                lines.append(f"MISMATCH frame: drive {key[0]} frame {key[1]}")
            if not record.scan_matches(want):
                failed += 1
                lines.append(f"MISMATCH scan: drive {key[0]} frame {key[1]}")
    return attempted, failed, lines


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool,
        scale_name: str = "full", inject_fault: bool = False) -> Outcome:
    execution, reference = EXECUTIONS[workload]
    scale = SCALES[scale_name]
    config = PipelineRunnerConfig()
    lines = [f"workload: {workload} ({execution.backend}"
             f"{', hardware' if execution.hardware else ''}); reference: "
             f"{reference.backend}; {scale.scenes} {SCENARIO} drives x "
             f"{scale.frames} frames; closed loop, 1 client"]

    sampler = SpeedSampler()
    with sampler:
        drives, setup_s, setup_lines = timed_setups(
            1 if trace else scale.setups,
            lambda: setup(seed, execution, scale, config), lambda _: None,
            sampler)
        lines += setup_lines
        if trace:
            plain = run_loop(drives, execution, config, seconds / 2, sampler)
            tracer = Tracer()
            sampler.on_run = tracer.exclude
            ndt_before = [_ndt_counters(drive.ndt) for drive in drives]
            with tracer.installed():
                traced = run_loop(drives, execution, config, seconds / 2,
                                  sampler, tracer=tracer,
                                  keep_measurements=True)
            sampler.on_run = None
            ndt_after = [_ndt_counters(drive.ndt) for drive in drives]
            loops = [plain, traced]
        else:
            loops = [run_loop(drives, execution, config, seconds, sampler)]
    # Read before the check, whose reference runs are not the program's.
    rss = peak_rss_mb()
    attempted, failed, mismatch_lines = check(loops, drives, reference,
                                              config, inject_fault)
    lines += mismatch_lines
    lines.append(f"fail_frac: {failed / attempted:.6f} ratio "
                 f"({failed}/{attempted})")
    lines.append(sampler.summary())

    if trace:
        from layers import drive_layer_metrics, write_spans

        metrics, layer_lines = drive_layer_metrics(
            tracer, plain, traced, ndt_before, ndt_after)
        layer_lines.append(write_spans(tracer, workload, seed))
        return Outcome(attempted=attempted, failed=failed, metrics=metrics,
                       lines=lines + layer_lines)

    loop = loops[0]
    lat = loop.latencies
    steps = lat.count("frame")
    busy = sum(lat.samples["frame"]) + sum(lat.samples["scan"])
    lines += latency_lines(lat, loop.wall, [("frame", "frame_ms"),
                                            ("scan", "scan_ms")])
    lines += [
        f"frames_per_s: {steps / busy:.4f} 1/s ({steps} frames+scans in "
        f"{steps // (len(drives) * scale.frames)} laps; wall "
        f"{steps / loop.elapsed:.4f} 1/s over {loop.elapsed:.2f} s)",
        f"setup_s: {setup_s:.4f} s",
        f"peak_rss_mb: {rss:.2f} MB",
    ]
    metrics = {
        "primary_ms": (lat.p50_ms("frame"), "ms"),
        "secondary_ms": (lat.p50_ms("scan"), "ms"),
        "ops_per_s": (steps / busy, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return Outcome(attempted=attempted, failed=failed, metrics=metrics,
                   lines=lines)


def _ndt_counters(ndt: NDTLocalizationPipeline) -> dict:
    """Cumulative search counters of one NDT matcher (and its recorder)."""
    bonsai = ndt.matcher.bonsai_stats
    hierarchy = ndt.recorder.stats if ndt.recorder is not None else None
    return {
        "inconclusive": bonsai.inconclusive if bonsai is not None else 0,
        "classified": bonsai.points_classified if bonsai is not None else 0,
        "l1_accesses": hierarchy.l1_accesses if hierarchy else 0,
        "l1_misses": hierarchy.l1_misses if hierarchy else 0,
        "l2_accesses": hierarchy.l2_accesses if hierarchy else 0,
        "l2_misses": hierarchy.l2_misses if hierarchy else 0,
    }
