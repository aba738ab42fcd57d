"""The ``map-serve`` workload: radius and kNN traffic against a shared map.

Set-up samples the ``city_block`` map cloud (the scenario's default seed: a
service serves one city, and the workload seed draws its traffic),
publishes it through ``SharedCloudStore.create`` (tree build and leaf
compression happen there), starts a ``QueryService`` with a pinned worker
count and warms it with one request of each kind.  The request stream is
generated in set-up too.  Request ``n`` is one scan-shaped batch of queries
around the ego pose of frame ``n`` of the scenario's own drive, so
consecutive requests touch many of the same leaves.  Requests alternate
``radius`` and ``knn``, both on ``bonsai-batched``.

Every traffic parameter comes from the repository or the scenario:

* radius, k and queries per request are the serving-load benchmark's
  (``benchmarks/bench_serving_load.py``: r = 0.6 m, k = 5, 96 queries);
* the pose is ``DrivingSequence.ego_position`` of the ``city_block`` drive
  (its default 9 m/s at 10 Hz, so 0.9 m per request);
* a scan is the map points inside the clustering pre-processing crop box
  (``PreprocessConfig.crop_min`` / ``crop_max``) around the pose, and the
  seed picks which of them a request queries;
* the query noise is the scenario's LiDAR range noise
  (``ScenarioDefaults.range_noise_std``).

The stream is one lap of ``ServeScale.lap`` requests.  Two client threads
run a closed loop: each sends the next request of the lap and waits for its
reply.  A run serves whole laps and stops at the first lap boundary after
``--seconds``, so every run of a seed measures the same requests.  After
the loop every reply is checked against an in-process ``PointCloudIndex``
over the same cloud on ``baseline-batched``.
"""

from __future__ import annotations

import pickle
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Tuple

import numpy as np

from common import (Latencies, Outcome, SpeedSampler, clock, latency_lines,
                    peak_rss_mb, timed_setups)
from tracing import Tracer

from repro.engine import PointCloudIndex
from repro.pointcloud.filters import PreprocessConfig
from repro.scenarios import get_scenario
from repro.scenarios.map_scale import build_map_cloud
from repro.serve import QueryService, SharedCloudStore

SCENARIO = "city_block"
BACKEND = "bonsai-batched"
REFERENCE_BACKEND = "baseline-batched"
#: The serving-load benchmark's radius and k.
RADIUS = 0.6
K = 5
WORKERS = 2
CLIENTS = 2


@dataclass(frozen=True)
class ServeScale:
    """How much input one run generates."""

    n_points: int
    queries_per_request: int
    #: Requests in one lap of the stream; even, so it alternates cleanly.
    lap: int
    setups: int
    #: Requests of the first lap replayed in-process by the traced run.
    replay: int


SCALES = {
    "full": ServeScale(n_points=100_000, queries_per_request=96, lap=200,
                       setups=3, replay=40),
    "smoke": ServeScale(n_points=5_000, queries_per_request=32, lap=6,
                        setups=1, replay=6),
}


@dataclass
class Request:
    kind: str
    queries: np.ndarray


@dataclass
class Served:
    index: int
    kind: str
    seconds: float
    reply: tuple
    start: float
    #: ``seconds`` in calibrated time.
    scaled: float = 0.0


@dataclass
class ServeSetup:
    cloud: np.ndarray
    requests: List[Request]
    store: SharedCloudStore
    service: QueryService
    store_create_s: float
    warmup_s: float

    def close(self) -> None:
        self.service.close()
        self.store.close()


def generate_requests(cloud: np.ndarray, seed: int,
                      scale: ServeScale) -> List[Request]:
    """One lap of the request stream: scan-shaped query batches along the
    scenario's drive (see the module docstring for every parameter)."""
    spec = get_scenario(SCENARIO)
    drive = spec.sequence(n_frames=scale.lap)
    crop = PreprocessConfig()
    low, high = np.asarray(crop.crop_min), np.asarray(crop.crop_max)
    noise = spec.defaults.range_noise_std
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    poses = [drive.ego_position(number) for number in range(scale.lap)]
    # Only points inside some request's box can be picked: the lap's poses
    # lie on one street, so this leaves a quarter of the map to scan.
    near = np.flatnonzero(np.all((cloud >= np.min(poses, axis=0) + low)
                                 & (cloud <= np.max(poses, axis=0) + high),
                                 axis=1))
    near_points = cloud[near]
    requests = []
    for number, pose in enumerate(poses):
        offset = near_points - pose
        inside = near[np.all((offset >= low) & (offset <= high), axis=1)]
        picked = cloud[rng.choice(inside, scale.queries_per_request)]
        queries = picked.astype(np.float64) + rng.normal(
            0.0, noise, size=picked.shape)
        requests.append(Request("radius" if number % 2 == 0 else "knn",
                                queries))
    return requests


def _send(service: QueryService, request: Request) -> tuple:
    if request.kind == "radius":
        result = service.radius(request.queries, RADIUS, backend=BACKEND)
        return result.offsets, result.point_indices
    result = service.knn(request.queries, K, backend=BACKEND)
    return result.indices, result.distances


def setup(seed: int, scale: ServeScale,
          build_tracer: Optional[Tracer] = None) -> ServeSetup:
    """Map, request stream, shared store, worker pool and warm-up."""
    cloud = build_map_cloud(SCENARIO, scale.n_points)
    requests = generate_requests(cloud, seed, scale)
    t0 = clock()
    if build_tracer is not None:
        with build_tracer.installed():
            store = SharedCloudStore.create(cloud)
    else:
        store = SharedCloudStore.create(cloud)
    t1 = clock()
    service = QueryService(store, n_workers=WORKERS)
    # Warm-up: starts the pool (each worker attaches by name) and answers
    # one request of each kind.
    service.serve([("radius", requests[0].queries, RADIUS, BACKEND),
                   ("knn", requests[1].queries, K, BACKEND)])
    t2 = clock()
    return ServeSetup(cloud, requests, store, service,
                      store_create_s=t1 - t0, warmup_s=t2 - t1)


@dataclass
class LoopResult:
    served: List[Served] = field(default_factory=list)
    #: Calibrated and wall-clock seconds the loop ran.
    busy: float = 0.0
    elapsed: float = 0.0

    def latencies(self, calibrated: bool = True) -> Latencies:
        lat = Latencies()
        for item in self.served:
            lat.add(item.kind, item.scaled if calibrated else item.seconds)
        return lat


def run_loop(ready: ServeSetup, seconds: float,
             sampler: SpeedSampler) -> LoopResult:
    """``CLIENTS`` threads, each in a closed loop, over whole laps of the
    stream until the first lap boundary after ``seconds``.

    The main thread only waits, so the running sampler's kernel runs there
    and never inside a client's timing; latencies are calibrated over each
    request's window.
    """
    result = LoopResult()
    lock = threading.Lock()
    cursor = [0]
    last_done = [0.0]
    errors: List[BaseException] = []
    lap = len(ready.requests)
    start = clock()

    def client() -> None:
        try:
            while True:
                with lock:
                    number = cursor[0]
                    if number % lap == 0 and clock() - start >= seconds:
                        return
                    cursor[0] += 1
                request = ready.requests[number % lap]
                t0 = clock()
                reply = _send(ready.service, request)
                t1 = clock()
                with lock:
                    result.served.append(Served(number, request.kind,
                                                t1 - t0, reply, t0))
                    last_done[0] = max(last_done[0], t1)
        except BaseException as exc:  # re-raised in the parent after join
            errors.append(exc)

    threads = [threading.Thread(target=client, name=f"client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    result.elapsed = last_done[0] - start
    result.busy = sampler.calibrated(start, last_done[0], same_thread=False)
    for item in result.served:
        item.scaled = sampler.calibrated(item.start, item.start + item.seconds,
                                         same_thread=False)
    result.served.sort(key=lambda item: item.index)
    return result


def check(loop: LoopResult, ready: ServeSetup,
          inject_fault: bool) -> Tuple[int, int, List[str]]:
    """Compare every reply with ``baseline-batched`` on a local index; the
    reference of each request of the lap is computed once."""
    reference = PointCloudIndex(ready.cloud)
    expected = {}
    failed = 0
    lines = []
    for position, item in enumerate(loop.served):
        number = item.index % len(ready.requests)
        request = ready.requests[number]
        reply = item.reply
        if inject_fault and position == 0:
            reply = _drop_one_hit(reply)
        if number not in expected:
            if request.kind == "radius":
                want = reference.radius_search(request.queries, RADIUS,
                                               backend=REFERENCE_BACKEND)
                expected[number] = (want.offsets, want.point_indices)
            else:
                want = reference.knn(request.queries, K,
                                     backend=REFERENCE_BACKEND)
                expected[number] = (want.indices, want.distances)
        if not all(np.array_equal(a, b)
                   for a, b in zip(reply, expected[number])):
            failed += 1
            lines.append(f"MISMATCH {request.kind}: request {item.index}")
    reference.close()
    return len(loop.served), failed, lines


def _drop_one_hit(reply: tuple) -> tuple:
    """``reply`` with its last radius hit, or every last kNN neighbour,
    dropped: the corruption the self-test expects the check to catch."""
    first, second = reply
    if second.ndim == 1:  # radius: CSR offsets and hit indices
        total = first[-1]
        return np.where(first == total, total - 1, first), second[:-1]
    return first[:, :-1], second[:, :-1]


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool,
        scale_name: str = "full", inject_fault: bool = False) -> Outcome:
    scale = SCALES[scale_name]
    lines = [f"workload: {workload} ({BACKEND}; reference {REFERENCE_BACKEND} "
             f"in-process); {SCENARIO} map of {scale.n_points} points; "
             f"{scale.queries_per_request} queries per request; radius "
             f"{RADIUS} m, k={K}; laps of {scale.lap} requests; closed "
             f"loop, {CLIENTS} clients, "
             f"{WORKERS} workers"]
    if trace:
        return _run_traced(workload, seed, seconds, scale, inject_fault, lines)

    sampler = SpeedSampler()
    with sampler:
        ready, setup_s, setup_lines = timed_setups(
            scale.setups, lambda: setup(seed, scale), ServeSetup.close,
            sampler)
        lines += setup_lines
        try:
            loop = run_loop(ready, seconds, sampler)
        finally:
            ready.close()
    # Read once the workers have been waited for, and before the check,
    # whose reference index is not the program under test.
    rss = peak_rss_mb(include_children=True)
    attempted, failed, mismatch_lines = check(loop, ready, inject_fault)
    lines += mismatch_lines
    lat = loop.latencies()
    rps = len(loop.served) / loop.busy
    lines += latency_lines(lat, loop.latencies(calibrated=False),
                           [("radius", "radius_ms"), ("knn", "knn_ms")])
    lines += [
        f"knn_ms_mean: {lat.mean_ms('knn'):.3f} ms (N={lat.count('knn')}; "
        f"wall {loop.latencies(calibrated=False).mean_ms('knn'):.3f} ms)",
        f"serve_rps: {rps:.4f} req/s ({len(loop.served)} requests in "
        f"{len(loop.served) // scale.lap} laps; wall "
        f"{len(loop.served) / loop.elapsed:.4f} req/s over "
        f"{loop.elapsed:.2f} s)",
        f"fail_frac: {failed / attempted:.6f} ratio ({failed}/{attempted})",
        f"setup_s: {setup_s:.4f} s",
        f"peak_rss_mb: {rss:.2f} MB (max of the process and its workers)",
        sampler.summary(),
    ]
    metrics = {
        "primary_ms": (lat.p50_ms("radius"), "ms"),
        # kNN requests are tracked by their mean.  About one query in a
        # hundred examines thousands of points (its home leaf gives a loose
        # first bound), so a request's cost is set by how many such queries
        # its 96 hold.  The median falls between those modes and moves with
        # the seed; the mean over a lap does not.
        "secondary_ms": (lat.mean_ms("knn"), "ms"),
        "ops_per_s": (rps, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return Outcome(attempted=attempted, failed=failed, metrics=metrics,
                   lines=lines)


@dataclass
class Replay:
    """Calibrated latencies of the untraced and traced replays, the untraced
    ones in request order, and the traced replay's search counters."""

    plain: Latencies
    traced: Latencies
    plain_seconds: List[float]
    search_stats: object
    bonsai_stats: object


def _replay(ready: ServeSetup, served: List[Served], tracer: Tracer,
            sampler: SpeedSampler) -> Replay:
    """Replay ``served`` in-process against ``store.index()``: once untraced
    for latency, once traced for the layer split.  Latencies are calibrated
    (the sampler must be running)."""
    index = ready.store.index()

    def replay_all(traced: bool) -> List[Tuple[str, float, float]]:
        windows = []
        for item in served:
            request = ready.requests[item.index % len(ready.requests)]
            with (tracer.op("op.request", item.index) if traced
                  else nullcontext()):
                t0 = clock()
                if request.kind == "radius":
                    index.radius_search(request.queries, RADIUS,
                                        backend=BACKEND)
                else:
                    index.knn(request.queries, K, backend=BACKEND)
                windows.append((request.kind, t0, clock()))
        return windows

    plain_windows = replay_all(traced=False)
    search_before, bonsai_before = index.search_stats, index.bonsai_stats
    sampler.on_run = tracer.exclude
    try:
        with tracer.installed():
            traced_windows = replay_all(traced=True)
    finally:
        sampler.on_run = None
    plain_seconds = [sampler.calibrated(t0, t1) for _, t0, t1 in plain_windows]
    plain, traced = Latencies(), Latencies()
    for (kind, _, _), seconds in zip(plain_windows, plain_seconds):
        plain.add(kind, seconds)
    for kind, t0, t1 in traced_windows:
        traced.add(kind, sampler.calibrated(t0, t1))
    return Replay(plain, traced, plain_seconds,
                  _diff_stats(index.search_stats, search_before),
                  _diff_stats(index.bonsai_stats, bonsai_before))


def _diff_stats(after, before):
    """Field-wise ``after - before`` of two counter dataclasses."""
    if after is None:
        return None
    delta = replace(after)
    for item in fields(after):
        value = getattr(after, item.name)
        if isinstance(value, int):
            setattr(delta, item.name, value - getattr(before, item.name, 0))
    return delta


def _run_traced(workload, seed, seconds, scale, inject_fault, lines) -> Outcome:
    from layers import serve_layer_metrics, write_spans

    build_tracer = Tracer()
    sampler = SpeedSampler()
    with sampler:
        sampler.on_run = build_tracer.exclude
        ready = setup(seed, scale, build_tracer=build_tracer)
        sampler.on_run = None
        try:
            loop = run_loop(ready, seconds / 2, sampler)
            sample = loop.served[:scale.replay]
            tracer = Tracer()
            replay = _replay(ready, sample, tracer, sampler)
        finally:
            ready.close()
    attempted, failed, mismatch_lines = check(loop, ready, inject_fault)
    lines += mismatch_lines
    overheads = [1000.0 * (item.scaled - local)
                 for item, local in zip(sample, replay.plain_seconds)]
    reply_kb = sum(len(pickle.dumps(item.reply)) for item in loop.served) \
        / 1024.0 / len(loop.served)
    metrics, layer_lines = serve_layer_metrics(
        tracer, replay, build_tracer, overheads, reply_kb,
        ready.store_create_s, ready.warmup_s)
    lines += layer_lines
    lines.append(write_spans(tracer, workload, seed))
    lines.append(f"fail_frac: {failed / attempted:.6f} ratio "
                 f"({failed}/{attempted})")
    lines.append(sampler.summary())
    return Outcome(attempted=attempted, failed=failed, metrics=metrics,
                   lines=lines)
