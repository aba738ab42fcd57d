"""Per-layer metrics of a traced run.

Every workload reports every name in :data:`PER_LAYER`; a layer the
workload never enters reads 0.  Times are self times (span minus child
spans) per operation — one frame and its scan on ``drive-*``, one replayed
request on ``map-serve`` — except ``serve.*`` set-up times and, on
``map-serve``, ``kdtree.build_ms`` and ``core.compress_ms``, which cover the
one map build of set-up.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

from common import median

#: name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "pointcloud.preprocess_ms": "ms",
    "kdtree.build_ms": "ms",
    "core.compress_ms": "ms",
    "core.decode_ms": "ms",
    "core.leaf_decodes": "count",
    "core.decodes_per_leaf": "ratio",
    "core.inconclusive_frac": "ratio",
    "runtime.radius_calls": "count",
    "runtime.queries_per_call": "count",
    "runtime.radius_self_ms": "ms",
    "runtime.point_bytes_loaded": "bytes",
    "runtime.knn_ms": "ms",
    "perception.cluster_self_ms": "ms",
    "perception.track_ms": "ms",
    "perception.ndt_ms": "ms",
    "perception.ndt_iterations": "count",
    "workloads.frame_self_ms": "ms",
    "hwmodel.record_ms": "ms",
    "hwmodel.accesses": "count",
    "hwmodel.ns_per_access": "ns",
    "hwmodel.l1_miss_ratio": "ratio",
    "hwmodel.l2_miss_ratio": "ratio",
    "hwmodel.sim_cycles": "count",
    "hwmodel.sim_energy_uj": "uJ",
    "serve.store_create_s": "s",
    "serve.warmup_s": "s",
    "serve.overhead_ms": "ms",
    "serve.reply_kb": "KB",
    "trace.primary_overhead_ms": "ms",
    "trace.secondary_overhead_ms": "ms",
    "trace.coverage": "ratio",
}

#: Span names whose self time is the unattributed remainder of an operation.
REMAINDER_SPANS = ("op.frame", "op.scan", "op.request", "workloads.run_frame",
                   "workloads.fold", "workloads.register_scan")


#: Where traced runs write their spans, one JSON-lines file per run.
SPANS_DIR = Path(__file__).resolve().parent / "spans"


def write_spans(tracer, workload: str, seed: int) -> str:
    """Write ``tracer``'s spans for this run; returns a report line."""
    path = SPANS_DIR / f"{workload}-seed{seed}.jsonl"
    tracer.write(path)
    return (f"spans: {len(tracer.spans)} written to "
            f"{path.relative_to(SPANS_DIR.parent.parent)}")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _common(tracer, n_ops: int) -> Dict[str, float]:
    """The metrics every workload derives the same way from its spans."""
    selfs = tracer.self_seconds()

    def ms(*names: str) -> float:
        return 1000.0 * _ratio(sum(selfs.get(name, 0.0) for name in names),
                               n_ops)

    decodes = tracer.count("core.decode")
    calls, queries = tracer.search_calls("runtime.radius")
    record_calls, record_s = tracer.aggregated.get("hwmodel.record", (0, 0.0))
    op_seconds = sum(sum(tracer.durations(name))
                     for name in ("op.frame", "op.scan", "op.request")
                     ) - tracer.excluded
    remainder = sum(selfs.get(name, 0.0) for name in REMAINDER_SPANS)
    return {
        "pointcloud.preprocess_ms": ms("pointcloud.preprocess",
                                       "pointcloud.voxel"),
        "kdtree.build_ms": ms("kdtree.build"),
        "core.compress_ms": ms("core.compress"),
        "core.decode_ms": ms("core.decode"),
        "core.leaf_decodes": _ratio(decodes, n_ops),
        "core.decodes_per_leaf": _ratio(decodes, len(tracer.decoded_leaves)),
        "runtime.radius_calls": _ratio(calls, n_ops),
        "runtime.queries_per_call": _ratio(queries, calls),
        "runtime.radius_self_ms": ms("runtime.radius"),
        "runtime.knn_ms": ms("runtime.knn"),
        "perception.cluster_self_ms": ms("perception.cluster"),
        "perception.track_ms": ms("perception.track"),
        "perception.ndt_ms": ms("perception.ndt"),
        "workloads.frame_self_ms": 1000.0 * _ratio(remainder, n_ops),
        "hwmodel.record_ms": 1000.0 * _ratio(record_s, n_ops),
        "hwmodel.accesses": _ratio(record_calls, n_ops),
        "hwmodel.ns_per_access": 1e9 * _ratio(record_s, record_calls),
        "trace.coverage": _ratio(op_seconds - remainder, op_seconds),
    }


def _finish(values: Dict[str, float]) -> Tuple[Dict[str, Tuple[float, str]],
                                               List[str]]:
    metrics = {name: (float(values.get(name, 0.0)), unit)
               for name, unit in PER_LAYER.items()}
    lines = [f"{name}: {value:.6g} {unit}"
             for name, (value, unit) in metrics.items()]
    return metrics, lines


def drive_layer_metrics(tracer, plain, traced, ndt_before, ndt_after):
    """Per-layer metrics of a ``drive-*`` traced loop."""
    n_ops = traced.latencies.count("frame")
    values = _common(tracer, n_ops)

    inconclusive = classified = 0
    l1 = [0, 0]
    l2 = [0, 0]
    for measurement in traced.measurements:
        bonsai = measurement.bonsai_stats
        if bonsai is not None:
            inconclusive += bonsai.inconclusive
            classified += bonsai.points_classified
        hierarchy = measurement.hierarchy
        if hierarchy is not None:
            l1[0] += hierarchy.l1_misses
            l1[1] += hierarchy.l1_accesses
            l2[0] += hierarchy.l2_misses
            l2[1] += hierarchy.l2_accesses
    for before, after in zip(ndt_before, ndt_after):
        inconclusive += after["inconclusive"] - before["inconclusive"]
        classified += after["classified"] - before["classified"]
        l1[0] += after["l1_misses"] - before["l1_misses"]
        l1[1] += after["l1_accesses"] - before["l1_accesses"]
        l2[0] += after["l2_misses"] - before["l2_misses"]
        l2[1] += after["l2_accesses"] - before["l2_accesses"]

    point_bytes = (
        sum(m.search_stats.point_bytes_loaded for m in traced.measurements)
        + sum(r.point_bytes_loaded for r in traced.registrations))
    values.update({
        "core.inconclusive_frac": _ratio(inconclusive, classified),
        "runtime.point_bytes_loaded": _ratio(point_bytes, n_ops),
        "perception.ndt_iterations": _ratio(
            sum(r.iterations for r in traced.registrations),
            len(traced.registrations)),
        "hwmodel.l1_miss_ratio": _ratio(*l1),
        "hwmodel.l2_miss_ratio": _ratio(*l2),
        "hwmodel.sim_cycles": _ratio(
            sum(m.extract.cycles for m in traced.measurements), n_ops),
        "hwmodel.sim_energy_uj": 1e6 * _ratio(
            sum(m.extract.energy_j for m in traced.measurements), n_ops),
        "trace.primary_overhead_ms": (traced.latencies.p50_ms("frame")
                                      - plain.latencies.p50_ms("frame")),
        "trace.secondary_overhead_ms": (traced.latencies.p50_ms("scan")
                                        - plain.latencies.p50_ms("scan")),
    })
    metrics, lines = _finish(values)
    lines.insert(0, f"traced split over {n_ops} frames+scans "
                    f"(untraced half: {plain.latencies.count('frame')})")
    for op, label in (("op.frame", "frame"), ("op.scan", "scan")):
        selfs = tracer.self_seconds(under=op)
        total = sum(selfs.values())
        top = sorted(selfs.items(), key=lambda item: -item[1])[:4]
        lines.append(f"{label} wall split ({1000 * total / n_ops:.1f} ms per "
                     f"{label}): " + ", ".join(
                         f"{name} {100 * seconds / total:.1f}%"
                         for name, seconds in top))
    return metrics, lines


def serve_layer_metrics(tracer, replay, setup_trace, overheads_ms,
                        reply_kb, store_create_s, warmup_s):
    """Per-layer metrics of ``map-serve``: the split comes from an
    in-process replay of the served requests (workers cannot be wrapped
    from the parent), the set-up split from a traced map build."""
    n_ops = replay.traced.count("radius") + replay.traced.count("knn")
    values = _common(tracer, n_ops)
    setup_selfs = setup_trace.self_seconds()
    index_stats = replay.search_stats
    bonsai = replay.bonsai_stats
    values.update({
        "kdtree.build_ms": 1000.0 * setup_selfs.get("kdtree.build", 0.0),
        "core.compress_ms": 1000.0 * setup_selfs.get("core.compress", 0.0),
        "core.inconclusive_frac": _ratio(bonsai.inconclusive,
                                         bonsai.points_classified)
        if bonsai is not None else 0.0,
        "runtime.point_bytes_loaded": _ratio(index_stats.point_bytes_loaded,
                                             n_ops),
        "serve.store_create_s": store_create_s,
        "serve.warmup_s": warmup_s,
        "serve.overhead_ms": median(overheads_ms) if overheads_ms else 0.0,
        "serve.reply_kb": reply_kb,
        "trace.primary_overhead_ms": (replay.traced.p50_ms("radius")
                                      - replay.plain.p50_ms("radius")),
        "trace.secondary_overhead_ms": (replay.traced.p50_ms("knn")
                                        - replay.plain.p50_ms("knn")),
    })
    metrics, lines = _finish(values)
    lines.insert(0, f"REPLAY: map-serve layer split measured on an "
                    f"in-process replay of {n_ops} served requests against "
                    f"store.index(), not inside the workers")
    return metrics, lines
