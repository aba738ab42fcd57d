"""Layer tracing from outside the program.

:class:`Tracer` installs timing wrappers around public functions and methods
of the ``repro`` layers, records one span per call (name, start, end,
parent span, operation id) in memory, and when the run ends turns them
into per-layer self times and writes them out (:meth:`Tracer.write`).  Nothing under ``src/`` changes: a wrapped
function is replaced in every loaded ``repro`` module that holds it, and
restored by :meth:`Tracer.uninstall`.

Calls that happen millions of times per frame — the hardware model's
``record_load`` / ``record_store`` — are not stored as spans; their count
and time are aggregated and charged to the enclosing span as child time.

The tracer is single-threaded: install it only around code that runs in
the calling thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from common import clock

#: ``(module, attribute path, span name)`` of every traced call site.
#: Functions are replaced wherever a ``repro`` module imported them by
#: name; methods are replaced on their defining class.
SPAN_TARGETS: List[Tuple[str, str, str]] = [
    ("repro.pointcloud.filters", "preprocess_for_clustering",
     "pointcloud.preprocess"),
    ("repro.pointcloud.filters", "voxel_grid_filter", "pointcloud.voxel"),
    ("repro.kdtree.build", "build_kdtree", "kdtree.build"),
    ("repro.core.compressed_leaf", "compress_tree", "core.compress"),
    ("repro.core.leaf_compression", "decompress_leaf", "core.decode"),
    ("repro.runtime.batch", "BatchQueryEngine.radius_search",
     "runtime.radius"),
    ("repro.runtime.batch", "BatchQueryEngine.knn", "runtime.knn"),
    ("repro.runtime.bonsai", "BonsaiBatchSearcher.radius_search",
     "runtime.radius"),
    ("repro.engine.backends", "_PerQueryBackendBase.radius_search",
     "runtime.radius"),
    ("repro.engine.backends", "_PerQueryBackendBase.knn", "runtime.knn"),
    ("repro.engine.backends", "BaselinePerQueryBackend.search",
     "runtime.radius"),
    ("repro.engine.backends", "BonsaiPerQueryBackend.search",
     "runtime.radius"),
    ("repro.perception.euclidean_cluster", "EuclideanClusterExtractor.extract",
     "perception.cluster"),
    ("repro.perception.tracking", "ClusterTracker.update", "perception.track"),
    ("repro.perception.ndt", "NDTMatcher.register", "perception.ndt"),
    ("repro.workloads.autoware", "EuclideanClusterPipeline.run_frame",
     "workloads.run_frame"),
    ("repro.workloads.pipeline", "FrameFold.fold", "workloads.fold"),
    ("repro.workloads.localization", "NDTLocalizationPipeline.register_scan",
     "workloads.register_scan"),
]

#: High-frequency calls aggregated instead of recorded one span each.
AGGREGATE_TARGETS: List[Tuple[str, str, str]] = [
    ("repro.hwmodel.cache", "HierarchyRecorder.record_load", "hwmodel.record"),
    ("repro.hwmodel.cache", "HierarchyRecorder.record_store", "hwmodel.record"),
]


def _query_count(queries) -> int:
    shape = getattr(queries, "shape", None)
    if shape is None:
        import numpy as np
        shape = np.shape(queries)
    return 1 if len(shape) == 1 else int(shape[0])


class Tracer:
    """In-memory span recorder with outside-in wrappers.

    A span is ``[name, start, end, parent, op_id, child_seconds, meta]``;
    ``parent`` is the index of the enclosing span (``-1`` at top level) and
    ``meta`` carries the query count of search calls.
    """

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op_id: Optional[object] = None
        #: name -> [calls, seconds] of the aggregated targets.
        self.aggregated: Dict[str, List[float]] = {}
        #: (aggregated name, top-level span name) -> seconds.
        self._aggregated_under: Dict[Tuple[str, str], float] = {}
        #: Every decoded compressed leaf, by identity; holding the objects
        #: keeps their ids unique for the life of the tracer.
        self.decoded_leaves: Dict[int, object] = {}
        self._restore: List[Tuple[object, str, object]] = []
        #: Wall seconds excluded from the spans (benchmark work that ran
        #: inside them, such as speed-sampler kernel runs).
        self.excluded = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def op(self, name: str, op_id: object):
        """A top-level span around one benchmark operation."""
        self.op_id = op_id
        index = self._open(name, None)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str, meta) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.op_id, 0.0, meta])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = clock()

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` of non-program work to the innermost open
        span as child time, so no layer's self time includes it."""
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds
            self.excluded += seconds

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        is_search = name in ("runtime.radius", "runtime.knn")
        is_decode = name == "core.decode"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            meta = None
            if is_search:
                meta = _query_count(args[1])
            elif is_decode:
                tracer.decoded_leaves.setdefault(id(args[0]), args[0])
            index = tracer._open(name, meta)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def _aggregate_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        totals = self.aggregated.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            excluded = tracer.excluded
            try:
                return fn(*args, **kwargs)
            finally:
                # Excluded work inside the call is already charged.
                elapsed = clock() - start - (tracer.excluded - excluded)
                totals[0] += 1
                totals[1] += elapsed
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]][5] += elapsed
                    key = (name, tracer.spans[tracer._stack[0]][0])
                    tracer._aggregated_under[key] = (
                        tracer._aggregated_under.get(key, 0.0) + elapsed)

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; idempotent only through :meth:`uninstall`."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                              (AGGREGATE_TARGETS, self._aggregate_wrapper)):
            for module_name, path, name in targets:
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, attr = path.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, make(name, original))
                    continue
                original = getattr(module, path)
                wrapped = make(name, original)
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded is None or not (loaded_name == "repro"
                                              or loaded_name.startswith("repro.")):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, attr, wrapped)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped function and method."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_seconds(self, under: Optional[str] = None) -> Dict[str, float]:
        """Total self time per name: a span's duration minus its child spans
        and aggregated child calls, plus the aggregated calls themselves;
        with ``under``, only what ran inside top-level spans called
        ``under``."""
        child = [span[5] for span in self.spans]
        root = list(range(len(self.spans)))
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
                root[index] = root[span[3]]
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if under is not None and self.spans[root[index]][0] != under:
                continue
            totals[span[0]] = (totals.get(span[0], 0.0)
                               + (span[2] - span[1]) - child[index])
        for (name, top), seconds in self._aggregated_under.items():
            if under is None or top == under:
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one JSON line ``[name, start, end, parent,
        op_id]``: clock seconds, parent index into the file (-1 at top
        level) and the operation the span belongs to."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent, op_id, _, _ in self.spans:
                out.write(json.dumps([name, start, end, parent, op_id]) + "\n")

    def durations(self, name: str) -> List[float]:
        """Wall durations of every span called ``name``."""
        return [span[2] - span[1] for span in self.spans if span[0] == name]

    def search_calls(self, name: str) -> Tuple[int, int]:
        """``(calls, queries)`` of the outermost spans called ``name``.

        A per-query backend answers a batch by calling its own single-query
        search; only the outer call counts, so a batch is one call.
        """
        calls = queries = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            if parent >= 0 and self.spans[parent][0] == name:
                continue
            calls += 1
            queries += span[6] or 0
        return calls, queries

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)
