"""Checks that calibrated time tracks a known change to the program.

    python3 perfbench/calibcheck.py --workload <name> --seed <n> --seconds <s> \
        --inject work|footprint [--units <n>]

Every time the benchmark reports is calibrated by ``common.SpeedSampler``.
That is sound only if a change to the program moves calibrated time as much
as wall time, which fails if the change also alters the speed of the
sampler's kernel.  This script injects a known change and measures both.

* ``work`` adds a fixed amount of interpreted and NumPy work (a fixed
  operation count, not a fixed time) to one stage of every operation.
* ``footprint`` adds random reads over a 64 MB array to the same stage,
  so the program's working set outgrows the caches.

The stage is cluster extraction (frame) and NDT registration (scan) on
``drive-*``, and the worker's handling of each request on ``map-serve``,
where a second service is forked with the change installed.  Each
operation runs twice on the same input, once plain and once changed, in
alternating order, under the running sampler.  The report gives, per
operation kind, the median changed / plain ratio of calibrated time, of
wall time and of the kernel's CPU time (see :meth:`Windows.report`).
Calibration tracks the change when the kernel ratio is 1 and the
calibrated delta matches the wall delta of the pairs the host ran steadily.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: A pair is steady when its two windows' kernel CPU times differ by at
#: most this share.
STEADY = 0.05
#: Elements of the array the ``footprint`` change reads at random (64 MB).
FOOTPRINT_ELEMENTS = 1 << 23


class Change:
    """The injected change: ``units`` repetitions of a fixed operation."""

    def __init__(self, kind: str, units: int):
        import numpy as np

        self.kind = kind
        self.units = units
        rng = np.random.default_rng(99)
        if kind == "footprint":
            self._big = rng.random(FOOTPRINT_ELEMENTS)
            self._index = rng.integers(0, FOOTPRINT_ELEMENTS, size=12_500)
        else:
            self._small = rng.random(64)

    def __call__(self) -> float:
        total = 0.0
        for _ in range(self.units):
            if self.kind == "footprint":
                total += float(self._big[self._index].sum())
            else:
                for i in range(400):
                    total += i * 0.5
                total += float((self._small * self._small).sum())
        return total


def _wrap(owner, attr: str, change: Change) -> Callable[[], None]:
    """Run ``change`` before every call of ``owner.attr`` (a module's
    function or a class's method); returns the undo."""
    original = vars(owner)[attr]

    def wrapper(*args, **kwargs):
        change()
        return original(*args, **kwargs)

    wrapper.__name__ = original.__name__
    wrapper.__qualname__ = original.__qualname__
    wrapper.__module__ = original.__module__
    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)


class Windows:
    """Timing windows of plain and changed operations, by kind.

    Each window belongs to a pair: the same input, run plain and changed
    one right after the other, so a host speed change between the two
    is small.
    """

    def __init__(self):
        self.items: List[Tuple[str, int, bool, float, float, bool]] = []

    def add(self, kind: str, pair: int, changed: bool, t0: float, t1: float,
            same_thread: bool = True) -> None:
        self.items.append((kind, pair, changed, t0, t1, same_thread))

    def report(self, sampler) -> List[str]:
        """Per kind, medians over pairs of the changed / plain ratio of
        calibrated time, wall time and kernel CPU time.

        The host's speed can change within a pair, which moves the wall
        ratio but not the calibrated one.  So the wall ratio is also given
        over the *steady* pairs, whose two windows saw kernel CPU times
        within :data:`STEADY` of each other.  Calibration absorbs part of
        the change exactly when the change slows the kernel, so a kernel
        ratio of 1 is the direct test.
        """
        from common import median

        lines = []
        for kind in sorted({item[0] for item in self.items}):
            # pair -> changed -> (calibrated, wall, kernel CPU)
            pairs: Dict[int, Dict[bool, Tuple[float, float, float]]] = {}
            for name, pair, changed, t0, t1, same in self.items:
                if name == kind:
                    scale, _ = sampler.window(t0, t1)
                    pairs.setdefault(pair, {})[changed] = (
                        sampler.calibrated(t0, t1, same), t1 - t0,
                        sampler.REFERENCE_S / scale)
            ratios = [[pair[True][column] / pair[False][column]
                       for column in range(3)]
                      for pair in pairs.values() if len(pair) == 2]
            steady = [ratio for ratio in ratios
                      if abs(ratio[2] - 1.0) <= STEADY]
            cal, wall, kernel = (median([ratio[column] for ratio in ratios])
                                 for column in range(3))
            steady_wall = (f"{100 * (median([r[1] for r in steady]) - 1):+.1f}%"
                           if steady else "n/a")
            lines.append(
                f"{kind}: {len(ratios)} pairs; changed/plain p50: calibrated "
                f"{100 * (cal - 1):+.1f}%, wall {100 * (wall - 1):+.1f}%, "
                f"wall over {len(steady)} steady pairs {steady_wall}; "
                f"kernel CPU {kernel:.3f}")
        return lines


def check_drive(workload: str, seed: int, seconds: float,
                change: Change) -> List[str]:
    import numpy as np

    import drive
    from common import SpeedSampler, clock
    from repro.perception.euclidean_cluster import EuclideanClusterExtractor
    from repro.perception.ndt import NDTMatcher
    from repro.workloads.autoware import EuclideanClusterPipeline
    from repro.workloads.pipeline import FrameFold, PipelineRunnerConfig

    execution, _ = drive.EXECUTIONS[workload]
    config = PipelineRunnerConfig()
    drives = drive.setup(seed, execution, drive.SCALES["full"], config)
    pipeline = EuclideanClusterPipeline(config.pipeline)
    perturbation = np.asarray(config.initial_translation_error)
    windows = Windows()

    def step(index: int, frame: int, fold: FrameFold, changed: bool,
             pair: int) -> None:
        item = drives[index]
        undo = []
        if changed:
            undo = [_wrap(EuclideanClusterExtractor, "extract", change),
                    _wrap(NDTMatcher, "register", change)]
        try:
            t0 = clock()
            measurement = pipeline.run_frame(item.clouds[frame],
                                             frame_index=frame,
                                             execution=execution)
            fold.fold(frame, item.clouds[frame], measurement)
            t1 = clock()
            item.ndt.register_scan(
                item.clouds[frame], scan_index=frame,
                initial_translation=item.truths[frame] + perturbation)
            t2 = clock()
        finally:
            for restore in undo:
                restore()
        windows.add("frame", pair, changed, t0, t1)
        windows.add("scan", pair, changed, t1, t2)

    sampler = SpeedSampler()
    with sampler:
        start = clock()
        number = 0
        while clock() - start < seconds:
            folds = {flag: [FrameFold(config, execution) for _ in drives]
                     for flag in (False, True)}
            for frame in range(len(drives[0].clouds)):
                for index in range(len(drives)):
                    order = (False, True) if number % 2 == 0 else (True, False)
                    for changed in order:
                        step(index, frame, folds[changed][index], changed,
                             number)
                    number += 1
    return windows.report(sampler) + [sampler.summary()]


def check_serve(seed: int, seconds: float, change: Change) -> List[str]:
    import mapserve
    from common import SpeedSampler, clock
    from repro.serve import QueryService
    from repro.serve import service as service_module

    ready = mapserve.setup(seed, mapserve.SCALES["full"])
    # Workers are forked when a pool starts, so a service started while
    # the change is installed runs the changed request handler.
    undo = _wrap(service_module, "_serve_one", change)
    changed_service = QueryService(ready.store, n_workers=mapserve.WORKERS)
    try:
        changed_service.serve([("radius", ready.requests[0].queries,
                                mapserve.RADIUS, mapserve.BACKEND)])
    finally:
        undo()
    services = {False: ready.service, True: changed_service}
    windows = Windows()
    lock = threading.Lock()
    cursor = [0]
    sampler = SpeedSampler()
    errors: List[BaseException] = []

    def client() -> None:
        try:
            while clock() - start < seconds:
                with lock:
                    number = cursor[0]
                    cursor[0] += 1
                request = ready.requests[number % len(ready.requests)]
                order = (False, True) if number % 2 == 0 else (True, False)
                for changed in order:
                    t0 = clock()
                    mapserve._send(services[changed], request)
                    t1 = clock()
                    with lock:
                        windows.add(request.kind, number, changed, t0, t1,
                                    False)
        except BaseException as exc:  # re-raised after join
            errors.append(exc)

    try:
        with sampler:
            start = clock()
            threads = [threading.Thread(target=client)
                       for _ in range(mapserve.CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        changed_service.close()
        ready.close()
    if errors:
        raise errors[0]
    return windows.report(sampler) + [sampler.summary()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--inject", required=True,
                        choices=("work", "footprint"))
    parser.add_argument("--units", type=int, default=100,
                        help="repetitions of the injected operation per call")
    args = parser.parse_args(argv)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")  # repro-lint: disable=determinism-env-read -- pins BLAS threads
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    change = Change(args.inject, args.units)
    print(f"workload: {args.workload}; seed {args.seed}; {args.seconds:g} s; "
          f"change: {args.inject} x {args.units}")
    from common import stop_child_processes

    try:
        if args.workload == "map-serve":
            lines = check_serve(args.seed, args.seconds, change)
        else:
            lines = check_drive(args.workload, args.seed, args.seconds, change)
    finally:
        stop_child_processes()
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
