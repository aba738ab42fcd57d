"""Shared helpers of the benchmark: statistics, memory, environment report.

Nothing here imports the program under test, so ``run.py`` can print the
environment and fail cleanly when the program's sources are missing.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: The one clock every benchmark timing reads.
clock = time.perf_counter


class SpeedSampler:
    """Measures how fast the host runs while an operation runs.

    Shared hosts change speed by tens of percent within seconds, which would
    swamp a change in the program.  While the sampler runs, a timer signal
    interrupts the main thread every :data:`INTERVAL_S` and runs a fixed
    kernel twice.  An operation timed between ``t0`` and ``t1`` is then
    reported in *calibrated time*: its wall time, minus the kernel runs that
    interrupted it, scaled by ``REFERENCE_S / mean(kernel CPU time during
    the operation)`` — the time it would take on a host where the kernel
    takes exactly ``REFERENCE_S``.

    The kernel mixes what the program does — interpreted loops over dicts,
    small NumPy array operations and a sort over a cache-sized array — and
    never calls the program.  Only its second run is timed: the first
    refills the caches the interrupted program evicted, so the sample
    measures the host and not what the program did just before (a single
    cold run absorbed 13–39% of an injected slow-down; ``calibcheck.py``
    injects known changes and shows that calibrated and wall deltas agree).
    Kernel time is thread CPU time, so other busy threads or processes on
    this machine do not inflate it.
    """

    #: Nominal kernel CPU time; calibrated times are expressed against it.
    REFERENCE_S = 0.001
    #: Wall time between kernel runs.
    INTERVAL_S = 0.05

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20231)
        self._small = rng.random((16, 3))
        self._large = rng.random(1 << 13)
        #: ``(start, end, cpu_seconds)`` of every kernel run, in clock time.
        self.runs: List[Tuple[float, float, float]] = []
        #: Called with the wall seconds of each kernel run (tracing uses it
        #: to keep kernel runs out of layer self times).
        self.on_run: Optional[Callable[[float], None]] = None
        self._busy = False
        self._previous = None
        for _ in range(3):  # first-call costs are not a sample
            self._kernel()

    def _kernel(self) -> float:
        start = time.thread_time()
        table: Dict[int, float] = {}
        for i in range(2400):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        query = self._small[0]
        for _ in range(100):
            delta = self._small - query
            (delta * delta).sum(axis=1).argmin()
        self._large.copy().sort()
        return time.thread_time() - start

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = clock()
            self._kernel()  # warm-up: refills what the program evicted
            cpu = self._kernel()
            end = clock()
            self.runs.append((start, end, cpu))
            if self.on_run is not None:
                self.on_run(end - start)
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, t0: float, t1: float) -> Tuple[float, float]:
        """``(scale, interrupted)`` for an operation timed from ``t0`` to
        ``t1``: the factor from wall to calibrated time, and the wall
        seconds kernel runs took inside the window.  A window too short to
        hold a kernel run borrows the runs just before and after it."""
        inside = [run for run in self.runs if t0 <= run[0] and run[1] <= t1]
        interrupted = sum(end - start for start, end, _ in inside)
        if not inside:
            before = [run for run in self.runs if run[1] <= t0][-1:]
            after = [run for run in self.runs if run[0] >= t1][:1]
            inside = before + after
        if not inside:
            raise RuntimeError("no speed samples; is the sampler running?")
        cpu = sum(run[2] for run in inside) / len(inside)
        return self.REFERENCE_S / cpu, interrupted

    def calibrated(self, t0: float, t1: float, same_thread: bool = True) -> float:
        """Calibrated seconds of an operation timed from ``t0`` to ``t1``.

        ``same_thread``: the operation ran in the main thread, so the kernel
        runs inside the window interrupted it and are subtracted."""
        scale, interrupted = self.window(t0, t1)
        return ((t1 - t0) - (interrupted if same_thread else 0.0)) * scale

    def summary(self) -> str:
        cpu = [run[2] for run in self.runs]
        if not cpu:
            return "speed samples: none"
        return (f"speed samples: {len(cpu)}, kernel CPU median "
                f"{1000 * median(cpu):.4f} ms, range {1000 * min(cpu):.4f}-"
                f"{1000 * max(cpu):.4f} ms (reference "
                f"{1000 * self.REFERENCE_S:g} ms)")


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  With ``n`` samples sorted
    ascending, the sample at rank ``n - 11`` is the highest one that still
    has ten samples above it, so it sits at percentile ``100 (n - 10) / n``.
    A sample of ten or fewer has no such percentile; its minimum is
    reported, at percentile ``100 / n``, and the printed ``n`` says so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    rank = max(n - 11, 0)
    return float(ordered[rank]), 100.0 * (rank + 1) / n, n


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident memory in MB of this process (or of it and its
    waited-for children, whichever is larger)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kb = max(peak_kb,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def stop_child_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    A shared-memory store starts multiprocessing's resource tracker, which on
    its own exits only after it reads end-of-file once this process is gone,
    so it would outlive the run.  Closing its pipe here lets it release what
    is still registered and end now; any other child left over (there should
    be none: the service joins its pool) is killed and reaped.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _child_pids() -> List[int]:
    """Process ids whose parent is this process (Linux ``/proc``)."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; the parent id follows its ')'.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def environment_lines(workers: int, client_threads: int) -> List[str]:
    """The run's machine and concurrency facts, one ``key: value`` per line."""
    import numpy

    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
    environ = os.environ  # repro-lint: disable=determinism-env-read -- reported, not used
    blas = {name: environ.get(name, "unset")
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}
    return [
        f"nproc: {affinity} (cpu_count {os.cpu_count()})",
        f"python: {platform.python_version()} ({sys.implementation.name})",
        f"numpy: {numpy.__version__}",
        f"machine: {platform.machine()} {platform.system()}",
        f"service workers: {workers} (pinned; REPRO_MP_WORKERS="
        f"{environ.get('REPRO_MP_WORKERS', 'unset')} is not read)",
        f"client threads: {client_threads}",
        "blas threads: " + ", ".join(f"{k}={v}" for k, v in blas.items()),
    ]


@dataclass
class Latencies:
    """Per-operation times of one loop, in seconds, by operation kind."""

    samples: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)

    def p50_ms(self, kind: str) -> float:
        return 1000.0 * median(self.samples[kind])

    def mean_ms(self, kind: str) -> float:
        return 1000.0 * statistics.fmean(self.samples[kind])

    def tail_ms(self, kind: str) -> Tuple[float, float, int]:
        value, percentile, n = tail(self.samples[kind])
        return 1000.0 * value, percentile, n

    def count(self, kind: str) -> int:
        return len(self.samples.get(kind, ()))


def timed_setups(count: int, make: Callable[[], T], discard: Callable[[T], None],
                 sampler: SpeedSampler) -> Tuple[T, float, List[str]]:
    """Set up ``count`` times under the running sampler; keep the last,
    report the median calibrated set-up time and a line with every sample.
    Each set-up but the last is discarded and dropped before the next one
    starts, so two never hold memory at once."""
    scaled, wall = [], []
    ready = None
    for number in range(count):
        if ready is not None:
            discard(ready)
            ready = None
        start = clock()
        ready = make()
        end = clock()
        scaled.append(sampler.calibrated(start, end))
        wall.append(end - start)
    line = ("setup_s samples (calibrated / wall): "
            + ", ".join(f"{a:.3f}/{b:.3f}" for a, b in zip(scaled, wall)))
    return ready, median(scaled), [line]


def latency_lines(latencies: "Latencies", wall: "Latencies",
                  kinds: Sequence[Tuple[str, str]]) -> List[str]:
    """Report lines ``<name>_p50`` and ``<name>_tail`` per operation kind,
    calibrated, with the wall-clock median alongside."""
    lines = []
    for kind, name in kinds:
        value, percentile, n = latencies.tail_ms(kind)
        lines += [
            f"{name}_p50: {latencies.p50_ms(kind):.3f} ms (N={n}; wall "
            f"{wall.p50_ms(kind):.3f} ms)",
            f"{name}_tail: {value:.3f} ms (p{percentile:.1f}, N={n}; wall "
            f"{wall.tail_ms(kind)[0]:.3f} ms)",
        ]
    return lines


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    ``metrics`` maps a ``BENCHMARK.json`` metric name to ``(value, unit)``;
    ``lines`` are human-readable report lines printed before the result.
    """

    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    lines: List[str] = field(default_factory=list)
