"""The one worker-pool helper: worker counts, pool start-up and teardown.

Parallelism lives where it pays: the hardware and cache-geometry sweeps
(:class:`~repro.analysis.hw_sweep.HardwareScenarioSweep`,
:class:`~repro.analysis.cache_sweep.CacheGeometrySweep`), whose tasks are
whole scenario runs mapped through :func:`process_map`, and the
:class:`~repro.serve.service.QueryService`, whose persistent pool attaches
to a shared-memory store by name.  Every pool in the package is built
through this module, so they share one start method, one daemon check and
one worker-count rule.

Determinism contract
--------------------
:func:`process_map` collects results **by item index**, so the returned
list is in ``items`` order whatever order the workers complete in — the
property every deterministic merge built on it (the sweeps' by-task-index
collection, the service's request-order replies) rests on.
``tests/test_parallel_sweep.py`` checks a pooled sweep against the golden
snapshot.

Worker count resolution (:func:`resolve_workers`): an explicit count wins,
then the ``REPRO_MP_WORKERS`` environment variable, then
``max(2, min(4, cpu_count))``.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Optional, Sequence

__all__ = ["process_map", "resolve_workers"]


def resolve_workers(n_workers: Optional[int] = None) -> int:
    """The effective worker count of a pool (service, streaming runner, sweep).

    Precedence: an explicit ``n_workers`` (must be >= 1), then the
    ``REPRO_MP_WORKERS`` environment variable, then ``max(2, min(4, cpus))``
    — at least two so the pooled paths are exercised (and tested) even on
    single-core machines, at most four because the pure-Python workloads
    stop scaling long before the typical core count does.

    ``REPRO_MP_WORKERS`` must hold a positive integer; anything else
    (``"four"``, ``"0"``, ``"-2"``) raises a ``ValueError`` naming the
    variable instead of an opaque parse error or a silent clamp.  Blank or
    whitespace-only values count as unset and fall through to the default.
    """
    if n_workers is not None:
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        return n_workers
    env = os.environ.get("REPRO_MP_WORKERS")
    if env is not None and env.strip():
        text = env.strip()
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"REPRO_MP_WORKERS must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(
                f"REPRO_MP_WORKERS must be a positive integer, got {env!r}")
        return value
    return max(2, min(4, os.cpu_count() or 1))


def _pool_context():
    """The multiprocessing context: ``fork`` when available (cheap startup),
    ``spawn`` otherwise — workers receive all state through pickled
    arguments, so both behave identically."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _in_daemon_process() -> bool:
    """Whether this process cannot spawn children (pool workers are daemonic)."""
    return multiprocessing.current_process().daemon


def _terminate_pool(pool) -> None:
    """Tear down a persistent worker pool (its workers hold no state worth
    a graceful shutdown)."""
    pool.terminate()
    pool.join()


def process_map(fn: Callable, items: Sequence, *, n_jobs: int) -> List:
    """Order-preserving parallel map over ``items`` on a one-shot pool.

    Results are collected **by item index**, so the returned list is in
    ``items`` order no matter in which order the workers complete.  Falls
    back to a serial loop when ``n_jobs < 2``, when there is at most one
    item, or inside a daemon process (nested pools are not allowed).
    """
    if n_jobs < 2 or len(items) < 2 or _in_daemon_process():
        return [fn(item) for item in items]
    with _pool_context().Pool(processes=min(n_jobs, len(items))) as pool:
        handles = [pool.apply_async(fn, (item,)) for item in items]
        return [handle.get() for handle in handles]
