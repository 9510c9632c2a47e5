"""How many cores a process pool could use here.

One definition for every multi-process path: the sharded fault-simulation
backend (:mod:`repro.fsim.sharded`) and the batch PODEM pool
(:meth:`repro.atpg.podem.PodemEngine.outcomes`).
"""

from __future__ import annotations

import multiprocessing
import os


def available_cores() -> int:
    """Usable CPU cores (CPU-affinity aware where the OS exposes it)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def parallel_available() -> bool:
    """Whether spawning a worker pool can possibly help here.

    False inside daemonic worker processes (they may not have children —
    a sharded worker must never recursively shard) and on single-core
    hosts (process parallelism cannot beat one core).
    """
    if multiprocessing.current_process().daemon:
        return False
    return available_cores() > 1
