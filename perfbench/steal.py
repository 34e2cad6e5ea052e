"""Time the hypervisor takes from this machine's CPUs.

The benchmark VM shares its host.  When the host is busy, the hypervisor
runs other guests on the VM's CPUs for seconds at a time, and a timed
interval grows by time in which the timed code wanted a CPU and got none.
Linux counts that time as steal, the eighth field of the ``cpu`` line of
/proc/stat, summed over CPUs.  In a busy hour it took up to 49% of the
VM's CPU time during a benchmark run, and the median call wall time of
one run read up to 1.9 times that of another run of the same code.

``unstolen`` takes from a wall time the time stolen over the same
interval, divided among the CPUs the timed code keeps busy: a single
thread that loses a second loses a second of wall time; code that keeps
both CPUs busy loses about half a second when each CPU loses half a
second.  With nothing stolen, the wall time is returned unchanged.
"""
from __future__ import annotations

import os
import time

_TICK = os.sysconf("SC_CLK_TCK")


def stolen_s() -> float:
    """CPU seconds stolen from all CPUs since boot; 0 where not counted."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return int(f.readline().split()[8]) / _TICK
    except (OSError, IndexError, ValueError):
        return 0.0


def start() -> tuple:
    """The counters at the start of a timed interval, for ``elapsed``."""
    return time.perf_counter(), stolen_s()


def elapsed(begin: tuple) -> dict:
    """``wall_s`` and ``stolen_s`` since ``begin = start()``."""
    wall, stolen = begin
    return {"wall_s": time.perf_counter() - wall,
            "stolen_s": stolen_s() - stolen}


def unstolen(e: dict, busy_cpus: int) -> float:
    """The wall time of ``e = elapsed(...)`` less the time stolen from it,
    for code that keeps ``busy_cpus`` CPUs busy."""
    return e["wall_s"] - e["stolen_s"] / busy_cpus
