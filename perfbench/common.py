"""Small helpers shared by the workloads."""

from __future__ import annotations

import os

import numpy as np

#: Seed of every park history the workloads fit on and serve (the repo's
#: default seed). The workload seed varies only the requests: generation
#: time varies 0.12-0.95 s between park histories, and whether the robust
#: patrol utilities are concave (LP solve, ~30 ms) or not (MILP, 2-8 s)
#: depends on the fitted model, so a seeded history would make set-up,
#: cold-request and plan times depend on the seed rather than the code.
DATA_SEED = 0

#: Ensemble shape of every model the workloads fit, fit-time and served:
#: the one ``repro predict --save-model`` saves (``--n-classifiers 6``,
#: ``PawsPredictor``'s 5 bagging members and 250-point GP training cap).
MODEL_SHAPE = {"n_classifiers": 6, "n_estimators": 5, "gp_max_points": 250}


def percentile_ms(latencies, q) -> float:
    return float(np.percentile(np.asarray(latencies) * 1e3, q))


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _proc_stat(pid) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state first)."""
    with open(f"/proc/{pid}/stat") as handle:
        data = handle.read()
    return data[data.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a process and all its descendants.

    Each process in the tree adds its own time and that of the children it
    has already waited for, so a pool worker counts while it lives and,
    once reaped, through its parent. Unlike wall time, CPU time does not
    grow while the host steals the virtual CPU.
    """
    stats, children = {}, {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _proc_stat(entry)
        except OSError:  # exited during the scan
            continue
        stats[int(entry)] = fields
        children.setdefault(int(fields[1]), []).append(int(entry))
    if pid not in stats:
        raise RuntimeError(f"no process {pid}")
    ticks, todo = 0, [pid]
    while todo:
        current = todo.pop()
        # utime, stime, cutime, cstime
        ticks += sum(int(value) for value in stats[current][11:15])
        todo.extend(children.get(current, ()))
    return ticks / os.sysconf("SC_CLK_TCK")


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64)).view(
        np.uint64)


def bit_identical(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))
