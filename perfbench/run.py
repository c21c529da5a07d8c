"""The repo benchmark: one command, one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload riskmap_hot --seed 1 --seconds 10 \\
        --trace 0

Workloads: ``riskmap_hot``, ``riskmap_miss``, ``plan_reload`` (the
``repro serve`` daemon as a subprocess, see ``serving.py``) and ``fit``
(library fits in a child process, see ``fitload.py``). With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics from spans the benchmark records around each layer's
public calls (``tracing.py``). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (each
``{"value", "unit"}``). The line before it is a JSON report with the
fingerprint, the workload's properties and the raw samples. Outputs are
checked against the library; a wrong output makes the exit code 1.

Everything the run writes goes under ``.bench_build/perfbench/`` in the
checkout and is removed at the end.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every child: the daemon's request
# threads and its n_jobs fan-out already use every core, and OpenBLAS's
# own thread pool on top of them makes riskmap_miss latency unsteady.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("riskmap_hot", "riskmap_miss", "plan_reload", "fit")


class Context:
    """Where a run lives, what it may start, and what it started."""

    def __init__(self, workload: str, seed: int):
        self.root = ROOT
        self.bench_dir = BENCH_DIR
        self.nproc = len(os.sched_getaffinity(0))
        self.workdir = (ROOT / ".bench_build" / "perfbench"
                        / f"{workload}-{seed}-{os.getpid()}")
        self.workdir.mkdir(parents=True)
        pythonpath = [str(SRC), str(BENCH_DIR)]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        self.child_env = {**os.environ, **BLAS_THREADS,
                          "PYTHONPATH": os.pathsep.join(pythonpath)}
        self.processes: list[subprocess.Popen] = []

    def close(self) -> None:
        """Stop anything still running, then remove the run's files."""
        for proc in self.processes:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.workdir, ignore_errors=True)


def source_digest() -> str:
    """sha256 over ``src/`` (the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except OSError:
        return None
    return result.stdout.strip() or None if result.returncode == 0 else None


def fingerprint(ctx: Context, workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    import serving

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.machine())
    return {
        "nproc": ctx.nproc,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "daemon_flags": serving.daemon_args("<models>", ctx.nproc),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    ctx = Context(args.workload, args.seed)
    try:
        if args.workload == "fit":
            import fitload

            result = fitload.run(ctx, args.seed, args.seconds,
                                 bool(args.trace))
        else:
            import serving

            result = serving.run(ctx, args.workload, args.seed, args.seconds,
                                 bool(args.trace))
        report = result.pop("report")
        report["fingerprint"] = fingerprint(ctx, args.workload, args.seed)
        report["error_rate"] = result["failed"] / result["attempted"]
    finally:
        ctx.close()
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in sorted(result["metrics"].items())
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
