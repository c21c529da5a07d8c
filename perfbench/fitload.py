"""iWare-E ensemble fits through the library: the ``fit`` workload.

A *round* fits GPB-iW and DTB-iW on the MFNP training split, each at
``n_jobs=1`` and ``n_jobs=nproc`` with ``backend="auto"``, in a seeded
order, all in the shape ``repro predict --save-model`` saves
(:data:`common.MODEL_SHAPE`). Every fitted model predicts the held-out
year, and each model's predictions must be bit-identical across all of its
fits, serial and parallel.

The ``fit`` workload itself runs in a child process, so its fits run in a
fresh interpreter whose peak memory is theirs alone. Before every second
fit the child generates the MFNP history afresh and fits on its split, as
``repro predict`` does. ``setup_s`` is the median CPU time of a
generation, and ``cpu_ms_per_op`` the CPU time of the fits (this process
and its pool workers) per fit. Spreading the generations over the run
between the fits lets the box's drift within a run reach both alike. The
child fits whole rounds until the time is up.

Child usage: ``python perfbench/fitload.py OUT SEED SECONDS TRACE NPROC``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import layers
import tracing
from common import (DATA_SEED, MODEL_SHAPE, bit_identical, cpu_seconds,
                    vm_hwm_mb)

FIT_SEED = 21
#: The history is generated afresh before every second fit: enough
#: ``setup_s`` samples, while a round (~8.5 s) stays short enough that a
#: run always holds two.
GENERATE_EVERY = 2
MODELS = ("gpb", "dtb")


def fit_once(train, model: str, n_jobs: int, seed: int = FIT_SEED):
    """Fit one predictor; returns it, the wall seconds and the CPU seconds
    of this process and its pool workers."""
    from repro.core import PawsPredictor

    predictor = PawsPredictor(model=model, seed=seed, n_jobs=n_jobs,
                              backend="auto", **MODEL_SHAPE)
    cpu = cpu_seconds(os.getpid())
    start = time.perf_counter()
    predictor.fit(train)
    elapsed = time.perf_counter() - start
    return predictor, elapsed, cpu_seconds(os.getpid()) - cpu


def mfnp_split():
    """Generate the MFNP history; its split and the generation's CPU time
    (generation runs on this thread alone)."""
    from repro.data import MFNP, generate_dataset

    start = time.process_time()
    data = generate_dataset(MFNP, seed=DATA_SEED)
    elapsed = time.process_time() - start
    return data.dataset.split_by_test_year(MFNP.years - 1), elapsed


class FitRounds:
    """Fits rounds and checks every fit's predictions against the first."""

    def __init__(self, test_X, nproc: int, seed: int):
        self.test_X = test_X
        self.configs = [(m, n) for m in MODELS for n in (1, nproc)]
        self.rng = np.random.default_rng(seed)
        self.predictions = {}
        self.generations: list[float] = []
        self.reset()
        self.checked = 0
        self.wrong = 0

    def reset(self) -> None:
        self.fits = {config: [] for config in self.configs}
        self.rounds: list[float] = []
        self.cpu = 0.0

    def check(self, model: str, predictor) -> None:
        predicted = predictor.predict_proba(self.test_X)
        reference = self.predictions.setdefault(model, predicted)
        self.checked += 1
        self.wrong += not bit_identical(predicted, reference)

    def round(self) -> None:
        total = 0.0
        order = self.rng.permutation(len(self.configs))
        for position, index in enumerate(order):
            model, n_jobs = self.configs[index]
            if position % GENERATE_EVERY == 0:
                split, generation = mfnp_split()
                self.generations.append(generation)
            predictor, elapsed, cpu = fit_once(split.train, model, n_jobs)
            total += elapsed
            self.cpu += cpu
            self.fits[(model, n_jobs)].append(elapsed)
            self.check(model, predictor)
        self.rounds.append(total)

    def run_for(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` have passed (at least one)."""
        end = time.perf_counter() + seconds
        self.round()
        while time.perf_counter() < end:
            self.round()


def child(out: str, seed: int, seconds: float, trace: bool, nproc: int):
    # Held-out features for the checks; this first, cold generation warms
    # the interpreter and is not timed.
    split, __ = mfnp_split()
    rounds = FitRounds(split.test.feature_matrix, nproc, seed)
    result = {}
    if trace:
        # Untraced then traced rounds, half the time each.
        rounds.run_for(seconds / 2.0)
        result["untraced_rounds"] = rounds.rounds
        rounds.reset()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        rounds.run_for(seconds / 2.0)
        tracer.dump(out + ".spans")
    else:
        rounds.run_for(seconds)
    result.update(
        setups_cpu_s=rounds.generations,
        rounds=rounds.rounds,
        cpu_s=rounds.cpu,
        fits={f"{m}/{n}": times for (m, n), times in rounds.fits.items()},
        checked=rounds.checked,
        wrong=rounds.wrong,
        peak_rss_mb=vm_hwm_mb("self"),
    )
    with open(out, "w") as handle:
        json.dump(result, handle)


def run(ctx, seed: int, seconds: float, trace: bool):
    out = ctx.workdir / "fit.json"
    command = [sys.executable, str(ctx.bench_dir / "fitload.py"), str(out),
               str(seed), repr(float(seconds)), str(int(trace)),
               str(ctx.nproc)]
    proc = subprocess.Popen(command, cwd=ctx.root, env=ctx.child_env)
    ctx.processes.append(proc)
    try:
        code = proc.wait(timeout=150)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("the fit child did not finish in 150 s")
    if code != 0:
        raise RuntimeError(f"the fit child exited {code}")
    with open(out) as handle:
        result = json.load(handle)
    rounds = result["rounds"]
    n_fits = sum(len(times) for times in result["fits"].values())
    report = {
        "rounds": len(rounds), "fits": n_fits, "round_s": rounds,
        "fit_median_s": {config: float(np.median(times))
                         for config, times in result["fits"].items()},
        "fit_s": result["fits"], "setups_cpu_s": result["setups_cpu_s"],
        "fits_cpu_s": result["cpu_s"],
        "p50_ms": float(np.median(rounds)) * 1e3,
        # A run holds two or three rounds, too few for any percentile
        # above the median to have a sample beyond it: the slowest round.
        "tail_ms": float(np.max(rounds)) * 1e3,
        "throughput_rps": n_fits / sum(rounds),
        "checks": {"checked": result["checked"], "wrong": result["wrong"]},
    }
    if trace:
        spans = tracing.SpanSet.load(str(out) + ".spans")
        metrics = layers.fit_layer_metrics(
            spans,
            float(np.median(result["untraced_rounds"])) * 1e3,
            float(np.median(rounds)) * 1e3,
        )
    else:
        metrics = {
            "setup_s": (float(np.median(result["setups_cpu_s"])), "s"),
            "cpu_ms_per_op": (result["cpu_s"] / n_fits * 1e3, "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        }
    return {
        "correct": result["wrong"] == 0,
        "attempted": result["checked"],
        "failed": result["wrong"],
        "metrics": metrics,
        "report": report,
    }


if __name__ == "__main__":
    out_file, seed_arg, seconds_arg, trace_arg, nproc_arg = sys.argv[1:6]
    child(out_file, int(seed_arg), float(seconds_arg), trace_arg == "1",
          int(nproc_arg))
