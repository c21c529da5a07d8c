"""The serving workloads: the shipped daemon under closed-loop keep-alive load.

Each run fits and saves its own models, then starts ``python -m repro
serve`` as a subprocess :data:`SETUPS` times. Every start is timed from
spawn until its warm-up is done, in wall time and in the daemon's CPU time
(``setup_s``); the first ``/riskmap`` after each spawn is the cold request.
The last daemon started is the one put under load; its CPU time over the
timed phase per correct reply is ``cpu_ms_per_op``. Load comes from this
process: ``nproc`` threads, each owning one keep-alive ``http.client``
connection, each sending its next request only once the previous reply is
in (a closed loop — the few callers of a park service each wait for their
answer). An open-loop rate sweep is left out on purpose: while every
keep-alive reply stalls ~40 ms in Nagle's algorithm, one connection cannot
exceed ~23 requests/s, so a sweep would only measure that stall.

Every reply is checked against the library after the timed phase (so the
checks cost the daemon nothing): ``/riskmap`` bodies must be float64
bit-identical to :meth:`RiskMapService.risk_map` on the same saved
artifact, and ``/plan`` objective and coverage must equal
:class:`PlanService` on the model version the reply names.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time

import numpy as np

import fitload
import layers
import tracing
from common import (DATA_SEED, MODEL_SHAPE, bit_identical, cpu_seconds,
                    percentile_ms, vm_hwm_mb)

#: Daemon starts per run; ``setup_s`` and the cold request are medians.
SETUPS = 2
#: ``ModelRegistry``'s default result-cache capacity (entries per park).
CACHE_CAPACITY = 32
#: Tail percentile reported as ``tail_ms``: the highest of p99/p95/p90
#: with ten samples beyond it where a run has one. On ``riskmap_hot`` p99
#: has only ~5 samples beyond it in a run, so p95 (~27). On ``plan_reload``
#: p95 has ~13 and a slower daemon would take it under ten, so p90 (~26).
#: A run of ``riskmap_miss`` holds only ~38 replies (a miss takes ~0.65 s),
#: so none qualifies there; p90, with ~4 beyond it.
TAIL_PERCENTILE = {"riskmap_hot": 95, "riskmap_miss": 90, "plan_reload": 90}
#: Every R-th ``plan_reload`` operation publishes a model and reloads it.
RELOAD_EVERY = 50
BETAS = (0.2, 0.4, 0.6, 0.8, 1.0)
#: SWS is served by balanced DTB-iW (its labels are ~1% positive), MFNP by
#: GPB-iW, both in the shape ``repro predict --save-model`` saves.
SWS_MODEL = {"model": "dtb", "balanced": True, "seed": 13, **MODEL_SHAPE}
#: Seeds of the served MFNP model and the alternate ``plan_reload``
#: publishes.
MFNP_SEEDS = {"A": 11, "B": 12}


def daemon_args(models_dir, nproc: int) -> list[str]:
    """The ``repro serve`` flags every serving run uses (recorded as-is)."""
    return ["--models-dir", str(models_dir), "--port", "0",
            "--n-jobs", str(nproc)]


# ---------------------------------------------------------------------------
# The daemon subprocess
# ---------------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` subprocess (optionally the traced launcher)."""

    def __init__(self, ctx, models_dir, spans_file=None):
        self.ctx = ctx
        self.args = daemon_args(models_dir, ctx.nproc)
        if spans_file is None:
            command = [sys.executable, "-m", "repro", "serve", *self.args]
        else:
            command = [sys.executable,
                       str(ctx.bench_dir / "traced_serve.py"),
                       str(spans_file), *self.args]
        self.stderr = open(ctx.workdir / "daemon.err", "ab")
        self.proc = subprocess.Popen(
            command, cwd=ctx.root, env=ctx.child_env, text=True,
            stdout=subprocess.PIPE, stderr=self.stderr,
        )
        ctx.processes.append(self.proc)
        watchdog = threading.Timer(120.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        address = line.split("listening on http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    def stats(self) -> dict:
        """The daemon's ``/stats`` body."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", "/stats")
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> bool:
        """SIGTERM (graceful drain); True when the daemon exited 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = None
        self.proc.stdout.close()
        self.stderr.close()
        return code == 0


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------
class Op:
    """One request of a workload's seeded sequence."""

    __slots__ = ("method", "path", "key", "write", "artifact")

    def __init__(self, method, path, key, write=False, artifact=None):
        self.method = method
        self.path = path
        self.key = key
        self.write = write
        self.artifact = artifact


class Record:
    __slots__ = ("op", "status", "body", "start", "end", "rid", "error",
                 "ok")

    def __init__(self, op, status, body, start, end, rid, error=None):
        self.op = op
        self.status = status
        self.body = body
        self.start = start
        self.end = end
        self.rid = rid
        self.error = error
        #: Answered 200 with a correct body; set by the output checks.
        self.ok = False

    @property
    def latency(self) -> float:
        return self.end - self.start


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def send(self, op: Op, rid: str) -> Record:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60)
        start = time.perf_counter()
        try:
            self.conn.request(op.method, op.path,
                              headers={tracing.REQUEST_ID_HEADER: rid})
            response = self.conn.getresponse()
            body = response.read()
            end = time.perf_counter()
            return Record(op, response.status, body, start, end, rid)
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return Record(op, 0, b"", start, time.perf_counter(), rid,
                          error=repr(exc))

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def closed_loop(port: int, n_conns: int, next_op, seconds: float,
                rid_prefix: str, publish=None):
    """Drive ``n_conns`` closed-loop connections for ``seconds``.

    ``next_op(i)`` gives operation ``i`` of the seeded sequence; a write
    operation first calls ``publish(op)`` (outside the timed request).
    Returns the records and the loop's start and end times.
    """
    lock = threading.Lock()
    write_lock = threading.Lock()
    counter = iter(range(10**9))
    barrier = threading.Barrier(n_conns + 1)
    results: list[list[Record]] = [[] for _ in range(n_conns)]
    clock = {}

    def worker(slot: int) -> None:
        client = Client(port)
        barrier.wait()
        end = clock["end"]
        try:
            while time.perf_counter() < end:
                with lock:
                    index = next(counter)
                op = next_op(index)
                if op.write:
                    with write_lock:  # one publish + reload at a time
                        publish(op)
                        results[slot].append(
                            client.send(op, f"{rid_prefix}{index}"))
                    continue
                results[slot].append(client.send(op, f"{rid_prefix}{index}"))
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(n_conns)]
    for thread in threads:
        thread.start()
    clock["start"] = time.perf_counter()
    clock["end"] = clock["start"] + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    records = sorted((r for rs in results for r in rs), key=lambda r: r.start)
    return records, clock["start"], max(
        (r.end for r in records), default=clock["end"])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class ServingWorkload:
    """Shared model preparation, warm-up, measurement and checks."""

    name = ""
    parks = ("MFNP",)

    def __init__(self, ctx, seed: int):
        from repro.core import PawsPredictor
        from repro.data import MFNP, SWS, generate_dataset

        self.ctx = ctx
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.models_dir = ctx.workdir / "models"
        self.refs_dir = ctx.workdir / "refs"
        self.save_seconds: list[float] = []
        self.predictors = {}
        self._services = {}
        self._features = {}
        # The training history doubles as the scale-1 serving context: the
        # daemon regenerates exactly this dataset for ?seed=DATA_SEED.
        self.data = {"MFNP": generate_dataset(MFNP, seed=DATA_SEED)}
        self.publish_mfnp("A")
        if "SWS" in self.parks:
            self.data["SWS"] = generate_dataset(SWS, seed=DATA_SEED)
            predictor = PawsPredictor(**SWS_MODEL)
            predictor.fit(self.split("SWS").train)
            self.publish_artifact("SWS", "SWS", predictor)

    # -- models ----------------------------------------------------------
    def split(self, park):
        data = self.data[park]
        return data.dataset.split_by_test_year(data.profile.years - 1)

    def publish_mfnp(self, artifact):
        predictor, *__ = fitload.fit_once(
            self.split("MFNP").train, "gpb", 1, seed=MFNP_SEEDS[artifact])
        self.publish_artifact(artifact, "MFNP", predictor)

    def publish_artifact(self, artifact, park, predictor):
        self.predictors[artifact] = predictor
        self.save(predictor, self.refs_dir / artifact)
        self.save(predictor, self.models_dir / park)

    def save(self, predictor, path) -> None:
        from repro.runtime.persistence import save_model

        start = time.perf_counter()
        save_model(predictor, path)
        self.save_seconds.append(time.perf_counter() - start)

    def service(self, artifact):
        """The library's own service over one saved artifact (the oracle)."""
        from repro.runtime.service import RiskMapService

        if artifact not in self._services:
            self._services[artifact] = RiskMapService.from_saved(
                self.refs_dir / artifact)
        return self._services[artifact]

    def features(self, park: str, scale: float):
        """The cell features the daemon derives for ``(park, seed, scale)``."""
        from repro.core import PawsPredictor
        from repro.data import generate_dataset, get_profile

        key = (park, scale)
        if key not in self._features:
            if scale == 1.0:
                data = self.data[park]
            else:
                data = generate_dataset(get_profile(park).scaled(scale),
                                        seed=DATA_SEED)
            self._features[key] = PawsPredictor.cell_feature_matrix(
                data.park, data.recorded_effort[-1])
        return self._features[key]

    def riskmap_path(self, park: str, effort: str, scale: float) -> str:
        return (f"/riskmap?park={park}&effort={effort}&seed={DATA_SEED}"
                f"&scale={scale}")

    # -- workload hooks ----------------------------------------------------
    def warmup_ops(self) -> list[Op]:
        raise NotImplementedError

    def next_op(self, index: int) -> Op:
        raise NotImplementedError

    def publish(self, op: Op) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the on-disk models a fresh daemon must start from."""

    def check(self, record: Record, versions: dict) -> bool:
        raise NotImplementedError

    # -- one daemon's life -------------------------------------------------
    def start(self, spans_file=None):
        """Spawn, then warm up.

        Returns the daemon, its warm-up records, and the set-up's wall time
        and CPU time (the daemon's, from spawn to the last warm-up reply).
        """
        self.reset()
        start = time.perf_counter()
        daemon = Daemon(self.ctx, self.models_dir, spans_file)
        client = Client(daemon.port)
        warm = [client.send(op, f"warm{i}")
                for i, op in enumerate(self.warmup_ops())]
        client.close()
        setup = time.perf_counter() - start
        return daemon, warm, setup, cpu_seconds(daemon.proc.pid)

    def measure(self, daemon, seconds: float, rid_prefix: str):
        """The timed phase: its records, bounds, the daemon's CPU seconds
        over it, and the daemon's ``/stats`` after it."""
        cpu = cpu_seconds(daemon.proc.pid)
        records, begin, end = closed_loop(
            daemon.port, self.ctx.nproc, self.next_op, seconds, rid_prefix,
            publish=self.publish,
        )
        cpu = cpu_seconds(daemon.proc.pid) - cpu
        stats = daemon.stats()
        return records, begin, end, cpu, stats

    # -- checking ----------------------------------------------------------
    def check_all(self, batches) -> tuple[int, int, list[str]]:
        """(checked, wrong, first problems) over every record batch.

        ``batches`` is a list of ``(records, versions)``: ``versions`` maps
        a model version a reply names to the artifact it was loaded from.
        Marks each record ``ok`` when it was answered 200 and is correct.
        """
        checked = wrong = 0
        problems: list[str] = []
        seen: dict = {}
        for records, versions in batches:
            for record in records:
                if record.status != 200:
                    if len(problems) < 5:
                        problems.append(f"{record.op.path}: status "
                                        f"{record.status} {record.error}")
                    continue
                checked += 1
                key = (record.op.path, record.body,
                       tuple(sorted(versions.items())))
                if key not in seen:
                    seen[key] = self.check(record, versions)
                record.ok = seen[key]
                if not seen[key]:
                    wrong += 1
                    if len(problems) < 5:
                        problems.append(f"wrong output for {record.op.path}")
        return checked, wrong, problems

    def properties(self, warm, records) -> dict:
        """Workload-property report of the measured phase."""
        seen = {r.op.key for r in warm if not r.op.write}
        reads = repeats = 0
        keys = set()
        cells, sizes = [], []
        for record in records:
            if record.op.write:
                seen = set()
                continue
            reads += 1
            repeats += record.op.key in seen
            seen.add(record.op.key)
            keys.add(record.op.key)
            sizes.append(len(record.body))
            if record.status == 200:
                cells.append(self.cells_of(json.loads(record.body)))
        return {
            "repeat_share": repeats / max(reads, 1),
            "reads": reads,
            "writes": sum(r.op.write for r in records),
            "distinct_keys": len(keys),
            "cache_capacity": CACHE_CAPACITY,
            "cells_per_response": float(np.mean(cells)) if cells else 0.0,
            "body_bytes": float(np.mean(sizes)) if sizes else 0.0,
        }

    @staticmethod
    def cells_of(payload: dict) -> int:
        return int(payload.get("n_cells", 0))


class RiskmapHot(ServingWorkload):
    """Repeated (park, effort) keys, all warmed: only the envelope works."""

    name = "riskmap_hot"
    parks = ("MFNP", "SWS")
    EFFORTS_PER_PARK = 4

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        self.keys = [
            (park, f"{effort:.3f}")
            for park in self.parks
            for effort in self.rng.uniform(0.25, 6.0, self.EFFORTS_PER_PARK)
        ]
        self.order = self.rng.integers(0, len(self.keys), size=1 << 16)

    def _op(self, key) -> Op:
        return Op("GET", self.riskmap_path(key[0], key[1], 1.0), key)

    def warmup_ops(self):
        return [self._op(key) for key in self.keys]

    def next_op(self, index):
        return self._op(self.keys[self.order[index % self.order.size]])

    def check(self, record, versions):
        park, effort = record.op.key
        artifact = "A" if park == "MFNP" else "SWS"
        expected = self.service(artifact).risk_map(
            self.features(park, 1.0), effort=float(effort))
        payload = json.loads(record.body)
        return payload["park"] == park and bit_identical(
            payload["risk"], expected)


class RiskmapMiss(ServingWorkload):
    """Never-repeated efforts on the ~1k-cell MFNP grid: every read misses."""

    name = "riskmap_miss"
    SCALE = 1.5
    WARM = 2

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        # 0.0001 km steps up to 6 km: distinct strings, distinct floats.
        self.efforts = [f"{k / 10000:.4f}"
                        for k in self.rng.permutation(np.arange(1, 60001))]
        self._probs = None

    def _op(self, effort) -> Op:
        return Op("GET", self.riskmap_path("MFNP", effort, self.SCALE),
                  effort)

    def warmup_ops(self):
        return [self._op(e) for e in self.efforts[:self.WARM]]

    def next_op(self, index):
        return self._op(self.efforts[self.WARM + index])

    def expected(self, effort: float):
        """``RiskMapService.risk_map`` with its effort-free stage memoised.

        The member probabilities do not depend on the effort, so they are
        computed once and mixed per effort with the library's own rule;
        :meth:`verify_shortcut` proves this equals the full call.
        """
        ensemble = self.service("A").predictor._ensemble
        if self._probs is None:
            self._probs = ensemble.member_probabilities(
                self.features("MFNP", self.SCALE))
        return ensemble._mix(self._probs, effort)

    def verify_shortcut(self, samples=3) -> bool:
        features = self.features("MFNP", self.SCALE)
        return all(
            bit_identical(
                self.service("A").risk_map(features, effort=float(e)),
                self.expected(float(e)))
            for e in self.efforts[-samples:]
        )

    def check(self, record, versions):
        payload = json.loads(record.body)
        return bit_identical(payload["risk"],
                             self.expected(float(record.op.key)))


class PlanReload(ServingWorkload):
    """Repeating /plan reads with a model publish + hot-swap every R-th op."""

    name = "plan_reload"

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        self.publish_mfnp("B")
        self.reset()
        self.posts = [int(p) for p in self.data["MFNP"].park.patrol_posts]
        self.keys = [(post, beta) for post in self.posts for beta in BETAS]
        cycles = [self.rng.permutation(len(self.keys)) for _ in range(400)]
        self.order = np.concatenate(cycles)
        self.phase = int(self.rng.integers(RELOAD_EVERY))
        self._plans = {}
        self._plan_services = {}

    def reset(self):
        self.save(self.predictors["A"], self.models_dir / "MFNP")
        self.writes = 0
        self.versions = {1: "A"}

    def _read(self, key) -> Op:
        post, beta = key
        return Op("GET", f"/plan?park=MFNP&post={post}&beta={beta}"
                         f"&seed={DATA_SEED}", key)

    def warmup_ops(self):
        # The cold /riskmap builds the serving context; one plan per post
        # then builds every planner and MILP structure.
        ops = [Op("GET", self.riskmap_path("MFNP", "1.000", 1.0),
                  ("riskmap", "1.000"))]
        for post in self.posts:
            ops.append(self._read((post, BETAS[self.posts.index(post)])))
        return ops

    def next_op(self, index):
        if index % RELOAD_EVERY == self.phase:
            return Op("POST", "/models/MFNP/reload", None, write=True)
        writes_before = (index - self.phase + RELOAD_EVERY - 1) \
            // RELOAD_EVERY
        reads_before = index - writes_before
        key = self.keys[self.order[reads_before % self.order.size]]
        return self._read(key)

    def publish(self, op):
        self.writes += 1
        op.artifact = "B" if self.writes % 2 else "A"
        self.save(self.predictors[op.artifact], self.models_dir / "MFNP")

    def note_versions(self, records) -> dict:
        """Map each model version a reload answered with to its artifact."""
        versions = dict(self.versions)
        for record in records:
            if record.op.write and record.status == 200:
                versions[json.loads(record.body)["version"]] = \
                    record.op.artifact
        return versions

    def plan_service(self, artifact):
        from repro.planning.service import PlanService

        if artifact not in self._plan_services:
            park = self.data["MFNP"].park
            self._plan_services[artifact] = PlanService(
                self.service(artifact), park.grid, park.patrol_posts)
        return self._plan_services[artifact]

    def check(self, record, versions):
        payload = json.loads(record.body)
        if record.op.write:
            return payload.get("reloaded") is True
        if record.op.key[0] == "riskmap":
            return bit_identical(payload["risk"], self.service("A").risk_map(
                self.features("MFNP", 1.0), effort=1.0))
        artifact = versions.get(payload["version"])
        if artifact is None:
            return False
        post, beta = record.op.key
        key = (artifact, post, beta)
        if key not in self._plans:
            self._plans[key] = self.plan_service(artifact).plan_post(
                post, self.features("MFNP", 1.0), beta=beta)
        plan = self._plans[key]
        served = payload["plans"][str(post)]
        return (served["objective_value"] == plan.objective_value
                and bit_identical(served["coverage"], plan.coverage))

    @staticmethod
    def cells_of(payload):
        if "plans" in payload:
            return sum(len(p["coverage"]) for p in payload["plans"].values())
        return int(payload.get("n_cells", 0))


WORKLOADS = {cls.name: cls for cls in (RiskmapHot, RiskmapMiss, PlanReload)}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
def _phase_summary(name, records, begin, end):
    """Latency and throughput of one timed phase over its correct replies.

    A reply that was shed, failed or wrong counts in neither: a daemon
    that fails fast must not look faster.
    """
    ok = [r for r in records if r.ok]
    latencies = [r.latency for r in ok] or [float("nan")]
    q = TAIL_PERCENTILE[name]
    return {
        "p50_ms": percentile_ms(latencies, 50),
        "tail_ms": percentile_ms(latencies, q),
        "throughput_rps": len(ok) / (end - begin),
        "samples": len(records),
        "correct_samples": len(ok),
        "tail_percentile": q,
        "samples_beyond_tail": int(round(len(ok) * (100 - q) / 100.0)),
    }


def run(ctx, name: str, seed: int, seconds: float, trace: bool):
    started = time.perf_counter()
    workload = WORKLOADS[name](ctx, seed)
    prepared = time.perf_counter()
    batches = []
    phases = []
    drained = True
    versions_of = getattr(workload, "note_versions", lambda records: {})
    setups, setups_cpu, colds = [], [], []
    if not trace:
        for attempt in range(SETUPS):
            daemon, warm, setup, setup_cpu = workload.start()
            setups.append(setup)
            setups_cpu.append(setup_cpu)
            colds.append(warm[0].latency)
            batches.append((warm, {1: "A"}))
            if attempt < SETUPS - 1:
                drained &= daemon.stop()
        records, begin, end, cpu, stats = workload.measure(
            daemon, seconds, "r")
        rss = daemon.peak_rss_mb()
        drained &= daemon.stop()
        batches.append((records, versions_of(records)))
        phases.append((records, begin, end))
    else:
        # Untraced then traced daemon, half the time each: the trace
        # overhead is the ratio of their client p50s.
        half = seconds / 2.0
        daemon, warm, *__ = workload.start()
        batches.append((warm, {1: "A"}))
        plain, begin, end, *__ = workload.measure(daemon, half, "u")
        drained &= daemon.stop()
        batches.append((plain, versions_of(plain)))
        phases.append((plain, begin, end))
        spans_file = ctx.workdir / "spans.json"
        daemon, warm, *__ = workload.start(spans_file)
        batches.append((warm, {1: "A"}))
        records, begin, end, __, stats = workload.measure(daemon, half, "t")
        drained &= daemon.stop()
        batches.append((records, versions_of(records)))
        phases.append((records, begin, end))
    measured_at = time.perf_counter()
    shortcut_ok = getattr(workload, "verify_shortcut", lambda: True)()
    checked, wrong, problems = workload.check_all(batches)
    summaries = [_phase_summary(name, *phase) for phase in phases]
    if not trace:
        summary = summaries[0]
        metrics = {
            "setup_s": (float(np.median(setups_cpu)), "s"),
            "cpu_ms_per_op": (
                cpu / max(summary["correct_samples"], 1) * 1e3, "ms"),
            "peak_rss_mb": (rss, "MiB"),
        }
        report = {"phase": summary, "setups_cpu_s": setups_cpu,
                  "setups_wall_s": setups, "daemon_cpu_s": cpu,
                  "cold_request_ms": float(np.median(colds)) * 1e3,
                  "cold_requests_ms": [c * 1e3 for c in colds],
                  "admission": stats["admission"]}
    else:
        untraced, traced = summaries
        spans = tracing.SpanSet.load(spans_file)
        metrics = layers.serving_layer_metrics(
            spans, records, stats, workload.save_seconds, untraced, traced)
        report = {"untraced": untraced, "traced": traced}
    report["wall_s"] = {"prepare": prepared - started,
                        "daemons": measured_at - prepared,
                        "checks": time.perf_counter() - measured_at}
    attempted = sum(len(records) for records, __ in batches)
    errors = sum(r.status != 200 for records, __ in batches for r in records)
    report["properties"] = workload.properties(batches[-2][0], records)
    report["checks"] = {
        "checked": checked, "wrong": wrong, "errors": errors,
        "problems": problems, "drained_exit_0": drained,
        "oracle_shortcut_verified": shortcut_ok,
    }
    # Any shed, failed or wrong reply, in warm-up or timed phase, fails
    # the run: HEAD answers every request of every workload correctly.
    failed = errors + wrong
    correct = failed == 0 and drained and shortcut_ok
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }
