"""Span recording around the public functions of each ``repro`` layer.

The benchmark measures layers from the outside: :func:`install` replaces a
fixed list of public functions and methods with wrappers that record one
span per call — name, start, end, parent span and request id — into an
in-memory list. Nothing under ``src/`` knows about it. Spans nest through a
per-thread stack, so a span's parent is the innermost span open on the
same thread; work a pool runs on another thread starts a parentless span,
and work a process pool runs in a child process is not recorded at all
(it shows only as the duration of the parent's ``fanout`` span).

Timestamps are ``time.perf_counter()``, which is CLOCK_MONOTONIC on Linux
and so comparable between the daemon and the benchmark's own process.

Layers are named after the repo's modules; :data:`LAYER_OF` maps every
span name to its layer.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
import types
from collections import defaultdict

#: span name -> layer (the repo module the wrapped function belongs to).
LAYER_OF = {
    "dispatch": "daemon",
    "daemon.encode": "daemon",
    "admission.wait": "admission",
    "registry.entry": "registry",
    "registry.context": "registry",
    "registry.reload": "registry",
    "service.risk_map": "service",
    "service.effort_response": "service",
    "fanout": "fanout",
    "core.predict": "core",
    "core.effort_response": "core",
    "core.fit": "core",
    "ml.gp.predict": "ml",
    "ml.gp.fit": "ml",
    "ml.tree.predict": "ml",
    "ml.tree.fit": "ml",
    "planning.plan_post": "planning",
    "planning.structure": "planning",
    "planning.solve": "planning",
    "planning.decompose": "planning",
    "persistence.load": "persistence",
    "persistence.verify": "persistence",
    "data.generate": "data",
    "geo.features": "geo",
}

LAYERS = (
    "daemon", "admission", "registry", "service", "fanout", "core", "ml",
    "planning", "persistence", "data", "geo",
)

#: Header the load generator sends and the ``dispatch`` wrapper reads.
REQUEST_ID_HEADER = "X-Request-Id"


class Tracer:
    """In-memory span store plus the counters recorded at layer boundaries.

    A span is the tuple ``(id, name, start, end, parent, request_id,
    thread, attrs)``. ``list.append`` and ``next()`` on an
    ``itertools.count`` are atomic under the GIL, so request threads record
    without a lock; the counters take one.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def run(self, name: str, fn, args, kwargs, request_id=None, attrs=None):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        if request_id is None:
            request_id = getattr(self._local, "request_id", None)
            restore = False
        else:
            previous = getattr(self._local, "request_id", None)
            self._local.request_id = request_id
            restore = True
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if restore:
                self._local.request_id = previous
            self.spans.append((
                span_id, name, start, end, parent, request_id,
                threading.get_ident(), attrs,
            ))

    def wrap(self, fn, name: str, attrs_of=None, request_id_of=None):
        """A wrapper of ``fn`` recording a span per call."""
        tracer = self

        def traced(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of is not None else None
            rid = request_id_of(args) if request_id_of is not None else None
            return tracer.run(name, fn, args, kwargs, rid, attrs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr``: function, method, static/class method."""
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, staticmethod):
            setattr(owner, attr, staticmethod(
                self.wrap(static.__func__, name, **options)))
        elif isinstance(static, classmethod):
            setattr(owner, attr, classmethod(
                self.wrap(static.__func__, name, **options)))
        else:
            setattr(owner, attr, self.wrap(static, name, **options))

    def dump(self, path) -> None:
        """Write every span and counter as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": dict(self.counters)},
                      handle)


# ---------------------------------------------------------------------------
# The wrapped surface
# ---------------------------------------------------------------------------
def _gp_shape(args, kwargs):
    """Shapes a GP prediction works on, for the computed flop count."""
    model, X = args[0], args[1]
    train = getattr(model, "_X_train", None)
    if train is None:
        return None
    return (int(train.shape[0]), int(X.shape[0]), int(train.shape[1]))


def _tasks(args, kwargs):
    items = args[1] if len(args) > 1 else kwargs.get("items", ())
    return (len(items),)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer on the serve and fit paths."""
    import repro.data
    import repro.data.generator
    from repro.core.predictor import PawsPredictor
    from repro.geo.features import FeatureStack
    from repro.ml.gp import GaussianProcessClassifier
    from repro.ml.tree import DecisionTreeClassifier
    from repro.planning import milp as milp_module
    from repro.planning import planner as planner_module
    from repro.planning.service import PlanService
    from repro.runtime import daemon as daemon_module
    from repro.runtime import parallel as parallel_module
    from repro.runtime import persistence
    from repro.runtime import resilience
    from repro.runtime.admission import AdmissionGate
    from repro.runtime.registry import ModelRegistry, ParkEntry
    from repro.runtime.service import RiskMapService

    # daemon: the request root, tagged with the client's request id.
    tracer.patch(
        daemon_module.ParkServiceDaemon, "dispatch", "dispatch",
        request_id_of=lambda args: args[1].headers.get(REQUEST_ID_HEADER),
    )
    daemon_module.json = types.SimpleNamespace(
        dumps=tracer.wrap(json.dumps, "daemon.encode"), loads=json.loads,
    )
    # admission
    tracer.patch(AdmissionGate, "acquire", "admission.wait")
    # registry
    tracer.patch(ModelRegistry, "entry", "registry.entry")
    tracer.patch(ModelRegistry, "reload", "registry.reload")
    tracer.patch(ParkEntry, "context", "registry.context")
    # service
    tracer.patch(RiskMapService, "risk_map", "service.risk_map")
    tracer.patch(RiskMapService, "effort_response", "service.effort_response")
    # fanout: supervised_map is bound by name in parallel.py too.
    traced_map = tracer.wrap(resilience.supervised_map, "fanout",
                             attrs_of=_tasks)
    resilience.supervised_map = traced_map
    parallel_module.supervised_map = traced_map
    original_record = resilience.record_stats

    def record_stats(stats):
        tracer.count("fanout.retries", stats.retries)
        tracer.count("fanout.degradations", stats.degradations)
        original_record(stats)

    resilience.record_stats = record_stats
    resilience._POOLS = {
        rung: _timed_pool(tracer, cls)
        for rung, cls in resilience._POOLS.items()
    }
    # core
    tracer.patch(PawsPredictor, "predict_proba", "core.predict")
    tracer.patch(PawsPredictor, "effort_response", "core.effort_response")
    tracer.patch(PawsPredictor, "fit", "core.fit",
                 attrs_of=lambda args, kwargs: (args[0].model,
                                                args[0].n_jobs))
    # ml
    for method in ("predict_proba", "predict_variance", "prediction_stats"):
        tracer.patch(GaussianProcessClassifier, method, "ml.gp.predict",
                     attrs_of=_gp_shape)
    tracer.patch(GaussianProcessClassifier, "fit", "ml.gp.fit")
    tracer.patch(DecisionTreeClassifier, "predict_proba", "ml.tree.predict")
    tracer.patch(DecisionTreeClassifier, "fit", "ml.tree.fit")
    # planning: a MILPStructure is constructed only on a structure-cache miss.
    tracer.patch(PlanService, "plan_post", "planning.plan_post")
    tracer.patch(milp_module.PatrolMILP, "build_structure",
                 "planning.structure")
    structure_init = milp_module.MILPStructure.__init__

    def counted_init(self, *args, **kwargs):
        tracer.count("planning.structure_builds")
        structure_init(self, *args, **kwargs)

    milp_module.MILPStructure.__init__ = counted_init
    milp_module.milp = tracer.wrap(milp_module.milp, "planning.solve")
    planner_module.decompose_flow_into_routes = tracer.wrap(
        planner_module.decompose_flow_into_routes, "planning.decompose")
    # persistence: PawsPredictor.load imports load_model at call time.
    persistence.load_model = tracer.wrap(persistence.load_model,
                                         "persistence.load")
    persistence.file_sha256 = tracer.wrap(persistence.file_sha256,
                                          "persistence.verify")
    persistence.array_sha256 = tracer.wrap(persistence.array_sha256,
                                           "persistence.verify")
    # data / geo: the registry imports generate_dataset at call time.
    traced_generate = tracer.wrap(repro.data.generate_dataset,
                                  "data.generate")
    repro.data.generate_dataset = traced_generate
    repro.data.generator.generate_dataset = traced_generate
    for method in ("add_direct", "add_distance", "add_geodesic",
                   "add_boundary_distance"):
        tracer.patch(FeatureStack, method, "geo.features")


def _timed_pool(tracer: Tracer, executor_cls):
    """An executor subclass timing its constructor and first submit.

    ``ProcessPoolExecutor`` starts its workers on the first ``submit``, so
    pool set-up is the constructor plus that first call.
    """

    class TimedExecutor(executor_cls):
        def __init__(self, *args, **kwargs):
            start = time.perf_counter()
            super().__init__(*args, **kwargs)
            self._bench_setup = time.perf_counter() - start
            self._bench_first = True
            tracer.count("fanout.pools_created")

        def submit(self, *args, **kwargs):
            if not self._bench_first:
                return super().submit(*args, **kwargs)
            self._bench_first = False
            start = time.perf_counter()
            try:
                return super().submit(*args, **kwargs)
            finally:
                tracer.count("fanout.pool_setup_s",
                             self._bench_setup + time.perf_counter() - start)

    TimedExecutor.__name__ = executor_cls.__name__
    return TimedExecutor


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
class SpanSet:
    """Spans loaded back from :meth:`Tracer.dump`, with self times."""

    def __init__(self, spans, counters):
        self.spans = [tuple(span) for span in spans]
        self.counters = dict(counters)
        self.by_id = {span[0]: span for span in self.spans}
        children = defaultdict(float)
        self.child_names = defaultdict(set)
        for span in self.spans:
            parent = span[4]
            if parent is not None and parent in self.by_id:
                # Children of one span run sequentially on its thread, so
                # their covered time is the sum of their durations.
                children[parent] += span[3] - span[2]
                self.child_names[parent].add(span[1])
        self.self_time = {
            span[0]: (span[3] - span[2]) - children[span[0]]
            for span in self.spans
        }

    @classmethod
    def load(cls, path) -> "SpanSet":
        with open(path) as handle:
            document = json.load(handle)
        return cls(document["spans"], document["counters"])

    def named(self, *names):
        return [span for span in self.spans if span[1] in names]

    def by_request(self) -> dict:
        """request id -> spans recorded on that request's thread."""
        grouped = defaultdict(list)
        for span in self.spans:
            if span[5] is not None:
                grouped[span[5]].append(span)
        return grouped
