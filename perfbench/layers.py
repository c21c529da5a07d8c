"""Per-layer metrics computed from the spans of one traced process."""

from __future__ import annotations

import numpy as np

import tracing
from common import percentile_ms


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _durations(spans, *names):
    return [(s[3] - s[2]) for s in spans.named(*names)]


def gp_flops(shape) -> float:
    """Computed flops of one GP latent-moments pass over ``n`` cells.

    Cross-kernel (squared distances + exp) ``3mnd + mn``, the LU-based
    solve against the ``m x m`` Cholesky factor ``2/3 m^3 + 2 m^2 n``, and
    the mean/variance reductions ``4mn``; ``m`` training points, ``d``
    features. From array shapes, not a hardware counter.
    """
    m, n, d = shape
    return 3.0 * m * n * d + m * n + (2.0 / 3.0) * m ** 3 \
        + 2.0 * m * m * n + 4.0 * m * n


def span_layer_metrics(spans: tracing.SpanSet) -> dict:
    """Per-call layer metrics over every span of one traced process."""
    counters = spans.counters
    ms = 1e3
    service = spans.named("service.risk_map", "service.effort_response")
    hits, misses = [], []
    for span in service:
        children = spans.child_names[span[0]]
        computed = any(name.startswith("core.") for name in children)
        (misses if computed else hits).append(span)
    contexts = spans.named("registry.context")
    builds = [s for s in contexts
              if "data.generate" in spans.child_names[s[0]]]
    gp = spans.named("ml.gp.predict")
    gp_cells = sum(s[7][1] for s in gp if s[7])
    gp_time = sum(s[3] - s[2] for s in gp)
    fanouts = spans.named("fanout")
    structures = spans.named("planning.structure")
    loads = spans.named("persistence.load")
    generates = spans.named("data.generate")
    pools = counters.get("fanout.pools_created", 0.0)
    return {
        "admission.wait_ms": (_mean(_durations(spans, "admission.wait")) * ms,
                              "ms"),
        "registry.entry_ms": (_mean(_durations(spans, "registry.entry")) * ms,
                              "ms"),
        "registry.context_ms": (
            _mean(spans.self_time[s[0]] for s in builds) * ms, "ms"),
        "registry.context_builds": (float(len(builds)), "count"),
        "registry.reload_ms": (
            _mean(_durations(spans, "registry.reload")) * ms, "ms"),
        "service.lookups": (float(len(service)), "count"),
        "service.hits": (float(len(hits)), "count"),
        "service.hit_ratio": (len(hits) / len(service) if service else 0.0,
                              "ratio"),
        "service.hit_ms": (_mean(s[3] - s[2] for s in hits) * ms, "ms"),
        "service.miss_ms": (_mean(s[3] - s[2] for s in misses) * ms, "ms"),
        "fanout.calls": (float(len(fanouts)), "count"),
        "fanout.tasks": (float(sum(s[7][0] for s in fanouts if s[7])),
                         "count"),
        "fanout.ms": (_mean(s[3] - s[2] for s in fanouts) * ms, "ms"),
        "fanout.pools_created": (pools, "count"),
        "fanout.pool_setup_ms": (
            counters.get("fanout.pool_setup_s", 0.0) / pools * ms
            if pools else 0.0, "ms"),
        "fanout.retries": (counters.get("fanout.retries", 0.0), "count"),
        "fanout.degradations": (counters.get("fanout.degradations", 0.0),
                                "count"),
        "core.predict_ms": (_mean(_durations(spans, "core.predict")) * ms,
                            "ms"),
        "core.effort_response_ms": (
            _mean(_durations(spans, "core.effort_response")) * ms, "ms"),
        "core.fit_self_ms": (_mean(
            spans.self_time[s[0]] for s in spans.named("core.fit")) * ms,
            "ms"),
        **{
            f"core.fit_{model}_{kind}_ms": (_mean(
                s[3] - s[2] for s in spans.named("core.fit")
                if s[7] and s[7][0] == model and (s[7][1] > 1) == parallel
            ) * ms, "ms")
            for model in ("gpb", "dtb")
            for kind, parallel in (("serial", False), ("parallel", True))
        },
        "ml.gp.predict_ms": (gp_time / len(gp) * ms if gp else 0.0, "ms"),
        "ml.gp.cells_per_s": (gp_cells / gp_time if gp_time else 0.0,
                              "cells/s"),
        "ml.gp.kernel_flops": (_mean(gp_flops(s[7]) for s in gp if s[7]),
                               "flop-computed"),
        "ml.gp.fit_ms": (_mean(_durations(spans, "ml.gp.fit")) * ms, "ms"),
        "ml.tree.predict_ms": (
            _mean(_durations(spans, "ml.tree.predict")) * ms, "ms"),
        "ml.tree.fit_ms": (_mean(_durations(spans, "ml.tree.fit")) * ms,
                           "ms"),
        "planning.plan_post_ms": (
            _mean(_durations(spans, "planning.plan_post")) * ms, "ms"),
        "planning.structure_ms": (
            _mean(s[3] - s[2] for s in structures) * ms, "ms"),
        "planning.structure_hit_ratio": (
            1.0 - counters.get("planning.structure_builds", 0.0)
            / len(structures) if structures else 0.0, "ratio"),
        "planning.solve_ms": (
            _mean(_durations(spans, "planning.solve")) * ms, "ms"),
        "planning.decompose_ms": (
            _mean(_durations(spans, "planning.decompose")) * ms, "ms"),
        "persistence.load_ms": (_mean(s[3] - s[2] for s in loads) * ms,
                                "ms"),
        "persistence.verify_ms": (
            sum(_durations(spans, "persistence.verify")) / len(loads) * ms
            if loads else 0.0, "ms"),
        "data.generate_ms": (_mean(s[3] - s[2] for s in generates) * ms,
                             "ms"),
        "geo.features_ms": (
            sum(_durations(spans, "geo.features")) / len(generates) * ms
            if generates else 0.0, "ms"),
    }


def request_breakdown(spans: tracing.SpanSet, records) -> dict:
    """Per-request layer self times around the traced client p50.

    Requests whose client latency lies between the 40th and 60th
    percentile form the band. For each, ``wire`` is the client latency
    minus the daemon's ``dispatch`` span, and every span on the request's
    thread contributes its self time to its layer; the band means add up
    to the band's mean client latency by construction, which is checked
    against the traced p50 (``trace.breakdown_share``).
    """
    ok = [r for r in records if r.ok]
    by_request = spans.by_request()
    latencies = np.array([r.latency for r in ok])
    low, high = np.percentile(latencies, [40, 60])
    band = [r for r in ok if low <= r.latency <= high and r.rid in by_request]
    wire, dispatch_self, encode = [], [], []
    per_layer = {layer: [] for layer in tracing.LAYERS if layer != "daemon"}
    for record in band:
        request_spans = by_request[record.rid]
        root = next(s for s in request_spans if s[1] == "dispatch")
        wire.append(record.latency - (root[3] - root[2]))
        dispatch_self.append(spans.self_time[root[0]])
        encode.append(sum(spans.self_time[s[0]] for s in request_spans
                          if s[1] == "daemon.encode"))
        totals = dict.fromkeys(per_layer, 0.0)
        for span in request_spans:
            layer = tracing.LAYER_OF[span[1]]
            if layer != "daemon":
                totals[layer] += spans.self_time[span[0]]
        for layer, value in totals.items():
            per_layer[layer].append(value)
    ms = 1e3
    out = {
        "daemon.wire_ms": (_mean(wire) * ms, "ms"),
        "daemon.dispatch_self_ms": (_mean(dispatch_self) * ms, "ms"),
        "daemon.encode_ms": (_mean(encode) * ms, "ms"),
    }
    for layer, values in per_layer.items():
        out[f"{layer}.self_ms"] = (_mean(values) * ms, "ms")
    breakdown = sum(value for value, __ in out.values())
    p50 = percentile_ms(latencies, 50)
    out["trace.breakdown_ms"] = (breakdown, "ms")
    out["trace.breakdown_share"] = (breakdown / p50 if p50 else 0.0, "ratio")
    out["trace.band_requests"] = (float(len(band)), "count")
    return out


def serving_layer_metrics(spans, records, stats, save_seconds, untraced,
                          traced) -> dict:
    """Every per-layer metric of a traced serving run."""
    metrics = span_layer_metrics(spans)
    metrics.update(request_breakdown(spans, records))
    ok = [r for r in records if r.ok]
    metrics["daemon.body_bytes"] = (_mean(len(r.body) for r in ok), "bytes")
    admission = stats["admission"]
    metrics["admission.shed"] = (
        float(admission["shed_saturated"] + admission["shed_draining"]),
        "count")
    metrics["registry.loads"] = (float(stats["registry"]["loads"]), "count")
    metrics["persistence.save_ms"] = (_mean(save_seconds) * 1e3, "ms")
    metrics.update(trace_overhead(untraced["p50_ms"], traced["p50_ms"]))
    return metrics


def trace_overhead(untraced_p50, traced_p50) -> dict:
    return {
        "trace.p50_untraced_ms": (untraced_p50, "ms"),
        "trace.p50_traced_ms": (traced_p50, "ms"),
        "trace.overhead": (traced_p50 / untraced_p50, "ratio"),
    }


def fit_layer_metrics(spans, untraced_p50, traced_p50) -> dict:
    """Every per-layer metric of a traced ``fit`` run.

    A fit has no HTTP request, so the request breakdown, the daemon and
    admission metrics and the registry's load count read zero.
    """
    metrics = span_layer_metrics(spans)
    zero_ms = ("daemon.wire_ms", "daemon.dispatch_self_ms",
               "daemon.encode_ms", "trace.breakdown_ms",
               "persistence.save_ms",
               *(f"{layer}.self_ms" for layer in tracing.LAYERS
                 if layer != "daemon"))
    metrics.update({name: (0.0, "ms") for name in zero_ms})
    metrics.update({
        "trace.breakdown_share": (0.0, "ratio"),
        "trace.band_requests": (0.0, "count"),
        "daemon.body_bytes": (0.0, "bytes"),
        "admission.shed": (0.0, "count"),
        "registry.loads": (0.0, "count"),
    })
    metrics.update(trace_overhead(untraced_p50, traced_p50))
    return metrics
