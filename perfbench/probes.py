"""Layer probes: which names the traced run wraps, and the per-layer metrics.

Every probe patches a public name where its caller looks it up, so the
program under test runs unmodified.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import importlib
import statistics
from typing import Any, Dict, List, Tuple

from tracer import REQUEST, Tracer

#: metric -> (unit, phase).  ``phase`` is where it is measured: "setup"
#: over one traced fresh set-up, "loop" over the traced measurement window,
#: "run" for the run as a whole.  README.md says which end-to-end metric
#: each should move, and on which workload.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "columnar.pass_s": ("s", "setup"),
    "columnar.pass_valuations": ("count", "setup"),
    "sqlite.pass_s": ("s", "setup"),
    "sqlite.apply_delta_s": ("s", "loop"),
    "session.apply_delta_s": ("s", "loop"),
    "delta.apply_s": ("s", "loop"),
    "lineage_index.rebuild_s": ("s", "setup"),
    "lineage_index.probe_s": ("s", "loop"),
    "lineage_index.dirty_ratio": ("ratio", "loop"),
    "batch.refresh_s": ("s", "loop"),
    "batch.explain_s": ("s", "loop"),
    "batch.memo_hit_ratio": ("ratio", "loop"),
    "flow.responsibility_calls": ("count", "loop"),
    "flow.responsibility_s": ("s", "loop"),
    "flow.build_network_s": ("s", "loop"),
    "flow.networks_built": ("count", "loop"),
    "flow.edges_built": ("count", "loop"),
    "flow.edges_per_lineage_tuple": ("ratio", "loop"),
    "maxflow.s": ("s", "loop"),
    "hitting_set.calls": ("count", "loop"),
    "hitting_set.s": ("s", "loop"),
    "cache.lookups": ("count", "loop"),
    "cache.hit_ratio": ("ratio", "loop"),
    "cache.contingency_s": ("s", "loop"),
    "dnf.remove_redundant_s": ("s", "loop"),
    "whyno.refresh_s": ("s", "loop"),
    "whyno.explain_s": ("s", "loop"),
    "whyno.candidates_s": ("s", "setup"),
    "lineage.whyno_candidates_s": ("s", "loop"),
    "server.rtt_ms": ("ms", "loop"),
    "server.engine_ms": ("ms", "loop"),
    "server.overhead_ms": ("ms", "loop"),
    "server.rejected": ("count", "run"),
    "read.p50_ms": ("ms", "run"),
    "write.p50_ms": ("ms", "run"),
    "write.p95_ms": ("ms", "run"),
    "read.samples": ("count", "run"),
    "read.beyond_p95": ("count", "run"),
    "write.samples": ("count", "run"),
    "write.beyond_p95": ("count", "run"),
    "read.memo_miss_ratio": ("ratio", "run"),
    "trace.cycles": ("count", "run"),
    "trace.ops": ("count", "run"),
    "trace.throughput_per_s": ("1/s", "run"),
    "trace.untraced_throughput_per_s": ("1/s", "run"),
    "trace.overhead_ratio": ("ratio", "run"),
}

#: span name per ``*_s`` metric (self time).
SPAN_OF = {
    "columnar.pass_s": "columnar.pass",
    "sqlite.pass_s": "sqlite.pass",
    "sqlite.apply_delta_s": "sqlite.apply_delta",
    "session.apply_delta_s": "session.apply_delta",
    "delta.apply_s": "delta.apply",
    "lineage_index.rebuild_s": "lineage_index.rebuild",
    "lineage_index.probe_s": "lineage_index.probe",
    "batch.refresh_s": "batch.refresh",
    "batch.explain_s": "batch.explain",
    "flow.responsibility_s": "flow.responsibility",
    "maxflow.s": "maxflow",
    "hitting_set.s": "hitting_set",
    "cache.contingency_s": "cache.contingency",
    "dnf.remove_redundant_s": "dnf.remove_redundant",
    "whyno.refresh_s": "whyno.refresh",
    "whyno.explain_s": "whyno.explain",
    "whyno.candidates_s": "whyno.candidates",
    "lineage.whyno_candidates_s": "lineage.whyno_candidates",
    "flow.build_network_s": "flow.build_network",
}

#: per-layer metrics read straight off a counter of the same name.
COUNTS = ("columnar.pass_valuations", "flow.responsibility_calls",
          "flow.networks_built", "flow.edges_built", "hitting_set.calls",
          "cache.lookups")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point (undo with ``tracer.restore()``)."""
    # By module path: ``repro.core`` re-exports functions that shadow the
    # names of its submodules.
    flow_responsibility = importlib.import_module(
        "repro.core.flow_responsibility")
    responsibility = importlib.import_module("repro.core.responsibility")
    whyno_batch = importlib.import_module("repro.engine.whyno_batch")
    lineage_whyno = importlib.import_module("repro.lineage.whyno")
    server_app = importlib.import_module("repro.server.app")
    from repro.core.api import ExplanationSession
    from repro.engine.batch import BatchExplainer
    from repro.engine.cache import LineageCache
    from repro.engine.lineage_index import LineageIndex
    from repro.flow.network import FlowNetwork
    from repro.lineage.boolean_expr import PositiveDNF
    from repro.relational.delta import DatabaseDelta
    from repro.relational.evaluation import QueryEvaluator
    from repro.relational.session import (BackendSession, MemorySession,
                                          SQLiteSession)
    from repro.relational.sqlite_backend import (SQLiteDatabase,
                                                 SQLiteEvaluator,
                                                 SQLiteLineageIndex)
    from repro.server.client import ServeClient

    wrap = tracer.wrap

    # relational: columnar pass, SQLite backend, sessions, deltas
    wrap(QueryEvaluator, "valuations_blocks", "columnar.pass",
         after=lambda result, evaluator, *a, **k: tracer.count(
             "columnar.pass_valuations", evaluator.stats.block_rows))
    wrap(SQLiteEvaluator, "grouped_valuations", "sqlite.pass")
    wrap(SQLiteDatabase, "apply_delta", "sqlite.apply_delta")
    wrap(BackendSession, "apply_delta", "session.apply_delta")
    wrap(DatabaseDelta, "apply_to", "delta.apply")

    # engine: lineage index (dict and SQLite twins), batch engines, cache
    def probe(original: Any, index: Any, tuples: Any) -> Any:
        result = tracer.call("lineage_index.probe", original, index, tuples)
        if tracer.enabled:
            tracer.count("lineage_index.probed", len(result))
            tracer.count("lineage_index.held", len(index))
        return result

    for index_cls in (LineageIndex, SQLiteLineageIndex):
        wrap(index_cls, "rebuild", "lineage_index.rebuild")
        tracer.around(index_cls, "answers_with", probe)

    wrap(BatchExplainer, "refresh_all", "batch.refresh")

    def batch_explain(original: Any, explainer: Any,
                      answer: Any = None) -> Any:
        hits = explainer.memo_hits
        edges = tracer.counters["flow.edges_built"]
        result = tracer.call("batch.explain", original, explainer, answer)
        if tracer.enabled:
            tracer.count("batch.reads")
            if explainer.memo_hits > hits:
                tracer.count("batch.memo_hits")
            elif tracer.counters["flow.edges_built"] > edges \
                    and explainer.lineage_index is not None:
                key = () if answer is None else tuple(answer)
                tracer.count("flow.lineage_tuples",
                             len(explainer.lineage_index.tuples_of(key)))
        return result

    tracer.around(BatchExplainer, "explain", batch_explain)
    wrap(whyno_batch.WhyNoBatchExplainer, "refresh_all", "whyno.refresh")
    wrap(whyno_batch.WhyNoBatchExplainer, "explain", "whyno.explain")
    for session_cls in (MemorySession, SQLiteSession):
        wrap(session_cls, "batch_whyno_candidates", "whyno.candidates")
    wrap(whyno_batch, "batch_candidate_missing_tuples",
         "lineage.whyno_candidates")
    wrap(lineage_whyno, "batch_candidate_missing_tuples",
         "lineage.whyno_candidates")

    def cache_lookup(original: Any, cache: Any, *args: Any) -> Any:
        hits = cache.hits
        result = original(cache, *args)
        if tracer.enabled:
            tracer.count("cache.lookups")
            tracer.count("cache.hits", cache.hits - hits)
        return result

    tracer.around(LineageCache, "get_or_compute", cache_lookup)
    wrap(LineageCache, "minimum_contingency", "cache.contingency")

    # core: Algorithm 1 and the exact hitting set; flow: max-flow
    wrap(flow_responsibility.FlowEngine, "responsibility",
         "flow.responsibility",
         after=lambda *a, **k: tracer.count("flow.responsibility_calls"))
    wrap(flow_responsibility, "build_flow_network", "flow.build_network",
         after=lambda *a, **k: tracer.count("flow.networks_built"))

    def add_edge(original: Any, *args: Any, **kwargs: Any) -> Any:
        if tracer.enabled:
            tracer.count("flow.edges_built")
        return original(*args, **kwargs)

    tracer.around(FlowNetwork, "add_edge", add_edge)
    wrap(flow_responsibility, "max_flow", "maxflow")
    wrap(responsibility, "minimum_hitting_set", "hitting_set",
         after=lambda *a, **k: tracer.count("hitting_set.calls"))

    # lineage: DNF simplification
    wrap(PositiveDNF, "remove_redundant", "dnf.remove_redundant")

    # server: client round trips, the request id carried into the session
    # worker thread, and the engine calls made there.
    def send_raw(original: Any, client: Any, frame: Any) -> Any:
        REQUEST.set(frame.get("id"))
        return original(client, frame)

    def request(original: Any, client: Any, op: str, **fields: Any) -> Any:
        return tracer.call(f"server.rtt.{op}", original, client, op,
                           **fields)

    tracer.around(ServeClient, "send_raw", send_raw)
    tracer.around(ServeClient, "request", request)

    def decode(original: Any, line: bytes) -> Any:
        frame = original(line)
        REQUEST.set(frame.get("id"))
        return frame

    tracer.around(server_app, "decode_frame", decode)

    def submit(original: Any, executor: Any, fn: Any, *args: Any,
               **kwargs: Any) -> Any:
        context = contextvars.copy_context()
        return original(executor, context.run, fn, *args, **kwargs)

    tracer.around(concurrent.futures.ThreadPoolExecutor, "submit", submit)
    wrap(ExplanationSession, "explain", "api.explain")
    wrap(ExplanationSession, "refresh_all", "api.refresh")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _server_metrics(loop: Tracer) -> Dict[str, float]:
    """Median client round trip, engine time and their difference on reads."""
    rtt = {request: seconds
           for request, seconds in loop.durations("server.rtt.explain")}
    engine = {request: seconds
              for request, seconds in loop.durations("api.explain")
              if request is not None}
    both = [request for request in rtt if request in engine]
    if not both:
        return {"server.rtt_ms": 0.0, "server.engine_ms": 0.0,
                "server.overhead_ms": 0.0}
    return {
        "server.rtt_ms": 1e3 * statistics.median(rtt[r] for r in both),
        "server.engine_ms": 1e3 * statistics.median(engine[r] for r in both),
        "server.overhead_ms": 1e3 * statistics.median(
            rtt[r] - engine[r] for r in both),
    }


def layer_metrics(setup: Tracer, loop: Tracer,
                  run: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, from the traced set-up, loop and run figures."""
    phases = {"setup": setup, "loop": loop}
    self_times = {phase: tracer.self_times()
                  for phase, tracer in phases.items()}
    values: Dict[str, float] = {}
    for metric, (_, phase) in LAYER_METRICS.items():
        if phase == "run":
            values[metric] = run[metric]
        elif metric in SPAN_OF:
            values[metric] = self_times[phase].get(SPAN_OF[metric], 0.0)
        elif metric in COUNTS:
            values[metric] = phases[phase].counters.get(metric, 0.0)
    counters = loop.counters
    values["lineage_index.dirty_ratio"] = _ratio(
        counters.get("lineage_index.probed", 0),
        counters.get("lineage_index.held", 0))
    values["batch.memo_hit_ratio"] = _ratio(counters.get("batch.memo_hits", 0),
                                            counters.get("batch.reads", 0))
    values["flow.edges_per_lineage_tuple"] = _ratio(
        counters.get("flow.edges_built", 0),
        counters.get("flow.lineage_tuples", 0))
    values["cache.hit_ratio"] = _ratio(counters.get("cache.hits", 0),
                                       counters.get("cache.lookups", 0))
    values.update(_server_metrics(loop))
    missing = set(LAYER_METRICS) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return values


def expected_split(workload: str, values: Dict[str, float]
                   ) -> List[str]:
    """The trace's expected per-workload split; returns what does not hold."""
    problems: List[str] = []

    def need(condition: bool, text: str) -> None:
        if not condition:
            problems.append(text)

    if workload == "imdb-interactive":
        flow = values["flow.responsibility_s"] \
            + values["flow.build_network_s"] + values["maxflow.s"]
        read = flow + values["batch.explain_s"] \
            + values["dnf.remove_redundant_s"]
        need(flow > 0.5 * read,
             "flow.* and maxflow.s carry most read self time")
        need(values["hitting_set.calls"] == 0, "hitting_set.calls is 0")
    elif workload == "whyno-sqlite":
        need(values["flow.responsibility_calls"] == 0,
             "flow.responsibility_calls is 0")
        need(values["columnar.pass_valuations"] == 0,
             "columnar.pass_valuations is 0")
    elif workload == "serve-hot":
        need(values["server.overhead_ms"] > 0.5 * values["server.rtt_ms"],
             "server.overhead_ms is most of server.rtt_ms")
    return problems


def unit_of(metric: str) -> str:
    return LAYER_METRICS[metric][0]
