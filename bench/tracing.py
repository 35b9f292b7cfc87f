"""Outside-in tracing: wrap the public functions of the measured layers at
every binding site, record spans in memory, and reduce them to per-layer
metrics when a pass ends. Nothing under ``src/`` is edited; the wrappers
are installed by rebinding module attributes and removed afterwards.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("dataset", "llm", "prompts", "pipeline", "executor", "router", "harness")

STAGES = (
    "table_selection",
    "decomposition",
    "subquery_generation",
    "merge_planner",
    "merge_executor",
    "column_selection",
    "baseline",
    "judge",
)

# Spans whose self time is reported.
_SELF_TIMED = (
    "executor.execution_accuracy",
    "pipeline.run_baseline",
    "pipeline.run_divide_and_merge",
    "harness.run_benchmark",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index] if len(args) > index else None


def _file_kbytes(args, kwargs, result, error):
    try:
        return os.path.getsize(_arg(args, kwargs, 0, "path")) / 1000.0
    except OSError:
        return 0.0


def _execute_info(args, kwargs, result, error):
    if error is not None:
        return ("raised", 0, None)
    db_path, sql = _arg(args, kwargs, 0, "db_path"), _arg(args, kwargs, 1, "sql")
    rows = len(result.result.rows) if result.result is not None else 0
    return (result.status, rows, (str(db_path), sql))


def _complete_info(args, kwargs, result, error):
    request = _arg(args, kwargs, 1, "request")
    return (
        kwargs.get("stage_label", "llm"),
        kwargs.get("attempt_index", 0),
        len(request.last_user_content),
        result.retries if error is None else 0,
        error is not None,
    )


def _schema_key(args, kwargs, result, error):
    schema = _arg(args, kwargs, 0, "schema")
    view = getattr(schema, "view", schema)
    return (view.db_id, tuple(t.name for t in view.tables), len(result or ""))


# Extra facts recorded per span, computed after the span's end time is taken.
_INFO = {
    "executor.execute_sql": _execute_info,
    "executor.compare_results": lambda a, k, r, e: len(_arg(a, k, 0, "gold").rows),
    "llm.complete": _complete_info,
    "llm.write_transcript": _file_kbytes,
    "pipeline.write_trace": _file_kbytes,
    "harness.write_records": _file_kbytes,
    "dataset.serialize_schema": _schema_key,
    "prompts.render": lambda a, k, r, e: len(r or ""),
    "prompts.extract_sql": lambda a, k, r, e: e is not None,
}


class Tracer:
    """Records one span per call of every wrapped function.

    A span is ``[name, site, start, end, parent, info]``; ``parent`` is the
    enclosing span on the same thread, or the current
    ``harness.run_benchmark`` span for calls made on its worker threads.
    """

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._root = None
        self._patched: list = []

    def install(self) -> None:
        """Wrap every public function of the layers wherever it is bound."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"splitsql.{layer}"]
            for name, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    targets[id(value)] = (f"{layer}.{name}", value)
        sites = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "splitsql"]
        found = set()
        for module in sites:
            site = module.__name__.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                target = targets.get(id(value))
                if target is None or target[1] is not value:
                    continue
                wrapper = self._wrap(target[0], site, value)
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, value))
                found.add(id(value))
        missing = [name for key, (name, _) in targets.items() if key not in found]
        if missing:
            raise RuntimeError(f"no binding site found for {missing}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def unwrapped_sites(self) -> list[str]:
        """Binding sites that still hold an original function (should be none)."""
        originals = {id(original) for _, _, original in self._patched}
        return [
            f"{name}.{attr}"
            for name, module in sorted(sys.modules.items())
            if name.split(".")[0] == "splitsql"
            for attr, value in vars(module).items()
            if id(value) in originals
        ]

    def _wrap(self, name, site, function):
        spans, local = self.spans, self._local
        info = _INFO.get(name)
        is_root = name == "harness.run_benchmark"
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else tracer._root
            span = [name, site, 0.0, 0.0, parent, None]
            spans.append(span)
            stack.append(span)
            if is_root:
                tracer._root = span
            result = error = None
            span[2] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                if info is not None:
                    span[5] = info(args, kwargs, result, error)

        wrapper.__wrapped__ = function
        wrapper.__name__ = function.__name__
        wrapper.__doc__ = function.__doc__
        return wrapper

    def take(self) -> list:
        """Hand over and forget the spans recorded so far."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


@contextmanager
def captured_traces(harness):
    """Keep every PipelineTrace the harness writes; nothing is timed."""
    original = harness.write_trace
    kept = []

    def keep(path, trace):
        kept.append((str(path), trace))
        return original(path, trace)

    harness.write_trace = keep
    try:
        yield kept
    finally:
        harness.write_trace = original


def _union_ms(intervals: list, low: float, high: float) -> float:
    total, end = 0.0, low
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, high)
        if stop > start:
            total += stop - start
            end = stop
    return total * 1000.0


def _percentile(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list, *, examples: int, wall_s: float, gold: set, latency_ms: float) -> dict:
    """Per-layer metrics of one traced pass (counts and times per pass)."""
    busy, calls = {}, {}
    children: dict = {}  # id of a span -> (start, end) of its children
    for name, _site, start, end, parent, _info in spans:
        busy[name] = busy.get(name, 0.0) + (end - start) * 1000.0
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            children.setdefault(id(parent), []).append((start, end))

    def self_ms(name):
        return sum(
            (span[3] - span[2]) * 1000.0 - _union_ms(children.get(id(span), []), span[2], span[3])
            for span in spans
            if span[0] == name
        )

    def of(name):
        return [s for s in spans if s[0] == name]

    m = {}
    execs = of("executor.execute_sql")
    candidates = [s for s in execs if s[1] == "pipeline"]
    exec_us = [(s[3] - s[2]) * 1e6 for s in execs]
    gold_execs = [s[5][2] for s in execs if s[5][2] in gold]
    m["executor.execute_sql.calls"] = len(execs)
    m["executor.execute_sql.busy_ms"] = busy.get("executor.execute_sql", 0.0)
    m["executor.execute_sql.p50_us"] = _percentile(exec_us, 0.5)
    m["executor.execute_sql.p99_us"] = _percentile(exec_us, 0.99)
    m["executor.execute_sql.errors"] = sum(s[5][0] != "ok" and s[5][0] != "timeout" for s in execs)
    m["executor.execute_sql.timeouts"] = sum(s[5][0] == "timeout" for s in execs)
    m["executor.execute_sql.rows"] = sum(s[5][1] for s in execs)
    m["executor.execute_sql.ok_ratio"] = (
        sum(s[5][0] == "ok" for s in candidates) / len(candidates) if candidates else 0.0
    )
    m["executor.gold_execs_per_distinct"] = (
        len(gold_execs) / len(set(gold_execs)) if gold_execs else 0.0
    )
    m["executor.compare_results.calls"] = calls.get("executor.compare_results", 0)
    m["executor.compare_results.busy_ms"] = busy.get("executor.compare_results", 0.0)
    m["executor.compare_results.rows"] = sum(s[5] for s in of("executor.compare_results"))
    for name in ("executor.has_top_level_order_by", "executor.execution_accuracy",
                 "pipeline.run_baseline", "pipeline.run_divide_and_merge"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.busy_ms"] = busy.get(name, 0.0)
    for name in _SELF_TIMED:
        m[f"{name}.self_ms"] = self_ms(name)
    for name in ("pipeline.write_trace", "llm.write_transcript"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.busy_ms"] = busy.get(name, 0.0)
        m[f"{name}.kbytes"] = sum(s[5] for s in of(name))

    schemas = of("dataset.serialize_schema")
    distinct = {s[5][:2] for s in schemas}
    m["dataset.serialize_schema.calls"] = len(schemas)
    m["dataset.serialize_schema.busy_ms"] = busy.get("dataset.serialize_schema", 0.0)
    m["dataset.serialize_schema.kchars"] = sum(s[5][2] for s in schemas) / 1000.0
    m["dataset.serialize_schema.calls_per_distinct"] = (
        len(schemas) / len(distinct) if distinct else 0.0
    )
    m["dataset.load_schemas.ms"] = busy.get("dataset.load_schemas", 0.0)
    m["dataset.load_examples.ms"] = busy.get("dataset.load_examples", 0.0)
    m["prompts.render.calls"] = calls.get("prompts.render", 0)
    m["prompts.render.busy_ms"] = busy.get("prompts.render", 0.0)
    m["prompts.render.kchars"] = sum(s[5] for s in of("prompts.render")) / 1000.0
    m["prompts.extract_sql.calls"] = calls.get("prompts.extract_sql", 0)
    m["prompts.extract_sql.busy_ms"] = busy.get("prompts.extract_sql", 0.0)
    m["prompts.extract_sql.failures"] = sum(s[5] for s in of("prompts.extract_sql"))

    completions = of("llm.complete")
    for stage in STAGES:
        mine = [s for s in completions if s[5][0] == stage]
        m[f"llm.complete.calls.{stage}"] = len(mine)
        m[f"llm.complete.prompt_kchars.{stage}"] = sum(s[5][2] for s in mine) / 1000.0
    complete_ms = [(s[3] - s[2]) * 1000.0 for s in completions]
    m["llm.complete.refine_calls"] = sum(s[5][1] > 0 for s in completions)
    m["llm.complete.busy_ms"] = busy.get("llm.complete", 0.0)
    m["llm.complete.p50_ms"] = _percentile(complete_ms, 0.5)
    m["llm.complete.p90_ms"] = _percentile(complete_ms, 0.9)
    m["llm.complete.retries"] = sum(s[5][3] for s in completions)
    m["llm.complete.failures"] = sum(s[5][4] for s in completions)
    m["llm.complete.overhead_ms"] = m["llm.complete.p50_ms"] - latency_ms
    m["llm.inflight_mean"] = m["llm.complete.busy_ms"] / (wall_s * 1000.0)

    m["router.route_judge.calls"] = calls.get("router.route_judge", 0)
    m["router.route_judge.busy_ms"] = busy.get("router.route_judge", 0.0)
    m["router.route_heuristic.calls"] = calls.get("router.route_heuristic", 0)

    hits = calls.get("harness.record_from_dict", 0)
    m["harness.cache.hits"] = hits
    m["harness.cache.misses"] = examples - hits
    m["harness.cache.hit_ratio"] = hits / examples
    m["harness.write_records.busy_ms"] = busy.get("harness.write_records", 0.0)
    m["harness.write_records.kbytes"] = sum(s[5] for s in of("harness.write_records"))
    m["harness.build_report.busy_ms"] = busy.get("harness.build_report", 0.0)
    m["harness.emit_report.busy_ms"] = busy.get("harness.emit_report", 0.0)
    return m


def median_metrics(passes: list[dict]) -> dict:
    """Per-metric median over traced passes."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
