"""Measuring process: runs passes of the program over one generated corpus.

``run.py`` starts it with a JSON spec and reads a JSON result back, so the
CPU time and peak RSS it reports belong to the program's process alone
(not to the generator or the loopback server). A pass is what ``splitsql
run`` does: ``run_benchmark`` over the corpus, then ``build_report`` and
``emit_report`` in both formats.

Usage: python3 bench/worker.py <spec.json> <result.json>
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import urllib.request
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from responder import Responder  # noqa: E402

CALIBRATION_CALLS = 100


class Gate:
    """Collects correctness failures; any failure fails the run."""

    def __init__(self):
        self.errors: list[str] = []

    def check(self, condition: bool, message: str) -> None:
        if not condition and len(self.errors) < 20:
            self.errors.append(message)


def _import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import splitsql
    from splitsql import dataset, harness, llm, pipeline

    if Path(splitsql.__file__).resolve().parent != root / "src" / "splitsql":
        raise SystemExit(f"imported splitsql from {splitsql.__file__}, not from {root / 'src'}")
    return dataset, harness, llm, pipeline


def _expected_fields(expected: dict, arm: str) -> tuple:
    if arm == "both":
        return expected["baseline_correct"], expected["module_correct"], ""
    if expected["route"] == "divide_and_merge":
        return None, expected["module_correct"], "divide_and_merge"
    return expected["baseline_correct"], None, "baseline"


def _dir_kbytes(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1000.0


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    root = Path(spec["root"])
    dataset, harness, llm, pipeline = _import_program(root)
    corpus = Path(spec["corpus"])
    work = Path(spec["work"])
    arm = spec["arm"]
    expected = json.loads((corpus / "expected.json").read_text(encoding="utf-8"))
    plan = json.loads((corpus / "plan.json").read_text(encoding="utf-8"))
    gate = Gate()

    config = harness.RunConfig(
        tables_file=corpus / "tables.json",
        examples_file=corpus / "examples.json",
        run_dir=work / "run",
        pipeline=pipeline.PipelineConfig(
            merge_strategy=pipeline.MERGE_PLANNER_EXECUTOR,
            column_selection_enabled=True,
            parallel_subqueries=False,
        ),
        router_kind=spec["router"],
        worker_count=spec["workers"],
        limit=spec.get("limit"),
    )
    examples = len(expected) if config.limit is None else config.limit

    if spec["url"]:
        for name in ("reasoning", "coding"):
            setattr(config, name, harness.EndpointSpec(base_url=spec["url"], model_id=f"bench-{name}"))
        endpoints_for = None

        def counts():
            with urllib.request.urlopen(spec["url"] + "/stats", timeout=10) as reply:
                stats = json.loads(reply.read())
            return stats["requests"], stats["prompt_chars"]
    else:
        script = Responder(plan)
        endpoint = llm.ModelEndpoint(
            provider=llm.ProviderConfig(kind=llm.KIND_SCRIPTED, script=script),
            model_id="bench-scripted",
        )
        pair = llm.ModelPair(reasoning=endpoint, coding=endpoint)
        endpoints_for = lambda example_id, example: pair  # noqa: E731
        counts = script.counts

    cache_mode = spec["cache"]  # cold: fresh per pass; warm: filled; fill: being filled
    if cache_mode != "cold":
        config.cache_dir = Path(spec["cache_dir"])
    warm_files = set(config.cache_dir.iterdir()) if cache_mode == "warm" else set()

    def run_pass():
        """One untimed reset, then one timed pass; returns its samples."""
        shutil.rmtree(config.run_dir, ignore_errors=True)
        if cache_mode == "cold":
            config.cache_dir = work / "cache"
            shutil.rmtree(config.cache_dir, ignore_errors=True)
        elif cache_mode == "warm":
            # Entries written for the appended examples; each pass misses them.
            for stale in set(config.cache_dir.iterdir()) - warm_files:
                stale.unlink()
        calls0, chars0 = counts()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        records = harness.run_benchmark(config, arm, endpoints_for=endpoints_for)
        report = harness.build_report(records)
        harness.emit_report(report, "json", config.run_dir / "report.json")
        harness.emit_report(report, "markdown", config.run_dir / "report.md")
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        calls1, chars1 = counts()
        gate.check(len(records) == examples, f"{len(records)} records for {examples} examples")
        failed = 0
        for record, want in zip(records, expected):
            failed += bool(record.error)
            got = (record.baseline_correct, record.module_correct, record.route_taken)
            gate.check(
                got == _expected_fields(want, arm) and record.example_id == want["example_id"],
                f"{record.example_id}: got {got}, designed {_expected_fields(want, arm)}"
                f" (error note {record.error!r})",
            )
        return {
            "wall": wall,
            "cpu": cpu,
            "calls": calls1 - calls0,
            "prompt_chars": chars1 - chars0,
            "failed": failed,
        }

    def canonical_traces(traces) -> dict:
        return {path: pipeline.canonical_trace_bytes(trace) for path, trace in traces}

    def records_bytes() -> bytes:
        return (config.run_dir / "records.json").read_bytes()

    result = {"passes": [], "traced": [], "layers": [], "errors": gate.errors}

    if spec["mode"] == "fill":
        result["passes"].append(run_pass())
        Path(result_path).write_text(json.dumps(result), encoding="utf-8")
        return 0

    seconds = spec["seconds"]
    trace = spec["trace"]
    # Warm-up pass: lazy set-up finishes before timing. In a traced run it is
    # also the untraced reference that the traced pass must reproduce.
    if trace:
        with tracing.captured_traces(harness) as kept:
            run_pass()
        reference_traces = canonical_traces(kept)
    else:
        run_pass()
    reference_records = records_bytes()

    untraced_budget = seconds / 2 if trace else seconds
    started = time.perf_counter()
    while len(result["passes"]) < 3 or time.perf_counter() - started < untraced_budget:
        result["passes"].append(run_pass())
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if trace:
        gold = set()
        schemas = dataset.load_schemas(config.tables_file)
        for example in dataset.load_examples(config.examples_file)[:examples]:
            gold.add((schemas[example.db_id].db_file_path, example.gold_sql))
        tracer = tracing.Tracer()
        tracer.install()
        gate.check(not tracer.unwrapped_sites(), f"unwrapped binding sites: {tracer.unwrapped_sites()}")
        started = time.perf_counter()
        try:
            while len(result["traced"]) < 2 or time.perf_counter() - started < seconds / 2:
                with tracing.captured_traces(harness) as kept:
                    sample = run_pass()
                spans = tracer.take()
                if len(result["traced"]) == 0:
                    gate.check(records_bytes() == reference_records,
                               "traced records.json differs from the untraced run")
                    gate.check(canonical_traces(kept) == reference_traces,
                               "traced canonical trace bytes differ from the untraced run")
                layers = tracing.layer_metrics(
                    spans, examples=examples, wall_s=sample["wall"], gold=gold,
                    latency_ms=spec["latency_ms"],
                )
                gate.check(
                    sum(layers[f"llm.complete.calls.{s}"] for s in tracing.STAGES) == sample["calls"],
                    f"traced llm.complete calls differ from the independent count {sample['calls']}",
                )
                layers["harness.run_dir_kbytes_per_example"] = _dir_kbytes(config.run_dir) / examples
                result["traced"].append(sample)
                result["layers"].append(layers)
        finally:
            tracer.uninstall()
        if spec["url"]:
            result["loopback_floor_ms"] = _calibrate(llm, spec["url"])

    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _calibrate(llm, url: str) -> float:
    """Median time of one model call through the program's HTTP client
    against the loopback server with no injected latency."""
    provider = llm.ProviderConfig(kind=llm.KIND_HTTP, base_url=url)
    request = llm.CompletionRequest(
        model_id="calibration", messages=(llm.ChatMessage("user", "ping"),)
    )
    samples = []
    for _ in range(CALIBRATION_CALLS):
        started = time.perf_counter()
        llm.complete(provider, request)
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
