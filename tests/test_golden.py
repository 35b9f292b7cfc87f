"""Byte identity of what a run writes: the bench/gen.py seed-7 ``cold`` corpus,
answered by bench/responder.Responder, in six configurations of arm, router,
worker count and sub-query fan-out.

Each configuration pins one SHA-256 digest over its ``records.json`` and its
trace files, with the run directory's path replaced by a placeholder, stage
timings removed and reply latencies zeroed. A change
that is meant to change results updates DIGESTS from the failure message;
a refactor must leave them as they are. Refinement prompts carry SQLite's
error text, so the digests hold for the SQLite and Python versions in
VERSIONS.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import sys
from pathlib import Path

import pytest

from splitsql.harness import RunConfig, run_benchmark
from splitsql.llm import KIND_SCRIPTED, ModelEndpoint, ModelPair, ProviderConfig
from splitsql.pipeline import MERGE_PLANNER_EXECUTOR, PipelineConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from responder import Responder  # noqa: E402

VERSIONS = {"sqlite": "3.40.1", "python": "3.11.7"}
# name: (arm, router kind, worker count, parallel sub-queries)
CONFIGS = {
    "both-1": ("both", "heuristic", 1, False),
    "both-2-fanout": ("both", "heuristic", 2, True),
    "routed-heuristic-2": ("routed", "heuristic", 2, False),
    "routed-judge-1-fanout": ("routed", "judge", 1, True),
    "baseline-1": ("baseline", "heuristic", 1, False),
    "module-2-fanout": ("module", "heuristic", 2, True),
}
DIGESTS = {
    "both-1": "5a24e1b0735639bca41e24942dc072966bec259c8e826c6bd5d1c37b25ca3730",
    "both-2-fanout": "86ef24295144bdfbcb1bea9fc0f8f7ffda4456f9a7a5f9415e8d519c4e3af745",
    "routed-heuristic-2": "b594f9280d1cb4531b088acec444a94e725f9737cafadd632500bf44aadd99da",
    "routed-judge-1-fanout": "250638bd4f5ba4d432eb6cc3fd9039c32919e37eeed21e7bc0257fc8b47f2c76",
    "baseline-1": "03768514c7513592bb9cc5278eef36afe7bf5e33665d674a30da52b70a50a0d5",
    "module-2-fanout": "05e87e0bbefe5dcf94dfcc2801b0e1232f274970b83486cc317a055d17b37420",
}
_ARM_OF_ROUTE = {"baseline": "baseline", "divide_and_merge": "module"}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden") / "corpus"
    generated = gen.generate(7, "cold")
    gen.write_corpus(generated, root, len(generated.examples))
    return root


def _canonical_trace(text: str) -> str:
    data = json.loads(text)
    del data["stage_timings_ms"]
    for entry in data["transcript"]:
        entry["response"]["latency_ms"] = 0
    return json.dumps(data, sort_keys=True)


def _run(corpus: Path, run_dir: Path, arm: str, router: str, workers: int, fanout: bool):
    """The run's records and the digest of everything it wrote."""
    config = RunConfig(
        tables_file=corpus / "tables.json",
        examples_file=corpus / "examples.json",
        run_dir=run_dir,
        pipeline=PipelineConfig(merge_strategy=MERGE_PLANNER_EXECUTOR, parallel_subqueries=fanout),
        router_kind=router,
        worker_count=workers,
    )
    plan = json.loads((corpus / "plan.json").read_text(encoding="utf-8"))
    provider = ProviderConfig(kind=KIND_SCRIPTED, script=Responder(plan))
    endpoint = ModelEndpoint(provider=provider, model_id="bench-scripted")
    pair = ModelPair(reasoning=endpoint, coding=endpoint)
    records = run_benchmark(config, arm, endpoints_for=lambda example_id, example: pair)

    digest = hashlib.sha256()
    files = [run_dir / "records.json", *sorted((run_dir / "traces").glob("*.json"))]
    for path in files:
        text = path.read_text(encoding="utf-8")
        if path.parent.name == "traces":
            text = path.name + "\n" + _canonical_trace(text)
        text = text.replace(str(run_dir), "<run>")
        digest.update(text.encode("utf-8") + b"\0")
    return records, digest.hexdigest()


def _designed(want: dict, arm: str, router: str, table_count: int) -> tuple:
    """(baseline bit, module bit, route) that bench/gen.py designed the example to get."""
    route = ""
    if arm == "routed":
        big = table_count >= RunConfig.table_threshold
        route = want["route"] if router == "judge" else (
            "divide_and_merge" if big else "baseline")
    ran = {"both": ("baseline", "module"), "routed": (_ARM_OF_ROUTE.get(route),)}.get(arm, (arm,))
    return (want["baseline_correct"] if "baseline" in ran else None,
            want["module_correct"] if "module" in ran else None, route)


def test_every_configuration_writes_the_pinned_bytes(corpus, tmp_path):
    expected = json.loads((corpus / "expected.json").read_text(encoding="utf-8"))
    got = {}
    for name, (arm, router, workers, fanout) in CONFIGS.items():
        records, got[name] = _run(corpus, tmp_path / name, arm, router, workers, fanout)
        assert len(records) == len(expected)
        if fanout:  # expected.json is what bench/worker.py's gate checks, without fan-out
            continue
        for record, want in zip(records, expected):
            outcome = (record.baseline_correct, record.module_correct, record.route_taken)
            designed = _designed(want, arm, router, record.table_count)
            assert (record.example_id, outcome) == (want["example_id"], designed), (name, record)
    versions = {"sqlite": sqlite3.sqlite_version, "python": sys.version.split()[0]}
    assert got == DIGESTS, (
        f"run output changed; pinned under {VERSIONS}, run under {versions}."
        f" New digests: {json.dumps(got, indent=4)}"
    )
