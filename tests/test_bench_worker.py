"""The benchmark's measuring process (bench/worker.py) still runs against this
checkout's src/: a refactor that breaks a name it or bench/tracing.py uses
fails here, not only when the benchmark runs."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
EXAMPLES = 12
# The stage labels of the divide-and-merge arm's model calls.
MODULE_STAGES = ("table_selection", "decomposition", "subquery_generation", "merge_planner",
                 "merge_executor", "column_selection")
ARM_FUNCTIONS = ("run_baseline", "run_divide_and_merge")


@pytest.fixture(scope="module")
def bench_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("bench") / "corpus"
    script = (
        "import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); import gen; "
        "gen.write_corpus(gen.generate(7, 'cold'), Path(sys.argv[2]), int(sys.argv[3]))"
    )
    subprocess.run(
        [sys.executable, "-c", script, str(BENCH), str(corpus), str(EXAMPLES)],
        check=True, timeout=120,
    )
    return corpus


# scripted_both's program path, and http_routed's (judge-routed, 2 workers) with the
# in-process responder in place of the loopback server; each traced and untraced.
@pytest.mark.parametrize(
    "arm, router, workers, trace",
    [
        pytest.param("both", "heuristic", 1, 0, id="0"),
        pytest.param("both", "heuristic", 1, 1, id="1"),
        pytest.param("routed", "judge", 2, 0, id="routed-judge-0"),
        pytest.param("routed", "judge", 2, 1, id="routed-judge-1"),
    ],
)
def test_worker_passes_its_correctness_gate(bench_corpus, tmp_path, arm, router, workers, trace):
    spec = dict(
        root=str(ROOT), corpus=str(bench_corpus), work=str(tmp_path / "work"), arm=arm,
        router=router, workers=workers, url="", cache="cold", cache_dir=str(tmp_path / "cache"),
        seconds=0.01, trace=trace, latency_ms=0.0, mode="measure",
    )
    spec_path, result_path = tmp_path / "spec.json", tmp_path / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["errors"] == []
    assert len(result["traced"]) == (2 if trace else 0)
    assert all(p["failed"] == 0 for p in result["passes"] + result["traced"])
    # The tracer counts every arm run and every stage the arm uses; a name it
    # could not rebind would read 0 here.
    stages = (*MODULE_STAGES, "baseline") + (("judge",) if router == "judge" else ())
    for layers in result["layers"]:
        arms_run = sum(layers[f"pipeline.{name}.calls"] for name in ARM_FUNCTIONS)
        assert arms_run == EXAMPLES * (2 if arm == "both" else 1)
        assert all(layers[f"llm.complete.calls.{stage}"] > 0 for stage in stages), layers
