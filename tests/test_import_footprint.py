"""numpy and urllib3 load only when logistic routing or an HTTP call needs them.

The check runs in a fresh interpreter: other test modules load both
dependencies into this one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"

_PROBE = """
import json
import sys
from pathlib import Path

import splitsql
import splitsql.cli
from helpers import scripted_pair
from splitsql.dataset import load_schemas
from splitsql.harness import ARM_BOTH, ARM_ROUTED, RunConfig, build_report, emit_report, run_benchmark
from splitsql.pipeline import MERGE_LAST_SUBQUERY, PipelineConfig

corpus, out = Path(sys.argv[1]), Path(sys.argv[2])
schemas = load_schemas(corpus / "tables.json")


def endpoints_for(example_id, example):
    tables = ", ".join(table.name for table in schemas[example.db_id].tables)
    return scripted_pair([
        ("in one step", example.gold_sql),
        ("table names", tables),
        ("sub-questions", "1. " + example.question),
        (example.question, example.gold_sql),
    ])


errors = {}
for arm in (ARM_BOTH, ARM_ROUTED):
    config = RunConfig(
        tables_file=corpus / "tables.json",
        examples_file=corpus / "examples.json",
        run_dir=out / arm,
        pipeline=PipelineConfig(merge_strategy=MERGE_LAST_SUBQUERY, column_selection_enabled=False),
    )
    records = run_benchmark(config, arm, endpoints_for=endpoints_for)
    errors[arm] = [record.error for record in records if record.error]
    report = build_report(records)
    emit_report(report, "json", out / arm / "report.json")
    emit_report(report, "markdown", out / arm / "report.md")
loaded = sorted({"numpy", "urllib3"} & set(sys.modules))

from splitsql.dataset import FeatureVector
from splitsql.router import RouterModel, route_logistic

model = RouterModel((0.0,) * 6, 0.0, (0.0,) * 6, (1.0,) * 6)
route_logistic(model, FeatureVector(1, 1, 1, 1, 1, 1))
print(json.dumps({"errors": errors, "loaded": loaded, "numpy_after": "numpy" in sys.modules}))
"""


def test_a_heuristic_scripted_run_loads_neither_numpy_nor_urllib3(corpus_root, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC_DIR), str(TESTS_DIR)])}
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, str(corpus_root), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout)
    assert result["errors"] == {"both": [], "routed": []}
    assert result["loaded"] == []
    assert result["numpy_after"] is True
