"""numpy never loads, not even for route-train or logistic routing, and
http.client and ssl load only for an HTTP call; urllib3 never loads, and
neither does concurrent.futures (with the logging it imports), even for a run
that starts threads. The package imports nothing that pyproject.toml does not
declare, and it declares nothing; no module of it imports a name it never uses.

The footprint checks run in a fresh interpreter: other test modules load
these modules into this one.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"

_PROBE = """
import contextlib
import io
import json
import sys
from pathlib import Path

sys.modules["numpy"] = None  # from here on, importing numpy raises ImportError

import splitsql
import splitsql.cli
from helpers import scripted_pair
from splitsql.dataset import load_schemas
from splitsql.harness import (
    ARM_BOTH, ARM_ROUTED, EXAMPLE_ID, PerExampleRecord, RunConfig, build_report, emit_report,
    run_benchmark, write_records,
)
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

# Train a logistic router on records where the arms take turns being right, then route by it.
records = [PerExampleRecord(EXAMPLE_ID.format(i), "db", 0, i % 2, 1 - i % 2) for i in range(20)]
write_records(out / "train.json", records)
(out / "config.json").write_text(json.dumps({"dataset": {"root": str(corpus)}}))
with contextlib.redirect_stdout(io.StringIO()):
    trained = splitsql.cli.main(["route-train", "--records", str(out / "train.json"), "--config",
                                 str(out / "config.json"), "--out", str(out / "router.json")])
config.router_kind, config.router_model_file = "logistic", out / "router.json"
config.run_dir = out / "logistic"
records = run_benchmark(config, ARM_ROUTED, endpoints_for=endpoints_for)
errors["logistic"] = [record.error or record.route_taken for record in records
                      if record.error or not record.route_taken]
# The runs above have 1 worker and no fan-out, so they start no thread.
loaded = sorted(
    {"urllib3", "http.client", "ssl", "concurrent.futures", "logging"} & set(sys.modules)
)
config.worker_count = 2
run_benchmark(config, ARM_BOTH, endpoints_for=endpoints_for)
threaded = sorted({"concurrent.futures", "logging"} & set(sys.modules))
print(json.dumps({"errors": errors, "loaded": loaded, "threaded": threaded, "trained": trained,
                  "numpy_never_loaded": sys.modules["numpy"] is None}))
"""


_HTTP_PROBE = """
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from splitsql.harness import ARM_ROUTED, EndpointSpec, RunConfig, run_benchmark
from splitsql.pipeline import MERGE_LAST_SUBQUERY, PipelineConfig


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        text = "COMPLEX" if "SIMPLE or COMPLEX" in prompt["messages"][-1]["content"] else "SELECT 1"
        payload = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
url = f"http://127.0.0.1:{server.server_port}"
corpus, out = Path(sys.argv[1]), Path(sys.argv[2])
config = RunConfig(
    tables_file=corpus / "tables.json",
    examples_file=corpus / "examples.json",
    run_dir=out,
    reasoning=EndpointSpec(base_url=url, model_id="reasoner"),
    coding=EndpointSpec(base_url=url, model_id="coder"),
    pipeline=PipelineConfig(merge_strategy=MERGE_LAST_SUBQUERY, column_selection_enabled=False),
    router_kind="judge",
    worker_count=2,
    limit=4,
)
records = run_benchmark(config, ARM_ROUTED)
server.shutdown()
server.server_close()
print(json.dumps({
    "routes": [record.route_taken for record in records],
    "errors": [record.error for record in records if record.error],
    "loaded": sorted({"numpy", "urllib3"} & set(sys.modules)),
}))
"""


def _probe(source: str, *args) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC_DIR), str(TESTS_DIR)])}
    completed = subprocess.run(
        [sys.executable, "-c", source, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_a_heuristic_scripted_run_loads_neither_numpy_nor_urllib3(corpus_root, tmp_path):
    result = _probe(_PROBE, corpus_root, tmp_path)
    assert result["errors"] == {"both": [], "routed": [], "logistic": []}
    assert result["loaded"] == []
    assert result["threaded"] == []
    assert result["trained"] == 0
    assert result["numpy_never_loaded"] is True


def test_a_judge_routed_http_run_never_imports_urllib3(corpus_root, tmp_path):
    result = _probe(_HTTP_PROBE, corpus_root, tmp_path)
    assert result == {"routes": ["divide_and_merge"] * 4, "errors": [], "loaded": []}


def test_the_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in (SRC_DIR / "splitsql").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"splitsql"}
    pyproject = tomllib.loads((SRC_DIR.parent / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[\w.-]+", spec).group() for spec in pyproject["project"]["dependencies"]}
    assert third_party == declared


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted((SRC_DIR / "splitsql").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert unused == []
