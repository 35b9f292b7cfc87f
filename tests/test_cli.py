from __future__ import annotations

import json
import shutil
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from splitsql.cli import main
from splitsql.dataset import extract_features
from splitsql.harness import PerExampleRecord, write_records
from splitsql.prompts import builtin_template_dir
from splitsql.router import load_router_model, route_logistic


class _ConstantSqlHandler(BaseHTTPRequestHandler):
    reply_sql = "SELECT COUNT(*) FROM Customers"

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": self.reply_sql}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def constant_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ConstantSqlHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def _write_config(tmp_path, corpus_root, base_url):
    payload = {
        "dataset": {"root": str(corpus_root)},
        "llm": {
            "reasoning_model": {"base_url": base_url, "model_id": "reasoner"},
            "coding_model": {"base_url": base_url, "model_id": "coder"},
        },
        "pipeline": {"merge_strategy": "last_subquery", "column_selection": False},
        "harness": {"worker_count": 2, "run_dir": str(tmp_path / "run")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_make_corpus(tmp_path, capsys):
    assert main(["make-corpus", "--out", str(tmp_path / "corpus")]) == 0
    out = capsys.readouterr().out
    assert "mini corpus written" in out
    assert (tmp_path / "corpus" / "tables.json").is_file()
    assert (tmp_path / "corpus" / "database" / "measurement_lab" / "measurement_lab.sqlite").is_file()


def test_run_baseline_against_live_endpoint(tmp_path, corpus_root, constant_server, capsys):
    config = _write_config(tmp_path, corpus_root, constant_server)
    code = main(
        ["run", "--config", str(config), "--arm", "baseline", "--limit", "2",
         "--workers", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ex_baseline: 50.00" in out
    records = json.loads((tmp_path / "run" / "records.json").read_text())
    assert len(records) == 2
    assert [r["baseline_correct"] for r in records] == [1, 0]
    assert (tmp_path / "run" / "report.md").is_file()
    assert (tmp_path / "run" / "report.json").is_file()


def _both_arm_records():
    records = []
    for index in range(20):
        if index < 8:  # customer_orders: 8 tables, pipeline wins
            baseline, module = 0, 1
        elif index < 14:  # city_channels: 5 tables, agreement
            baseline, module = 1, 1
        else:  # region_buildings: 2 tables, baseline wins
            baseline, module = 1, 0
        records.append(
            PerExampleRecord(
                example_id=f"ex{index:04d}",
                db_id="db",
                table_count=8 if index < 8 else (5 if index < 14 else 2),
                baseline_correct=baseline,
                module_correct=module,
            )
        )
    return records


def test_report_sweep_and_compare(tmp_path, capsys):
    records_path = tmp_path / "records.json"
    write_records(records_path, _both_arm_records())

    assert main(["report", "--records", str(records_path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ex_oracle"] == 100.0
    capsys.readouterr()

    assert main(["sweep", "--records", str(records_path), "--points", "0,0.5,1"]) == 0
    out = capsys.readouterr().out
    assert "1.00\t100.00" in out

    other = tmp_path / "records_b.json"
    write_records(other, _both_arm_records())
    assert main(
        ["compare", "--a", str(records_path), "--b", str(other),
         "--ablation", "Planner&Executor", "--out", str(tmp_path / "ablation.md")]
    ) == 0
    ablation = (tmp_path / "ablation.md").read_text()
    assert "Planner&Executor" in ablation


def test_route_train_produces_model(tmp_path, corpus_root, capsys):
    records_path = tmp_path / "records.json"
    write_records(records_path, _both_arm_records())
    config = _write_config(tmp_path, corpus_root, "http://unused.localhost")
    model_path = tmp_path / "router.json"
    code = main(
        ["route-train", "--records", str(records_path), "--config", str(config),
         "--out", str(model_path), "--epochs", "400"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "training accuracy: 1.0000" in out
    model = load_router_model(model_path)
    assert len(model.weights) == 6


@pytest.mark.parametrize("example_id", ["ex0100", "ex-001"])
def test_route_train_rejects_a_record_naming_no_example(
    tmp_path, corpus_root, capsys, example_id
):
    # ex0100 comes from a longer dataset than the 20-example corpus; ex-001
    # must not be read as index -1, the last example.
    records = _both_arm_records()
    records[0].example_id = example_id
    records_path = tmp_path / "records.json"
    write_records(records_path, records)
    config = _write_config(tmp_path, corpus_root, "http://unused.localhost")
    model_path = tmp_path / "router.json"
    code = main(
        ["route-train", "--records", str(records_path), "--config", str(config),
         "--out", str(model_path)]
    )
    assert code == 1
    assert repr(example_id) in capsys.readouterr().err
    assert not model_path.exists()


@pytest.mark.parametrize(
    "bits, code", [((0, 0), 0), ((1, 0), 1)], ids=["agreement", "disagreement"]
)
def test_route_train_looks_up_a_schema_only_for_a_training_row(
    tmp_path, corpus_root, capsys, bits, code
):
    # A both run writes an example with an unknown db_id as an error record.
    examples = json.loads((corpus_root / "examples.json").read_text())
    examples.append({"question": "q", "query": "SELECT 1", "db_id": "no_such_db"})
    (tmp_path / "examples.json").write_text(json.dumps(examples))
    config = _write_config(tmp_path, corpus_root, "http://unused.localhost")
    payload = json.loads(config.read_text())
    payload["dataset"]["examples"] = str(tmp_path / "examples.json")
    config.write_text(json.dumps(payload))
    records = _both_arm_records()
    records.append(PerExampleRecord("ex0020", "no_such_db", 0, *bits, error="unknown db_id"))
    records_path = tmp_path / "records.json"
    write_records(records_path, records)
    model_path = tmp_path / "router.json"
    assert main(
        ["route-train", "--records", str(records_path), "--config", str(config),
         "--out", str(model_path), "--epochs", "400"]
    ) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "trained on 14 disagreement rows" in out
    else:
        assert "'ex0020'" in err and "'no_such_db'" in err
        assert not model_path.exists()


# The model file route-train writes for _both_arm_records() over the bundled
# corpus at the default settings, and each bundled example's logistic route
# under it (branch, score as float.hex). Every sum in training and routing is
# a math.fsum, so no summation order of a linear-algebra library enters them.
ROUTE_TRAIN_MODEL = """{
  "bias": 0.49987433879355964,
  "feature_means": [
    5.428571428571429,
    27.571428571428573,
    5.0,
    11.428571428571429,
    0.42857142857142855,
    0.14285714285714285
  ],
  "feature_names": [
    "table_count",
    "column_count",
    "foreign_key_count",
    "question_token_count",
    "question_has_aggregation_keyword",
    "question_has_superlative_keyword"
  ],
  "feature_stds": [
    2.969229955832361,
    14.351278119856412,
    3.4641016151377544,
    4.8064582403602065,
    0.4948716593053935,
    0.3499271061118826
  ],
  "weights": [
    1.6241545292528663,
    1.6241545292528667,
    1.6241545292528672,
    0.1859318554003366,
    -0.0810433105249662,
    0.26439799586308876
  ]
}"""
ROUTE_TRAIN_DECISIONS = [
    ("divide_and_merge", "0x1.f9fd79db3b0c3p-1"),
    ("divide_and_merge", "0x1.fb096c478da5fp-1"),
    ("divide_and_merge", "0x1.fa61fc6fba981p-1"),
    ("divide_and_merge", "0x1.febc3fcb9e550p-1"),
    ("divide_and_merge", "0x1.fb392f72c1c47p-1"),
    ("divide_and_merge", "0x1.fafe023f2e754p-1"),
    ("divide_and_merge", "0x1.fd90875040d7dp-1"),
    ("divide_and_merge", "0x1.fafe023f2e754p-1"),
    ("divide_and_merge", "0x1.0215ccba227e9p-1"),
    ("baseline", "0x1.3179253ec2a8ap-2"),
    ("baseline", "0x1.424f9e41187bdp-2"),
    ("baseline", "0x1.39d43fc1d2174p-2"),
    ("baseline", "0x1.424f9e41187bdp-2"),
    ("baseline", "0x1.53a360adbe4adp-2"),
    ("baseline", "0x1.50566ffa16d88p-8"),
    ("baseline", "0x1.22eff57a3e381p-8"),
    ("baseline", "0x1.6e84f4c925125p-8"),
    ("baseline", "0x1.60afc49295df7p-8"),
    ("baseline", "0x1.2ba74b1c215d8p-8"),
    ("baseline", "0x1.376a8a806b6dap-8"),
]


def test_route_train_output_is_pinned(tmp_path, corpus_root, schemas, examples):
    records_path = tmp_path / "records.json"
    write_records(records_path, _both_arm_records())
    config = _write_config(tmp_path, corpus_root, "http://unused.localhost")
    model_path = tmp_path / "router.json"
    assert main(
        ["route-train", "--records", str(records_path), "--config", str(config),
         "--out", str(model_path)]
    ) == 0
    assert model_path.read_bytes() == ROUTE_TRAIN_MODEL.encode()
    model = load_router_model(model_path)
    decisions = [
        route_logistic(model, extract_features(example.question, schemas[example.db_id]))
        for example in examples
    ]
    assert [(d.branch, d.score.hex()) for d in decisions] == ROUTE_TRAIN_DECISIONS


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_route_train_reports_a_diverged_model_and_writes_no_file(tmp_path, corpus_root, capsys):
    # With lr * l2 = 5, each step multiplies the weights by -4 until they overflow.
    records_path = tmp_path / "records.json"
    write_records(records_path, _both_arm_records())
    config = _write_config(tmp_path, corpus_root, "http://unused.localhost")
    model_path = tmp_path / "router.json"
    assert main(
        ["route-train", "--records", str(records_path), "--config", str(config),
         "--out", str(model_path), "--lr", "1", "--l2", "5", "--epochs", "700"]
    ) == 1
    assert "cannot train router: training diverged" in capsys.readouterr().err
    assert not model_path.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "options, message",
    [
        (["--lr", "1", "--l2", "5"], "training diverged: with learning_rate * l2 = 5"),
        (["--lr", "0.5", "--l2", "4"], "each step scales the weights by -1"),
        (["--lr", "0"], "learning_rate must be positive"),
        (["--epochs", "0"], "epochs must be positive"),
        (["--l2", "-1"], "l2 must be >= 0"),
        (["--lr", "1", "--l2", "1.99", "--epochs", "700"], "training cannot converge"),
        (["--lr", "nan"], "learning_rate must be positive"),
        (["--l2", "nan"], "l2 must be >= 0"),
    ],
    ids=["lr-l2-5", "lr-l2-2", "lr-0", "epochs-0", "l2-negative", "lr-1-l2-1.99", "lr-nan",
         "l2-nan"],
)
def test_route_train_rejects_hyper_parameters_that_cannot_train(
    tmp_path, corpus_root, capsys, options, message
):
    records_path = tmp_path / "records.json"
    write_records(records_path, _both_arm_records())
    config = _write_config(tmp_path, corpus_root, "http://unused.localhost")
    model_path = tmp_path / "router.json"
    assert main(
        ["route-train", "--records", str(records_path), "--config", str(config),
         "--out", str(model_path), *options]
    ) == 1
    out, err = capsys.readouterr()
    assert err.startswith("cannot train router: ") and message in err and not out
    assert not model_path.exists()


@pytest.mark.parametrize("command", ["run", "route-train"])
@pytest.mark.parametrize(
    "content, message",
    [
        ('{"pipeline": {"colum_selection": false}}',
         "bad.json: unknown config key(s): pipeline.colum_selection"),
        ('{"pipeline": {"merge_strategy": "vote"}}', "unknown merge strategy 'vote'"),
        ("{not json", "bad.json: config file is not JSON: Expecting property name"),
        ('{"router": {"kind": "logstic"}}', "unknown router kind 'logstic'"),
        (None, "No such file or directory"),
        ("[]", "bad.json: a config file must hold a JSON object"),
    ],
    ids=["unknown-key", "unknown-merge", "not-json", "unknown-router", "missing",
         "top-level-array"],
)
def test_a_bad_config_file_prints_one_line_and_exits_2(tmp_path, capsys, command, content, message):
    config = tmp_path / "bad.json"
    if content is not None:
        config.write_text(content)
    records_path = tmp_path / "records.json"
    write_records(records_path, _both_arm_records())
    model_path = tmp_path / "router.json"
    options = ["--records", str(records_path), "--out", str(model_path)]
    options = options if command == "route-train" else []
    assert main([command, "--config", str(config), *options]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("splitsql: ") and message in err and err.count("\n") == 1
    assert not out and not model_path.exists()


def _records_text(*overrides, **fields) -> str:
    """A records file of one record per override (one when none is given),
    each a well-formed record with the override's fields and then these."""
    base = {"example_id": "ex0000", "db_id": "d", "table_count": 3,
            "baseline_correct": 1, "module_correct": 0}
    return json.dumps([{**base, **override, **fields} for override in overrides or ({},)])


@pytest.mark.parametrize("command", ["report", "sweep", "compare", "route-train"])
@pytest.mark.parametrize(
    "content, message",
    [
        (None, "records.json: cannot read records file: No such file or directory"),
        ("[{not json", "records.json: records file is not JSON: Expecting property name"),
        ('{"example_id": "ex0000"}', "records.json: a records file must hold a JSON array"),
        ('["ex0000"]', "records.json: record 0 is not a JSON object"),
        ('[{"example_id": "ex0000"}]', "records.json: record 0 lacks db_id, table_count"),
        (_records_text(baseline_correct=2),
         "records.json: record 0 field baseline_correct must be 0, 1 or null, not 2"),
        (_records_text(module_correct=True),
         "records.json: record 0 field module_correct must be 0, 1 or null, not true"),
        (_records_text(example_id=5), "records.json: record 0 field example_id must be a string"),
        (_records_text(db_id=None), "records.json: record 0 field db_id must be a string, not null"),
        (_records_text(final_sql_module=["SELECT 1"]),
         "records.json: record 0 field final_sql_module must be a string"),
        (_records_text(error=0), "records.json: record 0 field error must be a string, not 0"),
        (_records_text({}, {"table_count": "3"}),
         'records.json: record 1 field table_count must be an int, not "3"'),
        (_records_text(table_count=True),
         "records.json: record 0 field table_count must be an int, not true"),
        (_records_text(trace_paths=["a.json"]),
         'records.json: record 0 field trace_paths must be two strings, not ["a.json"]'),
        (_records_text(route_taken="x"),
         'records.json: record 0 field route_taken must be "", "baseline" or "divide_and_merge"'),
        ("[]", "records.json: a records file holds no records"),
    ],
    ids=["missing", "not-json", "object", "string-row", "lacking-fields", "bit-2", "bit-true",
         "int-example-id", "null-db-id", "list-sql", "int-error", "string-table-count",
         "bool-table-count", "one-trace-path", "unknown-route", "empty"],
)
def test_a_bad_records_file_prints_one_line_and_exits_2(
    tmp_path, corpus_root, capsys, command, content, message
):
    records_path = tmp_path / "records.json"
    if content is not None:
        records_path.write_text(content)
    good = tmp_path / "good.json"
    write_records(good, _both_arm_records())
    config = _write_config(tmp_path, corpus_root, "http://unused.localhost")
    model_path = tmp_path / "router.json"
    options = {
        "report": ["--records", str(records_path), "--out", str(tmp_path)],
        "sweep": ["--records", str(records_path)],
        "compare": ["--a", str(good), "--b", str(records_path)],
        "route-train": ["--records", str(records_path), "--config", str(config),
                        "--out", str(model_path)],
    }[command]
    assert main([command, *options]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"splitsql: {tmp_path / message}") and err.count("\n") == 1
    assert not model_path.exists() and not (tmp_path / "report.md").exists()


@pytest.mark.parametrize("arm", ["baseline", "module", "both", "routed"])
def test_an_unknown_router_kind_is_a_config_error_for_every_arm(tmp_path, corpus_root, capsys, arm):
    config = _write_config(tmp_path, corpus_root, "http://127.0.0.1:9")
    payload = json.loads(config.read_text())
    payload["router"] = {"kind": "logstic"}
    config.write_text(json.dumps(payload))
    assert main(["run", "--config", str(config), "--arm", arm]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "splitsql: unknown router kind 'logstic'\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "options, harness, message",
    [
        (["--limit", "-1"], {}, "limit must be >= 1"),
        (["--limit", "0"], {}, "limit must be >= 1"),
        (["--workers", "0"], {}, "worker_count must be >= 1"),
        (["--workers", "-1"], {}, "worker_count must be >= 1"),
        ([], {"limit": -1}, "limit must be >= 1"),
    ],
    ids=["limit-minus-1", "limit-0", "workers-0", "workers-minus-1", "config-limit-minus-1"],
)
def test_a_bad_override_or_limit_prints_one_line_and_exits_2(
    tmp_path, corpus_root, capsys, options, harness, message
):
    config = _write_config(tmp_path, corpus_root, "http://127.0.0.1:9")
    payload = json.loads(config.read_text())
    payload["harness"].update(harness)
    config.write_text(json.dumps(payload))
    assert main(["run", "--config", str(config), "--arm", "baseline", *options]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"splitsql: {message}\n")
    assert not (tmp_path / "run").exists()


# A retired setting (the float tolerance and the fan-out width are constants now) is refused
# whatever its value, as an unknown key of the config file; the file's path opens the line.
RETIRED_KEY = "<unknown key> "


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        (("executor",), "timeout_ms", 0, "timeout_ms must be positive"),
        (("executor",), "timeout_ms", -5, "timeout_ms must be positive"),
        (("executor",), "float_tolerance", -1e-6, RETIRED_KEY + "executor.float_tolerance"),
        (("executor",), "float_tolerance", float("nan"),
         RETIRED_KEY + "executor.float_tolerance"),
        (("llm", "coding_model"), "request_timeout_ms", 0, "timeouts and backoff must be positive"),
        (("llm", "reasoning_model"), "max_tokens", 0, "max_tokens must be positive"),
        (("harness",), "worker_count", "2", 'harness.worker_count must be an integer, not "2"'),
        (("harness",), "worker_count", True, "harness.worker_count must be an integer, not true"),
        (("harness",), "limit", "5", 'harness.limit must be an integer or null, not "5"'),
        (("executor",), "timeout_ms", "10", 'executor.timeout_ms must be an integer, not "10"'),
        (("executor",), "timeout_ms", None, "executor.timeout_ms must be an integer, not null"),
        (("executor",), "float_tolerance", "0.1", RETIRED_KEY + "executor.float_tolerance"),
        (("pipeline",), "max_refinements", "3",
         'pipeline.max_refinements must be an integer, not "3"'),
        (("pipeline",), "subquery_fanout_width", "4",
         RETIRED_KEY + "pipeline.subquery_fanout_width"),
        (("router",), "table_threshold", "5",
         'router.table_threshold must be an integer, not "5"'),
        (("llm",), "reasoning_model", "x",
         'llm.reasoning_model must be an object or null, not "x"'),
        (("llm", "coding_model"), "base_url", 5,
         "llm.coding_model.base_url must be a string, not 5"),
        (("dataset",), "root", 5, "dataset.root must be a path string, not 5"),
        (("llm",), "reasoning_model", {"model_id": "r"},
         "llm.reasoning_model.base_url must be given"),
        (("llm", "coding_model"), "base_url", "http://127.0.0.1:9/v 1",
         "base_url contains a space or control character: 'http://127.0.0.1:9/v 1'"),
        (("llm", "coding_model"), "base_url", "", "http provider requires base_url"),
        (("llm", "reasoning_model"), "max_retries", -1, "max_retries must be >= 0"),
        (("llm", "reasoning_model"), "temperature", -1, "temperature must be finite and >= 0"),
        (("llm", "reasoning_model"), "temperature", float("nan"),
         "temperature must be finite and >= 0"),
        (("llm", "coding_model"), "temperature", float("inf"),
         "temperature must be finite and >= 0"),
    ],
    ids=["timeout-0", "timeout-minus-5", "tolerance-negative", "tolerance-nan",
         "request-timeout-0", "max-tokens-0", "worker-count-string", "worker-count-bool",
         "limit-string", "timeout-string", "timeout-null", "tolerance-string",
         "refinements-string", "fanout-string", "threshold-string", "role-string",
         "base-url-number", "root-number", "base-url-missing", "base-url-space",
         "base-url-empty", "max-retries-minus-1", "temperature-minus-1", "temperature-nan",
         "temperature-inf"],
)
def test_a_bad_run_or_endpoint_setting_prints_one_line_and_exits_2(
    tmp_path, corpus_root, capsys, section, key, value, message
):
    config = _write_config(tmp_path, corpus_root, "http://127.0.0.1:9")
    payload = json.loads(config.read_text())
    node = payload
    for name in section:
        node = node.setdefault(name, {})
    node[key] = value
    config.write_text(json.dumps(payload))
    assert main(["run", "--config", str(config), "--arm", "baseline", "--limit", "1"]) == 2
    out, err = capsys.readouterr()
    message = message.replace(RETIRED_KEY, f"{config}: unknown config key(s): ")
    assert (out, err) == ("", f"splitsql: {message}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "points, message",
    [("0,2", "router accuracy 2.0 outside [0, 1]"),
     ("x", "could not convert string to float: 'x'")],
    ids=["outside", "not-a-number"],
)
def test_sweep_rejects_a_bad_point_in_one_line_with_exit_2(tmp_path, capsys, points, message):
    records_path = tmp_path / "records.json"
    write_records(records_path, _both_arm_records())
    assert main(["sweep", "--records", str(records_path), "--points", points]) == 2
    assert capsys.readouterr() == ("", f"splitsql: {message}\n")


@pytest.mark.parametrize(
    "section, key, value",
    [("executor", "float_tolerance", 1e-06), ("pipeline", "subquery_fanout_width", 4),
     ("harness", "run_seed", 7)],
    ids=["float-tolerance", "fanout-width", "run-seed"],
)
def test_a_retired_setting_is_an_unknown_config_key(
    tmp_path, corpus_root, capsys, section, key, value
):
    config = _write_config(tmp_path, corpus_root, "http://127.0.0.1:9")
    payload = json.loads(config.read_text())
    payload.setdefault(section, {})[key] = value
    config.write_text(json.dumps(payload))
    assert main(["run", "--config", str(config), "--arm", "baseline"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"splitsql: {config}: unknown config key(s): {section}.{key}\n")
    assert not (tmp_path / "run").exists()


def _template_dir_without_the_question(tmp_path):
    directory = tmp_path / "templates"
    shutil.copytree(builtin_template_dir(), directory)
    (directory / "baseline.txt").write_text("Answer in SQL.\n")
    return "templates"


@pytest.mark.parametrize(
    "write, settings, message",
    [
        (lambda tmp: (tmp / "tables.json").write_text("{}"), {"dataset": {"tables": "tables.json"}},
         "tables.json: a tables file must hold a JSON array"),
        (lambda tmp: (tmp / "dev.json").write_text("{}"), {"dataset": {"examples": "dev.json"}},
         "dev.json: an examples file must hold a JSON array"),
        (lambda tmp: (tmp / "dev.json").write_text("[]"), {"dataset": {"examples": "dev.json"}},
         "dev.json: an examples file holds no examples"),
        (lambda tmp: (tmp / "tables.json").write_text(
            '[{"db_id": "x", "table_names_original": [], "column_names_original": []}]'),
         {"dataset": {"tables": "tables.json"}},
         "tables.json: malformed schema record 'x': schema has no tables"),
        (_template_dir_without_the_question, {"prompts": {"dir": "templates"}},
         "baseline.txt: template lacks required placeholder(s)"),
        (lambda tmp: (tmp / "few.json").write_text('{"q": 1}'),
         {"prompts": {"fewshot_file": "few.json"}},
         "few.json: a few-shot file must hold a JSON array"),
        (lambda tmp: (tmp / "router.json").write_text("[]"),
         {"router": {"kind": "logistic", "model_file": "router.json"}},
         "router.json: a router model file must hold a JSON object"),
        (lambda tmp: None, {"router": {"kind": "logistic"}},
         "logistic routing requires router.model_file"),
    ],
    ids=["tables", "examples", "examples-empty", "tables-no-tables", "template", "fewshot",
         "router-model", "router-model-unset"],
)
def test_a_bad_run_input_file_prints_one_line_and_exits_2(
    tmp_path, corpus_root, capsys, write, settings, message
):
    config = _write_config(tmp_path, corpus_root, "http://127.0.0.1:9")
    payload = json.loads(config.read_text())
    write(tmp_path)
    for section, values in settings.items():
        payload.setdefault(section, {}).update(values)
    config.write_text(json.dumps(payload))
    assert main(["run", "--config", str(config), "--arm", "routed", "--limit", "1"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("splitsql: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "write, dataset, message",
    [
        (lambda tmp: (tmp / "bad_tables.json").write_text("{}"), {"tables": "bad_tables.json"},
         "bad_tables.json: a tables file must hold a JSON array"),
        (lambda tmp: None, {"examples": "missing.json"},
         "missing.json: cannot read examples file: No such file or directory"),
        (lambda tmp: (tmp / "empty.json").write_text("[]"), {"examples": "empty.json"},
         "empty.json: an examples file holds no examples"),
    ],
    ids=["tables-object", "examples-missing", "examples-empty"],
)
def test_a_bad_corpus_file_makes_route_train_print_one_line_and_exit_2(
    tmp_path, corpus_root, capsys, write, dataset, message
):
    config = _write_config(tmp_path, corpus_root, "http://unused.localhost")
    payload = json.loads(config.read_text())
    payload["dataset"].update(dataset)
    config.write_text(json.dumps(payload))
    write(tmp_path)
    records_path = tmp_path / "records.json"
    write_records(records_path, _both_arm_records())
    model_path = tmp_path / "router.json"
    assert main(["route-train", "--records", str(records_path), "--config", str(config),
                 "--out", str(model_path)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == f"splitsql: {tmp_path / message}\n"
    assert not model_path.exists()


def test_run_counts_the_records_with_error_notes(tmp_path, corpus_root, constant_server, capsys):
    examples = json.loads((corpus_root / "examples.json").read_text())[:2]
    examples.append({"question": "q", "query": "SELECT 1", "db_id": "no_such_db"})
    (tmp_path / "examples.json").write_text(json.dumps(examples))
    config = _write_config(tmp_path, corpus_root, constant_server)
    payload = json.loads(config.read_text())
    payload["dataset"]["examples"] = str(tmp_path / "examples.json")
    config.write_text(json.dumps(payload))
    assert main(["run", "--config", str(config), "--arm", "baseline", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "examples: 3\n" in out and "records with error notes: 1\n" in out
    records = json.loads((tmp_path / "run" / "records.json").read_text())
    assert [bool(record["error"]) for record in records] == [False, False, True]


def test_report_with_a_reference_of_no_disagreement_says_why_it_has_no_accuracy(
    tmp_path, capsys
):
    agreeing = [PerExampleRecord(f"ex{i:04d}", "db", 3, 1, 1) for i in range(4)]
    reference = tmp_path / "both.json"
    write_records(reference, agreeing)
    out_dir = tmp_path / "report"
    assert main(["report", "--records", str(reference), "--reference", str(reference),
                 "--out", str(out_dir)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("realized router accuracy unavailable: ") and err.count("\n") == 1
    assert json.loads((out_dir / "report.json").read_text())["realized_router_accuracy"] is None


def test_route_train_with_no_disagreement_rows_trains_nothing(tmp_path, corpus_root, capsys):
    records_path = tmp_path / "records.json"
    write_records(records_path, [PerExampleRecord(f"ex{i:04d}", "db", 3, 1, 1) for i in range(4)])
    config = _write_config(tmp_path, corpus_root, "http://unused.localhost")
    model_path = tmp_path / "router.json"
    assert main(["route-train", "--records", str(records_path), "--config", str(config),
                 "--out", str(model_path)]) == 1
    assert capsys.readouterr() == ("", "no disagreement examples; nothing to train on\n")
    assert not model_path.exists()


def test_compare_ablation_needs_module_ex_in_both_runs(tmp_path, capsys):
    both = tmp_path / "both.json"
    write_records(both, _both_arm_records())
    baseline_only = tmp_path / "baseline.json"
    write_records(baseline_only, [PerExampleRecord("ex0000", "db", 3, baseline_correct=1)])
    out = tmp_path / "ablation.md"
    assert main(["compare", "--a", str(baseline_only), "--b", str(both),
                 "--ablation", "Planner&Executor", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ablation output needs module EX in both runs\n"
    assert not out.exists()


def test_report_scores_routed_decisions_against_a_reference(tmp_path, capsys):
    # Disagreements: the pipeline alone is right on ex0000-ex0007, the
    # baseline alone on ex0014-ex0019; routing ex0000 and ex0001 to the
    # baseline gets 12 of those 14 right.
    reference = tmp_path / "both.json"
    write_records(reference, _both_arm_records())
    routed = []
    for index, record in enumerate(_both_arm_records()):
        branch = "divide_and_merge" if 2 <= index < 14 else "baseline"
        bit = record.module_correct if branch == "divide_and_merge" else record.baseline_correct
        arm = "module" if branch == "divide_and_merge" else "baseline"
        routed.append(PerExampleRecord(record.example_id, "db", record.table_count,
                                       route_taken=branch, **{f"{arm}_correct": bit}))
    records_path = tmp_path / "routed.json"
    write_records(records_path, routed)
    out_dir = tmp_path / "report"
    assert main(["report", "--records", str(records_path), "--reference", str(reference),
                 "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["realized_router_accuracy"] == round(12 / 14, 4)
    assert report["ex_routed"] == 90.0
    assert "Realized router accuracy: 0.8571" in capsys.readouterr().out


def test_sweep_writes_its_points_to_the_out_file(tmp_path, capsys):
    # Every example has a right arm and 6 of 20 have two: EX runs from 30 to 100.
    records_path = tmp_path / "records.json"
    write_records(records_path, _both_arm_records())
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--records", str(records_path), "--points", "0,0.5,1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == [[0.0, 30.0], [0.5, 65.0], [1.0, 100.0]]
    assert capsys.readouterr().out.endswith(f"sweep written to {out}\n")


def test_sweep_makes_the_directory_of_its_out_file(tmp_path, capsys):
    records_path = tmp_path / "records.json"
    write_records(records_path, _both_arm_records())
    out = tmp_path / "new" / "sweep.json"
    assert main(["sweep", "--records", str(records_path), "--points", "0,1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == [[0.0, 30.0], [1.0, 100.0]]


def test_route_train_makes_the_directory_of_its_out_file(tmp_path, corpus_root):
    records_path = tmp_path / "records.json"
    write_records(records_path, _both_arm_records())
    config = _write_config(tmp_path, corpus_root, "http://unused.localhost")
    model_path = tmp_path / "new" / "router.json"
    assert main(["route-train", "--records", str(records_path), "--config", str(config),
                 "--out", str(model_path)]) == 0
    assert model_path.read_bytes() == ROUTE_TRAIN_MODEL.encode()


def test_an_error_inside_the_run_stays_loud(tmp_path, corpus_root):
    config = _write_config(tmp_path, corpus_root, "http://unused.localhost")
    payload = json.loads(config.read_text())
    del payload["llm"]
    config.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="config must define reasoning_model and coding_model"):
        main(["run", "--config", str(config)])
