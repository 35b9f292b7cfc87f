from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from splitsql.cli import main
from splitsql.dataset import extract_features
from splitsql.harness import PerExampleRecord, write_records
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
# under it (branch, score as float.hex), both as numpy-backed training first
# produced them.
ROUTE_TRAIN_MODEL = """{
  "bias": 0.4998743387935595,
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
    2.9692299558323607,
    14.35127811985641,
    3.4641016151377544,
    4.8064582403602065,
    0.49487165930539345,
    0.3499271061118826
  ],
  "weights": [
    1.6241545292528667,
    1.6241545292528667,
    1.6241545292528667,
    0.18593185540033652,
    -0.08104331052496618,
    0.2643979958630889
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
    ("baseline", "0x1.50566ffa16d83p-8"),
    ("baseline", "0x1.22eff57a3e37dp-8"),
    ("baseline", "0x1.6e84f4c92511fp-8"),
    ("baseline", "0x1.60afc49295df1p-8"),
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
    ],
    ids=["lr-l2-5", "lr-l2-2", "lr-0", "epochs-0", "l2-negative"],
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
