from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from splitsql.cli import main
from splitsql.harness import PerExampleRecord, write_records
from splitsql.router import load_router_model


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
