"""BENCHMARK.json must name exactly the workloads and metrics run.py reports."""

from __future__ import annotations

import json
from pathlib import Path

import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_are_runnable():
    # warm_rerun is runnable by hand but has no bounds (see README.md).
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in run.WORKLOADS if name != "warm_rerun"
    ]


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, run.layer_unit(name), run.layer_better(name)) for name in run.PER_LAYER
    ]
