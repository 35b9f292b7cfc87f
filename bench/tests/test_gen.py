"""Generator determinism and designed-outcome tests.

Run with: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import gen
from responder import Responder, UnknownPromptError
from splitsql import harness, llm, pipeline


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _written(tmp_path: Path, seed: int, family: str, name: str) -> dict:
    corpus = gen.generate(seed, family)
    profile = gen.PROFILES[family]
    gen.write_corpus(corpus, tmp_path / name, profile.examples + profile.extra_examples)
    return _files(tmp_path / name)


@pytest.mark.parametrize("family", sorted(gen.PROFILES))
def test_same_seed_gives_byte_identical_corpus_plan_and_outcomes(tmp_path, family):
    first = _written(tmp_path, 7, family, "a")
    second = _written(tmp_path, 7, family, "b")
    assert {"tables.json", "examples.json", "plan.json", "expected.json"} <= set(first)
    assert any(name.endswith(".sqlite") for name in first)
    assert first == second


@pytest.mark.parametrize("family", sorted(gen.PROFILES))
def test_different_seed_gives_different_inputs(tmp_path, family):
    first = _written(tmp_path, 7, family, "a")
    second = _written(tmp_path, 8, family, "b")
    for name in ("tables.json", "examples.json", "plan.json"):
        assert first[name] != second[name]


def test_warm_corpus_extends_the_cold_corpus():
    corpus = gen.generate(3, "cold")
    n = gen.PROFILES["cold"].examples
    assert len(corpus.examples) == n + gen.PROFILES["cold"].extra_examples
    again = gen.generate(3, "cold")
    assert corpus.examples[:n] == again.examples[:n]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shares_follow_the_quotas(seed, capsys):
    for family, profile in sorted(gen.PROFILES.items()):
        expected = gen.generate(seed, family).expected[: profile.examples]
        shares = gen.shares(expected)
        with capsys.disabled():
            print(f"\nseed {seed} {family}: {json.dumps(shares)}")
        assert shares["large_result"] == pytest.approx(profile.large_share)
        assert 0.3 <= shares["refine"] <= 0.5
        assert shares["wide_schema"] == pytest.approx(3 / 8, abs=0.05)
        assert all(e["result_rows"] < 20 or e["result_rows"] >= 1000 for e in expected)


def _run(tmp_path: Path, family: str, arm: str, router: str):
    corpus = gen.generate(5, family)
    count = gen.PROFILES[family].examples
    root = tmp_path / "corpus"
    gen.write_corpus(corpus, root, count)
    script = Responder(json.loads((root / "plan.json").read_text()))
    endpoint = llm.ModelEndpoint(
        provider=llm.ProviderConfig(kind=llm.KIND_SCRIPTED, script=script), model_id="m"
    )
    pair = llm.ModelPair(reasoning=endpoint, coding=endpoint)
    config = harness.RunConfig(
        tables_file=root / "tables.json",
        examples_file=root / "examples.json",
        run_dir=tmp_path / "run",
        pipeline=pipeline.PipelineConfig(),
        router_kind=router,
    )
    records = harness.run_benchmark(config, arm, endpoints_for=lambda i, e: pair)
    return records, corpus.expected[:count]


def test_both_arm_verdicts_match_the_design(tmp_path):
    records, expected = _run(tmp_path, "http", "both", "heuristic")
    assert [(r.baseline_correct, r.module_correct, r.error) for r in records] == [
        (e["baseline_correct"], e["module_correct"], "") for e in expected
    ]


def test_judge_routes_match_the_design(tmp_path):
    records, expected = _run(tmp_path, "http", "routed", "judge")
    assert [r.route_taken for r in records] == [e["route"] for e in expected]
    for record, want in zip(records, expected):
        bit = record.module_correct if want["route"] == "divide_and_merge" else record.baseline_correct
        assert bit == want[f"{'module' if want['route'] == 'divide_and_merge' else 'baseline'}_correct"]


def test_responder_rejects_a_prompt_it_was_not_planned_for():
    with pytest.raises(UnknownPromptError):
        Responder({}).reply("Write a poem.")
    with pytest.raises(UnknownPromptError):
        Responder({}).reply("Reply with exactly one word: SIMPLE or COMPLEX.\nQuestion: [q0001] x")
