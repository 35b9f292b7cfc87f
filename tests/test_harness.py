from __future__ import annotations

import json
import math
import random
import re
import shutil
import sqlite3
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import gold_answer_script, scripted_pair
from splitsql import dataset, executor, harness, llm, pipeline, router
from splitsql.harness import (
    ARM_BASELINE,
    ARM_BOTH,
    ARM_MODULE,
    ARM_ROUTED,
    EmptyRecordsError,
    EndpointSpec,
    EvalReport,
    InputFileError,
    PerExampleRecord,
    RunConfig,
    UndefinedCorrelationError,
    average_ranks,
    build_report,
    complexity_correlation,
    compute_ex,
    disagreement,
    emit_report,
    load_config,
    load_records,
    oracle_ex,
    pearson,
    realized_router_accuracy,
    report_to_dict,
    router_sweep,
    routed_ex,
    run_benchmark,
    spearman,
    write_records,
)
from splitsql.llm import (
    KIND_HTTP,
    ChatMessage,
    CompletionRequest,
    CompletionResponse,
    ModelPair,
    ProviderConfig,
    complete,
    connection_pool,
)
from splitsql.pipeline import MERGE_LAST_SUBQUERY, PipelineConfig, canonical_trace_bytes
from splitsql.prompts import REQUIRED_PLACEHOLDERS, builtin_template_dir, load_fewshot, load_templates
from splitsql.router import BRANCH_BASELINE, BRANCH_DIVIDE_AND_MERGE


def records_from_bits(
    baseline_bits, module_bits, table_counts=None
) -> list[PerExampleRecord]:
    n = len(baseline_bits)
    table_counts = table_counts or [3] * n
    return [
        PerExampleRecord(
            example_id=f"ex{i:04d}",
            db_id="db",
            table_count=table_counts[i],
            baseline_correct=baseline_bits[i],
            module_correct=module_bits[i],
        )
        for i in range(n)
    ]


def records_from_counts(both, module_only, baseline_only, neither):
    baseline = [1] * both + [0] * module_only + [1] * baseline_only + [0] * neither
    module = [1] * both + [1] * module_only + [0] * baseline_only + [0] * neither
    return records_from_bits(baseline, module)


def _random_records(rng, max_n=500):
    n = rng.randint(1, max_n)
    baseline = [rng.randint(0, 1) for _ in range(n)]
    module = [rng.randint(0, 1) for _ in range(n)]
    counts = [rng.randint(2, 12) for _ in range(n)]
    return records_from_bits(baseline, module, counts)


# ---------------------------------------------------------------------------
# compute_ex / disagreement / oracle
# ---------------------------------------------------------------------------


def test_compute_ex_basic():
    records = records_from_bits([1, 1, 0, 0], [1, 0, 1, 0])
    assert compute_ex(records, "baseline") == Fraction(50)
    assert float(compute_ex(records, "module")) == 50.0
    assert compute_ex(records_from_bits([1, 1], [1, 1]), "module") == Fraction(100)


def test_compute_ex_matches_published_ablation_value():
    # 1517 of 2000 correct is exactly 75.85 percent.
    records = records_from_bits([0] * 2000, [1] * 1517 + [0] * 483)
    assert compute_ex(records, "module") == Fraction(7585, 100)


def test_compute_ex_empty_is_error():
    with pytest.raises(EmptyRecordsError):
        compute_ex([], "module")


def test_compute_ex_missing_bit_is_error():
    records = [PerExampleRecord("ex0000", "db", 3, baseline_correct=1)]
    with pytest.raises(ValueError, match="module"):
        compute_ex(records, "module")


def test_disagreement_basic():
    records = records_from_bits([1, 0, 1], [0, 1, 1])
    module_only, baseline_only = disagreement(records)
    assert round(float(module_only), 2) == 33.33
    assert round(float(baseline_only), 2) == 33.33


def test_disagreement_identical_arms_is_zero():
    records = records_from_bits([1, 0, 1], [1, 0, 1])
    assert disagreement(records) == (Fraction(0), Fraction(0))


def test_disagreement_matches_published_14b_row():
    # 478 pipeline-only and 891 baseline-only out of 10000: (4.78, 8.91).
    records = records_from_counts(7238, 478, 891, 1393)
    module_only, baseline_only = disagreement(records)
    assert module_only == Fraction(478, 100)
    assert baseline_only == Fraction(891, 100)


def test_oracle_complementary_arms():
    assert oracle_ex(records_from_bits([1, 0], [0, 1])) == Fraction(100)
    assert oracle_ex(records_from_bits([1, 0], [1, 0])) == Fraction(50)


def test_oracle_from_published_components():
    # module EX 77.16 and baseline-only 8.91 compose to exactly 86.07.
    records = records_from_counts(7000, 716, 891, 1393)
    assert compute_ex(records, "module") == Fraction(7716, 100)
    assert disagreement(records)[1] == Fraction(891, 100)
    assert oracle_ex(records) == Fraction(8607, 100)


def test_oracle_identity_exact_on_random_sets():
    rng = random.Random(7)
    for _ in range(1000):
        records = _random_records(rng, max_n=60)
        module_only, baseline_only = disagreement(records)
        oracle = oracle_ex(records)
        assert oracle == compute_ex(records, "module") + baseline_only
        assert oracle == compute_ex(records, "baseline") + module_only
        assert oracle >= max(
            compute_ex(records, "module"), compute_ex(records, "baseline")
        )


# ---------------------------------------------------------------------------
# router sweep
# ---------------------------------------------------------------------------


def test_sweep_endpoints_and_midpoint():
    records = records_from_bits([1, 0, 1, 0, 1], [0, 1, 1, 0, 0])
    points = router_sweep(records, [0.0, 0.5, 1.0])
    assert points[2][1] == oracle_ex(records)
    anti = Fraction(
        100 * sum(min(r.baseline_correct, r.module_correct) for r in records),
        len(records),
    )
    assert points[0][1] == anti
    expected_mid = (compute_ex(records, "baseline") + compute_ex(records, "module")) / 2
    assert points[1][1] == expected_mid


def test_sweep_anti_oracle_of_complementary_arms_is_zero():
    records = records_from_bits([1, 0], [0, 1])
    assert router_sweep(records, [0.0])[0][1] == Fraction(0)


def test_sweep_monotone_and_affine_on_random_sets():
    rng = random.Random(11)
    grid = [i / 10 for i in range(11)]
    for _ in range(200):
        records = _random_records(rng, max_n=50)
        curve = [value for _, value in router_sweep(records, grid)]
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        # Affine in a: every point lies exactly on the endpoint chord.
        low, high = curve[0], curve[-1]
        for accuracy, value in zip(grid, curve):
            assert value == low + (high - low) * Fraction(accuracy)


def test_sweep_matches_per_record_brute_force():
    rng = random.Random(13)
    for _ in range(50):
        records = _random_records(rng, max_n=30)
        for accuracy in (0.0, 0.25, 0.5, 0.75, 1.0):
            a = Fraction(accuracy)
            brute = (
                sum(
                    a * max(r.baseline_correct, r.module_correct)
                    + (1 - a) * min(r.baseline_correct, r.module_correct)
                    for r in records
                )
                * 100
                / len(records)
            )
            ((_, value),) = router_sweep(records, [accuracy])
            assert value == brute


def test_sweep_rejects_out_of_range_accuracy():
    with pytest.raises(ValueError):
        router_sweep(records_from_bits([1], [0]), [1.5])


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def reference_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
    return num / den


def reference_ranks(values):
    # O(n^2) rank-by-counting with average ties.
    ranks = []
    for value in values:
        smaller = sum(1 for other in values if other < value)
        equal = sum(1 for other in values if other == value)
        ranks.append(smaller + (equal + 1) / 2)
    return ranks


def test_pearson_known_values():
    assert pearson([1, 2, 3], [2, 4, 6]) == 1.0
    assert pearson([1, 2, 3], [3, 2, 1]) == -1.0
    assert abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12


def test_pearson_errors():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [1])
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])


def test_pearson_self_is_one():
    rng = random.Random(3)
    for _ in range(20):
        x = [rng.uniform(-5, 5) for _ in range(10)]
        assert abs(pearson(x, x) - 1.0) < 1e-12


def test_spearman_monotone_pairs():
    assert spearman([1, 2, 3], [10, 20, 400]) == 1.0
    assert spearman([1, 2, 3], [9, 4, 1]) == -1.0


def test_spearman_tie_expansion():
    expected = pearson([1.5, 1.5, 3], [1, 2, 3])
    assert abs(spearman([1, 1, 2], [1, 2, 3]) - expected) < 1e-15


def test_spearman_invariant_under_monotone_transform():
    rng = random.Random(5)
    x = [rng.uniform(0, 10) for _ in range(25)]
    y = [rng.uniform(0, 10) for _ in range(25)]
    base = spearman(x, y)
    assert abs(spearman([math.exp(v) for v in x], y) - base) < 1e-12
    assert abs(spearman(x, [v**3 for v in y]) - base) < 1e-12


def test_correlations_match_brute_force_references():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(3, 40)
        # Draw from a small value pool so ties are common.
        x = [rng.choice([0.0, 1.0, 1.0, 2.5, 4.0, 7.0]) for _ in range(n)]
        y = [rng.choice([-1.0, 0.0, 0.0, 3.0, 5.0]) for _ in range(n)]
        try:
            ours = pearson(x, y)
        except UndefinedCorrelationError:
            continue
        assert abs(ours - reference_pearson(x, y)) < 1e-12
        assert average_ranks(x) == reference_ranks(x)
        assert abs(
            spearman(x, y) - reference_pearson(reference_ranks(x), reference_ranks(y))
        ) < 1e-12


def test_complexity_correlation_positive_fixture():
    # The pipeline wins on wide schemas and loses on narrow ones.
    records = (
        records_from_bits([1] * 10, [0] * 10, [2] * 10)
        + records_from_bits([0] * 10, [1] * 10, [9] * 10)
        + records_from_bits([1] * 5 + [0] * 5, [1] * 5 + [0] * 5, [5] * 10)
    )
    r, rho = complexity_correlation(records)
    assert r > 0
    assert rho > 0


def test_complexity_correlation_zero_deltas_undefined():
    records = records_from_bits([1, 0, 1, 0], [1, 0, 1, 0], [2, 2, 9, 9])
    with pytest.raises(UndefinedCorrelationError):
        complexity_correlation(records)


def test_complexity_correlation_needs_two_groups():
    records = records_from_bits([1, 0], [0, 1], [4, 4])
    with pytest.raises(UndefinedCorrelationError):
        complexity_correlation(records)


# ---------------------------------------------------------------------------
# report building and emission
# ---------------------------------------------------------------------------


def test_build_report_full_fields():
    records = records_from_bits([1, 0, 1, 1], [0, 1, 1, 0], [2, 9, 2, 9])
    report = build_report(records)
    assert report.n == 4
    assert report.ex_oracle == Fraction(100)
    assert len(report.sweep) == 11
    assert report.pearson_r is not None


def test_emitted_json_is_byte_identical(tmp_path):
    records = records_from_bits([1, 0, 1], [0, 1, 1])
    report = build_report(records)
    first = emit_report(report, "json", tmp_path / "a.json").read_bytes()
    second = emit_report(report, "json", tmp_path / "b.json").read_bytes()
    assert first == second


def test_markdown_contains_published_ablation_row(tmp_path):
    report = EvalReport(n=2147)
    report.ablation_rows = [("Planner&Executor", 66.77, 75.85)]
    markdown = emit_report(report, "markdown", tmp_path / "r.md").read_text()
    assert "Planner&Executor | 66.77 | 75.85" in markdown


def test_markdown_omits_empty_sweep(tmp_path):
    records = records_from_bits([1, 0], [0, 1])
    report = build_report(records, sweep_points=())
    markdown = emit_report(report, "markdown", tmp_path / "r.md").read_text()
    assert "sweep" not in markdown.lower()
    report_full = build_report(records)
    markdown_full = emit_report(report_full, "markdown", tmp_path / "r2.md").read_text()
    assert "sweep" in markdown_full.lower()


def test_report_dict_rounds_to_two_decimals():
    records = records_from_bits([1, 0, 1], [0, 1, 1])
    data = report_to_dict(build_report(records))
    assert data["ex_baseline"] == 66.67
    assert data["ex_module"] == 66.67
    assert data["ex_oracle"] == 100.0


def test_emit_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_report(EvalReport(n=1), "yaml", tmp_path / "r.yaml")


def _reference_report_to_markdown(report: EvalReport) -> str:
    """report_to_markdown as it stood with each table written out by hand."""
    _pct = harness._pct
    lines = ["# Benchmark report", "", f"Examples: {report.n}", ""]

    arm_rows = []
    if report.ex_baseline is not None:
        arm_rows.append(("Baseline", report.ex_baseline))
    if report.ex_module is not None:
        arm_rows.append(("Divide-and-merge", report.ex_module))
    if report.ex_routed is not None:
        arm_rows.append(("Routed", report.ex_routed))
    if report.ex_oracle is not None:
        arm_rows.append(("Oracle routing", report.ex_oracle))
    if arm_rows:
        lines += ["## Execution accuracy", "", "| Arm | EX (%) |", "|---|---|"]
        lines += [f"| {name} | {_pct(value):.2f} |" for name, value in arm_rows]
        lines.append("")

    if report.ablation_rows:
        lines += [
            "## Column selection and merge strategy",
            "",
            "| Merge strategy | EX w/o CS (%) | EX with CS (%) |",
            "|---|---|---|",
        ]
        lines += [
            f"| {label} | {_pct(without):.2f} | {_pct(with_cs):.2f} |"
            for label, without, with_cs in report.ablation_rows
        ]
        lines.append("")

    if report.module_only is not None and report.baseline_only is not None:
        lines += [
            "## Disagreement",
            "",
            "| Pipeline only (%) | Baseline only (%) |",
            "|---|---|",
            f"| {_pct(report.module_only):.2f} | {_pct(report.baseline_only):.2f} |",
            "",
        ]

    if report.sweep:
        lines += [
            "## Router-accuracy sweep",
            "",
            "| Router accuracy | Expected EX (%) |",
            "|---|---|",
        ]
        lines += [f"| {a:.2f} | {_pct(value):.2f} |" for a, value in report.sweep]
        lines.append("")

    if report.realized_router_accuracy is not None:
        lines.append(
            f"Realized router accuracy: {report.realized_router_accuracy:.4f}"
        )
        lines.append("")

    if report.pearson_r is not None and report.spearman_rho is not None:
        lines += [
            "## Schema-complexity correlation",
            "",
            f"Pearson r = {report.pearson_r:.2f}, Spearman rho = {report.spearman_rho:.2f}",
            "",
        ]
    return "\n".join(lines)


_PERCENTS = st.none() | st.fractions(min_value=0, max_value=100, max_denominator=1000)
_UNIT = st.floats(min_value=-1.0, max_value=1.0)
_ACCURACY = st.floats(min_value=0.0, max_value=1.0)
_REPORTS = st.builds(
    EvalReport,
    n=st.integers(min_value=1, max_value=10_000),
    ex_baseline=_PERCENTS,
    ex_module=_PERCENTS,
    module_only=_PERCENTS,
    baseline_only=_PERCENTS,
    ex_oracle=_PERCENTS,
    ex_routed=_PERCENTS,
    sweep=st.lists(st.tuples(_ACCURACY, st.fractions(min_value=0, max_value=100)), max_size=4),
    pearson_r=st.none() | _UNIT,
    spearman_rho=st.none() | _UNIT,
    ablation_rows=st.lists(st.tuples(
        st.sampled_from(("Last Sub-query", "Planner&Executor")),
        st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.0, max_value=100.0),
    ), max_size=3),
    realized_router_accuracy=st.none() | _ACCURACY,
)


@settings(max_examples=300, deadline=None)
@given(report=_REPORTS)
def test_markdown_matches_the_hand_written_tables(report):
    assert harness.report_to_markdown(report) == _reference_report_to_markdown(report)


# ---------------------------------------------------------------------------
# benchmark runner on the scripted mini corpus
# ---------------------------------------------------------------------------

COUNT_CUSTOMERS = "SELECT COUNT(*) FROM Customers"
LIST_FIRST_NAMES = (
    "SELECT customer_first_name FROM Customers ORDER BY customer_first_name"
)


def _scripts_for_first_three():
    """Both-arm scripts for the first three bundled examples.

    Designed outcome: baseline bits (0, 1, 0), pipeline bits (1, 0, 1).
    """
    avg_ordered = (
        "SELECT AVG(p.product_price) FROM Order_Items oi "
        "JOIN Products p ON oi.product_id = p.product_id"
    )
    return {
        "How many customers are there?": [
            ("in one step", "SELECT COUNT(*) FROM Orders"),  # wrong table
            ("table names", "Customers"),
            ("sub-questions", "1. How many customers are there?"),
            ("How many customers", COUNT_CUSTOMERS),
        ],
        "List the first names of all customers in alphabetical order.": [
            ("in one step", LIST_FIRST_NAMES),
            ("table names", "Customers"),
            ("sub-questions", "1. List the first names in alphabetical order."),
            ("first names", LIST_FIRST_NAMES + " DESC"),  # wrong order
        ],
        "What is the price of all products being ordered on average?": [
            ("in one step", "SELECT AVG(product_price) FROM Products"),  # ignores orders
            ("table names", "Order_Items, Products"),
            ("sub-questions", "1. Average the price of ordered products."),
            ("Average the price", avg_ordered),
        ],
    }


@pytest.fixture()
def run_config(corpus_root, tmp_path):
    return RunConfig(
        tables_file=corpus_root / "tables.json",
        examples_file=corpus_root / "examples.json",
        run_dir=tmp_path / "run",
        pipeline=PipelineConfig(
            merge_strategy=MERGE_LAST_SUBQUERY, column_selection_enabled=False
        ),
        worker_count=1,
        cache_dir=None,
        limit=3,
    )


def _scripted_factory(created=None):
    scripts = _scripts_for_first_three()

    def factory(example_id, example):
        pair = scripted_pair(list(scripts[example.question]))
        if created is not None:
            created.append(pair.reasoning.provider.script)
        return pair

    return factory


def test_run_benchmark_both_arms(run_config):
    records = run_benchmark(run_config, ARM_BOTH, endpoints_for=_scripted_factory())
    assert [r.baseline_correct for r in records] == [0, 1, 0]
    assert [r.module_correct for r in records] == [1, 0, 1]
    assert all(r.error == "" for r in records)
    assert records[0].final_sql_module == COUNT_CUSTOMERS
    assert (run_config.run_dir / "records.json").is_file()
    # One trace per arm is the only per-example file.
    assert (run_config.run_dir / "traces" / "ex0000_module.json").is_file()
    assert not (run_config.run_dir / "transcripts").exists()


def test_a_run_interns_as_many_strings_at_any_example_count(
    run_config, schemas, tmp_path, monkeypatch
):
    """No path is parsed per example or per query: CPython 3.11's pathlib
    interns every part of every path it parses, and those strings, released
    each pass, grow the interned-string table over a long run. On a Python
    whose pathlib does not intern, both counts are 0 and the test passes
    trivially."""
    interned = []
    intern = sys.intern

    def counting(text):
        interned.append(text)
        return intern(text)

    def endpoints_for(example_id, example):
        return scripted_pair(gold_answer_script(example, schemas[example.db_id]))

    counts = []
    for limit in (2, 20):
        run_config.limit = limit
        run_config.run_dir = tmp_path / f"run{limit}"
        run_config.cache_dir = tmp_path / f"cache{limit}"
        interned.clear()
        monkeypatch.setattr(sys, "intern", counting)
        records = run_benchmark(run_config, ARM_BOTH, endpoints_for=endpoints_for)
        monkeypatch.setattr(sys, "intern", intern)
        assert len(records) == limit
        assert all(r.baseline_correct == r.module_correct == 1 for r in records)
        counts.append(len(interned))
    assert counts[0] == counts[1]


def test_run_benchmark_single_arm_leaves_other_bit_unset(run_config):
    def baseline_only_factory(example_id, example):
        script = [_scripts_for_first_three()[example.question][0]]
        return scripted_pair(script)

    records = run_benchmark(run_config, ARM_BASELINE, endpoints_for=baseline_only_factory)
    assert [r.baseline_correct for r in records] == [0, 1, 0]
    assert all(r.module_correct is None for r in records)


def test_warm_cache_rerun_is_identical_with_zero_calls(run_config, tmp_path):
    run_config.cache_dir = tmp_path / "cache"
    cold_created = []
    cold = run_benchmark(
        run_config, ARM_BOTH, endpoints_for=_scripted_factory(cold_created)
    )
    assert sum(s.call_count for s in cold_created) > 0

    warm_created = []
    warm = run_benchmark(
        run_config, ARM_BOTH, endpoints_for=_scripted_factory(warm_created)
    )
    assert warm == cold
    assert sum(s.call_count for s in warm_created) == 0
    # Identical records imply an identical report, including the sweep.
    assert report_to_dict(build_report(warm)) == report_to_dict(build_report(cold))


def test_worker_counts_produce_identical_records(run_config):
    serial = run_benchmark(run_config, ARM_BOTH, endpoints_for=_scripted_factory())
    run_config.worker_count = 4
    parallel = run_benchmark(run_config, ARM_BOTH, endpoints_for=_scripted_factory())
    assert serial == parallel


def test_both_run_executes_each_query_once_per_example(run_config, opened):
    records = run_benchmark(run_config, ARM_BOTH, endpoints_for=_scripted_factory())
    assert [r.baseline_correct for r in records] == [0, 1, 0]
    assert [r.module_correct for r in records] == [1, 0, 1]
    # Each gold query is shared by both arms' scoring, and each final SQL
    # was already run by its refine loop, so nothing is opened twice.
    assert set(Counter(opened).values()) == {1}
    golds = [COUNT_CUSTOMERS, LIST_FIRST_NAMES]
    assert all(gold in opened for gold in golds)
    finals = {r.final_sql_baseline for r in records} | {r.final_sql_module for r in records}
    assert finals <= set(opened)


def _gold_baseline_factory(example_id, example):
    """A baseline that answers every example with its gold query."""
    return scripted_pair([("in one step", example.gold_sql)])


def _assert_all_closed(connections):
    for _thread, _target, connection in connections:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            connection.execute("SELECT 1")


def _stressed_run(run_config, arm, endpoints_for):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to expose a shared-pool race
    try:
        return run_benchmark(run_config, arm, endpoints_for=endpoints_for)
    finally:
        sys.setswitchinterval(interval)


def _assert_pool_bound(connections, records, bound):
    """At most bound connections opened per database, none of them ever
    running two statements at once, and all closed after the run."""
    opened = Counter(target for _thread, target, _connection in connections)
    assert len(opened) == len({r.db_id for r in records}) > 1
    assert max(opened.values()) <= bound, opened
    assert not [c for _thread, _target, c in connections if c.overlapped]
    _assert_all_closed(connections)


@pytest.mark.parametrize("workers", [1, 4])
def test_run_opens_one_connection_per_thread_and_database(run_config, connections, workers):
    # The run's pool keeps idle connections per database, shared by its
    # worker threads: at most one per worker is ever open for a database.
    run_config.limit = None
    run_config.worker_count = workers
    records = _stressed_run(run_config, ARM_BASELINE, _gold_baseline_factory)
    assert all(r.baseline_correct == 1 for r in records)
    assert len({thread for thread, _target, _c in connections}) <= workers
    _assert_pool_bound(connections, records, workers)
    if workers == 1:
        assert len(connections) == len({r.db_id for r in records})


@pytest.mark.parametrize("workers, width", [(1, 2), (2, 2), (3, 4)])
def test_fanout_run_opens_at_most_workers_times_one_plus_width_connections(
    run_config, schemas, connections, monkeypatch, workers, width
):
    run_config.limit = None
    run_config.worker_count = workers
    run_config.pipeline = PipelineConfig(parallel_subqueries=True)
    monkeypatch.setattr(pipeline, "SUBQUERY_FANOUT_WIDTH", width)

    def endpoints_for(example_id, example):
        return scripted_pair(gold_answer_script(example, schemas[example.db_id]))

    records = _stressed_run(run_config, ARM_BOTH, endpoints_for)
    assert all(r.baseline_correct == r.module_correct == 1 and not r.error for r in records)
    _assert_pool_bound(connections, records, workers * width)


def test_fanout_scoring_reuses_the_fanout_threads_outcomes(run_config, schemas, opened):
    # merge_last makes the final SQL the last sub-query's, which only a fan-out
    # thread executed; scoring finds it, and the gold query, in the memo.
    run_config.limit = None
    run_config.pipeline.parallel_subqueries = True

    def endpoints_for(example_id, example):
        return scripted_pair([
            ("table names", ", ".join(t.name for t in schemas[example.db_id].tables)),
            ("numbered list of sub-questions", f"1. Warm up first.\n2. {example.question}"),
            ("Warm up first", f"SELECT '{example_id}' AS warm_up"),
            ("answers the sub-question below", example.gold_sql),
        ])

    records = run_benchmark(run_config, ARM_MODULE, endpoints_for=endpoints_for)
    assert all(r.module_correct == 1 and not r.error for r in records)
    assert all(r.final_sql_module in opened for r in records)
    assert set(Counter(opened).values()) == {1}


def test_run_closes_its_connections_after_a_gold_failure(
    run_config, corpus_root, tmp_path, connections
):
    corpus = _copy_corpus(run_config, corpus_root, tmp_path)
    _set_first_gold(corpus, "SELECT COUNT(*) FROM No_Such_Table")
    records = run_benchmark(run_config, ARM_BASELINE, endpoints_for=_baseline_factory)
    assert "gold query failed" in records[0].error
    assert len(connections) == 1
    _assert_all_closed(connections)


@pytest.mark.parametrize("workers", [1, 4])
def test_run_closes_its_connections_when_it_raises(run_config, connections, workers):
    run_config.worker_count = workers

    def factory(example_id, example):
        if example_id == "ex0002":
            raise RuntimeError("endpoint lookup failed")
        return _gold_baseline_factory(example_id, example)

    with pytest.raises(RuntimeError, match="endpoint lookup failed"):
        run_benchmark(run_config, ARM_BASELINE, endpoints_for=factory)
    assert connections
    _assert_all_closed(connections)


def _copy_corpus(run_config, corpus_root, tmp_path):
    corpus = shutil.copytree(corpus_root, tmp_path / "corpus")
    run_config.tables_file = corpus / "tables.json"
    run_config.examples_file = corpus / "examples.json"
    return corpus


def _set_first_gold(corpus, sql):
    examples = json.loads((corpus / "examples.json").read_text(encoding="utf-8"))
    examples[0]["query"] = sql
    (corpus / "examples.json").write_text(json.dumps(examples), encoding="utf-8")


def _baseline_factory(example_id, example):
    return scripted_pair([_scripts_for_first_three()[example.question][0]])


@pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "cache"])
def test_rerun_over_a_rewritten_database_sees_the_new_rows(
    run_config, corpus_root, tmp_path, cached
):
    corpus = _copy_corpus(run_config, corpus_root, tmp_path)
    run_config.cache_dir = tmp_path / "cache" if cached else None
    run_config.limit = 1  # gold counts Customers, the baseline counts Orders
    factory = _baseline_factory
    assert run_benchmark(run_config, ARM_BASELINE, endpoints_for=factory)[0].baseline_correct == 0
    connection = sqlite3.connect(corpus / "database" / "customer_orders" / "customer_orders.sqlite")
    with connection:
        connection.execute("DELETE FROM Customers")
        connection.execute("DELETE FROM Orders")
    connection.close()
    assert run_benchmark(run_config, ARM_BASELINE, endpoints_for=factory)[0].baseline_correct == 1


def test_warm_rerun_after_a_gold_edit_gives_the_fresh_verdict(run_config, corpus_root, tmp_path):
    corpus = _copy_corpus(run_config, corpus_root, tmp_path)
    run_config.cache_dir = tmp_path / "cache"
    run_config.limit = 1
    cold = run_benchmark(run_config, ARM_BASELINE, endpoints_for=_baseline_factory)
    assert cold[0].baseline_correct == 0

    _set_first_gold(corpus, "SELECT COUNT(*) FROM Orders")  # what the baseline predicts
    created = []
    warm = run_benchmark(run_config, ARM_BASELINE, endpoints_for=_scripted_factory(created))
    assert warm[0].baseline_correct == 1
    assert sum(script.call_count for script in created) == 0


def test_mistyped_router_kind_fails_the_run(run_config):
    with pytest.raises(ValueError, match="unknown router kind 'heurstic'"):
        replace(run_config, router_kind="heurstic")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("router_kind", "heurstic", "unknown router kind 'heurstic'"),
        ("worker_count", 0, "worker_count must be >= 1"),
        ("limit", -1, "limit must be >= 1"),
        ("merge_strategy", "vote", "unknown merge strategy 'vote'"),
        ("max_refinements", 11, "max_refinements must be in 0..10"),
    ],
)
def test_a_config_changed_after_it_was_built_is_checked_again(run_config, field, value, message):
    setattr(run_config.pipeline if hasattr(run_config.pipeline, field) else run_config, field, value)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_benchmark(run_config, ARM_ROUTED, endpoints_for=_scripted_factory())
    assert not run_config.run_dir.exists()


def test_an_endpoint_changed_after_it_was_built_fails_before_any_model_call(
    run_config, monkeypatch
):
    calls = []

    def counting_complete(provider, request, **labels):
        calls.append(labels)
        return CompletionResponse("SELECT COUNT(*) FROM Customers")

    monkeypatch.setattr(llm, "complete", counting_complete)
    for role in ("reasoning", "coding"):
        setattr(run_config, role, EndpointSpec(base_url="http://unused.localhost", model_id=role))
    run_config.reasoning.max_tokens = 0
    with pytest.raises(ValueError, match="max_tokens must be positive"):
        run_benchmark(run_config, ARM_BOTH)
    assert calls == []
    assert not run_config.run_dir.exists()


def test_failing_gold_query_is_an_example_error_note(run_config, corpus_root, tmp_path):
    corpus = _copy_corpus(run_config, corpus_root, tmp_path)
    _set_first_gold(corpus, "SELECT COUNT(*) FROM No_Such_Table")
    records = run_benchmark(run_config, ARM_BASELINE, endpoints_for=_baseline_factory)
    assert records[0].baseline_correct == 0
    assert "gold query failed" in records[0].error
    assert [r.baseline_correct for r in records[1:]] == [1, 0]
    assert all(r.error == "" for r in records[1:])


def _fanout_factory(created=None):
    """The scripted factory, with the third example split into two
    sub-questions so that parallel_subqueries fans out."""
    scripts = _scripts_for_first_three()
    question = "What is the price of all products being ordered on average?"
    scripts[question] = scripts[question][:2] + [
        (
            "sub-questions",
            "1. Find the price of each product.\n2. Average the price of ordered products.",
        ),
        ("Find the price of each product", "SELECT product_id, product_price FROM Products"),
        scripts[question][3],
    ]

    def factory(example_id, example):
        pair = scripted_pair(list(scripts[example.question]))
        if created is not None:
            created.append(pair.reasoning.provider.script)
        return pair

    return factory


def _run_outputs(run_config, monkeypatch, created=None, arm=ARM_BOTH):
    """(records.json bytes, canonical bytes of every trace by file name) of
    one run, both arms by default."""
    kept = {}
    write_trace = harness.write_trace

    def keep(path, trace):
        kept[Path(path).name] = canonical_trace_bytes(trace)
        write_trace(path, trace)

    monkeypatch.setattr(harness, "write_trace", keep)
    run_benchmark(run_config, arm, endpoints_for=_fanout_factory(created))
    return (run_config.run_dir / "records.json").read_bytes(), kept


@pytest.mark.parametrize("parallel_subqueries", [False, True])
def test_memo_leaves_records_and_traces_unchanged(run_config, monkeypatch, parallel_subqueries):
    run_config.pipeline.parallel_subqueries = parallel_subqueries
    runs = []
    for workers in (1, 4):
        run_config.worker_count = workers
        runs.append(_run_outputs(run_config, monkeypatch))
    monkeypatch.setattr(harness, "ExecutionMemo", lambda pool: None)
    runs.append(_run_outputs(run_config, monkeypatch))
    assert len(runs[0][1]) == 6
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("parallel_subqueries", [False, True])
def test_warm_rerun_into_a_new_run_dir_writes_every_file(
    run_config, monkeypatch, tmp_path, parallel_subqueries
):
    run_config.pipeline.parallel_subqueries = parallel_subqueries
    run_config.cache_dir = tmp_path / "cache"
    _, cold = _run_outputs(run_config, monkeypatch)
    cold_dir = run_config.run_dir

    run_config.run_dir = tmp_path / "rerun"
    created = []
    records, warm = _run_outputs(run_config, monkeypatch, created)
    assert sum(script.call_count for script in created) == 0
    assert len(warm) == 6 and warm == cold
    assert sorted(path.name for path in run_config.run_dir.iterdir()) == ["records.json", "traces"]
    files = sorted(path.name for path in (cold_dir / "traces").iterdir())
    assert sorted(path.name for path in (run_config.run_dir / "traces").iterdir()) == files
    for record in json.loads(records):
        assert all(p.startswith(str(run_config.run_dir)) for p in record["trace_paths"])


def _calls(run_config, arm, factory_builder=_scripted_factory):
    created = []
    records = run_benchmark(run_config, arm, endpoints_for=factory_builder(created))
    return records, sum(script.call_count for script in created)


def test_warm_cache_follows_the_router_threshold(run_config, tmp_path):
    run_config.table_threshold = 1  # customer_orders has 8 tables
    cold, _ = _calls(run_config, ARM_ROUTED)
    assert all(r.route_taken == BRANCH_DIVIDE_AND_MERGE for r in cold)

    run_config.cache_dir = tmp_path / "cache"
    run_config.table_threshold = 100
    first, _ = _calls(run_config, ARM_ROUTED)
    assert all(r.route_taken == BRANCH_BASELINE for r in first)
    run_config.table_threshold = 1
    warm, calls = _calls(run_config, ARM_ROUTED)
    assert [r.route_taken for r in warm] == [r.route_taken for r in cold]
    assert calls > 0


@pytest.mark.parametrize(
    "change",
    [
        lambda c: setattr(c.pipeline, "max_refinements", 1),
        lambda c: setattr(c.pipeline, "parallel_subqueries", True),
        lambda c: setattr(c, "timeout_ms", 1234),
    ],
    ids=["max_refinements", "parallel_subqueries", "timeout_ms"],
)
def test_warm_cache_misses_when_a_setting_changes(run_config, tmp_path, change):
    run_config.cache_dir = tmp_path / "cache"
    _calls(run_config, ARM_BOTH)
    assert _calls(run_config, ARM_BOTH)[1] == 0
    change(run_config)
    warm, _ = _calls(run_config, ARM_BOTH)
    run_config.cache_dir = None
    assert warm == _calls(run_config, ARM_BOTH)[0]


@pytest.mark.parametrize(
    "setting",
    [{"temperature": 0.7}, {"max_tokens": 64}],
    ids=["temperature", "max_tokens"],
)
def test_warm_cache_calls_again_when_a_request_setting_changes(run_config, tmp_path, setting):
    def changed(created):
        factory = _scripted_factory(created)

        def build(example_id, example):
            endpoint = replace(factory(example_id, example).reasoning, **setting)
            return ModelPair(reasoning=endpoint, coding=endpoint)

        return build

    run_config.cache_dir = tmp_path / "cache"
    cold, _ = _calls(run_config, ARM_BOTH)
    assert _calls(run_config, ARM_BOTH)[1] == 0
    warm, calls = _calls(run_config, ARM_BOTH, changed)
    assert warm == cold
    assert calls == 12


def test_warm_cache_follows_the_router_model_file(run_config, tmp_path):
    model_file = tmp_path / "router.json"

    def write_model(bias):
        model_file.write_text(
            json.dumps(
                {
                    "weights": [0.0] * 6,
                    "bias": bias,
                    "feature_means": [0.0] * 6,
                    "feature_stds": [1.0] * 6,
                }
            )
        )

    run_config.cache_dir = tmp_path / "cache"
    run_config.router_kind = "logistic"
    run_config.router_model_file = model_file
    write_model(5.0)
    first, _ = _calls(run_config, ARM_ROUTED)
    assert all(r.route_taken == BRANCH_DIVIDE_AND_MERGE for r in first)
    write_model(-5.0)
    second, _ = _calls(run_config, ARM_ROUTED)
    assert all(r.route_taken == BRANCH_BASELINE for r in second)


def _cache_lines(run_config) -> list[str]:
    return [
        line
        for path in sorted(run_config.cache_dir.glob("*.jsonl"))
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


def _with_reply_fields(lines: list[str], **fields) -> list[str]:
    entry = json.loads(lines[0])
    entry["response"].update(fields)
    return [json.dumps(entry)] + lines[1:]


@pytest.mark.parametrize(
    "damage",
    [
        lambda lines: ["{not json"] + lines[1:],
        lambda lines: ["[1, 2]"] + lines[1:],
        lambda lines: ['{"key": ' + json.dumps(json.loads(lines[0])["key"]) + "}"] + lines[1:],
        lambda lines: lines[1:] + [lines[0][: len(lines[0]) // 2]],
        lambda lines: _with_reply_fields(lines, text=None),
        lambda lines: _with_reply_fields(lines, text=7),
        lambda lines: _with_reply_fields(lines, retries=True),
    ],
    ids=["bad_json", "not_an_object", "no_fields", "cut_last_line", "null_text", "int_text",
         "bool_retries"],
)
def test_corrupt_cache_entry_counts_as_a_miss(run_config, tmp_path, damage):
    # Each damage hits the line of the first call (ex0000's baseline), whose
    # script entry comes first, so the single-use script answers it alone.
    run_config.cache_dir = tmp_path / "cache"
    cold, _ = _calls(run_config, ARM_BOTH)
    (cached,) = run_config.cache_dir.glob("*.jsonl")
    lines = _cache_lines(run_config)
    assert len(lines) == 12  # 3 examples x (1 baseline + 3 pipeline calls)
    cached.write_text("\n".join(damage(lines)), encoding="utf-8")

    rerun, calls = _calls(run_config, ARM_BOTH)
    assert rerun == cold
    assert calls == 1
    # The run's one new reply went to a file of its own.
    assert len(list(run_config.cache_dir.glob("*.jsonl"))) == 2
    assert len(_cache_lines(run_config)) == 13


def test_error_records_are_not_cached(run_config, tmp_path):
    def baseline_only(created):
        def factory(example_id, example):
            pair = _baseline_factory(example_id, example)
            created.append(pair.reasoning.provider.script)
            return pair

        return factory

    run_config.cache_dir = tmp_path / "cache"
    failed, _ = _calls(run_config, ARM_BOTH, baseline_only)
    assert all(r.error.startswith("module: provider error") for r in failed)
    # The baseline replies are kept; the failed pipeline calls left no line.
    assert len(_cache_lines(run_config)) == 3

    recovered, calls = _calls(run_config, ARM_BOTH)
    assert calls == 9
    assert [r.baseline_correct for r in recovered] == [0, 1, 0]
    assert [r.module_correct for r in recovered] == [1, 0, 1]
    assert all(r.error == "" for r in recovered)


def test_script_exhaustion_marks_record_failed(run_config):
    def empty_factory(example_id, example):
        return scripted_pair([("never matches anything", "x")])

    records = run_benchmark(run_config, ARM_MODULE, endpoints_for=empty_factory)
    assert all(r.module_correct == 0 for r in records)
    assert all("provider error" in r.error for r in records)


def test_routed_arm_heuristic_runs_one_arm(run_config):
    run_config.router_kind = "heuristic"
    run_config.table_threshold = 5  # customer_orders has 8 tables
    records = run_benchmark(run_config, ARM_ROUTED, endpoints_for=_scripted_factory())
    assert all(r.route_taken == BRANCH_DIVIDE_AND_MERGE for r in records)
    assert all(r.baseline_correct is None for r in records)
    assert [r.module_correct for r in records] == [1, 0, 1]
    assert routed_ex(records) == Fraction(200, 3)


def test_a_failed_example_counts_zero_in_routed_ex(run_config, corpus_root, tmp_path):
    rows = json.loads((corpus_root / "examples.json").read_text(encoding="utf-8"))[:3]
    rows.append({"question": "q", "query": "SELECT 1", "db_id": "no_such_db"})
    run_config.examples_file = tmp_path / "examples.json"
    run_config.examples_file.write_text(json.dumps(rows), encoding="utf-8")
    run_config.limit = None
    run_config.router_kind = "heuristic"
    records = run_benchmark(run_config, ARM_ROUTED, endpoints_for=_scripted_factory())
    assert [r.module_correct for r in records] == [1, 0, 1, None]
    assert records[3].route_taken == "" and "unknown db_id" in records[3].error
    assert build_report(records).ex_routed == Fraction(50)
    assert report_to_dict(build_report(records[:3]))["ex_routed"] == 66.67


def test_routed_ex_needs_a_route_or_an_error_note():
    routed = PerExampleRecord(
        "ex0000", "db", 3, module_correct=1, route_taken=BRANCH_DIVIDE_AND_MERGE
    )
    failed = PerExampleRecord("ex0001", "db", 0, error="unknown db_id 'x'")
    assert routed_ex([routed, failed]) == Fraction(50)
    with pytest.raises(ValueError, match="ex0002 has no route_taken"):
        routed_ex([routed, PerExampleRecord("ex0002", "db", 3)])
    # A both run routes nothing, whatever its failure records say.
    both = records_from_bits([1, 0], [1, 0])
    both[1].error = "unknown db_id 'x'"
    assert build_report(both).ex_routed is None


def test_routed_arm_judge_uses_one_call(run_config):
    def judge_factory(example_id, example):
        script = [("SIMPLE or COMPLEX", "SIMPLE")]
        script.append(_scripts_for_first_three()[example.question][0])
        return scripted_pair(script)

    run_config.router_kind = "judge"
    records = run_benchmark(run_config, ARM_ROUTED, endpoints_for=judge_factory)
    assert all(r.route_taken == BRANCH_BASELINE for r in records)
    assert [r.baseline_correct for r in records] == [0, 1, 0]
    # The judge's call opens the routed trace, followed by the arm's own.
    for record in records:
        trace = run_config.run_dir / "traces" / f"{record.example_id}_baseline.json"
        transcript = json.loads(trace.read_text())["transcript"]
        assert [entry["stage_label"] for entry in transcript] == ["judge", "baseline"]
    assert not (run_config.run_dir / "transcripts").exists()


def test_a_judge_failure_is_the_example_error_note(run_config):
    scripts = _scripts_for_first_three()

    def judge_factory(example_id, example):
        if example_id == "ex0000":  # no entry answers the judge: its call raises ProviderError
            return scripted_pair([("no prompt holds this", "SIMPLE")])
        return scripted_pair([("SIMPLE or COMPLEX", "SIMPLE"), scripts[example.question][0]])

    run_config.router_kind = "judge"
    records = run_benchmark(run_config, ARM_ROUTED, endpoints_for=judge_factory)
    failed, *routed = records
    assert failed.error.startswith("judge: provider error: no unused script entry matches")
    assert (failed.route_taken, failed.trace_paths) == ("", ("", ""))
    assert failed.baseline_correct is failed.module_correct is None
    assert not (run_config.run_dir / "traces" / "ex0000_baseline.json").exists()
    assert [(r.route_taken, r.baseline_correct, r.error) for r in routed] == [
        (BRANCH_BASELINE, 1, ""), (BRANCH_BASELINE, 0, "")
    ]
    assert load_records(run_config.run_dir / "records.json") == records
    # The example that failed before its route counts as wrong in routed EX.
    assert build_report(records).ex_routed == Fraction(100, 3)


@pytest.mark.parametrize(
    "arm, parallel_subqueries",
    [(ARM_BOTH, False), (ARM_BOTH, True), (ARM_ROUTED, False)],
    ids=["both-sequential", "both-fanout", "judge-routed"],
)
def test_the_prompt_settings_reach_every_prompt(
    run_config, schemas, tmp_path, arm, parallel_subqueries
):
    prompts_dir = tmp_path / "prompts"
    prompts_dir.mkdir()
    for template in builtin_template_dir().glob("*.txt"):
        body = template.read_text(encoding="utf-8")
        (prompts_dir / template.name).write_text(f"[custom {template.stem}]\n{body}")
    fewshot = [{"question": "Which marker is this?", "sql": "SELECT 'fewshot marker'"}]
    (tmp_path / "fewshot.json").write_text(json.dumps(fewshot))
    run_config.prompts_dir, run_config.fewshot_file = prompts_dir, tmp_path / "fewshot.json"
    run_config.pipeline = PipelineConfig(parallel_subqueries=parallel_subqueries)
    run_config.router_kind = "judge"

    def endpoints_for(example_id, example):
        judge = [("SIMPLE or COMPLEX", "COMPLEX")] if arm == ARM_ROUTED else []
        return scripted_pair(judge + gold_answer_script(example, schemas[example.db_id]))

    records = run_benchmark(run_config, arm, endpoints_for=endpoints_for)
    assert all(r.module_correct == 1 and not r.error for r in records)
    examples_text = load_fewshot(tmp_path / "fewshot.json")
    seen = Counter()
    for path in (run_config.run_dir / "traces").iterdir():
        for entry in json.loads(path.read_text())["transcript"]:
            stage, attempt = entry["stage_label"], entry["attempt_index"]
            prompt = entry["request"]["messages"][-1]["content"]
            template = "refinement" if attempt else stage
            assert prompt.startswith(f"[custom {template}]\n"), (path.name, stage, attempt)
            seen[template] += 1
            if stage in ("baseline", "subquery_generation") and not attempt:
                assert examples_text in prompt, (path.name, stage)
    # Every stage the run uses was prompted: two sub-questions per module trace.
    expected = {"table_selection", "decomposition", "subquery_generation", "merge_planner",
                "merge_executor", "column_selection"}
    expected |= {"baseline", "refinement"} if arm == ARM_BOTH else {"judge"}
    assert set(seen) == expected and seen["subquery_generation"] == 2 * len(records)


@pytest.mark.parametrize("arm", [ARM_BOTH, ARM_ROUTED], ids=["both", "judge-routed"])
def test_every_stage_binds_its_required_placeholders(run_config, schemas, monkeypatch, arm):
    # Templates are checked for their placeholders when they load; this checks the
    # other half, that each stage's code binds every one its template must hold.
    stage_of = {text: stage for stage, text in load_templates().items()}
    assert len(stage_of) == len(REQUIRED_PLACEHOLDERS)  # a template's text names its stage
    unbound = Counter()

    def checked(render):
        def wrapper(template, bindings):
            stage = stage_of[template]
            unbound[stage] += len(REQUIRED_PLACEHOLDERS[stage] - set(bindings))
            return render(template, bindings)
        return wrapper

    for module in (pipeline, router):
        monkeypatch.setattr(module, "render", checked(module.render))
    run_config.pipeline, run_config.router_kind = PipelineConfig(), "judge"

    def endpoints_for(example_id, example):
        judge = [("SIMPLE or COMPLEX", "COMPLEX")] if arm == ARM_ROUTED else []
        return scripted_pair(judge + gold_answer_script(example, schemas[example.db_id]))

    records = run_benchmark(run_config, arm, endpoints_for=endpoints_for)
    assert all(r.module_correct == 1 and not r.error for r in records)
    expected = {"table_selection", "decomposition", "subquery_generation", "merge_planner",
                "merge_executor", "column_selection"}
    expected |= {"baseline", "refinement"} if arm == ARM_BOTH else {"judge"}
    assert unbound == dict.fromkeys(expected, 0)


def test_each_schema_is_rendered_once_per_judge_routed_run(run_config, monkeypatch):
    rendered = []
    serialize = dataset.serialize_schema

    def counting(schema):
        rendered.append(schema)  # kept alive, so no two schemas share an id
        return serialize(schema)

    scripts = _scripts_for_first_three()

    def judge_factory(example_id, example):
        # The first example goes to the baseline, the other two to the pipeline.
        script = scripts[example.question]
        if example_id == "ex0000":
            return scripted_pair([("SIMPLE or COMPLEX", "SIMPLE"), script[0]])
        return scripted_pair([("SIMPLE or COMPLEX", "COMPLEX"), *script[1:]])

    monkeypatch.setattr(dataset, "serialize_schema", counting)
    run_config.router_kind = "judge"
    records = run_benchmark(run_config, ARM_ROUTED, endpoints_for=judge_factory)
    assert [r.route_taken for r in records] == [BRANCH_BASELINE] + 2 * [BRANCH_DIVIDE_AND_MERGE]
    # One customer_orders schema serves every judge call, the baseline and both
    # table selections; each pipeline example renders its reduced schema once.
    assert len({id(schema) for schema in rendered}) == len(rendered) == 3
    full, *reduced = rendered
    assert full.table_count == 8 and [s.table_count for s in reduced] == [1, 2]
    judged = [
        entry["request"]["messages"][-1]["content"]
        for path in (run_config.run_dir / "traces").iterdir()
        for entry in json.loads(path.read_text())["transcript"]
        if entry["stage_label"] == "judge"
    ]
    assert len(judged) == 3 and all(full.prompt_text in prompt for prompt in judged)


@pytest.mark.parametrize("table_threshold", [5, 100])
def test_heuristic_routed_traces_equal_the_both_run_traces(
    run_config, monkeypatch, tmp_path, table_threshold
):
    # customer_orders has 8 tables: threshold 5 routes every example to the
    # pipeline, 100 to the baseline.
    _, both = _run_outputs(run_config, monkeypatch)
    run_config.run_dir = tmp_path / "routed"
    run_config.router_kind = "heuristic"
    run_config.table_threshold = table_threshold
    _, routed = _run_outputs(run_config, monkeypatch, arm=ARM_ROUTED)
    assert len(routed) == 3
    assert routed == {name: both[name] for name in routed}


def test_records_round_trip(tmp_path):
    records = records_from_bits([1, 0], [0, 1])
    records[0].route_taken = BRANCH_BASELINE
    records[0].trace_paths = ("a.json", "b.json")
    path = tmp_path / "records.json"
    write_records(path, records)
    assert load_records(path) == records


def _reference_record_dict(record: PerExampleRecord) -> dict:
    """One records.json row, written out field by field."""
    return {
        "example_id": record.example_id,
        "db_id": record.db_id,
        "table_count": record.table_count,
        "baseline_correct": record.baseline_correct,
        "module_correct": record.module_correct,
        "route_taken": record.route_taken,
        "final_sql_baseline": record.final_sql_baseline,
        "final_sql_module": record.final_sql_module,
        "trace_paths": list(record.trace_paths),
        "error": record.error,
    }


_BITS = st.sampled_from([None, 0, 1])
_RECORDS = st.builds(
    PerExampleRecord,
    example_id=st.text(max_size=12),
    db_id=st.text(max_size=12),
    table_count=st.integers(0, 60),
    baseline_correct=_BITS,
    module_correct=_BITS,
    route_taken=st.sampled_from(["", BRANCH_BASELINE, BRANCH_DIVIDE_AND_MERGE]),
    final_sql_baseline=st.text(max_size=30),
    final_sql_module=st.text(max_size=30),
    trace_paths=st.tuples(st.text(max_size=12), st.text(max_size=12)),
    error=st.text(max_size=20),
)


@settings(max_examples=60, deadline=None)
@given(records=st.lists(_RECORDS, min_size=1, max_size=4))
def test_records_file_matches_the_reference_serializer(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("records") / "records.json"
    write_records(path, records)
    reference = json.dumps([_reference_record_dict(r) for r in records], indent=2, sort_keys=True)
    assert path.read_bytes() == (reference + "\n").encode("utf-8")
    assert load_records(path) == records

    for name in ("example_id", "db_id", "table_count"):
        row = _reference_record_dict(records[0])
        del row[name]
        path.write_text(json.dumps([row]), encoding="utf-8")
        with pytest.raises(InputFileError, match=name):
            load_records(path)


def test_records_keep_the_examples_file_order_past_ten_thousand(run_config, tmp_path):
    # ex10000 sorts before ex1001 as text; records follow the file instead.
    # No database matches, so every example is an error record and no model runs.
    examples_file = tmp_path / "examples.json"
    rows = [{"question": f"q{i}", "query": "SELECT 1", "db_id": "no_such_db"} for i in range(10001)]
    examples_file.write_text(json.dumps(rows), encoding="utf-8")
    run_config.examples_file = examples_file
    run_config.limit = None
    records = run_benchmark(run_config, ARM_BOTH, endpoints_for=_scripted_factory())
    expected = [f"ex{i:04d}" for i in range(10001)]
    assert [r.example_id for r in records] == expected
    assert [r.example_id for r in load_records(run_config.run_dir / "records.json")] == expected
    assert records[-1] == PerExampleRecord(
        "ex10000", "no_such_db", 0, 0, 0, error="unknown db_id 'no_such_db'"
    )


def test_realized_router_accuracy_against_reference():
    reference = records_from_bits([1, 0, 1, 1], [0, 1, 1, 0])
    routed = []
    for record, branch in zip(
        reference,
        [
            BRANCH_BASELINE,  # oracle: baseline  (correct)
            BRANCH_BASELINE,  # oracle: pipeline  (wrong)
            BRANCH_BASELINE,  # agreement         (ignored)
            BRANCH_BASELINE,  # oracle: baseline  (correct)
        ],
    ):
        routed.append(
            PerExampleRecord(
                example_id=record.example_id,
                db_id="db",
                table_count=3,
                baseline_correct=1,
                route_taken=branch,
            )
        )
    assert realized_router_accuracy(routed, reference) == pytest.approx(2 / 3)


def test_realized_router_accuracy_undefined_without_disagreement():
    from splitsql.router import UndefinedAccuracyError

    reference = records_from_bits([1, 1], [1, 1])
    routed = [
        PerExampleRecord(
            example_id=r.example_id,
            db_id="db",
            table_count=3,
            baseline_correct=1,
            route_taken=BRANCH_BASELINE,
        )
        for r in reference
    ]
    with pytest.raises(UndefinedAccuracyError):
        realized_router_accuracy(routed, reference)


def test_load_config_round_trip(tmp_path, corpus_root):
    config_payload = {
        "dataset": {"root": str(corpus_root)},
        "llm": {
            "reasoning_model": {"base_url": "http://localhost:8000/v1", "model_id": "r"},
            "coding_model": {"base_url": "http://localhost:8000/v1", "model_id": "c"},
        },
        "pipeline": {"merge_strategy": "last_subquery", "column_selection": False},
        "executor": {"timeout_ms": 1234},
        "router": {"kind": "heuristic", "table_threshold": 6},
        "harness": {"worker_count": 2, "run_dir": "out"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_payload))
    config = load_config(path)
    assert config.tables_file == corpus_root / "tables.json"
    assert config.pipeline.merge_strategy == MERGE_LAST_SUBQUERY
    assert config.pipeline.column_selection_enabled is False
    assert config.timeout_ms == 1234
    assert config.table_threshold == 6
    assert config.worker_count == 2
    assert config.run_dir == tmp_path / "out"
    assert config.reasoning.model_id == "r"

    # A file that gives only its dataset leaves every other setting at its
    # dataclass default.
    path.write_text(json.dumps({"dataset": {"root": str(corpus_root)}}))
    config = load_config(path)
    assert config == RunConfig(
        tables_file=corpus_root / "tables.json",
        examples_file=corpus_root / "examples.json",
        run_dir=tmp_path / "runs" / "latest",
    )
    assert config.pipeline == PipelineConfig()


_ENDPOINT = {"base_url": "http://localhost:8000/v1", "model_id": "r"}


def test_load_config_takes_an_integer_for_a_number_and_null_where_the_default_is_none(
    tmp_path, corpus_root
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dataset": {"root": str(corpus_root)},
        "llm": {"reasoning_model": {**_ENDPOINT, "temperature": 1}, "coding_model": None},
        "router": {"model_file": None},
        "harness": {"limit": None, "cache_dir": "cache"},
    }))
    config = load_config(path)
    assert config.reasoning.temperature == 1
    assert (config.coding, config.router_model_file, config.limit) == (None, None, None)
    assert config.cache_dir == tmp_path / "cache"


def test_the_readme_config_example_loads(tmp_path, corpus_root):
    # Fails when the README's example names a key the loader refuses.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    payload = json.loads(example)
    payload["dataset"]["root"] = str(corpus_root)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    config = load_config(path)
    assert (config.tables_file, config.examples_file) == (
        corpus_root / "tables.json", corpus_root / "examples.json")
    assert config.reasoning.model_id == "my-reasoning-model"


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"pipeline": {"colum_selection": False, "max_refinement": 0}},
         "pipeline.colum_selection, pipeline.max_refinement"),
        ({"harness": {"workers": 4, "run_dir": "out"}}, "harness.workers"),
        ({"llm": {"reasoning_model": {**_ENDPOINT, "temprature": 0.7}}},
         "llm.reasoning_model.temprature"),
        ({"llm": {"coding_model": {**_ENDPOINT, "stage_temperatures": {"baseline": 0.7}}}},
         "llm.coding_model.stage_temperatures"),
        ({"llm": {"reasoning": _ENDPOINT}}, "llm.reasoning"),
        ({"piepline": {"max_refinements": 0}}, "piepline"),
        ({"executor": {"timeout": 5}}, "executor.timeout"),
    ],
    ids=["pipeline", "harness", "endpoint", "stage-temperatures", "role", "section", "executor"],
)
def test_load_config_names_every_key_it_does_not_know(tmp_path, corpus_root, extra, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dataset": {"root": str(corpus_root)}, **extra}))
    with pytest.raises(ValueError, match=f"unknown config key\\(s\\): {re.escape(named)}$"):
        load_config(path)


def test_both_run_scores_the_gold_order_mode_once_per_example(run_config, monkeypatch):
    scanned = []
    scan = executor.has_top_level_order_by

    def counting(sql):
        scanned.append(sql)
        return scan(sql)

    monkeypatch.setattr(executor, "has_top_level_order_by", counting)
    records = run_benchmark(run_config, ARM_BOTH, endpoints_for=_scripted_factory())
    assert [r.baseline_correct for r in records] == [0, 1, 0]
    assert [r.module_correct for r in records] == [1, 0, 1]
    assert len(scanned) == len(records) == 3
    assert len(set(scanned)) == 3


# ---------------------------------------------------------------------------
# Model connections against a counting HTTP/1.1 server
# ---------------------------------------------------------------------------


class _CountingServer(ThreadingHTTPServer):
    """A keep-alive model server that counts the connections it accepts and
    those still open. drop is "", "announced" (a Connection: close reply
    header) or "silent" (closes after each reply without saying so)."""

    def __init__(self, drop: str = ""):
        super().__init__(("127.0.0.1", 0), _CountingHandler)
        self.drop = drop
        self.lock = threading.Lock()
        self.opened = 0
        self.open_now = 0
        self.requests = 0

    def process_request(self, request, client_address):
        with self.lock:
            self.opened += 1
            self.open_now += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.lock:
            self.open_now -= 1

    def wait_until_open(self, count: int, timeout_s: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout_s
        while self.open_now != count and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.open_now == count

    def wait_until_all_closed(self, timeout_s: float = 5.0) -> bool:
        return self.wait_until_open(0, timeout_s)


class _CountingHandler(BaseHTTPRequestHandler):
    """Routes every question to the pipeline, splits it into three
    sub-questions and answers every SQL stage with SELECT 1."""

    protocol_version = "HTTP/1.1"
    wbufsize = -1  # one write per reply: split writes stall keep-alive calls (Nagle)
    timeout = 30  # a leaked keep-alive connection frees its thread after this

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = request["messages"][-1]["content"]
        if "SIMPLE or COMPLEX" in prompt:
            text = "COMPLEX"
        elif "numbered list of sub-questions" in prompt:
            text = "1. Count the rows.\n2. Count them again.\n3. Count them once more."
        else:
            text = "SELECT 1"
        with self.server.lock:
            self.server.requests += 1
        payload = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        if self.server.drop == "announced":
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)
        if self.server.drop == "silent":
            self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture()
def counting_server(request):
    server = _CountingServer(getattr(request, "param", ""))
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def kept_pools(monkeypatch):
    """The connection pools run_benchmark builds, kept alive after the run, so
    only clearing one closes its connections. Each notes in idle_when_cleared
    how many idle connections it held when it was cleared."""
    pools = []

    def keep(url):
        pool = connection_pool(url)
        clear = pool.clear

        def count_and_clear():
            pool.idle_when_cleared = len(pool.idle)
            clear()

        pool.clear = count_and_clear
        pools.append(pool)
        return pool

    monkeypatch.setattr(harness, "connection_pool", keep)
    return pools


@pytest.fixture()
def http_run_config(run_config, counting_server, kept_pools):
    """A judge-routed 2-worker run over the whole mini corpus against the
    counting server."""
    url = f"http://127.0.0.1:{counting_server.server_port}"
    run_config.reasoning = EndpointSpec(base_url=url, model_id="reasoner")
    run_config.coding = EndpointSpec(base_url=url, model_id="coder")
    run_config.router_kind = "judge"
    run_config.worker_count = 2
    run_config.limit = None
    return run_config


def _transcript_retries(run_config) -> list[int]:
    return [
        entry["response"]["retries"]
        for path in sorted((run_config.run_dir / "traces").iterdir())
        for entry in json.loads(path.read_text())["transcript"]
    ]


def test_judge_routed_run_keeps_one_connection_per_worker(
    http_run_config, counting_server, kept_pools
):
    records = run_benchmark(http_run_config, ARM_ROUTED)
    assert len(records) == 20
    assert all(r.route_taken == BRANCH_DIVIDE_AND_MERGE and not r.error for r in records)
    assert counting_server.requests >= 4 * len(records)
    assert counting_server.opened <= 2
    assert len(kept_pools) == 1  # both endpoints name one base_url
    assert counting_server.wait_until_all_closed()


def test_run_closes_its_model_connections_when_it_raises(
    http_run_config, counting_server, monkeypatch
):
    write_trace = harness.write_trace

    def failing(path, trace):
        if Path(path).name.startswith("ex0003"):
            raise RuntimeError("disk full")
        write_trace(path, trace)

    monkeypatch.setattr(harness, "write_trace", failing)
    with pytest.raises(RuntimeError, match="disk full"):
        run_benchmark(http_run_config, ARM_ROUTED)
    assert counting_server.opened >= 1
    assert counting_server.wait_until_all_closed()


@pytest.mark.parametrize("counting_server", ["announced"], indirect=True)
def test_server_closing_after_every_reply_costs_no_retries(http_run_config, counting_server):
    records = run_benchmark(http_run_config, ARM_ROUTED)
    assert all(not r.error for r in records)
    retries = _transcript_retries(http_run_config)
    assert len(retries) == counting_server.requests == counting_server.opened
    assert set(retries) == {0}


def test_call_without_a_pool_closes_its_connection(counting_server):
    url = f"http://127.0.0.1:{counting_server.server_port}"
    provider = ProviderConfig(kind=KIND_HTTP, base_url=url)
    request = CompletionRequest(model_id="m", messages=(ChatMessage("user", "hi"),))
    for calls in range(1, 3):
        assert complete(provider, request).text == "SELECT 1"
        assert counting_server.wait_until_all_closed()
        assert counting_server.opened == calls


@pytest.mark.parametrize("counting_server", ["silent"], indirect=True)
def test_pooled_connection_closed_unannounced_is_not_a_retry(counting_server):
    url = f"http://127.0.0.1:{counting_server.server_port}"
    pool = connection_pool(url)
    provider = ProviderConfig(kind=KIND_HTTP, base_url=url, pool=pool)
    request = CompletionRequest(model_id="m", messages=(ChatMessage("user", "hi"),))
    try:
        for calls in range(1, 4):
            assert complete(provider, request).retries == 0
            assert counting_server.wait_until_all_closed()
            assert counting_server.opened == calls
    finally:
        pool.clear()


def test_parallel_fanout_stays_within_the_pool(http_run_config, counting_server, kept_pools):
    http_run_config.pipeline.parallel_subqueries = True
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # six threads share one pool: switch often to expose a race
    try:
        records = run_benchmark(http_run_config, ARM_ROUTED)
    finally:
        sys.setswitchinterval(interval)
    assert all(not r.error for r in records)
    trace = json.loads(Path(records[0].trace_paths[1]).read_text())
    assert len(trace["subquestions"]) == 3
    assert counting_server.opened <= 6
    # Every connection went back to the pool: none was closed during the run.
    [pool] = kept_pools
    assert pool.idle_when_cleared == counting_server.opened
    assert counting_server.wait_until_all_closed()
