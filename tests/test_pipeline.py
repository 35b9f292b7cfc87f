from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    AVG_ORDERED_SQL,
    _reference_canonical_trace_bytes,
    _reference_trace_file_bytes,
    _reference_trace_to_dict,
    avg_ordered_products_script,
    baseline_wrong_avg_script,
    gold_answer_script,
    scripted_endpoint,
    scripted_pair,
)
from splitsql import harness, pipeline
from splitsql.dataset import DatabaseSchema, TableDef, serialize_schema
from splitsql.executor import execute_sql, execution_accuracy
from splitsql.harness import ARM_BOTH, RunConfig, run_benchmark
from splitsql.llm import (
    KIND_SCRIPTED,
    ROLES,
    ChatMessage,
    CompletionRequest,
    CompletionResponse,
    ModelEndpoint,
    ModelPair,
    ProviderConfig,
    ScriptState,
    TranscriptEntry,
)
from splitsql.minicorpus import db_path
from splitsql.pipeline import (
    MERGE_LAST_SUBQUERY,
    MERGE_PLANNER_EXECUTOR,
    PipelineConfig,
    PipelineTrace,
    StageContext,
    SubQuery,
    SubQuestion,
    canonical_trace_bytes,
    column_select,
    decompose,
    generate_subquery,
    merge_last,
    merge_plan_execute,
    run_baseline,
    run_divide_and_merge,
    select_tables,
    write_trace,
)


@pytest.fixture(scope="module")
def orders_schema(schemas):
    return schemas["customer_orders"]


@pytest.fixture(scope="module")
def orders_db(corpus_root):
    return db_path(corpus_root, "customer_orders")


@pytest.fixture()
def ctx(orders_db):
    return StageContext(orders_db, 3)


@pytest.fixture(scope="module")
def avg_example(examples):
    (example,) = [e for e in examples if "on average" in e.question]
    return example


# ---------------------------------------------------------------------------
# select_tables
# ---------------------------------------------------------------------------


def test_select_tables_reduces(ctx, orders_schema):
    endpoint = scripted_endpoint(
        [("table names", "Order_Items, Products, Orders")]
    )
    reduced = select_tables(ctx, "q", orders_schema, endpoint)
    assert [t.name for t in reduced.tables] == ["Products", "Orders", "Order_Items"]
    assert reduced.table_count == 3


def test_select_tables_full_list_is_identity(ctx, orders_schema):
    reply = ", ".join(t.name for t in orders_schema.tables)
    endpoint = scripted_endpoint([("table names", reply)])
    reduced = select_tables(ctx, "q", orders_schema, endpoint)
    assert reduced == orders_schema


def test_select_tables_unmatched_reply_falls_back_to_full(ctx, orders_schema):
    endpoint = scripted_endpoint([("table names", "none of these")])
    assert select_tables(ctx, "q", orders_schema, endpoint) is orders_schema


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_four_items(ctx, orders_schema):
    endpoint = scripted_endpoint(
        [("sub-questions", "1. Find the price of each product.\n2. B\n3. C\n4. D")]
    )
    subqs = decompose(ctx, "q", orders_schema, endpoint)
    assert [sq.index for sq in subqs] == [1, 2, 3, 4]
    assert subqs[0].text == "Find the price of each product."


def test_decompose_verbatim_reply_is_single_subquestion(ctx, orders_schema):
    endpoint = scripted_endpoint([("sub-questions", "how many products are there")])
    subqs = decompose(ctx, "how many products are there", orders_schema, endpoint)
    assert len(subqs) == 1
    assert subqs[0].index == 1


def test_decompose_ten_items(ctx, orders_schema):
    reply = "\n".join(f"Sub-question {i}: task {i}" for i in range(1, 11))
    endpoint = scripted_endpoint([("sub-questions", reply)])
    subqs = decompose(ctx, "q", orders_schema, endpoint)
    assert len(subqs) == 10
    assert subqs[9].text == "task 10"


# ---------------------------------------------------------------------------
# generate_subquery and the refinement loop
# ---------------------------------------------------------------------------


def _subq(text: str, index: int = 1) -> SubQuestion:
    return SubQuestion(index=index, text=text)


def test_generate_first_try_success(orders_schema, orders_db):
    endpoint = scripted_endpoint([("count the products", "SELECT COUNT(*) FROM Products")])
    result = generate_subquery(
        StageContext(orders_db, 3),
        _subq("count the products"),
        orders_schema,
        endpoint,
        [],
    )
    assert result.valid
    assert result.refinement_attempts == 0
    assert result.sql == "SELECT COUNT(*) FROM Products"


def test_generate_recovers_after_one_error(orders_schema, orders_db):
    endpoint = scripted_endpoint(
        [
            ("count the products", "SELECT COUNT(*) FROM Productz"),
            ("failed when executed", "SELECT COUNT(*) FROM Products"),
        ]
    )
    transcript = []
    result = generate_subquery(
        StageContext(orders_db, 3, transcript=transcript),
        _subq("count the products"),
        orders_schema,
        endpoint,
        [],
    )
    assert result.valid
    assert result.refinement_attempts == 1
    assert len(transcript) == 2
    # The refinement prompt carries the failed SQL and the verbatim engine error.
    refine_prompt = transcript[1].request.last_user_content
    assert "SELECT COUNT(*) FROM Productz" in refine_prompt
    assert "no such table" in refine_prompt


def test_generate_exhausts_refinements(orders_schema, orders_db):
    endpoint = scripted_endpoint(
        [
            ("count the products", "SELECT * FROM missing_1"),
            ("failed when executed", "SELECT * FROM missing_2"),
            ("failed when executed", "SELECT * FROM missing_3"),
            ("failed when executed", "SELECT * FROM missing_4"),
        ]
    )
    result = generate_subquery(
        StageContext(orders_db, 3),
        _subq("count the products"),
        orders_schema,
        endpoint,
        [],
    )
    assert not result.valid
    assert result.refinement_attempts == 3
    assert result.sql == "SELECT * FROM missing_4"


def test_generate_extraction_failure_counts_as_attempt(orders_schema, orders_db):
    endpoint = scripted_endpoint(
        [
            ("count the products", "I cannot answer."),
            ("failed when executed", "SELECT COUNT(*) FROM Products"),
        ]
    )
    result = generate_subquery(
        StageContext(orders_db, 3),
        _subq("count the products"),
        orders_schema,
        endpoint,
        [],
    )
    assert result.valid
    assert result.refinement_attempts == 1


def test_generate_zero_refinements_allowed(orders_schema, orders_db):
    endpoint = scripted_endpoint([("count the products", "SELECT * FROM missing")])
    result = generate_subquery(
        StageContext(orders_db, 0),
        _subq("count the products"),
        orders_schema,
        endpoint,
        [],
    )
    assert not result.valid
    assert result.refinement_attempts == 0


def test_generate_serial_prompt_includes_prior_subqueries(orders_schema, orders_db):
    endpoint = scripted_endpoint([("second step", "SELECT 2")])
    transcript = []
    prior = [SubQuery(for_index=1, sql="SELECT 1", valid=True)]
    generate_subquery(
        StageContext(orders_db, 0, transcript=transcript),
        _subq("second step", index=2),
        orders_schema,
        endpoint,
        [],
        prior=prior,
    )
    assert "SELECT 1" in transcript[0].request.last_user_content


# ---------------------------------------------------------------------------
# merge strategies
# ---------------------------------------------------------------------------


def test_merge_last_returns_final_subquery():
    queries = [SubQuery(1, "SELECT A"), SubQuery(2, "SELECT B")]
    assert merge_last(queries) == "SELECT B"
    assert merge_last(queries[:1]) == "SELECT A"
    for size in range(1, 6):
        pool = [SubQuery(i + 1, f"SELECT {i}") for i in range(size)]
        assert merge_last(pool) == f"SELECT {size - 1}"


def test_merge_plan_execute_happy_path(ctx, orders_schema):
    pair = scripted_pair(
        [
            ("Work out how the sub-queries", "Keep the final aggregate only."),
            ("Combine the sub-queries below", AVG_ORDERED_SQL),
        ]
    )
    subqs = [_subq("Find prices"), _subq("Average them", index=2)]
    queries = [SubQuery(1, "SELECT product_price FROM Products", valid=True),
               SubQuery(2, AVG_ORDERED_SQL, valid=True)]
    plan, sql, fell_back = merge_plan_execute(
        ctx, "q", subqs, queries, pair, orders_schema
    )
    assert plan == "Keep the final aggregate only."
    assert sql == AVG_ORDERED_SQL
    assert not fell_back


def test_merge_plan_execute_single_subquery(ctx, orders_schema):
    pair = scripted_pair(
        [
            ("Work out how the sub-queries", "Use sub-query 1 as-is."),
            ("Combine the sub-queries below", "SELECT COUNT(*) FROM Products"),
        ]
    )
    queries = [SubQuery(1, "SELECT COUNT(*) FROM Products", valid=True)]
    plan, sql, fell_back = merge_plan_execute(
        ctx, "q", [_subq("count")], queries, pair, orders_schema
    )
    assert sql == queries[0].sql
    assert not fell_back


def test_merge_plan_execute_falls_back_when_no_sql_ever(ctx, orders_schema):
    pair = scripted_pair(
        [
            ("Work out how the sub-queries", "Some plan."),
            ("Combine the sub-queries below", "no query here"),
            ("failed when executed", "still nothing"),
            ("failed when executed", "nope"),
            ("failed when executed", "sorry"),
        ]
    )
    queries = [SubQuery(1, "SELECT COUNT(*) FROM Products", valid=True)]
    plan, sql, fell_back = merge_plan_execute(
        ctx, "q", [_subq("count")], queries, pair, orders_schema
    )
    assert fell_back
    assert sql == "SELECT COUNT(*) FROM Products"


# ---------------------------------------------------------------------------
# column selection
# ---------------------------------------------------------------------------


def test_column_select_narrows_output(schemas, corpus_root):
    schema = schemas["city_channels"]
    merged = (
        "SELECT Affiliation, COUNT(*) AS count FROM city_channel "
        "GROUP BY Affiliation ORDER BY count DESC LIMIT 1"
    )
    revised = (
        "SELECT Affiliation FROM (SELECT Affiliation, COUNT(*) AS count "
        "FROM city_channel GROUP BY Affiliation ORDER BY count DESC) "
        "AS grouped_affiliations LIMIT 1"
    )
    endpoint = scripted_endpoint([("returns exactly the columns", revised)])
    out = column_select(
        StageContext(db_path(corpus_root, "city_channels"), 3),
        "Please show the most common affiliation for city channels.",
        schema,
        merged,
        endpoint,
    )
    assert out == revised
    outcome = execute_sql(db_path(corpus_root, "city_channels"), out)
    assert outcome.result.rows == (("ABC",),)


def test_column_select_echo_keeps_query(ctx, orders_schema):
    merged = "SELECT COUNT(*) FROM Products"
    endpoint = scripted_endpoint([("returns exactly the columns", merged)])
    assert (
        column_select(ctx, "q", orders_schema, merged, endpoint) == merged
    )


def test_column_select_may_keep_wrong_but_runnable_output(schemas, corpus_root, examples):
    # A runnable revision is accepted even when it keeps an extra column;
    # the harness scores the mistake later, not the pipeline.
    schema = schemas["region_buildings"]
    db_file = db_path(corpus_root, "region_buildings")
    (example,) = [e for e in examples if "Abruzzo" in e.question]
    merged = (
        "SELECT b.Name, b.Number_of_Stories FROM building b "
        "JOIN region r ON b.Region_ID = r.Region_ID WHERE r.Name = 'Abruzzo'"
    )
    endpoint = scripted_endpoint([("returns exactly the columns", merged)])
    final = column_select(
        StageContext(db_file, 3), example.question, schema, merged, endpoint
    )
    assert final == merged
    assert not execution_accuracy(example, final, db_file).verdict.equal


def test_column_select_never_breaks_runnable_query(ctx, orders_schema, orders_db):
    merged = "SELECT COUNT(*) FROM Products"
    endpoint = scripted_endpoint(
        [
            ("returns exactly the columns", "SELECT nope FROM missing"),
            ("failed when executed", "SELECT nope FROM missing"),
            ("failed when executed", "SELECT nope FROM missing"),
            ("failed when executed", "SELECT nope FROM missing"),
        ]
    )
    out = column_select(ctx, "q", orders_schema, merged, endpoint)
    assert out == merged
    assert execute_sql(orders_db, out).ok


# ---------------------------------------------------------------------------
# full pipeline runs
# ---------------------------------------------------------------------------


def _run_avg_scenario(avg_example, orders_schema, orders_db, **config_kwargs):
    config = PipelineConfig(**config_kwargs)
    pair = scripted_pair(avg_ordered_products_script())
    return run_divide_and_merge(
        avg_example, orders_schema, config, pair, orders_db, example_id="avg"
    )


def test_full_run_planner_with_cs(avg_example, orders_schema, orders_db, schemas):
    trace = _run_avg_scenario(
        avg_example,
        orders_schema,
        orders_db,
        merge_strategy=MERGE_PLANNER_EXECUTOR,
        column_selection_enabled=True,
    )
    assert trace.error == ""
    assert len(trace.subquestions) == 4
    assert len(trace.subqueries) == len(trace.subquestions)
    assert [t.name for t in trace.reduced_schema.tables] == ["Products", "Orders", "Order_Items"]
    assert trace.merge_plan_text
    assert trace.final_sql == AVG_ORDERED_SQL
    outcome = execution_accuracy(avg_example, trace.final_sql, orders_db)
    assert outcome.verdict.equal


def test_full_run_last_subquery_cs_off(avg_example, orders_schema, orders_db):
    script = avg_ordered_products_script()[:6]  # no planner/executor/CS entries
    config = PipelineConfig(
        merge_strategy=MERGE_LAST_SUBQUERY, column_selection_enabled=False
    )
    pair = scripted_pair(script)
    trace = run_divide_and_merge(
        avg_example, orders_schema, config, pair, orders_db, example_id="avg"
    )
    assert trace.merged_sql == AVG_ORDERED_SQL
    assert trace.final_sql == trace.merged_sql
    assert trace.merge_plan_text == ""
    assert pair.reasoning.provider.script.remaining == 0


def test_single_subquestion_run(orders_schema, orders_db, examples):
    example = [e for e in examples if e.question == "How many customers are there?"][0]
    script = [
        ("table names", "Customers"),
        ("sub-questions", example.question),
        ("How many customers are there", "SELECT COUNT(*) FROM Customers"),
    ]
    config = PipelineConfig(
        merge_strategy=MERGE_LAST_SUBQUERY, column_selection_enabled=False
    )
    trace = run_divide_and_merge(
        example, orders_schema, config, scripted_pair(script), orders_db
    )
    assert len(trace.subquestions) == 1
    assert trace.final_sql == "SELECT COUNT(*) FROM Customers"


def test_two_runs_are_byte_identical(avg_example, orders_schema, orders_db):
    traces = [
        _run_avg_scenario(avg_example, orders_schema, orders_db)
        for _ in range(2)
    ]
    assert canonical_trace_bytes(traces[0]) == canonical_trace_bytes(traces[1])


def test_trace_file_round_trips_as_one_line(avg_example, orders_schema, orders_db, tmp_path):
    trace = _run_avg_scenario(avg_example, orders_schema, orders_db)
    path = tmp_path / "traces" / "ex0000_module.json"
    write_trace(path, trace)
    text = path.read_text(encoding="utf-8")
    assert json.loads(text) == _reference_trace_to_dict(trace)
    assert "\n" not in text
    assert canonical_trace_bytes(trace) == _reference_canonical_trace_bytes(trace)


_TEXT = st.text(max_size=8)
_NAME = st.text(min_size=1, max_size=8)
_MESSAGES = st.tuples(
    st.lists(st.builds(ChatMessage, st.sampled_from(ROLES), _NAME), max_size=2),
    st.builds(ChatMessage, st.just("user"), _NAME),
).map(lambda parts: (*parts[0], parts[1]))
_ENTRIES = st.builds(
    TranscriptEntry,
    stage_label=_NAME,
    request=st.builds(
        CompletionRequest,
        model_id=_TEXT,
        messages=_MESSAGES,
        temperature=st.floats(0, 2) | st.integers(0, 2),
        max_tokens=st.integers(1, 4096),
        stop_sequences=st.lists(_TEXT, max_size=2).map(tuple),
    ),
    response=st.builds(
        CompletionResponse, _TEXT, *[st.integers(0, 10**6)] * 4
    ),
    attempt_index=st.integers(0, 10),
)
_SCHEMAS = st.builds(
    DatabaseSchema,
    db_id=_NAME,
    tables=st.lists(st.builds(TableDef, name=_NAME, columns=st.just(())), max_size=3).map(tuple),
)
_TRACES = st.builds(
    PipelineTrace,
    example_id=_TEXT,
    reduced_schema=st.none() | _SCHEMAS,
    subquestions=st.lists(st.builds(SubQuestion, st.integers(1, 9), _TEXT), max_size=3),
    subqueries=st.lists(
        st.builds(SubQuery, st.integers(1, 9), _TEXT, st.integers(0, 3), st.booleans()), max_size=3
    ),
    merge_plan_text=_TEXT,
    merged_sql=_TEXT,
    final_sql=_TEXT,
    transcript=st.lists(_ENTRIES, max_size=4),
    stage_timings_ms=st.dictionaries(_NAME, st.integers(0, 10**5), max_size=3),
    merge_fell_back=st.booleans(),
    error=_TEXT,
)


@settings(max_examples=150, deadline=None)
@given(trace=_TRACES)
def test_trace_json_matches_the_reference_serializer(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    write_trace(path, trace)
    assert path.read_bytes() == _reference_trace_file_bytes(trace)
    assert canonical_trace_bytes(trace) == _reference_canonical_trace_bytes(trace)


@pytest.mark.parametrize("parallel_subqueries", [False, True], ids=["fanout-off", "fanout-on"])
def test_bundled_corpus_traces_match_the_reference_serializer(
    corpus_root, schemas, tmp_path, monkeypatch, parallel_subqueries
):
    config = RunConfig(
        tables_file=corpus_root / "tables.json",
        examples_file=corpus_root / "examples.json",
        run_dir=tmp_path / "run",
        pipeline=PipelineConfig(parallel_subqueries=parallel_subqueries),
    )
    kept = []
    write = harness.write_trace

    def keep(path, trace):
        write(path, trace)
        kept.append((path, trace))

    def endpoints_for(example_id, example):
        return scripted_pair(gold_answer_script(example, schemas[example.db_id]))

    monkeypatch.setattr(harness, "write_trace", keep)
    records = run_benchmark(config, ARM_BOTH, endpoints_for=endpoints_for)
    assert len(kept) == 2 * len(records) == 40
    assert all(r.baseline_correct == r.module_correct == 1 and not r.error for r in records)
    for path, trace in kept:
        assert path.read_bytes() == _reference_trace_file_bytes(trace), path.name
        assert canonical_trace_bytes(trace) == _reference_canonical_trace_bytes(trace), path.name
    module = [trace for path, trace in kept if path.name.endswith("_module.json")]
    assert all(len(trace.subqueries) == 2 and trace.reduced_schema for trace in module)
    baseline = [trace for path, trace in kept if path.name.endswith("_baseline.json")]
    assert all(trace.transcript[-1].attempt_index == 1 for trace in baseline)


@pytest.mark.parametrize("parallel_subqueries", [False, True])
def test_each_schema_is_serialized_once_per_arm(
    avg_example, orders_schema, orders_db, monkeypatch, parallel_subqueries
):
    rendered = []

    def counting(schema):
        rendered.append(schema)
        return serialize_schema(schema)

    monkeypatch.setattr(pipeline, "serialize_schema", counting)
    trace = _run_avg_scenario(
        avg_example, orders_schema, orders_db, parallel_subqueries=parallel_subqueries
    )
    # Table selection sees the full schema; the four sub-queries, the merge
    # and column selection share the one text of the reduced schema.
    assert rendered == [orders_schema, trace.reduced_schema]
    prompts = [entry.request.last_user_content for entry in trace.transcript]
    assert sum(serialize_schema(trace.reduced_schema) in p for p in prompts) >= 7
    baseline_rendered = len(rendered)
    run_baseline(
        avg_example, orders_schema, scripted_endpoint([("in one step", AVG_ORDERED_SQL)]),
        [], orders_db,
    )
    assert rendered[baseline_rendered:] == [orders_schema]


def test_parallel_and_serial_produce_identical_subqueries(
    avg_example, orders_schema, orders_db
):
    serial = _run_avg_scenario(
        avg_example, orders_schema, orders_db, parallel_subqueries=False
    )
    parallel = _run_avg_scenario(
        avg_example, orders_schema, orders_db, parallel_subqueries=True,
        subquery_fanout_width=4,
    )
    assert serial.final_sql == parallel.final_sql
    assert serial.subqueries == parallel.subqueries


class _SecondAnsweredFirst(ScriptState):
    """Holds the reply to sub-question 1 until sub-question 2 is answered,
    and records the order in which the two were answered."""

    def __init__(self, entries):
        super().__init__(entries)
        self.second_answered = threading.Event()
        self.answered = []

    def consume(self, message):
        if "first step" in message:
            assert self.second_answered.wait(timeout=10)
        reply = super().consume(message)
        for step in ("first step", "second step"):
            if step in message:
                self.answered.append(step)
        if "second step" in message:
            self.second_answered.set()
        return reply


def test_fan_out_transcript_follows_subquestion_order(avg_example, orders_schema, orders_db):
    config = PipelineConfig(
        merge_strategy=MERGE_LAST_SUBQUERY,
        column_selection_enabled=False,
        parallel_subqueries=True,
    )
    traces = []
    for _ in range(2):
        script = _SecondAnsweredFirst(
            [
                ("table names", "Products"),
                ("sub-questions", "1. first step\n2. second step"),
                ("first step", "SELECT 1"),
                ("second step", "SELECT 2"),
            ]
        )
        endpoint = ModelEndpoint(ProviderConfig(kind=KIND_SCRIPTED, script=script), "scripted")
        trace = run_divide_and_merge(
            avg_example, orders_schema, config, ModelPair(endpoint, endpoint), orders_db
        )
        assert script.answered == ["second step", "first step"]
        generation = [
            entry.request.last_user_content
            for entry in trace.transcript
            if entry.stage_label == "subquery_generation"
        ]
        assert len(generation) == 2
        assert "first step" in generation[0] and "second step" in generation[1]
        traces.append(trace)
    assert canonical_trace_bytes(traces[0]) == canonical_trace_bytes(traces[1])


def test_refinement_exhaustion_full_run(orders_schema, orders_db, avg_example):
    script = [
        ("table names", "Products"),
        ("sub-questions", "1. count the widgets"),
        ("count the widgets", "SELECT * FROM widgets_1"),
        ("failed when executed", "SELECT * FROM widgets_2"),
        ("failed when executed", "SELECT * FROM widgets_3"),
        ("failed when executed", "SELECT * FROM widgets_4"),
    ]
    config = PipelineConfig(
        merge_strategy=MERGE_LAST_SUBQUERY,
        column_selection_enabled=False,
        max_refinements=3,
    )
    trace = run_divide_and_merge(
        avg_example, orders_schema, config, scripted_pair(script), orders_db
    )
    (subquery,) = trace.subqueries
    assert subquery.refinement_attempts == 3
    assert not subquery.valid
    assert trace.final_sql == "SELECT * FROM widgets_4"


def test_provider_failure_yields_error_trace(orders_schema, orders_db, avg_example):
    # Script covers only table selection; decomposition exhausts it.
    pair = scripted_pair([("table names", "Products")])
    config = PipelineConfig(merge_strategy=MERGE_LAST_SUBQUERY)
    trace = run_divide_and_merge(
        avg_example, orders_schema, config, pair, orders_db
    )
    assert trace.final_sql == ""
    assert "provider error" in trace.error


def test_stage_timing_keys_per_arm(orders_schema, orders_db, avg_example):
    baseline = run_baseline(
        avg_example, orders_schema, scripted_pair(baseline_wrong_avg_script()).coding, [],
        orders_db, 3,
    )
    assert set(baseline.stage_timings_ms) == {"baseline", "total"}

    config = PipelineConfig(merge_strategy=MERGE_PLANNER_EXECUTOR, column_selection_enabled=True)
    module = run_divide_and_merge(
        avg_example, orders_schema, config, scripted_pair(avg_ordered_products_script()), orders_db
    )
    assert module.error == ""
    assert set(module.stage_timings_ms) == {
        "table_selection", "decomposition", "subquery_generation", "merge",
        "column_selection", "total",
    }

    # The script covers only table selection; decomposition exhausts it.
    failed = run_divide_and_merge(
        avg_example, orders_schema, config, scripted_pair([("table names", "Products")]), orders_db
    )
    assert "provider error" in failed.error
    assert set(failed.stage_timings_ms) == {"table_selection", "decomposition", "total"}


def test_run_baseline_wrong_answer_traced(avg_example, orders_schema, orders_db):
    pair = scripted_pair(baseline_wrong_avg_script())
    trace = run_baseline(avg_example, orders_schema, pair.coding, [], orders_db, 3)
    assert trace.subquestions == []
    assert trace.subqueries == []
    assert trace.final_sql == "SELECT AVG(product_price) FROM Products"
    outcome = execution_accuracy(avg_example, trace.final_sql, orders_db)
    assert not outcome.verdict.equal


def test_run_baseline_gold_reply_scores_equal(avg_example, orders_schema, orders_db):
    pair = scripted_pair([("in one step", avg_example.gold_sql)])
    trace = run_baseline(avg_example, orders_schema, pair.coding, [], orders_db, 3)
    assert execution_accuracy(avg_example, trace.final_sql, orders_db).verdict.equal


def test_max_refinements_capped():
    with pytest.raises(ValueError):
        PipelineConfig(max_refinements=11)
