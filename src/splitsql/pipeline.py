"""The divide-and-merge pipeline: table selection, question decomposition,
per-sub-question SQL generation with bounded refinement, merging, and column
selection. Also the one-step few-shot baseline parser."""

from __future__ import annotations

import contextvars
import functools
import json
import time
from contextlib import contextmanager
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from .dataset import (
    BenchmarkExample,
    DatabaseSchema,
    SchemaReductionError,
    reduce_schema,
    serialize_schema,
)
from .executor import DEFAULT_TIMEOUT_MS, execute_sql
from .llm import (
    ModelEndpoint,
    ModelPair,
    ProviderError,
    TranscriptEntry,
    _fields,
)
from .prompts import (
    STAGE_BASELINE,
    STAGE_COLUMN_SELECTION,
    STAGE_DECOMPOSITION,
    STAGE_MERGE_EXECUTOR,
    STAGE_MERGE_PLANNER,
    STAGE_REFINEMENT,
    STAGE_SUBQUERY_GENERATION,
    STAGE_TABLE_SELECTION,
    FewShotExample,
    PromptTemplate,
    SqlExtractionError,
    default_templates,
    extract_sql,
    format_fewshot,
    load_fewshot,
    parse_subquestions,
    parse_table_list,
    render,
)

MERGE_LAST_SUBQUERY = "last_subquery"
MERGE_PLANNER_EXECUTOR = "planner_executor"
MERGE_STRATEGIES = (MERGE_LAST_SUBQUERY, MERGE_PLANNER_EXECUTOR)

# Hard safety cap on the refinement loop, regardless of configuration.
MAX_REFINEMENT_CAP = 10


@dataclass
class PipelineConfig:
    merge_strategy: str = MERGE_PLANNER_EXECUTOR
    column_selection_enabled: bool = True
    max_refinements: int = 3
    parallel_subqueries: bool = False
    subquery_fanout_width: int = 4

    def __post_init__(self):
        if self.merge_strategy not in MERGE_STRATEGIES:
            raise ValueError(f"unknown merge strategy {self.merge_strategy!r}")
        if not 0 <= self.max_refinements <= MAX_REFINEMENT_CAP:
            raise ValueError(
                f"max_refinements must be in 0..{MAX_REFINEMENT_CAP}"
            )
        if self.subquery_fanout_width < 1:
            raise ValueError("subquery_fanout_width must be >= 1")


@dataclass(frozen=True)
class SubQuestion:
    index: int  # 1-based
    text: str


@dataclass
class SubQuery:
    for_index: int
    sql: str
    refinement_attempts: int = 0
    valid: bool = False


@dataclass
class PipelineTrace:
    """Full record of one question's journey through a pipeline arm."""

    example_id: str
    reduced_schema: DatabaseSchema | None = None
    subquestions: list[SubQuestion] = field(default_factory=list)
    subqueries: list[SubQuery] = field(default_factory=list)
    merge_plan_text: str = ""
    merged_sql: str = ""
    final_sql: str = ""
    transcript: list[TranscriptEntry] = field(default_factory=list)
    stage_timings_ms: dict[str, int] = field(default_factory=dict)
    merge_fell_back: bool = False
    error: str = ""


@functools.lru_cache(maxsize=1)
def _default_fewshot() -> tuple[FewShotExample, ...]:
    return tuple(load_fewshot())


@dataclass
class StageContext:
    """What the model stages of one arm run share: the database the refine
    loop executes against, its bounds, the prompt templates, the transcript
    every model call is appended to, and the schema texts rendered so far."""

    db_path: str | Path
    max_refinements: int
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    templates: dict[str, PromptTemplate] = field(default_factory=default_templates)
    transcript: list[TranscriptEntry] = field(default_factory=list)
    schema_texts: dict[int, tuple] = field(default_factory=dict, repr=False)

    def schema_text(self, schema: DatabaseSchema) -> str:
        """serialize_schema(schema), rendered once per schema object."""
        entry = self.schema_texts.get(id(schema))
        if entry is None:  # the entry holds schema, so its id stays unique
            entry = self.schema_texts[id(schema)] = (schema, serialize_schema(schema))
        return entry[1]

    def ask(self, endpoint: ModelEndpoint, stage: str, bindings: dict[str, str]) -> str:
        """Render the stage's template and ask the endpoint once."""
        prompt = render(self.templates[stage], bindings)
        return endpoint.ask(prompt, transcript=self.transcript, stage_label=stage)

    def refine(
        self, endpoint: ModelEndpoint, stage: str, bindings: dict[str, str], task_text: str
    ) -> tuple[str, int, bool]:
        """Generate SQL, execute it, and re-prompt with the engine error.

        The first prompt renders the stage's template; each refinement
        prompt carries task_text, bindings["schema"], the failed SQL and the
        error. An execution error or a failed SQL extraction counts as a
        failed attempt; an empty result set does not. Returns (sql,
        refinement attempts used, executed without error). sql is '' when no
        attempt ever produced extractable SQL.
        """
        prompt = render(self.templates[stage], bindings)
        schema_text = bindings["schema"]
        sql = ""
        for attempt in range(self.max_refinements + 1):
            reply = endpoint.ask(
                prompt, transcript=self.transcript, stage_label=stage, attempt_index=attempt
            )
            try:
                sql = extract_sql(reply)
            except SqlExtractionError as exc:
                error_text = str(exc)
            else:
                outcome = execute_sql(self.db_path, sql, self.timeout_ms)
                if outcome.ok:
                    return sql, attempt, True
                error_text = outcome.error_message
            if attempt == self.max_refinements:
                break
            prompt = render(
                self.templates[STAGE_REFINEMENT],
                {"question": task_text, "schema": schema_text, "sql": sql, "error": error_text},
            )
        return sql, self.max_refinements, False


def select_tables(
    ctx: StageContext,
    question: str,
    schema: DatabaseSchema,
    reasoning_model: ModelEndpoint,
) -> DatabaseSchema:
    """Ask the reasoning model which tables the question needs.

    Falls back to the full schema when the reply names no known table; the
    reduction never invents tables.
    """
    reply = ctx.ask(
        reasoning_model,
        STAGE_TABLE_SELECTION,
        {"question": question, "schema": ctx.schema_text(schema)},
    )
    try:
        return reduce_schema(schema, parse_table_list(reply))
    except SchemaReductionError:
        return schema


def decompose(
    ctx: StageContext,
    question: str,
    reduced_schema: DatabaseSchema,
    reasoning_model: ModelEndpoint,
) -> list[SubQuestion]:
    """Split the question into ordered sub-questions (at least one)."""
    reply = ctx.ask(
        reasoning_model,
        STAGE_DECOMPOSITION,
        {"question": question, "schema": ctx.schema_text(reduced_schema)},
    )
    parsed = parse_subquestions(reply) or [question]
    return [SubQuestion(index=i + 1, text=text) for i, text in enumerate(parsed)]


def _format_prior(prior: list[SubQuery]) -> str:
    if not prior:
        return "(none)"
    return "\n\n".join(f"Sub-query {sq.for_index}:\n{sq.sql}" for sq in prior if sq.sql)


def generate_subquery(
    ctx: StageContext,
    subquestion: SubQuestion,
    reduced_schema: DatabaseSchema,
    coding_model: ModelEndpoint,
    fewshot: list[FewShotExample],
    *,
    prior: list[SubQuery] | None = None,
) -> SubQuery:
    """Generate SQL for one sub-question with the execute-and-refine loop."""
    bindings = {
        "subquestion": subquestion.text,
        "schema": ctx.schema_text(reduced_schema),
        "examples": format_fewshot(fewshot),
        "subqueries": _format_prior(prior or []),
    }
    sql, attempts, valid = ctx.refine(
        coding_model, STAGE_SUBQUERY_GENERATION, bindings, subquestion.text
    )
    return SubQuery(
        for_index=subquestion.index, sql=sql, refinement_attempts=attempts, valid=valid
    )


def merge_last(subqueries: list[SubQuery]) -> str:
    """Merge strategy 1: the last sub-query is the answer."""
    if not subqueries:
        raise ValueError("merge_last requires at least one sub-query")
    return subqueries[-1].sql


def _format_pairs(subquestions: list[SubQuestion], subqueries: list[SubQuery]) -> str:
    return "\n\n".join(
        f"Sub-question {sq.index}: {sq.text}\nSub-query {sq.index}:\n{query.sql}"
        for sq, query in zip(subquestions, subqueries)
    )


def merge_plan_execute(
    ctx: StageContext,
    question: str,
    subquestions: list[SubQuestion],
    subqueries: list[SubQuery],
    models: ModelPair,
    reduced_schema: DatabaseSchema,
) -> tuple[str, str, bool]:
    """Merge strategy 2: a reasoning model plans the merge, a coding model
    emits the final SQL, refined against the database.

    Returns (plan text, final SQL, fell_back). When the executor never
    produces extractable SQL the merge falls back to the last sub-query.
    """
    if not subqueries:
        raise ValueError("merge_plan_execute requires at least one sub-query")
    pairs_text = _format_pairs(subquestions, subqueries)
    plan_text = ctx.ask(
        models.reasoning, STAGE_MERGE_PLANNER, {"question": question, "subqueries": pairs_text}
    )
    bindings = {
        "question": question,
        "schema": ctx.schema_text(reduced_schema),
        "subqueries": pairs_text,
        "plan": plan_text,
    }
    sql, _attempts, _valid = ctx.refine(models.coding, STAGE_MERGE_EXECUTOR, bindings, question)
    if not sql:
        return plan_text, merge_last(subqueries), True
    return plan_text, sql, False


def column_select(
    ctx: StageContext,
    question: str,
    schema_context: DatabaseSchema,
    merged_sql: str,
    reasoning_model: ModelEndpoint,
) -> str:
    """Align the SELECT clause of the merged query with the question.

    The revision goes through the execute-and-refine loop; if every attempt
    fails the merged query is returned unchanged, so column selection never
    makes a runnable query unrunnable.
    """
    if not merged_sql:
        raise ValueError("column_select requires a non-empty merged query")
    bindings = {"question": question, "schema": ctx.schema_text(schema_context), "sql": merged_sql}
    sql, _attempts, valid = ctx.refine(reasoning_model, STAGE_COLUMN_SELECTION, bindings, question)
    if not valid or not sql:
        return merged_sql
    return sql


@contextmanager
def _timed(trace: PipelineTrace, stage: str):
    started = time.monotonic()
    try:
        yield
    finally:
        trace.stage_timings_ms[stage] = int((time.monotonic() - started) * 1000)


@contextmanager
def _arm_run(
    example: BenchmarkExample,
    example_id: str,
    db_path: str | Path,
    max_refinements: int,
    timeout_ms: int,
    templates: dict[str, PromptTemplate] | None,
):
    """Yield one arm's (trace, StageContext) and time the body as "total".

    A provider failure inside the body ends the arm: the trace keeps the
    stages done so far, an error annotation and empty final SQL.
    """
    trace = PipelineTrace(example_id=example_id or example.db_id)
    ctx = StageContext(
        db_path, max_refinements, timeout_ms, templates or default_templates(), trace.transcript
    )
    with _timed(trace, "total"):
        try:
            yield trace, ctx
        except ProviderError as exc:
            trace.error = f"provider error: {exc}"
            trace.final_sql = ""


def run_divide_and_merge(
    example: BenchmarkExample,
    schema: DatabaseSchema,
    config: PipelineConfig,
    models: ModelPair,
    db_path: str | Path,
    *,
    example_id: str = "",
    templates: dict[str, PromptTemplate] | None = None,
    fewshot: list[FewShotExample] | None = None,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> PipelineTrace:
    """Run the full divide-and-merge pipeline for one example.

    Stages run in order: table selection, decomposition, per-sub-question
    generation (optionally fanned out), merge, and column selection when
    enabled. A provider failure yields a trace with empty final SQL and an
    error annotation instead of raising.
    """
    fewshot = list(fewshot) if fewshot is not None else list(_default_fewshot())
    question = example.question
    arm = _arm_run(example, example_id, db_path, config.max_refinements, timeout_ms, templates)
    with arm as (trace, ctx):
        with _timed(trace, STAGE_TABLE_SELECTION):
            reduced = select_tables(ctx, question, schema, models.reasoning)
        trace.reduced_schema = reduced

        with _timed(trace, STAGE_DECOMPOSITION):
            trace.subquestions = decompose(ctx, question, reduced, models.reasoning)

        with _timed(trace, STAGE_SUBQUERY_GENERATION):
            trace.subqueries = _generate_all(
                ctx, trace.subquestions, reduced, models.coding, fewshot, config
            )

        with _timed(trace, "merge"):
            if config.merge_strategy == MERGE_LAST_SUBQUERY:
                trace.merged_sql = merge_last(trace.subqueries)
            else:
                plan, merged, fell_back = merge_plan_execute(
                    ctx, question, trace.subquestions, trace.subqueries, models, reduced
                )
                trace.merge_plan_text = plan
                trace.merged_sql = merged
                trace.merge_fell_back = fell_back

        if config.column_selection_enabled and trace.merged_sql:
            with _timed(trace, STAGE_COLUMN_SELECTION):
                trace.final_sql = column_select(
                    ctx, question, reduced, trace.merged_sql, models.reasoning
                )
        else:
            trace.final_sql = trace.merged_sql
    return trace


def _generate_all(
    ctx: StageContext,
    subquestions: list[SubQuestion],
    reduced: DatabaseSchema,
    coding_model: ModelEndpoint,
    fewshot: list[FewShotExample],
    config: PipelineConfig,
) -> list[SubQuery]:
    if config.parallel_subqueries and len(subquestions) > 1:
        # Fan out with per-task transcripts, reassembled in index order so
        # the trace does not depend on completion order. Prior sub-queries
        # do not exist yet in this mode, so prompts carry none.
        sides = [replace(ctx, transcript=[]) for _ in subquestions]

        def task(i: int) -> SubQuery:
            return generate_subquery(sides[i], subquestions[i], reduced, coding_model, fewshot)

        # Each task runs in a copy of this context, so in the example's execution_memo().
        width = min(config.subquery_fanout_width, len(subquestions))
        with ThreadPoolExecutor(max_workers=width) as pool:
            futures = [pool.submit(contextvars.copy_context().run, task, i)
                       for i in range(len(subquestions))]
            results = [future.result() for future in futures]
        for side in sides:
            ctx.transcript.extend(side.transcript)
        return results

    subqueries: list[SubQuery] = []
    for subquestion in subquestions:
        subqueries.append(
            generate_subquery(ctx, subquestion, reduced, coding_model, fewshot, prior=subqueries)
        )
    return subqueries


def run_baseline(
    example: BenchmarkExample,
    schema: DatabaseSchema,
    coding_model: ModelEndpoint,
    fewshot: list[FewShotExample],
    db_path: str | Path,
    max_refinements: int = 3,
    *,
    example_id: str = "",
    templates: dict[str, PromptTemplate] | None = None,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> PipelineTrace:
    """One-step few-shot generation over the full schema, with the same
    execute-and-refine loop as the pipeline arm."""
    arm = _arm_run(example, example_id, db_path, max_refinements, timeout_ms, templates)
    with arm as (trace, ctx):
        bindings = {
            "question": example.question,
            "schema": ctx.schema_text(schema),
            "examples": format_fewshot(fewshot),
        }
        with _timed(trace, STAGE_BASELINE):
            sql, _attempts, _valid = ctx.refine(
                coding_model, STAGE_BASELINE, bindings, example.question
            )
        trace.merged_sql = sql
        trace.final_sql = sql
    return trace


def trace_to_dict(trace: PipelineTrace) -> dict:
    """The trace's fields, for json.dumps(default=_fields) (documented in the
    README); the reduced schema is given by its source and kept table names."""
    data = dict(_fields(trace))
    if trace.reduced_schema is not None:
        data["reduced_schema"] = {
            "source_db_id": trace.reduced_schema.db_id,
            "kept_table_names": [t.name for t in trace.reduced_schema.tables],
        }
    return data


def canonical_trace_bytes(trace: PipelineTrace) -> bytes:
    """Deterministic serialization used for byte-level trace comparison: stage
    timings and reply latencies, which vary run to run, are left out or zeroed."""
    data = trace_to_dict(trace)
    del data["stage_timings_ms"]
    data["transcript"] = [
        replace(entry, response=replace(entry.response, latency_ms=0))
        for entry in trace.transcript
    ]
    return json.dumps(data, sort_keys=True, indent=2, default=_fields).encode("utf-8")


def write_trace(path: str | Path, trace: PipelineTrace) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Compact, so that json uses its C encoder; canonical_trace_bytes keeps
    # the indented form for byte comparison.
    text = json.dumps(trace_to_dict(trace), sort_keys=True, default=_fields)
    path.write_text(text, encoding="utf-8")
