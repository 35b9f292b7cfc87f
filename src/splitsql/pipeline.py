"""The divide-and-merge pipeline: table selection, question decomposition,
per-sub-question SQL generation with bounded refinement, merging, and column
selection. Also the one-step few-shot baseline parser."""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from .dataset import (
    BenchmarkExample,
    DatabaseSchema,
    SchemaReductionError,
    reduce_schema,
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
    SqlExtractionError,
    extract_sql,
    load_fewshot,
    load_templates,
    parse_subquestions,
    parse_table_list,
    render,
)

MERGE_LAST_SUBQUERY = "last_subquery"
MERGE_PLANNER_EXECUTOR = "planner_executor"
MERGE_STRATEGIES = (MERGE_LAST_SUBQUERY, MERGE_PLANNER_EXECUTOR)

# Hard safety cap on the refinement loop, regardless of configuration.
MAX_REFINEMENT_CAP = 10
# The most sub-questions of one example that a fan-out generates at once.
SUBQUERY_FANOUT_WIDTH = 4


@dataclass
class PipelineConfig:
    merge_strategy: str = MERGE_PLANNER_EXECUTOR
    column_selection_enabled: bool = True
    max_refinements: int = 3
    parallel_subqueries: bool = False

    def __post_init__(self):
        if self.merge_strategy not in MERGE_STRATEGIES:
            raise ValueError(f"unknown merge strategy {self.merge_strategy!r}")
        if not 0 <= self.max_refinements <= MAX_REFINEMENT_CAP:
            raise ValueError(
                f"max_refinements must be in 0..{MAX_REFINEMENT_CAP}"
            )


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


@dataclass(frozen=True)
class ReducedSchema:
    """The database and the tables of it that table selection kept."""

    source_db_id: str
    kept_table_names: tuple[str, ...]


@dataclass
class PipelineTrace:
    """Full record of one question's journey through a pipeline arm."""

    example_id: str
    reduced_schema: ReducedSchema | None = None
    subquestions: list[SubQuestion] = field(default_factory=list)
    subqueries: list[SubQuery] = field(default_factory=list)
    merge_plan_text: str = ""
    merged_sql: str = ""
    final_sql: str = ""
    transcript: list[TranscriptEntry] = field(default_factory=list)
    stage_timings_ms: dict[str, int] = field(default_factory=dict)
    merge_fell_back: bool = False
    error: str = ""


@dataclass
class StageContext:
    """What the stages of one arm's run share: the question, the two models,
    the few-shot text, the database the refine loop executes against, its
    bounds, the prompt templates and the transcript every model call is
    appended to."""

    question: str
    models: ModelPair
    db_path: str | Path
    max_refinements: int
    fewshot: str = ""
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    templates: dict[str, str] = field(default_factory=load_templates)
    transcript: list[TranscriptEntry] = field(default_factory=list)

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


def select_tables(ctx: StageContext, schema: DatabaseSchema) -> DatabaseSchema:
    """Ask the reasoning model which tables the question needs.

    Falls back to the full schema when the reply names no known table; the
    reduction never invents tables.
    """
    bindings = {"question": ctx.question, "schema": schema.prompt_text}
    reply = ctx.ask(ctx.models.reasoning, STAGE_TABLE_SELECTION, bindings)
    try:
        return reduce_schema(schema, parse_table_list(reply))
    except SchemaReductionError:
        return schema


def decompose(ctx: StageContext, reduced_schema: DatabaseSchema) -> list[SubQuestion]:
    """Split the question into ordered sub-questions (at least one)."""
    bindings = {"question": ctx.question, "schema": reduced_schema.prompt_text}
    reply = ctx.ask(ctx.models.reasoning, STAGE_DECOMPOSITION, bindings)
    parsed = parse_subquestions(reply) or [ctx.question]
    return [SubQuestion(index=i + 1, text=text) for i, text in enumerate(parsed)]


def _format_prior(prior: list[SubQuery]) -> str:
    if not prior:
        return "(none)"
    return "\n\n".join(f"Sub-query {sq.for_index}:\n{sq.sql}" for sq in prior if sq.sql)


def generate_subquery(
    ctx: StageContext,
    subquestion: SubQuestion,
    reduced_schema: DatabaseSchema,
    *,
    prior: list[SubQuery] | None = None,
) -> SubQuery:
    """Generate SQL for one sub-question with the execute-and-refine loop."""
    bindings = {
        "subquestion": subquestion.text,
        "schema": reduced_schema.prompt_text,
        "examples": ctx.fewshot,
        "subqueries": _format_prior(prior or []),
    }
    sql, attempts, valid = ctx.refine(
        ctx.models.coding, STAGE_SUBQUERY_GENERATION, bindings, subquestion.text
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
    subquestions: list[SubQuestion],
    subqueries: list[SubQuery],
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
    plan_bindings = {"question": ctx.question, "subqueries": pairs_text}
    plan_text = ctx.ask(ctx.models.reasoning, STAGE_MERGE_PLANNER, plan_bindings)
    bindings = {**plan_bindings, "schema": reduced_schema.prompt_text, "plan": plan_text}
    sql, _attempts, _valid = ctx.refine(
        ctx.models.coding, STAGE_MERGE_EXECUTOR, bindings, ctx.question
    )
    if not sql:
        return plan_text, merge_last(subqueries), True
    return plan_text, sql, False


def column_select(ctx: StageContext, schema_context: DatabaseSchema, merged_sql: str) -> str:
    """Align the SELECT clause of the merged query with the question.

    The revision goes through the execute-and-refine loop; if every attempt
    fails the merged query is returned unchanged, so column selection never
    makes a runnable query unrunnable.
    """
    if not merged_sql:
        raise ValueError("column_select requires a non-empty merged query")
    bindings = {"question": ctx.question, "schema": schema_context.prompt_text, "sql": merged_sql}
    sql, _attempts, valid = ctx.refine(
        ctx.models.reasoning, STAGE_COLUMN_SELECTION, bindings, ctx.question
    )
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


def _arm(stages):
    """Make stages(ctx, trace, schema, config) a pipeline arm, called as
    arm(example, schema, config, models, db_path, *, example_id, templates,
    fewshot, timeout_ms) -> PipelineTrace: the one signature both arms share.

    The arm builds its trace and StageContext (a fewshot of None is the
    shipped pairs' text) and runs the stages timed as "total". A provider failure
    inside them ends the arm: the trace keeps the stages done so far, an
    error annotation and empty final SQL.
    """

    def run(
        example: BenchmarkExample,
        schema: DatabaseSchema,
        config: PipelineConfig,
        models: ModelPair,
        db_path: str | Path,
        *,
        example_id: str = "",
        templates: dict[str, str] | None = None,
        fewshot: str | None = None,
        timeout_ms: int = DEFAULT_TIMEOUT_MS,
    ) -> PipelineTrace:
        trace = PipelineTrace(example_id=example_id or example.db_id)
        fewshot = load_fewshot() if fewshot is None else fewshot
        ctx = StageContext(example.question, models, db_path, config.max_refinements, fewshot,
                           timeout_ms, templates or load_templates(), trace.transcript)
        with _timed(trace, "total"):
            try:
                stages(ctx, trace, schema, config)
            except ProviderError as exc:
                trace.error = f"provider error: {exc}"
                trace.final_sql = ""
        return trace

    run.__name__, run.__qualname__ = stages.__name__, stages.__qualname__
    run.__doc__ = stages.__doc__
    return run


@_arm
def run_divide_and_merge(
    ctx: StageContext, trace: PipelineTrace, schema: DatabaseSchema, config: PipelineConfig
) -> None:
    """Run the full divide-and-merge pipeline for one example.

    Stages run in order: table selection, decomposition, per-sub-question
    generation (optionally fanned out), merge, and column selection when
    enabled. A provider failure yields a trace with empty final SQL and an
    error annotation instead of raising.
    """
    with _timed(trace, STAGE_TABLE_SELECTION):
        reduced = select_tables(ctx, schema)
    trace.reduced_schema = ReducedSchema(reduced.db_id, tuple(t.name for t in reduced.tables))

    with _timed(trace, STAGE_DECOMPOSITION):
        trace.subquestions = decompose(ctx, reduced)

    with _timed(trace, STAGE_SUBQUERY_GENERATION):
        trace.subqueries = _generate_all(ctx, trace.subquestions, reduced, config)

    with _timed(trace, "merge"):
        if config.merge_strategy == MERGE_LAST_SUBQUERY:
            trace.merged_sql = merge_last(trace.subqueries)
        else:
            plan, merged, fell_back = merge_plan_execute(
                ctx, trace.subquestions, trace.subqueries, reduced
            )
            trace.merge_plan_text = plan
            trace.merged_sql = merged
            trace.merge_fell_back = fell_back

    if config.column_selection_enabled and trace.merged_sql:
        with _timed(trace, STAGE_COLUMN_SELECTION):
            trace.final_sql = column_select(ctx, reduced, trace.merged_sql)
    else:
        trace.final_sql = trace.merged_sql


def _map_threads(fn, items, width: int) -> list:
    """[fn(item) for item in items] on at most width threads, the caller one of them and
    each helper in a copy of its context. No item starts after a failure; once all are
    joined the lowest failed index raises, as a plain loop would: every lower one started."""
    results, errors = [None] * len(items), {}
    indices, lock = iter(range(len(items))), threading.Lock()

    def take():
        with lock:  # failures are recorded under it too, so none starts after one
            return None if errors else next(indices, None)

    def work():
        for i in iter(take, None):
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(min(width, len(items)) - 1)]
    for helper in helpers:
        helper.start()
    work()  # it raises nothing: a failure of fn is recorded
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def _generate_all(
    ctx: StageContext,
    subquestions: list[SubQuestion],
    reduced: DatabaseSchema,
    config: PipelineConfig,
) -> list[SubQuery]:
    if config.parallel_subqueries and len(subquestions) > 1:
        # Fan out with per-task transcripts, reassembled in index order so the trace does
        # not depend on completion order. Prior sub-queries do not exist yet, so prompts carry none.
        sides = [replace(ctx, transcript=[]) for _ in subquestions]
        results = _map_threads(lambda i: generate_subquery(sides[i], subquestions[i], reduced),
                               range(len(subquestions)), SUBQUERY_FANOUT_WIDTH)
        ctx.transcript.extend(entry for side in sides for entry in side.transcript)
        return results

    subqueries: list[SubQuery] = []
    for subquestion in subquestions:
        subqueries.append(generate_subquery(ctx, subquestion, reduced, prior=subqueries))
    return subqueries


@_arm
def run_baseline(
    ctx: StageContext, trace: PipelineTrace, schema: DatabaseSchema, config: PipelineConfig
) -> None:
    """One-step few-shot generation by the coding model over the full
    schema, with the same execute-and-refine loop as the pipeline arm."""
    bindings = {"question": ctx.question, "schema": schema.prompt_text, "examples": ctx.fewshot}
    with _timed(trace, STAGE_BASELINE):
        sql, _attempts, _valid = ctx.refine(
            ctx.models.coding, STAGE_BASELINE, bindings, ctx.question
        )
    trace.merged_sql = sql
    trace.final_sql = sql


def canonical_trace_bytes(trace: PipelineTrace) -> bytes:
    """Deterministic serialization used for byte-level trace comparison: stage
    timings and reply latencies, which vary run to run, are left out or zeroed."""
    data = dict(_fields(trace))
    del data["stage_timings_ms"]
    data["transcript"] = [
        replace(entry, response=replace(entry.response, latency_ms=0))
        for entry in trace.transcript
    ]
    return json.dumps(data, sort_keys=True, indent=2, default=_fields).encode("utf-8")


def write_trace(path: str | Path, trace: PipelineTrace) -> None:
    # No Path is built: pathlib interns every part of every path it parses.
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    # Compact, so that json uses its C encoder; canonical_trace_bytes keeps
    # the indented form for byte comparison.
    text = json.dumps(trace, sort_keys=True, default=_fields)
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)
