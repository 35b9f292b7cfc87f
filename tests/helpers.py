"""Shared test helpers: scripted endpoints, canned pipeline scenarios, and
the hand-written serializers that JSON output is checked against."""

from __future__ import annotations

import json

from splitsql.llm import (
    CompletionRequest,
    ModelEndpoint,
    ModelPair,
    TranscriptEntry,
    scripted_provider,
)


def scripted_endpoint(script: list[tuple[str, str]], model_id: str = "scripted-model") -> ModelEndpoint:
    return ModelEndpoint(provider=scripted_provider(script), model_id=model_id)


def scripted_pair(script: list[tuple[str, str]], model_id: str = "scripted-model") -> ModelPair:
    """One shared single-use script backing both model roles, so a whole
    multi-stage scenario reads as a single ordered list."""
    endpoint = scripted_endpoint(script, model_id)
    return ModelPair(reasoning=endpoint, coding=endpoint)


AVG_ORDERED_SQL = (
    "SELECT AVG(p.product_price) FROM Order_Items oi "
    "JOIN Products p ON oi.product_id = p.product_id"
)

# Divide-and-merge scenario for the "average price of ordered products"
# question over the customer_orders database: table selection, a 4-way
# decomposition, one generation per sub-question, planner + executor, and a
# column-selection echo. Matchers key on stage-specific template phrases and
# on each sub-question's text.
def avg_ordered_products_script() -> list[tuple[str, str]]:
    return [
        ("comma-separated list of the table names", "Order_Items, Products, Orders"),
        (
            "numbered list of sub-questions",
            "1. Find the price of each product.\n"
            "2. Join the Orders and Order_Items tables to associate orders with their items.\n"
            "3. Join the result with the Products table to get the prices of the ordered products.\n"
            "4. Calculate the average price of the ordered products.",
        ),
        (
            "Find the price of each product",
            "SELECT product_id, product_price FROM Products",
        ),
        (
            "Join the Orders and Order_Items tables",
            "SELECT o.order_id, oi.order_item_id, oi.product_id FROM Orders o "
            "JOIN Order_Items oi ON o.order_id = oi.order_id",
        ),
        (
            "prices of the ordered products",
            "SELECT oi.order_item_id, p.product_price FROM Order_Items oi "
            "JOIN Products p ON oi.product_id = p.product_id",
        ),
        ("Calculate the average price", AVG_ORDERED_SQL),
        (
            "Work out how the sub-queries",
            "Use the last sub-query unchanged; it already computes the average over ordered products.",
        ),
        ("Combine the sub-queries below", f"```sql\n{AVG_ORDERED_SQL}\n```"),
        ("returns exactly the columns", AVG_ORDERED_SQL),
    ]


def baseline_wrong_avg_script() -> list[tuple[str, str]]:
    # The one-step parser averages every product, ignoring orders.
    return [("in one step", "SELECT AVG(product_price) FROM Products")]


def gold_answer_script(example, schema) -> list[tuple[str, str]]:
    """Every stage of both arms for one example, answering with its gold SQL.

    The baseline's first reply fails and is refined; the pipeline splits the
    question into two sub-questions, so parallel_subqueries fans out.
    """
    question, gold = example.question, example.gold_sql
    return [
        ("in one step", "SELECT nope FROM nowhere"),
        ("failed when executed", gold),
        ("table names", ", ".join(table.name for table in schema.tables)),
        ("numbered list of sub-questions", f"1. {question}\n2. Again: {question}"),
        ("answers the sub-question below", gold),
        ("answers the sub-question below", gold),
        ("Work out how the sub-queries", "Keep the last sub-query."),
        ("Combine the sub-queries below", f"```sql\n{gold}\n```"),
        ("returns exactly the columns", gold),
    ]


# The JSON forms of requests, transcript entries and traces as hand-written
# serializers gave them before each was written from its dataclass fields.


def _reference_request_to_dict(request: CompletionRequest) -> dict:
    return {
        "model_id": request.model_id,
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "stop_sequences": list(request.stop_sequences),
    }


def _reference_transcript_entry_to_dict(entry: TranscriptEntry) -> dict:
    return {
        "stage_label": entry.stage_label,
        "attempt_index": entry.attempt_index,
        "request": _reference_request_to_dict(entry.request),
        "response": dict(vars(entry.response)),
    }


def _reference_trace_to_dict(trace, include_timings: bool = True) -> dict:
    reduced = None
    if trace.reduced_schema is not None:
        reduced = {
            "source_db_id": trace.reduced_schema.db_id,
            "kept_table_names": [t.name for t in trace.reduced_schema.tables],
        }
    data = {
        "example_id": trace.example_id,
        "reduced_schema": reduced,
        "subquestions": [{"index": sq.index, "text": sq.text} for sq in trace.subquestions],
        "subqueries": [
            {
                "for_index": sq.for_index,
                "sql": sq.sql,
                "refinement_attempts": sq.refinement_attempts,
                "valid": sq.valid,
            }
            for sq in trace.subqueries
        ],
        "merge_plan_text": trace.merge_plan_text,
        "merged_sql": trace.merged_sql,
        "final_sql": trace.final_sql,
        "merge_fell_back": trace.merge_fell_back,
        "error": trace.error,
        "transcript": [_reference_transcript_entry_to_dict(e) for e in trace.transcript],
    }
    if include_timings:
        data["stage_timings_ms"] = dict(trace.stage_timings_ms)
    else:
        for entry in data["transcript"]:
            entry["response"]["latency_ms"] = 0
    return data


def _reference_trace_file_bytes(trace) -> bytes:
    return json.dumps(_reference_trace_to_dict(trace), sort_keys=True).encode("utf-8")


def _reference_canonical_trace_bytes(trace) -> bytes:
    data = _reference_trace_to_dict(trace, include_timings=False)
    return json.dumps(data, sort_keys=True, indent=2).encode("utf-8")
