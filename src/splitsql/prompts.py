"""Prompt templates for every pipeline stage plus parsing of model replies."""

from __future__ import annotations

import re
from pathlib import Path

from .dataset import InputFileError, read_json, read_text
from .executor import _TOKEN_RE

PLACEHOLDER_NAMES = (
    "question",
    "schema",
    "subquestion",
    "subqueries",
    "sql",
    "error",
    "examples",
    "plan",
)

STAGE_TABLE_SELECTION = "table_selection"
STAGE_DECOMPOSITION = "decomposition"
STAGE_SUBQUERY_GENERATION = "subquery_generation"
STAGE_REFINEMENT = "refinement"
STAGE_MERGE_PLANNER = "merge_planner"
STAGE_MERGE_EXECUTOR = "merge_executor"
STAGE_COLUMN_SELECTION = "column_selection"
STAGE_BASELINE = "baseline"
STAGE_JUDGE = "judge"

# Placeholders each stage's template must hold; load_templates checks every file.
REQUIRED_PLACEHOLDERS = {
    STAGE_TABLE_SELECTION: frozenset({"question", "schema"}),
    STAGE_DECOMPOSITION: frozenset({"question", "schema"}),
    STAGE_SUBQUERY_GENERATION: frozenset({"subquestion", "schema"}),
    STAGE_REFINEMENT: frozenset({"sql", "error"}),
    STAGE_MERGE_PLANNER: frozenset({"question", "subqueries"}),
    STAGE_MERGE_EXECUTOR: frozenset({"question", "schema", "subqueries", "plan"}),
    STAGE_COLUMN_SELECTION: frozenset({"question", "schema", "sql"}),
    STAGE_BASELINE: frozenset({"question", "schema"}),
    STAGE_JUDGE: frozenset({"question", "schema"}),
}

_PLACEHOLDER_RE = re.compile(r"\{(" + "|".join(PLACEHOLDER_NAMES) + r")\}")


class SqlExtractionError(ValueError):
    """The model reply contains nothing recognizable as SQL."""


def render(template: str, bindings: dict[str, str]) -> str:
    """Pure textual substitution; unbound placeholders become ''."""
    return _PLACEHOLDER_RE.sub(lambda m: bindings.get(m.group(1), ""), template)


_NUMBERED_RE = re.compile(
    r"^\s*(?:(?:sub[- ]?question|sub[- ]?task|step|task)\s*)?\d+\s*[.):\-]\s*(.*\S)?\s*$",
    re.IGNORECASE,
)
_BULLET_RE = re.compile(r"^\s*[-*•]\s+(.*\S)\s*$")


def parse_subquestions(text: str) -> list[str]:
    """Extract an ordered sub-question list from a model reply.

    Recognizes numbered items (``1.``, ``2)``, ``Sub-question 3:``) and
    dash/star bullets. When no list pattern matches, the whole trimmed text
    is a single sub-question.
    """
    items = []
    for line in text.splitlines():
        match = _NUMBERED_RE.match(line) or _BULLET_RE.match(line)
        if match and match.group(1):
            items.append(match.group(1).strip())
    if items:
        return items
    whole = text.strip()
    return [whole] if whole else []


def parse_table_list(text: str) -> list[str]:
    """Extract table names from a reply expected to be a comma-separated list."""
    names = []
    for chunk in re.split(r"[,\n;]+", text):
        name = chunk.strip().strip("`'\"*").rstrip(".").strip()
        name = re.sub(r"^(?:\d+[.)]|-)\s*", "", name)
        if name:
            names.append(name)
    return names


_FENCE_RE = re.compile(r"```(?:[a-zA-Z0-9_+-]+[ \t]*\r?\n)?(.*?)```", re.DOTALL)
_SQL_START_RE = re.compile(r"\b(select|with)\b", re.IGNORECASE)


def extract_sql(text: str) -> str:
    """Isolate executable SQL from a model reply.

    The first fenced code block wins (language tag ignored); otherwise the
    text from the first SELECT/WITH onward, truncated after the statement's
    terminating semicolon when one appears outside string literals, quoted
    identifiers and comments.
    """
    fence = _FENCE_RE.search(text)
    if fence:
        content = fence.group(1).strip()
        if content:
            return content
    match = _SQL_START_RE.search(text)
    if not match:
        raise SqlExtractionError("no SQL found in model output")
    sql = text[match.start() :]
    for token in _TOKEN_RE.finditer(sql):
        if token.lastgroup == "code" and token.group() == ";":
            return sql[: token.end()].strip()
    return sql.strip()


def builtin_template_dir() -> Path:
    return Path(__file__).parent / "templates"


def load_templates(directory: str | Path | None = None) -> dict[str, str]:
    """Load all stage templates from a directory (defaults to the shipped set). A file
    that is missing or lacks a placeholder its stage binds raises InputFileError naming it."""
    directory = Path(directory) if directory else builtin_template_dir()
    templates = {}
    for stage, required in REQUIRED_PLACEHOLDERS.items():
        path = directory / f"{stage}.txt"
        templates[stage] = read_text(path, "prompt template")
        missing = required - set(_PLACEHOLDER_RE.findall(templates[stage]))
        if missing:
            raise InputFileError(
                f"{path}: template lacks required placeholder(s) {sorted(missing)}")
    return templates


def load_fewshot(path: str | Path | None = None) -> str:
    """The {examples} text of a few-shot file: a JSON array of objects with
    non-empty string question and sql. Anything else raises InputFileError naming it."""
    path = path or builtin_template_dir() / "fewshot.json"
    rows = read_json(path, "few-shot file")
    for i, row in enumerate(rows):
        if not (isinstance(row, dict) and all(
                isinstance(row.get(key), str) and row[key] for key in ("question", "sql"))):
            raise InputFileError(f"{path}: pair {i} needs non-empty string question and sql")
    return "\n\n".join(f"Question: {row['question']}\nSQL: {row['sql']}" for row in rows)
