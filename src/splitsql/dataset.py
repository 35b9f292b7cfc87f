"""Spider-format corpus loading, schema modelling, and schema-level features."""

from __future__ import annotations

import json
import re
from dataclasses import astuple, dataclass, fields, replace
from functools import cached_property
from pathlib import Path

# Fixed keyword lists for question features. Matched case-insensitively on
# word boundaries; "number of" is matched as a phrase.
AGGREGATION_KEYWORDS = ("average", "count", "sum", "total", "number of")
SUPERLATIVE_KEYWORDS = ("most", "least", "highest", "lowest", "maximum", "minimum")


class InputFileError(ValueError):
    """A file a run or report reads (config, tables, examples, prompts, few-shot pairs,
    router model or records) that is not given, cannot be read, or holds what it must not."""


class SchemaReductionError(ValueError):
    """A table-selection list matched no table in the schema."""


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[str, ...]  # the column names, in the source order


@dataclass(frozen=True)
class DatabaseSchema:
    """A database schema: ordered tables plus foreign-key links.

    Foreign keys are (table, column, referenced table, referenced column) tuples of
    names, spelt as the tables and their columns spell them.
    """

    db_id: str
    tables: tuple[TableDef, ...]
    foreign_keys: tuple[tuple[str, str, str, str], ...] = ()
    db_file_path: str = ""

    @property
    def table_count(self) -> int:
        return len(self.tables)

    @property
    def column_count(self) -> int:
        return sum(len(t.columns) for t in self.tables)

    @cached_property
    def prompt_text(self) -> str:
        """serialize_schema(self), rendered once per schema object and kept in
        its vars(): write no schema to JSON through them."""
        return serialize_schema(self)


@dataclass(frozen=True)
class BenchmarkExample:
    question: str
    gold_sql: str
    db_id: str


@dataclass(frozen=True)
class FeatureVector:
    table_count: int
    column_count: int
    foreign_key_count: int
    question_token_count: int
    question_has_aggregation_keyword: int
    question_has_superlative_keyword: int

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(map(float, astuple(self)))


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))


def read_text(path: str | Path, what: str, form: str = "UTF-8 text") -> str:
    """The text of a UTF-8 file; `what` names the kind of file in errors. InputFileError names
    the file when it cannot be read, or when it is not UTF-8 and so not the form it must be."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except OSError as exc:
        raise InputFileError(f"{path}: cannot read {what}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{path}: {what} is not {form}: {exc}") from exc


def read_json(path: str | Path, what: str, kind: type = list):
    """The value of a JSON file, which must be a list (or a dict, for kind=dict).
    InputFileError names the file when it cannot be read, is not JSON, or holds another value."""
    try:
        data = json.loads(read_text(path, what, "JSON"))
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path}: {what} is not JSON: {exc}") from exc
    if not isinstance(data, kind):
        article = "an" if what[0] in "aeiou" else "a"
        shape = "array" if kind is list else "object"
        raise InputFileError(f"{path}: {article} {what} must hold a JSON {shape}")
    return data


def load_schemas(path: str | Path) -> dict[str, DatabaseSchema]:
    """Load a Spider-layout ``tables.json`` into DatabaseSchema values.

    The synthetic leading ``[-1, "*"]`` column is dropped and each foreign key
    becomes the names it links. Database file paths are derived as
    ``<dir>/database/<db_id>/<db_id>.sqlite`` relative to the tables file. A record
    that cannot serve, or a second record with one db_id, raises InputFileError.
    """
    path = Path(path)
    records = read_json(path, "tables file")
    database_dir = path.parent / "database"

    schemas: dict[str, DatabaseSchema] = {}
    for record in records:
        db_id = record.get("db_id") if isinstance(record, dict) else None
        if not db_id:
            raise InputFileError(f"{path}: schema record without db_id")
        try:
            schema = _schema_from_record(record, database_dir)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFileError(f"{path}: malformed schema record {db_id!r}: {exc}") from exc
        if db_id in schemas:
            raise InputFileError(f"{path}: two schema records with db_id {db_id!r}")
        schemas[db_id] = schema
    return schemas


def _schema_from_record(record: dict, database_dir: Path) -> DatabaseSchema:
    """A record's schema. A record of the wrong shape raises KeyError or TypeError, one that
    cannot serve ValueError; load_schemas reports each as InputFileError naming the file."""
    db_id = record["db_id"]
    table_names = record["table_names_original"]
    if not isinstance(table_names, list) or not all(isinstance(n, str) for n in table_names):
        raise TypeError(f"table_names_original is not a list of names: {table_names!r}")
    if not table_names:
        raise ValueError("schema has no tables")

    # Map global column ids to (table name, column name); the "*" pseudo-columns
    # (table index -1) stay unmapped.
    per_table: list[list[str]] = [[] for _ in table_names]
    named: dict[int, tuple[str, str]] = {}
    for col_id, entry in enumerate(record["column_names_original"]):
        if not (isinstance(entry, list) and len(entry) == 2 and type(entry[0]) is int
                and isinstance(entry[1], str)):
            raise TypeError(f"column entry {entry!r} is not a [table index, name] pair")
        table_idx, col_name = entry
        if table_idx == -1:
            continue
        if not 0 <= table_idx < len(table_names):
            raise ValueError(f"column {col_name!r} references table index {table_idx}")
        named[col_id] = (table_names[table_idx], col_name)
        per_table[table_idx].append(col_name)

    seen = set()
    for name in table_names:
        if name.lower() in seen:
            raise ValueError(f"duplicate table name {name!r}")
        seen.add(name.lower())

    foreign_keys = []
    for pair in record.get("foreign_keys", []):
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(c) is int for c in pair)):
            raise TypeError(f"foreign key {pair!r} is not a [column id, column id] pair")
        for col_id in pair:
            if col_id not in named:
                raise ValueError(f"foreign key references column index {col_id}")
        foreign_keys.append(named[pair[0]] + named[pair[1]])

    return DatabaseSchema(
        db_id=db_id,
        tables=tuple(TableDef(name, tuple(cols)) for name, cols in zip(table_names, per_table)),
        foreign_keys=tuple(foreign_keys),
        db_file_path=str(database_dir / db_id / f"{db_id}.sqlite"),
    )


def load_examples(path: str | Path) -> list[BenchmarkExample]:
    """Load a Spider-layout ``dev.json``/``test.json`` file of one or more examples."""
    records = read_json(path, "examples file")
    if not records:
        raise InputFileError(f"{path}: an examples file holds no examples")
    examples = []
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise InputFileError(f"{path}: record {index} is not an object")
        for field_name in ("question", "query", "db_id"):
            if field_name not in record:
                raise InputFileError(f"{path}: record {index} is missing {field_name!r}")
            if not isinstance(record[field_name], str):
                raise InputFileError(f"{path}: record {index} has non-string {field_name!r}")
            if not record[field_name]:
                raise InputFileError(f"{path}: record {index} has empty {field_name!r}")
        examples.append(
            BenchmarkExample(
                question=record["question"],
                gold_sql=record["query"],
                db_id=record["db_id"],
            )
        )
    return examples


def reduce_schema(schema: DatabaseSchema, keep: list[str]) -> DatabaseSchema:
    """Restrict a schema to the named tables (case-insensitive match),
    keeping the source order, db_id and database file, and the foreign keys
    whose two tables are kept.

    Names that match no table are dropped silently; the reduction never
    invents tables. An empty intersection raises SchemaReductionError.
    """
    wanted = {name.strip().lower() for name in keep if name.strip()}
    tables = tuple(t for t in schema.tables if t.name.lower() in wanted)
    if not tables:
        raise SchemaReductionError(
            f"{schema.db_id}: none of {sorted(wanted)!r} match a schema table"
        )
    kept = {t.name for t in tables}
    foreign_keys = tuple(fk for fk in schema.foreign_keys if fk[0] in kept and fk[2] in kept)
    return replace(schema, tables=tables, foreign_keys=foreign_keys)


def serialize_schema(schema: DatabaseSchema) -> str:
    """Render a schema as deterministic prompt text.

    One ``Table (col1, col2, ...)`` line per table, followed by a
    ``Foreign keys:`` block when the schema has any.
    """
    lines = [
        f"{table.name} ({', '.join(table.columns)})"
        for table in schema.tables
    ]
    if schema.foreign_keys:
        lines.append("Foreign keys:")
        lines += [f"{ft}.{fc} = {tt}.{tc}" for ft, fc, tt, tc in schema.foreign_keys]
    return "\n".join(lines)


def _has_keyword(question_lower: str, keywords: tuple[str, ...]) -> bool:
    return any(
        re.search(rf"\b{re.escape(keyword)}\b", question_lower) for keyword in keywords
    )


def extract_features(question: str, schema: DatabaseSchema) -> FeatureVector:
    """Schema- and question-level features for routing."""
    question_lower = question.lower()
    return FeatureVector(
        table_count=schema.table_count,
        column_count=schema.column_count,
        foreign_key_count=len(schema.foreign_keys),
        question_token_count=len(question.split()),
        question_has_aggregation_keyword=int(
            _has_keyword(question_lower, AGGREGATION_KEYWORDS)
        ),
        question_has_superlative_keyword=int(
            _has_keyword(question_lower, SUPERLATIVE_KEYWORDS)
        ),
    )
