"""Spider-format corpus loading, schema modelling, and schema-level features."""

from __future__ import annotations

import json
import re
from dataclasses import astuple, dataclass, fields
from pathlib import Path

COLUMN_TYPES = ("text", "number", "time", "boolean", "others")

# Fixed keyword lists for question features. Matched case-insensitively on
# word boundaries; "number of" is matched as a phrase.
AGGREGATION_KEYWORDS = ("average", "count", "sum", "total", "number of")
SUPERLATIVE_KEYWORDS = ("most", "least", "highest", "lowest", "maximum", "minimum")


class CorpusParseError(ValueError):
    """A corpus file could not be parsed into records."""


class SchemaIntegrityError(ValueError):
    """A schema record references table/column indices that do not exist."""


class SchemaReductionError(ValueError):
    """A table-selection list matched no table in the schema."""


@dataclass(frozen=True)
class ColumnDef:
    name: str
    declared_type: str
    table_index: int


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key_columns: tuple[int, ...] = ()


@dataclass(frozen=True)
class DatabaseSchema:
    """A database schema: ordered tables plus foreign-key links.

    Foreign keys are (from_table, from_column, to_table, to_column) tuples of
    table indices and table-local column indices.
    """

    db_id: str
    tables: tuple[TableDef, ...]
    foreign_keys: tuple[tuple[int, int, int, int], ...] = ()
    db_file_path: str = ""

    @property
    def table_count(self) -> int:
        return len(self.tables)

    @property
    def column_count(self) -> int:
        return sum(len(t.columns) for t in self.tables)


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


def _read_json_array(path: Path) -> list:
    text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusParseError(
            f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    if not isinstance(data, list):
        raise CorpusParseError(f"{path}: expected a top-level JSON array")
    return data


def load_schemas(path: str | Path) -> dict[str, DatabaseSchema]:
    """Load a Spider-layout ``tables.json`` into DatabaseSchema values.

    The synthetic leading ``[-1, "*"]`` column is dropped and all column
    references are re-based to (table index, table-local column index).
    Database file paths are derived as ``<dir>/database/<db_id>/<db_id>.sqlite``
    relative to the tables file.
    """
    path = Path(path)
    records = _read_json_array(path)
    database_dir = path.parent / "database"

    schemas: dict[str, DatabaseSchema] = {}
    for record in records:
        db_id = record.get("db_id") if isinstance(record, dict) else None
        if not db_id:
            raise CorpusParseError(f"{path}: schema record without db_id")
        try:
            schema = _schema_from_record(record, database_dir)
        except (KeyError, TypeError, IndexError) as exc:
            raise CorpusParseError(f"{path}: malformed schema record {db_id!r}: {exc}") from exc
        schemas[db_id] = schema
    return schemas


def _schema_from_record(record: dict, database_dir: Path) -> DatabaseSchema:
    db_id = record["db_id"]
    table_names = record["table_names_original"]
    if not table_names:
        raise SchemaIntegrityError(f"{db_id}: schema has no tables")
    raw_columns = record["column_names_original"]
    column_types = record.get("column_types", [])

    # Map global column ids to (table index, table-local column index); the
    # "*" pseudo-columns (table index -1) stay unmapped.
    per_table: list[list[ColumnDef]] = [[] for _ in table_names]
    global_to_local: dict[int, tuple[int, int]] = {}
    for col_id, (table_idx, col_name) in enumerate(raw_columns):
        if table_idx == -1:
            continue
        if not 0 <= table_idx < len(table_names):
            raise SchemaIntegrityError(
                f"{db_id}: column {col_name!r} references table index {table_idx}"
            )
        declared = column_types[col_id] if col_id < len(column_types) else "text"
        if declared not in COLUMN_TYPES:
            declared = "others"
        local_idx = len(per_table[table_idx])
        per_table[table_idx].append(ColumnDef(col_name, declared, table_idx))
        global_to_local[col_id] = (table_idx, local_idx)

    def resolve(col_id: int, what: str) -> tuple[int, int]:
        if col_id not in global_to_local:
            raise SchemaIntegrityError(f"{db_id}: {what} references column index {col_id}")
        return global_to_local[col_id]

    pk_by_table: dict[int, list[int]] = {}
    for entry in record.get("primary_keys", []):
        ids = entry if isinstance(entry, list) else [entry]
        for col_id in ids:
            table_idx, local_idx = resolve(col_id, "primary key")
            pk_by_table.setdefault(table_idx, []).append(local_idx)

    tables = tuple(
        TableDef(
            name=table_names[i],
            columns=tuple(per_table[i]),
            primary_key_columns=tuple(pk_by_table.get(i, [])),
        )
        for i in range(len(table_names))
    )

    seen = set()
    for table in tables:
        key = table.name.lower()
        if key in seen:
            raise SchemaIntegrityError(f"{db_id}: duplicate table name {table.name!r}")
        seen.add(key)

    foreign_keys = []
    for pair in record.get("foreign_keys", []):
        from_id, to_id = pair
        from_t, from_c = resolve(from_id, "foreign key")
        to_t, to_c = resolve(to_id, "foreign key")
        foreign_keys.append((from_t, from_c, to_t, to_c))

    return DatabaseSchema(
        db_id=db_id,
        tables=tables,
        foreign_keys=tuple(foreign_keys),
        db_file_path=str(database_dir / db_id / f"{db_id}.sqlite"),
    )


def load_examples(path: str | Path) -> list[BenchmarkExample]:
    """Load a Spider-layout ``dev.json``/``test.json`` example file."""
    path = Path(path)
    records = _read_json_array(path)
    examples = []
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise CorpusParseError(f"{path}: record {index} is not an object")
        for field_name in ("question", "query", "db_id"):
            if field_name not in record:
                raise CorpusParseError(f"{path}: record {index} is missing {field_name!r}")
            if not record[field_name]:
                raise CorpusParseError(f"{path}: record {index} has empty {field_name!r}")
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
    keeping the source order, db_id and database file.

    Names that match no table are dropped silently; the reduction never
    invents tables. An empty intersection raises SchemaReductionError.
    """
    wanted = {name.strip().lower() for name in keep if name.strip()}
    kept_indices = [i for i, t in enumerate(schema.tables) if t.name.lower() in wanted]
    if not kept_indices:
        raise SchemaReductionError(
            f"{schema.db_id}: none of {sorted(wanted)!r} match a schema table"
        )

    old_to_new = {old: new for new, old in enumerate(kept_indices)}
    tables = tuple(
        TableDef(
            name=schema.tables[old].name,
            columns=tuple(
                ColumnDef(c.name, c.declared_type, old_to_new[old])
                for c in schema.tables[old].columns
            ),
            primary_key_columns=schema.tables[old].primary_key_columns,
        )
        for old in kept_indices
    )
    foreign_keys = tuple(
        (old_to_new[ft], fc, old_to_new[tt], tc)
        for ft, fc, tt, tc in schema.foreign_keys
        if ft in old_to_new and tt in old_to_new
    )
    return DatabaseSchema(
        db_id=schema.db_id,
        tables=tables,
        foreign_keys=foreign_keys,
        db_file_path=schema.db_file_path,
    )


def serialize_schema(schema: DatabaseSchema) -> str:
    """Render a schema as deterministic prompt text.

    One ``Table (col1, col2, ...)`` line per table, followed by a
    ``Foreign keys:`` block when the schema has any.
    """
    lines = [
        f"{table.name} ({', '.join(c.name for c in table.columns)})"
        for table in schema.tables
    ]
    if schema.foreign_keys:
        lines.append("Foreign keys:")
        for ft, fc, tt, tc in schema.foreign_keys:
            from_table = schema.tables[ft]
            to_table = schema.tables[tt]
            lines.append(
                f"{from_table.name}.{from_table.columns[fc].name}"
                f" = {to_table.name}.{to_table.columns[tc].name}"
            )
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
