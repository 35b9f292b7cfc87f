from __future__ import annotations

import json
import re
import sqlite3
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from splitsql.dataset import (
    InputFileError,
    DatabaseSchema,
    SchemaReductionError,
    TableDef,
    _schema_from_record,
    extract_features,
    load_examples,
    load_schemas,
    reduce_schema,
    serialize_schema,
)


def test_loaded_corpus_counts(schemas):
    expected = {
        "customer_orders": (8, 40, 8),
        "city_channels": (5, 24, 4),
        "client_agencies": (7, 27, 7),
        "region_buildings": (2, 11, 1),
        "measurement_lab": (2, 6, 1),
    }
    assert set(schemas) == set(expected)
    for db_id, (tables, columns, fks) in expected.items():
        schema = schemas[db_id]
        assert schema.table_count == tables
        assert schema.column_count == columns
        assert len(schema.foreign_keys) == fks


def test_star_pseudo_column_dropped(schemas):
    for schema in schemas.values():
        for table in schema.tables:
            assert "*" not in table.columns


def test_foreign_key_endpoints_valid(schemas):
    for schema in schemas.values():
        columns = {table.name: table.columns for table in schema.tables}
        for ft, fc, tt, tc in schema.foreign_keys:
            assert fc in columns[ft]
            assert tc in columns[tt]


def test_reload_yields_identical_value(corpus_root):
    first = load_schemas(corpus_root / "tables.json")
    second = load_schemas(corpus_root / "tables.json")
    assert first == second


def test_two_table_record_maps_directly(tmp_path):
    record = {
        "db_id": "toy",
        "table_names_original": ["region", "building"],
        "column_names_original": [[-1, "*"], [0, "id"], [1, "id"], [1, "region_id"]],
        "column_types": ["text", "number", "number", "number"],
        "primary_keys": [1, 2],
        "foreign_keys": [[3, 1]],
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([record]))
    schema = load_schemas(path)["toy"]
    assert schema.table_count == 2
    assert [t.name for t in schema.tables] == ["region", "building"]
    assert schema.foreign_keys == (("building", "region_id", "region", "id"),)
    assert [t.columns for t in schema.tables] == [("id",), ("id", "region_id")]


def test_dangling_foreign_key_is_integrity_error(tmp_path):
    record = {
        "db_id": "broken",
        "table_names_original": ["t"],
        "column_names_original": [[-1, "*"], [0, "a"]],
        "column_types": ["text", "number"],
        "primary_keys": [],
        "foreign_keys": [[1, 99]],
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([record]))
    with pytest.raises(InputFileError, match=r"tables\.json: malformed schema record 'broken':"
                       " foreign key references column index 99"):
        load_schemas(path)


@pytest.mark.parametrize(
    "change",
    [
        {"foreign_keys": [[1, 2, 2]]},
        {"column_names_original": [[-1, "*"], [0, "a", "x"], [0, "b"]]},
        {"column_names_original": [[-1, "*"], [0, 5], [0, "b"]]},
        {"table_names_original": "abc"},
    ],
    ids=["foreign-key-triple", "column-triple", "column-name-number", "table-names-string"],
)
def test_a_malformed_schema_record_is_a_parse_error_naming_file_and_db_id(tmp_path, change):
    record = {
        "db_id": "bad",
        "table_names_original": ["t"],
        "column_names_original": [[-1, "*"], [0, "a"], [0, "b"]],
        "foreign_keys": [],
        **change,
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([record]))
    with pytest.raises(InputFileError, match=r"tables\.json: malformed schema record 'bad'"):
        load_schemas(path)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"db_id": ""}, "schema record without db_id"),
        ({"table_names_original": []}, "malformed schema record 'bad': schema has no tables"),
        ({"column_names_original": [[-1, "*"], [0, "a"], [3, "b"]]},
         "malformed schema record 'bad': column 'b' references table index 3"),
        ({"table_names_original": ["t", "T"]},
         "malformed schema record 'bad': duplicate table name 'T'"),
    ],
    ids=["no-db-id", "no-tables", "table-index-out-of-range", "duplicate-table"],
)
def test_a_schema_record_that_cannot_serve_is_an_input_file_error(tmp_path, change, message):
    record = {
        "db_id": "bad",
        "table_names_original": ["t"],
        "column_names_original": [[-1, "*"], [0, "a"], [0, "b"]],
        "foreign_keys": [],
        **change,
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([record]))
    with pytest.raises(InputFileError, match=rf"^{re.escape(str(path))}: {message}$"):
        load_schemas(path)


def test_two_schema_records_with_one_db_id_are_a_parse_error(tmp_path):
    def record(table):
        return {"db_id": "twice", "table_names_original": [table],
                "column_names_original": [[-1, "*"], [0, "a"]], "foreign_keys": []}

    path = tmp_path / "tables.json"
    path.write_text(json.dumps([record("first"), record("second")]))
    with pytest.raises(InputFileError, match=r"tables\.json: two schema records with db_id 'twice'"):
        load_schemas(path)


def test_malformed_json_reports_byte_offset(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text('[{"db_id": }]')
    with pytest.raises(InputFileError, match=r"tables\.json: tables file is not JSON: .*\(char 11\)"):
        load_schemas(path)


def test_load_examples_basic(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": "q", "query": "SELECT 1", "db_id": "d"}]))
    examples = load_examples(path)
    assert len(examples) == 1
    assert examples[0].question == "q"
    assert examples[0].gold_sql == "SELECT 1"
    assert examples[0].db_id == "d"


def test_load_examples_empty_array(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text("[]")
    with pytest.raises(InputFileError, match=r"dev\.json: an examples file holds no examples$"):
        load_examples(path)


def test_load_examples_missing_field_names_index(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": "q", "db_id": "d"}]))
    with pytest.raises(InputFileError, match="record 0"):
        load_examples(path)


def test_an_examples_record_that_is_not_an_object_names_file_and_index(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": "q", "query": "SELECT 1", "db_id": "d"}, "q"]))
    with pytest.raises(InputFileError, match=r"dev\.json: record 1 is not an object"):
        load_examples(path)


def test_load_examples_rejects_empty_fields(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": "", "query": "SELECT 1", "db_id": "d"}]))
    with pytest.raises(InputFileError, match="empty"):
        load_examples(path)


@pytest.mark.parametrize("field_name", ["question", "query", "db_id"])
@pytest.mark.parametrize(
    "value", [12, 1.5, True, ["SELECT 1"], {"text": "q"}],
    ids=["int", "float", "bool", "array", "object"],
)
def test_load_examples_rejects_a_field_that_is_not_a_string(tmp_path, field_name, value):
    # Such a record used to load, and the run died later inside prompt rendering.
    path = tmp_path / "dev.json"
    good = {"question": "q", "query": "SELECT 1", "db_id": "d"}
    path.write_text(json.dumps([good, {**good, field_name: value}]))
    with pytest.raises(InputFileError, match=rf"dev\.json: record 1 .*'{field_name}'"):
        load_examples(path)


def test_reduce_keeps_requested_tables_in_source_order(schemas):
    schema = schemas["customer_orders"]
    reduced = reduce_schema(schema, ["Order_Items", "Products"])
    assert [t.name for t in reduced.tables] == ["Products", "Order_Items"]
    assert reduced.table_count == 2
    # Column lists are unchanged apart from the re-based owning index.
    source = next(t for t in schema.tables if t.name == "Order_Items")
    kept = reduced.tables[1]
    assert kept.columns == source.columns


def test_reduce_with_all_names_is_identity(schemas):
    for schema in schemas.values():
        reduced = reduce_schema(schema, [t.name for t in schema.tables])
        assert reduced == schema


def test_reduce_is_case_insensitive_and_drops_unknown(schemas):
    schema = schemas["region_buildings"]
    reduced = reduce_schema(schema, ["BUILDING", "NoSuchTable"])
    assert [t.name for t in reduced.tables] == ["building"]


def test_reduce_empty_intersection_raises(schemas):
    with pytest.raises(SchemaReductionError):
        reduce_schema(schemas["region_buildings"], ["NoSuchTable"])


def test_reduce_drops_foreign_keys_with_removed_endpoint(schemas):
    schema = schemas["customer_orders"]
    reduced = reduce_schema(schema, ["Orders", "Customers"])
    # Only Orders.customer_id -> Customers.customer_id survives.
    assert reduced.foreign_keys == (("Orders", "customer_id", "Customers", "customer_id"),)


def test_serialize_matches_expected_layout(schemas):
    text = serialize_schema(schemas["region_buildings"])
    lines = text.splitlines()
    assert lines[0] == (
        "building (Building_ID, Region_ID, Name, Address, Number_of_Stories,"
        " Completed_Year)"
    )
    assert lines[1] == "region (Region_ID, Name, Capital, Area, Population)"
    assert lines[2] == "Foreign keys:"
    assert lines[3] == "building.Region_ID = region.Region_ID"


def test_serialize_omits_foreign_key_block_when_none():
    schema = DatabaseSchema(
        db_id="plain",
        tables=(TableDef("t", ("a",)),),
    )
    assert serialize_schema(schema) == "t (a)"


def test_serialize_is_deterministic(schemas):
    for schema in schemas.values():
        assert serialize_schema(schema) == serialize_schema(schema)
        everything = reduce_schema(schema, [t.name for t in schema.tables])
        assert serialize_schema(everything) == serialize_schema(schema)


def _synthetic_schema(index: int) -> DatabaseSchema:
    tables = tuple(
        TableDef(
            name=f"table_{index}_{t}",
            columns=tuple(f"col_{c}" for c in range(1 + (index + t) % 4)),
        )
        for t in range(1 + index % 5)
    )
    return DatabaseSchema(db_id=f"synth_{index}", tables=tables)


def test_serialize_is_injective_over_corpus(schemas):
    pool = list(schemas.values()) + [_synthetic_schema(i) for i in range(20)]
    assert len(pool) >= 20
    serialized = [serialize_schema(s) for s in pool]
    assert len(set(serialized)) == len(pool)


# The index-based layout the loader once stored: each foreign key as (table index,
# table-local column index, table index, table-local column index), remapped by every
# reduction and looked up by every rendering. Kept as the reference that the name-based
# layout must render and count exactly alike.
def _indexed_schema(record: dict) -> DatabaseSchema:
    per_table = [[] for _ in record["table_names_original"]]
    global_to_local = {}
    for col_id, (table_idx, col_name) in enumerate(record["column_names_original"]):
        if table_idx != -1:
            global_to_local[col_id] = (table_idx, len(per_table[table_idx]))
            per_table[table_idx].append(col_name)
    tables = zip(record["table_names_original"], per_table)
    return DatabaseSchema(
        db_id=record["db_id"],
        tables=tuple(TableDef(name, tuple(columns)) for name, columns in tables),
        foreign_keys=tuple(global_to_local[a] + global_to_local[b]
                           for a, b in record["foreign_keys"]),
    )


def _indexed_reduce_schema(schema: DatabaseSchema, keep: list[str]) -> DatabaseSchema | None:
    wanted = {name.strip().lower() for name in keep if name.strip()}
    kept_indices = [i for i, t in enumerate(schema.tables) if t.name.lower() in wanted]
    if not kept_indices:
        return None
    old_to_new = {old: new for new, old in enumerate(kept_indices)}
    return DatabaseSchema(
        db_id=schema.db_id,
        tables=tuple(schema.tables[old] for old in kept_indices),
        foreign_keys=tuple(
            (old_to_new[ft], fc, old_to_new[tt], tc)
            for ft, fc, tt, tc in schema.foreign_keys
            if ft in old_to_new and tt in old_to_new
        ),
    )


def _indexed_serialize_schema(schema: DatabaseSchema) -> str:
    lines = [f"{table.name} ({', '.join(table.columns)})" for table in schema.tables]
    if schema.foreign_keys:
        lines.append("Foreign keys:")
        for ft, fc, tt, tc in schema.foreign_keys:
            from_table = schema.tables[ft]
            to_table = schema.tables[tt]
            lines.append(
                f"{from_table.name}.{from_table.columns[fc]}"
                f" = {to_table.name}.{to_table.columns[tc]}"
            )
    return "\n".join(lines)


_NAME = st.text(alphabet="abAB_", min_size=1, max_size=3)


@st.composite
def _spider_records(draw):
    """A Spider-layout record: 1-6 tables named uniquely ignoring case, 1-5 columns each,
    listed in any order after "*", and 0-6 foreign keys between real columns."""
    names = draw(st.lists(_NAME, min_size=1, max_size=6, unique_by=str.lower))
    columns = [
        [table_idx, column]
        for table_idx in range(len(names))
        for column in draw(st.lists(_NAME, min_size=1, max_size=5, unique=True))
    ]
    columns = [[-1, "*"]] + draw(st.permutations(columns))
    column_id = st.integers(1, len(columns) - 1)
    links = draw(st.lists(st.lists(column_id, min_size=2, max_size=2), max_size=6))
    return {"db_id": "prop", "table_names_original": names,
            "column_names_original": columns, "foreign_keys": links}


def _keep_lists(names: list[str]):
    """Table names in any case and with stray spaces, mixed with names of no table."""
    cased = st.sampled_from(names).flatmap(lambda name: st.sampled_from(
        [name, name.lower(), name.upper(), name.swapcase(), f" {name} "]))
    return st.lists(st.one_of(cased, _NAME, st.just("")), max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_name_based_foreign_keys_render_and_count_as_the_indexed_layout_did(data):
    record = data.draw(_spider_records())
    schema = _schema_from_record(record, Path("database"))
    reference = _indexed_schema(record)
    assert schema.prompt_text == _indexed_serialize_schema(reference)
    assert extract_features("q", schema) == extract_features("q", reference)

    keep = data.draw(_keep_lists(record["table_names_original"]))
    reduced_reference = _indexed_reduce_schema(reference, keep)
    if reduced_reference is None:
        with pytest.raises(SchemaReductionError):
            reduce_schema(schema, keep)
        return
    reduced = reduce_schema(schema, keep)
    assert reduced.prompt_text == _indexed_serialize_schema(reduced_reference)
    assert extract_features("q", reduced) == extract_features("q", reduced_reference)
    assert (reduced.db_id, reduced.db_file_path) == (schema.db_id, schema.db_file_path)


def test_feature_counts(schemas):
    schema = schemas["customer_orders"]
    features = extract_features("q", schema)
    assert features.table_count == 8
    assert features.column_count == 40
    assert features.foreign_key_count == 8
    assert features.question_token_count == 1


def test_features_empty_question(schemas):
    features = extract_features("", schemas["region_buildings"])
    assert features.question_token_count == 0
    assert features.question_has_aggregation_keyword == 0
    assert features.question_has_superlative_keyword == 0


@pytest.mark.parametrize(
    "question,aggregation,superlative",
    [
        ("What is the price of all products being ordered on average?", 1, 0),
        ("Please show the most common affiliation for city channels.", 0, 1),
        ("Show the number of stories.", 1, 0),
        ("Count the buildings.", 1, 0),
        ("Which county has discounted totals?", 0, 0),  # substrings must not match
        ("What is the highest total?", 1, 1),
    ],
)
def test_feature_keyword_flags(schemas, question, aggregation, superlative):
    features = extract_features(question, schemas["region_buildings"])
    assert features.question_has_aggregation_keyword == aggregation
    assert features.question_has_superlative_keyword == superlative


def test_table_count_matches_sqlite_catalog(schemas):
    checked = 0
    for schema in schemas.values():
        connection = sqlite3.connect(schema.db_file_path)
        try:
            (count,) = connection.execute(
                "SELECT COUNT(*) FROM sqlite_master WHERE type = 'table'"
            ).fetchone()
        finally:
            connection.close()
        assert extract_features("q", schema).table_count == count
        checked += 1
    assert checked >= 5
