from __future__ import annotations

import json
import sqlite3

import pytest

from splitsql.dataset import (
    InputFileError,
    DatabaseSchema,
    SchemaIntegrityError,
    SchemaReductionError,
    TableDef,
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
        for ft, fc, tt, tc in schema.foreign_keys:
            assert 0 <= ft < schema.table_count
            assert 0 <= tt < schema.table_count
            assert 0 <= fc < len(schema.tables[ft].columns)
            assert 0 <= tc < len(schema.tables[tt].columns)


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
    assert schema.foreign_keys == ((1, 1, 0, 0),)
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
    with pytest.raises(SchemaIntegrityError, match="broken"):
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
    "change, error, message",
    [
        ({"db_id": ""}, InputFileError, r"tables\.json: schema record without db_id"),
        ({"table_names_original": []}, SchemaIntegrityError, "^bad: schema has no tables"),
        ({"column_names_original": [[-1, "*"], [0, "a"], [3, "b"]]}, SchemaIntegrityError,
         "^bad: column 'b' references table index 3"),
        ({"table_names_original": ["t", "T"]}, SchemaIntegrityError,
         "^bad: duplicate table name 'T'"),
    ],
    ids=["no-db-id", "no-tables", "table-index-out-of-range", "duplicate-table"],
)
def test_a_schema_record_that_cannot_serve_is_an_input_file_error(tmp_path, change, error, message):
    record = {
        "db_id": "bad",
        "table_names_original": ["t"],
        "column_names_original": [[-1, "*"], [0, "a"], [0, "b"]],
        "foreign_keys": [],
        **change,
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([record]))
    with pytest.raises(error, match=message) as failure:
        load_schemas(path)
    assert isinstance(failure.value, InputFileError)


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
    assert load_examples(path) == []


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
    assert len(reduced.foreign_keys) == 1
    ft, fc, tt, tc = reduced.foreign_keys[0]
    assert reduced.tables[ft].name == "Orders"
    assert reduced.tables[ft].columns[fc] == "customer_id"
    assert reduced.tables[tt].name == "Customers"


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
