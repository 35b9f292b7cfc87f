from __future__ import annotations

import itertools
import math
import random
import sqlite3
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from splitsql import executor
from splitsql.dataset import BenchmarkExample
from splitsql.executor import (
    ComparisonVerdict,
    DatabaseOpenError,
    DatasetIntegrityError,
    ExecutionMemo,
    ResultTable,
    compare_results,
    execute_sql,
    execution_accuracy,
    has_top_level_order_by,
)
from splitsql.minicorpus import db_path


@pytest.fixture(scope="module")
def lab_db(corpus_root):
    return db_path(corpus_root, "measurement_lab")


@pytest.fixture(scope="module")
def agencies_db(corpus_root):
    return db_path(corpus_root, "client_agencies")


# ---------------------------------------------------------------------------
# execute_sql
# ---------------------------------------------------------------------------


def test_execute_select_one(lab_db):
    outcome = execute_sql(lab_db, "SELECT 1")
    assert outcome.status == "ok"
    assert outcome.result.rows == ((1,),)
    assert outcome.result.column_count == 1
    assert type(outcome.result.rows) is tuple
    assert all(type(row) is tuple for row in outcome.result.rows)


def test_execute_missing_table_is_sql_error(lab_db):
    outcome = execute_sql(lab_db, "SELECT * FROM no_such_table")
    assert outcome.status == "sql_error"
    assert "no_such_table" in outcome.error_message


def test_execute_ambiguous_column_error(agencies_db):
    sql = (
        "SELECT agency_id, COUNT(client_id) AS client_count FROM Agencies a "
        "JOIN Clients c ON a.agency_id = c.agency_id GROUP BY agency_id"
    )
    outcome = execute_sql(agencies_db, sql)
    assert outcome.status == "sql_error"
    assert "ambiguous" in outcome.error_message.lower()
    assert "agency_id" in outcome.error_message


def test_execute_rejects_writes_readonly(lab_db):
    outcome = execute_sql(lab_db, "INSERT INTO samples VALUES (99, 'alpha', 1.0, 'x')")
    assert outcome.status == "sql_error"
    assert "readonly" in outcome.error_message.lower()
    # The file is untouched.
    count = execute_sql(lab_db, "SELECT COUNT(*) FROM samples")
    assert count.result.rows == ((6,),)


def test_execute_timeout(lab_db):
    heavy = (
        "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r) "
        "SELECT COUNT(*) FROM r"
    )
    started = time.monotonic()
    outcome = execute_sql(lab_db, heavy, timeout_ms=50)
    assert outcome.status == "timeout"
    assert (time.monotonic() - started) * 1000 >= 50


# A million rows, ten times MAX_RESULT_ROWS.
MILLION_ROWS_SQL = (
    "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r WHERE i < 1000000) "
    "SELECT i FROM r"
)


def test_a_result_past_the_row_cap_is_too_large(lab_db, opened):
    pool = {}
    try:
        memo = ExecutionMemo(pool)
        first = execute_sql(lab_db, MILLION_ROWS_SQL, memo=memo)
        again = execute_sql(lab_db, MILLION_ROWS_SQL, memo=memo)
        after = execute_sql(lab_db, "SELECT COUNT(*) FROM samples", memo=memo)
    finally:
        _close(pool)
    assert first.status == "too_large" and first.result is None
    assert again == first and opened == [MILLION_ROWS_SQL, "SELECT COUNT(*) FROM samples"]
    # The statement left unfinished is closed before its connection serves the next query.
    assert after.ok and after.result.rows == ((6,),)


@pytest.mark.parametrize(
    "sql", ["SELECT zeroblob(100000000)", "SELECT length(hex(zeroblob(50000000)))"]
)
def test_a_value_past_the_length_limit_is_an_sql_error(lab_db, sql):
    # The second query returns one small integer: only SQLite's own limit sees the blob.
    outcome = execute_sql(lab_db, sql)
    assert outcome.status == "sql_error"
    assert "too big" in outcome.error_message


def test_a_long_value_under_the_length_limit_passes(lab_db):
    concat = MILLION_ROWS_SQL.replace("SELECT i FROM r", "SELECT length(group_concat(i)) FROM r")
    outcome = execute_sql(lab_db, concat)
    assert outcome.ok and outcome.result.rows == ((6888895,),)


def test_unopenable_database_raises(tmp_path):
    with pytest.raises(DatabaseOpenError):
        execute_sql(tmp_path / "missing.sqlite", "SELECT 1")


# ---------------------------------------------------------------------------
# ExecutionMemo
# ---------------------------------------------------------------------------

HEAVY_SQL = (
    "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r) "
    "SELECT COUNT(*) FROM r"
)


def test_memo_runs_a_repeated_query_once(lab_db, opened):
    memo = ExecutionMemo()
    first = execute_sql(lab_db, "SELECT COUNT(*) FROM samples", memo=memo)
    second = execute_sql(str(lab_db), "SELECT COUNT(*) FROM samples", memo=memo)
    error = execute_sql(lab_db, "SELECT * FROM no_such_table", memo=memo)
    again = execute_sql(lab_db, "SELECT * FROM no_such_table", memo=memo)
    assert second == first
    assert again == error and error.status == "sql_error"
    assert opened == ["SELECT COUNT(*) FROM samples", "SELECT * FROM no_such_table"]


def test_memo_keys_on_timeout_and_ends_with_its_scope(lab_db, opened):
    memo = ExecutionMemo()
    execute_sql(lab_db, "SELECT 1", timeout_ms=1000, memo=memo)
    execute_sql(lab_db, "SELECT 1", timeout_ms=2000, memo=memo)
    execute_sql(lab_db, "SELECT 1", timeout_ms=1000)
    execute_sql(lab_db, "SELECT 1", timeout_ms=1000)
    assert opened == ["SELECT 1"] * 4


def test_memo_runs_a_timed_out_query_again(lab_db, opened):
    memo = ExecutionMemo()
    first = execute_sql(lab_db, HEAVY_SQL, timeout_ms=50, memo=memo)
    second = execute_sql(lab_db, HEAVY_SQL, timeout_ms=50, memo=memo)
    assert first.status == second.status == "timeout"
    assert opened == [HEAVY_SQL, HEAVY_SQL]


def test_memo_does_not_store_a_missing_database(tmp_path, lab_db):
    target = tmp_path / "late.sqlite"
    memo = ExecutionMemo()
    with pytest.raises(DatabaseOpenError):
        execute_sql(target, "SELECT 1", memo=memo)
    target.write_bytes(lab_db.read_bytes())
    assert execute_sql(target, "SELECT 1", memo=memo).ok


def test_scoring_inside_a_memo_runs_gold_once(lab_db, opened):
    example = BenchmarkExample(
        question="q", gold_sql="SELECT group_name FROM samples", db_id="measurement_lab"
    )
    memo = ExecutionMemo()
    gold_sql = "SELECT group_name FROM samples"
    assert execution_accuracy(example, gold_sql, lab_db, memo=memo).verdict.equal
    assert not execution_accuracy(example, "SELECT 1", lab_db, memo=memo).verdict.equal
    assert opened == ["SELECT group_name FROM samples", "SELECT 1"]


GROUPS_SQL = "SELECT group_name FROM samples"
REVERSED_GROUPS_SQL = "SELECT group_name FROM samples ORDER BY sample_id DESC"


def _memo_entry(memo, db, sql):
    return memo.entries[(str(db), sql, executor.DEFAULT_TIMEOUT_MS)]


def test_a_scored_prediction_keeps_its_status_but_not_its_rows(lab_db, opened):
    example = BenchmarkExample(question="q", gold_sql=GROUPS_SQL, db_id="measurement_lab")
    memo = ExecutionMemo()
    assert execution_accuracy(example, REVERSED_GROUPS_SQL, lab_db, memo=memo).verdict.equal
    entry = _memo_entry(memo, lab_db, REVERSED_GROUPS_SQL)
    gold = _memo_entry(memo, lab_db, GROUPS_SQL)
    again = execute_sql(lab_db, REVERSED_GROUPS_SQL, memo=memo)
    assert entry.status == "ok" and entry.result is None
    assert again == entry  # a refine loop in the other arm runs it no more
    assert gold.ok and len(gold.result.rows) == 6  # the other arm scores against them
    assert opened == [GROUPS_SQL, REVERSED_GROUPS_SQL]


def test_scoring_a_prediction_again_runs_and_compares_nothing(lab_db, opened, monkeypatch):
    example = BenchmarkExample(question="q", gold_sql=GROUPS_SQL, db_id="measurement_lab")
    compared = []
    compare = executor.compare_results
    monkeypatch.setattr(
        executor, "compare_results", lambda *a, **k: compared.append(a) or compare(*a, **k)
    )
    memo = ExecutionMemo()
    first = execution_accuracy(example, REVERSED_GROUPS_SQL, lab_db, memo=memo)
    second = execution_accuracy(example, REVERSED_GROUPS_SQL, lab_db, memo=memo)
    wrong = execution_accuracy(example, "SELECT 1", lab_db, memo=memo)
    wrong_again = execution_accuracy(example, "SELECT 1", lab_db, memo=memo)
    assert second == first and second.verdict.equal
    assert wrong_again == wrong and not wrong.verdict.equal
    assert len(compared) == 2
    assert opened == [GROUPS_SQL, REVERSED_GROUPS_SQL, "SELECT 1"]


def test_a_scored_prediction_that_is_a_later_gold_query_runs_again(lab_db, opened):
    first = BenchmarkExample(question="q", gold_sql=GROUPS_SQL, db_id="measurement_lab")
    second = BenchmarkExample(question="q", gold_sql=REVERSED_GROUPS_SQL, db_id="measurement_lab")
    memo = ExecutionMemo()
    assert execution_accuracy(first, REVERSED_GROUPS_SQL, lab_db, memo=memo).verdict.equal
    assert execution_accuracy(second, REVERSED_GROUPS_SQL, lab_db, memo=memo).verdict.equal
    assert not execution_accuracy(second, GROUPS_SQL, lab_db, memo=memo).verdict.equal
    assert opened == [GROUPS_SQL, REVERSED_GROUPS_SQL, REVERSED_GROUPS_SQL]


def test_connections_keep_no_statement_cache(lab_db, connect_kwargs):
    pool = {}
    try:
        execute_sql(lab_db, "SELECT 1", memo=ExecutionMemo(pool))
    finally:
        _close(pool)
    execute_sql(lab_db, "SELECT 1")
    assert [kwargs["cached_statements"] for kwargs in connect_kwargs] == [0, 0]


# ---------------------------------------------------------------------------
# the read-only guard and the connection pool
# ---------------------------------------------------------------------------

LIKE_ALPHA = "SELECT sample_id FROM samples WHERE group_name LIKE 'ALPHA'"

# Reads whose result a leaked setting, temp object, attached database or
# write would change.
GUARD_READS = (
    "SELECT COUNT(*) FROM samples",
    LIKE_ALPHA,
    "SELECT group_name FROM samples",
    "SELECT * FROM sample_groups",
    "SELECT type, name FROM sqlite_temp_master",
    "SELECT COUNT(*) FROM other.sqlite_master",
)

# Statements that, if they ran, would change what a later read sees.
STATE_CHANGES = (
    "PRAGMA case_sensitive_like=1",
    "PRAGMA reverse_unordered_selects=1",
    "PRAGMA query_only=1",
    "CREATE TEMP TABLE samples(a)",
    "CREATE TEMP VIEW sample_groups AS SELECT 1 AS group_name",
    "ATTACH ':memory:' AS other",
    "BEGIN",
    "SAVEPOINT s",
    "INSERT INTO samples VALUES (99, 'alpha', 1.0, 'x')",
    "DELETE FROM samples",
)


@pytest.mark.parametrize(
    "sql",
    [
        "ATTACH ':memory:' AS other",
        "CREATE TEMP TABLE samples(a)",
        "PRAGMA case_sensitive_like=1",
        "BEGIN",
    ],
)
def test_execute_refuses_statements_that_are_not_reads(lab_db, sql):
    outcome = execute_sql(lab_db, sql)
    assert outcome.status == "sql_error"
    assert "not authorized" in outcome.error_message


def _close(pool):
    for idle in pool.values():
        for connection in idle:
            connection.close()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(GUARD_READS + STATE_CHANGES), min_size=1, max_size=12))
@example(["PRAGMA case_sensitive_like=1", LIKE_ALPHA])
@example(["CREATE TEMP TABLE samples(a)", "SELECT COUNT(*) FROM samples"])
@example(["ATTACH ':memory:' AS other", "SELECT COUNT(*) FROM other.sqlite_master"])
def test_pooled_reads_see_what_a_fresh_connection_sees(lab_db, statements):
    """A sequence of reads and state-changing statements on one pooled
    connection, each with its own memo as the examples of a run are:
    every read gives the status and rows it gives on a fresh connection."""
    pool = {}
    try:
        for sql in statements:
            pooled = execute_sql(lab_db, sql, memo=ExecutionMemo(pool))
            if sql in GUARD_READS:
                fresh = execute_sql(lab_db, sql)
                assert (pooled.status, pooled.result) == (fresh.status, fresh.result), sql
        assert [len(idle) for idle in pool.values()] == [1]
    finally:
        _close(pool)


def test_pool_serves_a_query_after_a_timed_out_one(lab_db, connections):
    pool = {}
    try:
        memo = ExecutionMemo(pool)
        assert execute_sql(lab_db, HEAVY_SQL, timeout_ms=50, memo=memo).status == "timeout"
        after = execute_sql(lab_db, "SELECT COUNT(*) FROM samples", memo=memo)
        again = execute_sql(lab_db, "SELECT COUNT(*) FROM samples", memo=ExecutionMemo(pool))
    finally:
        _close(pool)
    assert after.ok and after.result.rows == ((6,),)
    assert again == after
    assert len(connections) == 1 and [len(idle) for idle in pool.values()] == [1]


def test_a_file_that_is_no_database_fails_at_the_query(tmp_path):
    target = tmp_path / "junk.sqlite"
    target.write_bytes(b"no database here " * 256)
    pool = {}
    try:
        pooled = execute_sql(target, "SELECT COUNT(*) FROM samples", memo=ExecutionMemo(pool))
    finally:
        _close(pool)
    fresh = execute_sql(target, "SELECT COUNT(*) FROM samples")
    assert pooled == fresh
    assert fresh.status == "sql_error"
    assert "not a database" in fresh.error_message


def test_outside_a_pool_each_query_opens_and_closes_its_own_connection(lab_db, connections):
    memo = ExecutionMemo()
    execute_sql(lab_db, "SELECT 1", memo=memo)
    execute_sql(lab_db, "SELECT 2", memo=memo)
    execute_sql(lab_db, "SELECT 3")
    assert len(connections) == 3
    for _thread, _target, connection in connections:
        with pytest.raises(sqlite3.ProgrammingError):
            connection.execute("SELECT 1")


# ---------------------------------------------------------------------------
# has_top_level_order_by
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql,expected",
    [
        ("SELECT a FROM t ORDER BY a", True),
        ("SELECT a FROM t", False),
        ("SELECT a FROM (SELECT a FROM t ORDER BY a) LIMIT 1", False),
        (
            "SELECT Affiliation FROM (SELECT Affiliation, COUNT(*) AS count "
            "FROM city_channel GROUP BY Affiliation ORDER BY count DESC) "
            "AS grouped LIMIT 1",
            False,
        ),
        ("SELECT a FROM t WHERE b = 'ORDER BY'", False),
        ('SELECT a FROM t WHERE b = "ORDER BY x"', False),
        ("SELECT a FROM t -- ORDER BY a\n", False),
        ("SELECT a FROM t /* ORDER BY a */", False),
        ("SELECT a FROM (SELECT a FROM u ORDER BY a) ORDER BY a", True),
        ("SELECT a FROM t ORDER\n  BY a", True),
        ("SELECT a FROM t ORDERBY a", False),
        ("select a from t order by a desc", True),
        ("SELECT a FROM t ORDER\x1cBY a", True),
        ("SELECT a FROM t ORDERé BY a", False),
    ],
)
def test_order_by_detection(sql, expected):
    assert has_top_level_order_by(sql) is expected


# The scanner as it stood before string literals, quoted identifiers and
# comments were skipped by one shared scanner; the property below holds the
# shared one to it.
def _reference_has_top_level_order_by(sql: str) -> bool:
    i, depth, n = 0, 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'" or ch == '"' or ch == "`":
            i = _reference_skip_quoted(sql, i, ch)
        elif ch == "[":
            end = sql.find("]", i + 1)
            i = n if end == -1 else end + 1
        elif sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
        elif sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            i = n if end == -1 else end + 2
        elif ch == "(":
            depth += 1
            i += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
            i += 1
        elif depth == 0 and _reference_word_at(sql, i, "ORDER"):
            j = _reference_skip_separators(sql, i + 5)
            if _reference_word_at(sql, j, "BY"):
                return True
            i += 5
        else:
            i += 1
    return False


def _reference_skip_quoted(sql: str, start: int, quote: str) -> int:
    i = start + 1
    n = len(sql)
    while i < n:
        if sql[i] == quote:
            if i + 1 < n and sql[i + 1] == quote:
                i += 2
                continue
            return i + 1
        i += 1
    return n


def _reference_word_at(sql: str, i: int, word: str) -> bool:
    end = i + len(word)
    if sql[i:end].upper() != word:
        return False
    before_ok = i == 0 or not (sql[i - 1].isalnum() or sql[i - 1] == "_")
    after_ok = end >= len(sql) or not (sql[end].isalnum() or sql[end] == "_")
    return before_ok and after_ok


def _reference_skip_separators(sql: str, i: int) -> int:
    n = len(sql)
    while i < n:
        if sql[i].isspace():
            i += 1
        elif sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
        elif sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            i = n if end == -1 else end + 2
        else:
            break
    return i


# Single characters of SQL's quoting, nesting and comment syntax, plus a
# few of their pairs, so that short inputs often close what they open.
SCANNER_TOKENS = (
    list("'\"`[]();-/*\n ")
    + ["''", '""', "``", "[]", "()", "--\n", "/*", "*/", "/**/"]
    + ["ORDER", "BY", "ORDER BY", "order\nby", "ORDER/**/BY"]
    + list("ab_")
    # Non-ASCII letters and separators: word characters are those of
    # isalnum() or "_", and separators those of isspace().
    + ["é", "ß", "ı", "\x1c", "\u00a0"]
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(SCANNER_TOKENS), max_size=40).map("".join))
@example("SELECT a FROM t ORDER 'x' BY a")
@example("SELECT a FROM t ORDER [x] BY a")
@example("SELECT a FROM t ORDER\x1cBY a")
@example("SELECT a FROM t ORDERé BY a")
def test_order_by_detection_matches_the_reference_scanner(sql):
    assert has_top_level_order_by(sql) is _reference_has_top_level_order_by(sql)


# ---------------------------------------------------------------------------
# compare_results
# ---------------------------------------------------------------------------


def _table(*rows, columns=None):
    width = columns if columns is not None else (len(rows[0]) if rows else 0)
    return ResultTable(column_count=width, rows=tuple(tuple(r) for r in rows))


def test_compare_multiset_ignores_order():
    gold = _table((1, "a"), (2, "b"))
    pred = _table((2, "b"), (1, "a"))
    assert compare_results(gold, pred, order_sensitive=False).equal


def test_compare_order_sensitive_detects_swap():
    gold = _table((1, "a"), (2, "b"))
    pred = _table((2, "b"), (1, "a"))
    verdict = compare_results(gold, pred, order_sensitive=True)
    assert not verdict.equal
    assert verdict.reason.startswith("row 0 differs")


def test_compare_numeric_unification():
    assert compare_results(_table((3.0,)), _table((3,)), False).equal


def test_compare_float_tolerance_boundaries():
    assert compare_results(_table((1.0,)), _table((1.0 + 5e-7,)), False).equal
    assert not compare_results(_table((1.0,)), _table((1.00001,)), False).equal


def test_compare_column_count_mismatch_beats_rows():
    gold = _table((1,), columns=1)
    pred = ResultTable(column_count=2, rows=((1, 2),))
    verdict = compare_results(gold, pred, False)
    assert not verdict.equal
    assert "column count" in verdict.reason


def test_compare_duplicates_are_significant():
    gold = _table((4.5,), (4.5,))
    pred = _table((4.5,))
    assert not compare_results(gold, pred, False).equal


def test_compare_null_equals_only_null():
    assert compare_results(_table((None,)), _table((None,)), False).equal
    assert not compare_results(_table((None,)), _table((0,)), False).equal
    assert not compare_results(_table((None,)), _table(("",)), False).equal


def test_compare_text_is_byte_exact():
    assert not compare_results(_table(("A",)), _table(("a",)), False).equal
    assert not compare_results(_table(("a ",)), _table(("a",)), False).equal


def test_compare_type_mismatch_is_unequal():
    assert not compare_results(_table(("1",)), _table((1,)), False).equal


_cell = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5, allow_nan=False, width=32),
    st.text(alphabet="abc", max_size=2),
)


@st.composite
def _tables(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    height = draw(st.integers(min_value=0, max_value=5))
    rows = [tuple(draw(_cell) for _ in range(width)) for _ in range(height)]
    return ResultTable(column_count=width, rows=tuple(rows))


@settings(max_examples=100, deadline=None)
@given(_tables(), st.randoms(use_true_random=False))
def test_compare_reflexive_and_permutation_invariant(table, rng):
    assert compare_results(table, table, order_sensitive=True).equal
    shuffled = list(table.rows)
    rng.shuffle(shuffled)
    permuted = ResultTable(column_count=table.column_count, rows=tuple(shuffled))
    assert compare_results(table, permuted, order_sensitive=False).equal
    assert compare_results(permuted, table, order_sensitive=False).equal


@settings(max_examples=100, deadline=None)
@given(_tables(), _tables())
def test_compare_is_symmetric(left, right):
    forward = compare_results(left, right, order_sensitive=False).equal
    backward = compare_results(right, left, order_sensitive=False).equal
    assert forward == backward


def test_compare_infinities_are_equal():
    assert compare_results(_table((float("inf"),)), _table((float("inf"),)), False).equal
    assert not compare_results(_table((float("inf"),)), _table((float("-inf"),)), False).equal


def test_results_hold_only_the_cells_the_comparison_handles(lab_db):
    # compare_results relies on this: SQLite stores NaN as NULL, and sqlite3
    # with no converters returns only None, int, float, str and bytes.
    outcome = execute_sql(
        lab_db,
        "SELECT 0.0/0.0, 1e999-1e999, 1e999*0, sqrt(-1), 1e999, -1e999, -0.0, 1.5,"
        " 9223372036854775807, -9223372036854775808, 9007199254740993, x'00ff', 'text', NULL"
        " UNION ALL SELECT 1e999-1e999, 2, 'a', x'', NULL, 0.0/0.0, 7, -1e999, 1, 2, 3, 4, 5, 6",
    )
    assert outcome.ok
    cells = [cell for row in outcome.result.rows for cell in row]
    assert {type(cell) for cell in cells} <= {type(None), int, float, str, bytes}
    assert len(outcome.result.rows) == 2
    assert all(len(row) == outcome.result.column_count == 14 for row in outcome.result.rows)
    first, second = outcome.result.rows
    assert first[:4] == (None, None, None, None)
    assert first[4:6] == (float("inf"), float("-inf"))
    assert first[8:12] == (2**63 - 1, -(2**63), 2**53 + 1, b"\x00\xff")
    assert (second[0], second[5]) == (None, None)


# Every kind of cell a result can hold: null, integers to 2**63 - 1, floats
# (infinities and -0.0 included; SQLite returns no NaN), text and blobs.
_any_cell = st.one_of(
    st.none(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-2, max_value=2),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, float("inf"), float("-inf")]),
    # Integers at and beyond 2**53, where conversion to float stops being exact.
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1]),
    st.sampled_from([float(2**53 - 1), float(2**53), float(-(2**53) - 1), float(2**63 - 1)]),
    st.text(max_size=2),
    st.binary(max_size=2),
)


def _twin(cell, draw):
    """A cell that == the given one in Python, possibly of another type."""
    options = [cell]
    if isinstance(cell, int):
        options.append(float(cell))
    elif isinstance(cell, float):
        options.append(-cell if cell == 0 else cell)
        if cell.is_integer() and abs(cell) < 2**63:
            options.append(int(cell))
    return draw(st.sampled_from(options))


@st.composite
def _table_pairs(draw):
    """(gold, pred): pred is gold with cells swapped for == twins, rows
    shuffled, or is drawn on its own."""
    width = draw(st.integers(min_value=1, max_value=3))
    height = draw(st.integers(min_value=0, max_value=6))
    gold_rows = [tuple(draw(_any_cell) for _ in range(width)) for _ in range(height)]
    kind = draw(st.sampled_from(["copy", "twins", "shuffled", "independent"]))
    if kind == "independent":
        pred_rows = [tuple(draw(_any_cell) for _ in range(width)) for _ in range(height)]
    else:
        pred_rows = [tuple(row) for row in gold_rows]
        if kind != "copy":
            pred_rows = [tuple(_twin(c, draw) for c in row) for row in gold_rows]
        if kind == "shuffled":
            pred_rows = draw(st.permutations(pred_rows))
    return (
        ResultTable(column_count=width, rows=tuple(gold_rows)),
        ResultTable(column_count=width, rows=tuple(pred_rows)),
    )


def _reference_sort_key(cell):
    # Written apart from executor's key so that a fault there shows. Its bool
    # and NaN classes lie outside what SQLite returns; neither is drawn here.
    if cell is None:
        return (0, 0.0)
    if isinstance(cell, bool):
        return (1, float(cell))
    if isinstance(cell, (int, float)):
        value = float(cell)
        return (3, 0.0) if math.isnan(value) else (2, value)
    if isinstance(cell, bytes):
        return (5, cell)
    return (4, str(cell))


def _reference_cells_equal(a, b, float_tolerance):
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        fa, fb = float(a), float(b)
        if math.isnan(fa) or math.isnan(fb):
            return math.isnan(fa) and math.isnan(fb)
        return fa == fb or abs(fa - fb) <= float_tolerance
    if type(a) is not type(b):
        return False
    return a == b


def _reference_compare(gold, pred, order_sensitive):
    """The comparison with no fast path and its own cell rules: a stable sort
    by _reference_sort_key, then a cell-by-cell comparison of the aligned rows.
    Unordered rows that differ there are still equal when some permutation of
    the predicted rows lines up with the gold rows cell by cell."""
    def verdict(equal, reason=""):
        return ComparisonVerdict(equal=equal, reason=reason)

    if gold.column_count != pred.column_count:
        return verdict(
            False,
            f"column count differs: expected {gold.column_count}, got {pred.column_count}",
        )
    if len(gold.rows) != len(pred.rows):
        return verdict(
            False, f"row count differs: expected {len(gold.rows)}, got {len(pred.rows)}"
        )
    gold_rows, pred_rows = list(gold.rows), list(pred.rows)
    if not order_sensitive:
        key = lambda row: tuple(_reference_sort_key(c) for c in row)  # noqa: E731
        gold_rows.sort(key=key)
        pred_rows.sort(key=key)
    def rows_equal(gold_row, pred_row):
        return all(
            _reference_cells_equal(g, p, executor.FLOAT_TOLERANCE)
            for g, p in zip(gold_row, pred_row)
        )

    for index, (gold_row, pred_row) in enumerate(zip(gold_rows, pred_rows)):
        if not rows_equal(gold_row, pred_row):
            if not order_sensitive and any(
                all(map(rows_equal, gold_rows, permuted))
                for permuted in itertools.permutations(pred_rows)
            ):
                return verdict(True)
            return verdict(
                False, f"row {index} differs: expected {gold_row!r}, got {pred_row!r}"
            )
    return verdict(True)


@settings(max_examples=400, deadline=None)
@given(_table_pairs(), st.booleans(), st.randoms(use_true_random=False))
def test_fast_path_gives_the_full_verdict(pair, order_sensitive, rng):
    gold, pred = pair
    verdict = compare_results(gold, pred, order_sensitive)
    assert verdict == _reference_compare(gold, pred, order_sensitive)
    if not order_sensitive:
        shuffled = list(pred.rows)
        rng.shuffle(shuffled)
        permuted = ResultTable(column_count=pred.column_count, rows=tuple(shuffled))
        assert compare_results(gold, permuted, False).equal == verdict.equal


@pytest.mark.parametrize("order_sensitive", [False, True])
def test_compare_matches_the_reference_on_edge_tables(order_sensitive):
    big = 2**53
    tables = [
        _table((big + 1, "a"), (big, "b")),
        _table((big, "a"), (big + 1, "b")),
        _table((float(big), "a"), (big + 1, "b")),
        _table((2**63 - 1, "x"), (-big - 1, "y")),
        _table((None, "a"), (1, "b")),
        _table((float("inf"), "a"), (float("-inf"), "b")),
        _table(("1", "a"), (1, "b")),
        _table((b"a", "a"), ("a", "b")),
        _table((1.5, b"z"), (1, b"y")),
        _table((-0.0, "a"), (0, "a")),
        # Text beside an int rules out the native sort in the first column.
        _table(("a", 1), (1, 1)),
        _table(("a", 1.0), (1, 1)),
    ]
    for gold in tables:
        for pred in tables:
            assert compare_results(gold, pred, order_sensitive) == _reference_compare(
                gold, pred, order_sensitive
            ), (gold, pred)


def test_compare_big_integers_line_up_like_their_floats():
    # Both ints round to the same float, so the sort keeps their input order
    # and the two sides align cell by cell within tolerance.
    gold = _table((2**53 + 1, "a"), (2**53, "b"))
    pred = _table((2**53, "a"), (2**53 + 1, "b"))
    assert compare_results(gold, pred, False).equal
    assert compare_results(pred, gold, False).equal


def test_an_unordered_comparison_holds_only_its_two_sorted_copies():
    # Rows that differ as tuples until both sides are sorted. Reversed rows
    # sort in place, so the comparison's heap is the two sorted copies plus
    # what a column scan holds, which must not be a copy of the column.
    rows = tuple((i, i * 0.5) for i in range(10_000))
    gold, pred = ResultTable(2, rows), ResultTable(2, rows[::-1])
    copies = 2 * sys.getsizeof(list(rows))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert compare_results(gold, pred, False).equal
        transient = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert transient < copies + 16_000, (transient, copies)


# Numbers within the tolerance of their neighbours in this list (1.0 and
# 1.0000015 are not, but each is within it of 1.0000009), so that sorting
# can misalign rows that pair off, and pairing them can take more than greed.
_NEAR_NUMBERS = [1.0, 1.0000003, 1.0000009, 1.0000015]
_near_cell = st.sampled_from([*_NEAR_NUMBERS, 2, "a", None])


@st.composite
def _near_table_pairs(draw):
    """(gold, pred): pred is drawn on its own, or is gold with its rows
    shuffled and each number swapped for one within the tolerance of it."""
    width = draw(st.integers(min_value=1, max_value=3))
    height = draw(st.integers(min_value=0, max_value=5))
    gold = [tuple(draw(_near_cell) for _ in range(width)) for _ in range(height)]
    if draw(st.booleans()):
        pred = [tuple(draw(_near_cell) for _ in range(width)) for _ in range(height)]
    else:
        tolerance = executor.FLOAT_TOLERANCE
        near = {n: [m for m in _NEAR_NUMBERS if abs(m - n) <= tolerance] for n in _NEAR_NUMBERS}
        pred = draw(st.permutations(
            [tuple(draw(st.sampled_from(near.get(c, [c]))) for c in row) for row in gold]
        ))
    return ResultTable(width, tuple(gold)), ResultTable(width, tuple(pred))


def _shuffled(table, rng):
    rows = list(table.rows)
    rng.shuffle(rows)
    return ResultTable(table.column_count, tuple(rows))


def _jittered(table, rng):
    """Every number moved by at most 0.4 of the default tolerance."""
    reach = 0.4 * executor.FLOAT_TOLERANCE
    return ResultTable(table.column_count, tuple(
        tuple(c + rng.uniform(-reach, reach) if type(c) in (int, float) else c for c in row)
        for row in table.rows
    ))


@settings(max_examples=300, deadline=None)
@given(_near_table_pairs(), st.randoms(use_true_random=False))
@example(
    (_table((1.0, "a"), (1.0000001, "b")), _table((1.0000002, "a"), (1.0, "b"))),
    random.Random(0),
)
@example(  # pairing the middle predicted row with either gold row it equals can strand another
    (
        _table((1.0000009, 1.0000009), (1.0, 1.0000009), (1.0000003, None)),
        _table((1.0000003, None), (1.0000015, 1.0000003), (1.0000009, 1.0)),
    ),
    random.Random(0),
)
def test_unordered_verdict_ignores_row_order_and_jitter_within_the_tolerance(pair, rng):
    gold, pred = pair
    verdict = compare_results(gold, pred, False)
    assert verdict == _reference_compare(gold, pred, False)
    assert compare_results(_shuffled(gold, rng), pred, False).equal == verdict.equal
    assert compare_results(gold, _shuffled(pred, rng), False).equal == verdict.equal
    assert compare_results(gold, _jittered(_shuffled(gold, rng), rng), False).equal


def test_the_row_matching_gives_up_after_its_step_budget(monkeypatch):
    # Both columns are soft, and the first cells all lie within the tolerance
    # of one another, so each predicted row is compared with the 20 gold rows
    # that share its second cell.
    gold = _table(*[(i * 1e-12, float(i % 2)) for i in range(40)])
    pred = _table(*[((39 - i) * 1e-12, float(i % 2)) for i in range(40)])
    assert compare_results(gold, pred, False).equal
    monkeypatch.setattr(executor, "_MATCH_STEPS", 100)
    verdict = compare_results(gold, pred, False)
    assert not verdict.equal and verdict.reason.startswith("row 0 differs")


def test_one_soft_column_pairs_off_by_sorting_without_the_step_budget(monkeypatch):
    # The float cells all lie within the tolerance of one another and the int
    # column is exact, so sorting on the int first lines the rows up.
    n = 400
    gold = _table(*[(i * 1e-12, i % 2) for i in range(n)])
    pred = _table(*[((n - 1 - i) * 1e-12, i % 2) for i in range(n)])
    monkeypatch.setattr(executor, "_MATCH_STEPS", 100)
    assert compare_results(gold, pred, False).equal
    assert compare_results(pred, gold, False).equal


def test_many_identical_rows_over_two_soft_columns_pair_off():
    # Each predicted (1.0000002, 1.0000004) equals both gold rows, each
    # (1.0000003, 0.9999995) only (1.0, 1.0); the rows do not line up once
    # sorted. Matching the 2,000 rows one by one in sorted order would move
    # a thousand rows along a path a thousand times and exhaust the budget.
    gold = _table(*[(1.0, 1.0)] * 1000, *[(1.0000008, 1.0000008)] * 1000)
    pred = _table(*[(1.0000002, 1.0000004)] * 1000, *[(1.0000003, 0.9999995)] * 1000)
    assert not compare_results(gold, pred, True).equal
    assert compare_results(gold, pred, False).equal
    assert compare_results(pred, gold, False).equal


def test_a_column_of_ints_in_one_table_and_floats_in_the_other_is_soft():
    # Gold's first column holds only ints, the prediction's only floats
    # within the tolerance of them; the two float columns leave the rows
    # unaligned once sorted, and only (1.0000001, 1.0000002, 1.0000004)
    # can take the gold row (1, 1.0000008, 1.0000008).
    gold = _table((1, 1.0, 1.0), (1, 1.0000008, 1.0000008))
    pred = _table((1.0000001, 1.0000002, 1.0000004), (1.0000001, 1.0000003, 0.9999995))
    assert not compare_results(gold, pred, True).equal
    assert compare_results(gold, pred, False).equal
    assert compare_results(pred, gold, False).equal


def test_the_row_matching_moves_a_paired_row_along_an_augmenting_path():
    # Cells are k * 0.7e-6: neighbours on that grid are within the tolerance,
    # any other two at least 1.4e-6 apart. Each predicted row equals two gold
    # rows; only (1, 3) can take (1, 4), so if it is first paired with (2, 2),
    # the row that finds both its gold rows taken must move it along.
    def grid(*rows):
        return _table(*[tuple(k * 0.7e-6 for k in row) for row in rows])

    gold = grid((2, 0), (1, 4), (2, 2))
    pred = grid((1, 3), (1, 1), (2, 1))
    assert not compare_results(gold, pred, True).equal
    assert compare_results(gold, pred, False) == _reference_compare(gold, pred, False)
    assert compare_results(gold, pred, False).equal
    assert compare_results(pred, gold, False).equal


def _paired_by_exact_cells(gold, pred, float_column, tolerance):
    """Written apart from executor: group the rows by their cells outside
    float_column, and pair each group's sorted floats in order."""
    def groups(table):
        found = {}
        for row in table.rows:
            exact = tuple(c for i, c in enumerate(row) if i != float_column)
            found.setdefault(exact, []).append(row[float_column])
        return {exact: sorted(numbers) for exact, numbers in found.items()}

    gold_groups, pred_groups = groups(gold), groups(pred)
    return gold_groups.keys() == pred_groups.keys() and all(
        len(numbers) == len(pred_groups[exact])
        and all(abs(g - p) <= tolerance for g, p in zip(numbers, pred_groups[exact]))
        for exact, numbers in gold_groups.items()
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=20, max_value=300),
    st.sampled_from([1e-12, 1e-8, 2e-7]),
    st.booleans(),
    st.sampled_from(["jittered", "moved", "relabelled"]),
    st.randoms(use_true_random=False),
)
@example(300, 1e-12, True, "jittered", random.Random(0))  # a search would exhaust its budget
def test_one_soft_column_pairs_off_as_its_sorted_groups_do(size, step, float_first, change, rng):
    # A near-constant float column beside a low-cardinality exact one: many
    # rows are candidates for each other, which a budgeted search cannot afford.
    tolerance = executor.FLOAT_TOLERANCE
    floats = [1.0 + i * step for i in range(size)]
    rng.shuffle(floats)
    rows = [(number, rng.choice([0, 1, "a"])) for number in floats]
    shuffled = [(number + rng.uniform(-0.4, 0.4) * tolerance, exact) for number, exact in rows]
    rng.shuffle(shuffled)
    if change == "moved":
        number, exact = shuffled[0]
        shuffled[0] = (number + rng.choice([-1.5, 1.5]) * tolerance, exact)
    elif change == "relabelled":
        shuffled[0] = (shuffled[0][0], rng.choice([0, 1, "a"]))
    order = (lambda row: row) if float_first else (lambda row: row[::-1])
    gold = _table(*map(order, rows))
    pred = _table(*map(order, shuffled))
    expected = _paired_by_exact_cells(gold, pred, 0 if float_first else 1, tolerance)
    assert compare_results(gold, pred, False).equal == expected
    assert compare_results(pred, gold, False).equal == expected
    if change == "jittered":
        assert expected


def test_one_soft_column_before_an_exact_one_takes_under_a_megabyte():
    # The float cells all lie within the tolerance of one another, and the
    # predicted rows pair off with the gold rows only by their int cells.
    n = 10_000
    gold = _table(*[(i * 1e-12, i) for i in range(n)])
    pred = _table(*[((n - 1 - i) * 1e-12, i) for i in range(n)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert compare_results(gold, pred, False).equal
        transient = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert transient < 1_000_000, transient


@pytest.mark.parametrize("size", [2_000, 100_000])
def test_a_near_constant_first_column_does_not_exhaust_the_row_matching(size):
    # The first cells all lie within the tolerance of one another; only the
    # second column tells the rows apart, and the search narrows on it first.
    gold = _table(*[(i * 1e-12, i) for i in range(size)])
    pred = _table(*[((size - 1 - i) * 1e-12, i) for i in range(size)])
    started = time.perf_counter()
    assert compare_results(gold, pred, False).equal
    if size == 2_000:
        assert time.perf_counter() - started < 0.5


def _result_eq(gold, pred, sql, *, any_column_order=True, float_tolerance=0.0,
               order_by_anywhere=True):
    """test-suite-sql-eval's result_eq (Zhong et al., EMNLP 2020, arXiv
    2010.02840) as the README recalls it, not checked against its code: some
    permutation of the predicted columns makes the rows equal, as a multiset
    or, when "order by" appears anywhere in the lower-cased gold SQL, in
    order, with values compared exactly. Each keyword switches one of its
    three rules to the one compare_results follows."""
    if gold.column_count != pred.column_count or len(gold.rows) != len(pred.rows):
        return False
    ordered = "order by" in sql.lower() if order_by_anywhere else has_top_level_order_by(sql)
    identity = tuple(range(pred.column_count))
    column_orders = itertools.permutations(identity) if any_column_order else [identity]

    def rows_equal(gold_row, pred_row):
        pairs = zip(gold_row, pred_row)
        return all(_reference_cells_equal(g, p, float_tolerance) for g, p in pairs)

    for column_order in column_orders:
        rows = [tuple(row[i] for i in column_order) for row in pred.rows]
        row_orders = [rows] if ordered else itertools.permutations(rows)
        if any(all(map(rows_equal, gold.rows, candidate)) for candidate in row_orders):
            return True
    return False


_SPIDER_SQL = [
    "SELECT a, b FROM t",
    "SELECT a, b FROM t ORDER BY a",
    "SELECT a, b FROM (SELECT a, b FROM t ORDER BY b LIMIT 4)",
    "SELECT a, b FROM t WHERE b IN (SELECT b FROM u ORDER BY b LIMIT 2)",
]
_spider_cell = st.sampled_from([1, 2, 1.0, 1.0000004, 2.5, "a", "b", None])


@st.composite
def _spider_cases(draw):
    """(gold, pred, gold SQL): pred is drawn on its own, or is gold with its
    columns and rows shuffled and some numbers moved within the tolerance."""
    width = draw(st.integers(min_value=1, max_value=3))
    height = draw(st.integers(min_value=0, max_value=4))
    gold = [tuple(draw(_spider_cell) for _ in range(width)) for _ in range(height)]
    if draw(st.booleans()):
        pred = [tuple(draw(_spider_cell) for _ in range(width)) for _ in range(height)]
    else:
        near = {1: [1, 1.0, 1.0000004], 1.0: [1, 1.0, 1.0000004], 1.0000004: [1.0, 1.0000004]}
        columns = draw(st.permutations(range(width)))
        pred = draw(st.permutations([
            tuple(draw(st.sampled_from(near.get(row[i], [row[i]]))) for i in columns)
            for row in gold
        ]))
    return ResultTable(width, tuple(gold)), ResultTable(width, tuple(pred)), draw(
        st.sampled_from(_SPIDER_SQL)
    )


@settings(max_examples=300, deadline=None)
@given(_spider_cases())
@example((_table((1, "a"), (2, "b")), _table(("a", 1), ("b", 2)), _SPIDER_SQL[0]))
@example((_table((1.0, "a")), _table((1.0000004, "a")), _SPIDER_SQL[0]))
@example((_table((1, "a"), (2, "b")), _table((2, "b"), (1, "a")), _SPIDER_SQL[2]))
def test_the_verdict_differs_from_result_eq_only_in_the_three_named_rules(case):
    gold, pred, sql = case
    ours = compare_results(gold, pred, has_top_level_order_by(sql)).equal
    tolerance = executor.FLOAT_TOLERANCE
    assert ours == _result_eq(gold, pred, sql, any_column_order=False,
                              float_tolerance=tolerance, order_by_anywhere=False)
    if ours != _result_eq(gold, pred, sql):
        identity = tuple(range(pred.column_count))
        permuted_columns = any(
            compare_results(gold, ResultTable(
                pred.column_count, tuple(tuple(row[i] for i in order) for row in pred.rows)
            ), has_top_level_order_by(sql)).equal
            for order in itertools.permutations(identity) if order != identity
        )
        gold_numbers, pred_numbers = (
            [c for row in table.rows for c in row if type(c) in (int, float)]
            for table in (gold, pred)
        )
        near_floats = any(0 < abs(a - b) <= tolerance for a in gold_numbers for b in pred_numbers)
        nested_order_by = "order by" in sql.lower() and not has_top_level_order_by(sql)
        assert permuted_columns or near_floats or nested_order_by


# ---------------------------------------------------------------------------
# execution_accuracy
# ---------------------------------------------------------------------------


def test_gold_equals_itself_for_whole_dev_set(schemas, examples):
    for example in examples:
        outcome = execution_accuracy(
            example, example.gold_sql, schemas[example.db_id].db_file_path
        )
        assert outcome.verdict.equal, (example.question, outcome.verdict.reason)


def test_gold_failure_is_dataset_error(lab_db):
    example = BenchmarkExample(
        question="q", gold_sql="SELECT * FROM missing", db_id="measurement_lab"
    )
    with pytest.raises(DatasetIntegrityError, match="measurement_lab"):
        execution_accuracy(example, "SELECT 1", lab_db)


def test_empty_prediction_scores_unequal(lab_db):
    example = BenchmarkExample(
        question="q", gold_sql="SELECT 1", db_id="measurement_lab"
    )
    outcome = execution_accuracy(example, "", lab_db)
    assert not outcome.verdict.equal
    assert outcome.predicted is None


def test_predicted_error_scores_unequal(lab_db):
    example = BenchmarkExample(
        question="q", gold_sql="SELECT 1", db_id="measurement_lab"
    )
    outcome = execution_accuracy(example, "SELECT * FROM missing", lab_db)
    assert not outcome.verdict.equal
    assert outcome.predicted.status == "sql_error"


def test_a_too_large_result_scores_zero_and_breaks_a_gold_query(lab_db):
    example = BenchmarkExample(question="q", gold_sql="SELECT 1", db_id="measurement_lab")
    outcome = execution_accuracy(example, MILLION_ROWS_SQL, lab_db)
    assert not outcome.verdict.equal and outcome.predicted.status == "too_large"
    assert outcome.verdict.reason.startswith("predicted query too_large: result has more than")
    too_large_gold = BenchmarkExample(
        question="q", gold_sql=MILLION_ROWS_SQL, db_id="measurement_lab"
    )
    with pytest.raises(DatasetIntegrityError, match="more than 100000 rows"):
        execution_accuracy(too_large_gold, "SELECT 1", lab_db)


def test_order_mode_comes_from_gold(lab_db):
    ordered = BenchmarkExample(
        question="q",
        gold_sql="SELECT value FROM samples WHERE value IS NOT NULL ORDER BY value",
        db_id="measurement_lab",
    )
    reversed_pred = (
        "SELECT value FROM samples WHERE value IS NOT NULL ORDER BY value DESC"
    )
    assert not execution_accuracy(ordered, reversed_pred, lab_db).verdict.equal

    unordered = BenchmarkExample(
        question="q",
        gold_sql="SELECT value FROM samples WHERE value IS NOT NULL",
        db_id="measurement_lab",
    )
    assert execution_accuracy(unordered, reversed_pred, lab_db).verdict.equal
