from __future__ import annotations

import random
import sqlite3
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from splitsql import executor
from splitsql.dataset import BenchmarkExample
from splitsql.executor import (
    ComparisonVerdict,
    DatabaseOpenError,
    DatasetIntegrityError,
    ResultTable,
    compare_results,
    execute_sql,
    execution_accuracy,
    execution_memo,
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
    outcome = execute_sql(lab_db, heavy, timeout_ms=50)
    assert outcome.status == "timeout"
    assert outcome.elapsed_ms >= 50


def test_unopenable_database_raises(tmp_path):
    with pytest.raises(DatabaseOpenError):
        execute_sql(tmp_path / "missing.sqlite", "SELECT 1")


# ---------------------------------------------------------------------------
# execution_memo
# ---------------------------------------------------------------------------

HEAVY_SQL = (
    "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r) "
    "SELECT COUNT(*) FROM r"
)


def test_memo_runs_a_repeated_query_once(lab_db, opened):
    with execution_memo():
        first = execute_sql(lab_db, "SELECT COUNT(*) FROM samples")
        second = execute_sql(str(lab_db), "SELECT COUNT(*) FROM samples")
        error = execute_sql(lab_db, "SELECT * FROM no_such_table")
        again = execute_sql(lab_db, "SELECT * FROM no_such_table")
    assert second == first
    assert again == error and error.status == "sql_error"
    assert opened == ["SELECT COUNT(*) FROM samples", "SELECT * FROM no_such_table"]


def test_memo_keys_on_timeout_and_ends_with_its_scope(lab_db, opened):
    with execution_memo():
        execute_sql(lab_db, "SELECT 1", timeout_ms=1000)
        execute_sql(lab_db, "SELECT 1", timeout_ms=2000)
    execute_sql(lab_db, "SELECT 1", timeout_ms=1000)
    execute_sql(lab_db, "SELECT 1", timeout_ms=1000)
    assert opened == ["SELECT 1"] * 4


def test_memo_runs_a_timed_out_query_again(lab_db, opened):
    with execution_memo():
        first = execute_sql(lab_db, HEAVY_SQL, timeout_ms=50)
        second = execute_sql(lab_db, HEAVY_SQL, timeout_ms=50)
    assert first.status == second.status == "timeout"
    assert opened == [HEAVY_SQL, HEAVY_SQL]


def test_memo_does_not_store_a_missing_database(tmp_path, lab_db):
    target = tmp_path / "late.sqlite"
    with execution_memo():
        with pytest.raises(DatabaseOpenError):
            execute_sql(target, "SELECT 1")
        target.write_bytes(lab_db.read_bytes())
        assert execute_sql(target, "SELECT 1").ok


def test_scoring_inside_a_memo_runs_gold_once(lab_db, opened):
    example = BenchmarkExample(
        question="q", gold_sql="SELECT group_name FROM samples", db_id="measurement_lab"
    )
    with execution_memo():
        assert execution_accuracy(example, "SELECT group_name FROM samples", lab_db).verdict.equal
        assert not execution_accuracy(example, "SELECT 1", lab_db).verdict.equal
    assert opened == ["SELECT group_name FROM samples", "SELECT 1"]


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
    connection, each in its own memo scope as the examples of a run are:
    every read gives the status and rows it gives on a fresh connection."""
    pool = {}
    try:
        for sql in statements:
            with execution_memo(pool):
                pooled = execute_sql(lab_db, sql)
            if sql in GUARD_READS:
                fresh = execute_sql(lab_db, sql)
                assert (pooled.status, pooled.result) == (fresh.status, fresh.result), sql
        assert [len(idle) for idle in pool.values()] == [1]
    finally:
        _close(pool)


def test_pool_serves_a_query_after_a_timed_out_one(lab_db, connections):
    pool = {}
    try:
        with execution_memo(pool):
            assert execute_sql(lab_db, HEAVY_SQL, timeout_ms=50).status == "timeout"
            after = execute_sql(lab_db, "SELECT COUNT(*) FROM samples")
        with execution_memo(pool):
            again = execute_sql(lab_db, "SELECT COUNT(*) FROM samples")
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
        with execution_memo(pool):
            pooled = execute_sql(target, "SELECT COUNT(*) FROM samples")
    finally:
        _close(pool)
    fresh = execute_sql(target, "SELECT COUNT(*) FROM samples")
    assert pooled == replace(fresh, elapsed_ms=pooled.elapsed_ms)
    assert fresh.status == "sql_error"
    assert "not a database" in fresh.error_message


def test_outside_a_pool_each_query_opens_and_closes_its_own_connection(lab_db, connections):
    with execution_memo():
        execute_sql(lab_db, "SELECT 1")
        execute_sql(lab_db, "SELECT 2")
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


def test_compare_nan_rows_match_in_any_order():
    nan = float("nan")
    gold = _table((nan,), (1.0,))
    assert compare_results(gold, _table((1.0,), (nan,)), False).equal
    assert compare_results(gold, _table((float("nan"),), (1.0,)), False).equal


def test_compare_bool_is_not_the_integer_it_equals():
    assert not compare_results(_table((True,)), _table((1,)), True).equal
    assert not compare_results(_table((0,), (1,)), _table((False,), (1,)), False).equal


# Every kind of cell a result can hold, plus bools, NaN and infinities.
_any_cell = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-2, max_value=2),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, float("nan"), float("inf")]),
    # Integers at and beyond 2**53, where conversion to float stops being exact.
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1]),
    st.sampled_from([float(2**53 - 1), float(2**53), float(-(2**53) - 1), float(2**63 - 1)]),
    st.text(max_size=2),
    st.binary(max_size=2),
)


def _twin(cell, draw):
    """A cell that == the given one in Python, possibly of another type."""
    options = [cell]
    if isinstance(cell, bool):
        options.append(int(cell))
    elif isinstance(cell, int):
        options.append(float(cell))
        if cell in (0, 1):
            options.append(bool(cell))
    elif isinstance(cell, float) and cell == cell:
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


def _reference_compare(
    gold, pred, order_sensitive, float_tolerance=executor.DEFAULT_FLOAT_TOLERANCE
):
    """The comparison with no fast path: a stable sort by _cell_sort_key, then
    a cell-by-cell comparison of the aligned rows."""
    def verdict(equal, reason=""):
        return ComparisonVerdict(equal=equal, order_sensitive=order_sensitive, reason=reason)

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
        key = lambda row: tuple(executor._cell_sort_key(c) for c in row)  # noqa: E731
        gold_rows.sort(key=key)
        pred_rows.sort(key=key)
    for index, (gold_row, pred_row) in enumerate(zip(gold_rows, pred_rows)):
        for gold_cell, pred_cell in zip(gold_row, pred_row):
            if not executor._cells_equal(gold_cell, pred_cell, float_tolerance):
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
    nan = float("nan")
    big = 2**53
    tables = [
        _table((big + 1, "a"), (big, "b")),
        _table((big, "a"), (big + 1, "b")),
        _table((float(big), "a"), (big + 1, "b")),
        _table((2**63 - 1, "x"), (-big - 1, "y")),
        _table((None, "a"), (1, "b")),
        _table((True, "a"), (1, "b")),
        _table((True, "a"), (0, "b")),
        _table((True, "a"), (0, "c")),
        _table((nan, "a"), (1.0, "b")),
        _table(("1", "a"), (1, "b")),
        _table((b"a", "a"), ("a", "b")),
        _table((1.5, b"z"), (1, b"y")),
        _table((-0.0, "a"), (0, "a")),
        ResultTable(column_count=2, rows=((1, "a"), (0,))),
        ResultTable(column_count=2, rows=((0, "a", "z"), (1, "b"))),
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
