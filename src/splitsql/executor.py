"""Read-only SQLite execution and execution-accuracy result comparison."""

from __future__ import annotations

import math
import sqlite3
import threading
import time
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, ne
from pathlib import Path

from .dataset import BenchmarkExample

DEFAULT_TIMEOUT_MS = 30000
DEFAULT_FLOAT_TOLERANCE = 1e-6

# How many SQLite VM instructions run between progress-handler checks.
_PROGRESS_INTERVAL = 1000

STATUS_OK = "ok"
STATUS_SQL_ERROR = "sql_error"
STATUS_TIMEOUT = "timeout"

# Integers up to this magnitude convert to float exactly.
_EXACT_INT_BOUND = 2**53

# The current execution_memo() scope: its memo (outcomes by (db path, sql, timeout_ms), gold
# order modes by gold SQL) and its connection pool or None; None outside any scope.
_MEMO: ContextVar[tuple | None] = ContextVar("splitsql_execution_memo", default=None)

# The authorizer allows reads, and writes to main (which mode=ro refuses); anything else
# (ATTACH, PRAGMA, CREATE, BEGIN, ...) is "not authorized", so no statement changes later ones.
_READS = {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION,
          sqlite3.SQLITE_RECURSIVE}
_WRITES = {sqlite3.SQLITE_INSERT, sqlite3.SQLITE_UPDATE, sqlite3.SQLITE_DELETE}

# A pooled connection lives for a whole run: cap its page cache (KiB); the OS caches the file.
_PAGE_CACHE_PRAGMA = "PRAGMA cache_size = -64"


class DatabaseOpenError(OSError):
    """The database file is missing or cannot be opened at all."""


class DatasetIntegrityError(ValueError):
    """A gold query failed to execute; the dataset itself is broken."""


@dataclass(frozen=True)
class ResultTable:
    column_count: int
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class ExecOutcome:
    status: str
    result: ResultTable | None = None
    error_message: str = ""
    elapsed_ms: int = 0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass(frozen=True)
class ComparisonVerdict:
    equal: bool
    order_sensitive: bool
    reason: str = ""


@dataclass(frozen=True)
class AccuracyOutcome:
    """An execution-accuracy verdict with both execution outcomes attached."""

    verdict: ComparisonVerdict
    gold: ExecOutcome
    predicted: ExecOutcome | None


@contextmanager
def execution_memo(connections: dict | None = None):
    """Within this scope, run each distinct query at most once.

    execute_sql returns the stored outcome for a (db path, sql, timeout_ms)
    it has already run here. ok and sql_error outcomes are stored; timeouts
    depend on wall time and are always run again. The memo is local to the
    current context (one thread, one example) and is dropped on exit. With a
    connections pool, which the caller owns and closes, a query here runs on
    its connection for (this thread, db path), opened on first use; database
    files must not change while the pool is open.
    """
    token = _MEMO.set(({}, connections))
    try:
        yield
    finally:
        _MEMO.reset(token)


def execute_sql(db_path: str | Path, sql: str, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> ExecOutcome:
    """Run one statement against a SQLite file opened read-only.

    Only reads are authorized: a write fails under the read-only open, any
    other statement (ATTACH, PRAGMA, ...) as "not authorized", both as
    sql_error. A query whose wall time exceeds timeout_ms is interrupted and
    reported as timeout. Inside an execution_memo() scope a repeated query
    returns its first outcome, and the scope's pool gives the connection.
    """
    memo, pool = _MEMO.get() or (None, None)
    key = (str(db_path), sql, timeout_ms)
    if memo is not None and key in memo:
        return memo[key]
    outcome = _execute(Path(db_path), sql, timeout_ms, pool)
    if memo is not None and outcome.status != STATUS_TIMEOUT:
        memo[key] = outcome
    return outcome


def _authorize(action, _arg1, _arg2, db_name, _trigger):
    allowed = action in _READS or (action in _WRITES and db_name == "main")
    return sqlite3.SQLITE_OK if allowed else sqlite3.SQLITE_DENY


def _execute(db_path: Path, sql: str, timeout_ms: int, pool: dict | None) -> ExecOutcome:
    if not db_path.is_file():
        raise DatabaseOpenError(f"database file not found: {db_path}")

    started = time.monotonic()
    deadline = started + timeout_ms / 1000.0
    timed_out = False

    def check_deadline():
        nonlocal timed_out
        if time.monotonic() > deadline:
            timed_out = True
            return 1
        return 0

    pool_key = (threading.get_ident(), str(db_path))
    connection = None if pool is None else pool.get(pool_key)
    if connection is None:
        try:  # the owner of a pool closes its connections, from its own thread
            connection = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True,
                                         isolation_level=None, check_same_thread=pool is None)
        except sqlite3.Error as exc:
            raise DatabaseOpenError(f"cannot open {db_path}: {exc}") from exc
        with suppress(sqlite3.Error):  # a file that is no database fails at the query
            connection.execute(_PAGE_CACHE_PRAGMA)
        connection.set_authorizer(_authorize)
        if pool is not None:
            pool[pool_key] = connection

    try:
        connection.set_progress_handler(check_deadline, _PROGRESS_INTERVAL)
        cursor = connection.execute(sql)
        rows = tuple(cursor.fetchall())
        column_count = len(cursor.description) if cursor.description else 0
        elapsed = int((time.monotonic() - started) * 1000)
        return ExecOutcome(
            status=STATUS_OK,
            result=ResultTable(column_count=column_count, rows=rows),
            elapsed_ms=elapsed,
        )
    except (sqlite3.Error, sqlite3.Warning) as exc:
        elapsed = int((time.monotonic() - started) * 1000)
        if timed_out:
            return ExecOutcome(
                status=STATUS_TIMEOUT,
                error_message=f"query exceeded {timeout_ms} ms",
                elapsed_ms=elapsed,
            )
        return ExecOutcome(status=STATUS_SQL_ERROR, error_message=str(exc), elapsed_ms=elapsed)
    finally:
        if pool is None:
            connection.close()


def has_top_level_order_by(sql: str) -> bool:
    """True iff an ORDER BY appears outside every parenthesized subquery.

    Paren depth is tracked with awareness of string literals, quoted
    identifiers, and both comment styles; malformed SQL is scanned
    best-effort.
    """
    depth = 0
    for i in _code_indices(sql):
        ch = sql[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        elif (
            depth == 0
            and _word_at(sql, i, "ORDER")
            and _word_at(sql, _skip_separators(sql, i + 5), "BY")
        ):
            return True
    return False


def _skip_quoted(sql: str, start: int, quote: str) -> int:
    i = start + 1
    n = len(sql)
    while i < n:
        if sql[i] == quote:
            if i + 1 < n and sql[i + 1] == quote:  # doubled quote escape
                i += 2
                continue
            return i + 1
        i += 1
    return n


# The other openers of a quoted identifier or comment, each with its closer.
_DELIMITERS = (("[", "]"), ("--", "\n"), ("/*", "*/"))


def _skip_inert(sql: str, i: int) -> int:
    """The index just past the string literal, quoted identifier ("...",
    `...` or [...]) or comment that starts at i, or i when none starts
    there. One left open runs to the end of the text."""
    ch = sql[i]
    if ch == "'" or ch == '"' or ch == "`":
        return _skip_quoted(sql, i, ch)
    for opener, closer in _DELIMITERS:
        if ch == opener[0] and sql.startswith(opener, i):
            end = sql.find(closer, i + len(opener))
            return len(sql) if end == -1 else end + len(closer)
    return i


def _code_indices(sql: str):
    """Yield, in order, the index of every character of sql outside string
    literals, quoted identifiers and comments."""
    i, n = 0, len(sql)
    while i < n:
        end = _skip_inert(sql, i)
        if end == i:
            yield i
            end += 1
        i = end


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _word_at(sql: str, i: int, word: str) -> bool:
    end = i + len(word)
    if sql[i:end].upper() != word:
        return False
    before_ok = i == 0 or not _is_word_char(sql[i - 1])
    after_ok = end >= len(sql) or not _is_word_char(sql[end])
    return before_ok and after_ok


def _skip_separators(sql: str, i: int) -> int:
    n = len(sql)
    while i < n:
        if sql[i].isspace():
            i += 1
        elif sql.startswith(("--", "/*"), i):
            i = _skip_inert(sql, i)
        else:
            break
    return i


def _cell_sort_key(cell):
    # Bools and NaN get classes of their own: a bool equals only a bool, and
    # NaN compares false with every number, which would let the order of the
    # input decide how the two sides line up after sorting.
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


def _cells_equal(a, b, float_tolerance: float) -> bool:
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


def _column_types(table: ResultTable) -> list[set[type]] | None:
    """The set of cell types in each column, or None if a row has another
    length than column_count."""
    rows = table.rows
    if not set(map(len, rows)) <= {table.column_count}:
        return None
    return [set(map(type, map(itemgetter(i), rows))) for i in range(table.column_count)]


def _has_bool(rows: tuple[tuple, ...]) -> bool:
    return bool in set(map(type, chain.from_iterable(rows)))


def _sorts_natively(rows: list[tuple], types: list[set[type]]) -> bool:
    """True iff Python's own tuple order sorts these rows as _cell_sort_key does.

    That holds when every column holds only str, only bytes, or only int and
    float with no NaN and every int within +-2**53, where its conversion to
    float is exact. Rows holding None or bools, or mixing kinds in a column,
    need the key.
    """
    for i, kinds in enumerate(types):
        if kinds == {str} or kinds == {bytes}:
            continue
        if not kinds <= {int, float}:
            return False
        column = list(map(itemgetter(i), rows))
        if float in kinds and any(map(ne, column, column)):  # only NaN != itself
            return False
        ints = column if kinds == {int} else [c for c in column if type(c) is int]
        if ints and not (-_EXACT_INT_BOUND <= min(ints) and max(ints) <= _EXACT_INT_BOUND):
            return False
    return True


def _sorted_rows(table: ResultTable) -> tuple[list[tuple], bool]:
    """The rows stably sorted by _cell_sort_key, and whether they are known
    to hold no bool (False for ragged rows, whose types are not gathered).

    Where Python's tuple order provably gives the same order, the rows are
    sorted without computing a key for every cell.
    """
    rows = list(table.rows)
    types = _column_types(table)
    if types is not None and _sorts_natively(rows, types):
        rows.sort()
    else:
        rows.sort(key=lambda row: tuple(_cell_sort_key(c) for c in row))
    no_bool = types is not None and not any(bool in kinds for kinds in types)
    return rows, no_bool


def compare_results(
    gold: ResultTable,
    pred: ResultTable,
    order_sensitive: bool,
    float_tolerance: float = DEFAULT_FLOAT_TOLERANCE,
) -> ComparisonVerdict:
    """Compare two result tables.

    Rows are multisets unless order_sensitive; duplicate rows count. Column
    order within a row always matters. Numeric cells (integer or real)
    compare within the absolute tolerance, text and blobs byte-exact, and
    null equals only null.
    """
    if gold.column_count != pred.column_count:
        return ComparisonVerdict(
            equal=False,
            order_sensitive=order_sensitive,
            reason=(
                f"column count differs: expected {gold.column_count},"
                f" got {pred.column_count}"
            ),
        )
    if len(gold.rows) != len(pred.rows):
        return ComparisonVerdict(
            equal=False,
            order_sensitive=order_sensitive,
            reason=f"row count differs: expected {len(gold.rows)}, got {len(pred.rows)}",
        )

    if gold.rows == pred.rows and not (_has_bool(gold.rows) or _has_bool(pred.rows)):
        # Identical rows in identical order: every cell pair is equal, and
        # sorting both sides by the same keys keeps them aligned. Bools are
        # excluded because True == 1 in Python but not in _cells_equal.
        return ComparisonVerdict(equal=True, order_sensitive=order_sensitive)

    gold_rows, pred_rows = gold.rows, pred.rows
    if not order_sensitive:
        gold_rows, gold_no_bool = _sorted_rows(gold)
        pred_rows, pred_no_bool = _sorted_rows(pred)
        if gold_no_bool and pred_no_bool and gold_rows == pred_rows:
            return ComparisonVerdict(equal=True, order_sensitive=order_sensitive)

    for index, (gold_row, pred_row) in enumerate(zip(gold_rows, pred_rows)):
        for gold_cell, pred_cell in zip(gold_row, pred_row):
            if not _cells_equal(gold_cell, pred_cell, float_tolerance):
                return ComparisonVerdict(
                    equal=False,
                    order_sensitive=order_sensitive,
                    reason=f"row {index} differs: expected {gold_row!r}, got {pred_row!r}",
                )
    return ComparisonVerdict(equal=True, order_sensitive=order_sensitive)


def execution_accuracy(
    example: BenchmarkExample,
    predicted_sql: str,
    db_path: str | Path,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    float_tolerance: float = DEFAULT_FLOAT_TOLERANCE,
) -> AccuracyOutcome:
    """Score a prediction by comparing execution results against the gold query.

    Row order is significant only when the gold query has a top-level
    ORDER BY. A prediction that is empty, errors, or times out is unequal.
    A gold query that fails to execute is a dataset error, not a model error.
    """
    gold_outcome = execute_sql(db_path, example.gold_sql, timeout_ms)
    if not gold_outcome.ok:
        raise DatasetIntegrityError(
            f"gold query failed on {example.db_id!r}"
            f" ({example.question[:60]!r}): {gold_outcome.error_message}"
        )

    memo = (_MEMO.get() or ({},))[0]
    if example.gold_sql not in memo:
        memo[example.gold_sql] = has_top_level_order_by(example.gold_sql)
    order_sensitive = memo[example.gold_sql]
    if not predicted_sql.strip():
        verdict = ComparisonVerdict(
            equal=False, order_sensitive=order_sensitive, reason="no predicted SQL"
        )
        return AccuracyOutcome(verdict=verdict, gold=gold_outcome, predicted=None)

    pred_outcome = execute_sql(db_path, predicted_sql, timeout_ms)
    if not pred_outcome.ok:
        verdict = ComparisonVerdict(
            equal=False,
            order_sensitive=order_sensitive,
            reason=f"predicted query {pred_outcome.status}: {pred_outcome.error_message}",
        )
        return AccuracyOutcome(verdict=verdict, gold=gold_outcome, predicted=pred_outcome)

    verdict = compare_results(
        gold_outcome.result, pred_outcome.result, order_sensitive, float_tolerance
    )
    return AccuracyOutcome(verdict=verdict, gold=gold_outcome, predicted=pred_outcome)
