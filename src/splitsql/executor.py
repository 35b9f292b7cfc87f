"""Read-only SQLite execution and execution-accuracy result comparison."""

from __future__ import annotations

import math
import re
import sqlite3
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

# One token of SQL text, tried in order: a string literal or quoted identifier ('...', "...",
# `...` with doubled-quote escapes, or [...]); a comment (-- through its newline, or /*...*/,
# where /*/ does not close); a word; any other non-space character. A quoted token or comment
# left open runs to the end of the text. For str patterns \w and \s match exactly the
# characters for which isalnum() (or "_") and isspace() hold.
_TOKEN_RE = re.compile(
    r"""'(?:[^']|'')*'?|"(?:[^"]|"")*"?|`(?:[^`]|``)*`?|\[[^\]]*\]?"""
    r"|(?P<comment>--[^\n]*\n?|/\*.*?(?:\*/|\Z))|(?P<word>\w+)|(?P<code>\S)",
    re.DOTALL,
)

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
    current context (one example, and the threads it copies its context to)
    and is dropped on exit. With a connections pool, which the caller owns and
    closes, a query here takes an idle connection to its database from the
    pool, or opens one, and puts it back after the query; threads may share
    the pool, but never a connection at once. Database files must not change
    while the pool is open.
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

    connection = idle = None
    if pool is not None:
        idle = pool.setdefault(str(db_path), [])
        with suppress(IndexError):  # list.pop is atomic: no two threads take one connection
            connection = idle.pop()
    if connection is None:
        try:  # pooled connections move between threads; their owner closes them
            connection = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True,
                                         isolation_level=None, check_same_thread=pool is None)
        except sqlite3.Error as exc:
            raise DatabaseOpenError(f"cannot open {db_path}: {exc}") from exc
        with suppress(sqlite3.Error):  # a file that is no database fails at the query
            connection.execute(_PAGE_CACHE_PRAGMA)
        connection.set_authorizer(_authorize)

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
        if idle is None:
            connection.close()
        else:
            idle.append(connection)


def has_top_level_order_by(sql: str) -> bool:
    """True iff an ORDER BY appears outside every parenthesized subquery.

    Paren depth is tracked with awareness of string literals, quoted
    identifiers, and both comment styles; malformed SQL is scanned
    best-effort.
    """
    depth = 0
    after_order = False  # the last token outside comments was ORDER, at depth 0
    for token in _TOKEN_RE.finditer(sql):
        kind, text = token.lastgroup, token.group()
        if kind == "comment":
            continue
        word = text.upper() if kind == "word" and depth == 0 else ""
        if after_order and word == "BY":
            return True
        after_order = word == "ORDER"
        if text == "(":  # only a code token is a lone paren
            depth += 1
        elif text == ")":
            depth = max(depth - 1, 0)
    return False


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
