"""Read-only SQLite execution and execution-accuracy result comparison."""

from __future__ import annotations

import os
import re
import sqlite3
import time
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from .dataset import BenchmarkExample

DEFAULT_TIMEOUT_MS = 30000
FLOAT_TOLERANCE = 1e-6

# How many SQLite VM instructions run between progress-handler checks.
_PROGRESS_INTERVAL = 1000

STATUS_OK = "ok"
STATUS_SQL_ERROR = "sql_error"
STATUS_TIMEOUT = "timeout"
STATUS_TOO_LARGE = "too_large"

# A result with more rows than this is too_large: ten times the largest designed result.
MAX_RESULT_ROWS = 100_000
# SQLITE_LIMIT_LENGTH: no string or blob, in a result or on the way to one, may exceed this.
MAX_VALUE_BYTES = 10_000_000

# Integers up to this magnitude convert to float exactly.
_EXACT_INT_BOUND = 2**53

# Row comparisons and search edges the tolerant row matching may take, a few
# seconds at most, before it calls two tables unequal.
_MATCH_STEPS = 1_000_000

# The current execution_memo() scope: its memo (outcomes by (db path, sql, timeout_ms), gold
# order modes by gold SQL, accuracy outcomes by (that key, gold SQL)) and its
# connection pool or None; None outside any scope.
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

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


# A scored prediction's memo entry: its status without its rows.
_SCORED = ExecOutcome(STATUS_OK)


@dataclass(frozen=True)
class ComparisonVerdict:
    equal: bool
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
    it has already run here. ok, sql_error and too_large outcomes are stored;
    timeouts depend on wall time and are always run again. Once
    execution_accuracy has scored a prediction here, the memo keeps its
    status and its AccuracyOutcome but not its rows. The memo is local
    to the current context (one example, and the threads it copies its
    context to) and is dropped on exit. With a connections pool, which the
    caller owns and closes, a query here takes an idle connection to its
    database from the pool, or opens one, and puts it back after the query;
    threads may share the pool, but never a connection at once. Database
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
    reported as timeout. A result of more than MAX_RESULT_ROWS rows is
    too_large, and a string or blob longer than MAX_VALUE_BYTES, even one
    the query only computes on the way, is a sql_error. Inside an
    execution_memo() scope a repeated query returns its first outcome, and
    the scope's pool gives the connection.
    """
    memo, pool = _MEMO.get() or (None, None)
    db_path = str(db_path)
    key = (db_path, sql, timeout_ms)
    if memo is not None and key in memo:
        return memo[key]
    outcome = _execute(db_path, sql, timeout_ms, pool)
    if memo is not None and outcome.status != STATUS_TIMEOUT:
        memo[key] = outcome
    return outcome


def _authorize(action, _arg1, _arg2, db_name, _trigger):
    allowed = action in _READS or (action in _WRITES and db_name == "main")
    return sqlite3.SQLITE_OK if allowed else sqlite3.SQLITE_DENY


def _execute(db_path: str, sql: str, timeout_ms: int, pool: dict | None) -> ExecOutcome:
    # A str, not a Path: pathlib interns every part of every path it parses.
    if not os.path.isfile(db_path):
        raise DatabaseOpenError(f"database file not found: {db_path}")

    deadline = time.monotonic() + timeout_ms / 1000.0
    timed_out = False

    def check_deadline():
        nonlocal timed_out
        if time.monotonic() > deadline:
            timed_out = True
            return 1
        return 0

    connection = idle = None
    if pool is not None:
        idle = pool.setdefault(db_path, [])
        with suppress(IndexError):  # list.pop is atomic: no two threads take one connection
            connection = idle.pop()
    if connection is None:
        try:  # pooled connections move between threads; their owner closes them
            # No statement cache: the memo runs each distinct SQL once per example.
            connection = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True, cached_statements=0,
                                         isolation_level=None, check_same_thread=pool is None)
        except sqlite3.Error as exc:
            raise DatabaseOpenError(f"cannot open {db_path}: {exc}") from exc
        with suppress(sqlite3.Error):  # a file that is no database fails at the query
            connection.execute(_PAGE_CACHE_PRAGMA)
        connection.set_authorizer(_authorize)
        connection.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, MAX_VALUE_BYTES)

    try:
        connection.set_progress_handler(check_deadline, _PROGRESS_INTERVAL)
        cursor = connection.execute(sql)
        rows = tuple(cursor.fetchmany(MAX_RESULT_ROWS + 1))
        if len(rows) > MAX_RESULT_ROWS:
            cursor.close()  # before the connection goes back to the pool, mid-statement
            return ExecOutcome(STATUS_TOO_LARGE,
                               error_message=f"result has more than {MAX_RESULT_ROWS} rows")
        column_count = len(cursor.description) if cursor.description else 0
        return ExecOutcome(STATUS_OK, ResultTable(column_count=column_count, rows=rows))
    except (sqlite3.Error, sqlite3.Warning) as exc:
        if timed_out:
            return ExecOutcome(STATUS_TIMEOUT, error_message=f"query exceeded {timeout_ms} ms")
        return ExecOutcome(STATUS_SQL_ERROR, error_message=str(exc))
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
    if cell is None:
        return (0, 0.0)
    if isinstance(cell, str):
        return (2, cell)
    if isinstance(cell, bytes):
        return (3, cell)
    return (1, float(cell))


def _cells_equal(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        fa, fb = float(a), float(b)
        return fa == fb or abs(fa - fb) <= FLOAT_TOLERANCE
    return type(a) is type(b) and a == b


def _column_kinds(rows: tuple, column: int) -> tuple[bool, bool]:
    """(native, soft): whether Python's own order sorts the column as _cell_sort_key does
    (only str, only bytes, or only int and float, every int within +-2**53), and whether
    two of its cells can be equal without being identical (a float or an int past
    +-2**53). Read in passes over the rows, never copied."""
    cells = itemgetter(column)
    kinds = set(map(type, map(cells, rows)))
    ints = map(cells, rows) if kinds == {int} else (c for c in map(cells, rows) if type(c) is int)
    big = int in kinds and max(map(abs, ints)) > _EXACT_INT_BOUND
    native = kinds == {str} or kinds == {bytes} or (kinds <= {int, float} and not big)
    return native, float in kinds or big


def _sorted_by_key(table: ResultTable) -> tuple[list[tuple], list]:
    """The rows stably sorted by _cell_sort_key, with no key computed per
    cell when every column sorts natively, and each column's _column_kinds."""
    kinds = [_column_kinds(table.rows, i) for i in range(table.column_count)]
    key = None if all(n for n, _ in kinds) else lambda row: tuple(map(_cell_sort_key, row))
    return sorted(table.rows, key=key), kinds


def _rows_equal(gold_row: tuple, pred_row: tuple) -> bool:
    return all(map(_cells_equal, gold_row, pred_row))


def _narrowing_order(rows: list[tuple], columns: list[int]) -> list[int]:
    """The columns, most distinct values first over about 1,000 rows, numbers
    counted at twice the tolerance's grain: narrowing first on a column whose
    values all lie within the tolerance would leave every row a candidate."""
    sample, grain = rows[:: len(rows) // 1000 + 1], 2 * FLOAT_TOLERANCE

    def distinct(column: int) -> int:
        cells = map(itemgetter(column), sample)
        return len({c // grain if grain and type(c) in (int, float) else c for c in cells})

    return sorted(columns, key=distinct, reverse=True)


def _rows_pair_off(gold_rows: list[tuple], pred_rows: list[tuple], gold_kinds: list,
                   pred_kinds: list) -> bool:
    """Whether the rows, sorted by _sorted_by_key with these _column_kinds, pair
    off one to one under _cells_equal. A column soft in neither table is exact:
    its cells equal only identical ones. With at most one soft column, both lists
    are re-sorted in place, exact columns first, and the aligned rows decide: on
    a line, sorted order pairs the rows if any order does. Else _match decides."""
    columns = range(len(gold_kinds))
    soft = [c for c in columns if gold_kinds[c][1] or pred_kinds[c][1]]
    exact = [c for c in columns if c not in soft]
    if len(soft) > 1:
        return _match(gold_rows, pred_rows, exact, soft)
    if soft != list(columns[len(exact):]):  # the soft column comes before an exact one
        for rows, kinds in ((gold_rows, gold_kinds), (pred_rows, pred_kinds)):
            for c in reversed(exact):  # stable passes, the first exact column last
                rows.sort(key=itemgetter(c) if kinds[c][0] else lambda row: _cell_sort_key(row[c]))
    return all(map(_rows_equal, gold_rows, pred_rows))


def _match(gold: list, pred: list, exact: list, soft: list) -> bool:
    """Whether the rows pair off under _cells_equal. Each predicted row, fewest
    candidates first, takes a gold row it equals, moving earlier ones along an
    augmenting path where it must; candidates are bisected on the exact cells,
    then on the first soft column in _narrowing_order. Unequal after
    _MATCH_STEPS row comparisons and search edges."""
    column = _narrowing_order(gold, soft)[0]
    key = lambda row, last: (*(_cell_sort_key(row[c]) for c in exact), last)  # noqa: E731
    gold_key = lambda g: key(gold[g], _cell_sort_key(gold[g][column]))  # noqa: E731
    order = sorted(range(len(gold)), key=gold_key)
    keys = list(map(gold_key, order))
    steps = 0
    reach = []  # predicted row -> the gold rows it equals
    for p, row in enumerate(pred):
        if not p or row != pred[p - 1]:  # identical rows, adjacent once sorted, share candidates
            low = high = _cell_sort_key(row[column])
            if low[0] == 1:
                low, high = (1, low[1] - 2 * FLOAT_TOLERANCE), (1, low[1] + 2 * FLOAT_TOLERANCE)
            window = order[bisect_left(keys, key(row, low)):bisect_right(keys, key(row, high))]
            steps += len(window)
            if steps > _MATCH_STEPS:
                return False
            candidates = [g for g in window if _rows_equal(row, gold[g])]
        reach.append(candidates)
    holder = [None] * len(gold)  # gold row -> the predicted row paired with it
    taken = {}  # candidate list -> how many of its gold rows are taken, for good, from its start
    for p, candidates in sorted(enumerate(reach), key=lambda item: len(item[1])):  # fewest first
        first = taken.get(id(candidates), 0)
        while first < len(candidates) and holder[candidates[first]] is not None:
            first += 1
        taken[id(candidates)] = first
        # gold row -> the predicted row that reached it and the gold row that row leaves
        came_from = dict.fromkeys(candidates[first:first + 1] or candidates, (p, None))
        queue, expanded = deque(came_from), {id(candidates)}
        while queue and holder[queue[0]] is not None and steps <= _MATCH_STEPS:
            left = queue.popleft()
            other = holder[left]
            if id(reach[other]) in expanded:  # an identical row's, whose rows are all reached
                continue
            expanded.add(id(reach[other]))
            steps += len(reach[other])
            for g in reach[other]:
                if g not in came_from:
                    came_from[g] = (other, left)
                    queue.append(g)
        if not queue or steps > _MATCH_STEPS:
            return False
        g = queue[0]
        while g is not None:  # each row on the path moves to the gold row it reached
            holder[g], g = came_from[g]
    return True


def compare_results(
    gold: ResultTable,
    pred: ResultTable,
    order_sensitive: bool,
) -> ComparisonVerdict:
    """Compare two result tables.

    Rows are multisets unless order_sensitive; duplicate rows count. Column
    order within a row always matters. Numeric cells (integer or real)
    compare within the absolute FLOAT_TOLERANCE, text and blobs byte-exact, and
    null equals only null. Unordered rows are equal when they pair off one
    to one under these rules, whatever order sorting gives rows that differ
    within the tolerance.

    Cells are what sqlite3 returns with no converters: None, int, float
    (never NaN, which SQLite stores as NULL), str or bytes; every row has
    column_count cells.
    """
    if gold.column_count != pred.column_count:
        return ComparisonVerdict(
            equal=False,
            reason=(
                f"column count differs: expected {gold.column_count},"
                f" got {pred.column_count}"
            ),
        )
    if len(gold.rows) != len(pred.rows):
        return ComparisonVerdict(
            equal=False,
            reason=f"row count differs: expected {len(gold.rows)}, got {len(pred.rows)}",
        )

    # Over the cells above, rows equal as tuples are equal cell by cell
    # under _cells_equal, and they sort alike, so no cell pass is needed.
    if gold.rows == pred.rows:
        return ComparisonVerdict(equal=True)

    gold_rows, pred_rows = gold.rows, pred.rows
    if not order_sensitive:
        gold_rows, gold_kinds = _sorted_by_key(gold)
        pred_rows, pred_kinds = _sorted_by_key(pred)
        if gold_rows == pred_rows:
            return ComparisonVerdict(equal=True)

    for index, (gold_row, pred_row) in enumerate(zip(gold_rows, pred_rows)):
        if not _rows_equal(gold_row, pred_row):
            if not order_sensitive and _rows_pair_off(gold_rows, pred_rows, gold_kinds,
                                                      pred_kinds):
                return ComparisonVerdict(equal=True)
            return ComparisonVerdict(
                equal=False,
                reason=f"row {index} differs: expected {gold_row!r}, got {pred_row!r}",
            )
    return ComparisonVerdict(equal=True)


def execution_accuracy(
    example: BenchmarkExample,
    predicted_sql: str,
    db_path: str | Path,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> AccuracyOutcome:
    """Score a prediction by comparing execution results against the gold query.

    Row order is significant only when the gold query has a top-level
    ORDER BY. A prediction that is empty, errors, times out or is too large
    is unequal. A gold query that fails to execute or is too large is a
    dataset error, not a model error. Inside an execution_memo() scope a
    prediction scored again returns its first AccuracyOutcome, whose
    predicted outcome keeps its status but not its rows.
    """
    memo = (_MEMO.get() or ({},))[0]
    gold_key = (str(db_path), example.gold_sql, timeout_ms)
    if memo.get(gold_key) is _SCORED:  # scored here as another example's prediction
        del memo[gold_key]
    gold_outcome = execute_sql(db_path, example.gold_sql, timeout_ms)
    if not gold_outcome.ok:
        raise DatasetIntegrityError(
            f"gold query failed on {example.db_id!r}"
            f" ({example.question[:60]!r}): {gold_outcome.error_message}"
        )

    if example.gold_sql not in memo:
        memo[example.gold_sql] = has_top_level_order_by(example.gold_sql)
    order_sensitive = memo[example.gold_sql]
    if not predicted_sql.strip():
        verdict = ComparisonVerdict(
            equal=False, reason="no predicted SQL"
        )
        return AccuracyOutcome(verdict=verdict, gold=gold_outcome, predicted=None)

    key = (str(db_path), predicted_sql, timeout_ms)
    scored_key = (key, example.gold_sql)
    if scored_key in memo:
        return memo[scored_key]
    pred_outcome = execute_sql(db_path, predicted_sql, timeout_ms)
    if not pred_outcome.ok:
        verdict = ComparisonVerdict(
            equal=False,
            reason=f"predicted query {pred_outcome.status}: {pred_outcome.error_message}",
        )
    else:
        verdict = compare_results(
            gold_outcome.result, pred_outcome.result, order_sensitive
        )
        if key in memo and key != gold_key:  # the gold rows stay for the other arm
            memo[key] = pred_outcome = _SCORED
    outcome = AccuracyOutcome(verdict=verdict, gold=gold_outcome, predicted=pred_outcome)
    if key in memo:  # not a timeout, which runs again
        memo[scored_key] = outcome
    return outcome
