from __future__ import annotations

import sqlite3
import threading
from types import SimpleNamespace

import pytest

from splitsql import executor, minicorpus
from splitsql.dataset import load_examples, load_schemas


@pytest.fixture(scope="session")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return minicorpus.build_corpus(root)


@pytest.fixture(scope="session")
def schemas(corpus_root):
    return load_schemas(corpus_root / "tables.json")


@pytest.fixture(scope="session")
def examples(corpus_root):
    return load_examples(corpus_root / "examples.json")


class _LoggingConnection:
    """A real connection that records each statement it is asked to run,
    except the page-cache setting the executor gives every connection."""

    def __init__(self, connection, log):
        self._connection = connection
        self._log = log

    def execute(self, sql):
        if sql != executor._PAGE_CACHE_PRAGMA:
            self._log.append(sql)
        return self._connection.execute(sql)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def _wrap_connect(monkeypatch, wrap):
    """Make the executor open each connection as wrap(target, real connection)."""

    def connect(target, *args, **kwargs):
        return wrap(target, sqlite3.connect(target, *args, **kwargs))

    fake = SimpleNamespace(**{**vars(sqlite3), "connect": connect})
    monkeypatch.setattr(executor, "sqlite3", fake)


@pytest.fixture()
def opened(monkeypatch):
    """The SQL of every statement the executor runs, in order, on any
    connection."""
    log = []
    _wrap_connect(monkeypatch, lambda _target, connection: _LoggingConnection(connection, log))
    return log


class _GuardedConnection:
    """A real connection that runs each statement to its last row inside
    execute, and notes when a statement starts while another one runs."""

    def __init__(self, connection):
        self._connection = connection
        self._running = threading.Lock()
        self.overlapped = False

    def execute(self, sql):
        if not self._running.acquire(blocking=False):
            self.overlapped = True
            self._running.acquire()
        try:
            cursor = self._connection.execute(sql)
            rows = cursor.fetchall()
            return SimpleNamespace(fetchall=lambda: rows, description=cursor.description)
        finally:
            self._running.release()

    def __getattr__(self, name):
        return getattr(self._connection, name)


@pytest.fixture()
def connections(monkeypatch):
    """(thread id, database URI, connection) for every connection the
    executor opens, in order. Each connection is a _GuardedConnection."""
    made = []

    def record(target, connection):
        guarded = _GuardedConnection(connection)
        made.append((threading.get_ident(), target, guarded))
        return guarded

    _wrap_connect(monkeypatch, record)
    return made
