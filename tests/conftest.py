from __future__ import annotations

import sqlite3
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
    """A real connection that records each statement it is asked to run."""

    def __init__(self, connection, log):
        self._connection = connection
        self._log = log

    def execute(self, sql):
        self._log.append(sql)
        return self._connection.execute(sql)

    def __getattr__(self, name):
        return getattr(self._connection, name)


@pytest.fixture()
def opened(monkeypatch):
    """The SQL of every connection the executor opens, in order."""
    log = []

    def connect(*args, **kwargs):
        return _LoggingConnection(sqlite3.connect(*args, **kwargs), log)

    fake = SimpleNamespace(connect=connect, Error=sqlite3.Error, Warning=sqlite3.Warning)
    monkeypatch.setattr(executor, "sqlite3", fake)
    return log
