"""Divide-and-merge text-to-SQL with adaptive routing and an
execution-accuracy benchmark harness."""

__version__ = "0.1.0"
