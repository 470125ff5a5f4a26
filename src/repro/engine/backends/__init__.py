"""SQLite as an independent oracle for the engine's set-semantics results.

:class:`~repro.engine.backends.sqlite.SqliteBackend` compiles a query's
pushdown-only logical plan to SQLite SQL and runs it on a ``:memory:`` copy
of the instance, the way the original RATest ran its rewritten queries on
SQL Server.  Grading never calls it: every plan runs on the in-process
operators (:mod:`repro.engine.physical`), and the differential tests compare
those rows with :meth:`SqliteBackend.rows`.  A plan or binding the dialect
cannot express faithfully raises :class:`BackendUnsupportedError` rather
than an answer that might be wrong.
"""

from repro.engine.backends.sqlite import (
    BackendUnsupportedError,
    CompiledPlan,
    SqliteBackend,
    compile_plan_to_sql,
    connect_instance,
    load_instance,
    prepare_connection,
)

__all__ = [
    "BackendUnsupportedError",
    "CompiledPlan",
    "SqliteBackend",
    "compile_plan_to_sql",
    "connect_instance",
    "load_instance",
    "prepare_connection",
]
