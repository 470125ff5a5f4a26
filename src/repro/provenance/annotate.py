"""Provenance-annotated evaluation of SPJUD queries.

For every candidate output tuple of an expression, the annotated evaluator
produces a Boolean how-provenance expression over input-tuple variables.  The
central invariant (tested property-based in ``tests/test_provenance_annotate``)
is::

    for every subinstance D' ⊆ D and candidate row v:
        v ∈ Q(D')  ⇔  Prv_Q(v) evaluates to true under "tid ∈ D'"

and no row outside the candidate set ever appears in ``Q(D')``.

Evaluation is delegated to the annotation-generic engine
(:mod:`repro.engine`): the same physical plans that produce set-semantics
results under :class:`~repro.engine.domains.SetDomain` produce how-provenance
under :class:`~repro.engine.domains.ProvenanceDomain`.  Provenance runs on
the *logically optimized* plan — selection pushdown plus the session's
structural plan/result caches, the same machinery that speeds up grading —
while keeping the deterministic operator order, so annotations still match
the historical bottom-up evaluator expression for expression (the invariant
``tests/test_provenance_engine_path.py`` checks differentially).

:func:`annotate` evaluates on a new session of its own.  The counterexample
algorithms annotate through their explain call's session instead
(:func:`repro.core.common.annotate_cached`), so provenance reuses the scans
and subplans the agreement checks cached.

Aggregate (GroupBy) nodes are handled by :mod:`repro.provenance.aggregate`;
this module raises :class:`NotApplicableError` for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.catalog.instance import DatabaseInstance, Values
from repro.catalog.schema import RelationSchema
from repro.provenance.boolexpr import FALSE, BoolExpr
from repro.ra.ast import RAExpression


ParamValues = Mapping[str, Any]


@dataclass
class AnnotatedRelation:
    """A set of candidate rows, each annotated with a provenance expression."""

    schema: RelationSchema
    provenance: dict[Values, BoolExpr]

    def __len__(self) -> int:
        return len(self.provenance)

    def __contains__(self, row: Values) -> bool:
        return tuple(row) in self.provenance

    def items(self) -> Iterator[tuple[Values, BoolExpr]]:
        return iter(self.provenance.items())

    def expression_for(self, row: Values) -> BoolExpr:
        """Provenance of ``row`` (FALSE for rows that can never appear)."""
        return self.provenance.get(tuple(row), FALSE)

    def rows(self) -> list[Values]:
        return list(self.provenance)


def annotate(
    expression: RAExpression,
    instance: DatabaseInstance,
    params: ParamValues | None = None,
) -> AnnotatedRelation:
    """Compute provenance-annotated results of an SPJUD expression on a new session."""
    # Imported lazily: repro.engine.domains pulls in repro.provenance.boolexpr,
    # so a module-level import here would close an import cycle through the
    # provenance package __init__.
    from repro.engine.session import EngineSession

    schema, rows = EngineSession(instance).annotated_rows(expression, params)
    return AnnotatedRelation(schema, rows)


def provenance_of(
    expression: RAExpression,
    instance: DatabaseInstance,
    row: Values,
    params: ParamValues | None = None,
) -> BoolExpr:
    """How-provenance of one output row w.r.t. ``expression`` and ``instance``."""
    return annotate(expression, instance, params).expression_for(row)
