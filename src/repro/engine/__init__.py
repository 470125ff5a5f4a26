"""The annotation-generic execution engine.

Queries are compiled from the RA AST into a logical plan
(:mod:`repro.engine.logical`), optimized (:mod:`repro.engine.optimizer` —
selection pushdown and join-conjunct sinking via :mod:`repro.ra.rewrite`,
then, for the Set domain, the hash-join build-side choice from row-count
estimates), and executed by physical operators
(:mod:`repro.engine.physical`) that are generic over an annotation domain
(:mod:`repro.engine.domains`): :class:`SetDomain` yields plain set-semantics
results, :class:`ProvenanceDomain` yields Boolean how-provenance.  Scan,
filter, project and hash join run on columnar batches
(:mod:`repro.engine.columnar`) under every domain, with an annotation column
under all but the Set domain.  There are two plan flavours: the Set domain
runs the full pipeline, order-sensitive domains the pushdown-only plan.  The ``evaluate()`` and ``annotate()``
facades in :mod:`repro.ra.evaluator` and :mod:`repro.provenance.annotate`
are thin wrappers over this package.

:class:`EngineSession` (:mod:`repro.engine.session`) adds structural plan and
result caching across repeated evaluations — the unit of reuse for a grading
session that checks many submissions against one instance.
"""

from repro.engine.backends import BackendUnsupportedError, SqliteBackend
from repro.engine.columnar import ColumnBatch
from repro.engine.domains import (
    PROVENANCE_DOMAIN,
    SET_DOMAIN,
    AnnotationDomain,
    ProvenanceDomain,
    SetDomain,
)
from repro.engine.logical import (
    AggregateOp,
    CrossOp,
    DifferenceOp,
    FilterOp,
    IntersectOp,
    JoinOp,
    PlanNode,
    ProjectOp,
    ScanOp,
    UnionOp,
    compile_plan,
    plan_operators,
    split_equijoin_conjuncts,
)
from repro.engine.optimizer import (
    CardinalityEstimator,
    choose_build_sides,
    optimize_expression,
)
from repro.engine.physical import PlanExecutor, apply_aggregate, compile_predicate
from repro.engine.session import EngineSession
from repro.engine.structural import KeyCache, StructuralKey, structural_hash

__all__ = [
    "AggregateOp",
    "AnnotationDomain",
    "BackendUnsupportedError",
    "CardinalityEstimator",
    "ColumnBatch",
    "CrossOp",
    "DifferenceOp",
    "EngineSession",
    "FilterOp",
    "IntersectOp",
    "JoinOp",
    "KeyCache",
    "PROVENANCE_DOMAIN",
    "PlanExecutor",
    "PlanNode",
    "ProjectOp",
    "ProvenanceDomain",
    "SET_DOMAIN",
    "ScanOp",
    "SetDomain",
    "SqliteBackend",
    "StructuralKey",
    "UnionOp",
    "apply_aggregate",
    "choose_build_sides",
    "compile_plan",
    "compile_predicate",
    "optimize_expression",
    "plan_operators",
    "split_equijoin_conjuncts",
    "structural_hash",
]
