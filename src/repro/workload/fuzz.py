"""Seeded random RA query generation for differential backend testing.

The SQLite backend claims bit-for-bit agreement with the in-process engine;
that claim is only worth something if it is checked on queries nobody wrote
by hand.  This module provides the pieces the differential suites
(``tests/test_fuzz_differential.py`` and the counterexample mode of
``tests/test_fuzz_counterexamples.py``) are built from:

* :class:`QueryFuzzer` — a schema-aware, depth-bounded random generator
  covering the full SPJUDA language (selection, projection, theta/natural
  join, union, difference, intersection, rename, group-by/aggregate) plus
  optional ``@parameter`` bindings.  Every query is derived from one integer
  seed, so any failure reproduces from ``(schema, seed)`` alone.  The
  ``join_heavy`` flag re-weights generation toward deep join trees whose
  equi-join keys follow declared foreign keys — the shapes the cost-based
  optimizer rewrites — without disturbing the default mode's seed streams.
* :func:`perturb_instance` — seeded random instance mutations (tuple
  deletions and synthesized insertions), so backends are compared on data
  they were not tuned for, including NULLs in nullable columns.
* :func:`to_dsl` — renders a generated (or mutated) expression back into
  parseable DSL text.  Failures print this text as the reproduction
  one-liner, and round-tripping through :func:`~repro.parser.ra_parser.parse_query`
  is itself part of what the fuzz suite checks.
* :class:`CounterexampleFuzzer` / :func:`run_counterexample_fuzz` — the
  **counterexample mode**: generated queries are turned into wrong-query
  pairs with the mutation operators of :mod:`repro.workload.mutations`, every
  applicable algorithm from :data:`repro.core.finder.ALGORITHMS` is run on
  each pair, and every returned witness is machine-verified
  (:func:`repro.core.verify.verify_counterexample`) — valid, FK-closed and,
  where ``optimal`` was claimed, cross-checked minimal.  A failure prints a
  ``seed`` + DSL reproduction one-liner.

Generated queries are deliberately *boring* in two respects: literals are
drawn from values that actually occur in the instance (so selections and
joins are non-trivially selective), and SUM/AVG aggregates are restricted to
integer attributes — float accumulation order differs between backends, and
the suite asserts exact equality, not tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.catalog.instance import DatabaseInstance
from repro.catalog.schema import DatabaseSchema, RelationSchema
from repro.catalog.types import DataType
from repro.ra.ast import (
    AggregateFunction,
    AggregateSpec,
    Difference,
    GroupBy,
    Intersection,
    Join,
    NaturalJoin,
    Projection,
    RAExpression,
    RelationRef,
    Rename,
    Selection,
    Union,
)
from repro.ra.predicates import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    Param,
    Predicate,
    Scalar,
    TruePredicate,
)

_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")
_ORDERED_OPS = ("<", "<=", ">", ">=")


# ---------------------------------------------------------------------------
# DSL rendering
# ---------------------------------------------------------------------------


def _dsl_literal(value: Any) -> str:
    """Render a constant so the DSL lexer reads back the same value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        if "e" in text or "E" in text or "inf" in text or "nan" in text:
            raise ValueError(f"float literal {value!r} is not expressible in the DSL")
        return text
    if isinstance(value, str):
        if "'" in value:
            raise ValueError(f"string literal {value!r} contains a quote")
        return f"'{value}'"
    raise ValueError(f"cannot render literal {value!r} in the DSL")


def _dsl_scalar(scalar: Scalar) -> str:
    if isinstance(scalar, ColumnRef):
        return scalar.name
    if isinstance(scalar, Literal):
        return _dsl_literal(scalar.value)
    if isinstance(scalar, Param):
        return f"@{scalar.name}"
    raise ValueError(
        f"scalar of type {type(scalar).__name__} is not expressible in the DSL"
    )


def _dsl_predicate(predicate: Predicate) -> str:
    if isinstance(predicate, TruePredicate):
        # The DSL has no TRUE literal; a tautology evaluates identically.
        return "0 = 0"
    if isinstance(predicate, Comparison):
        op = "<>" if predicate.op == "!=" else predicate.op
        return f"{_dsl_scalar(predicate.left)} {op} {_dsl_scalar(predicate.right)}"
    if isinstance(predicate, And):
        return " and ".join(f"({_dsl_predicate(p)})" for p in predicate.operands)
    if isinstance(predicate, Or):
        return " or ".join(f"({_dsl_predicate(p)})" for p in predicate.operands)
    if isinstance(predicate, Not):
        return f"not ({_dsl_predicate(predicate.operand)})"
    raise ValueError(
        f"predicate of type {type(predicate).__name__} is not expressible in the DSL"
    )


def to_dsl(expression: RAExpression) -> str:
    """Parseable DSL text for an expression (the fuzzer's repro format).

    Raises :class:`ValueError` for constructs the DSL cannot express
    (arithmetic scalars, relation-name renames, ``TruePredicate`` joins).
    """
    if isinstance(expression, RelationRef):
        return expression.name
    if isinstance(expression, Selection):
        return f"\\select_{{{_dsl_predicate(expression.predicate)}}} ({to_dsl(expression.child)})"
    if isinstance(expression, Projection):
        if expression.aliases is None:
            columns = ", ".join(expression.columns)
        else:
            columns = ", ".join(
                f"{c} -> {a}" for c, a in zip(expression.columns, expression.aliases)
            )
        return f"\\project_{{{columns}}} ({to_dsl(expression.child)})"
    if isinstance(expression, Rename):
        if expression.relation_name is not None:
            raise ValueError("relation-name renames are not expressible in the DSL")
        if expression.prefix is not None:
            return f"\\rename_{{prefix: {expression.prefix}}} ({to_dsl(expression.child)})"
        mapping = ", ".join(f"{old} -> {new}" for old, new in expression.attribute_mapping)
        return f"\\rename_{{{mapping}}} ({to_dsl(expression.child)})"
    if isinstance(expression, Join):
        left, right = to_dsl(expression.left), to_dsl(expression.right)
        if expression.predicate is None:
            return f"({left}) \\cross ({right})"
        return f"({left}) \\join_{{{_dsl_predicate(expression.predicate)}}} ({right})"
    if isinstance(expression, NaturalJoin):
        return f"({to_dsl(expression.left)}) \\join ({to_dsl(expression.right)})"
    if isinstance(expression, Union):
        return f"({to_dsl(expression.left)}) \\union ({to_dsl(expression.right)})"
    if isinstance(expression, Difference):
        return f"({to_dsl(expression.left)}) \\diff ({to_dsl(expression.right)})"
    if isinstance(expression, Intersection):
        return f"({to_dsl(expression.left)}) \\intersect ({to_dsl(expression.right)})"
    if isinstance(expression, GroupBy):
        group = ", ".join(expression.group_by)
        aggregates = ", ".join(
            f"{spec.func.value}({spec.attribute if spec.attribute is not None else '*'})"
            f" -> {spec.alias}"
            for spec in expression.aggregates
        )
        return f"\\aggr_{{group: {group} ; {aggregates}}} ({to_dsl(expression.child)})"
    raise ValueError(f"cannot render node of type {type(expression).__name__}")


# ---------------------------------------------------------------------------
# Instance perturbation
# ---------------------------------------------------------------------------


def perturb_instance(
    instance: DatabaseInstance,
    seed: int,
    *,
    delete_fraction: float = 0.25,
    insert_fraction: float = 0.3,
    null_fraction: float = 0.2,
) -> DatabaseInstance:
    """A seeded random mutation of ``instance`` (same schema, new data).

    Each tuple survives with probability ``1 - delete_fraction``; each
    relation then gains ``round(len * insert_fraction)`` synthesized tuples
    whose values are drawn from the relation's existing values (plus
    occasional fresh ones, and NULLs in nullable columns), so joins still
    find partners.  Integrity constraints are *not* re-established: the
    engines under test must agree on dirty data too.
    """
    rng = random.Random(seed)
    perturbed = DatabaseInstance(instance.schema)
    for name, relation in instance.relations.items():
        schema = relation.schema
        survivors = [
            values
            for _, values in relation.tuples()
            if rng.random() >= delete_fraction
        ]
        pools: list[list[Any]] = []
        for index, attr in enumerate(schema.attributes):
            pool = [values[index] for _, values in relation.tuples()]
            pools.append(pool or [_fresh_value(rng, attr.dtype)])
        inserted = []
        for _ in range(round(len(relation) * insert_fraction)):
            row = []
            for index, attr in enumerate(schema.attributes):
                if attr.nullable and rng.random() < null_fraction:
                    row.append(None)
                elif rng.random() < 0.15:
                    row.append(_fresh_value(rng, attr.dtype))
                else:
                    row.append(rng.choice(pools[index]))
            inserted.append(tuple(row))
        target = perturbed.relation(name)
        for values in survivors + inserted:
            target.insert(values)
    return perturbed


def _fresh_value(rng: random.Random, dtype: DataType) -> Any:
    if dtype is DataType.INT:
        return rng.randint(0, 999)
    if dtype is DataType.FLOAT:
        return round(rng.uniform(0.0, 99.0), 2)
    if dtype is DataType.BOOL:
        return rng.random() < 0.5
    return f"v{rng.randint(0, 999)}"


# ---------------------------------------------------------------------------
# Query generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzQuery:
    """One generated query: expression, its DSL text, and parameter values."""

    seed: int
    expression: RAExpression
    dsl: str
    params: "dict[str, Any]" = field(default_factory=dict)

    def repro(self) -> str:
        """The reproduction one-liner printed on a differential failure."""
        text = f"seed={self.seed} query: {self.dsl}"
        if self.params:
            text += f" params={self.params!r}"
        return text


class QueryFuzzer:
    """Schema-aware random generator of evaluable RA queries.

    Deterministic per ``(schema contents, seed)``: :meth:`query` derives all
    randomness from the given seed, never from global state.  Pass the
    ``instance`` the queries will run on so literals are drawn from live
    column values (selective predicates, joinable constants).
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        *,
        instance: DatabaseInstance | None = None,
        max_depth: int = 4,
        allow_aggregates: bool = True,
        allow_params: bool = True,
        join_heavy: bool = False,
    ) -> None:
        self.schema = schema
        self.max_depth = max_depth
        self.allow_aggregates = allow_aggregates
        self.allow_params = allow_params
        self.join_heavy = join_heavy
        self._foreign_keys = tuple(schema.foreign_keys())
        self._pools = self._value_pools(instance)

    def _value_pools(self, instance: DatabaseInstance | None) -> dict[DataType, list[Any]]:
        pools: dict[DataType, list[Any]] = {
            DataType.INT: [0, 1, 2, 5, 10, 100],
            DataType.FLOAT: [0.5, 1.5, 2.5, 10.25],
            DataType.STRING: ["a", "b", "c"],
            DataType.BOOL: [True, False],
        }
        if instance is None:
            return pools
        seen: dict[DataType, list[Any]] = {dtype: [] for dtype in pools}
        for relation in instance.relations.values():
            for index, attr in enumerate(relation.schema.attributes):
                bucket = seen[attr.dtype]
                for _, values in relation.tuples():
                    value = values[index]
                    if value is None or value in bucket:
                        continue
                    if isinstance(value, str) and "'" in value:
                        continue  # not expressible in the DSL
                    if isinstance(value, float) and "e" in repr(value):
                        continue
                    bucket.append(value)
                    if len(bucket) >= 24:
                        break
        for dtype, bucket in seen.items():
            if bucket:
                pools[dtype] = bucket
        # Off-by-one neighbours make <=/< boundaries interesting.
        pools[DataType.INT] = pools[DataType.INT] + [
            v + 1 for v in pools[DataType.INT][:4]
        ]
        return pools

    # -- public API ---------------------------------------------------------

    def query(self, seed: int) -> FuzzQuery:
        """Generate the query for ``seed`` (same seed → same query)."""
        # A string seed hashes via SHA-512 inside Random, so generation is
        # stable across processes regardless of PYTHONHASHSEED.
        rng = random.Random(f"repro-fuzz-{seed}")
        params: dict[str, Any] = {}
        expression = self._expression(rng, self.max_depth, params)
        return FuzzQuery(
            seed=seed, expression=expression, dsl=to_dsl(expression), params=params
        )

    def queries(self, count: int, *, start: int = 0) -> Iterator[FuzzQuery]:
        """``count`` queries for seeds ``start .. start+count-1``."""
        for seed in range(start, start + count):
            yield self.query(seed)

    # -- generation ---------------------------------------------------------

    def _expression(
        self, rng: random.Random, depth: int, params: "dict[str, Any]"
    ) -> RAExpression:
        if depth <= 0 or rng.random() < (0.1 if self.join_heavy else 0.25):
            return self._base(rng)
        if self.join_heavy:
            # Join-heavy mode: deeper, mostly-join trees whose equi-join keys
            # follow declared foreign keys — the shape join-conjunct sinking,
            # the semijoin pass and the columnar join path optimize.
            # A separate branch so the default mode's random streams (and
            # therefore every historical seed) are untouched.
            generators = [
                (self._gen_selection, 3),
                (self._gen_projection, 2),
                (self._gen_fk_join, 8),
                (self._gen_theta_join, 5),
                (self._gen_natural_join, 2),
                (self._gen_set_op, 1),
            ]
        else:
            generators = [
                (self._gen_selection, 5),
                (self._gen_projection, 4),
                (self._gen_rename, 2),
                (self._gen_theta_join, 4),
                (self._gen_natural_join, 2),
                (self._gen_set_op, 4),
            ]
        if self.allow_aggregates:
            generators.append((self._gen_group_by, 3))
        makers = [g for g, _ in generators]
        weights = [w for _, w in generators]
        for _ in range(6):
            maker = rng.choices(makers, weights=weights)[0]
            candidate = maker(rng, depth, params)
            if candidate is not None:
                return candidate
        return self._base(rng)

    def _base(self, rng: random.Random) -> RAExpression:
        return RelationRef(rng.choice(tuple(self.schema.relations)))

    def _schema_of(self, expression: RAExpression) -> RelationSchema:
        return expression.output_schema(self.schema)

    # Each generator returns None when its preconditions don't hold for the
    # randomly chosen inputs; the caller then rolls another operator.

    def _gen_selection(
        self, rng: random.Random, depth: int, params: "dict[str, Any]"
    ) -> RAExpression | None:
        child = self._expression(rng, depth - 1, params)
        predicate = self._predicate(rng, self._schema_of(child), params)
        if predicate is None:
            return None
        return Selection(child, predicate)

    def _gen_projection(
        self, rng: random.Random, depth: int, params: "dict[str, Any]"
    ) -> RAExpression | None:
        child = self._expression(rng, depth - 1, params)
        schema = self._schema_of(child)
        names = list(schema.attribute_names)
        count = rng.randint(1, len(names))
        columns = rng.sample(names, count)
        if rng.random() < 0.3:
            aliases = tuple(f"x{i + 1}" for i in range(count))
            return Projection(child, tuple(columns), aliases)
        return Projection(child, tuple(columns))

    def _gen_rename(
        self, rng: random.Random, depth: int, params: "dict[str, Any]"
    ) -> RAExpression | None:
        child = self._expression(rng, depth - 1, params)
        schema = self._schema_of(child)
        if rng.random() < 0.5:
            return Rename(child, prefix=f"t{rng.randint(1, 9)}")
        attr = rng.choice(schema.attribute_names)
        new_name = f"renamed_{rng.randint(1, 99)}"
        if schema.has_attribute(new_name):
            return None
        return Rename(child, attribute_mapping=((attr, new_name),))

    def _gen_theta_join(
        self, rng: random.Random, depth: int, params: "dict[str, Any]"
    ) -> RAExpression | None:
        left = Rename(self._expression(rng, depth - 1, params), prefix=f"j{rng.randint(1, 4)}a")
        right = Rename(self._expression(rng, depth - 1, params), prefix=f"j{rng.randint(1, 4)}b")
        left_schema, right_schema = self._schema_of(left), self._schema_of(right)
        pairs = [
            (a.name, b.name)
            for a in left_schema.attributes
            for b in right_schema.attributes
            if a.dtype == b.dtype
        ]
        if not pairs:
            return None
        conjuncts: list[Predicate] = []
        for a, b in rng.sample(pairs, min(len(pairs), rng.randint(1, 2))):
            conjuncts.append(Comparison("=", ColumnRef(a), ColumnRef(b)))
        if rng.random() < 0.3:
            extra = self._comparison(rng, left_schema, params)
            if extra is not None:
                conjuncts.append(extra)
        predicate: Predicate = conjuncts[0] if len(conjuncts) == 1 else And(tuple(conjuncts))
        return Join(left, right, predicate)

    def _gen_fk_join(
        self, rng: random.Random, depth: int, params: "dict[str, Any]"
    ) -> RAExpression | None:
        """A left-deep chain of equi-joins following declared foreign keys.

        Each hop joins the chain's most recent relation to a neighbour in the
        schema's FK graph (either direction), on exactly the FK columns —
        the join shape semijoin reduction looks for.  Hops get distinct
        rename prefixes (``f{tag}r{i}``) so self-joins stay unambiguous, and
        an occasional extra selective filter rides along.
        """
        if not self._foreign_keys:
            return None
        fk = rng.choice(self._foreign_keys)
        tag = rng.randint(1, 9)
        last_rel = fk.child if rng.random() < 0.5 else fk.parent
        current: RAExpression = Rename(RelationRef(last_rel), prefix=f"f{tag}r0")
        last_offset = 0
        hops = rng.randint(1, max(1, min(depth, 3)))
        joined = 0
        for i in range(1, hops + 1):
            neighbours = [
                c for c in self._foreign_keys if last_rel in (c.child, c.parent)
            ]
            if not neighbours:
                break
            hop = rng.choice(neighbours)
            if hop.child == last_rel:
                next_rel = hop.parent
                my_attrs, their_attrs = hop.child_attributes, hop.parent_attributes
            else:
                next_rel = hop.child
                my_attrs, their_attrs = hop.parent_attributes, hop.child_attributes
            right = Rename(RelationRef(next_rel), prefix=f"f{tag}r{i}")
            current_schema = self._schema_of(current)
            right_schema = self._schema_of(right)
            last_base = self.schema.relations[last_rel]
            next_base = self.schema.relations[next_rel]
            conjuncts: list[Predicate] = [
                Comparison(
                    "=",
                    ColumnRef(
                        current_schema.attributes[
                            last_offset + last_base.index_of(a)
                        ].name
                    ),
                    ColumnRef(right_schema.attributes[next_base.index_of(b)].name),
                )
                for a, b in zip(my_attrs, their_attrs)
            ]
            predicate: Predicate = (
                conjuncts[0] if len(conjuncts) == 1 else And(tuple(conjuncts))
            )
            last_offset = current_schema.arity
            current = Join(current, right, predicate)
            last_rel = next_rel
            joined += 1
        if not joined:
            return None
        if rng.random() < 0.3:
            extra = self._comparison(rng, self._schema_of(current), params)
            if extra is not None:
                current = Selection(current, extra)
        return current

    def _gen_natural_join(
        self, rng: random.Random, depth: int, params: "dict[str, Any]"
    ) -> RAExpression | None:
        left = self._expression(rng, depth - 1, params)
        right = self._base(rng)
        node = NaturalJoin(left, right)
        if not node.shared_attributes(self.schema):
            return None  # would degenerate to a cross product — skip
        return node

    def _gen_set_op(
        self, rng: random.Random, depth: int, params: "dict[str, Any]"
    ) -> RAExpression | None:
        left = self._expression(rng, depth - 1, params)
        schema = self._schema_of(left)
        kind = rng.choice((Union, Difference, Intersection))
        if rng.random() < 0.5:
            # Same-shape operand: a filtered version of the left side, so
            # differences and intersections are non-trivially overlapping.
            predicate = self._predicate(rng, schema, params)
            if predicate is None:
                return None
            return kind(left, Selection(left, predicate))
        right = self._projection_with_signature(
            rng, tuple(a.dtype for a in schema.attributes)
        )
        if right is None:
            return None
        return kind(left, right)

    def _projection_with_signature(
        self, rng: random.Random, signature: Sequence[DataType]
    ) -> RAExpression | None:
        """A projection over some base relation matching ``signature`` exactly."""
        candidates = []
        for name, relation in self.schema.relations.items():
            by_type: dict[DataType, list[str]] = {}
            for attr in relation.attributes:
                by_type.setdefault(attr.dtype, []).append(attr.name)
            if all(dtype in by_type for dtype in signature):
                candidates.append((name, by_type))
        if not candidates:
            return None
        name, by_type = rng.choice(candidates)
        columns = tuple(rng.choice(by_type[dtype]) for dtype in signature)
        aliases = tuple(f"u{i + 1}" for i in range(len(columns)))
        return Projection(RelationRef(name), columns, aliases)

    def _gen_group_by(
        self, rng: random.Random, depth: int, params: "dict[str, Any]"
    ) -> RAExpression | None:
        child = self._expression(rng, depth - 1, params)
        schema = self._schema_of(child)
        names = list(schema.attribute_names)
        group_count = rng.randint(0, min(2, len(names)))
        group = tuple(rng.sample(names, group_count))
        aggregates: list[AggregateSpec] = []
        for index in range(rng.randint(1, 2)):
            alias = f"z_agg{index + 1}"
            if schema.has_attribute(alias):
                return None
            choice = rng.random()
            int_columns = [
                a.name for a in schema.attributes if a.dtype is DataType.INT
            ]
            if choice < 0.35 or not names:
                aggregates.append(AggregateSpec(AggregateFunction.COUNT, None, alias))
            elif choice < 0.55 and int_columns:
                # SUM/AVG stay on integers: float accumulation order differs
                # between backends and the differential suite checks equality.
                func = rng.choice((AggregateFunction.SUM, AggregateFunction.AVG))
                aggregates.append(AggregateSpec(func, rng.choice(int_columns), alias))
            elif choice < 0.8:
                func = rng.choice((AggregateFunction.MIN, AggregateFunction.MAX))
                aggregates.append(AggregateSpec(func, rng.choice(names), alias))
            else:
                aggregates.append(
                    AggregateSpec(AggregateFunction.COUNT, rng.choice(names), alias)
                )
        return GroupBy(child, group, tuple(aggregates))

    # -- predicates ---------------------------------------------------------

    def _predicate(
        self, rng: random.Random, schema: RelationSchema, params: "dict[str, Any]"
    ) -> Predicate | None:
        atoms: list[Predicate] = []
        for _ in range(rng.randint(1, 3)):
            atom = self._comparison(rng, schema, params)
            if atom is not None:
                atoms.append(atom)
        if not atoms:
            return None
        if len(atoms) == 1:
            predicate = atoms[0]
        elif rng.random() < 0.6:
            predicate = And(tuple(atoms))
        else:
            predicate = Or(tuple(atoms))
        if rng.random() < 0.2:
            predicate = Not(predicate)
        return predicate

    def _comparison(
        self, rng: random.Random, schema: RelationSchema, params: "dict[str, Any]"
    ) -> Predicate | None:
        attribute = rng.choice(schema.attributes)
        op = rng.choice(
            _COMPARISON_OPS if attribute.dtype is not DataType.BOOL else ("=", "!=")
        )
        if rng.random() < 0.25:
            partners = [
                a.name
                for a in schema.attributes
                if a.name != attribute.name and a.dtype == attribute.dtype
            ]
            if partners:
                return Comparison(op, ColumnRef(attribute.name), ColumnRef(rng.choice(partners)))
        value = rng.choice(self._pools[attribute.dtype])
        right: Scalar = Literal(value)
        if self.allow_params and rng.random() < 0.15:
            name = f"p{len(params) + 1}"
            params[name] = value
            right = Param(name)
        return Comparison(op, ColumnRef(attribute.name), right)


# ---------------------------------------------------------------------------
# Counterexample mode: wrong-query pairs, all algorithms, verified witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WrongQueryPair:
    """A generated (reference, wrong submission) pair that differs on the data."""

    seed: int
    correct: RAExpression
    mutant: RAExpression
    correct_dsl: str
    mutant_dsl: str
    mutation: str
    params: "dict[str, Any]" = field(default_factory=dict)

    def repro(self) -> str:
        """Reproduction one-liner: regenerate with ``CounterexampleFuzzer.pair(seed)``."""
        text = (
            f"seed={self.seed} correct: {self.correct_dsl} || "
            f"mutant ({self.mutation}): {self.mutant_dsl}"
        )
        if self.params:
            text += f" params={self.params!r}"
        return text


@dataclass
class CounterexampleOutcome:
    """One (pair, algorithm) trial: the witness and its verification report."""

    pair: WrongQueryPair
    algorithm: str
    result: "Any | None" = None  # CounterexampleResult
    report: "Any | None" = None  # VerificationReport
    skipped: str | None = None  # reason the algorithm did not produce a witness
    error: str | None = None  # unexpected failure (a bug)

    @property
    def ok(self) -> bool:
        return self.error is None and (self.report is None or self.report.valid)

    def repro(self) -> str:
        detail = self.error or (
            "; ".join(self.report.issues) if self.report is not None else ""
        )
        return f"[{self.algorithm}] {self.pair.repro()} -> {detail}"


class CounterexampleFuzzer:
    """Seeded wrong-query pairs: a generated reference plus one of its mutants.

    Deterministic per ``(instance contents, seed)``: the reference query comes
    from :class:`QueryFuzzer`, the wrong submission from the mutation
    operators the course workload uses (``repro.workload.mutations``), chosen
    by the same seed.  Only pairs that actually *differ* on the instance are
    produced — a mutant that happens to be equivalent on the data is not a
    wrong query in the paper's sense.
    """

    #: How many mutants of one reference query are probed before giving up.
    MUTANTS_PER_SEED = 8

    def __init__(
        self,
        instance: DatabaseInstance,
        *,
        max_depth: int = 3,
        allow_aggregates: bool = True,
        allow_params: bool = True,
        session: "Any | None" = None,
    ) -> None:
        from repro.engine.session import EngineSession

        self.instance = instance
        self.session = session if session is not None else EngineSession(instance)
        self.fuzzer = QueryFuzzer(
            instance.schema,
            instance=instance,
            max_depth=max_depth,
            allow_aggregates=allow_aggregates,
            allow_params=allow_params,
        )
        pools = self.fuzzer._pools
        self._constant_pool = [pool[0] for pool in pools.values() if pool]

    def pair(self, seed: int) -> WrongQueryPair | None:
        """The wrong-query pair for ``seed`` (None when no mutant differs)."""
        from repro.errors import ReproError
        from repro.parser.ra_parser import parse_query
        from repro.workload.mutations import generate_mutants

        fuzz_query = self.fuzzer.query(seed)
        try:
            reference_schema = fuzz_query.expression.output_schema(self.instance.schema)
            reference_rows = self.session.evaluate(fuzz_query.expression, fuzz_query.params)
        except ReproError:
            return None  # the reference query itself does not evaluate
        mutants = generate_mutants(
            fuzz_query.expression, constant_pool=self._constant_pool
        )
        rng = random.Random(f"repro-cexfuzz-{seed}")
        rng.shuffle(mutants)
        for mutant in mutants[: self.MUTANTS_PER_SEED]:
            try:
                mutant_dsl = to_dsl(mutant.query)
            except ValueError:
                continue  # not expressible in the DSL — no reproduction line
            try:
                mutant_schema = mutant.query.output_schema(self.instance.schema)
                mutant_rows = self.session.evaluate(mutant.query, fuzz_query.params)
            except ReproError:
                continue
            if not reference_schema.union_compatible(mutant_schema):
                # A grader rejects schema-incompatible submissions outright
                # (``error_kind="schema_error"``); no counterexample exists.
                continue
            if mutant_rows.same_rows(reference_rows):
                continue
            # The pair must reproduce from DSL text alone; a mutant whose
            # rendering does not parse back cannot carry a repro line, so it
            # is skipped here (DSL round-trip fidelity itself is covered by
            # the differential suite, not this mode).
            try:
                reparsed = parse_query(mutant_dsl)
            except ReproError:
                continue
            return WrongQueryPair(
                seed=seed,
                correct=fuzz_query.expression,
                mutant=reparsed,
                correct_dsl=fuzz_query.dsl,
                mutant_dsl=mutant_dsl,
                mutation=mutant.description,
                params=fuzz_query.params,
            )
        return None

    def pairs(
        self, count: int, *, start: int = 0, max_seeds: int | None = None
    ) -> Iterator[WrongQueryPair]:
        """``count`` wrong pairs, advancing seeds from ``start`` until found."""
        produced = 0
        seed = start
        limit = max_seeds if max_seeds is not None else max(50 * count, 1000)
        while produced < count and seed < start + limit:
            pair = self.pair(seed)
            seed += 1
            if pair is not None:
                produced += 1
                yield pair


def applicable_algorithms(q1: RAExpression, q2: RAExpression) -> tuple[str, ...]:
    """The :data:`repro.core.finder.ALGORITHMS` entries worth running on a pair.

    Aggregate pairs route to the aggregate algorithms; SPJUD pairs run the
    general solvers plus the poly-time specialisations where their query
    classes allow (the specialised entries may still raise
    ``NotApplicableError`` on inspection — callers treat that as a skip, which
    keeps this routing an over-approximation rather than a filter to trust).
    """
    from repro.core.aggregates import is_aggregate_pair
    from repro.ra.analysis import profile

    if is_aggregate_pair(q1, q2):
        return ("agg-opt", "agg-basic")
    names = ["optsigma", "basic"]
    if profile(q1).is_monotone and profile(q2).is_monotone:
        names.append("polytime-dnf")
    names.append("spjud-star")
    return tuple(names)


#: Per-algorithm option overrides keeping fuzz trials bounded: the point is
#: verifying many witnesses, not stress-testing solver scalability.
_FUZZ_ALGORITHM_OPTIONS: "dict[str, dict[str, Any]]" = {
    "basic": {"max_rows": 12},
    "spjud-star": {"max_witnesses_per_terminal": 16, "max_combinations": 2000},
}


def run_counterexample_fuzz(
    instance: DatabaseInstance,
    *,
    pairs: int,
    start: int = 0,
    max_depth: int = 3,
    allow_aggregates: bool = True,
    verify: bool = True,
    bruteforce_budget: int = 5_000,
    enumeration_budget: int = 32,
) -> "list[CounterexampleOutcome]":
    """Counterexample mode: generate, solve with every applicable algorithm, verify.

    Returns one outcome per (wrong pair, algorithm) trial.  ``skipped``
    outcomes are expected (specialised algorithms refusing a query class, the
    aggregate solver exhausting its budget, dirty fuzz data making the FK
    clauses unsatisfiable); ``error`` outcomes and invalid verification
    reports are bugs, and ``CounterexampleOutcome.repro()`` prints the seeded
    DSL one-liner that reproduces them.
    """
    from repro.core.finder import find_smallest_counterexample
    from repro.core.verify import verify_counterexample
    from repro.errors import (
        CounterexampleError,
        NotApplicableError,
        QueryEvaluationError,
        UnsatisfiableError,
    )

    fuzzer = CounterexampleFuzzer(
        instance, max_depth=max_depth, allow_aggregates=allow_aggregates
    )
    outcomes: list[CounterexampleOutcome] = []
    for pair in fuzzer.pairs(pairs, start=start):
        for algorithm in applicable_algorithms(pair.correct, pair.mutant):
            options: dict[str, Any] = dict(_FUZZ_ALGORITHM_OPTIONS.get(algorithm, {}))
            outcome = CounterexampleOutcome(pair=pair, algorithm=algorithm)
            try:
                result = find_smallest_counterexample(
                    pair.correct,
                    pair.mutant,
                    instance,
                    algorithm=algorithm,
                    params=pair.params,
                    session=fuzzer.session,
                    **options,
                )
            except (NotApplicableError, CounterexampleError, UnsatisfiableError) as exc:
                outcome.skipped = f"{type(exc).__name__}: {exc}"
                outcomes.append(outcome)
                continue
            except QueryEvaluationError as exc:
                # Mutants may divide by zero or compare incompatible types on
                # rows only the counterexample search evaluates.
                outcome.skipped = f"QueryEvaluationError: {exc}"
                outcomes.append(outcome)
                continue
            except Exception as exc:  # noqa: BLE001 — a fuzz finding, reported as such
                outcome.error = f"{type(exc).__name__}: {exc}"
                outcomes.append(outcome)
                continue
            outcome.result = result
            if verify:
                outcome.report = verify_counterexample(
                    pair.correct,
                    pair.mutant,
                    instance,
                    result,
                    params=pair.params,
                    session=fuzzer.session,
                    bruteforce_budget=bruteforce_budget,
                    enumeration_budget=enumeration_budget,
                )
            outcomes.append(outcome)
    return outcomes
