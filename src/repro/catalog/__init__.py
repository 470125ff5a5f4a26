"""Schemas, typed instances with tuple identifiers, and integrity constraints."""

from repro.catalog.constraints import (
    Constraint,
    ForeignKeyConstraint,
    FunctionalDependency,
    KeyConstraint,
    NotNullConstraint,
    close_under_foreign_keys,
)
from repro.catalog.instance import DatabaseInstance, Relation, ResultSet, split_tid
from repro.catalog.schema import Attribute, DatabaseSchema, RelationSchema
from repro.catalog.types import DataType, coerce, infer_type

__all__ = [
    "Attribute",
    "Constraint",
    "DataType",
    "DatabaseInstance",
    "DatabaseSchema",
    "ForeignKeyConstraint",
    "FunctionalDependency",
    "KeyConstraint",
    "NotNullConstraint",
    "Relation",
    "RelationSchema",
    "ResultSet",
    "close_under_foreign_keys",
    "coerce",
    "infer_type",
    "split_tid",
]
