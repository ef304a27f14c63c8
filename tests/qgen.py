"""Randomized query and value generators shared by the query tests and the
acceptance suite. Everything is driven by an explicit random.Random so runs
are reproducible from a seed."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from harland.model import ORDERED_TYPES, DocumentId, Value
from harland.query import (
    And,
    Card,
    Cardinality,
    Cmp,
    CmpOp,
    ContentContains,
    Exists,
    HasSchema,
    MemberOf,
    Not,
    Or,
    QueryExpr,
)


@dataclass
class ExprPools:
    """Raw material the generator draws from."""

    schema_names: list[str]
    prop_names: list[str]
    collections: list[DocumentId]
    tokens: list[str]
    literals: list[Value] = field(default_factory=list)


def gen_value(rng: random.Random) -> Value:
    kind = rng.randrange(6)
    if kind == 0:
        return Value.text(rng.choice(["x", "y", "report", "due", "Status", ""]))
    if kind == 1:
        return Value.integer(rng.randrange(-5, 6))
    if kind == 2:
        return Value.floating(rng.choice([0.0, -0.0, 1.5, -2.25, 3.14, 1e300]))
    if kind == 3:
        return Value.boolean(rng.random() < 0.5)
    if kind == 4:
        return Value.timestamp(rng.randrange(0, 10_000) * 86_400_000)
    return Value.binary(bytes([rng.randrange(256) for _ in range(rng.randrange(3))]))


def gen_leaf(rng: random.Random, pools: ExprPools) -> QueryExpr:
    choices = ["exists", "card", "cmp"]
    if pools.schema_names:
        choices.append("schema")
    if pools.collections:
        choices.append("member")
    if pools.tokens:
        choices.append("content")
    kind = rng.choice(choices)
    if kind == "schema":
        return HasSchema(rng.choice(pools.schema_names))
    if kind == "member":
        return MemberOf(rng.choice(pools.collections))
    if kind == "content":
        return ContentContains(rng.choice(pools.tokens))
    prop = rng.choice(pools.prop_names)
    if kind == "exists":
        return Exists(prop)
    if kind == "card":
        return Cardinality(prop, rng.choice([Card.SINGLE, Card.MULTIPLE]))
    literal = rng.choice(pools.literals) if pools.literals and rng.random() < 0.7 else gen_value(rng)
    return Cmp(prop, rng.choice(list(CmpOp)), literal)


def gen_expr(rng: random.Random, pools: ExprPools, depth: int = 5) -> QueryExpr:
    """Random expression of depth at most `depth`, covering every operator."""
    if depth <= 0 or rng.random() < 0.35:
        return gen_leaf(rng, pools)
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return Not(gen_expr(rng, pools, depth - 1))
    width = rng.randrange(2, 4)
    children = tuple(gen_expr(rng, pools, depth - 1) for _ in range(width))
    return And(children) if kind == "and" else Or(children)


LOWER_OPS = (CmpOp.GT, CmpOp.GE, CmpOp.EQ)
UPPER_OPS = (CmpOp.LT, CmpOp.LE, CmpOp.EQ)


def gen_range(rng: random.Random, pools: ExprPools) -> QueryExpr:
    """An And of a lower and an upper bound on one property against literals
    of one ordered type, drawn independently, so the interval is often
    empty (reversed), a point (`=`, or two inclusive bounds on one literal),
    or a touching pair; now and then with a third bound, another leaf (maybe
    negated) beside them, or inside an Or. pools.literals must hold a value
    of an ordered type."""
    ordered = [v for v in pools.literals if v.vtype in ORDERED_TYPES]
    first = rng.choice(ordered)
    same = [v for v in ordered if v.vtype is first.vtype]
    prop = rng.choice(pools.prop_names)
    leaves: list[QueryExpr] = [
        Cmp(prop, rng.choice(LOWER_OPS), first),
        Cmp(prop, rng.choice(UPPER_OPS), rng.choice(same)),
    ]
    if rng.random() < 0.2:
        leaves.append(Cmp(prop, rng.choice(LOWER_OPS + UPPER_OPS), rng.choice(same)))
    if rng.random() < 0.3:
        leaf = gen_leaf(rng, pools)
        leaves.append(Not(leaf) if rng.random() < 0.3 else leaf)
    rng.shuffle(leaves)
    expr: QueryExpr = And(tuple(leaves))
    if rng.random() < 0.2:
        expr = Or((expr, gen_leaf(rng, pools)))
    return expr
