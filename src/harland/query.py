"""Query algebra: expressions, rewrite rules, shared-leaf plans, execution.

Two evaluation paths exist on purpose. naive_eval is the reference: a full
scan over complete snapshots with inline predicate logic. plan/execute is
the production path: the rewritten expression with shared leaves, evaluated
only on candidate documents it cannot vouch for. A view that serves leaf
sources (the repository does) gives each positive leaf a superset of its
matches without loading any document, and names the ids among them that
may not match: the documents enforcing a schema, a collection's members,
the documents holding a content token, or for a value leaf the stored
documents whose bag passes it, united with the documents changed since
their last flush, which are unsure. The comparison leaves of one And on one
property with a lower and an upper bound are served together as one Range:
one slice of the property's postings, plus the multi-valued stored bags
that pass every bound by different values, tested in place. The schema,
membership and content sources list their ids in id order, as the keys of
a dict: an answer drawn from one of them costs a list copy and no sort. An And walks
its smallest part's source, probes the others, and keeps the rest as
residual filters; an Or unions its children's sources when every child
has one; anything else, a negated leaf on its own for one, scans every
document. Only candidates out of id order (a column source, an Or) are
sorted.
A candidate is sure when its sources vouch for it and no residual filter
remains; only the unsure ones are evaluated, with short-circuiting, and
load only the slices of the properties the query references. Tests hold
the two paths equal on randomized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Collection, Iterator, Optional

from harland.errors import UnknownCollection, UnknownSchema
from harland.model import (
    BOOLEAN,
    BYTES,
    ORDERED_TYPES,
    DocumentId,
    DocumentKind,
    DocumentSnapshot,
    Value,
    compare_values,
)


class CmpOp(Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


class Card(Enum):
    SINGLE = "single"
    MULTIPLE = "multiple"


# ---- expression AST ----

class QueryExpr:
    """Base class; concrete expressions are frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class And(QueryExpr):
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError("And needs at least one child")


@dataclass(frozen=True)
class Or(QueryExpr):
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError("Or needs at least one child")


@dataclass(frozen=True)
class Not(QueryExpr):
    child: QueryExpr


@dataclass(frozen=True)
class HasSchema(QueryExpr):
    name: str


@dataclass(frozen=True)
class MemberOf(QueryExpr):
    collection: DocumentId


@dataclass(frozen=True)
class ContentContains(QueryExpr):
    token: str


@dataclass(frozen=True)
class Exists(QueryExpr):
    prop: str


@dataclass(frozen=True)
class Cardinality(QueryExpr):
    prop: str
    card: Card


@dataclass(frozen=True)
class Cmp(QueryExpr):
    prop: str
    op: CmpOp
    literal: Value


def _leaves(expr: QueryExpr) -> Iterator[QueryExpr]:
    """Every leaf predicate of expr, depth first."""
    if isinstance(expr, (And, Or)):
        for child in expr.children:
            yield from _leaves(child)
    elif isinstance(expr, Not):
        yield from _leaves(expr.child)
    else:
        yield expr


def referenced_props(expr: QueryExpr) -> frozenset[str]:
    return frozenset(e.prop for e in _leaves(expr) if isinstance(e, (Exists, Cardinality, Cmp)))


def referenced_schemas(expr: QueryExpr) -> frozenset[str]:
    return frozenset(e.name for e in _leaves(expr) if isinstance(e, HasSchema))


def referenced_collections(expr: QueryExpr) -> frozenset[DocumentId]:
    return frozenset(e.collection for e in _leaves(expr) if isinstance(e, MemberOf))


# ---- the reference evaluator ----

def naive_eval(expr: QueryExpr, view) -> set[DocumentId]:
    """Full-scan reference evaluation over complete committed snapshots.

    view supplies document_ids(), snapshot(id), content_tokens(id),
    schema_exists(name), and document_kind(id). Kept deliberately separate
    from the planner path: this function is the meaning of a query.
    """
    validate_references(expr, view)
    collections: dict[DocumentId, DocumentSnapshot] = {}

    def snap(doc_id: DocumentId) -> Optional[DocumentSnapshot]:
        if doc_id not in collections:
            collections[doc_id] = view.snapshot(doc_id)
        return collections[doc_id]

    def matches(e: QueryExpr, s: DocumentSnapshot) -> bool:
        if isinstance(e, And):
            return all(matches(c, s) for c in e.children)
        if isinstance(e, Or):
            return any(matches(c, s) for c in e.children)
        if isinstance(e, Not):
            return not matches(e.child, s)
        if isinstance(e, HasSchema):
            return e.name in s.enforced
        if isinstance(e, MemberOf):
            return s.doc_id in snap(e.collection).members
        if isinstance(e, ContentContains):
            return e.token.casefold() in view.content_tokens(s.doc_id)
        if isinstance(e, Exists):
            return len(s.values_of(e.prop)) > 0
        if isinstance(e, Cardinality):
            n = len(s.values_of(e.prop))
            return n == 1 if e.card is Card.SINGLE else n >= 2
        if isinstance(e, Cmp):
            for v in s.values_of(e.prop):
                if e.op is CmpOp.EQ:
                    if v == e.literal:
                        return True
                elif e.op is CmpOp.NE:
                    if v.vtype is e.literal.vtype and v != e.literal:
                        return True
                else:
                    if v.vtype is not e.literal.vtype or v.vtype not in ORDERED_TYPES:
                        continue
                    c = compare_values(v, e.literal)
                    if c is None:
                        continue
                    if (
                        (e.op is CmpOp.LT and c < 0)
                        or (e.op is CmpOp.LE and c <= 0)
                        or (e.op is CmpOp.GT and c > 0)
                        or (e.op is CmpOp.GE and c >= 0)
                    ):
                        return True
            return False
        raise TypeError(f"unknown expression {e!r}")

    result = set()
    for doc_id in view.document_ids():
        # not memoized: matches() refers to itself, so whatever its closure
        # holds is freed only by a full garbage collection
        if matches(expr, view.snapshot(doc_id)):
            result.add(doc_id)
    return result


def validate_references(expr: QueryExpr, view) -> None:
    """Unknown schema or non-collection membership target is an error up front."""
    for name in referenced_schemas(expr):
        if not view.schema_exists(name):
            raise UnknownSchema(f"query references undefined schema {name!r}")
    for coll in referenced_collections(expr):
        if view.document_kind(coll) is not DocumentKind.COLLECTION:
            raise UnknownCollection(f"query references {coll} which is not a collection")


# ---- rewrite ----

def rewrite(expr: QueryExpr) -> QueryExpr:
    """Normalize: drop double negation, push Not to the leaves (De Morgan),
    flatten nested And/Or, drop duplicate children."""
    return _push(expr, False)


def _push(e: QueryExpr, negated: bool) -> QueryExpr:
    if isinstance(e, Not):
        return _push(e.child, not negated)
    if isinstance(e, (And, Or)):
        flip = negated
        make_and = isinstance(e, And) != flip
        children: list[QueryExpr] = []
        seen = set()
        for child in e.children:
            sub = _push(child, negated)
            flat = sub.children if isinstance(sub, And if make_and else Or) else (sub,)
            for f in flat:
                if f not in seen:
                    seen.add(f)
                    children.append(f)
        if len(children) == 1:
            return children[0]
        return And(tuple(children)) if make_and else Or(tuple(children))
    # leaf
    return Not(e) if negated else e


# ---- plan nodes ----

class SliceFilter:
    """Leaf predicate over one document, closed-world when negated."""

    __slots__ = ("pred", "negated")

    def __init__(self, pred: QueryExpr, negated: bool):
        self.pred = pred
        self.negated = negated


class BooleanCombine:
    __slots__ = ("op", "children", "parts")

    def __init__(self, op: str, children: tuple):
        self.op = op  # "and" | "or"
        self.children = children
        # what candidates draws sources from: the children, with each Range
        # of an And in place of the leaves it merges
        self.parts = _merge_ranges(children) if op == "and" else children


@dataclass(frozen=True)
class Range:
    """Comparison leaves of one And on one property, each `=`, `<`, `<=`,
    `>` or `>=` against a literal of one ordered type, with a lower and an
    upper bound among them: one source, the documents holding one value
    that passes them all. A bag may pass each leaf by a different value (x
    = {1, 10} passes x > 5 AND x < 3), so a source tests the multi-valued
    bags against every bound too. Never evaluated: the And still evaluates
    its leaves."""

    prop: str
    leaves: tuple


_LOWER = frozenset({CmpOp.EQ, CmpOp.GT, CmpOp.GE})
_UPPER = frozenset({CmpOp.EQ, CmpOp.LT, CmpOp.LE})


def _merge_ranges(children: tuple) -> tuple:
    """children with each group of positive comparison leaves on one
    property and one ordered literal type that has a lower and an upper
    bound replaced, where its first leaf stood, by one leaf node of their
    Range."""
    groups: dict[tuple, list[SliceFilter]] = {}
    for child in children:
        pred = child.pred if isinstance(child, SliceFilter) and not child.negated else None
        if isinstance(pred, Cmp) and pred.op in PASSING_SIGNS and pred.literal.vtype in ORDERED_TYPES:
            groups.setdefault((pred.prop, pred.literal.vtype), []).append(child)
    parts = list(children)
    for group in groups.values():
        ops = {node.pred.op for node in group}
        if len(group) > 1 and ops & _LOWER and ops & _UPPER:
            parts[parts.index(group[0])] = SliceFilter(Range(group[0].pred.prop, tuple(n.pred for n in group)), False)
            for node in group[1:]:
                parts.remove(node)
    return tuple(parts)


@dataclass(frozen=True)
class QueryPlan:
    """A compiled query. Immutable: a repository caches the plan of a query
    text and every cursor of that text shares it. prefetch_slices are the
    slices of prefetch_schemas, resolved when the plan is compiled (a
    defined schema never changes its slice); props are the properties the
    query references."""

    expr: QueryExpr
    root: object  # SliceFilter | BooleanCombine
    prefetch_schemas: frozenset[str]
    props: frozenset[str]
    prefetch_slices: frozenset[int] = frozenset()

    def leaf_nodes(self) -> list[SliceFilter]:
        seen: list[SliceFilter] = []
        marked = set()

        def walk(node):
            if id(node) in marked:
                return
            marked.add(id(node))
            if isinstance(node, SliceFilter):
                seen.append(node)
            else:
                for c in node.children:
                    walk(c)

        walk(self.root)
        return seen


def plan(expr: QueryExpr, registry=None) -> QueryPlan:
    """Compile to a shared-leaf DAG.

    The prefetch set covers every schema the query touches: schemas named
    by HasSchema plus, when a registry is supplied, registered schemas
    containing any referenced property; with a registry, the plan also
    carries their slices, skipping a named schema that is not defined
    (execute raises UnknownSchema for it). So a plan compiled from a
    registry holds while no schema is defined. Within And/Or, children
    that need no stored rows (schema, membership, content tests) run
    first. Each And's range pairs become one Range part for candidates
    (see _merge_ranges).
    """
    normalized = rewrite(expr)
    leaves: dict[tuple, SliceFilter] = {}
    combos: dict[tuple, BooleanCombine] = {}

    def build(e: QueryExpr):
        if isinstance(e, (And, Or)):
            built = [build(c) for c in e.children]
            built.sort(key=_node_cost)
            key = ("and" if isinstance(e, And) else "or", tuple(id(b) for b in built))
            if key not in combos:
                combos[key] = BooleanCombine(key[0], tuple(built))
            return combos[key]
        negated = isinstance(e, Not)
        pred = e.child if negated else e
        key = (pred, negated)
        if key not in leaves:
            leaves[key] = SliceFilter(pred, negated)
        return leaves[key]

    root = build(normalized)
    prefetch = set(referenced_schemas(expr))
    props = referenced_props(expr)
    slices: frozenset[int] = frozenset()
    if registry is not None:
        for prop in props:
            prefetch.update(registry.schemas_containing(prop))
        slices = frozenset(registry.slice_of_schema(name) for name in prefetch if registry.has(name))
    return QueryPlan(expr, root, frozenset(prefetch), props, slices)


def _node_cost(node) -> int:
    if isinstance(node, SliceFilter):
        return 0 if isinstance(node.pred, (HasSchema, MemberOf, ContentContains)) else 1
    return 1 + max((_node_cost(c) for c in node.children), default=0)


# ---- execution ----

class _DocContext:
    """Lazy per-document state for plan evaluation. Property bags for every
    referenced property load in one backend round trip on first use."""

    __slots__ = ("view", "doc_id", "props", "_bags")

    def __init__(self, view, doc_id: DocumentId, props: frozenset[str]):
        self.view = view
        self.doc_id = doc_id
        self.props = props
        self._bags: Optional[dict[str, tuple[Value, ...]]] = None

    def bag(self, prop: str) -> tuple[Value, ...]:
        if self._bags is None:
            self._bags = self.view.bags_of(self.doc_id, self.props)
        return self._bags.get(prop, ())


def leaf_matches(pred: QueryExpr, ctx: _DocContext) -> bool:
    """Shared leaf semantics for the plan path and commit-event matching."""
    view, doc_id = ctx.view, ctx.doc_id
    if isinstance(pred, HasSchema):
        return pred.name in view.enforced_of(doc_id)
    if isinstance(pred, MemberOf):
        return doc_id in view.members_of(pred.collection)
    if isinstance(pred, ContentContains):
        return pred.token.casefold() in view.content_tokens(doc_id)
    if isinstance(pred, (Exists, Cardinality, Cmp)):
        return bag_matches(pred, ctx.bag(pred.prop))
    raise TypeError(f"not a leaf predicate: {pred!r}")


# the compare_values results that pass each operator on an ordered type
PASSING_SIGNS = {CmpOp.EQ: (0,), CmpOp.LT: (-1,), CmpOp.LE: (-1, 0), CmpOp.GT: (1,), CmpOp.GE: (0, 1)}


def bag_matches(pred: QueryExpr, values: tuple[Value, ...]) -> bool:
    """Whether one property's value bag passes an Exists, Cardinality or Cmp
    leaf. Order within the bag does not matter; an empty bag never passes."""
    if isinstance(pred, Exists):
        return len(values) > 0
    if isinstance(pred, Cardinality):
        n = len(values)
        return n == 1 if pred.card is Card.SINGLE else n >= 2
    lit, op = pred.literal, pred.op
    if op is CmpOp.EQ:
        for v in values:
            if v == lit:
                return True
        return False
    if op is CmpOp.NE:
        for v in values:
            if v.vtype is lit.vtype and v != lit:
                return True
        return False
    if lit.vtype is BOOLEAN or lit.vtype is BYTES:  # unordered types
        return False
    signs = PASSING_SIGNS[op]
    for v in values:
        if v.vtype is lit.vtype and compare_values(v, lit) in signs:
            return True
    return False


def evaluate_doc(query_plan: QueryPlan, view, doc_id: DocumentId) -> bool:
    """Evaluate one document against a plan, memoizing shared nodes."""
    ctx = _DocContext(view, doc_id, query_plan.props)
    memo: dict[int, bool] = {}

    def run(node) -> bool:
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, SliceFilter):
            got = leaf_matches(node.pred, ctx)
            result = not got if node.negated else got
        elif node.op == "and":
            result = all(run(c) for c in node.children)
        else:
            result = any(run(c) for c in node.children)
        memo[key] = result
        return result

    return run(query_plan.root)


def execute(query_plan: QueryPlan, view) -> list[DocumentId]:
    """Match set of the plan over the view's committed state, sorted.

    Matching is computed eagerly so the result set is pinned at call time;
    consumers stream the ids afterwards at their own pace.
    """
    validate_references(query_plan.expr, view)
    found = candidates(query_plan, view)
    unsure = found.unsure
    if not unsure:
        return found.ids
    return [d for d in found.ids if d not in unsure or evaluate_doc(query_plan, view, d)]


# ---- candidate sources ----

@dataclass
class Candidates:
    """The candidate documents of a plan, and where they came from."""

    ids: list[DocumentId]  # in id order, each once; a superset of the matches
    unsure: AbstractSet[DocumentId]  # the ids execute evaluates; every other id matches
    sources: list[tuple]   # (source, leaf, candidate count) per leaf or Range used; ("scan", None, n) for a full scan

    @property
    def exact(self) -> bool:
        """Whether ids is the match set itself: no document is evaluated."""
        return not self.unsure

    @property
    def full_scan(self) -> bool:
        return self.sources[0][0] == "scan"


def candidates(query_plan: QueryPlan, view) -> Candidates:
    """A superset of the plan's matches, drawn from the view's leaf sources,
    with the ids it cannot vouch for.

    A view with leaf_candidates(preds) maps each positive leaf and Range of
    the plan's parts that it can serve to (source, ids, unsure): ids is a
    superset of the live documents that match it, and each id outside
    unsure matches it. A schema, members or content source lists its ids
    as the keys of a dict in id order (_IN_ID_ORDER); a column source lists
    them in no order and may repeat one. An And intersects the sources of
    its sourced parts (a Range in place of the leaves it merges) and leaves
    the rest (negated leaves, for one) as residual filters; an Or unions
    its children's sources only when every child has one. Anything else,
    and any view without sources, falls back to every document, all of
    them unsure. See _combine for which ids stay sure. Candidates in id
    order cost one list copy; only the others are sorted.
    """
    sources: list[tuple] = []
    found = None
    serve = getattr(view, "leaf_candidates", None)
    if serve is not None:
        found = _combine(query_plan.root, serve(set(_sourced(query_plan.root))), sources)
    if found is None:
        ids = sorted(view.document_ids())
        return Candidates(ids, set(ids), [("scan", None, len(ids))])
    ids, unsure, in_order = found
    return Candidates(list(ids) if in_order else sorted(ids), unsure, sources)


# the sources whose ids are, by contract, the keys of a dict in id order
_IN_ID_ORDER = frozenset({"schema", "members", "content"})


def _combine(node, served: dict, sources: list) -> Optional[tuple[Collection, set, bool]]:
    """(ids, unsure, in_order), or None when node has no source: ids a dict
    or set of a superset of node's matches, a dict in id order when
    in_order; unsure the ids among them that may not match. Appends each
    leaf source used to sources.

    A source in id order is handed on as it is, never copied; a column
    source becomes a set. An And walks its smallest part and keeps the ids
    that each other part holds, probed through that part's dict or set,
    so it costs its smallest source, not its largest; its ids keep the
    smallest part's order. An Or is the set union of its children. An id
    is sure in an And when it is sure in every part and no part is a
    residual filter, and sure in an Or when it is sure in some child."""
    if isinstance(node, SliceFilter):
        got = None if node.negated else served.get(node.pred)
        if got is None:
            return None
        source, ids, unsure = got
        in_order = source in _IN_ID_ORDER
        if not in_order:
            ids = set(ids)
        sources.append((source, node.pred, len(ids)))
        return ids, set(unsure), in_order
    mark = len(sources)
    parts = []
    for part in node.parts:
        got = _combine(part, served, sources)
        if got is None and node.op == "or":
            del sources[mark:]
            return None
        parts.append(got)
    sourced = [p for p in parts if p is not None]
    if not sourced:
        return None
    if node.op == "or":

        def sure(doc_id) -> bool:
            return any(doc_id in ids and doc_id not in maybe for ids, maybe, _ in sourced)

        merged = set().union(*(ids for ids, _, _ in sourced))
        return merged, {d for _, maybe, _ in sourced for d in maybe if not sure(d)}, False
    sourced.sort(key=lambda part: len(part[0]))
    ids, _, in_order = sourced[0]
    for other, _, _ in sourced[1:]:
        kept = filter(other.__contains__, ids)
        ids = dict.fromkeys(kept) if in_order else set(kept)
    if len(sourced) < len(parts):  # a residual filter decides every id
        return ids, set(ids), in_order
    maybe = set().union(*(maybe for _, maybe, _ in sourced))
    return ids, maybe.intersection(ids), in_order


def _sourced(node) -> Iterator[QueryExpr]:
    """The pred of each positive leaf node that _combine may ask for."""
    if isinstance(node, SliceFilter):
        if not node.negated:
            yield node.pred
    else:
        for part in node.parts:
            yield from _sourced(part)
