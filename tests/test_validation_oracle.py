"""The one-property mutation check against the whole-document check.

`SchemaRegistry.validate_mutation` checks only the properties a mutation
changes, against the enforced schemas that constrain them, trusting that
the document conformed before. `whole_document_violations` is the check it
replaced: every constraint of every enforced schema against the proposed
document. Random schemas sharing properties, several enforced per document,
and random set/add/remove/remove-all mutations must give equal violation
lists, order included, both through the repository (the violations a
rejected mutation raises; none for an accepted one) and through
validate_mutation on whole snapshots.
"""

import random

import pytest

from harland.engine import AddValues, CacheConfig, RemoveProperty, RemoveValues, Repository, SetProperty
from harland.errors import NotConforming, SchemaViolation
from harland.model import Constraint, DocumentSnapshot, Schema, Value, ValueType
from harland.schemas import Reason, SchemaRegistry, Violation

PROPS = [f"p{k}" for k in range(6)]
TYPES = (ValueType.INTEGER, ValueType.TEXT, ValueType.BOOLEAN)
COUNTS = ("0..1", "1..1", "0..*", "1..*")


def whole_document_violations(registry: SchemaRegistry, before: DocumentSnapshot, proposed: DocumentSnapshot):
    """Every violation of the proposed document under before's enforced
    schemas, with MissingRequired refined to TooFewValues where the
    property held values before."""
    found = []
    for name in sorted(before.enforced):
        for v in registry.violations(proposed, name):
            if v.reason is Reason.MISSING_REQUIRED and before.values_of(v.prop):
                v = Violation(v.schema, v.prop, Reason.TOO_FEW_VALUES)
            found.append(v)
    return found


def random_value(rng: random.Random, vtype: ValueType) -> Value:
    if vtype is ValueType.INTEGER:
        return Value.integer(rng.randrange(3))
    if vtype is ValueType.TEXT:
        return Value.text(rng.choice("ab"))
    return Value.boolean(rng.random() < 0.5)


def random_schemas(rng: random.Random) -> list[Schema]:
    """Schemas over a shared pool of properties; a property has one
    constraint in every schema that names it, as define() requires."""
    constraints = {p: Constraint.from_text(rng.choice(TYPES).value, rng.choice(COUNTS)) for p in PROPS}
    return [
        Schema(f"s{k}", {p: constraints[p] for p in rng.sample(PROPS, rng.randrange(4))})
        for k in range(rng.randrange(2, 6))
    ]


def random_change(rng: random.Random, types: dict):
    prop = rng.choice(PROPS)

    def values():
        # mostly the property's own type, sometimes a wrong one
        vtype = types[prop] if rng.random() < 0.8 else rng.choice(TYPES)
        return [random_value(rng, vtype) for _ in range(rng.choice((0, 1, 1, 2)))]

    kind = rng.randrange(4)
    if kind == 0:
        return SetProperty(prop, values())
    if kind == 1:
        return AddValues(prop, values())
    if kind == 2:
        return RemoveValues(prop, values())
    return RemoveProperty(prop)


def proposed_by(before: DocumentSnapshot, change) -> DocumentSnapshot:
    properties = dict(before.properties)
    new = Repository._apply_change(before.values_of(change.prop), change)
    if new:
        properties[change.prop] = new
    else:
        properties.pop(change.prop, None)
    return DocumentSnapshot(before.doc_id, before.kind, properties, before.enforced, before.members)


@pytest.mark.parametrize("seed", range(8))
def test_one_property_check_equals_the_whole_document_check(seed):
    rng = random.Random(seed)
    schemas = random_schemas(rng)
    types = {p: ValueType.INTEGER for p in PROPS}
    for schema in schemas:
        for prop, constraint in schema.constraints.items():
            types[prop] = constraint.value_type
    compared = rejected = 0
    with Repository.in_memory(config=CacheConfig(auto_flush=False), id_seed=seed) as repo:
        for schema in schemas:
            repo.define_schema(schema)
        docs = [repo.create_document() for _ in range(4)]
        for _ in range(600):
            doc = rng.choice(docs)
            if rng.random() < 0.2:
                try:
                    doc.enforce(rng.choice(schemas).name)
                except NotConforming:
                    pass
                continue
            if rng.random() < 0.05:
                doc.unenforce(rng.choice(schemas).name)
                continue
            change = random_change(rng, types)
            before = doc.snapshot()
            proposed = proposed_by(before, change)
            expected = whole_document_violations(repo.registry, before, proposed)
            assert repo.registry.validate_mutation(before, proposed) == expected
            try:
                repo.mutate(doc, change)
            except SchemaViolation as e:
                assert e.violations == expected
                assert doc.snapshot() == before  # a rejected mutation changes nothing
                rejected += 1
            else:
                assert expected == []
                assert doc.snapshot() == proposed
            compared += 1
            if before.enforced:
                # the whole-document check: enforced schemas still hold
                assert whole_document_violations(repo.registry, before, doc.snapshot()) == []
    assert compared > 400 and rejected > 10
