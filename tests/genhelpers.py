"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

import random
from dataclasses import replace

from cpl.ast import (
    Amount,
    Chain,
    ConceptId,
    Quantity,
    Relation,
    RelationKind,
    ResultTerm,
    Rule,
    Scene,
    derive_result,
    split_result,
)

NAME_POOL = [
    "Anchor", "Basin", "Cable", "Dial", "Ember", "Flask", "Grate", "Hinge",
    "Inlet", "Jar", "Kettle", "Ladle", "Mixer", "Nozzle", "Oven", "Plate",
    "Quartz", "Rack", "Sieve", "Tray", "Urn", "Valve", "Wheel", "Yoke",
]

FEATURE_POOL = [f"f{i:02d}" for i in range(30)]


def make_entities(rng: random.Random, count: int) -> list[ConceptId]:
    names = rng.sample(NAME_POOL, count)
    letters = iter("ABCDEFGHJKLMNQRSTUVXYZ")
    entities = []
    for name in names:
        abbrev = next(letters) if rng.random() < 0.5 else None
        entities.append(ConceptId(name, abbrev))
    return entities


def make_chain(rng: random.Random, entities: list[ConceptId],
               max_len: int = 4, with_quantity: bool = False) -> Chain:
    length = rng.randint(2, min(max_len, len(entities)))
    elements = tuple(rng.sample(entities, length))
    quantity = None
    if with_quantity:
        quantity = Quantity(total=_amount(rng))
    return Chain(elements, quantity)


def _amount(rng: random.Random) -> Amount:
    if rng.random() < 0.5:
        return Amount(rng.choice("xyznm"))
    return Amount(rng.randint(0, 9))


def correct_results(outputs, chains) -> tuple[ResultTerm, ...]:
    return tuple(ResultTerm(term, (None,) * len(term))
                 for term in derive_result(outputs, chains))


def make_rule(rng: random.Random, entities: list[ConceptId], ordinal: int,
              labeled: bool = True) -> Rule:
    label = f"g{ordinal}" if labeled else None
    if len(entities) >= 2 and rng.random() < 0.15:
        concept = rng.choice(entities)
        return Rule(label, (concept,), (), (), (), self_loop=True,
                    ordinal=ordinal)
    outputs = tuple(rng.sample(entities, rng.randint(1, min(3, len(entities)))))
    mode = rng.random()
    if mode < 0.2:
        # split amount form: one chain, total plus taken/remainder terms
        chain = make_chain(rng, entities, with_quantity=False)
        taken, remainder = _amount(rng), _amount(rng)
        chain = Chain(chain.elements,
                      Quantity(_amount(rng), taken, remainder))
        split = split_result(outputs, chain)
        terms = []
        for i, term in enumerate(split):
            qtys: list[Amount | None] = [None] * len(term)
            if i == 0:
                qtys[-1] = taken
            elif i == len(split) - 1:
                qtys[-1] = remainder
            terms.append(ResultTerm(term, tuple(qtys)))
        chains: tuple[Chain, ...] = (chain,)
        declared = tuple(terms)
    else:
        n_chains = rng.randint(1, 3)
        chains = tuple(
            make_chain(rng, entities,
                       with_quantity=rng.random() < 0.2)
            for _ in range(n_chains))
        declared = correct_results(outputs, chains)
    relations = make_relations(rng, entities)
    return Rule(label, outputs, chains, declared, relations, ordinal=ordinal)


def make_relations(rng: random.Random,
                   entities: list[ConceptId]) -> tuple[Relation, ...]:
    if len(entities) < 2:
        return ()
    relations = []
    for _ in range(rng.randint(0, 3)):
        left, right = rng.sample(entities, 2)
        kind = rng.choice(list(RelationKind))
        relations.append(Relation(kind, left, right))
    return tuple(relations)


def make_scene(rng: random.Random, name: str = "Generated") -> Scene:
    entities = make_entities(rng, rng.randint(2, 6))
    root = rng.choice(entities) if rng.random() < 0.5 else None
    labeled = rng.random() < 0.8
    rules = tuple(
        make_rule(rng, entities, ordinal, labeled)
        for ordinal in range(1, rng.randint(0, 6) + 1))
    return Scene(name, tuple(entities), root, rules)


def make_reverse_scene(rng: random.Random) -> Scene:
    """A generated scene plus single-chain rules, some re-stated with output
    and source swapped, some repeated as equal copies (kept ordinal or a
    fresh one), all in shuffled order."""
    scene = make_scene(rng)
    entities = list(scene.entities)
    rules = list(scene.rules)
    ordinal = len(rules)

    def simple(output, chain) -> Rule:
        nonlocal ordinal
        ordinal += 1
        chains = (Chain(tuple(chain)),)
        return Rule(f"p{ordinal}", (output,), chains,
                    correct_results((output,), chains), (), ordinal=ordinal)

    for _ in range(rng.randint(0, 8)):
        output, source = rng.sample(entities, 2)
        tail = [rng.choice(entities) for _ in range(rng.randint(1, 2))]
        rules.append(simple(output, [source, *tail]))
        for _ in range(rng.choice((0, 1, 1, 2))):
            rules.append(simple(source, [output, *tail]))
    for _ in range(rng.randint(0, 3)):
        if rules:
            copy = rng.choice(rules)
            if rng.random() < 0.5:
                ordinal += 1
                copy = replace(copy, ordinal=ordinal)
            rules.append(replace(copy))
    rng.shuffle(rules)
    return Scene(scene.name, scene.entities, scene.root, tuple(rules))


def corrupt_results(rng: random.Random, rule: Rule) -> Rule:
    """Damage the declared results so their multiset no longer matches any
    acceptable derivation: swap two adjacent tail elements of a long enough
    term, or drop a term when only two-element terms exist."""
    terms = list(rule.declared_results)
    swappable = [i for i, t in enumerate(terms) if len(t.concepts) >= 3]
    if swappable:
        index = rng.choice(swappable)
        term = terms[index]
        concepts = list(term.concepts)
        at = rng.randrange(1, len(concepts) - 1)
        concepts[at], concepts[at + 1] = concepts[at + 1], concepts[at]
        terms[index] = ResultTerm(tuple(concepts), term.qtys)
    else:
        terms.pop(rng.randrange(len(terms)))
    return Rule(rule.label, rule.outputs, rule.inputs, tuple(terms),
                rule.relations, ordinal=rule.ordinal)


def make_store_entries(rng: random.Random,
                       max_entries: int = 1000,
                       max_features: int = 20) -> dict[str, frozenset[str]]:
    entries = {}
    for i in range(rng.randint(1, max_entries)):
        size = rng.randint(1, max_features)
        entries[f"s{i}"] = frozenset(rng.sample(FEATURE_POOL, size))
    return entries


def vote_oracle(entries: dict[str, frozenset[str]], inputs) -> dict[str, int]:
    """Brute-force scan: every entry containing an input feature votes once
    per matching input for each of its features."""
    votes: dict[str, int] = {}
    for feature in set(inputs):
        for held in entries.values():
            if feature in held:
                for other in held:
                    votes[other] = votes.get(other, 0) + 1
    return votes


def predict_oracle(entries: dict[str, frozenset[str]], inputs,
                   legal, k: int) -> list[tuple[str, int]]:
    votes = vote_oracle(entries, inputs)
    inputs = set(inputs)
    keep = [
        (feature, count) for feature, count in votes.items()
        if feature not in inputs and (legal is None or feature in legal)
    ]
    keep.sort(key=lambda item: (-item[1], item[0]))
    return keep[:k]
