import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cpl.ast import (
    Chain,
    Rule,
    derive_result,
    is_reverse_pair,
    normalize_relation,
    reverse_pairs,
)

from cpl.parser import parse_scene

import oracles
from genhelpers import make_chain, make_entities, make_reverse_scene, make_scene

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import scenegen  # noqa: E402

# Mentions are declared names.
P, K, D = "Pot", "Kitchen", "Cupboard"
H, C, B, G = "Heat", "Cooker", "Hob", "Gas"


def test_derive_single_chain():
    terms = derive_result([P], [Chain((K, D))])
    assert terms == [("Pot", "Cupboard", "Kitchen")]


def test_derive_gas_chain():
    terms = derive_result([H], [Chain((C, B, G))])
    assert terms == [("Heat", "Gas", "Hob", "Cooker")]


def test_derive_multi_output_cross_product():
    terms = derive_result(["E1", "E4"], [Chain(("E2", "E3"))])
    assert terms == [("E1", "E3", "E2"), ("E4", "E3", "E2")]


@given(st.integers(0, 10_000))
def test_derive_count_and_involution(seed):
    rng = random.Random(seed)
    names = [c.name for c in make_entities(rng, rng.randint(3, 6))]
    outputs = rng.sample(names, rng.randint(1, 3))
    chains = [make_chain(rng, names) for _ in range(rng.randint(1, 3))]
    terms = derive_result(outputs, chains)
    assert len(terms) == len(outputs) * len(chains)
    for index, term in enumerate(terms):
        chain = chains[index % len(chains)]
        # reversing the tail reconstructs the chain the term came from
        assert tuple(reversed(term[1:])) == chain.elements


def test_normalize_directions():
    rel = normalize_relation(D, "<", K)
    assert rel.kind == "<"
    assert (rel.left, rel.right) == ("Cupboard", "Kitchen")
    flipped = normalize_relation(P, ">", D)
    assert flipped.kind == "<"
    assert (flipped.left, flipped.right) == ("Cupboard", "Pot")
    assoc = normalize_relation(D, "-", P)
    assert assoc.kind == "-"
    contained = normalize_relation(P, "in", D)
    assert contained.kind == "in"


def test_normalize_rejects_self_relation():
    with pytest.raises(ValueError):
        normalize_relation(P, "<", "Pot")


@pytest.mark.parametrize("op", ["=", "<<", "IN", "contains", ""])
def test_normalize_rejects_unknown_operator(op):
    with pytest.raises(ValueError, match="unknown relation operator"):
        normalize_relation(P, op, D)


def test_normalize_idempotent():
    rel = normalize_relation(P, ">", D)
    again = normalize_relation(rel.left, "<", rel.right)
    assert again == rel
    assoc = normalize_relation(D, "-", P)
    assert normalize_relation(assoc.left, "-", assoc.right) == assoc


def _rule(label, output, chain_elements, ordinal=1):
    chain = Chain(tuple(chain_elements))
    terms = tuple()
    return Rule(label, (output,), (chain,), terms, (), ordinal=ordinal)


def test_reverse_pair_detected():
    r5 = _rule("r5", P, (B, H))
    r7 = _rule("r7", B, (P, H), ordinal=2)
    assert is_reverse_pair(r5, r7)
    assert is_reverse_pair(r7, r5)


def test_reverse_pair_disjoint_sources():
    W, T = "Water", "Tap"
    r1 = _rule("r1", P, (K, D))
    r2 = _rule("r2", P, (T, W), ordinal=2)
    assert not is_reverse_pair(r1, r2)


def test_rule_is_not_its_own_reverse():
    r5 = _rule("r5", P, (B, H))
    assert not is_reverse_pair(r5, r5)


def test_reverse_pair_needs_matching_tail():
    W = "Water"
    a = _rule("a", P, (B, H))
    b = _rule("b", B, (P, W), ordinal=2)
    assert not is_reverse_pair(a, b)


def test_reverse_pair_rejects_multi_shapes():
    a = Rule("a", (P, H), (Chain((B, H)),), (), ())
    b = _rule("b", B, (P, H), ordinal=2)
    assert not is_reverse_pair(a, b)


def assert_reverse_pairs_match_oracle(rules):
    for a in rules:
        for b in rules:
            assert is_reverse_pair(a, b) == oracles._is_reverse_pair(a, b)


@given(st.integers(0, 10**9))
def test_reverse_pair_matches_oracle_on_generated_scenes(seed):
    rng = random.Random(seed)
    assert_reverse_pairs_match_oracle(make_reverse_scene(rng).rules)
    generated = scenegen.generate(rng, 8, 30, 0.3, 0.05)
    assert_reverse_pairs_match_oracle(parse_scene(generated.text).scene.rules)


@given(st.integers(0, 10**9))
def test_reverse_pairs_match_all_pairs_scan(seed):
    # By position: equal copies of a rule are different rules.
    rules = make_reverse_scene(random.Random(seed)).rules
    assert reverse_pairs(rules) == oracles.reverse_pairs(rules)


def test_reverse_pair_matches_oracle_on_hand_built_rules():
    r5 = _rule("r5", P, (B, H))
    pot_from_pot = _rule("pp", P, (P, H))
    rules = [
        r5, _rule("r7", B, (P, H)), _rule("long", B, (P, H, C)),
        r5._replace(ordinal=9), pot_from_pot, pot_from_pot._replace(),
        Rule("two-outputs", (B, H), (Chain((P, H)),), (), ()),
        Rule("two-chains", (B,), (Chain((P, H)), Chain((K, D))), (), ()),
        Rule("loop", (P,), (), (), ()),
    ]
    assert_reverse_pairs_match_oracle(rules)
    assert is_reverse_pair(pot_from_pot, pot_from_pot._replace())
    assert not is_reverse_pair(pot_from_pot, pot_from_pot)
    assert not is_reverse_pair(r5, rules[-1])


def test_lhs_concepts_order_and_dedup():
    rule = Rule("r", (P,), (Chain((K, D)), Chain((K, H))), (), ())
    assert rule.lhs_names() == ("Pot", "Kitchen", "Cupboard", "Heat")


@given(st.sampled_from([make_scene, make_reverse_scene]),
       st.integers(0, 10**9))
def test_names_match_first_concept_scan(make, seed):
    scene = make(random.Random(seed))
    assert scene.used_names() == oracles.used_concepts(scene)
    for rule in scene.rules:
        assert rule.lhs_names() == oracles.lhs_concepts(rule)
