import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from cpl.ast import (
    Amount,
    Chain,
    ConceptId,
    Quantity,
    ResultTerm,
    Rule,
    Scene,
    Span,
)
from cpl.check import (
    Contradiction,
    check_all,
    check_scene,
    scene_contradictions,
    validate_rule,
)
from cpl.parser import format_scene, parse_scene

import oracles
from genhelpers import corrupt_results, make_entities, make_rule, make_scene


def scene_of(text):
    result = parse_scene(text)
    assert result.scene is not None, [str(d) for d in result.diagnostics]
    return result.scene


WRAP = ("scene S {{ entities {{ Pot as P; Tap as T; Water as W; "
        "Kitchen as K; Cupboard as D; }} rules {{ {rules} }} }}")


def test_valid_rule_passes():
    scene = scene_of(WRAP.format(
        rules="r2: P + T.W -> P.W.T where W < T, W < P, P - T;"))
    assert validate_rule(scene.rules[0]) == []


def test_wrong_result_order_flagged():
    scene = scene_of(WRAP.format(rules="r1: P + K.D -> P.K.D;"))
    found = validate_rule(scene.rules[0])
    assert len(found) == 1
    assert "expected Pot.Cupboard.Kitchen" in found[0].message


def test_cooking_rules_all_validate(cooking_scene):
    for rule in cooking_scene.rules:
        assert validate_rule(rule) == []


def test_split_form_accepted():
    scene = scene_of(WRAP.format(
        rules="r1: P + T.W(x) -> P.W(y) ^ T.W(x-y);"))
    assert validate_rule(scene.rules[0]) == []


def test_quantity_conservation_pass():
    scene = scene_of(WRAP.format(
        rules="r1: P + T.W(2) -> P.W(1) ^ T.W(2-1);"))
    assert validate_rule(scene.rules[0]) == []


def test_quantity_taken_exceeds_total():
    scene = scene_of(WRAP.format(
        rules="r1: P + T.W(2) -> P.W(3) ^ T.W(x);"))
    found = validate_rule(scene.rules[0])
    assert any("exceeds total" in d.message for d in found)


def test_quantity_taken_negative():
    scene = scene_of(WRAP.format(
        rules="r1: P + T.W(2) -> P.W(0-3) ^ T.W(x);"))
    found = validate_rule(scene.rules[0])
    assert any("negative" in d.message for d in found)


def test_quantity_unbalanced_remainder():
    scene = scene_of(WRAP.format(
        rules="r1: P + T.W(5) -> P.W(1) ^ T.W(5-2);"))
    found = validate_rule(scene.rules[0])
    assert any("does not balance" in d.message for d in found)


def test_quantity_remainder_written_before_taken():
    scene = scene_of(WRAP.format(
        rules="r1: P + T.W(5) -> T.W(5-2) ^ P.W(1);"))
    found = validate_rule(scene.rules[0])
    assert [d.message for d in found] == [
        "quantity does not balance: taken 1 plus remainder 5-2 is not "
        "total 5 (r1)"]


def test_hand_built_split_form_checks_as_parsed():
    """Split amounts are read off the result terms, so a rule built in
    code checks as its formatted and reparsed text does."""
    pot, tap, water = "Pot", "Tap", "Water"
    rule = Rule("r1", (pot,), (Chain((tap, water), Quantity(Amount(3))),),
                (ResultTerm((pot, water), (None, Amount(5))),
                 ResultTerm((tap, water), (None, Amount(3, 5)))), (),
                ordinal=1)
    scene = Scene("S", (ConceptId(pot, "P"), ConceptId(tap, "T"),
                        ConceptId(water, "W")), None, (rule,))
    message = "quantity taken 5 exceeds total 3 (r1)"
    assert [d.message for d in check_all(scene)] == [message]
    again = scene_of(format_scene(scene))
    assert [d.message for d in check_all(again)] == [message]
    assert again == scene


def test_symbolic_amounts_unchecked():
    # A symbolic remainder is not checked beside a numeric total either.
    for rules in ("r1: P + T.W(x) -> P.W(y) ^ T.W(x-y);",
                  "r1: P + T.W(2) -> P.W(1) ^ T.W(2-x);"):
        scene = scene_of(WRAP.format(rules=rules))
        assert validate_rule(scene.rules[0]) == []


@given(st.integers(0, 10**9))
def test_generated_rules_validate_iff_uncorrupted(seed):
    rng = random.Random(seed)
    names = [c.name for c in make_entities(rng, rng.randint(3, 6))]
    rule = make_rule(rng, names, 1)
    if not rule.inputs:
        assert validate_rule(rule) == []
        return
    clean = [d for d in validate_rule(rule) if "derivation" in d.message]
    assert clean == []
    broken = corrupt_results(rng, rule)
    assert any("derivation" in d.message for d in validate_rule(broken))


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_validate_rule_matches_counter_oracle(seed):
    """Sorted term lists judge a rule as the Counter multisets did: on
    generated rules (split forms and amounts included), their declared
    results shuffled, and their corrupted copies."""
    rng = random.Random(seed)
    names = [c.name for c in make_entities(rng, rng.randint(3, 6))]
    rule = make_rule(rng, names, 1)
    variants = [rule]
    if rule.inputs:
        terms = list(rule.declared_results)
        rng.shuffle(terms)
        variants += [rule._replace(declared_results=tuple(terms)),
                     corrupt_results(rng, rule)]
    for variant in variants:
        assert validate_rule(variant) == oracles.validate_rule(variant)


def _chains_rule(rng: random.Random) -> Rule:
    """A rule of one to six chains over five names, some equal to an
    earlier chain and some spelling an earlier chain's inverted term for
    the first output, most with an amount.  Each chain declares its
    inverted term or its split form, the split form now and then without
    an amount, and a term may be dropped or repeated."""
    names = ["A", "B", "C", "D", "E"]
    outputs = tuple(rng.choice(names) for _ in range(rng.randint(1, 2)))
    chains: list[tuple[str, ...]] = []
    for _ in range(rng.randint(1, 6)):
        pick, earlier = rng.random(), rng.choice(chains) if chains else ()
        if earlier and pick < 0.25:
            chains.append(earlier)
        elif earlier and pick < 0.6 and outputs[0] not in earlier:
            chains.append((outputs[0],) + earlier[::-1])
        else:
            chains.append(tuple(rng.sample(names, rng.randint(2, 3))))
    inputs = tuple(Chain(c, Quantity(Amount(2)) if rng.random() < 0.7 else None)
                   for c in chains)
    terms = []
    for chain in inputs:
        if rng.random() < 0.5 and (chain.quantity or rng.random() < 0.1):
            terms += oracles.split_result(outputs, chain)
        else:
            terms += oracles.derive_result(outputs, [chain])
    if rng.random() < 0.1:
        terms.pop(rng.randrange(len(terms)))
    elif rng.random() < 0.1:
        terms.append(rng.choice(terms))
    rng.shuffle(terms)
    declared = tuple(ResultTerm(t, (None,) * len(t)) for t in terms)
    return Rule("r", outputs, inputs, declared, ())


def test_validate_rule_matches_every_choice_of_forms():
    """The check settles each chain's form without listing every choice of
    forms, and judges as the oracle's list of all choices does, also where
    one chain's split remainder is another's inverted term."""
    rng = random.Random(0xC4A1)
    verdicts = Counter()
    for _ in range(3000):
        rule = _chains_rule(rng)
        got = validate_rule(rule)
        assert got == oracles.validate_rule(rule), rule
        declared = Counter(term.concepts for term in rule.declared_results)
        assert (got == []) == (declared in oracles._acceptable_counters(rule))
        verdicts[got == []] += 1
    assert min(verdicts.values()) > 500, verdicts


def _amounts_rule(rng: random.Random) -> Rule:
    """A rule of one to six chains with totals whose terms write split
    amounts: ``O.F`` terms, at times two for one effector, terms that
    repeat a chain, and two-concept chains whose source is an output, so
    that one term is both ``O.F`` and the chain."""
    names = ["A", "B", "C", "D"]
    outputs = tuple(rng.sample(names, rng.randint(1, 2)))
    others = [name for name in names if name not in outputs]

    def amount() -> Amount | None:
        return rng.choice([None, Amount(rng.randint(-1, 6)), Amount("x"),
                           Amount(5, rng.randint(0, 6))])

    inputs, terms = [], []
    for line in range(1, rng.randint(2, 7)):
        if rng.random() < 0.4:
            elements = (rng.choice(outputs), rng.choice(others))
        else:
            elements = tuple(rng.sample(names, rng.randint(2, 3)))
        total = Amount(rng.randint(0, 6)) if rng.random() < 0.8 else Amount("t")
        chain = Chain(elements, Quantity(total, Span(line, 1)))
        inputs.append(chain)
        for _ in range(rng.choice([0, 1, 1, 2])):
            terms.append(((rng.choice(outputs), chain.effector),
                          (None, amount())))
        if rng.random() < 0.7:
            terms.append((elements, (None,) * (len(elements) - 1)
                          + (amount(),)))
        if rng.random() < 0.3:
            inverted = oracles.derive_result(outputs, [chain])[0]
            terms.append((inverted, (None,) * len(inverted)))
    rng.shuffle(terms)
    declared = tuple(ResultTerm(concepts, qtys) for concepts, qtys in terms)
    return Rule("r", outputs, tuple(inputs), declared, ())


def test_split_amounts_match_oracle_check_quantity():
    """Each chain's taken and remainder amounts, read from one index of
    the rule's terms, are those the oracle picks by scanning the terms per
    chain, also where the taken term spells the chain or an effector has
    two ``O.F`` terms."""
    rng = random.Random(0x5A17)
    seen = Counter()
    for _ in range(3000):
        rule = _amounts_rule(rng)
        expected = [d for chain in rule.inputs
                    for d in oracles.check_quantity(rule, chain)]
        got = validate_rule(rule)
        assert got == oracles.validate_rule(rule), rule
        assert [d for d in got if "quantity" in d.message] == expected, rule
        seen["unbalanced"] += any("balance" in d.message for d in expected)
        seen["taken refused"] += any("balance" not in d.message
                                     for d in expected)
        of_terms = Counter(term.concepts for term in rule.declared_results
                           if len(term.concepts) == 2
                           and term.concepts[0] in rule.outputs)
        seen["shared"] += any(chain.elements in of_terms
                              for chain in rule.inputs)
        seen["duplicate"] += any(n > 1 for n in of_terms.values())
    assert min(seen[kind] for kind in ("unbalanced", "taken refused",
                                       "shared", "duplicate")) > 300, seen


def test_cooking_scene_consistent(cooking_scene):
    assert check_all(cooking_scene) == []


def test_reversed_sub_concept(scenes_dir):
    scene = scene_of((scenes_dir / "inconsistent.cpl").read_text())
    found = check_scene(scene)
    assert len(found) == 1
    assert "r1" in found[0].message and "r9" in found[0].message


def test_sub_vs_assoc(scenes_dir):
    scene = scene_of((scenes_dir / "inconsistent_assoc.cpl").read_text())
    found = check_scene(scene)
    assert len(found) == 1
    assert "r2" in found[0].message and "r9" in found[0].message


def test_sub_cycle(scenes_dir):
    scene = scene_of((scenes_dir / "inconsistent_cycle.cpl").read_text())
    found = check_scene(scene)
    assert len(found) == 1
    for cite in ("r1", "r2", "r3"):
        assert cite in found[0].message


def test_containment_cycle():
    scene = scene_of(WRAP.format(
        rules="r1: P + T.W -> P.W.T where W in T;"
              " r2: W + T.P -> W.P.T where T in W;"))
    found = check_scene(scene)
    assert len(found) == 1
    assert "containment" in found[0].message


def test_cycle_contradictions_in_order():
    """A sub-concept two-cycle is reported once, as reversed-sub; both
    cycle kinds cite their rules in edge order, and an edge from one
    cycle into another cites its rule in neither."""
    scene = scene_of(WRAP.format(
        rules="r1: P + T.W -> P.W.T where W in T, K < D;"
              " r2: W + T.P -> W.P.T where T in W, D < K;"
              " r3: P + K.D -> P.D.K where T < W, W < P, P < T,"
              " P in K, K in P; r4: P + T.W -> P.W.T where T in K;"))
    assert scene_contradictions(scene) == [
        Contradiction("containment-cycle", ("Kitchen", "Pot"), ("r3",),
                      "containment forms a cycle through Kitchen, Pot (r3)"),
        Contradiction("containment-cycle", ("Tap", "Water"), ("r2", "r1"),
                      "containment forms a cycle through Tap, Water (r2, r1)"),
        Contradiction("reversed-sub", ("Cupboard", "Kitchen"), ("r2", "r1"),
                      "'Cupboard < Kitchen' (r2) contradicts "
                      "'Kitchen < Cupboard' (r1)"),
        Contradiction("sub-cycle", ("Pot", "Tap", "Water"), ("r3",),
                      "sub-concept relations form a cycle through "
                      "Pot, Tap, Water (r3)"),
    ]


def test_association_and_containment_coexist():
    scene = scene_of(WRAP.format(
        rules="r1: P + K.D -> P.D.K where D - P, P in D;"))
    assert check_scene(scene) == []


def test_duplicate_relations_merge_silently():
    scene = scene_of(WRAP.format(
        rules="r1: P + T.W -> P.W.T where W < T;"
              " r2: P + T.W -> P.W.T where W < T;"))
    assert check_scene(scene) == []


def _permuted(scene: Scene, rng: random.Random) -> Scene:
    rules = list(scene.rules)
    rng.shuffle(rules)
    return Scene(scene.name, scene.entities, scene.root, tuple(rules))


def test_check_is_order_insensitive(scenes_dir):
    scene = scene_of((scenes_dir / "inconsistent.cpl").read_text())
    baseline = {(c.kind, frozenset(c.concepts))
                for c in scene_contradictions(scene)}
    rng = random.Random(7)
    for _ in range(10):
        shuffled = _permuted(scene, rng)
        got = {(c.kind, frozenset(c.concepts))
               for c in scene_contradictions(shuffled)}
        assert got == baseline


def test_adding_rules_never_removes_contradictions(scenes_dir):
    base = scene_of((scenes_dir / "inconsistent.cpl").read_text())
    extra = scene_of(WRAP.format(
        rules="r10: P + T.W -> P.W.T where W < T;")).rules[0]
    grown = Scene(base.name, base.entities, base.root, base.rules + (extra,))
    before = {(c.kind, frozenset(c.concepts)) for c in scene_contradictions(base)}
    after = {(c.kind, frozenset(c.concepts)) for c in scene_contradictions(grown)}
    assert before <= after


def _grouped_scene(rng: random.Random) -> Scene:
    """8 to 48 generated rules, each over one of eight groups of three
    concepts, so that the relations close cycles of each kind in several
    groups apart."""
    entities = make_entities(rng, 24)
    names = [c.name for c in entities]
    groups = [names[i:i + 3] for i in range(0, len(names), 3)]
    rules = tuple(make_rule(rng, rng.choice(groups), ordinal)
                  for ordinal in range(1, rng.randint(8, 48) + 1))
    return Scene("Grouped", tuple(entities), None, rules)


@given(st.sampled_from([make_scene, _grouped_scene]),
       st.integers(0, 10**9))
def test_contradictions_match_oracle_rescan(make, seed):
    scene = make(random.Random(seed))
    assert scene_contradictions(scene) == oracles.scene_contradictions(scene)


def test_contradictions_match_oracle_rescan_on_bundled_scenes(scenes_dir):
    for path in sorted(scenes_dir.glob("*.cpl")):
        scene = parse_scene(path.read_text(encoding="utf-8")).scene
        if scene is not None:
            assert scene_contradictions(scene) == \
                oracles.scene_contradictions(scene)
