import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cpl.ast import Amount, ConceptId, Quantity, Rule, Scene
from cpl.parser import _Abort, _Parser, format_scene, parse_scene

import oracles
from genhelpers import make_scene

SCENES = Path(__file__).resolve().parents[1] / "scenes"
BUNDLED = [path.read_text(encoding="utf-8")
           for path in sorted(SCENES.glob("*.cpl"))]

# Pieces of source text: every punctuation mark and "->", comment and line
# marks, a form feed (not a blank), digits run into letters, and letters
# outside ASCII (not identifier characters).
PIECES = [*"{}();:,+-<>^.", "->", "#", "\n", "\r", "\t", "\f", " ", "0",
          "42", "7x", "a", "Zq_9", "_", "\u00e9", "\u03a9", "scene", "in"]
SOURCE_TEXT = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
    st.text(max_size=40))

MINI = """
scene Mini {
  entities {
    Pot as P;
    Kitchen as K;
    Cupboard as D;
    Egg as E;
    Heat as H;
  }
  root Kitchen;
  rules {
    r1: P + K.D -> P.D.K where D < K, D - P;
    r2: E + P.H -> E.H.P where E - H < P;
    r3: P -> P;
  }
}
"""


def parsed(text):
    result = parse_scene(text)
    assert result.scene is not None, [str(d) for d in result.diagnostics]
    return result.scene


def diags(text):
    result = parse_scene(text)
    assert result.scene is None
    return result.diagnostics


def test_parse_mini_scene_shape():
    scene = parsed(MINI)
    assert scene.name == "Mini"
    assert scene.root == "Kitchen"
    assert [c.name for c in scene.entities] == [
        "Pot", "Kitchen", "Cupboard", "Egg", "Heat"]
    r1, r2, r3 = scene.rules
    assert r1.label == "r1" and r1.inputs
    assert r1.outputs == ("Pot",)
    assert r1.inputs[0].elements == ("Kitchen", "Cupboard")
    assert r1.declared_results[0].concepts == ("Pot", "Cupboard", "Kitchen")
    assert r3.inputs == () and r3.outputs == ("Pot",)


def test_relation_chain_desugars_pairwise():
    scene = parsed(MINI)
    r2 = scene.rules[1]
    kinds = [(rel.kind, rel.left, rel.right) for rel in r2.relations]
    assert kinds == [("-", "Egg", "Heat"), ("<", "Heat", "Pot")]


def test_each_operator_parses_to_its_kind_and_formats_back():
    """A relation's kind is its operator; ``>`` is flipped into ``<``."""
    text = ("scene Ops {\n  entities { Pot as P; Heat as H; Egg; Water; }\n"
            "  rules {\n"
            "    r1: Egg + P.H -> Egg.H.P where P > H - Egg in P, Water < P;\n"
            "  }\n}\n")
    scene = parsed(text)
    relations = scene.rules[0].relations
    assert [(rel.kind, rel.left, rel.right) for rel in relations] == [
        ("<", "Heat", "Pot"), ("-", "Heat", "Egg"), ("in", "Egg", "Pot"),
        ("<", "Water", "Pot")]
    formatted = format_scene(scene)
    assert "where H < P, H - Egg, Egg in P, Water < P;" in formatted
    assert parsed(formatted) == scene


def test_references_resolve_through_aliases():
    scene = parsed(MINI)
    r1 = scene.rules[0]
    assert r1.outputs[0] is scene.entities[0].name


def test_unknown_entity_is_positioned():
    text = (
        "scene S {\n"
        "  entities { Kitchen as K; Cupboard as D; }\n"
        "  rules {\n"
        "    Q + K.D -> Q.D.K;\n"
        "  }\n"
        "}\n"
    )
    found = diags(text)
    messages = [str(d) for d in found]
    assert any("unknown entity 'Q'" in m for m in messages)
    first = [d for d in found if "unknown entity 'Q'" in d.message][0]
    assert (first.line, first.column) == (4, 5)


def test_duplicate_declaration_reported():
    text = "scene S { entities { Pot as P; Pot as Q; } rules { } }"
    assert any("duplicate declaration" in d.message for d in diags(text))


def test_duplicate_alias_reported():
    text = "scene S { entities { Pot as P; Pan as P; } rules { } }"
    assert any("duplicate declaration" in d.message for d in diags(text))


def test_duplicate_rule_label_reported():
    text = ("scene S { entities { A; B; C; } rules {"
            " r1: A + B.C -> A.C.B; r1: A + B.C -> A.C.B; } }")
    assert any("duplicate rule label" in d.message for d in diags(text))


def test_self_relation_reported():
    text = ("scene S { entities { A; B; C; } rules {"
            " r1: A + B.C -> A.C.B where A < A; } }")
    assert any("cannot relate to itself" in d.message for d in diags(text))


def test_self_loop_must_repeat_concept():
    text = "scene S { entities { A; B; } rules { A -> B; } }"
    assert any("must repeat the same concept" in d.message for d in diags(text))


def test_self_loop_may_mix_a_name_and_its_alias():
    text = ("scene S { entities { Pot as P; Tap; } rules { %s; "
            "Tap + Tap.Pot -> Tap.Pot.Tap where Pot < Tap; } }")
    want = parse_scene(text % "Pot -> Pot").scene
    for loop in ("Pot -> P", "P -> Pot", "P -> P"):
        assert parse_scene(text % loop).scene == want, loop
    assert any("must repeat the same concept" in d.message
               for d in diags(text % "P -> Tap"))


def test_rule_without_chains_formats_as_a_self_loop():
    """A self-loop is the rule with no input chain, also when built in
    code: it formats as ``P -> P;`` and reparses to an equal rule."""
    loop = Rule("loop", ("Pot",), (), (), ())
    scene = Scene("S", (ConceptId("Pot", "P"),), None, (loop,))
    text = format_scene(scene)
    assert "    loop: P -> P;\n" in text
    assert parsed(text).rules == (loop,)


def test_self_loop_rejects_relations():
    text = "scene S { entities { A; B; } rules { A -> A where A < B; } }"
    assert any("cannot declare relations" in d.message for d in diags(text))


def test_chain_repetition_reported():
    text = "scene S { entities { A; B; C; } rules { A + B.C.B -> A.B.C.B; } }"
    assert any("chain repeats" in d.message for d in diags(text))


def test_reserved_word_rejected_as_entity():
    text = "scene S { entities { in; } rules { } }"
    assert any("reserved word" in d.message for d in diags(text))


def test_first_attempt_notation_rejected(scenes_dir):
    text = (scenes_dir / "first_attempt.cpl").read_text(encoding="utf-8")
    found = diags(text)
    assert any("expected entity name, found '('" in d.message for d in found)
    where = found[0]
    assert where.line == 11 and where.column == 16


def test_trailing_input_after_scene_rejected():
    found = diags("scene S { entities { A; B; } rules { } } extra")
    assert [str(d) for d in found] == [
        "1:42: error: expected end of input, found 'extra'"]


def test_diagnostics_inside_source_bounds():
    text = "scene S { entities { A; B; } rules { A + B -> A.B; } }"
    lines = text.split("\n")
    for diag in diags(text):
        assert 1 <= diag.line <= len(lines)
        assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1


@st.composite
def mutated_scene(draw):
    """A bundled scene with up to four slices replaced by pieces."""
    text = draw(st.sampled_from(BUNDLED))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 12)))
        text = text[:start] + draw(st.sampled_from(PIECES + [""])) + text[end:]
    return text


@settings(max_examples=200)
@given(st.one_of(SOURCE_TEXT, mutated_scene()))
def test_parse_never_raises_and_diagnostics_stay_inside(text):
    result = parse_scene(text)
    assert (result.scene is None) == bool(result.diagnostics)
    lines = text.split("\n")
    for diag in result.diagnostics:
        assert 1 <= diag.line <= len(lines)
        assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1


# Token-sized pieces of formatted text, for the mutations below.
WORD = re.compile(r"->|[A-Za-z0-9_]+|\S")
OVERLONG = "(" + "9" * 5000 + ")"  # past the interpreter's int conversion limit


@st.composite
def generated_source(draw):
    """A generated scene's canonical text, then up to three mutations: drop,
    duplicate or swap a token, insert a stray character, truncate the text,
    end it in a comment with no newline, put an overlong amount before a
    token ("->" when there is one), or write a "<" relation as ">"."""
    text = format_scene(make_scene(random.Random(draw(st.integers(0, 10**9)))))
    for op in draw(st.lists(st.sampled_from(
            ("drop", "duplicate", "swap", "stray", "truncate", "comment",
             "overlong", "mirror")), max_size=3)):
        words = [m.span() for m in WORD.finditer(text)]
        if op == "mirror":
            # The formatter writes every sub-concept relation with "<".
            signs = [m.start() for m in re.finditer(" < ", text)]
            if signs:
                at = draw(st.sampled_from(signs)) + 1
                text = text[:at] + ">" + text[at + 1:]
        elif op == "stray":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from("@_$\f\u00e9")) + text[at:]
        elif op == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif op == "comment":
            text += "# final"
        elif words:
            start, end = draw(st.sampled_from(words))
            if op == "drop":
                text = text[:start] + text[end:]
            elif op == "duplicate":
                text = text[:end] + " " + text[start:end] + text[end:]
            elif op == "swap":
                other = draw(st.sampled_from(words))
                (s1, e1), (s2, e2) = sorted([(start, end), other])
                if e1 <= s2:
                    text = (text[:s1] + text[s2:e2] + text[e1:s2]
                            + text[s1:e1] + text[e2:])
            else:
                arrows = [w for w in words if text[w[0]:w[1]] == "->"]
                if arrows:
                    start = draw(st.sampled_from(arrows))[0]
                text = text[:start] + OVERLONG + text[start:]
    return text


def spans(scene):
    """Every span a scene stores, one by one, with each rule's ordinal:
    scene equality skips both.  Only rules and quantities hold one."""
    listed = []
    for rule in scene.rules:
        listed.append(("rule", rule.ordinal, rule.span))
        listed += [("quantity", chain.quantity.span)
                   for chain in rule.inputs if chain.quantity is not None]
    return listed


@settings(max_examples=300)
@given(st.one_of(generated_source(), mutated_scene(), SOURCE_TEXT))
def test_parse_matches_token_record_parser(text):
    new, old = parse_scene(text), oracles.parse_scene(text)
    assert new.scene == old.scene
    if new.scene is not None:
        assert spans(new.scene) == spans(old.scene)
    assert new.diagnostics == old.diagnostics


def test_overlong_number_is_a_diagnostic():
    digits = "9" * 5000  # past the interpreter's int conversion limit
    text = ("scene S { entities { A; B; C; } rules {"
            f" A + B.C({digits}) -> A.C.B; }} }}")
    (diag,) = diags(text)
    assert diag.message == "number has too many digits (5000)"
    assert (diag.line, diag.column) == (1, text.index(digits) + 1)


def scan(text):
    """Each token's text, line and column, or the abort diagnostic."""
    try:
        parser = _Parser(text)
    except _Abort as abort:
        return abort.diagnostic
    return [(t, *parser.span(i)[:2]) for i, t in enumerate(parser.texts)]


def scan_loop(text):
    try:
        return [(t.text, t.line, t.column) for t in oracles.tokenize(text)]
    except oracles._Abort as abort:
        return abort.diagnostic


@settings(max_examples=300)
@given(SOURCE_TEXT)
def test_tokenize_matches_character_loop(text):
    assert scan(text) == scan_loop(text)


def test_comment_at_end_keeps_eof_at_its_start():
    text = "scene S  # no newline"
    assert scan(text)[-1] == ("", 1, 10)
    assert scan(text) == scan_loop(text)


def test_empty_rules_block_allowed():
    scene = parsed("scene S { entities { A; } rules { } }")
    assert scene.rules == ()
    again = parsed(format_scene(scene))
    assert again == scene


def test_quantity_annotations_survive_round_trip(scenes_dir):
    scene = parsed((scenes_dir / "quantities.cpl").read_text(encoding="utf-8"))
    r1 = scene.rules[0]
    assert r1.inputs[0].quantity == Quantity(Amount("x"))
    assert [t.qtys[-1] for t in r1.declared_results] == [
        Amount("y"), Amount("x", "y")]
    r2 = scene.rules[1]
    assert r2.inputs[0].quantity == Quantity(Amount(2))
    assert [t.qtys[-1] for t in r2.declared_results] == [
        Amount(1), Amount(2, 1)]
    assert parsed(format_scene(scene)) == scene


def test_comments_are_ignored():
    scene = parsed("# heading\nscene S { entities { A; } # trailing\n rules { } }")
    assert scene.name == "S"


def test_parse_is_deterministic():
    first = parse_scene(MINI)
    second = parse_scene(MINI)
    assert first.scene == second.scene


HELD = """
scene Held {
  entities { Pot as P; Kitchen as K; Cupboard as D; Egg; }
  rules {
    r1: P + K.D -> P.D.K where D < K, D - P;
    r2: P + K.D -> P.D.K where D < K, D - P;
    r3: Egg + K.D(3) -> Egg.D(n).K;
    r4: Egg + K.D(3) -> Egg.D(n).K;
  }
}
"""


def test_equal_token_texts_are_one_object():
    texts = _Parser(HELD).texts
    first = {}
    assert all(first.setdefault(text, text) is text for text in texts)
    assert texts.count("K") == 11


def test_equal_values_in_one_parse_are_one_object():
    r1, r2, r3, r4 = parsed(HELD).rules
    assert r1.outputs is r2.outputs
    assert r1.inputs is r2.inputs
    assert r1.relations is r2.relations
    assert r1.relations[0] is r2.relations[0]
    assert r3.relations is r1.relations[2:]  # both are the empty tuple
    assert r1.declared_results[0].qtys is r2.declared_results[0].qtys
    # Symbolic amounts are token texts.
    assert (r3.declared_results[0].qtys[1].first
            is r4.declared_results[0].qtys[1].first)


def test_chains_with_a_quantity_keep_their_own_span():
    r1, r2, r3, r4 = parsed(HELD).rules
    assert r3.inputs == r4.inputs
    assert r3.inputs[0] is not r4.inputs[0]
    spans = [rule.inputs[0].quantity.span for rule in (r3, r4)]
    assert [span.line for span in spans] == [7, 8]
    assert r1.inputs[0] is r2.inputs[0]


def test_a_second_parse_shares_no_chain_with_the_first():
    first, second = parsed(HELD), parsed(HELD)
    assert first == second
    chains = {id(chain) for rule in first.rules for chain in rule.inputs}
    assert not chains & {id(chain) for rule in second.rules
                         for chain in rule.inputs}


def test_cooking_round_trip(cooking_scene):
    text = format_scene(cooking_scene)
    again = parsed(text)
    assert again == cooking_scene
    assert format_scene(again) == text


@given(st.integers(0, 10**9))
def test_generated_scene_round_trip(seed):
    scene = make_scene(random.Random(seed))
    text = format_scene(scene)
    once = parse_scene(text)
    assert once.scene is not None, (text, [str(d) for d in once.diagnostics])
    assert once.scene == scene
    twice = parse_scene(format_scene(once.scene))
    assert twice.scene == once.scene


def mentions(scene):
    """Every concept mention a scene holds, the root included."""
    found = [] if scene.root is None else [scene.root]
    for rule in scene.rules:
        found += rule.outputs
        for chain in rule.inputs:
            found += chain.elements
        for term in rule.declared_results:
            found += term.concepts
        for rel in rule.relations:
            found += (rel.left, rel.right)
    return found


def respell(text, scene, rng):
    """Canonical text with each alias mention in the rules written as the
    alias or as the declared name, at random."""
    names = {c.abbrev: c.name for c in scene.entities if c.abbrev}
    body = text.index("\n  }\n")  # the end of the entities block

    def spell(m):
        return names.get(m[0], m[0]) if rng.random() < 0.5 else m[0]

    return text[:body] + re.sub(r"[A-Za-z][A-Za-z0-9_]*", spell, text[body:])


def assert_mentions_are_declared_names(text, rng):
    scene = parsed(text)
    declared = {c.name for c in scene.entities}
    assert all(type(m) is str and m in declared for m in mentions(scene))
    respelled = parsed(respell(format_scene(scene), scene, rng))
    assert respelled == scene


PARSED = {"mini": MINI, **{
    path.name: path.read_text(encoding="utf-8")
    for path in sorted(SCENES.glob("*.cpl"))
    if parse_scene(path.read_text(encoding="utf-8")).scene is not None}}


@pytest.mark.parametrize("name", PARSED)
@given(seed=st.integers(0, 10**9))
def test_bundled_mentions_are_declared_names(name, seed):
    assert_mentions_are_declared_names(PARSED[name], random.Random(seed))


@given(st.integers(0, 10**9))
def test_generated_mentions_are_declared_names(seed):
    rng = random.Random(seed)
    assert_mentions_are_declared_names(format_scene(make_scene(rng)), rng)
