import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cpl.ast import Amount, Quantity, RelationKind
from cpl.parser import _Abort, format_scene, parse_scene, tokenize

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
    assert scene.root.name == "Kitchen"
    assert [c.name for c in scene.entities] == [
        "Pot", "Kitchen", "Cupboard", "Egg", "Heat"]
    r1, r2, r3 = scene.rules
    assert r1.label == "r1" and not r1.self_loop
    assert [c.name for c in r1.outputs] == ["Pot"]
    assert [c.name for c in r1.inputs[0].elements] == ["Kitchen", "Cupboard"]
    assert r1.declared_results[0].names() == ("Pot", "Cupboard", "Kitchen")
    assert r3.self_loop and r3.outputs[0].name == "Pot"


def test_relation_chain_desugars_pairwise():
    scene = parsed(MINI)
    r2 = scene.rules[1]
    kinds = [(rel.kind, rel.left.name, rel.right.name) for rel in r2.relations]
    assert kinds == [
        (RelationKind.ASSOCIATION, "Egg", "Heat"),
        (RelationKind.SUB_CONCEPT, "Heat", "Pot"),
    ]


def test_references_resolve_through_aliases():
    scene = parsed(MINI)
    r1 = scene.rules[0]
    assert r1.outputs[0] is scene.entities[0]


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


def test_overlong_number_is_a_diagnostic():
    digits = "9" * 5000  # past the interpreter's int conversion limit
    text = ("scene S { entities { A; B; C; } rules {"
            f" A + B.C({digits}) -> A.C.B; }} }}")
    (diag,) = diags(text)
    assert diag.message == "number has too many digits (5000)"
    assert (diag.line, diag.column) == (1, text.index(digits) + 1)


def scan(tokenizer, text):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenizer(text)]
    except _Abort as abort:
        return abort.diagnostic


@settings(max_examples=300)
@given(SOURCE_TEXT)
def test_tokenize_matches_character_loop(text):
    assert scan(tokenize, text) == scan(oracles.tokenize, text)


def test_comment_at_end_keeps_eof_at_its_start():
    text = "scene S  # no newline"
    assert scan(tokenize, text)[-1] == ("EOF", "", 1, 10)
    assert scan(tokenize, text) == scan(oracles.tokenize, text)


def test_empty_rules_block_allowed():
    scene = parsed("scene S { entities { A; } rules { } }")
    assert scene.rules == ()
    again = parsed(format_scene(scene))
    assert again == scene


def test_quantity_annotations_survive_round_trip(scenes_dir):
    scene = parsed((scenes_dir / "quantities.cpl").read_text(encoding="utf-8"))
    r1 = scene.rules[0]
    assert r1.inputs[0].quantity == Quantity(
        Amount("x"), Amount("y"), Amount("x", "y"))
    r2 = scene.rules[1]
    assert r2.inputs[0].quantity == Quantity(Amount(2), Amount(1), Amount(2, 1))
    assert parsed(format_scene(scene)) == scene


def test_comments_are_ignored():
    scene = parsed("# heading\nscene S { entities { A; } # trailing\n rules { } }")
    assert scene.name == "S"


def test_parse_is_deterministic():
    first = parse_scene(MINI)
    second = parse_scene(MINI)
    assert first.scene == second.scene


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
