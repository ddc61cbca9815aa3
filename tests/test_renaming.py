"""Metamorphic property: the aliases a scene declares are only spelling.

Every alias is renamed to a fresh one of the same length, keeping the
names, and the scene is re-rendered with ``format_scene``.  Equal lengths
keep every token at its column, so even the diagnostics' positions must
match.  None of the compared outputs prints an alias, so they are compared
as they are.  A mention holds the declared name, so the parsed rules and
root must not change either.
"""

from __future__ import annotations

import random
import string
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cpl.ast import Scene
from cpl.check import check_all
from cpl.forest import build_forest, extract_cycles, nested_notation
from cpl.grid import cluster_scene, to_csv
from cpl.hierarchy import build_ensemble, build_hierarchy
from cpl.parser import KEYWORDS, format_scene, parse_scene

from genhelpers import make_scene

SCENES = Path(__file__).resolve().parents[1] / "scenes"
BUNDLED = sorted(path.name for path in SCENES.glob("*.cpl")
                 if parse_scene(path.read_text(encoding="utf-8")).scene is not None)


def fresh_aliases(scene: Scene, rng: random.Random) -> dict[str, str]:
    """Old alias -> a new alias of the same length that no name, alias or
    keyword of the scene uses."""
    taken = set(KEYWORDS)
    for concept in scene.entities:
        taken.update((concept.name, concept.abbrev))
    renames = {}
    for concept in scene.entities:
        if concept.abbrev is None:
            continue
        while True:
            alias = rng.choice(string.ascii_letters) + "".join(
                rng.choice(string.ascii_letters + string.digits)
                for _ in concept.abbrev[1:])
            if alias not in taken:
                break
        taken.add(alias)
        renames[concept.abbrev] = alias
    return renames


def rename(scene: Scene, renames: dict[str, str]) -> Scene:
    """Aliases live only in the declarations; every mention is a name."""
    return scene._replace(entities=tuple(
        c._replace(abbrev=renames.get(c.abbrev)) for c in scene.entities))


def derived(text: str) -> dict:
    scene = parse_scene(text).scene
    assert scene is not None, text
    out: dict = {"check": check_all(scene)}
    if out["check"]:
        return out
    grid, clustering = cluster_scene(scene)
    forest = build_forest(scene)
    report = extract_cycles(scene, forest)
    out.update(
        csv=to_csv(grid), clustering=clustering,
        trees=(nested_notation(forest), nested_notation(forest, True)),
        uni_links=[link.render() for link in report.uni_links],
        cycles=[cycle.render() for cycle in report.cycles])
    hierarchy = build_hierarchy(scene, build_ensemble(scene)).hierarchy
    out["hierarchy"] = (hierarchy.root, hierarchy.edges)
    return out


def assert_renaming_invariant(scene: Scene, rng: random.Random) -> None:
    renames = fresh_aliases(scene, rng)
    original = format_scene(scene)
    renamed = format_scene(rename(scene, renames))
    assert (renamed != original) == bool(renames)
    renamed_scene = parse_scene(renamed).scene
    assert renamed_scene is not None, renamed
    assert {c.abbrev for c in renamed_scene.entities} - {None} == set(
        renames.values())
    original_scene = parse_scene(original).scene
    assert renamed_scene.rules == original_scene.rules
    assert renamed_scene.root == original_scene.root
    assert derived(renamed) == derived(original)


@pytest.mark.parametrize("name", BUNDLED)
@given(seed=st.integers(0, 10**9))
def test_bundled_scene_outputs_ignore_alias_names(name, seed):
    scene = parse_scene((SCENES / name).read_text(encoding="utf-8")).scene
    assert_renaming_invariant(scene, random.Random(seed))


@given(seed=st.integers(0, 10**9))
def test_generated_scene_outputs_ignore_alias_names(seed):
    rng = random.Random(seed)
    assert_renaming_invariant(make_scene(rng), rng)
