"""The record types' contract: every record is an immutable NamedTuple,
spans and ordinals stay out of equality, and the grid builds from two
arguments."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cpl.ast import (
    Amount,
    Chain,
    ConceptId,
    Diagnostic,
    Quantity,
    Relation,
    RelationKind,
    ResultTerm,
    Rule,
    Scene,
    Span,
)
from cpl.check import Contradiction
from cpl.forest import (
    Cycle,
    CycleReport,
    Occurrence,
    OccurrenceForest,
    UniLink,
)
from cpl.grid import Clustering, FrequencyGrid
from cpl.hierarchy import Hierarchy, HierarchyBuild, TraceEvent
from cpl.memory import RankedFeature
from cpl.parser import KEYWORDS, ParseResult

# Mentions are declared names; ConceptId is the declaration record.
A, B = "Alpha", "Beta"
ALPHA, BETA = ConceptId("Alpha", "A"), ConceptId("Beta")
GRID = FrequencyGrid(("Alpha", "Beta"),
                     {"Alpha": {"Beta": 2}, "Beta": {"Alpha": 2}})
HIERARCHY = Hierarchy("Alpha", ("Alpha", "Beta"), (("Alpha", "Beta"),))
RULE = Rule("r", (A,), (Chain((B, A)),),
            (ResultTerm((A, A, B), (None, None, None)),), ())

RECORDS = [
    Span(1, 2),
    Amount(3, "x"),
    Chain((A, B), Quantity(Amount(1))),
    ResultTerm((A, B), (None, Amount(1))),
    Diagnostic("message", 1, 1),
    ParseResult(None, ()),
    Contradiction("sub-cycle", ("Alpha", "Beta"), ("r",), "message"),
    Clustering((("Alpha", "Beta"),)),
    UniLink(("Beta", "Alpha"), ("Alpha",)),
    Cycle(("Alpha", "Beta"), "reverse-pair", ("r",)),
    CycleReport((), ()),
    OccurrenceForest([], {}, {}),
    TraceEvent("edge", "r", ("Alpha", "Beta")),
    HIERARCHY,
    HierarchyBuild(HIERARCHY, (), (RULE,), ("r",), (1,)),
    RankedFeature("f", 2),
    ALPHA,
    Relation(RelationKind.SUB_CONCEPT, A, B),
    Quantity(Amount(2)),
    RULE,
    Scene("S", (ALPHA, BETA), A, (RULE,)),
    GRID,
]


@pytest.mark.parametrize("record", RECORDS,
                         ids=[type(r).__name__ for r in RECORDS])
def test_record_fields_cannot_be_assigned(record):
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_spans_and_ordinals_stay_out_of_equality():
    here, there = Span(1, 1), Span(7, 3)
    pairs = [
        (Quantity(Amount(1), span=here), Quantity(Amount(1), span=there)),
        (RULE._replace(ordinal=1, span=here),
         RULE._replace(ordinal=2, span=there)),
    ]
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)


def test_hierarchy_build_compares_only_what_it_stores():
    """The trace is derived when read, so it is no field of its own; the
    build stores the rule cited by each edge."""
    build = HierarchyBuild(HIERARCHY, (), (RULE,), ("r",), (1,))
    assert HierarchyBuild._fields == ("hierarchy", "diagnostics", "rules",
                                      "cites", "ends")
    assert build == HierarchyBuild(*build)
    assert hash(build) == hash(HierarchyBuild(*build))
    assert build.trace[-2:] == (TraceEvent("node", "r", ("Beta",)),
                                TraceEvent("edge", "r", ("Alpha", "Beta")))
    for name, value in {"diagnostics": (Diagnostic("m", 1, 1),),
                        "rules": (), "cites": ("s",), "ends": (0,)}.items():
        assert build._replace(**{name: value}) != build, name


def test_grid_builds_from_names_and_cells():
    grid = FrequencyGrid(("Alpha", "Beta", "Gamma"),
                         {"Alpha": {"Beta": 2},
                          "Beta": {"Alpha": 2, "Gamma": 1},
                          "Gamma": {"Beta": 1}})
    assert grid.count("Alpha", "Beta") == 2
    assert grid.count("Gamma", "Alpha") == 0
    assert grid.strength("Beta") == 3


HERE, THERE = Span(1, 1), Span(7, 3)

# The records a scene is made of, each beside a different value for every
# compared field, in field order.  Only Quantity and Rule have fields left
# out of equality, after those.
COMPARED = [
    (ConceptId("Alpha", "A"), {"name": "Gamma", "abbrev": None}),
    (Relation(RelationKind.ASSOCIATION, A, B),
     {"kind": RelationKind.SUB_CONCEPT, "left": "Gamma", "right": "Gamma"}),
    (Quantity(Amount(2), HERE), {"total": Amount(3)}),
    (RULE._replace(ordinal=1, span=HERE),
     {"label": None, "outputs": (B,), "inputs": (Chain((A, B)),),
      "declared_results": (),
      "relations": (Relation(RelationKind.SUB_CONCEPT, A, B),)}),
    (Scene("S", (ALPHA,), None, (RULE,)),
     {"name": "T", "entities": (ALPHA, BETA), "root": A, "rules": ()}),
]
COMPARED_IDS = [type(record).__name__ for record, _ in COMPARED]


def _blind_fields(record) -> dict:
    """New values for every field the record leaves out of equality."""
    return {Quantity: {"span": THERE},
            Rule: {"span": THERE, "ordinal": 2}}.get(type(record), {})


BLIND = [(record, changes) for record, changes in COMPARED
         if _blind_fields(record)]
BLIND_IDS = [type(record).__name__ for record, _ in BLIND]


def test_records_have_exactly_their_fields():
    assert ConceptId._fields == ("name", "abbrev")
    assert Relation._fields == ("kind", "left", "right")
    assert Scene._fields == ("name", "entities", "root", "rules")
    assert Rule._fields == ("label", "outputs", "inputs", "declared_results",
                            "relations", "ordinal", "span")


@pytest.mark.parametrize("record,changes", COMPARED, ids=COMPARED_IDS)
def test_equality_blind_fields_come_last(record, changes):
    fields = type(record)._fields
    assert fields[:len(changes)] == tuple(changes)
    assert set(fields[len(changes):]) == set(_blind_fields(record))


@pytest.mark.parametrize("record,changes", BLIND, ids=BLIND_IDS)
def test_blind_fields_never_make_records_unequal(record, changes):
    other = record._replace(**_blind_fields(record))
    assert other[len(changes):] != record[len(changes):]
    assert record == other and other == record
    assert not record != other and not other != record
    assert hash(record) == hash(other)


@pytest.mark.parametrize("record,changes", COMPARED, ids=COMPARED_IDS)
def test_every_compared_field_makes_records_unequal(record, changes):
    for name, value in changes.items():
        changed = record._replace(**{name: value})
        assert getattr(changed, name) != getattr(record, name)
        assert changed != record and record != changed, name
        assert not changed == record and not record == changed, name


@pytest.mark.parametrize("record,changes", COMPARED, ids=COMPARED_IDS)
def test_hash_is_the_compared_fields_hash(record, changes):
    assert hash(record) == hash(tuple(getattr(record, name)
                                      for name in changes))


@pytest.mark.parametrize("record,changes", BLIND, ids=BLIND_IDS)
def test_records_never_equal_tuples_or_other_records(record, changes):
    others = [tuple(record), tuple(record)[:len(changes)]]
    others += [other for other, _ in COMPARED if type(other) is not type(record)]
    for other in others:
        assert record != other and other != record
        assert not record == other and not other == record


def test_importing_the_cli_skips_dataclasses_and_inspect():
    code = ("import sys; before = set(sys.modules); import cpl.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    imported = done.stdout.split()
    assert "cpl.cli" in imported
    assert "dataclasses" not in imported
    assert "inspect" not in imported


@pytest.mark.parametrize("module, absent", [
    ("cpl.check", ("cpl.parser",)),
    ("cpl.forest", ("cpl.parser", "cpl.check")),
    ("cpl.grid", ("cpl.parser",)),
    ("cpl.hierarchy", ("cpl.parser",)),
])
def test_derivations_share_only_ast(module, absent):
    code = (f"import sys, {module}; "
            f"print(' '.join(m for m in {absent!r} if m in sys.modules))")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


def test_oracles_import_only_records_from_cpl():
    """A differential oracle that calls the code under test cannot catch
    its faults, so ``tests/oracles.py`` takes from ``cpl`` only the
    records it builds and compares, ``RelationKind`` and ``KEYWORDS``."""
    path = Path(__file__).resolve().parent / "oracles.py"
    borrowed = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            borrowed += [(alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "cpl"]
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "cpl"):
            borrowed += [(node.module, alias.name) for alias in node.names]
    assert borrowed
    for module, name in borrowed:
        value = (getattr(importlib.import_module(module), name, None)
                 if name else None)
        record = isinstance(value, type) and (
            issubclass(value, tuple) and hasattr(value, "_fields")
            or value is Occurrence)
        assert record or value is RelationKind or value is KEYWORDS, \
            (module, name)
