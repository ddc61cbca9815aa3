"""The record types' contract: every record is immutable, spans and
ordinals stay out of equality, and the grid builds from two arguments."""

from __future__ import annotations

import dataclasses

import pytest

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
    Span,
)
from cpl.check import Contradiction
from cpl.forest import (
    CrossLink,
    Cycle,
    CycleReport,
    OccurrenceForest,
    UniLink,
    _Edge,
)
from cpl.grid import Clustering, FrequencyGrid
from cpl.hierarchy import Hierarchy, HierarchyBuild, TraceEvent
from cpl.memory import Prediction, RankedFeature
from cpl.parser import Diagnostic, ParseResult

A, B = ConceptId("Alpha", "A"), ConceptId("Beta")
GRID = FrequencyGrid(("Alpha", "Beta"),
                     {"Alpha": {"Beta": 2}, "Beta": {"Alpha": 2}})
HIERARCHY = Hierarchy("Alpha", ("Alpha", "Beta"), (("Alpha", "Beta"),))
RULE = Rule("r", (A,), (Chain((B, A)),), (ResultTerm((A, A, B)),), ())

RECORDS = [
    Span(1, 2, 3),
    Amount(3, "x"),
    Chain((A, B), Quantity(Amount(1))),
    ResultTerm((A, B), (None, Amount(1))),
    Diagnostic("error", "message", 1, 1),
    ParseResult(None, ()),
    Contradiction("sub-cycle", ("Alpha", "Beta"), ("r",), "message"),
    Clustering((("Alpha", "Beta"),)),
    _Edge("Alpha", "Beta", False, "r"),
    CrossLink("Alpha", (None, "Beta")),
    UniLink("Alpha", ("Beta", "Alpha"), ("Alpha",)),
    Cycle(("Alpha", "Beta"), "reverse-pair", ("r",)),
    CycleReport((), ()),
    OccurrenceForest([], {}, {}),
    TraceEvent("edge", "r", ("Alpha", "Beta")),
    HIERARCHY,
    HierarchyBuild(HIERARCHY, (), ()),
    RankedFeature("f", 2, True),
    Prediction(()),
    A,
    Relation(RelationKind.SUB_CONCEPT, A, B),
    Quantity(Amount(2), Amount(1), Amount(1)),
    RULE,
    Scene("S", (A, B), A, (RULE,)),
    GRID,
]


def _field_names(record) -> list[str]:
    if dataclasses.is_dataclass(record):
        return [f.name for f in dataclasses.fields(record)]
    return list(type(record)._fields)


@pytest.mark.parametrize("record", RECORDS,
                         ids=[type(r).__name__ for r in RECORDS])
def test_record_fields_cannot_be_assigned(record):
    for name in _field_names(record):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_spans_and_ordinals_stay_out_of_equality():
    here, there = Span(1, 1, 5), Span(7, 3, 2)
    pairs = [
        (ConceptId("Alpha", "A", here), ConceptId("Alpha", "A", there)),
        (Relation(RelationKind.ASSOCIATION, A, B, here),
         Relation(RelationKind.ASSOCIATION, A, B, there)),
        (Quantity(Amount(1), span=here), Quantity(Amount(1), span=there)),
        (dataclasses.replace(RULE, ordinal=1, span=here),
         dataclasses.replace(RULE, ordinal=2, span=there)),
        (Scene("S", (A,), None, (RULE,), here),
         Scene("S", (A,), None, (RULE,), there)),
    ]
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)


def test_grid_builds_from_names_and_cells():
    grid = FrequencyGrid(("Alpha", "Beta", "Gamma"),
                         {"Alpha": {"Beta": 2},
                          "Beta": {"Alpha": 2, "Gamma": 1},
                          "Gamma": {"Beta": 1}})
    assert grid.count("Alpha", "Beta") == 2
    assert grid.count("Gamma", "Alpha") == 0
    assert grid.strength("Beta") == 3
