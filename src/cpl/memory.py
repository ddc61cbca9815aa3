"""Feature memory with cross-referencing retrieval and constrained prediction.

The store is an index from each feature to the feature sets of the stored
scenes that hold it, in store order.  A query retrieves, for every input
feature, the scenes that index lists; each retrieved scene votes for every
feature it holds, so a scene matched by two input features votes twice.
Predictions rank the voted features that are not already part of the input,
optionally restricted to what is legal in the current situation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple


class MemoryStore:
    """Each feature to the feature sets of the stored scenes that hold it.
    Scene ids are unique and feature sets non-empty; the ids are kept
    only for that check and for the count."""

    def __init__(self) -> None:
        self._ids: set[str] = set()
        self.holding: dict[str, list[frozenset[str]]] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def store_scene(self, scene_id: str, features) -> None:
        if scene_id in self._ids:
            raise ValueError(f"scene id {scene_id!r} already stored")
        feature_set = frozenset(features)
        if not feature_set:
            raise ValueError("a stored scene needs at least one feature")
        self._ids.add(scene_id)
        for feature in feature_set:
            self.holding.setdefault(feature, []).append(feature_set)


class RankedFeature(NamedTuple):
    feature: str
    votes: int


def cross_reference(store: MemoryStore, input_features) -> dict[str, int]:
    """Aggregate votes over every scene retrieved by the input features."""
    votes: dict[str, int] = {}
    for feature in set(input_features):
        for held in store.holding.get(feature, ()):
            for other in held:
                votes[other] = votes.get(other, 0) + 1
    return votes


def predict(store: MemoryStore, input_features, legal=None,
            k: int = 1) -> tuple[RankedFeature, ...]:
    """Top-k voted features beyond the current input.

    Input features never rank (a prediction points past the current scene);
    a legality set further restricts the candidates, so an empty set yields
    an empty prediction.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    inputs = frozenset(input_features)
    legal_set = frozenset(legal) if legal is not None else None
    votes = cross_reference(store, inputs)
    candidates = [
        (feature, count) for feature, count in votes.items()
        if feature not in inputs
        and (legal_set is None or feature in legal_set)
    ]
    candidates.sort(key=lambda item: (-item[1], item[0]))
    return tuple(
        RankedFeature(feature, count) for feature, count in candidates[:k])


def load_memory_dir(path: str | Path) -> MemoryStore:
    """Read a memory directory: one JSON file per scene with id and features."""
    store = MemoryStore()
    directory = Path(path)
    for file in sorted(directory.glob("*.json")):
        try:
            payload = json.loads(file.read_text(encoding="utf-8"))
        except RecursionError:
            raise ValueError(f"{file.name}: nested too deeply") from None
        if not isinstance(payload, dict):
            raise ValueError(f"{file.name}: top level is not an object")
        scene_id, features = payload["id"], payload["features"]
        if not isinstance(scene_id, str):
            raise ValueError(f"{file.name}: id is not a string")
        if not (isinstance(features, list)
                and all(isinstance(f, str) for f in features)):
            raise ValueError(f"{file.name}: features is not a list of strings")
        store.store_scene(scene_id, features)
    return store


def save_scene(directory: str | Path, scene_id: str, features) -> Path:
    target = Path(directory) / f"{scene_id}.json"
    payload = {"id": scene_id, "features": sorted(set(features))}
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return target
