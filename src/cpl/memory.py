"""Feature memory with cross-referencing retrieval and constrained prediction.

Stored scenes are plain feature sets.  A query retrieves, for every input
feature, all scenes containing it; each retrieved scene votes for every
feature it holds, so a scene matched by two input features votes twice.
Predictions rank the voted features that are not already part of the input,
optionally restricted to what is legal in the current situation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


class MemoryStore:
    """Scene-id to feature-set memory; ids are unique, feature sets non-empty."""

    def __init__(self) -> None:
        self._entries: dict[str, frozenset[str]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> dict[str, frozenset[str]]:
        return dict(self._entries)

    def store_scene(self, scene_id: str, features) -> None:
        if scene_id in self._entries:
            raise ValueError(f"scene id {scene_id!r} already stored")
        feature_set = frozenset(features)
        if not feature_set:
            raise ValueError("a stored scene needs at least one feature")
        self._entries[scene_id] = feature_set


@dataclass(frozen=True)
class RankedFeature:
    feature: str
    votes: int
    future: bool  # present in memory, absent from the current input


@dataclass(frozen=True)
class Prediction:
    ranked: tuple[RankedFeature, ...]


def cross_reference(store: MemoryStore, input_features) -> dict[str, int]:
    """Aggregate votes over every scene retrieved by the input features."""
    votes: dict[str, int] = {}
    entries = store.entries()
    for feature in set(input_features):
        for held in entries.values():
            if feature in held:
                for other in held:
                    votes[other] = votes.get(other, 0) + 1
    return votes


def predict(store: MemoryStore, input_features, legal=None, k: int = 1) -> Prediction:
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
    ranked = tuple(
        RankedFeature(feature, count, feature not in inputs)
        for feature, count in candidates[:k]
    )
    return Prediction(ranked)


def load_memory_dir(path: str | Path) -> MemoryStore:
    """Read a memory directory: one JSON file per scene with id and features."""
    store = MemoryStore()
    directory = Path(path)
    for file in sorted(directory.glob("*.json")):
        payload = json.loads(file.read_text(encoding="utf-8"))
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
