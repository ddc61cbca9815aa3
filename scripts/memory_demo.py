#!/usr/bin/env python3
"""Store a batch of feature scenes and query them with and without a
legality constraint.

Usage: python scripts/memory_demo.py [memory_dir]

Without ``memory_dir`` the scenes go to a temporary directory that is
removed before the script exits.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cpl.memory import cross_reference, load_memory_dir, predict, save_scene  # noqa: E402

SCENES = {
    "breakfast": ["Egg", "Heat", "Pot", "Water"],
    "tea": ["Heat", "Pot", "Tap", "Water"],
    "soup": ["Heat", "Pot", "Salt", "Water"],
    "pasta": ["Heat", "Pot", "Salt", "Water", "Pasta"],
}


def demo(directory: Path) -> None:
    for scene_id, features in SCENES.items():
        save_scene(directory, scene_id, features)
    store = load_memory_dir(directory)
    print(f"stored {len(store)} scenes")

    inputs = ["Pot", "Water"]
    votes = cross_reference(store, inputs)
    print(f"votes for input {inputs}:")
    for feature in sorted(votes, key=lambda f: (-votes[f], f)):
        print(f"  {feature}: {votes[feature]}")

    unconstrained = predict(store, inputs, k=3)
    print("top predictions:")
    for item in unconstrained:
        print(f"  {item.feature} ({item.votes} votes)")

    legal = {"Egg", "Pasta"}
    constrained = predict(store, inputs, legal=legal, k=3)
    print(f"predictions constrained to {sorted(legal)}:")
    for item in constrained:
        print(f"  {item.feature} ({item.votes} votes)")


def main() -> int:
    if len(sys.argv) > 1:
        directory = Path(sys.argv[1])
        directory.mkdir(parents=True, exist_ok=True)
        demo(directory)
    else:
        with tempfile.TemporaryDirectory(prefix="cpl-memory-") as directory:
            demo(Path(directory))
    return 0


if __name__ == "__main__":
    sys.exit(main())
