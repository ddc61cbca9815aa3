#!/usr/bin/env python3
"""Store a batch of feature scenes and query them with and without a
legality constraint.

Usage: python scripts/memory_demo.py [memory_dir]

Without ``memory_dir`` the scenes go to a temporary directory that is
removed before the script exits.  The scenes are read back as ``cpl
predict`` reads its ``--memory`` directory.  Exit codes: 0 done; 2 a
``memory_dir`` that cannot be created or written, or whose memory (the
demo's scenes with any other ``*.json`` scene in it) cannot be loaded, or
a stdout that cannot be written.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cpl.cli import (  # noqa: E402
    EXIT_FAILURE, Exit, load_memory, write_output)
from cpl.memory import cross_reference, predict, save_scene  # noqa: E402

SCENES = {
    "breakfast": ["Egg", "Heat", "Pot", "Water"],
    "tea": ["Heat", "Pot", "Tap", "Water"],
    "soup": ["Heat", "Pot", "Salt", "Water"],
    "pasta": ["Heat", "Pot", "Salt", "Water", "Pasta"],
}


def store_scenes(directory: str):
    """Save every demo scene to ``directory`` and load its memory back."""
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
        for scene_id, features in SCENES.items():
            save_scene(directory, scene_id, features)
    except OSError as exc:
        raise Exit(EXIT_FAILURE, f"memory_demo: cannot use {directory}: "
                   f"{exc.strerror}\n") from exc
    return load_memory(directory)


def demo(store):
    """The votes and predictions for the demo's query, as text chunks."""
    yield f"stored {len(store)} scenes\n"

    inputs = ["Pot", "Water"]
    votes = cross_reference(store, inputs)
    yield f"votes for input {inputs}:\n"
    for feature in sorted(votes, key=lambda f: (-votes[f], f)):
        yield f"  {feature}: {votes[feature]}\n"

    unconstrained = predict(store, inputs, k=3)
    yield "top predictions:\n"
    for item in unconstrained:
        yield f"  {item.feature} ({item.votes} votes)\n"

    legal = {"Egg", "Pasta"}
    constrained = predict(store, inputs, legal=legal, k=3)
    yield f"predictions constrained to {sorted(legal)}:\n"
    for item in constrained:
        yield f"  {item.feature} ({item.votes} votes)\n"


def main() -> int:
    try:
        if len(sys.argv) > 1:
            store = store_scenes(sys.argv[1])
        else:
            with tempfile.TemporaryDirectory(prefix="cpl-memory-") as directory:
                store = store_scenes(directory)
        write_output(demo(store), None)
    except Exit as exc:
        sys.stderr.write(str(exc))
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
