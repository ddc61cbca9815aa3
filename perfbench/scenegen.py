"""Seeded generator for synthetic, consistent CPL scenes.

Concept ``i`` may only be nested in (``<``) or contained in (``in``) a
concept with a smaller index, so neither relation can close a cycle.  An
association is only ever declared on a pair that no rule nests, which keeps
the scene free of sub-versus-association contradictions.  Every concept
after the first is introduced by a rule that nests it in an earlier one, so
the rule graph is connected and the hierarchy strands no rule.

The generator keeps the structured rules next to the text: the reference
checks in ``reference.py`` work from the structure, the program under test
only ever sees the text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class GenRule:
    """One generated rule.  A self-loop has ``output`` only; every other rule
    reads ``output + source.effector -> output.effector.source``."""

    label: str
    output: str
    source: str = ""
    effector: str = ""

    @property
    def self_loop(self) -> bool:
        return not self.source


@dataclass(frozen=True)
class GenScene:
    rules: tuple[GenRule, ...]
    text: str


def generate(rng: random.Random, n_concepts: int, n_rules: int,
             reverse_share: float, loop_share: float,
             name: str = "Synthetic") -> GenScene:
    """A scene of ``n_concepts`` concepts and ``n_rules`` rules, about
    ``reverse_share`` of them re-stating an earlier rule with output and
    source swapped and ``loop_share`` of them self-loops."""
    names = [f"Node{i}" for i in range(n_concepts)]
    alias = {n: f"n{i}" for i, n in enumerate(names) if i % 2 == 0}
    n_loops = min(round(n_rules * loop_share), n_concepts)
    n_reverse = round(n_rules * reverse_share)
    n_forward = n_rules - n_loops - n_reverse
    if n_forward < n_concepts - 1:
        raise ValueError("too few rules to connect every concept")

    # Forward rules: output + source.effector where effector < source.
    forward: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()

    def add(out: int, src: int, eff: int) -> None:
        seen.add((out, src, eff))
        forward.append((out, src, eff))

    for eff in range(1, n_concepts):
        src = rng.randrange(eff)
        out = rng.choice([i for i in range(n_concepts) if i not in (src, eff)])
        add(out, src, eff)
    while len(forward) < n_forward:
        src, eff = sorted(rng.sample(range(n_concepts), 2))
        out = rng.randrange(n_concepts)
        if out in (src, eff) or (out, src, eff) in seen:
            continue
        add(out, src, eff)
    rng.shuffle(forward)

    nested = {frozenset((eff, src)) for _, src, eff in forward}
    relations: list[list[tuple[int, str, int]]] = []
    parents_with_assoc: list[int] = []
    for out, src, eff in forward:
        rels = [(eff, "<", src)]
        if frozenset((eff, out)) not in nested and rng.random() < 0.4:
            rels.append((eff, "-", out))
            parents_with_assoc.append(src)
        if out > eff and rng.random() < 0.25:
            rels.append((out, "in", eff))
        relations.append(rels)

    # Reverse rules follow their partner: output and source swapped.
    entries: list[tuple] = [("f", i) for i in range(len(forward))]
    partners = rng.sample(range(len(forward)), min(n_reverse, len(forward)))
    for idx in partners:
        out, src, eff = forward[idx]
        after = entries.index(("f", idx)) + 1
        entries.insert(rng.randint(after, len(entries)), ("r", (src, out, eff)))
    # Self-loops go on concepts whose subtree holds an association, so that
    # self-loop cycles occur; other used concepts fill up the share.
    loop_pool = list(dict.fromkeys(parents_with_assoc))
    rng.shuffle(loop_pool)
    rest = [i for i in range(n_concepts) if i not in set(loop_pool)]
    rng.shuffle(rest)
    for concept in (loop_pool + rest)[:n_loops]:
        entries.insert(rng.randint(1, len(entries)), ("l", concept))

    def ref(i: int) -> str:
        return alias.get(names[i], names[i])

    rules: list[GenRule] = []
    lines: list[str] = []
    for kind, payload in entries:
        label = f"r{len(rules) + 1}"
        if kind == "l":
            rules.append(GenRule(label, names[payload]))
            lines.append(f"    {label}: {ref(payload)} -> {ref(payload)};")
            continue
        if kind == "f":
            out, src, eff = forward[payload]
            where = " where " + ", ".join(
                f"{ref(left)} {op} {ref(right)}"
                for left, op, right in relations[payload])
        else:
            out, src, eff = payload
            where = ""
        rules.append(GenRule(label, names[out], names[src], names[eff]))
        lines.append(
            f"    {label}: {ref(out)} + {ref(src)}.{ref(eff)} -> "
            f"{ref(out)}.{ref(eff)}.{ref(src)}{where};")

    decls = [
        f"    {n} as {alias[n]};" if n in alias else f"    {n};" for n in names]
    text = "\n".join([
        f"scene {name} {{",
        "  entities {", *decls, "  }",
        f"  root {names[0]};",
        "  rules {", *lines, "  }",
        "}", ""])
    return GenScene(tuple(rules), text)
