"""The benchmark's own expectations.  Nothing here calls into ``cpl``.

Each ``check_*`` function returns a list of mismatch messages; an empty list
means the program's output agrees with the reference.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from scenegen import GenScene


class SceneFacts:
    """Grid counts, strengths and reverse pairs recounted from the generated
    structure, not from the parsed scene."""

    def __init__(self, gen: GenScene):
        self.gen = gen
        order: dict[str, None] = {}
        pairs: Counter = Counter()
        for rule in gen.rules:
            members = ((rule.output,) if rule.self_loop
                       else (rule.output, rule.source, rule.effector))
            order.update(dict.fromkeys(members))
            if not rule.self_loop:
                pairs.update(frozenset(p) for p in combinations(members, 2))
        self.order = tuple(order)
        self.pairs = pairs
        strength: Counter = Counter()
        for pair, count in pairs.items():
            for name in pair:
                strength[name] += count
        self.root = min(self.order, key=lambda n: (-strength[n], n))
        self.used = frozenset(self.order)

    def csv(self) -> str:
        lines = ["," + ",".join(self.order)]
        for a in self.order:
            cells = ["" if a == b else str(self.pairs[frozenset((a, b))])
                     for b in self.order]
            lines.append(a + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def reverse_pair_cycles(self) -> set[tuple[frozenset, tuple[str, ...]]]:
        """Every reverse pair found by hashing (output, source, effector),
        expanded into its two 2-cycles; a cycle already enabled by an
        earlier pair keeps that pair's cites."""
        by_key: dict[tuple[str, str, str], list[int]] = {}
        pairs: list[tuple[int, int]] = []
        rules = self.gen.rules
        for j, rule in enumerate(rules):
            if rule.self_loop:
                continue
            for i in by_key.get((rule.source, rule.output, rule.effector), ()):
                pairs.append((i, j))
            by_key.setdefault(
                (rule.output, rule.source, rule.effector), []).append(j)
        expected: dict[frozenset, tuple[str, ...]] = {}
        for i, j in sorted(pairs):
            a, b = rules[i], rules[j]
            cites = tuple(sorted((a.label, b.label)))
            for walk in (frozenset((a.output, a.effector)),
                         frozenset((a.source, a.effector))):
                expected.setdefault(walk, cites)
        return set(expected.items())


def check_grid(facts: SceneFacts, concepts, counts, total: int,
               csv_text: str) -> list[str]:
    errors = []
    if tuple(concepts) != facts.order:
        return ["grid concepts differ from first-appearance order"]
    index = {name: i for i, name in enumerate(concepts)}
    for a, b in combinations(facts.order, 2):
        want = facts.pairs[frozenset((a, b))]
        i, j = index[a], index[b]
        if counts[i][j] != want or counts[j][i] != want:
            errors.append(f"grid cells {a},{b} read {counts[i][j]} and "
                          f"{counts[j][i]}, want {want}")
            break
    if total != 2 * sum(facts.pairs.values()):
        errors.append(f"grid total {total}, want {2 * sum(facts.pairs.values())}")
    if csv_text != facts.csv():
        errors.append("grid CSV differs from the recount")
    return errors


def check_clustering(facts: SceneFacts, clusters, links) -> list[str]:
    member: dict[str, int] = {}
    for idx, cluster in enumerate(clusters):
        if not cluster:
            return ["empty cluster"]
        for name in cluster:
            if name in member:
                return [f"{name} sits in two clusters"]
            member[name] = idx
    if set(member) != set(facts.order):
        return ["clusters do not cover exactly the grid concepts"]
    crossing = sorted(
        (tuple(sorted(pair)) + (count,)
         for pair, count in facts.pairs.items()
         if len({member[name] for name in pair}) == 2),
        key=lambda link: (-link[2], link[0], link[1]))
    if [tuple(link) for link in links] != crossing:
        return ["secondary links are not exactly the cross-cluster pairs"]
    return []


def check_cycles(facts: SceneFacts, cycles) -> list[str]:
    got = {(frozenset(cycle.concepts), tuple(cycle.rules))
           for cycle in cycles if cycle.kind == "reverse-pair"}
    want = facts.reverse_pair_cycles()
    if got != want:
        return [f"reverse-pair cycles: {len(got - want)} unexpected, "
                f"{len(want - got)} missing"]
    return []


def check_forest(facts: SceneFacts, occurrences) -> list[str]:
    placed = {name for name, occs in occurrences.items() if occs}
    if placed != facts.used:
        return ["forest does not place exactly the used concepts"]
    return []


def check_hierarchy(facts: SceneFacts, root: str, nodes, edges,
                    diagnostics) -> list[str]:
    errors = []
    if diagnostics:
        errors.append(f"hierarchy strands rules: {diagnostics[0]}")
    if root != facts.root:
        errors.append(f"hierarchy root {root}, want {facts.root}")
    if len(set(nodes)) != len(nodes) or set(nodes) != facts.used:
        errors.append("hierarchy nodes are not exactly the used concepts")
    children: dict[str, list[str]] = {}
    indegree: Counter = Counter()
    for parent, child in edges:
        children.setdefault(parent, []).append(child)
        indegree[child] += 1
    ready = [n for n in set(nodes) if indegree[n] == 0]
    done = 0
    while ready:
        node = ready.pop()
        done += 1
        for child in children.get(node, ()):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    if done != len(set(nodes)):
        errors.append("hierarchy has a cycle")
    seen, frontier = {root}, [root]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    if seen != facts.used:
        errors.append(f"{len(facts.used - seen)} used concepts unreachable "
                      "from the hierarchy root")
    return errors


# Command goldens for the bundled scenes, transcribed from the acceptance and
# CLI tests.  Each entry: argv after ``cpl``, expected exit code, and a check
# on (stdout, stderr) returning True when the output is right.
COOKING_CSV = """\
,Pot,Kitchen,Cupboard,Tap,Water,Heat,Cooker,Hob,Egg
Pot,,1,1,1,2,3,0,2,2
Kitchen,1,,1,0,0,0,0,0,0
Cupboard,1,1,,0,0,0,0,0,0
Tap,1,0,0,,1,0,0,0,0
Water,2,0,0,1,,0,0,0,1
Heat,3,0,0,0,0,,1,3,1
Cooker,0,0,0,0,0,1,,1,0
Hob,2,0,0,0,0,3,1,,0
Egg,2,0,0,0,1,1,0,0,
"""

COOKING_CLUSTERS = {
    "cluster: Egg, Pot, Water", "cluster: Heat, Hob",
    "cluster: Cupboard, Kitchen", "cluster: Tap", "cluster: Cooker",
}


def _cluster_ok(out: str, err: str) -> bool:
    lines = out.splitlines()
    clusters = {line for line in lines if line.startswith("cluster: ")}
    links = set(lines) - clusters
    return (clusters == COOKING_CLUSTERS
            and {"link: Heat - Pot (3)", "link: Cooker - Hob (1)",
                 "link: Cooker - Heat (1)", "link: Cupboard - Pot (1)",
                 "link: Tap - Water (1)", "link: Hob - Pot (2)"} <= links)


def _predict_first(out: str, err: str) -> bool:
    lines = out.splitlines()
    return bool(lines) and lines[0].split()[:2] == ["Heat", "6"]


def _predict_legal(out: str, err: str) -> bool:
    return [line.split()[:2] for line in out.splitlines()] == [
        ["Egg", "2"], ["Salt", "2"]]


CLI_CASES: tuple[tuple[tuple[str, ...], int, object], ...] = (
    (("check", "scenes/cooking.cpl"), 0,
     lambda out, err: out == "0 errors\n" and err == ""),
    (("grid", "scenes/cooking.cpl"), 0,
     lambda out, err: out == COOKING_CSV),
    (("cluster", "scenes/cooking.cpl"), 0, _cluster_ok),
    (("trees", "scenes/cooking.cpl", "--sorted"), 0,
     lambda out, err: out.strip() == (
         "Kitchen(Cooker(Hob(Heat)), Cupboard(Pot), "
         "Pot(Egg, Heat, Water), Tap(Water))")),
    (("cycles", "scenes/cooking.cpl"), 0,
     lambda out, err: "Kitchen, Cupboard, Pot -> Pot" in out
     and "Pot -> Heat -> Pot  [r5, r7]" in out),
    (("hierarchy", "scenes/cooking.cpl"), 0,
     lambda out, err: out.split("\n")[0] == "root: Pot"
     and {"Pot -> Water", "Pot -> Heat", "Water -> Egg", "Heat -> Egg"}
     <= set(out.splitlines())),
    (("check", "scenes/inconsistent.cpl"), 1,
     lambda out, err: out == "1 error\n" and "r1" in err and "r9" in err),
    (("check", "scenes/inconsistent_assoc.cpl"), 1,
     lambda out, err: "r2" in err and "r9" in err),
    (("check", "scenes/inconsistent_cycle.cpl"), 1,
     lambda out, err: all(c in err for c in ("r1", "r2", "r3"))),
    (("check", "scenes/first_attempt.cpl"), 2,
     lambda out, err: "error" in err),
    (("predict", "--memory", "scenes/memory_demo", "--input", "Pot,Water",
      "-k", "3"), 0, _predict_first),
    (("predict", "--memory", "scenes/memory_demo", "--input", "Pot,Water",
      "--legal", "Egg,Salt", "-k", "2"), 0, _predict_legal),
)
