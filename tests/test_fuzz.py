"""A seeded, bounded mutation fuzz of the CLI.

Each mutant is a scene one to four edits away from a bundled or a
generated one.  Most edits keep the script parseable, and many keep it
consistent, so that every derivation sees it: a concept renamed to another
throughout one rule, two concepts swapped throughout one rule, or a rule
dropped or repeated.  The rest rename a single mention, or delete, insert
or replace a token anywhere.  Every scene form runs on every mutant
in process, ``predict`` on a feature list drawn from it, and the cooking
report through ``runpy`` as the byte contract runs it.  None may raise,
and each exits 0, 1 or 2.
"""

from __future__ import annotations

import contextlib
import io
import random
import re

import pytest

from cpl.cli import main
from cpl.parser import KEYWORDS, parse_scene

from test_contract import GENERATED, REPO_ROOT, SCENE_FORMS, run_case
from test_depth import deep_loop_source, fan_source, mixed_source

MUTANTS = 20  # per base scene

_TOKEN_RE = re.compile(r"->|[A-Za-z][A-Za-z0-9_]*|[0-9]+|\S")
_COMMENT_RE = re.compile(r"#[^\n]*")
_STRAYS = ("(", ")", ".", "^", "+", "->", ";", ":", ",", "<", ">", "-",
           "in", "where", "7", "Stray", "{", "}")

BASES = {
    **{path.name: path.read_text(encoding="utf-8")
       for path in sorted((REPO_ROOT / "scenes").glob("*.cpl"))},
    "concept-wide": GENERATED["concept-wide.cpl"](),
    "rule-dense": GENERATED["rule-dense.cpl"](),
    "loop-12": deep_loop_source(12),
    "fan-10": fan_source(10),
    "mixed-6": mixed_source(6),
}


def _is_ident(text: str) -> bool:
    return text[:1].isalpha()


def _rules_block(tokens: list[str]) -> tuple[int, int]:
    """The token range inside ``rules { ... }``; empty when not found."""
    for i in range(len(tokens) - 1):
        if tokens[i] == "rules" and tokens[i + 1] == "{":
            start = i + 2
            end = start
            while end < len(tokens) and tokens[end] != "}":
                end += 1
            return start, end
    return 0, 0


def _rule_spans(tokens: list[str]) -> list[tuple[int, int]]:
    start, end = _rules_block(tokens)
    spans, first = [], start
    for i in range(start, end):
        if tokens[i] == ";":
            spans.append((first, i + 1))
            first = i + 1
    return spans


def mutate(tokens: list[str], rng: random.Random) -> None:
    """Apply one edit to ``tokens`` in place."""
    start, end = _rules_block(tokens)
    declared = sorted({text for text in tokens[:start]
                       if _is_ident(text) and text not in KEYWORDS})
    spans = _rule_spans(tokens)
    kind = rng.choice(("rename", "rename", "rename", "swap", "swap", "drop",
                       "repeat", "repeat", "mention", "break"))
    if kind == "break":
        kind = rng.choice(("delete", "insert", "replace"))
    if kind in ("rename", "swap", "drop", "repeat") and spans:
        first, last = rng.choice(spans)
        named = sorted({text for text in tokens[first:last]
                        if text in declared})
        if kind == "rename" and named:
            # One concept renamed throughout a rule keeps its terms derived.
            old = rng.choice(named)
            new = rng.choice(declared)
            if new not in named:
                for i in range(first, last):
                    if tokens[i] == old:
                        tokens[i] = new
        elif kind == "swap" and len(named) > 1:
            a, b = rng.sample(named, 2)
            for i in range(first, last):
                if tokens[i] in (a, b):
                    tokens[i] = b if tokens[i] == a else a
        elif kind == "drop":
            del tokens[first:last]
        elif kind == "repeat":  # a copy without its label, which would clash
            if tokens[first + 1] == ":":
                first += 2
            tokens[end:end] = tokens[first:last]
    elif kind == "mention":
        mentions = [i for i in range(start, end) if tokens[i] in declared]
        if mentions:
            tokens[rng.choice(mentions)] = rng.choice(declared)
    elif kind == "delete" and tokens:
        del tokens[rng.randrange(len(tokens))]
    elif kind == "insert":
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(_STRAYS))
    elif tokens:
        tokens[rng.randrange(len(tokens))] = rng.choice(
            _STRAYS + tuple(declared))


def run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("base", BASES)
def test_no_mutant_raises_and_every_exit_code_is_known(base, tmp_path,
                                                       monkeypatch):
    monkeypatch.delenv("CPL_COLOR", raising=False)
    monkeypatch.chdir(REPO_ROOT)
    rng = random.Random(f"fuzz {base}")
    original = _TOKEN_RE.findall(_COMMENT_RE.sub("", BASES[base]))
    codes = []
    for k in range(MUTANTS):
        tokens = list(original)
        for _ in range(rng.randint(1, 4)):
            mutate(tokens, rng)
        path = tmp_path / f"mutant{k}.cpl"
        path.write_text(" ".join(tokens) + "\n", encoding="utf-8")
        features = ",".join(rng.sample(tokens, min(3, len(tokens))))
        runs = [[*form.split()[:1], str(path), *form.split()[1:]]
                for form in SCENE_FORMS]
        runs.append(["predict", "--memory", "scenes/memory_demo",
                     "--input", features, "-k", str(rng.randint(0, 3))])
        for argv in runs:
            code = run(argv)
            assert code in (0, 1, 2), (argv, path.read_text())
            codes.append(code)
        code = run_case(f"python scripts/run_cooking_report.py {path}",
                        tmp_path)[0]
        assert code in (0, 1, 2), ("report", path.read_text())
    if parse_scene(BASES[base]).scene is not None:
        # Most mutants of a clean scene parse: the fuzz reaches past the
        # parser.
        assert codes.count(2) < len(codes) * 3 // 4, codes
