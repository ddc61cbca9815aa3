"""The byte contract: every CLI form's stdout, stderr and exit code, and
both example scripts' output, pinned as SHA-256 digests.

The cases cover every scene form on the bundled scenes, one scene of each
benchmark workload shape, generated and deep scenes, and ``predict`` on
``scenes/memory_demo``.  Every scene form also writes ``scenes/cooking.cpl``
through ``--out``, whose file joins the digest, and a few cases run with
``CPL_COLOR=1``.  Everything runs in process.  A change that means
to alter output regenerates the table with

    PYTHONPATH=src python tests/test_contract.py

and names the cases whose digests moved.  The table pins bytes only: the
oracles in ``tests/oracles.py`` stay the judge of correctness.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

from cpl.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "perfbench"))

import scenegen  # noqa: E402
from test_depth import (  # noqa: E402
    contradiction_source, cycle_source, deep_chain_source, deep_loop_source,
    fan_source, looped_chain_source, mixed_source, many_chain_source,
    wake_source)

SCENE_FORMS = (
    "check", "grid", "grid --format json", "cluster", "trees",
    "trees --sorted", "trees --dot", "cycles", "cycles --dot", "hierarchy",
    "hierarchy --dot")


def _generated(concepts: int, rules: int, reverse: float, loops: float,
               name: str = "Synthetic") -> str:
    rng = random.Random(1)
    return scenegen.generate(rng, concepts, rules, reverse, loops, name).text


# Scenes written to a temporary directory, by file name.  The two workload
# shapes are the first scene of seed 1 of ``perfbench/workloads.py``.
GENERATED = {
    "concept-wide.cpl": lambda: _generated(64, 128, 0.10, 0.03, "Synthetic0"),
    "rule-dense.cpl": lambda: _generated(24, 200, 0.30, 0.05, "Synthetic0"),
    "gen-800.cpl": lambda: _generated(800, 1600, 0.1, 0.03),
    "deep-2000.cpl": lambda: deep_chain_source(2000),
    "fan-500.cpl": lambda: fan_source(500),
    "loop-300.cpl": lambda: deep_loop_source(300),
    "looped-300.cpl": lambda: looped_chain_source(300),
    "mixed-300.cpl": lambda: mixed_source(300),
    "reversed-300.cpl": lambda: contradiction_source(300),
    "cycles-300.cpl": lambda: cycle_source(300),
    "chains-30.cpl": lambda: many_chain_source(30),
    "wake-300.cpl": lambda: wake_source(300),
    # The two scenes whose hierarchy reports a diagnostic: no rules, and a
    # rule that shares no concept with the root's component.
    "no-rules.cpl": lambda: "scene E {\n  entities { A; }\n  rules { }\n}\n",
    "disjoint.cpl": lambda: (
        "scene T {\n  entities { A; B; C; D; E; F; }\n  rules {\n"
        "    r1: A + B.C -> A.C.B;\n    r2: D + E.F -> D.F.E;\n  }\n}\n"),
}

BUNDLED = sorted(path.name for path in (REPO_ROOT / "scenes").glob("*.cpl"))

PREDICT = (
    "--memory scenes/memory_demo --input Pot,Water -k 3",
    "--memory scenes/memory_demo --input Pot,Water --legal Egg,Salt -k 2",
    "--memory scenes/memory_demo --input Pot",
    "--memory scenes/memory_demo --input Salt,Heat -k 5",
    "--memory scenes/memory_demo --input Nothing -k 2",
    "--memory scenes/memory_demo --input Pot -k 0",
    "--memory scenes --input Pot",
)

SCRIPTS = (
    "scripts/run_cooking_report.py",
    "scripts/run_cooking_report.py scenes/quantities.cpl",
    "scripts/run_cooking_report.py scenes/inconsistent.cpl",
    # A parse failure: the report writes cpl's own diagnostic lines.
    "scripts/run_cooking_report.py scenes/first_attempt.cpl",
    # The one script case with a concept that no rule's left-hand side
    # names (Garden), so its ensemble row counts 0.
    "scripts/run_cooking_report.py scenes/operators.cpl",
    # The two hierarchy diagnostics: the report exits 1 and says why.
    "scripts/run_cooking_report.py no-rules.cpl",
    "scripts/run_cooking_report.py disjoint.cpl",
    # Paths that cannot be read: the report writes cpl check's line.
    "scripts/run_cooking_report.py scenes/missing.cpl",
    "scripts/run_cooking_report.py scenes",
    "scripts/memory_demo.py",
)

# Cases run with ``CPL_COLOR=1`` set, which colours the word "error".
COLOR = "CPL_COLOR=1 "
COLORED = (
    "scenes/inconsistent.cpl: check",
    "scenes/first_attempt.cpl: check",
    "disjoint.cpl: hierarchy",
    "python scripts/run_cooking_report.py scenes/inconsistent.cpl",
)

CASES = (
    [f"scenes/{name}: {form}" for name in BUNDLED for form in SCENE_FORMS]
    + [f"{name}: {form}" for name in GENERATED for form in SCENE_FORMS]
    + [f"scenes/cooking.cpl: {form} --out" for form in SCENE_FORMS]
    + [COLOR + case for case in COLORED]
    + [f"predict {args}" for args in PREDICT]
    + [f"python {args}" for args in SCRIPTS])


def write_generated(directory: Path) -> None:
    for name, source in GENERATED.items():
        (directory / name).write_text(source(), encoding="utf-8")


def run_case(case: str, directory: Path) -> tuple:
    """Run one case from the repository root: its exit code, stdout and
    stderr, then the text of its ``--out`` file if it names one.  A
    generated scene's path in the output reads as its file name."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    saved_argv, saved_path = sys.argv, sys.path[:]
    target = directory / "out.txt"
    if case.startswith(COLOR):
        case = case[len(COLOR):]
        os.environ["CPL_COLOR"] = "1"
    os.chdir(REPO_ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if case.startswith("python "):
                sys.argv = [
                    str(directory / arg) if arg in GENERATED else arg
                    for arg in case.split()[1:]]
                try:
                    runpy.run_path(sys.argv[0], run_name="__main__")
                    code = 0
                except SystemExit as exc:
                    code = exc.code
            elif case.startswith("predict "):
                code = main(case.split())
            else:
                scene, form = case.split(": ")
                if not scene.startswith("scenes/"):
                    scene = str(directory / scene)
                argv = [*form.split()[:1], scene, *form.split()[1:]]
                if argv[-1] == "--out":
                    argv.append(str(target))
                code = main(argv)
    finally:
        os.chdir(here)
        sys.argv = saved_argv
        sys.path[:] = saved_path
        os.environ.pop("CPL_COLOR", None)
    prefix = str(directory) + os.sep
    result = (code, out.getvalue().replace(prefix, ""),
              err.getvalue().replace(prefix, ""))
    if case.endswith(" --out"):
        result += (target.read_text(encoding="utf-8"),)
        target.unlink()
    return result


def digest(code: int, *texts: str) -> str:
    return hashlib.sha256("\0".join((str(code), *texts)).encode()).hexdigest()


@pytest.fixture(scope="module")
def generated_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("contract")
    write_generated(directory)
    return directory


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_match_the_contract(case, generated_dir, monkeypatch):
    monkeypatch.delenv("CPL_COLOR", raising=False)
    assert digest(*run_case(case, generated_dir)) == DIGESTS[case]


def test_every_case_has_one_digest():
    assert sorted(DIGESTS) == sorted(CASES)


DIGESTS = {
    'scenes/cooking.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'scenes/cooking.cpl: grid':
        '6d3e6956928cda3b91461bf020565bf9572703855e94b4b1a8328ae3b592bb78',
    'scenes/cooking.cpl: grid --format json':
        'd9789760a7b693264d3b2e104ddbe9d8a5f94536d556642ca30b3fb010caee3c',
    'scenes/cooking.cpl: cluster':
        'd30ee35095bd2daf30cd3a9e5f731296ebf8efe3af8b2c43346f806345c07cdb',
    'scenes/cooking.cpl: trees':
        '403fc5caea7024172b00988a569ce4b5f79eafb10d635485d228d76674aa2327',
    'scenes/cooking.cpl: trees --sorted':
        'ba47cf2518971ba6fde05db7b276b61a6fee52495e6e75a58c394e6390755e65',
    'scenes/cooking.cpl: trees --dot':
        'a3f4456e4b23f01f497f98f3f5296c58b1698a41df87db81184348b0286d1065',
    'scenes/cooking.cpl: cycles':
        'b9724d7afff392715c415d85ce63e0a264bb7ed792d973de27db9693a788ac53',
    'scenes/cooking.cpl: cycles --dot':
        'fc983312c7414c689b5c290f65e8ff0363e51ad819e08695168bffbd5214737c',
    'scenes/cooking.cpl: hierarchy':
        '651e165e7e55a3140134add499b5ff97cd251db493b6fca02029b10b715a5400',
    'scenes/cooking.cpl: hierarchy --dot':
        '1138e8a9ee501b3d0c7ac046547c7576156a378b7aa2e77e2dbbe39e28809033',
    'scenes/first_attempt.cpl: check':
        'de74351c1da33058288f830daeb1409ebe07d57e3af97beca2daab39752f4c99',
    'scenes/first_attempt.cpl: grid':
        'de74351c1da33058288f830daeb1409ebe07d57e3af97beca2daab39752f4c99',
    'scenes/first_attempt.cpl: grid --format json':
        'de74351c1da33058288f830daeb1409ebe07d57e3af97beca2daab39752f4c99',
    'scenes/first_attempt.cpl: cluster':
        'de74351c1da33058288f830daeb1409ebe07d57e3af97beca2daab39752f4c99',
    'scenes/first_attempt.cpl: trees':
        'de74351c1da33058288f830daeb1409ebe07d57e3af97beca2daab39752f4c99',
    'scenes/first_attempt.cpl: trees --sorted':
        'de74351c1da33058288f830daeb1409ebe07d57e3af97beca2daab39752f4c99',
    'scenes/first_attempt.cpl: trees --dot':
        'de74351c1da33058288f830daeb1409ebe07d57e3af97beca2daab39752f4c99',
    'scenes/first_attempt.cpl: cycles':
        'de74351c1da33058288f830daeb1409ebe07d57e3af97beca2daab39752f4c99',
    'scenes/first_attempt.cpl: cycles --dot':
        'de74351c1da33058288f830daeb1409ebe07d57e3af97beca2daab39752f4c99',
    'scenes/first_attempt.cpl: hierarchy':
        'de74351c1da33058288f830daeb1409ebe07d57e3af97beca2daab39752f4c99',
    'scenes/first_attempt.cpl: hierarchy --dot':
        'de74351c1da33058288f830daeb1409ebe07d57e3af97beca2daab39752f4c99',
    'scenes/gas_variant.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'scenes/gas_variant.cpl: grid':
        'dddbcbe8af5dc97e1dfd45f4e6f9f9ba8cef3f7c97a6725fe781163ebc020467',
    'scenes/gas_variant.cpl: grid --format json':
        '1b234a4445be67903b6d3e2b1326614c6291d64489f904549d00ce9310e3c793',
    'scenes/gas_variant.cpl: cluster':
        'b320d55926b6020a9de2805e87a817391397a714cd3fad34689cba5d3376a10e',
    'scenes/gas_variant.cpl: trees':
        'c95c04e252b88e10f4cba035ac7c32e90a3786b17700e34451c12aaff4b5308e',
    'scenes/gas_variant.cpl: trees --sorted':
        'c95c04e252b88e10f4cba035ac7c32e90a3786b17700e34451c12aaff4b5308e',
    'scenes/gas_variant.cpl: trees --dot':
        '8022fa27020b758ca335d1dbf5b0b00aabff4e24f400bd14c627541900f333b3',
    'scenes/gas_variant.cpl: cycles':
        'f288a31c436dc66e37c98c349f1d87ca3fce8b41fe2c916e51287f7afb5ef5c2',
    'scenes/gas_variant.cpl: cycles --dot':
        '938feafb06defa7179a1e3c022db98607f8af6337290a75be21f8285cebde8a2',
    'scenes/gas_variant.cpl: hierarchy':
        'fcf80535df174edcc800e639ec364b2a1bfe217bfd4152f0fd1fabb6d359573f',
    'scenes/gas_variant.cpl: hierarchy --dot':
        '54dc8daedb6d5d18d100bdc8cfaac25f3cef99e98b27f8b7fa31c9b446c43386',
    'scenes/inconsistent.cpl: check':
        '42eeb5929bee1b176f108b9ae04da095cfa5c97cf6dd0de1931cf4d1eaa7a375',
    'scenes/inconsistent.cpl: grid':
        '0876fddf18afd7b95f80d9564dec8e302ab56ce46167d1cb2e0cfccb2949deb8',
    'scenes/inconsistent.cpl: grid --format json':
        '0876fddf18afd7b95f80d9564dec8e302ab56ce46167d1cb2e0cfccb2949deb8',
    'scenes/inconsistent.cpl: cluster':
        '0876fddf18afd7b95f80d9564dec8e302ab56ce46167d1cb2e0cfccb2949deb8',
    'scenes/inconsistent.cpl: trees':
        '0876fddf18afd7b95f80d9564dec8e302ab56ce46167d1cb2e0cfccb2949deb8',
    'scenes/inconsistent.cpl: trees --sorted':
        '0876fddf18afd7b95f80d9564dec8e302ab56ce46167d1cb2e0cfccb2949deb8',
    'scenes/inconsistent.cpl: trees --dot':
        '0876fddf18afd7b95f80d9564dec8e302ab56ce46167d1cb2e0cfccb2949deb8',
    'scenes/inconsistent.cpl: cycles':
        '0876fddf18afd7b95f80d9564dec8e302ab56ce46167d1cb2e0cfccb2949deb8',
    'scenes/inconsistent.cpl: cycles --dot':
        '0876fddf18afd7b95f80d9564dec8e302ab56ce46167d1cb2e0cfccb2949deb8',
    'scenes/inconsistent.cpl: hierarchy':
        '0876fddf18afd7b95f80d9564dec8e302ab56ce46167d1cb2e0cfccb2949deb8',
    'scenes/inconsistent.cpl: hierarchy --dot':
        '0876fddf18afd7b95f80d9564dec8e302ab56ce46167d1cb2e0cfccb2949deb8',
    'scenes/inconsistent_assoc.cpl: check':
        'eb81baea008ff62b44d313073d806761eaf170d9fd8c32aa6a85bb81c792f1dd',
    'scenes/inconsistent_assoc.cpl: grid':
        '7521e89f7fdd7b82f1055d281d8904ee586717a0926db8db0d3b52ae2f595391',
    'scenes/inconsistent_assoc.cpl: grid --format json':
        '7521e89f7fdd7b82f1055d281d8904ee586717a0926db8db0d3b52ae2f595391',
    'scenes/inconsistent_assoc.cpl: cluster':
        '7521e89f7fdd7b82f1055d281d8904ee586717a0926db8db0d3b52ae2f595391',
    'scenes/inconsistent_assoc.cpl: trees':
        '7521e89f7fdd7b82f1055d281d8904ee586717a0926db8db0d3b52ae2f595391',
    'scenes/inconsistent_assoc.cpl: trees --sorted':
        '7521e89f7fdd7b82f1055d281d8904ee586717a0926db8db0d3b52ae2f595391',
    'scenes/inconsistent_assoc.cpl: trees --dot':
        '7521e89f7fdd7b82f1055d281d8904ee586717a0926db8db0d3b52ae2f595391',
    'scenes/inconsistent_assoc.cpl: cycles':
        '7521e89f7fdd7b82f1055d281d8904ee586717a0926db8db0d3b52ae2f595391',
    'scenes/inconsistent_assoc.cpl: cycles --dot':
        '7521e89f7fdd7b82f1055d281d8904ee586717a0926db8db0d3b52ae2f595391',
    'scenes/inconsistent_assoc.cpl: hierarchy':
        '7521e89f7fdd7b82f1055d281d8904ee586717a0926db8db0d3b52ae2f595391',
    'scenes/inconsistent_assoc.cpl: hierarchy --dot':
        '7521e89f7fdd7b82f1055d281d8904ee586717a0926db8db0d3b52ae2f595391',
    'scenes/inconsistent_cycle.cpl: check':
        '16ca5cd5820850f1b9050d01bad2170c541cf8a18d6cc9e520c2ba819a989967',
    'scenes/inconsistent_cycle.cpl: grid':
        '52fa1335fccb4a2fcafec61adc1b4b4b48c170046349cd9211dce6eb5cd0bd09',
    'scenes/inconsistent_cycle.cpl: grid --format json':
        '52fa1335fccb4a2fcafec61adc1b4b4b48c170046349cd9211dce6eb5cd0bd09',
    'scenes/inconsistent_cycle.cpl: cluster':
        '52fa1335fccb4a2fcafec61adc1b4b4b48c170046349cd9211dce6eb5cd0bd09',
    'scenes/inconsistent_cycle.cpl: trees':
        '52fa1335fccb4a2fcafec61adc1b4b4b48c170046349cd9211dce6eb5cd0bd09',
    'scenes/inconsistent_cycle.cpl: trees --sorted':
        '52fa1335fccb4a2fcafec61adc1b4b4b48c170046349cd9211dce6eb5cd0bd09',
    'scenes/inconsistent_cycle.cpl: trees --dot':
        '52fa1335fccb4a2fcafec61adc1b4b4b48c170046349cd9211dce6eb5cd0bd09',
    'scenes/inconsistent_cycle.cpl: cycles':
        '52fa1335fccb4a2fcafec61adc1b4b4b48c170046349cd9211dce6eb5cd0bd09',
    'scenes/inconsistent_cycle.cpl: cycles --dot':
        '52fa1335fccb4a2fcafec61adc1b4b4b48c170046349cd9211dce6eb5cd0bd09',
    'scenes/inconsistent_cycle.cpl: hierarchy':
        '52fa1335fccb4a2fcafec61adc1b4b4b48c170046349cd9211dce6eb5cd0bd09',
    'scenes/inconsistent_cycle.cpl: hierarchy --dot':
        '52fa1335fccb4a2fcafec61adc1b4b4b48c170046349cd9211dce6eb5cd0bd09',
    'scenes/operators.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'scenes/operators.cpl: grid':
        'd8ed1b01f6cbd646c03753d2a35d7930db891b19705a4fad5ea0229242da374d',
    'scenes/operators.cpl: grid --format json':
        '46e703ce906a0379beb814c388fc5e80e17b80afe31e6ff91aa3cdade32b1e53',
    'scenes/operators.cpl: cluster':
        '817ccad1b8fdd8516254b471480ed9a4ec04be69c5cf369a40bcacefa4903906',
    'scenes/operators.cpl: trees':
        'e43aee7d1a1d1e5797af3c7a7d06cd79016b668ef34f28588d424cb22aa679ca',
    'scenes/operators.cpl: trees --sorted':
        'f3eed562839e081e88e0428480050e58cedc9949a8345bb7407b8a56b93401ee',
    'scenes/operators.cpl: trees --dot':
        '9210a7f5d274161c6cf0b37d5d116122089b6466522f3454e9442ca4478c4ab2',
    'scenes/operators.cpl: cycles':
        '201696c48516c1d2bff9687a968778572625726f85af179edee44bc15a5fe3bf',
    'scenes/operators.cpl: cycles --dot':
        'd0cc74178477769264acb06fec8a6f744dbf9700ba5f37ebabb2f3b3a29ac802',
    'scenes/operators.cpl: hierarchy':
        '22dc4847815a10bce28f34544dfc2eafd17a210e7e98b3eea3f5aa3b1a30ada0',
    'scenes/operators.cpl: hierarchy --dot':
        '96f0d4433527f071c4c8a53cd2bf5b697be1769ec7b7fb38229a065d19642040',
    'scenes/quantities.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'scenes/quantities.cpl: grid':
        'b14138d76cb04274451288e56ce9cd9b9d158564f3229e01247a736346caf1a4',
    'scenes/quantities.cpl: grid --format json':
        '9f288dce2e613785d08696e6d9265b11fc8fcf765094a35325cc127cf586970a',
    'scenes/quantities.cpl: cluster':
        '7b3518c1e1f7c46b537ea5bc9a6696df56e7b8c61bf6d69b997bf0f01f8f46a0',
    'scenes/quantities.cpl: trees':
        '93b9a406a1e059acd26d33984130b83188c365825043a597861ddb9294d90fb6',
    'scenes/quantities.cpl: trees --sorted':
        '1ed77b3c59e21d4285a992219a3ccc4d343ff5349e50896f588cc8e0370c378b',
    'scenes/quantities.cpl: trees --dot':
        'b20186a13893674e8fc134a4eada9c15c21016ca462d68b010ed6793fa47b443',
    'scenes/quantities.cpl: cycles':
        '95cf6dc23ad00e4ff094b6d48335a02f696f0eeb563b83413a8d30662bba7e77',
    'scenes/quantities.cpl: cycles --dot':
        'db47b88b8fc94846e41c2a618b61d8229fdaa767fc12ca406aa0f6456085c053',
    'scenes/quantities.cpl: hierarchy':
        'e6904209b3b24dc40d6f60624cd225b45cbf77b762f3d04725814a186af85452',
    'scenes/quantities.cpl: hierarchy --dot':
        '18b7e6f56f96ebabae9ec4038849b5aee5e1315b4ff55145774cec65c9116df5',
    'concept-wide.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'concept-wide.cpl: grid':
        '576f0096d52fe9cbf346a6415538d2ea69ca8e94704f4e920133501c322e2611',
    'concept-wide.cpl: grid --format json':
        '908711a96e52637c6cd0219b7db69cf0a0f516e505ccf738cec2628c5bc24e3b',
    'concept-wide.cpl: cluster':
        '60e22dfda5c73aa10a2a74771f8e0f7e87004ab5a0c26ac8d3dc6fcbe8e1295b',
    'concept-wide.cpl: trees':
        '2140b46b76fbca7d53c2a3212d486699b1fa40309fe09572cc22eb327ddc5d99',
    'concept-wide.cpl: trees --sorted':
        '55c175129fc6e28db1a9e0559c0c46d6dda54b2dfce10e1fdc84107cfe09c569',
    'concept-wide.cpl: trees --dot':
        '237b46de0ecb01b3fde205d9cbba3055a478e90f91de961b5b222e6fc851f303',
    'concept-wide.cpl: cycles':
        'd2b1abbd4bedc3d6c2db0a91fd642944856e8699cc9c5830455f721f5e5004de',
    'concept-wide.cpl: cycles --dot':
        'a6f0292096cac1a1789dc272d9c46db5e5c46d174d632cdbff36ba3292a46733',
    'concept-wide.cpl: hierarchy':
        '85ebb0462e3a4c0a49a1f547dfbaa827f830c097aa06a31b66255d944fe18903',
    'concept-wide.cpl: hierarchy --dot':
        '9c0ea771b40c277d0944e2bb5d192695cff6c1df3fe0aec9e7651d99a220490e',
    'rule-dense.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'rule-dense.cpl: grid':
        '8919c8574d5137d27a8cf379eb9153e308ce1b1c0c3268ceb7c5ad7f25569349',
    'rule-dense.cpl: grid --format json':
        '5ff2e73630712a121e73d6a1d185aa9b8ce357501074cc1f1b7464152f5759fe',
    'rule-dense.cpl: cluster':
        'b17fe15df297ad5ddb7033c97c4f8acdd54de7a8583029db85643c0be29c665b',
    'rule-dense.cpl: trees':
        'bd2e25ac3ef6b1d9debc6ed552ccfd0344aeab2bf833dd09295361f7168e252f',
    'rule-dense.cpl: trees --sorted':
        '61ad21eba26918a76b9264ea23704e775189a66fede8646d97373f5c2fcd15d5',
    'rule-dense.cpl: trees --dot':
        '4cefd02d6c35966a07fefc7b4a3292c782945aab77029c0f3d19e0702fcb0bde',
    'rule-dense.cpl: cycles':
        '69102429af671120e649eef3d64ad93ad95b01c321746c4c72cad502d843e641',
    'rule-dense.cpl: cycles --dot':
        '27476db44df1530bdeb969ed31759646a6603529e671906527f72c77d3da4930',
    'rule-dense.cpl: hierarchy':
        'c589dde0092ecbe9b0ac79cd4c1b619b375261b3b1cf33589a04f5ba2ab98739',
    'rule-dense.cpl: hierarchy --dot':
        '1d72351634b1c9037d9f323e1d7fd19d0633f51014e667a6e9dc357a240b74e0',
    'gen-800.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'gen-800.cpl: grid':
        '3ce70cc8f46ff292d74d2770fd3146e7ddd11c033e45b420d55ffcf5b5716783',
    'gen-800.cpl: grid --format json':
        '9ea4e868cb29c1a83149d282c1fd338cfa6fff83bda969699ff6a9323ddfc336',
    'gen-800.cpl: cluster':
        '27c2ba44fbd41e0db197d2fb1de60a79e63164c5052c09ea7ab42999e1e2aeec',
    'gen-800.cpl: trees':
        '3b015662ad74011183a8c22c9539be24aac8282ffdc732e5bd703844f8f7dff5',
    'gen-800.cpl: trees --sorted':
        '6c003566d06232780a53ba42f852d06f36f296828ddab221b857c842070de14e',
    'gen-800.cpl: trees --dot':
        '3d689eef23e155d8a24bf5323de08a9ed713d057d25f0818aca62aa18e63fd2e',
    'gen-800.cpl: cycles':
        '2c6235c5882e433611a4ba5e914d33687bfaf2f15d517133a2c39b10c6d59513',
    'gen-800.cpl: cycles --dot':
        '52b816365f07b4e81d217f30141a100ae5b3c67b745aa5e2316801f265bb2797',
    'gen-800.cpl: hierarchy':
        '79ce6b7d8ef9a9e356770daa95aecb8ff9d255fc2086456c8122e75472bd1f34',
    'gen-800.cpl: hierarchy --dot':
        '07c9eb44407e4e3d9f67edb5903eb1f6a063130766cd63b4a114a0a7fcac7a65',
    'deep-2000.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'deep-2000.cpl: grid':
        '44b80e37fd57b4dbfb5b8ab522bd10e4a434f8a6c84fd958b8ccdf947158403b',
    'deep-2000.cpl: grid --format json':
        '4f6c688f3f3cdba187a50167a1769f1b39a929b4097c269192ac2877a05886ce',
    'deep-2000.cpl: cluster':
        '7d2cde3161d2cc888ffbb3756e16b8a191096a12ff04b766d5e7b2f4c2c37dfc',
    'deep-2000.cpl: trees':
        'a6df45eb3a2d5994d18ab3436a88c5d13ce46f8bbb643e27a71618512e10fef1',
    'deep-2000.cpl: trees --sorted':
        '96d98e248ef36d92ae3ec0240fda6c12a6847be96d3e35c3e6c30d4531c20eea',
    'deep-2000.cpl: trees --dot':
        '703fb2bc0141a58cd67a18f002ca787e63fa473f5131b056a24cf81cf7dc36be',
    'deep-2000.cpl: cycles':
        'f288a31c436dc66e37c98c349f1d87ca3fce8b41fe2c916e51287f7afb5ef5c2',
    'deep-2000.cpl: cycles --dot':
        '24c530bdfc1c96b810cc88984cc19887f13114dd2637755781aa26805f2fb568',
    'deep-2000.cpl: hierarchy':
        '30cafb697522af0623b465bcc4b5b14b05a117feb821a4140556501a250f34c6',
    'deep-2000.cpl: hierarchy --dot':
        'cc0ae02fa3a750c69bfdd1bbe0f4e832e0ff20a52bae6e8baa86bcdac10923ca',
    'fan-500.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'fan-500.cpl: grid':
        'e1d46a679f7b0332c303d48182e820d59c7d104556c2fa5e5958d19d0a11524d',
    'fan-500.cpl: grid --format json':
        '6287994e215c10a87de573908df453629d7fe67c2574a000056dad2f8d4b7c61',
    'fan-500.cpl: cluster':
        'a7f6ed840b3fdaad4382a767a26dccbd22a7cb8d927e6994c16be973ef3ca75d',
    'fan-500.cpl: trees':
        '28bf216bdf94799d51e3cc67a31efac7f5224108f514bf6dc341deb31c95bf92',
    'fan-500.cpl: trees --sorted':
        'e570de2cf0bfde8a104e8c7932189e3c2172afae5e8672b263c0314b7cd41934',
    'fan-500.cpl: trees --dot':
        '96f4e64cbd8aab5f64d7d6d90abd57141e9dae07d0248c82754dcdd83130d393',
    'fan-500.cpl: cycles':
        'c2a6734979f969ad5fcafedf772176f7e24a016320e2f47b1f6f99f0c34119aa',
    'fan-500.cpl: cycles --dot':
        '6e0717147ca7ea3bbdb271860aeb36d4ef40da72113ee488e80023308f9672d1',
    'fan-500.cpl: hierarchy':
        '00bdccde7d651e56e45a1f932ee040fb51a47b6a8bf8045725108099504c00e5',
    'fan-500.cpl: hierarchy --dot':
        '4738f2df61958f9055bc9aba83ddc51fd710e91658661f68fa7ef4045d976d80',
    'loop-300.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'loop-300.cpl: grid':
        'b0270c338c44c477197fe7c2f0372d134530577436e838200a0a6bdf78b902bb',
    'loop-300.cpl: grid --format json':
        '90c6863d7d0c9c82887db690e366eee85ea8a1fd9ecd278abd35650ed97ad676',
    'loop-300.cpl: cluster':
        '6090282b1a74a545137c85132bc4000571f6c61049d6d359c5df59b550fbca99',
    'loop-300.cpl: trees':
        '69fc10879d97f25b030677abf2dd5f9adf18893eadd82ca8d4be503b27dcb477',
    'loop-300.cpl: trees --sorted':
        'd55486efa2274755e14a65f4d9fcc6c11e0e2008ea959f4729304207ece52f23',
    'loop-300.cpl: trees --dot':
        '834b5dccf4b59a3ac691fb873f0f12477f8e656eb40aac064cdc43171b0c2acc',
    'loop-300.cpl: cycles':
        'b266fccd6c4d9d914d799f1735f208f604617086aa5e8fba70b614a4b61f0b62',
    'loop-300.cpl: cycles --dot':
        '0030c94558a534341bf853081c73a33f2dd27a2372d29c40fec6a10a41dbb3b6',
    'loop-300.cpl: hierarchy':
        '5810abcf2850f04ed0e0796e748053c40d320bc95525a0f3be152eb75369e818',
    'loop-300.cpl: hierarchy --dot':
        'f12ae1fb0ee84902d94722f07f7e810df698c453811686923be2508375b37e88',
    'looped-300.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'looped-300.cpl: grid':
        'b0270c338c44c477197fe7c2f0372d134530577436e838200a0a6bdf78b902bb',
    'looped-300.cpl: grid --format json':
        '90c6863d7d0c9c82887db690e366eee85ea8a1fd9ecd278abd35650ed97ad676',
    'looped-300.cpl: cluster':
        '6090282b1a74a545137c85132bc4000571f6c61049d6d359c5df59b550fbca99',
    'looped-300.cpl: trees':
        '69fc10879d97f25b030677abf2dd5f9adf18893eadd82ca8d4be503b27dcb477',
    'looped-300.cpl: trees --sorted':
        'd55486efa2274755e14a65f4d9fcc6c11e0e2008ea959f4729304207ece52f23',
    'looped-300.cpl: trees --dot':
        '834b5dccf4b59a3ac691fb873f0f12477f8e656eb40aac064cdc43171b0c2acc',
    'looped-300.cpl: cycles':
        'f288a31c436dc66e37c98c349f1d87ca3fce8b41fe2c916e51287f7afb5ef5c2',
    'looped-300.cpl: cycles --dot':
        '6b053762ff184f09c9824f3a6082ef8de62d59c530755c902eef699b62740f5a',
    'looped-300.cpl: hierarchy':
        '5810abcf2850f04ed0e0796e748053c40d320bc95525a0f3be152eb75369e818',
    'looped-300.cpl: hierarchy --dot':
        'f12ae1fb0ee84902d94722f07f7e810df698c453811686923be2508375b37e88',
    'mixed-300.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'mixed-300.cpl: grid':
        '908c10a3f56e1c0b7ef0969613b97ec5f1d250edc90d9f3b3e0e9226061e03e1',
    'mixed-300.cpl: grid --format json':
        '8ce7a0e721ba363f6be5a7381acd35875ebc4b3844db5c3aaf77759ee764db61',
    'mixed-300.cpl: cluster':
        '298bcecf88d653e9bb38f5848824b91a391c2b88d6a0190e67b676d43a5e51a6',
    'mixed-300.cpl: trees':
        'bd7108ec18ba0265c84d4412dc676935ea3d492ae0562a2596470cde0d92df64',
    'mixed-300.cpl: trees --sorted':
        'f2f5c98dfa8f7543d75a0d6fd56ec5c613001dc31d6635ebc16d2d164f604227',
    'mixed-300.cpl: trees --dot':
        '3cdea3b5f7189cfbbca21fea369d256952ea4934847ed6a43498256b3ab6fb92',
    'mixed-300.cpl: cycles':
        'e0b5498a8e50163a9347c25ac69deee58d1feb35930b2f23f1f90b65e586fe2d',
    'mixed-300.cpl: cycles --dot':
        '80963b59406a25f2448eb89b3aa04df63d925f944057fc40e9fdd7ea1c73b75e',
    'mixed-300.cpl: hierarchy':
        '36a9c4cc6ada1bc8ac6b0116d6459449464d3e2c796bcc0aa272161b29f9abb8',
    'mixed-300.cpl: hierarchy --dot':
        '36a9c4cc6ada1bc8ac6b0116d6459449464d3e2c796bcc0aa272161b29f9abb8',
    'reversed-300.cpl: check':
        '86966c870ce561e880b822b5236760e4812b752579460ea89298445083a3f5eb',
    'reversed-300.cpl: grid':
        '31e6da56b8c2560817b72e41d8214d0461456682fe1827659555bf5c5e014832',
    'reversed-300.cpl: grid --format json':
        '31e6da56b8c2560817b72e41d8214d0461456682fe1827659555bf5c5e014832',
    'reversed-300.cpl: cluster':
        '31e6da56b8c2560817b72e41d8214d0461456682fe1827659555bf5c5e014832',
    'reversed-300.cpl: trees':
        '31e6da56b8c2560817b72e41d8214d0461456682fe1827659555bf5c5e014832',
    'reversed-300.cpl: trees --sorted':
        '31e6da56b8c2560817b72e41d8214d0461456682fe1827659555bf5c5e014832',
    'reversed-300.cpl: trees --dot':
        '31e6da56b8c2560817b72e41d8214d0461456682fe1827659555bf5c5e014832',
    'reversed-300.cpl: cycles':
        '31e6da56b8c2560817b72e41d8214d0461456682fe1827659555bf5c5e014832',
    'reversed-300.cpl: cycles --dot':
        '31e6da56b8c2560817b72e41d8214d0461456682fe1827659555bf5c5e014832',
    'reversed-300.cpl: hierarchy':
        '31e6da56b8c2560817b72e41d8214d0461456682fe1827659555bf5c5e014832',
    'reversed-300.cpl: hierarchy --dot':
        '31e6da56b8c2560817b72e41d8214d0461456682fe1827659555bf5c5e014832',
    'cycles-300.cpl: check':
        'b02183e54f535862d323009e5cfbc5cc0f67a3438a1fac81a4f61e2e8792f9d4',
    'cycles-300.cpl: grid':
        '94f1a47755db7b424fb1f28a8647845c32949784e1b6702ec8c397ea2bc8fcc1',
    'cycles-300.cpl: grid --format json':
        '94f1a47755db7b424fb1f28a8647845c32949784e1b6702ec8c397ea2bc8fcc1',
    'cycles-300.cpl: cluster':
        '94f1a47755db7b424fb1f28a8647845c32949784e1b6702ec8c397ea2bc8fcc1',
    'cycles-300.cpl: trees':
        '94f1a47755db7b424fb1f28a8647845c32949784e1b6702ec8c397ea2bc8fcc1',
    'cycles-300.cpl: trees --sorted':
        '94f1a47755db7b424fb1f28a8647845c32949784e1b6702ec8c397ea2bc8fcc1',
    'cycles-300.cpl: trees --dot':
        '94f1a47755db7b424fb1f28a8647845c32949784e1b6702ec8c397ea2bc8fcc1',
    'cycles-300.cpl: cycles':
        '94f1a47755db7b424fb1f28a8647845c32949784e1b6702ec8c397ea2bc8fcc1',
    'cycles-300.cpl: cycles --dot':
        '94f1a47755db7b424fb1f28a8647845c32949784e1b6702ec8c397ea2bc8fcc1',
    'cycles-300.cpl: hierarchy':
        '94f1a47755db7b424fb1f28a8647845c32949784e1b6702ec8c397ea2bc8fcc1',
    'cycles-300.cpl: hierarchy --dot':
        '94f1a47755db7b424fb1f28a8647845c32949784e1b6702ec8c397ea2bc8fcc1',
    'chains-30.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'chains-30.cpl: grid':
        'b63a69f5ec1978bb98b73e455e831e0e13cfd19e106f73412a56a92048e6a90c',
    'chains-30.cpl: grid --format json':
        '3dd15ad8c58ddac23ccb6fc4bdb18e79c2db32bafe7e5a86bdabd2a190f735ba',
    'chains-30.cpl: cluster':
        'c6a61c6ef32e72ec4bf6197e79f9a85ddb916307e5c852c3ef3804e73816491f',
    'chains-30.cpl: trees':
        '0e65fcf375682673b0a314553c7a4d8ec0d487e283c721c010e6d3017578d985',
    'chains-30.cpl: trees --sorted':
        '18982a196eebec96b73822aa9f13bb2d1c1a49c56320d9b4a9aced3350e33858',
    'chains-30.cpl: trees --dot':
        '3c5fb163e38a03997e2aa23114e70546c71069836be36c47d797aec61aab51f0',
    'chains-30.cpl: cycles':
        'f288a31c436dc66e37c98c349f1d87ca3fce8b41fe2c916e51287f7afb5ef5c2',
    'chains-30.cpl: cycles --dot':
        '3998c5ceef29aa808e2338204636eb5848e125998f04996622a416e09606f6a1',
    'chains-30.cpl: hierarchy':
        'cec299f802423095fb0c92e9a6071a507ba067682aed12c8049705533a6c960c',
    'chains-30.cpl: hierarchy --dot':
        'e8ff81c445c781ac5385efc0e0ee038ecb56f873272d0c6cf7ff17bba7d20a2c',
    'wake-300.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'wake-300.cpl: grid':
        '07f41c8fbe3fcce3f742f33f9d0222f213d60930ea26fe51cf1eb4270e6cc0e2',
    'wake-300.cpl: grid --format json':
        '9fcd8010d5b7418f70b46a0fe67b90e4219b34752e363df4b7f993811379ed80',
    'wake-300.cpl: cluster':
        '3dc4c8397e1b3c1c57a062feca8a82e903969c030a11ac020852a2b6188adf0e',
    'wake-300.cpl: trees':
        '470b61315a48c11f73a4945bc5804d18c6924d300578216a4cbb531b5a99ba48',
    'wake-300.cpl: trees --sorted':
        '86824d406768c970dd9874247d36ce24222947e4f00af02be675e22999090cf3',
    'wake-300.cpl: trees --dot':
        '80251cf7cb6da25f19dc634e855df3f982823f8e169b08fd28f1eadbd8dd94a7',
    'wake-300.cpl: cycles':
        'f288a31c436dc66e37c98c349f1d87ca3fce8b41fe2c916e51287f7afb5ef5c2',
    'wake-300.cpl: cycles --dot':
        '95deec2ba653c6b4f0ae9d5d7f79b676bbee86cb36ae1448cf764dcec64dc74e',
    'wake-300.cpl: hierarchy':
        '8336cc760dfe89df6dca6bac9376962af75be6457ca63168e8bd4f632a7cff90',
    'wake-300.cpl: hierarchy --dot':
        '3b7a8c24c8d3dc5c44e57b90502bc09747b5c54be69feeeaa610cccb1d58c89a',
    'no-rules.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'no-rules.cpl: grid':
        'd42a64d0505c20029fa8edd2a4195e2b4f929e9ad3d9106127534b086faf93b7',
    'no-rules.cpl: grid --format json':
        'c0993a2884fd4b94d921844fb121ab4874b0fa5d1e61c19085bd45e4b4f375c3',
    'no-rules.cpl: cluster':
        'd15324a4af6e9afb72427435a31d69a5cae24069c964f45cd42cab6b6af5d916',
    'no-rules.cpl: trees':
        '51d96e5b23f1f88ec9256e1f47bb7941e83d3b235b21e26780e61cda28e89417',
    'no-rules.cpl: trees --sorted':
        '51d96e5b23f1f88ec9256e1f47bb7941e83d3b235b21e26780e61cda28e89417',
    'no-rules.cpl: trees --dot':
        '7c1f3e967ee5c5175266a73b4aa8e0b8b8cd65e00ab7d18590b24fbcdbbb416c',
    'no-rules.cpl: cycles':
        'f288a31c436dc66e37c98c349f1d87ca3fce8b41fe2c916e51287f7afb5ef5c2',
    'no-rules.cpl: cycles --dot':
        '9767021ef034b74b74cf1da4cdb8c1027809d5bb5ccbb73ec63e607c439dad5e',
    'no-rules.cpl: hierarchy':
        'ab91be9204afb7b7fe18f3bef19f16e68efcb157c7cc6f0bcae1cca8186ac8f6',
    'no-rules.cpl: hierarchy --dot':
        'ab91be9204afb7b7fe18f3bef19f16e68efcb157c7cc6f0bcae1cca8186ac8f6',
    'disjoint.cpl: check':
        '878837d13ebd216c476b4408f9145146443328a2d15a9dd7e65aaf4a5838afc8',
    'disjoint.cpl: grid':
        '3c5e42e1d9711bfc5976ae82e89da61460ab06b397e9d47aef0eb5007e6ff3f2',
    'disjoint.cpl: grid --format json':
        'bbb955b2d358dbf862f73d7077c3a6820a876ae0d3942add452ee7e7ebda6cda',
    'disjoint.cpl: cluster':
        'd0701a6ebfd4c28fde991466b92162084d33b3e88ac2f5827ced9f45296523c0',
    'disjoint.cpl: trees':
        'c7ba5f83db9693904c92e8198f31ff86aa39a9a2c211d40655a657e78f4e1572',
    'disjoint.cpl: trees --sorted':
        'c7ba5f83db9693904c92e8198f31ff86aa39a9a2c211d40655a657e78f4e1572',
    'disjoint.cpl: trees --dot':
        '7a61632cef7761c9c5eb4bc7c2533c3cedf9bf36bb955b30781bbeeb674d46b6',
    'disjoint.cpl: cycles':
        'f288a31c436dc66e37c98c349f1d87ca3fce8b41fe2c916e51287f7afb5ef5c2',
    'disjoint.cpl: cycles --dot':
        '1744148766a91749b284dcacef4cf5ec3186168eb163821c2616642668f55de7',
    'disjoint.cpl: hierarchy':
        '4950a1f25e1b188e8ff2423530fc3df74a3c21506d8b36d0673d74e75faeeebc',
    'disjoint.cpl: hierarchy --dot':
        '4950a1f25e1b188e8ff2423530fc3df74a3c21506d8b36d0673d74e75faeeebc',
    'scenes/cooking.cpl: check --out':
        '5cd2e6292b13c58f4d35bdd5a6d62cfb8b81cfa7a7a8fea38fa63cdf71d949f3',
    'scenes/cooking.cpl: grid --out':
        'bdf8eee3a17475b19a481651208fd6899802d10f16b9f4b4d08582b2dc31d254',
    'scenes/cooking.cpl: grid --format json --out':
        '9df056067f558767850f30d68db682c746b98c450a440802f5c697ab010eede1',
    'scenes/cooking.cpl: cluster --out':
        '5c01d919e92bc6a51c0f8d10188e9bc2adcc241457b1f269481f6bf555ef8dfc',
    'scenes/cooking.cpl: trees --out':
        '4a17692d8a38043f8561fcaa385587a7b974e61c2479613ab080551bc2bd9333',
    'scenes/cooking.cpl: trees --sorted --out':
        '95abb9373fa63d31283e312709036300af376d75ff1b97e246ad1dcef7c3fd6a',
    'scenes/cooking.cpl: trees --dot --out':
        '2dab9d684dd402dc3009147005008d10784eac3ffac786be498b723dd66a1800',
    'scenes/cooking.cpl: cycles --out':
        'b46783e6ff4b321da44d45f6875d8327c24101e6818c125971a2c3879c328829',
    'scenes/cooking.cpl: cycles --dot --out':
        '545d7d0aa34b260b3740295210edffa0116a8d7b0abc98d8ce08f3f70d8cd0f2',
    'scenes/cooking.cpl: hierarchy --out':
        'ac632589cb93b8110cfca78e45acedbd9ab31bec2874a75819bcdf0e24c3a518',
    'scenes/cooking.cpl: hierarchy --dot --out':
        '9c24692e9340f4740e560721c3b9d338ff37f7ef10ec76c89c231253d8971708',
    'CPL_COLOR=1 scenes/inconsistent.cpl: check':
        'a6333a49a41f0ff09059c21fdf0b0638ffde9592089bd3973a63e113d26a41a4',
    'CPL_COLOR=1 scenes/first_attempt.cpl: check':
        '119f18f0f3be993ad6e28d47ed03e2cafafbaa5482c70ecb9cbea2700f056119',
    'CPL_COLOR=1 disjoint.cpl: hierarchy':
        '81e79a3b38f2b372ca06513c9d1f847d4c952065d92f3d9ffab7e9ac5757204a',
    'CPL_COLOR=1 python scripts/run_cooking_report.py scenes/inconsistent.cpl':
        '4f19f0660d18cfb649cbc05e0bcf21030826bda7e72fec6a2fe5d03e0a1cb137',
    'predict --memory scenes/memory_demo --input Pot,Water -k 3':
        '001aa483db4bfe20e5125874afc7ca3c92799c2446aa5c14b0be6cc7a9165396',
    'predict --memory scenes/memory_demo --input Pot,Water --legal Egg,Salt -k 2':
        '900c7d540dc937891dbc7a39f5a1400bb736dba9d4c25d50d7671dab1eca2535',
    'predict --memory scenes/memory_demo --input Pot':
        'bfd20a6d4f95573c4e16771fa7401406365a299ebe2c98b6c45222083d91630d',
    'predict --memory scenes/memory_demo --input Salt,Heat -k 5':
        'fbb4f98e313fd1b4cd4edca17c91a9f81e15293b7c5547db883669d33f5fb23a',
    'predict --memory scenes/memory_demo --input Nothing -k 2':
        'b0efbbc43054beee753cd10fab49ea0fe2fabdba420e72d0ba74fe2a0222dbf9',
    'predict --memory scenes/memory_demo --input Pot -k 0':
        'ff467eb6f6effc945ebf56c01eb05ace1e2c8b1d2bf5ab8df0bc72614904eb99',
    'predict --memory scenes --input Pot':
        'cbf40a45f62dc54fbfddf1981297afa91b1e375bde9cf65c4e1bf8cbe8073b76',
    'python scripts/run_cooking_report.py':
        '269becf18df596a281b35110f22bb51e62b47f7ed4d391cbdeb7756200bfb237',
    'python scripts/run_cooking_report.py scenes/quantities.cpl':
        'dfcdf166551d8abaf18525973e09b2c9b635e3acf898b1c97a98ac4c4415914f',
    'python scripts/run_cooking_report.py scenes/inconsistent.cpl':
        '5f11739b0ddc67b4f92b168e2021caf8ac5cdfd95dbd8be915319ae56ed6b1d7',
    'python scripts/run_cooking_report.py scenes/first_attempt.cpl':
        'de74351c1da33058288f830daeb1409ebe07d57e3af97beca2daab39752f4c99',
    'python scripts/run_cooking_report.py scenes/operators.cpl':
        '13edcdb21a02e66c24f8c9eb5984893477deb2ad694f45a1a8b48405690e8542',
    'python scripts/run_cooking_report.py no-rules.cpl':
        '22b9a1a9d62f07dfbffd97e864badb9a3df5786b33884c626551ba40f2814f76',
    'python scripts/run_cooking_report.py disjoint.cpl':
        '44781a5feb8a7c14d9018fdeb7492576a9890cdd658eebe47cdab44472a9987e',
    'python scripts/run_cooking_report.py scenes/missing.cpl':
        '08a72f50b8fb81764fcc759d3811a2bae94d1ad2b78183ecb7d22de9f8ade130',
    'python scripts/run_cooking_report.py scenes':
        'e4d67a064864a10276eaa53de258714a2493f2685db7936e420aeb4f62c05512',
    'python scripts/memory_demo.py':
        'adf8a250ef0b7323f8e2bd18d06dc1f2387c3c515e97c41c4ecae5fe357dcd49',
}


if __name__ == "__main__":
    os.environ.pop("CPL_COLOR", None)
    with tempfile.TemporaryDirectory() as tmp:
        write_generated(Path(tmp))
        print("DIGESTS = {")
        for case in CASES:
            print(f"    {case!r}:\n        "
                  f"{digest(*run_case(case, Path(tmp)))!r},")
        print("}")
