"""Self-hosting gate: the linter runs clean on ``src/repro``.

This is the contract the CI lint step enforces; keeping it in tier-1
means a stray wall-clock read, unordered iteration, or bare builtin
raise fails the suite *before* it can poison a golden trace or a
cached sweep cell.
"""

import dataclasses
from pathlib import Path

from repro.lint import lint_paths, load_config

REPO_ROOT = Path(__file__).parents[2]


def test_src_repro_is_clean():
    result = lint_paths(
        [REPO_ROOT / "src" / "repro"],
        config=load_config(REPO_ROOT / "pyproject.toml"),
    )
    assert result.findings == [], [
        f"{f.path}:{f.line}: {f.rule} {f.message}"
        for f in result.findings
    ]
    assert result.unused_suppressions == [], [
        f"{u.path}:{u.line}: lint-ok[{u.rule}]"
        for u in result.unused_suppressions
    ]
    assert result.modules > 90


def test_deliberate_exceptions_stay_annotated():
    # The known suppression inventory: the reference solver's three
    # commutative set folds (D3), the report header's wall elapsed
    # (D1), and the CLI's unreachable dispatch guard (E1).  Growing
    # this list is fine — silently losing an annotation is not.  The
    # reference solver lives in the test suite, so it is linted here
    # as simulation-path code alongside the package.
    config = load_config(REPO_ROOT / "pyproject.toml")
    result = lint_paths(
        [
            REPO_ROOT / "src" / "repro",
            REPO_ROOT / "tests" / "net" / "reference.py",
        ],
        config=dataclasses.replace(
            config, sim_path=config.sim_path + ("tests.net.reference",)
        ),
    )
    per_rule = {
        rule: counts["suppressed"]
        for rule, counts in result.statistics()["per_rule"].items()
    }
    assert per_rule.get("D3", 0) >= 3
    assert per_rule.get("D1", 0) >= 2
    assert per_rule.get("E1", 0) >= 1
