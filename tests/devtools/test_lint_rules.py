"""Tests of the determinism lint (``repro.devtools.lint``).

Three layers:

* every rule R001–R006 has a paired bad/good fixture tree under
  ``tests/devtools/fixtures/`` — the bad tree must produce findings of
  exactly that rule, the good tree must lint clean;
* the real ``src/`` tree must lint clean (the same invocation CI runs),
  and the CLI exit codes must gate correctly;
* inline suppression must waive a finding only when it names the right
  rule *and* carries a reason.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import BAD_SUPPRESSION_ID, REGISTRY, run_lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

RULE_IDS = ("R001", "R002", "R003", "R004", "R005", "R006")


def lint_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestRegistry:
    def test_every_contract_rule_is_registered(self):
        assert set(RULE_IDS) <= set(REGISTRY)

    def test_rules_carry_names_and_descriptions(self):
        for rule_class in REGISTRY.values():
            assert rule_class.rule_id
            assert rule_class.name
            assert rule_class.description


class TestFixtures:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_fixture_is_flagged(self, rule_id):
        diagnostics = run_lint([FIXTURES / rule_id.lower() / "bad"])
        assert diagnostics, f"{rule_id} bad fixture produced no findings"
        assert {d.rule_id for d in diagnostics} == {rule_id}, [
            d.render() for d in diagnostics
        ]

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_good_fixture_is_clean(self, rule_id):
        diagnostics = run_lint([FIXTURES / rule_id.lower() / "good"])
        assert diagnostics == [], [d.render() for d in diagnostics]

    def test_bad_fixtures_report_clickable_positions(self):
        diagnostics = run_lint([FIXTURES / "r001" / "bad"])
        for diagnostic in diagnostics:
            rendered = diagnostic.render()
            path, line, column = rendered.split(":")[:3]
            assert path.endswith(".py")
            assert int(line) >= 1 and int(column) >= 1

    def test_select_narrows_the_run(self):
        diagnostics = run_lint([FIXTURES / "r002" / "bad"], select=["R001"])
        assert diagnostics == []

    def test_r005_covers_both_format_version_pairs(self):
        # The bad tree must flag the JSONL pair *and* the columnar pair;
        # one regressing must never hide behind the other staying green.
        diagnostics = run_lint([FIXTURES / "r005" / "bad"])
        flagged = {Path(d.path).name for d in diagnostics}
        assert flagged == {"format.py", "columnar.py"}, [
            d.render() for d in diagnostics
        ]

    def test_r005_ignores_unpaired_version_constants(self, tmp_path):
        # MANIFEST_FORMAT_VERSION has no readable-set partner on purpose
        # (its reader is single-version); declaring it alone is clean.
        path = tmp_path / "store" / "manifest.py"
        path.parent.mkdir(parents=True)
        path.write_text("MANIFEST_FORMAT_VERSION = 1\n", encoding="utf-8")
        assert run_lint([tmp_path]) == []

    @pytest.mark.parametrize(
        "relative,source,flagged",
        [
            ("sim/pacer.py", "import time\ntime.sleep(0.1)\n", True),
            ("store/pacer.py", "import asyncio\nasyncio.sleep(0.1)\n", True),
            ("pacer.py", "from time import sleep\n", True),
            ("devtools/pacer.py", "import time\ntime.sleep(0.1)\n", False),
            ("benchmarks/pacer.py", "import time\ntime.sleep(0.1)\n", False),
        ],
    )
    def test_r006_applies_everywhere_but_devtools_and_benchmarks(
        self, tmp_path, relative, source, flagged
    ):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        rule_ids = [d.rule_id for d in run_lint([tmp_path])]
        assert rule_ids == (["R006"] if flagged else [])


class TestRealTree:
    def test_source_tree_lints_clean(self):
        diagnostics = run_lint([SRC / "repro"])
        assert diagnostics == [], "\n".join(d.render() for d in diagnostics)

    def test_cli_exits_zero_on_src(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", "src"],
            cwd=REPO_ROOT,
            env=lint_env(),
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_cli_exits_nonzero_on_bad_fixture(self, rule_id):
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.devtools.lint",
                str(FIXTURES / rule_id.lower() / "bad"),
            ],
            cwd=REPO_ROOT,
            env=lint_env(),
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 1, completed.stdout + completed.stderr
        assert rule_id in completed.stdout

    def test_cli_lists_every_rule(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", "--list-rules"],
            cwd=REPO_ROOT,
            env=lint_env(),
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        for rule_id in RULE_IDS:
            assert rule_id in completed.stdout


class TestSuppression:
    def write(self, tmp_path: Path, relative: str, text: str) -> Path:
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return tmp_path

    def test_trailing_suppression_with_reason_waives_the_finding(self, tmp_path):
        root = self.write(
            tmp_path,
            "sim/clocky.py",
            "import time\n"
            "START = time.time()  # repro-lint: disable=R002 build stamp, not sim state\n",
        )
        assert run_lint([root]) == []

    def test_standalone_suppression_covers_the_next_line(self, tmp_path):
        root = self.write(
            tmp_path,
            "sim/fanout.py",
            "def fan_out(mapping):\n"
            "    # repro-lint: disable=R003 insertion order fixed at config time\n"
            "    return [value for value in mapping.values()]\n",
        )
        assert run_lint([root]) == []

    def test_suppression_without_reason_is_itself_a_finding(self, tmp_path):
        root = self.write(
            tmp_path,
            "sim/clocky.py",
            "import time\n"
            "START = time.time()  # repro-lint: disable=R002\n",
        )
        rule_ids = {d.rule_id for d in run_lint([root])}
        # The reason-less directive suppresses nothing and is flagged itself.
        assert rule_ids == {BAD_SUPPRESSION_ID, "R002"}

    def test_suppression_only_waives_the_named_rule(self, tmp_path):
        root = self.write(
            tmp_path,
            "sim/clocky.py",
            "import time\n"
            "START = time.time()  # repro-lint: disable=R001 wrong rule named here\n",
        )
        assert {d.rule_id for d in run_lint([root])} == {"R002"}

    def test_suppression_can_name_several_rules(self, tmp_path):
        root = self.write(
            tmp_path,
            "sim/clocky.py",
            "import random\n"
            "import time\n"
            "SEED = random.random()  # repro-lint: disable=R001,R002 fixture exercising both\n",
        )
        diagnostics = run_lint([root])
        # The import line itself is still flagged; only the draw is waived.
        assert [d.rule_id for d in diagnostics] == ["R001"]
        assert diagnostics[0].line == 1
