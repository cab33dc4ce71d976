"""Tier-1 wiring for tools/src_lines.py (total and code-only line counts)."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

import repro

ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "src_lines.py"

#: Ratchet on the size of ``src/``: its code-only line count when this
#: number was last set.  A change that has to raise it edits the number
#: and explains why in CHANGES.md.
SRC_CODE_BUDGET = 9935

#: 12 lines: a module docstring (2), a comment, a blank line, a class
#: whose docstring spans two lines, and two string literals that are
#: code (an assignment and a bare expression after the first statement).
FIXTURE = '''"""Module docstring,
two lines."""
# a comment-only line

class Thing:
    """Class docstring,
    two lines."""
    label = "not a docstring"  # trailing comment

    def method(self):
        x = 1
        """A string after the first statement is code."""
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_counts():
    # Code: class Thing, label =, def method, x = 1, the late string.
    assert _load_tool().count_source(FIXTURE) == (12, 5)


def test_json_output_on_a_file(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    result = subprocess.run([sys.executable, str(TOOL), "--json", str(path)],
                            capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == {"files": 1, "total": 12, "code": 5}


def test_default_counts_the_package_source():
    counts = _load_tool().count_paths(ROOT / "src")
    assert 0 < counts["code"] < counts["total"]
    assert counts["files"] == len(list((ROOT / "src").rglob("*.py")))


def test_src_code_lines_within_budget():
    result = subprocess.run([sys.executable, str(TOOL), "--json"],
                            capture_output=True, text=True, check=True)
    assert json.loads(result.stdout)["code"] <= SRC_CODE_BUDGET
