"""The audit plugins under ``tools/`` still load, trace and report.

Each plugin runs in a pytest subprocess on one small test, so its
Hypothesis profile and its ``sys.settrace`` hook stay out of this
session.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# calls classes.base_point directly, and through the solver for `sample`
SMALL_TEST = "tests/test_classes.py::TestClassCatalogue::test_row[gna]"


def run_plugin(*options) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, SMALL_TEST],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.splitlines()


def test_linetrace_reports_the_never_run_lines():
    lines = run_plugin("-p", "tools.linetrace")
    (summary,) = [line for line in lines if line.startswith("linetrace:")]
    never, total = map(int, re.fullmatch(r"linetrace: (\d+) of (\d+) function-body lines never run", summary).groups())
    assert 0 < never < total
    listed = [line for line in lines if re.match(r"\w+\.py:\d+  ", line)]
    assert len(listed) == never


def test_callreach_counts_the_package_callers():
    lines = run_plugin("-p", "tools.callreach", "--callreach=classes.base_point")
    assert "callreach: 0 of 1 functions have no package caller" in lines
    assert any(re.fullmatch(r"classes\.base_point  \d+  tests via cli\.main \[cli > classes\]", line) for line in lines)
