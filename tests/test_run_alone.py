"""Tests that must pass when run alone, each in a fresh interpreter.

In the whole suite an earlier test may have filled a cache that a later one
reads, such as the ``B`` of a shared builtin, and so hide a question that
builds what loading should have built.  A test listed here runs by itself.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALONE = ["perfbench/tests/test_perfbench.py::test_traced_pass_counts_repeat_exactly"]


@pytest.mark.parametrize("test", ALONE)
def test_passes_when_run_alone(test):
    # without the hypothesis plugin, which these tests do not use and whose load is most of a run
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest", test],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
