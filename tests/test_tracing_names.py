"""Every name the benchmark's traced run patches must exist in the package.

``perfbench/tracing.py`` wraps functions and methods by module and
attribute name, so a rename in ``src/`` breaks the traced run.  This test
only reads that file.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    # executed from its text, so that no bytecode cache is written beside it
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    for _, modname, attr in tracing["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    for _, modname, clsname, attr in tracing["METHODS"] + tracing["COUNTERS"]:
        cls = getattr(importlib.import_module(modname), clsname)
        assert callable(vars(cls).get(attr)), (modname, clsname, attr)
