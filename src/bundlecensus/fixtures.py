"""Built-in manifold descriptions used as fixtures and CLI inputs.

Each built-in is the shipped file ``data/<name>.manifold``; its header
comments say what the data describe.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path

from .cohomology import ManifoldData
from .manifold_io import parse_manifold

BUILTIN_NAMES = ("cp4", "s8", "hp2", "cp2xcp2", "cp1xcp3", "torsion-demo")

_DATA = Path(__file__).parent / "data"


@cache
def builtin(name: str) -> ManifoldData:
    """A validated built-in ManifoldData by name.

    Parsed, validated and so compiled once per process:
    every call returns the same shared instance, which is read-only.
    Derive variants with ``data._replace(...)``; never mutate its dicts."""
    if name not in BUILTIN_NAMES:
        raise ValueError(
            f"unknown builtin {name!r} (choose from {', '.join(BUILTIN_NAMES)})"
        )
    return parse_manifold(_DATA / f"{name}.manifold")
