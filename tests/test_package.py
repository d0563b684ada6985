"""Package surface.

Tests verify:
- the top-level export list is exactly the union of the five submodules'
  export lists, and every exported name resolves
"""
from __future__ import annotations

import qwalk
from qwalk import cqcnn, datasets, evaluation, graphs, walkers

SUBMODULES = (graphs, walkers, datasets, cqcnn, evaluation)


def test_top_level_exports_match_the_submodules():
    top = set(qwalk.__all__) - {"__version__"}
    union = set().union(*(m.__all__ for m in SUBMODULES))
    assert top == union, f"only top level: {top - union}; only submodules: {union - top}"
    assert len(qwalk.__all__) == len(set(qwalk.__all__)), "duplicate export"
    for m in SUBMODULES:
        for name in m.__all__:
            assert getattr(qwalk, name) is getattr(m, name), f"{m.__name__}.{name}"
    assert isinstance(qwalk.__version__, str)
