"""Rules the package source keeps, checked on its syntax trees.

Runtime invariants must survive `python -O`, so none is a bare `assert`;
parallelism comes from vectorising, so no module imports a thread or
process pool.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "mixedsums").glob("*.py"))
POOLS = ("concurrent.futures", "threading", "multiprocessing")


def _is_pool(module: str) -> bool:
    return any(module == name or module.startswith(name + ".") for name in POOLS)


def test_the_package_has_sources():
    assert len(SRC) >= 7


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}; raise an error instead"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_thread_or_process_pools(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if _is_pool(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if _is_pool(node.module) or any(
                _is_pool(f"{node.module}.{a.name}") for a in node.names
            ):
                found.append((node.lineno, node.module))
    assert found == [], f"{path.name}: imports {found}"
