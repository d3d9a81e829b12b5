"""Rules the package source keeps, checked on its syntax trees.

Runtime invariants must survive `python -O`, so none is a bare `assert`;
parallelism comes from vectorising, so no module imports a thread or
process pool; every generator is seeded through numpy's own SeedSequence,
so no module imports numpy.random.bit_generator's seeding internals.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "mixedsums").glob("*.py"))
POOLS = ("concurrent.futures", "threading", "multiprocessing")
SEEDING = ("numpy.random.bit_generator",)


def _under(module: str, names: tuple[str, ...]) -> bool:
    return any(module == name or module.startswith(name + ".") for name in names)


def _imports(path):
    """(line, dotted name) of each absolute import in `path`: the module,
    and for `from m import a` also m.a, which may be a submodule."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module
            yield from ((node.lineno, f"{node.module}.{a.name}") for a in node.names)


def test_the_package_has_sources():
    assert len(SRC) >= 7


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}; raise an error instead"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_thread_or_process_pools(path):
    found = [(line, name) for line, name in _imports(path) if _under(name, POOLS)]
    assert found == [], f"{path.name}: imports {found}"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_seeding_outside_seed_sequence(path):
    # a hand-made ISeedSequence would be a second seeding path beside numpy's
    found = [(line, name) for line, name in _imports(path) if _under(name, SEEDING)]
    assert found == [], f"{path.name}: imports {found}"
