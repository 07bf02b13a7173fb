"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pvga"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never reads, skipping
    ``__future__`` imports and any import statement with ``# noqa: F401`` on
    one of its lines.  A name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_finds_a_planted_import():
    source = (SRC / "vga.py").read_text()
    assert unused_imports(source) == []
    planted = "import json\nfrom .errors import InvalidAlpha, is_count\n" + source
    assert unused_imports(planted) == ["line 1: json", "line 2: InvalidAlpha"]
    # the marker exempts its own statement only
    assert unused_imports("import json  # noqa: F401\n" + source) == []


def linalg_calls(source: str, names: set) -> list[tuple[str, str]]:
    """(called name, enclosing function) of every call to one of ``names``,
    written as in the source (``np.linalg.inv``), in source order."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func) in names:
            found.append((node.lineno, ast.unparse(node.func), func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return [(name, func) for _, name, func in sorted(found)]


def test_factored_path_inverts_triangular_factors_without_lu():
    # every Cholesky factor is inverted by linalg._invert_lower, whose leaves
    # of at most 32 rows are the one place numpy's LU inverse runs; no LU
    # solve is left (the behavioral twin is in test_linalg)
    calls = {path.name: linalg_calls(path.read_text(), {"np.linalg.solve", "np.linalg.inv"})
             for path in MODULES}
    assert {name: c for name, c in calls.items() if c} == {
        "linalg.py": [("np.linalg.inv", "_invert_lower")]
    }
