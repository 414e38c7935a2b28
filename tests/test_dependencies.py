"""The package needs numpy alone: no module imports scipy, not even lazily."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "backflow"


def imported_packages(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module, function bodies included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [path.name for path in modules if "scipy" in imported_packages(path)] == []
