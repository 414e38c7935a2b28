"""The package needs numpy alone, and nothing outside its arguments configures it.

No module imports scipy, not even lazily, and no module reads or writes
the process environment.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "backflow"

ENVIRONMENT_NAMES = {"environ", "getenv", "putenv"}


def package_trees() -> dict[str, ast.Module]:
    """Every module of the package, parsed, by file name."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in modules}


def imported_packages(tree: ast.Module) -> set[str]:
    """Top-level names of every absolute import in a module, function bodies included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def environment_uses(tree: ast.Module) -> list[str]:
    """``os.environ``, ``os.getenv`` and ``os.putenv``, as attributes or imported names."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in ENVIRONMENT_NAMES:
                uses.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            uses += [f"os.{alias.name}" for alias in node.names if alias.name in ENVIRONMENT_NAMES]
    return uses


def test_no_module_imports_scipy():
    trees = package_trees()
    assert [name for name, tree in trees.items() if "scipy" in imported_packages(tree)] == []


def test_no_module_reads_the_environment():
    trees = package_trees()
    assert {name: uses for name, tree in trees.items() if (uses := environment_uses(tree))} == {}
