"""The package needs numpy alone, and nothing outside its arguments configures it.

No module imports scipy, not even lazily, no module reads or writes the
process environment, every random draw comes from a stream built by
``statespace.rng_stream``, and ``eigvalsh`` serves only the trace-distance
kernel and the minimum-eigenvalue checks.
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


def dotted(node: ast.AST) -> str:
    """``a.b.c`` for a chain of attributes on a name, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def random_state_uses(tree: ast.Module, stream_builder: str | None = None) -> list[str]:
    """Calls of ``np.random.*`` and imports from ``numpy.random``, outside the
    function named ``stream_builder``."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == stream_builder:
            exempt.update(id(inner) for inner in ast.walk(node))
    uses = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Call) and dotted(node.func).startswith(("np.random.", "numpy.random.")):
            uses.append(dotted(node.func))
        elif isinstance(node, ast.Import):
            uses += [alias.name for alias in node.names if alias.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = {alias.name for alias in node.names}
            if node.module.startswith("numpy.random") or (node.module == "numpy" and "random" in names):
                uses.append(f"from {node.module} import")
    return uses


def functions_naming(tree: ast.Module, attribute: str) -> list[str]:
    """The innermost function around each use of ``<something>.<attribute>``
    and each import of the name, or '<module>' outside every function, in
    source order."""
    names = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == attribute) or (
            isinstance(node, ast.alias) and node.name == attribute
        ):
            names.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return names


# The functions that may call eigvalsh: the trace-distance kernel, for N >= 4,
# and the checks that need a minimum eigenvalue to its full accuracy, which
# the kernel's closed forms do not give near a zero eigenvalue.
EIGVALSH_FUNCTIONS = {
    "statespace.py": {"_clipped_distances", "_density_stack"},
    "dynamics.py": {"_check_block"},
    "verify.py": {"jordan_hahn_suite", "translation_suite", "_max_admissible_stretch"},
}


def test_no_module_imports_scipy():
    trees = package_trees()
    assert [name for name, tree in trees.items() if "scipy" in imported_packages(tree)] == []


def test_no_module_reads_the_environment():
    trees = package_trees()
    assert {name: uses for name, tree in trees.items() if (uses := environment_uses(tree))} == {}


def test_only_rng_stream_builds_generators():
    # batch independence rests on every draw coming from a (seed, key) stream
    trees = package_trees()
    uses = {
        name: found
        for name, tree in trees.items()
        if (found := random_state_uses(tree, "rng_stream" if name == "statespace.py" else None))
    }
    assert uses == {}
    assert random_state_uses(trees["statespace.py"]) == [
        "np.random.Generator", "np.random.PCG64", "np.random.SeedSequence"
    ]
    probe = ast.parse("import numpy as np\nnp.random.seed(1)\nx = np.random.default_rng().random()\n")
    assert sorted(random_state_uses(probe)) == ["np.random.default_rng", "np.random.seed"]


def test_eigvalsh_only_in_the_kernel_and_minimum_eigenvalue_checks():
    # one trace-distance kernel: a second eigvalsh distance anywhere else fails here
    trees = package_trees()
    callers = {name: set(found) for name, tree in trees.items() if (found := functions_naming(tree, "eigvalsh"))}
    assert callers == EIGVALSH_FUNCTIONS
    probe = ast.parse(
        "import numpy as np\ndef f(m):\n    return np.linalg.eigvalsh(m)\nfrom numpy.linalg import eigvalsh\n"
    )
    assert functions_naming(probe, "eigvalsh") == ["f", "<module>"]
