"""The package needs numpy alone, and nothing outside its arguments configures it.

No module imports scipy, not even lazily, no module reads or writes the
process environment, every random draw comes from a stream built by
``statespace.rng_stream``, ``eigvalsh`` serves only the trace-distance
kernel and the minimum-eigenvalue checks, and ``eigh`` serves only the one
Jordan-Hahn split, the spectral decomposition of a state and verify's
stretch bound. Every public function has a caller outside the tests.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "backflow"

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


def public_functions(tree: ast.Module) -> list[str]:
    """Public module-level functions and public methods of public classes, as
    ``name`` or ``Class.name``, in source order."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            found.append(node.name)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
            ]
    return found


def names_used(tree: ast.Module) -> set[str]:
    """Every name a module reads, every attribute it takes and every name it
    imports; a ``def`` statement does not name its own function."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def callers_outside_the_tests() -> set[str]:
    """The names used by the package modules but ``__init__.py``, by ``scripts/``
    and ``bench/*.py``, and the functions of BENCHMARK.json's per-layer metrics
    (``<module>.<function>.<quantity>``)."""
    trees = [tree for name, tree in package_trees().items() if name != "__init__.py"]
    trees += [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(ROOT.glob("scripts/*.py"))]
    trees += [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(ROOT.glob("bench/*.py"))]
    names = set().union(*map(names_used, trees))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return names | {m["name"].split(".")[1] for m in declared["per_layer"] if m["name"].count(".") >= 2}


# Public functions that only the tests call, each kept for its reason.
UNCALLED_ON_PURPOSE = {
    "haar_unitary": "the documented Haar sampler; the package draws its unitaries as stacks",
    "is_boundary": "the paper's claim that optimal pairs lie on the boundary, which ROADMAP item 2 gates on",
    "depolarize_stack": "the depolarizing map itself, the reference the tests check verify._trajectory against",
}


# The functions that may call eigvalsh: the trace-distance kernel, for N >= 4,
# and the checks that need a minimum eigenvalue to its full accuracy, which
# the kernel's closed forms do not give near a zero eigenvalue.
EIGVALSH_FUNCTIONS = {
    "statespace.py": {"_clipped_distances", "_density_stack"},
    "dynamics.py": {"_check_block"},
    "verify.py": {"_jordan_hahn_block", "translation_suite", "_max_admissible_stretch"},
}

# The functions that may call eigh: the one split by sign, which the
# Jordan-Hahn split and the mixed-pair sampler share, the eigenvectors of a
# state, and the inverse square root of verify's stretch bound.
EIGH_FUNCTIONS = {
    "statespace.py": {"_signed_parts", "spectral_decomposition"},
    "verify.py": {"_max_admissible_stretch"},
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
    assert random_state_uses(trees["statespace.py"]) == ["np.random.Generator", "np.random.Philox"]
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


def test_eigh_only_in_the_split_and_the_spectral_decomposition():
    # one split by sign: a second eigh-based split anywhere else fails here
    trees = package_trees()
    callers = {name: set(found) for name, tree in trees.items() if (found := functions_naming(tree, "eigh"))}
    assert callers == EIGH_FUNCTIONS


def test_every_public_function_has_a_caller():
    # a public name that only the tests call restates another call, or is dead
    trees = {name: tree for name, tree in package_trees().items() if name != "__init__.py"}
    used = callers_outside_the_tests() | set(UNCALLED_ON_PURPOSE)
    uncalled = [
        f"{name}:{function}"
        for name, tree in trees.items()
        for function in public_functions(tree)
        if function.rpartition(".")[2] not in used
    ]
    assert uncalled == []
    defined = {function for tree in trees.values() for function in public_functions(tree)}
    assert set(UNCALLED_ON_PURPOSE) <= defined
    probe = ast.parse(
        "def f():\n    return g()\n"
        "class C:\n    def m(self):\n        return self.n\n    def _p(self):\n        pass\n"
    )
    assert public_functions(probe) == ["f", "C.m"]
    assert names_used(probe) == {"g", "self", "n"}
