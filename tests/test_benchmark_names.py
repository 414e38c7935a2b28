"""Every per-layer metric that BENCHMARK.json declares names code the package still has.

A per-layer metric is ``<module>.<function>.<quantity>`` or the name of an
exact counter. `bench/run.py --trace 1` refuses a whole run when one of
them names a function that was renamed or made private, so the rename is
caught here instead. ``setup.*``, ``eigensolve.*`` and ``trace.*`` are
measured outside the package and are skipped. The benchmark's own span
and counter tables in ``bench/spans.py`` are read, never changed.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import backflow.cli  # noqa: F401  (loads every traced module)

ROOT = Path(__file__).resolve().parent.parent
OUTSIDE_THE_PACKAGE = ("setup.", "eigensolve.", "trace.")


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


def package_function(module: str, attr: str):
    return inspect.isfunction(getattr(importlib.import_module(f"backflow.{module}"), attr, None))


def declared_per_layer() -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in declared["per_layer"] if not m["name"].startswith(OUTSIDE_THE_PACKAGE)]


@pytest.mark.parametrize("name", declared_per_layer())
def test_per_layer_metric_names_a_package_function(name):
    counted = [qualified for qualified, (counter, _) in SPANS.COUNTERS.items() if counter == name]
    if counted:
        functions = [tuple(qualified.split(".")) for qualified in counted]
    else:
        layer = name.rpartition(".")[0]
        module, _, function = layer.partition(".")
        grouped = [key for key, span in SPANS.EXTRA_SPANS.items() if span == layer]
        functions = grouped or [(module, function)]
        assert grouped or not function.startswith("_"), f"{name}: {layer} is private"
    for module, attr in functions:
        assert package_function(module, attr), f"{name}: backflow.{module} has no function {attr!r}"
