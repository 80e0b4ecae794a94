"""The package names the benchmark binds still resolve.

``bench/tracer.py`` wraps every ``(module, attr)`` of its ``TARGETS`` on
``kontact.<module>``, and the bench's own tests and measured child import
or read a few more, so a rename or a deletion in the package breaks the
benchmark.  The bench files are read as source, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def tracer_targets():
    """(module, attr) of every entry of ``TARGETS`` in bench/tracer.py."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracer.py defines no TARGETS")


def bench_uses():
    """(module, attr) for every ``from kontact.<module> import attr`` in
    the bench's tests and child, and every ``<module>.attr`` read off a
    module bound by ``from kontact import <module>``."""
    imported, read = [], []
    for path in (BENCH / "test_bench.py", BENCH / "child.py"):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "kontact":
                modules.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kontact."):
                imported += [(node.module[len("kontact."):], a.name) for a in node.names]
        read += [(node.value.id, node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules]
    return imported, read


def bound_names():
    imported, read = bench_uses()
    return sorted(set(tracer_targets() + imported + read))


def test_the_bench_sources_parse_to_bound_names():
    # each source yields names, so an unparsed form cannot pass vacuously
    imported, read = bench_uses()
    assert tracer_targets() and imported and read


@pytest.mark.parametrize("module, attr", bound_names(),
                         ids=[f"{m}.{a}" for m, a in bound_names()])
def test_bench_bound_name_resolves(module, attr):
    assert hasattr(importlib.import_module(f"kontact.{module}"), attr)
