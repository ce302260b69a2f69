"""The library surface: every top-level function and class in src/chaoslab
is referenced by code that a run executes, in src/, benchmarks/ or
perfbench/, outside its own definition.  A reference is an AST name or
attribute; an import alone, a string or a docstring is not one.  Code that
only tests call belongs in tests/oracles.py; the only exceptions are the
names in KEPT, each kept for the ROADMAP item that will call it."""

import ast
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "chaoslab")
CALLERS = [os.path.join(ROOT, d) for d in ("src", "benchmarks", "perfbench")]

KEPT = {
    "nls.silnikov_check": "item 15: the Silnikov flags of the lattice saddle in saddle.json",
    "nls.second_measurement": "items 3 and 7: beta(epsilon) against the phase-matching formula",
    "nls.half_period_translate": "item 5: symbols that carry information",
    "nls.swap_symbols": "item 5: symbols that carry information",
}


def python_files(top):
    for dirpath, _, names in os.walk(top):
        yield from (os.path.join(dirpath, n) for n in sorted(names) if n.endswith(".py"))


def references(tree) -> Counter:
    """How often each name occurs as an AST name or attribute in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def uncalled() -> list[str]:
    """'module.name' of each top-level function or class that nothing
    references outside its own definition."""
    total = Counter()
    for top in CALLERS:
        for path in python_files(top):
            with open(path) as fh:
                total += references(ast.parse(fh.read(), path))
    out = []
    for path in sorted(python_files(PACKAGE)):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        module = os.path.splitext(os.path.basename(path))[0]
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and total[node.name] == references(node)[node.name]):
                out.append(f"{module}.{node.name}")
    return out


def test_every_library_name_has_a_caller():
    # a name that no run calls fails here unless KEPT holds it; a KEPT name
    # that a run now calls, or that is gone, fails here too
    assert sorted(uncalled()) == sorted(KEPT)
