"""The package keeps one implementation per concept: no definition without a caller.

Every name the package root exports resolves, and every top-level function
and class of src/cartanss is used somewhere in the package outside its own
definition, unless the root exports it or it is one of the few names that
only callers outside the package use.  Reference definitions the tests
compare the engine against live in tests/oracles.py, not in the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cartanss

SRC = Path(__file__).resolve().parent.parent / "src" / "cartanss"

# called only from outside the package: the model-file writer, and the
# library fixtures and card list that the tests load
OUTSIDE_CALLERS = {
    ("cli", "save_model_file"),
    ("library", "all_default_cards"),
    ("library", "heisenberg_model"),
    ("library", "mutated_jacobi_lie"),
    ("library", "rescaled_su2_lie"),
}


def test_every_exported_name_resolves():
    assert len(set(cartanss.__all__)) == len(cartanss.__all__)
    assert [name for name in cartanss.__all__ if not hasattr(cartanss, name)] == []


def uncalled_definitions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each top-level function or class of sources, a map
    module -> text, that no Name node uses outside its own definition, in its
    own module or in a module that imports it from there."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    # module -> {name: module it was imported from}
    imported = {module: {alias.asname or alias.name: node.module
                         for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.level == 1
                         for alias in node.names}
                for module, tree in trees.items()}
    uses: dict[str, list[tuple[str, int]]] = {}  # name -> (module, node id) of each use
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((module, id(node)))
    out = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            inside = {id(node) for node in ast.walk(definition)}
            if not any(node not in inside
                       and (user == module or imported[user].get(name) == module)
                       for user, node in uses.get(name, ())):
                out.append((module, name))
    return out


def test_every_top_level_definition_has_a_caller_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    exported = set()
    for name in cartanss.__all__:
        module = getattr(getattr(cartanss, name), "__module__", None) or ""
        if module.startswith("cartanss."):
            exported.add((module.removeprefix("cartanss."), name))
    uncalled = set(uncalled_definitions(sources)) - exported - OUTSIDE_CALLERS
    assert sorted(uncalled) == []
    # the guard sees a definition that only calls itself, and one that
    # another module imports but never calls
    assert uncalled_definitions({
        "a": "def used():\n    pass\n\ndef lonely(n):\n    return lonely(n - 1)\n",
        "b": "from .a import used, lonely\n\ndef caller():\n    return used()\n",
    }) == [("a", "lonely"), ("b", "caller")]
