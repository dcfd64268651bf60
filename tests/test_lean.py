"""The package keeps one implementation per concept: no definition without a caller.

Every name the package root exports resolves, and every top-level function
and class of src/cartanss is used somewhere in the package outside its own
definition, unless the root exports it or it is one of the few names that
only callers outside the package use.  Every method and property of a class
there, apart from the dunders, is named somewhere in the package outside
its own body, with the same kind of short list of exceptions.  No module
builds a dense Matrix outside the class itself: the engine keeps only
sparse forms.  Reference definitions the tests compare the engine against,
and the readers that make its spaces dense, live in tests/oracles.py, not
in the package.
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

# methods named only from outside the package: Matrix.of builds the tests'
# dense references, and Matrix.rref is the reduction they compare against
# and the hook of perfbench's trace
OUTSIDE_METHODS = {
    "Matrix.of",
    "Matrix.rref",
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


def unnamed_methods(sources: dict[str, str]) -> list[str]:
    """Class.method for each non-dunder method or property of a class of
    sources, a map module -> text, whose name no Name or Attribute node of
    any module holds outside the method's own body."""
    trees = [ast.parse(text) for text in sources.values()]
    named: dict[str, list[int]] = {}  # name -> node id of each Name or Attribute holding it
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                named.setdefault(node.attr, []).append(id(node))
            elif isinstance(node, ast.Name):
                named.setdefault(node.id, []).append(id(node))
    out = []
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (not isinstance(method, ast.FunctionDef)
                        or method.name.startswith("__") and method.name.endswith("__")):
                    continue
                inside = {id(node) for node in ast.walk(method)}
                if not any(node not in inside for node in named.get(method.name, ())):
                    out.append(f"{cls.name}.{method.name}")
    return out


def test_every_method_is_named_in_the_package_outside_its_body():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    # exactly the listed exceptions: none missing and none stale
    assert sorted(unnamed_methods(sources)) == sorted(OUTSIDE_METHODS)
    # the guard sees a planted method and property that nothing else names,
    # the method calling only itself; a dunder is never reported
    assert unnamed_methods({
        "a": "class A:\n    def used(self):\n        return 1\n\n"
             "    def lonely(self, n):\n        return self.lonely(n - 1)\n\n"
             "    @property\n    def size(self):\n        return 0\n\n"
             "    def __repr__(self):\n        return ''\n",
        "b": "from .a import A\n\ndef caller():\n    return A().used()\n",
    }) == ["A.lonely", "A.size"]


def dense_constructions(sources: dict[str, str]) -> list[tuple[str, int]]:
    """(module, line) of each call of Matrix, or of an attribute of it such as
    Matrix.of, in sources, a map module -> text, outside the body of class
    Matrix; a module's import alias of Matrix counts as Matrix."""
    out = []
    for module, text in sources.items():
        tree = ast.parse(text)
        names = {"Matrix"} | {alias.asname for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom)
                              for alias in node.names if alias.name == "Matrix" and alias.asname}
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "Matrix"
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in inside:
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr not in names:
                func = func.value
            if (isinstance(func, ast.Name) and func.id in names
                    or isinstance(func, ast.Attribute) and func.attr in names):
                out.append((module, node.lineno))
    return sorted(out)


def test_no_module_builds_a_dense_matrix_outside_the_class():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert dense_constructions(sources) == []
    # the guard sees a call of the class, of a classmethod, of an alias and
    # through the module, and not the class's own calls or a lookalike name
    assert dense_constructions({
        "a": "class Matrix:\n    def rref(self):\n        return Matrix()\n",
        "b": "from .a import Matrix as Dense\nfrom . import a\n\n\ndef build():\n"
             "    x = Matrix(), Matrix.of([])\n    y = Dense(), a.Matrix()\n"
             "    return x, y, MatrixLike()\n",
    }) == [("b", 6), ("b", 6), ("b", 7), ("b", 7)]


ORACLES = Path(__file__).resolve().parent / "oracles.py"


def private_imports(source: str) -> list[str]:
    """module.name for each underscore-prefixed name source imports from cartanss."""
    return [f"{node.module}.{alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cartanss")
            for alias in node.names if alias.name.startswith("_")]


def test_the_oracles_import_no_private_name_of_the_engine():
    """The references in tests/oracles.py share no code with the engine's
    internals: it imports only public cartanss names."""
    assert private_imports(ORACLES.read_text(encoding="utf-8")) == []
    # the guard sees a private name among public ones, and no other module
    assert private_imports("from cartanss.qlinalg import Matrix, _reduced\n"
                           "from fractions import _gcd\n") == ["cartanss.qlinalg._reduced"]


def model_imports(source: str) -> list[str]:
    """Each name source takes from cartanss.model, and "cartanss.model" for
    the module itself, by `import` or `from cartanss import model`."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "cartanss.model":
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "cartanss":
            names += ["cartanss.model" for alias in node.names if alias.name == "model"]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name == "cartanss.model"]
    return names


def test_the_oracles_take_only_the_model_types_from_the_model_layer():
    """tests/oracles.py lists the monomial basis itself, so the positions it
    places coordinates by check the engine's counted layout from outside:
    from cartanss.model it imports BasicComplex and EquivariantModel only."""
    assert model_imports(ORACLES.read_text(encoding="utf-8")) == [
        "BasicComplex", "EquivariantModel"]
    # the guard sees a layout function beside the types and the module
    # itself, and no other module
    assert model_imports("from cartanss.model import BasicComplex, prefix_levels\n"
                         "from cartanss import model, specseq\n"
                         "import cartanss.model, cartanss.specseq\n"
                         "from cartanss.specseq import cartan_filtration\n") == [
        "BasicComplex", "prefix_levels", "cartanss.model", "cartanss.model"]


def assert_statements(source: str) -> list[int]:
    """The line of every assert statement in source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_no_assert_statement_in_the_package_or_the_oracles():
    """python -O strips assert statements, so the package and the oracles
    check their invariants with typed errors, which still fire there."""
    paths = sorted(SRC.glob("*.py")) + [ORACLES]
    assert {path.name: assert_statements(path.read_text(encoding="utf-8"))
            for path in paths} == {path.name: [] for path in paths}
    assert assert_statements("def f(x):\n    if x:\n        assert x > 0\n") == [3]
