"""Exactness guards read off the package source with ``ast``.

Two lists are pinned, so that a new entry shows up as a test diff:

* every single-underscore attribute that the package reads or sets but
  never defines, a private hook of the standard library that a new
  Python release may take away;
* every ``float``, ``sqrt`` or ``isclose`` outside annotations, where a
  tolerance or a rounded value could creep into an exact result.
"""
import ast
from pathlib import Path

import affgebra

PACKAGE = Path(affgebra.__file__).resolve().parent
# the documented methods and fields of a named tuple, public despite their underscore
NAMEDTUPLE_API = {"_asdict", "_field_defaults", "_fields", "_make", "_replace"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _defined_names(trees) -> set:
    """Every name the package gives a value: defs and classes, assigned
    names, parameters, imports, ``__slots__`` entries and the names that
    ``setattr`` or ``__setattr__`` sets."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.add((node.asname or node.name).split(".")[0])
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                names.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith(("setattr", "__setattr__")):
                names.update(a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return names


def _foreign_private_attributes() -> set:
    modules = list(_modules())
    defined = _defined_names(tree for _, tree in modules) | NAMEDTUPLE_API
    return {
        (name, ast.unparse(node))
        for name, tree in modules
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _private(node.attr) and node.attr not in defined
    }


def _annotations(tree) -> set:
    """The ids of the nodes inside annotations."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            roots.append(node.returns)
    return {id(n) for root in roots for n in ast.walk(root)}


def _inexact_uses() -> list:
    """(module, enclosing function, source) of each float, sqrt or isclose."""
    found = []
    for name, tree in _modules():
        skip = _annotations(tree)

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                if id(child) not in skip and (
                    (isinstance(child, ast.Name) and child.id in {"float", "sqrt", "isclose"})
                    or (isinstance(child, ast.Attribute) and child.attr in {"sqrt", "isclose"})
                ):
                    found.append((name, inner, ast.unparse(child)))
                visit(child, inner)

        visit(tree, "")
    return sorted(found)


def test_private_attributes_read_from_outside_the_package():
    assert _foreign_private_attributes() == {
        ("cli.py", "self._negative_number_matcher"),
        ("scalars.py", "RAT._denominator"),
        ("scalars.py", "RAT._numerator"),
    }


def test_floats_square_roots_and_tolerances():
    assert _inexact_uses() == [
        ("scalars.py", "SurdReal.__float__", "float"),
        ("scalars.py", "SurdReal.__float__", "float"),
        ("scalars.py", "SurdReal.__float__", "math.sqrt"),
    ]
