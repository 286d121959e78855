"""Two `ast` lints that keep the package's contracts in one place.

No subclass of ProfileEvaluator defines v, u or deriv: the base class
alone checks the shape, the derivative order, the table edge and the
parity, and subclasses give only their rules on radii 0 <= a <= r_max.
No module imports an underscore name from another module of the package:
what a second module needs is public.
"""

import ast
from pathlib import Path

import affmax

PACKAGE = Path(affmax.__file__).resolve().parent


def trees(paths):
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def contract_overrides(modules):
    """(module, class, method) of each v, u or deriv that a ProfileEvaluator
    subclass defines, the subclasses found by name across the modules."""
    classes = {node.name: (module, node) for module, tree in modules.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    family = {"ProfileEvaluator"}
    grown = True
    while grown:
        grown = False
        for name, (_, node) in classes.items():
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            if name not in family and bases & family:
                family.add(name)
                grown = True
    return sorted((module, name, item.name)
                  for name, (module, node) in classes.items()
                  if name in family - {"ProfileEvaluator"}
                  for item in node.body
                  if isinstance(item, ast.FunctionDef) and item.name in ("v", "u", "deriv"))


def private_imports(modules):
    """(module, name) of each underscore name imported from the package,
    dunder names such as __version__ excepted."""
    found = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "affmax"):
                found += [(module, alias.name) for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    return sorted(found)


def test_no_evaluator_subclass_redefines_the_contract():
    assert contract_overrides(trees(PACKAGE.glob("*.py"))) == []


def test_no_module_imports_a_private_name_of_another():
    assert private_imports(trees(PACKAGE.glob("*.py"))) == []


def test_the_lints_see_what_they_forbid(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .core import ProfileEvaluator, _helper\n"
        "from . import __version__\n"
        "class Table(ProfileEvaluator):\n    def _v(self, a): pass\n"
        "class Scaled(Table):\n    def v(self, r): pass\n    def deriv(self, r, k): pass\n")
    (tmp_path / "b.py").write_text(
        "from affmax.negative_pair import _X\nimport numpy\n"
        "class Other:\n    def u(self, r): pass\n")
    modules = trees(sorted(tmp_path.glob("*.py")))
    assert contract_overrides(modules) == [("a.py", "Scaled", "deriv"),
                                           ("a.py", "Scaled", "v")]
    assert private_imports(modules) == [("a.py", "_helper"), ("b.py", "_X")]
