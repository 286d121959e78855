"""Seven `ast` lints that keep the package's contracts in one place.

No subclass of ProfileEvaluator defines v, u or deriv: the base class
alone checks the shape, the derivative order, the table edge and the
parity, and subclasses give only their rules on radii 0 <= a <= r_max.
No module imports an underscore name from another module of the package:
what a second module needs is public.  And every public name of the
package is used by the package itself: a helper that only tests call
lives in tests/, unless a frozen acceptance criterion imports it.  And
cli.py names no growth-bound verdict key (a name or string ending in
_holds, or upper_claimed): the library function of each stage decides
its verdict, and cli.py only maps it to an exit code.  And no module
calls np.unique, np.union1d or np.isin: each imports numpy.ma on some
path (np.unique without return_inverse, np.isin on large inputs), about
6 ms of a fresh process.  And no module names np.random or numpy.random
or imports from them: seeding default_rng imports secrets, hmac and
hashlib (OpenSSL), about 15 ms and 5.6 MB of a fresh verify, whose sample
random.Random draws.  And cli.py names none of build_phi,
rebuild_profile, assemble, SeparableSolution, encode_column and
decode_column: the stage functions of verify.py build every factor and
solution and read and write solution.json, so cli.py only reads and
writes files.
"""

import ast
import importlib
from pathlib import Path

import affmax

PACKAGE = Path(affmax.__file__).resolve().parent

# module.qualname -> why it stays public though no code of the package uses it
CRITERION_PINNED = {
    "core.PhaseCurve.eta_max":
        "acceptance criterion 9 reads curve_1e3.eta_max",
    "core.profile_to_phase":
        "acceptance criterion 9 maps a values-only profile back to its phase curve",
    "fd.one_sided_derivative":
        "acceptance criterion 6 takes u'''(0) of the 1-D factor with it",
    "negative_pair.calibrate_lambda":
        "acceptance criterion 2 checks the calibration constant and its limit",
    "phase_plane.phase_residual":
        "acceptance criterion 3 checks the phase equation along the fixed point",
    "phase_plane.power_solution_residual":
        "acceptance criterion 8 checks the power solutions with it",
    "reconstruct.PhaseProfileEvaluator.etabar":
        "acceptance criterion 9 checks that etabar is unchanged by v0 -> 2 v0",
    "verify.residual_at":
        "acceptance criterion 9 checks cylinder invariance at single points",
}


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


def _library_override(tree, cls, name):
    """Whether a base of cls written module.Class, for a module that tree
    imports, defines name: the library may call such an override."""
    imported = {alias.asname or alias.name: alias.name for node in tree.body
                if isinstance(node, ast.Import) for alias in node.names}
    return any(isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
               and base.value.id in imported
               and hasattr(getattr(importlib.import_module(imported[base.value.id]),
                                   base.attr, None), name)
               for base in cls.bases)


def unused_public(modules):
    """module.qualname of each public top-level function or class, and of
    each public method, that no code of the modules names outside its own
    definition.  A function or class counts where it is read (x or obj.x),
    a method or property only where it is read as an attribute (obj.x): a
    local variable of the same name is no use of it.  The strings of
    __all__ and the names an import binds do not count, so neither do the
    re-exports of __init__.py.  Overrides of a library base are exempt."""
    defs = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                defs.append((module, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(module, f"{node.name}.{item.name}", item)
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("_")
                         and not _library_override(tree, node, item.name)]
    uses = [(module, getattr(node, "id", None) or node.attr, node.lineno,
             isinstance(node, ast.Attribute))
            for module, tree in modules.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for module, qual, node in defs:
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        name, method = qual.split(".")[-1], "." in qual
        if not any(used == name and (attr or not method)
                   and (m != module or not first <= line <= node.end_lineno)
                   for m, used, line, attr in uses):
            found.append(f"{module.removesuffix('.py')}.{qual}")
    return sorted(found)


def verdict_keys(tree):
    """(line, text) of each string, name or attribute in the tree that ends
    in _holds or is upper_claimed."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        elif isinstance(node, (ast.Name, ast.Attribute)):
            text = getattr(node, "id", None) or node.attr
        else:
            continue
        if text.endswith("_holds") or text == "upper_claimed":
            found.append((node.lineno, text))
    return sorted(found)


MA_LOADERS = {"unique", "union1d", "isin"}


def numpy_uses(tree, names):
    """(line, name) of each np.<name> or numpy.<name> in the tree, each
    name imported from numpy, and each import of or from numpy.<name>,
    for the given names."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([alias.name for alias in node.names]
                       if isinstance(node, ast.Import) else [node.module or ""])
            found += [(node.lineno, parts[1]) for parts in (m.split(".") for m in modules)
                      if parts[0] == "numpy" and len(parts) > 1 and parts[1] in names]
    return sorted(found)


BUILDERS = {"build_phi", "rebuild_profile", "assemble", "SeparableSolution",
            "encode_column", "decode_column"}


def builder_names(tree):
    """(line, name) of each name, attribute or imported name in the tree
    that is in BUILDERS."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            names = [getattr(node, "id", None) or node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in BUILDERS]
    return sorted(found)


def test_no_evaluator_subclass_redefines_the_contract():
    assert contract_overrides(trees(PACKAGE.glob("*.py"))) == []


def test_no_module_imports_a_private_name_of_another():
    assert private_imports(trees(PACKAGE.glob("*.py"))) == []


def test_every_public_name_is_used_by_the_package_or_a_criterion():
    assert unused_public(trees(PACKAGE.glob("*.py"))) == sorted(CRITERION_PINNED)
    assert all(reason.strip() for reason in CRITERION_PINNED.values())


def test_cli_decides_no_verdict():
    assert verdict_keys(trees([PACKAGE / "cli.py"])["cli.py"]) == []


def test_cli_builds_no_factor_or_solution():
    assert builder_names(trees([PACKAGE / "cli.py"])["cli.py"]) == []


def test_no_module_loads_numpy_ma():
    assert {module: found for module, tree in trees(PACKAGE.glob("*.py")).items()
            if (found := numpy_uses(tree, MA_LOADERS))} == {}


def test_no_module_uses_numpy_random():
    assert {module: found for module, tree in trees(PACKAGE.glob("*.py")).items()
            if (found := numpy_uses(tree, {"random"}))} == {}


def test_the_lints_see_what_they_forbid(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .core import ProfileEvaluator, _helper\n"
        "from . import __version__\n"
        "class Table(ProfileEvaluator):\n    def _v(self, a): pass\n"
        "class Scaled(Table):\n    def v(self, r): pass\n    def deriv(self, r, k): pass\n")
    (tmp_path / "b.py").write_text(
        "from affmax.negative_pair import _X\nimport numpy\n"
        "class Other:\n    def u(self, r): pass\n")
    # only_tested is exported and re-exported, as a function only tests
    # call would be; recursive calls only itself; error overrides a
    # method that argparse calls; the property span is named only by a
    # local variable of d.py
    (tmp_path / "c.py").write_text(
        "import argparse\n__all__ = ['only_tested', 'recursive', 'used']\n"
        "def only_tested(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def used(): pass\nVALUE = used()\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message): pass\n    def extra(self): pass\n"
        "PARSER = P()\n"
        "class Curve:\n    @property\n    def span(self): return 1.0\n"
        "CURVE = Curve()\n")
    # the rule solve-negative's exit code had in cli.py; the sweep row's
    # upper_bound_claimed key is no verdict
    (tmp_path / "d.py").write_text(
        "ok = rep['rho_holds'] and (not rep['upper_claimed'] or b.upper_holds)\n"
        "row = {'upper_bound_claimed': upper_claimed}\n"
        "def _scan(curve):\n    span = curve\n    return span\n")
    # the profile row rule of rebuild_profile before PROFILE_ROWS; the
    # unique of a string or another module is no numpy call; the sampler
    # verify had, and the standard library's random, which is allowed
    (tmp_path / "e.py").write_text(
        "from numpy import isin, sort\n"
        "idx = np.unique(np.concatenate([np.arange(0, n, step), [i0, n - 1]]))\n"
        "both = numpy.union1d(a, b)\nnames = sorted(set(x).unique)\nnote = 'np.unique'\n"
        "rng = np.random.default_rng(seed)\nimport numpy.random as npr, random\n"
        "from numpy.random import default_rng\nfrom numpy import random as r\n"
        "pick = random.Random(seed).random()\n")
    # the factor builds cli.py made before the stage functions; a string,
    # or a name that only starts with a builder's, is no use of it
    (tmp_path / "f.py").write_text(
        "from .positive_pair import build_phi\nsol = verify.assemble(phi, psi)\n"
        "back = SeparableSolution(phi=phi)\nsol = assemble_solution(a)\n"
        "note = 'decode_column'\n")
    (tmp_path / "__init__.py").write_text("from .c import only_tested, used\n")
    modules = trees(sorted(tmp_path.glob("*.py")))
    assert contract_overrides(modules) == [("a.py", "Scaled", "deriv"),
                                           ("a.py", "Scaled", "v")]
    assert private_imports(modules) == [("a.py", "_helper"), ("b.py", "_X")]
    assert unused_public(modules) == [
        "a.Scaled", "a.Scaled.deriv", "a.Scaled.v", "b.Other", "b.Other.u",
        "c.Curve.span", "c.P.extra", "c.only_tested", "c.recursive"]
    assert numpy_uses(modules["e.py"], MA_LOADERS) == [(1, "isin"), (2, "unique"),
                                                       (3, "union1d")]
    assert numpy_uses(modules["e.py"], {"random"}) == [(6, "random"), (7, "random"),
                                                       (8, "random"), (9, "random")]
    assert builder_names(modules["f.py"]) == [(1, "build_phi"), (2, "assemble"),
                                              (3, "SeparableSolution")]
    assert verdict_keys(modules["d.py"]) == [(1, "rho_holds"), (1, "upper_claimed"),
                                             (1, "upper_holds"), (2, "upper_claimed")]
