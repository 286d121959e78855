"""Lint: every defaulted parameter of affmax is set by some call, and
left unset by some call.

A parameter with a default that no call in src/, tests/ or perfbench/
sets is a setting nobody sets, and belongs in its function as a value.
A call sets a parameter by keyword, by position, or through * or **.
An argument that only forwards the caller's own defaulted parameter
sets it only if some call sets that one.  Calls are matched to
definitions by name (a class call to its __init__), so a call through
an attribute holding a callable is not seen.

The mirror rule: a default that every call reaching its function
overrides is a value no caller gets, and the parameter belongs among
the required ones.  A call through * or ** may leave a parameter unset.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module.qualname.parameter -> why it keeps its default unset
ALLOWED = {
    "verify._residuals.h_rel":
        "ROADMAP item 5 varies it to measure the verify stencil's convergence order",
    "spline.Spline.__call__.columns":
        "called through the attribute that stores the spline",
}

# module.qualname.parameter -> why every call overrides its default
ALLOWED_OVERRIDDEN = {}


def _scan(node, prefix, func, in_class, defs, calls):
    """Append (qualname, def, is_method) to defs and (call, innermost
    enclosing function's qualname or None) to calls."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _scan(child, prefix + [child.name], func, True, defs, calls)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = ".".join(prefix + [child.name])
            defs.append((qual, child, in_class))
            _scan(child, prefix + [child.name], qual, False, defs, calls)
        else:
            if isinstance(child, ast.Call):
                calls.append((child, func))
            _scan(child, prefix, func, in_class, defs, calls)


def _defaulted(fn, is_method):
    """(name, position or None) of each parameter of fn with a default;
    the position counts from the first argument a caller passes."""
    a = fn.args
    pos = a.posonlyargs + a.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    skip = int(is_method and not static)
    first = len(pos) - len(a.defaults)
    out = [(p.arg, i - skip) for i, p in enumerate(pos) if i >= first]
    return out + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]


def _setters(call, name, pos):
    """The argument nodes of call that set the parameter; None for * or **."""
    for k in call.keywords:
        if k.arg in (name, None):
            yield k.value if k.arg else None
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            if pos is not None and i <= pos:
                yield None
            break
        if i == pos:
            yield arg


def _calls(root):
    """(conditions, unset) over the defaulted parameters of root/src/affmax.

    conditions maps each key to the conditions under which some call sets
    it: None (always) or the key of a caller's parameter the argument
    forwards.  unset holds the keys some call may leave unset: one that
    passes no argument for it by keyword or by position (a * or ** may).
    """
    params = {}     # key -> (names a call may use, name, position)
    for path in sorted((root / "src" / "affmax").glob("*.py")):
        defs = []
        _scan(ast.parse(path.read_text()), [], None, False, defs, [])
        for qual, fn, is_method in defs:
            names = {fn.name} | ({qual.split(".")[-2]} if fn.name == "__init__" else set())
            for name, pos in _defaulted(fn, is_method):
                params[f"{path.stem}.{qual}.{name}"] = (names, name, pos)
    conditions = {key: set() for key in params}
    unset = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            calls = []
            _scan(ast.parse(path.read_text()), [], None, False, [], calls)
            for call, func in calls:
                f = call.func
                called = getattr(f, "id", None) or getattr(f, "attr", None)
                for key, (names, name, pos) in params.items():
                    if called not in names:
                        continue
                    args = list(_setters(call, name, pos))
                    if all(arg is None for arg in args):
                        unset.add(key)
                    for arg in args:
                        fwd = (f"{path.stem}.{func}.{arg.id}"
                               if isinstance(arg, ast.Name) and func else None)
                        conditions[key].add(fwd if fwd in params else None)
    return conditions, unset


def unset_settings(root=ROOT):
    """Sorted keys of the defaulted parameters of root/src/affmax no call sets."""
    conditions, _ = _calls(root)
    is_set = {key for key, c in conditions.items() if None in c}
    grown = True
    while grown:
        new = {key for key, c in conditions.items() if c & is_set} - is_set
        is_set |= new
        grown = bool(new)
    return sorted(set(conditions) - is_set)


def overridden_defaults(root=ROOT):
    """Sorted keys of the defaulted parameters of root/src/affmax that
    some call sets and no call leaves unset: defaults no caller gets."""
    conditions, unset = _calls(root)
    return sorted(key for key, c in conditions.items() if c and key not in unset)


def test_every_unset_setting_is_allowed_with_a_reason():
    assert unset_settings() == sorted(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_overridden_default_is_allowed_with_a_reason():
    assert overridden_defaults() == sorted(ALLOWED_OVERRIDDEN)
    assert all(reason.strip() for reason in ALLOWED_OVERRIDDEN.values())


def test_the_lints_see_what_they_forbid(tmp_path):
    # never_set's default no call sets; always_set's every call sets;
    # both_ways and forwarded are set by one call and left unset by another
    (tmp_path / "src" / "affmax").mkdir(parents=True)
    (tmp_path / "src" / "affmax" / "m.py").write_text(
        "def never_set(a, b=1): pass\n"
        "def always_set(a, b=1): pass\n"
        "def both_ways(a, b=1): pass\n"
        "def forwarded(a, b=1): return both_ways(a, b)\n"
        "never_set(0)\nalways_set(0, 2)\nalways_set(0, b=3)\n"
        "both_ways(0)\nforwarded(0, *[1])\nforwarded(0, b=2)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench").mkdir()
    assert unset_settings(tmp_path) == ["m.never_set.b"]
    assert overridden_defaults(tmp_path) == ["m.always_set.b"]
