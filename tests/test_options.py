"""Options audit over the module-level functions and class methods of ``src/``.

Every parameter is read by its function's body.  Every defaulted parameter is
set, by keyword or by position, by some call in ``src/``, ``tests/``,
``demos/`` or ``perfbench/``, and not every call that sets it passes the
default value itself.  Calls are matched by the called name alone, so two
functions sharing a name share their callers.  No dataclass stores an
integer beside its arrays: a dimension is the shape of the array it counts.
No function takes a tolerance policy and no dataclass stores one: the policy
in force is set by ``tolerance`` and read where a decision is made."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: integer dataclass fields that are not the shape of an array
INT_FIELDS = {"InstanceFile.seed"}

#: models are called as values, ``r(point, boundary_ok=True)``
EXEMPT = {"ResolventModel.__call__.boundary_ok"}

#: the one function that takes a policy: it sets the policy in force
POLICY_SETTERS = {"tolerance.policy"}


def _trees(*dirs):
    for name in dirs:
        for path in sorted((ROOT / name).rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"))


def _functions():
    """(qualified prefix, function node, number of leading self/cls parameters)."""
    for tree in _trees("src"):
        scopes = [("", tree.body, False)] + [
            (f"{node.name}.", node.body, True) for node in tree.body if isinstance(node, ast.ClassDef)]
        for prefix, body, bound in scopes:
            for fn in (n for n in body if isinstance(n, ast.FunctionDef)):
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                yield prefix, fn, 1 if bound and not static else 0


def _defaulted():
    """(qualified name, function name, parameter, positional index or None, default node)."""
    for prefix, fn, skip in _functions():
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, (arg, default) in enumerate(zip(positional[first:], fn.args.defaults), first):
            yield f"{prefix}{fn.name}.{arg.arg}", fn.name, arg.arg, i - skip, default
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield f"{prefix}{fn.name}.{arg.arg}", fn.name, arg.arg, None, default


def _calls():
    """called name -> list of (keyword -> value node, positional nodes or None
    when a ``*`` or ``**`` argument may set any of them)."""
    calls = {}
    for tree in _trees("src", "tests", "demos", "perfbench"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                ({k.arg: k.value for k in node.keywords}, None if starred else node.args))
    return calls


def _set_values(calls, fn, param, index):
    """The argument node of every call that sets the parameter; None where a
    ``*`` or ``**`` argument hides the value."""
    values = []
    for keywords, args in calls.get(fn, ()):
        if param in keywords:
            values.append(keywords[param])
        elif index is not None and (args is None or len(args) > index):
            values.append(None if args is None else args[index])
    return values


def _same_value(node, default):
    try:
        return ast.literal_eval(node) == ast.literal_eval(default)
    except (ValueError, TypeError, SyntaxError):
        return ast.dump(node) == ast.dump(default)


def test_every_parameter_is_read_by_its_function():
    unread = []
    for prefix, fn, skip in _functions():
        args = fn.args
        params = (args.posonlyargs + args.args)[skip:] + args.kwonlyargs + \
            [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{prefix}{fn.name}.{a.arg}" for a in params if a.arg not in read]
    assert unread == [], f"parameters their function never reads: {unread}"


def test_every_defaulted_parameter_is_set_by_some_caller():
    calls = _calls()
    unset = [qual for qual, fn, param, index, _ in _defaulted()
             if param not in EXEMPT and qual not in EXEMPT
             and not _set_values(calls, fn, param, index)]
    assert unset == [], f"defaulted parameters that no caller sets: {unset}"


def test_no_defaulted_parameter_is_only_ever_set_to_its_default():
    calls = _calls()
    redundant = []
    for qual, fn, param, index, default in _defaulted():
        values = _set_values(calls, fn, param, index)
        if values and all(v is not None and _same_value(v, default) for v in values):
            redundant.append(qual)
    assert redundant == [], f"defaulted parameters every caller sets to the default: {redundant}"


def test_no_dataclass_stores_a_dimension_beside_its_arrays():
    stored = []
    for tree in _trees("src"):
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            if not any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
                continue
            stored += [f"{cls.name}.{node.target.id}" for node in cls.body
                       if isinstance(node, ast.AnnAssign) and ast.unparse(node.annotation) == "int"]
    extra = [name for name in stored if name not in INT_FIELDS]
    assert extra == [], f"integer fields beside arrays: {extra}"


def _is_policy(name, annotation, default):
    """Whether a parameter or field holds a tolerance policy: by its name, its
    annotation or its default."""
    return name == "tol" or any(word in ast.unparse(node) for word, node in
                                (("TolPolicy", annotation), ("DEFAULT_TOL", default)) if node)


def test_no_function_or_dataclass_takes_a_tolerance_policy():
    taking = []
    for prefix, fn, _ in _functions():
        args = fn.args
        positional = args.posonlyargs + args.args
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        taking += [f"{prefix}{fn.name}.{arg.arg}" for arg, default in
                   zip(positional + args.kwonlyargs, defaults + args.kw_defaults)
                   if _is_policy(arg.arg, arg.annotation, default)]
    for tree in _trees("src"):
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            taking += [f"{cls.name}.{node.target.id}" for node in cls.body
                       if isinstance(node, ast.AnnAssign)
                       and _is_policy(node.target.id, node.annotation, node.value)]
    extra = [name for name in taking if name not in POLICY_SETTERS]
    assert extra == [], f"tolerance policies passed by hand: {extra}"
