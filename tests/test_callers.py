"""Every public module-level function or class of the package has a caller
that is not its own test.

A caller is a reference as a name, an attribute or an import, from package
code (the defining module included), from `scripts/` or `perfbench/`, from
the README's Library example, or from the acceptance gates. perfbench binds
its span points by (module, attribute) strings, so a string constant there
counts too. A docstring mention is not a reference. A helper that only its
own tests reach is deleted, or kept in ALLOWED with the reason.

Parameters need callers too: each defaulted parameter of a public function
that has callers is passed by some call in those same sources, as a
keyword, a positional argument or a `**mapping`, or kept in ALLOWED_PARAMS
with the reason. A parameter must also vary: when every call that passes
it passes a literal equal to its default, it is a constant, not a
setting. An expression, a `*sequence` or a `**mapping` counts as varying.

Fields need readers: each field and property of a public dataclass is read
as an attribute, or named as a string, in those same sources, or kept in
ALLOWED_FIELDS with the reason. A value that nothing reads is not computed.
The rule matches attribute names, not classes: a read of `.T` on any object
counts for every field named T, so a field that shares a common name needs
its reader found by hand.

Constants need readers too: each name a module of the package assigns at
its top level is read, as a name or an attribute, in those same sources;
its own assignment is not a read. `__all__` is exempt. A table or
tolerance whose code is deleted goes with it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qshoot"

ALLOWED = {
    "nondegeneracy": "the non-degeneracy margin a gamma0 fold search will "
                     "report",
}

ALLOWED_PARAMS = {}

ALLOWED_FIELDS = {
    ("GammaSnapshot", "S0"): "the closed-form V2 zero that the turning "
                             "tests check against; the README documents it",
    ("StateR", "Phi"): "a component of the last state that a SolverError "
                       "carries",
}


def _references(tree, strings=False) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.add(node.value)
    return names


def _library_block() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)[0]


def _public_nodes() -> list:
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                out.append((path.stem, node))
    return out


def _public() -> list:
    return [(mod, node.name) for mod, node in _public_nodes()]


def _sources() -> list:
    """(tree, strings) for every source a caller may come from; `strings`
    marks perfbench, whose string constants count as references."""
    trees = [(ast.parse(_library_block()), False),
             (ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()),
              False)]
    for folder, strings in ((SRC, False), (ROOT / "scripts", False),
                            (ROOT / "perfbench", True)):
        trees += [(ast.parse(path.read_text()), strings)
                  for path in folder.glob("*.py")]
    return trees


def _called() -> set:
    names = set()
    for tree, strings in _sources():
        names |= _references(tree, strings)
    return names


def _defaulted() -> list:
    """(function, parameter, positional index or None, default) for each
    defaulted parameter of a public module-level function outside ALLOWED."""
    out = []
    for _, node in _public_nodes():
        if isinstance(node, ast.ClassDef) or node.name in ALLOWED:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [(node.name, a.arg, i, args.defaults[i - first])
                for i, a in enumerate(positional) if i >= first]
        out += [(node.name, a.arg, None, d)
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
    return out


def _argument(call: ast.Call, param: str, index):
    """The expression a call passes for param, or None when it passes
    none; a `**mapping` or `*sequence` that may hold it stands for it."""
    for k in call.keywords:
        if k.arg is None or k.arg == param:
            return k.value
    if index is None:
        return None
    starred = [a for a in call.args if isinstance(a, ast.Starred)]
    if starred:
        return starred[0]
    return call.args[index] if len(call.args) > index else None


def _literal(node):
    """(True, value) for a literal expression, else (False, None)."""
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False, None


def _calls() -> dict:
    """Each called name to the Call nodes that call it."""
    out = {}
    for tree, _ in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                out.setdefault(name, []).append(node)
    return out


def test_every_public_name_has_a_caller():
    called = _called()
    uncalled = [f"{mod}.{name}" for mod, name in _public()
                if name not in called and name not in ALLOWED]
    assert uncalled == []


def test_the_allowlist_holds_only_uncalled_names():
    public = {name for _, name in _public()}
    assert set(ALLOWED) <= public
    assert set(ALLOWED) & _called() == set()


def _passed() -> dict:
    """(function, parameter) to the expressions its calls pass for it, and
    to the parameter's default as a literal pair (see _literal)."""
    calls = _calls()
    out = {}
    for fn, param, index, default in _defaulted():
        args = [_argument(c, param, index) for c in calls.get(fn, [])]
        out[(fn, param)] = ([a for a in args if a is not None],
                            _literal(default))
    return out


def _unpassed() -> set:
    return {key for key, (args, _) in _passed().items() if not args}


def _fixed() -> set:
    """Parameters that every passing call sets to its literal default."""
    return {key for key, (args, default) in _passed().items()
            if args and default[0]
            and all(_literal(a) == default for a in args)}


def test_every_defaulted_parameter_has_a_caller():
    assert sorted(_unpassed() - set(ALLOWED_PARAMS)) == []


def test_every_passed_parameter_varies():
    assert sorted(_fixed() - set(ALLOWED_PARAMS)) == []


def test_the_parameter_allowlist_holds_only_unpassed_parameters():
    # unpassed, or passed only as its literal default
    assert set(ALLOWED_PARAMS) <= set(_passed())
    assert set(ALLOWED_PARAMS) <= _unpassed() | _fixed()


def _decorated(node, name: str) -> bool:
    """Whether `@name` or `@name(...)` decorates node."""
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id",
                       None) == name for d in node.decorator_list)


def _fields() -> list:
    """(class, name) for each field and property of a public dataclass."""
    out = []
    for _, node in _public_nodes():
        if not (isinstance(node, ast.ClassDef)
                and _decorated(node, "dataclass")):
            continue
        for item in node.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                out.append((node.name, item.target.id))
            elif (isinstance(item, ast.FunctionDef)
                  and _decorated(item, "property")):
                out.append((node.name, item.name))
    return out


def _read() -> set:
    """Names read as an attribute or named as a string constant."""
    names = set()
    for tree, _ in _sources():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                names.add(node.value)
    return names


def _unread() -> set:
    read = _read()
    return {(cls, name) for cls, name in _fields() if name not in read}


def test_every_dataclass_field_has_a_reader():
    assert sorted(_unread() - set(ALLOWED_FIELDS)) == []


def test_the_field_allowlist_holds_only_unread_fields():
    assert set(ALLOWED_FIELDS) <= set(_fields())
    assert set(ALLOWED_FIELDS) <= _unread()


def _constants() -> list:
    """(module, name) for each name a package module assigns at top level,
    `__all__` aside."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            out += [(path.stem, t.id) for target in targets
                    for t in ast.walk(target)
                    if isinstance(t, ast.Name) and t.id != "__all__"]
    return out


def _loaded() -> set:
    """Names read as a name or an attribute."""
    names = set()
    for tree, _ in _sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) \
                    and isinstance(node.ctx, ast.Load):
                names.add(node.id if isinstance(node, ast.Name)
                          else node.attr)
    return names


def test_every_constant_has_a_reader():
    loaded = _loaded()
    assert [f"{mod}.{name}" for mod, name in _constants()
            if name not in loaded] == []
