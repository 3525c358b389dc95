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
with the reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qshoot"

ALLOWED = {
    "nondegeneracy": "the non-degeneracy margin a gamma0 fold search will "
                     "report",
    "tail_refinement_delta": "the Picard reference that a test checks the "
                             "tail start state against",
}

ALLOWED_PARAMS = {
    ("integrate_t", "level"): "lets a test march to a nonzero stop level",
    ("integrate_t", "floor"): "lets a test reach the missing-event path "
                              "above a near floor, and refuse one above "
                              "the start",
    ("integrate_r", "level"): "lets a test march to a nonzero stop level",
    ("integrate_r", "r_end"): "lets a test reach the missing-event path "
                              "inside a near radius",
    ("detect_turning", "use_V2"): "lets a test read the turning point off "
                                  "the closed-form V2",
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
    """(function, parameter, positional index or None) for each defaulted
    parameter of a public module-level function outside ALLOWED."""
    out = []
    for _, node in _public_nodes():
        if isinstance(node, ast.ClassDef) or node.name in ALLOWED:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [(node.name, a.arg, i)
                for i, a in enumerate(positional) if i >= first]
        out += [(node.name, a.arg, None)
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
    return out


def _passes(call: ast.Call, param: str, index) -> bool:
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if index is None:
        return False
    return (len(call.args) > index
            or any(isinstance(a, ast.Starred) for a in call.args))


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


def _unpassed() -> set:
    calls = _calls()
    return {(fn, param) for fn, param, index in _defaulted()
            if not any(_passes(c, param, index) for c in calls.get(fn, []))}


def test_every_defaulted_parameter_has_a_caller():
    assert sorted(_unpassed() - set(ALLOWED_PARAMS)) == []


def test_the_parameter_allowlist_holds_only_unpassed_parameters():
    defaulted = {(fn, param) for fn, param, _ in _defaulted()}
    assert set(ALLOWED_PARAMS) <= defaulted
    assert set(ALLOWED_PARAMS) <= _unpassed()
