"""Every public module-level function or class of the package has a caller
that is not its own test.

A caller is a reference as a name, an attribute or an import, from package
code (the defining module included), from `scripts/` or `perfbench/`, from
the README's Library example, or from the acceptance gates. perfbench binds
its span points by (module, attribute) strings, so a string constant there
counts too. A docstring mention is not a reference. A helper that only its
own tests reach is deleted, or kept in ALLOWED with the reason.
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


def _public() -> list:
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                out.append((path.stem, node.name))
    return out


def _called() -> set:
    names = _references(ast.parse(_library_block()))
    names |= _references(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text()))
    for path in SRC.glob("*.py"):
        names |= _references(ast.parse(path.read_text()))
    for path in (ROOT / "scripts").glob("*.py"):
        names |= _references(ast.parse(path.read_text()))
    for path in (ROOT / "perfbench").glob("*.py"):
        names |= _references(ast.parse(path.read_text()), strings=True)
    return names


def test_every_public_name_has_a_caller():
    called = _called()
    uncalled = [f"{mod}.{name}" for mod, name in _public()
                if name not in called and name not in ALLOWED]
    assert uncalled == []


def test_the_allowlist_holds_only_uncalled_names():
    public = {name for _, name in _public()}
    assert set(ALLOWED) <= public
    assert set(ALLOWED) & _called() == set()
