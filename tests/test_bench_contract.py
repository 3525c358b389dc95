"""The names perfbench reaches into the package by.

perfbench wraps module-level bindings by name when its tracer installs, and
its sweep workload's final check imports a few public names. A refactor that
drops one of them would crash the benchmark run; these tests fail first.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # compiled from the source text, so nothing is written next to it
    mod = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"),
         mod.__dict__)
    return mod


def test_every_span_point_resolves(tracer):
    missing = [(m, a) for m, a, _ in tracer.SPAN_POINTS
               if not callable(getattr(importlib.import_module(m), a, None))]
    assert missing == []


def test_eval_g_modules_and_suite_table(tracer):
    for name in tracer.EVAL_G_MODULES:
        assert callable(getattr(importlib.import_module(name), "eval_g", None))
    mod_name, attr = tracer.SUITE_TABLE
    assert (mod_name, attr) == ("qshoot.verify", "_RUNNERS")
    runners = getattr(importlib.import_module(mod_name), attr)
    assert runners and all(callable(fn) for fn in runners.values())


def test_install_round_trip_restores_the_bindings(tracer):
    before = {(m, a): getattr(importlib.import_module(m), a)
              for m, a, _ in tracer.SPAN_POINTS}
    tr = tracer.Tracer()
    tr.install()
    try:
        assert all(getattr(importlib.import_module(m), a) is not fn
                   for (m, a), fn in before.items())
    finally:
        tr.uninstall()
    assert all(getattr(importlib.import_module(m), a) is fn
               for (m, a), fn in before.items())


def test_names_the_sweep_final_check_imports():
    from qshoot.cli import load_run_config, main
    from qshoot.errors import QShootError
    from qshoot.shooting import choose_route, shoot

    assert issubclass(QShootError, Exception)
    assert callable(main)
    assert list(inspect.signature(choose_route).parameters) == \
        ["nl", "n", "gamma", "cfg"]
    assert "route" in inspect.signature(shoot).parameters
    rc = load_run_config(None, {"family": "pow_exp", "q": 1.5, "p": 1.0,
                                "rho_beta": 1.0, "n": 2})
    nl, cfg = rc.nonlinearity(), rc.problem()
    assert choose_route(nl, rc.n, 6.0, cfg) in ("t", "r")


def _unread_imports(tree) -> list:
    """(import statement, bound name) for each name the module imports and
    never reads; `__future__` and the names `__all__` exports are read."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return [(node, name) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in ((a.asname or a.name).split(".")[0]
                         for a in node.names)
            if name not in read]


def test_every_import_is_read_or_bound_for_the_tracer(tracer):
    # no pyflakes here: an import nothing reads is either deleted or kept,
    # marked `# noqa: F401`, as a binding the tracer wraps by name
    wrapped = {(m, a) for m, a, _ in tracer.SPAN_POINTS}
    wrapped |= {(m, "eval_g") for m in tracer.EVAL_G_MODULES}
    stray = []
    for path in sorted((ROOT / "src" / "qshoot").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        module = "qshoot" if path.stem == "__init__" else f"qshoot.{path.stem}"
        for node, name in _unread_imports(ast.parse(text)):
            marked = any("# noqa: F401" in line
                         for line in lines[node.lineno - 1:node.end_lineno])
            if not (marked and (module, name) in wrapped):
                stray.append(f"{path.name}:{node.lineno} {name}")
    assert stray == []
