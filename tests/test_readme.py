"""The README's examples run as written, so the documented API and command
line cannot drift from the package unnoticed."""

import importlib
import math
import re
import shlex
from pathlib import Path

import pytest

from qshoot.cli import (_COMMANDS, _flag_values, build_parser,
                        load_run_config, main, parse_config_text)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _library_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", _section("Library"), flags=re.S)
    assert len(blocks) == 1, "the Library section holds one Python block"
    return blocks[0]


def _command_lines() -> list:
    """The argument lists of the `qshoot` lines of the Command line block,
    with `\\` continuations joined and `# ...` comments dropped."""
    block = re.findall(r"```\n(.*?)```", _section("Command line"),
                       flags=re.S)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line.split("#", 1)[0])[1:] for line in lines
            if line.startswith("qshoot ")]


def test_library_example_runs():
    names: dict = {}
    exec(compile(_library_block(), f"{README}:Library", "exec"), names)
    out, rec, curve = names["out"], names["rec"], names["curve"]
    assert math.isfinite(out.T) and out.R > 0.0 and out.lam > 0.0
    assert rec.V1_T is not None and names["tp"] == rec.tprime()
    assert math.isfinite(names["out3"].T)
    assert len(curve.outcomes) == 3 and curve.errors == ()


def _dotted_names() -> set:
    """The backticked names `module.attr` (or `qshoot.module.attr`) of the
    README whose first part names a module of the package."""
    modules = {path.stem for path in (ROOT / "src" / "qshoot").glob("*.py")}
    found = re.findall(r"`((?:qshoot\.)?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`",
                       README.read_text())
    return {name.removeprefix("qshoot.") for name in found
            if name.removeprefix("qshoot.").split(".")[0] in modules}


def _resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"qshoot.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_dotted_names_resolve():
    names = _dotted_names()
    assert names
    assert sorted(name for name in names if not _resolves(name)) == []


COMMAND_LINES = _command_lines()


def test_the_command_line_block_shows_every_command():
    assert {argv[0] for argv in COMMAND_LINES} == set(_COMMANDS)


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=[
    f"{i}-{argv[0]}" for i, argv in enumerate(COMMAND_LINES)])
def test_command_line_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    capsys.readouterr()
    for i, arg in enumerate(argv[:-1]):
        if arg == "--out":
            assert (tmp_path / argv[i + 1]).exists()


def _config_example() -> str:
    return re.findall(r"Config file example:\n\n```\n(.*?)```",
                      _section("Command line"), flags=re.S)[0]


def test_config_file_example_reads_as_the_sweep_flags():
    text = _config_example()
    from_file = load_run_config(None, parse_config_text(text))
    argv = ["sweep"]
    for line in text.splitlines():
        key, _, val = line.partition("=")
        argv += [f"--{key}", val]
    from_flags = _flag_values(build_parser().parse_args(argv))
    assert load_run_config(None, from_flags) == from_file
