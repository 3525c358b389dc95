"""The README's Library example runs as written, so the documented API
cannot drift from the package unnoticed."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the Library section holds one Python block"
    return blocks[0]


def test_library_example_runs():
    names: dict = {}
    exec(compile(_library_block(), f"{README}:Library", "exec"), names)
    out, rec, curve = names["out"], names["rec"], names["curve"]
    assert math.isfinite(out.T) and out.R > 0.0 and out.lam > 0.0
    assert rec.V1_T is not None and names["tp"] == rec.tprime()
    assert math.isfinite(names["out3"].T)
    assert len(curve.outcomes) == 3 and curve.errors == ()
