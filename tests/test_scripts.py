"""Smoke test of the experiment scripts: each `main(argv)` runs end to end
on a small input and writes its files."""

import json
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    return runpy.run_path(str(SCRIPTS / name), run_name="script")["main"]


def test_decay_table(tmp_path, capsys):
    out = tmp_path / "decay.csv"
    code = _main("decay_table.py")(
        ["--q", "1.5", "--gamma-min", "20", "--gamma-max", "200",
         "--steps", "4", "--out", str(out)])
    assert code in (0, 1)  # 1: an unbounded verdict, still a full table
    text = capsys.readouterr().out
    assert "T: " in text and "Tprime: " in text
    assert len(out.read_text().splitlines()) > 4


def test_regime_scan(tmp_path, capsys):
    out = tmp_path / "regimes.json"
    code = _main("regime_scan.py")(["--p", "1", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert [r["verdict"] for r in rows] == ["bounded"]
    assert rows[0]["p_estimate"] == pytest.approx(1.0, abs=1e-5)
