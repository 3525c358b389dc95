"""Serialization helpers: canonical value formatting, atomic writes, row
schemas for the exported tables."""

import json
import math
import os

import pytest

from qshoot.config import ProblemConfig
from qshoot.nonlinearity import make_nonlinearity
from qshoot.ode import integrate_t, tail_start
from qshoot.output import (
    atomic_write,
    csv_text,
    curve_meta,
    curve_rows,
    fmt_value,
    json_text,
    linearization_rows,
    sweep_svg,
)
from qshoot.shooting import sweep


class TestFormatting:
    def test_scalar_forms(self):
        assert fmt_value(None) == ""
        assert fmt_value(True) == "true"
        assert fmt_value(False) == "false"
        assert fmt_value(3) == "3"
        assert fmt_value("abc") == "abc"
        assert fmt_value(float("nan")) == "nan"

    def test_floats_round_trip_through_repr(self):
        for v in (0.1, 1e-300, 2.404825557695773, -3.5):
            assert float(fmt_value(v)) == v

    def test_csv_assembly(self):
        text = csv_text(("a", "b"), [(1, None), (0.5, "x")])
        assert text == "a,b\n1,\n0.5,x\n"

    def test_json_is_sorted_and_plain(self):
        text = json_text({"b": 1.5, "a": 2, "c": (1.0, 2.0), "d": [None]})
        obj = json.loads(text)
        assert obj == {"a": 2, "b": 1.5, "c": [1.0, 2.0], "d": [None]}
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')


class TestAtomicWrite:
    def test_overwrites_in_place(self, tmp_path):
        p = tmp_path / "out.txt"
        atomic_write(str(p), "one\n")
        atomic_write(str(p), "two\n")
        assert p.read_text() == "two\n"
        # no stray temporaries left behind
        assert os.listdir(tmp_path) == ["out.txt"]


class TestRowSchemas:
    def test_linearization_rows_need_the_lin_channel(self, nl_square, cfg2):
        st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
        plain = integrate_t(nl_square, 2, st, cfg2)
        with pytest.raises(Exception):
            linearization_rows(plain)
        from qshoot.linearization import solve_V1
        res = solve_V1(nl_square, 2, 5.0, cfg2, keep_trajectory=True,
                       route="t")
        header, rows = linearization_rows(res.traj)
        assert header == ("t", "y", "yprime", "V1", "V1prime")
        assert rows

    def test_curve_exports(self, nl_square, cfg2):
        curve = sweep(nl_square, 2, [3.0, 4.0], cfg2)
        header, rows = curve_rows(curve)
        assert header == ("gamma", "T", "R", "lambda", "yprime_T")
        assert len(rows) == 2
        meta = curve_meta(curve, "9.9.9")
        # rtol sets every other tolerance, so the sidecar states it alone
        assert meta["tolerances"] == {"rtol": cfg2.rtol}
        assert meta["version"] == "9.9.9"
        assert meta["gamma_count"] == 2
        assert "exploratory" not in meta["nonlinearity"]

    def test_meta_tags_growth_past_the_window_of_the_dimension(self, cfg2):
        nl = make_nonlinearity("pow_exp", q=3.0)
        meta = curve_meta(sweep(nl, 2, [2.0, 3.0], cfg2), "9.9.9")
        assert meta["nonlinearity"]["exploratory"] is True

    def test_svg_has_labeled_axes(self, nl_square, cfg2):
        curve = sweep(nl_square, 2, [3.0, 4.0, 5.0], cfg2)
        body = sweep_svg(curve)
        assert body.startswith("<svg")
        assert body.count("<polyline") == 1
        assert "lambda" in body
        assert math.isfinite(float(curve.outcomes[0].lam))
