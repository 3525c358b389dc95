"""Deterministic writers: CSV, JSON, and a bare-bones SVG.

Every file goes through an atomic temp-and-rename in the target directory,
floats are serialized with repr (shortest round-trip form), and JSON keys
are sorted, so repeated runs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

from .errors import ConfigError
from .ode import Trajectory


def atomic_write(path: str, text: str) -> None:
    """Write through a temp file in the target directory; a target that
    cannot be written is a ConfigError, and no temp file is left."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".qshoot-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") \
            from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    x = float(v)
    if math.isnan(x):
        return "nan"
    return repr(x)


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_value(v) for v in row))
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def linearization_rows(traj: Trajectory):
    if len(traj.states[0]) != 4 or traj.kind != "t":
        raise ConfigError("linearization rows need a t-route trajectory "
                          "with the channel attached")
    header = ("t", "y", "yprime", "V1", "V1prime")
    rows = []
    for t, s in zip(traj.ts, traj.states):
        yp, _, v1p, _ = traj.rhs(t, s)
        rows.append((t, s[0], yp, s[2], v1p))
    return header, rows


def curve_rows(curve):
    header = ("gamma", "T", "R", "lambda", "yprime_T")
    rows = [(o.gamma, o.T, o.R, o.lam, o.yprime_T) for o in curve.outcomes]
    if curve.tprime_v1 is None:
        return header, rows
    return header + ("Tprime_v1", "Tprime_fd"), [
        (*row, v1, fd)
        for row, v1, fd in zip(rows, curve.tprime_v1, curve.tprime_fd)]


def curve_meta(curve, version: str) -> dict:
    return {
        "family": curve.nl.family,
        "n": curve.n,
        "beta": curve.cfg.beta_weight,
        "nonlinearity": curve.nl.describe(curve.n),
        "tolerances": {"rtol": curve.cfg.rtol},
        "gamma_count": len(curve.gammas),
        "errors": [{"gamma": g, "message": m} for g, m in curve.errors],
        "version": version,
    }


def decay_rows(report):
    header = ("gamma", "gprime", "Q", "computed", "predicted", "raw_err",
              "normalized_err")
    rows = [tuple(r[k] for k in header) for r in report.rows]
    return header, rows


def _scale(vals, lo_px, hi_px):
    vmin, vmax = min(vals), max(vals)
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin

    def to_px(v):
        return lo_px + (v - vmin) / span * (hi_px - lo_px)
    return to_px, vmin, vmax


def sweep_svg(curve) -> str:
    """Bifurcation diagram: eigenvalue up the vertical axis against the
    sup norm of the profile (the amplitude) across the horizontal."""
    pts = [(o.gamma, o.lam) for o in curve.outcomes if o.T is not None]
    if len(pts) < 2:
        raise ConfigError("need at least two solved amplitudes to draw")
    W, H, M = 640, 480, 60
    gx, gmin, gmax = _scale([p[0] for p in pts], M, W - M)
    ly, lmin, lmax = _scale([p[1] for p in pts], H - M, M)
    poly = " ".join(f"{gx(g):.3f},{ly(l):.3f}" for g, l in pts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{M}" y1="{H - M}" x2="{W - M}" y2="{H - M}" '
        'stroke="black"/>',
        f'<line x1="{M}" y1="{M}" x2="{M}" y2="{H - M}" stroke="black"/>',
        f'<polyline points="{poly}" fill="none" stroke="steelblue" '
        'stroke-width="1.5"/>',
        f'<text x="{W // 2}" y="{H - M // 4}" text-anchor="middle" '
        f'font-size="14">sup norm {gmin:.6g} .. {gmax:.6g}</text>',
        f'<text x="{M // 3}" y="{H // 2}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 {M // 3} {H // 2})">'
        f'lambda {lmin:.6g} .. {lmax:.6g}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"

