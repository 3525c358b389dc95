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

import numpy as np

from .errors import ConfigError
from .ode import EVENT_TOL, Trajectory, v1prime_from_phi, yprime_from_psi


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".qshoot-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
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
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def linearization_rows(traj: Trajectory):
    if not traj.lin or traj.kind != "t":
        raise ConfigError("linearization rows need a t-route trajectory "
                          "with the channel attached")
    n = traj.n
    header = ("t", "y", "yprime", "V1", "V1prime")
    rows = []
    for t, s in zip(traj.ts, traj.states):
        psi = float(s[1])
        rows.append((float(t), float(s[0]), yprime_from_psi(psi, n),
                     float(s[2]), v1prime_from_phi(float(s[3]), psi, n)))
    return header, rows


def curve_rows(curve):
    header = ["gamma", "T", "R", "lambda", "yprime_T"]
    if curve.tprime_v1 is not None:
        header += ["Tprime_v1", "Tprime_fd"]
    rows = []
    for row in curve.rows():
        vals = [row["gamma"], row["T"], row["R"], row["lambda"],
                row["yprime_T"]]
        if curve.tprime_v1 is not None:
            vals += [row["Tprime_v1"], row["Tprime_fd"]]
        rows.append(tuple(vals))
    return tuple(header), rows


def curve_meta(curve, version: str) -> dict:
    return {
        "family": curve.nl.family,
        "n": curve.n,
        "beta": curve.beta,
        "nonlinearity": curve.nl.describe(),
        "tolerances": {"rtol": curve.cfg.rtol, "atol": curve.cfg.atol,
                       "event_tol": EVENT_TOL},
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

