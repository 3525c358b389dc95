"""Trace the multiplier-vs-amplitude curve for one family and write it out
as CSV (plus sidecar metadata) and an SVG sketch.

    python3 scripts/bifurcation_diagram.py --q 1.5 --p 1 --rho-beta 1 \
        --gamma-min 2 --gamma-max 12 --steps 40 --out-prefix diagram
"""

import argparse

import numpy as np

from qshoot import __version__
from qshoot.nonlinearity import make_nonlinearity
from qshoot.output import atomic_write, csv_text, curve_meta, curve_rows, \
    json_text, sweep_svg
from qshoot.shooting import sweep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="pow_exp",
                    choices=["pow_exp", "exp", "linear"])
    ap.add_argument("--q", type=float, default=2.0)
    ap.add_argument("--p", type=float, default=0.0)
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--rho-beta", type=float, default=0.0)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--gamma-min", type=float, default=2.0)
    ap.add_argument("--gamma-max", type=float, default=12.0)
    ap.add_argument("--steps", type=int, default=40)
    ap.add_argument("--with-derivative", action="store_true",
                    help="also solve the linearized flow for T'(gamma)")
    ap.add_argument("--out-prefix", default="bifurcation")
    args = ap.parse_args(argv)

    nl = make_nonlinearity(args.family, q=args.q, p=args.p, a=args.a,
                           rho_beta=args.rho_beta, n=args.n)
    grid = np.linspace(args.gamma_min, args.gamma_max, args.steps)
    curve = sweep(nl, args.n, grid, with_derivative=args.with_derivative)

    header, rows = curve_rows(curve)
    atomic_write(args.out_prefix + ".csv", csv_text(header, rows))
    atomic_write(args.out_prefix + ".meta.json",
                 json_text(curve_meta(curve, __version__)))
    atomic_write(args.out_prefix + ".svg", sweep_svg(curve))

    solved = [o for o in curve.outcomes if o.T is not None]
    print(f"{len(solved)}/{len(grid)} points solved")
    if solved:
        lams = [o.lam for o in solved]
        print(f"lambda range [{min(lams):.6g}, {max(lams):.6g}]")
    for g, msg in curve.errors:
        print(f"failed at gamma={g}: {msg}")
    print(f"wrote {args.out_prefix}.csv / .meta.json / .svg")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
