"""Tabulate computed-vs-predicted first-zero quantities along a geometric
amplitude ladder and judge whether the normalized errors stay bounded.

    python3 scripts/decay_table.py --q 1.5 --gamma-min 20 --gamma-max 200
"""

import argparse

from qshoot._numeric import geomspace
from qshoot.asymptotics import BOUND_FACTOR, error_decay_report
from qshoot.nonlinearity import make_nonlinearity
from qshoot.output import atomic_write, csv_text, decay_rows
from qshoot.shooting import sweep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=float, default=1.5)
    ap.add_argument("--p", type=float, default=0.0)
    ap.add_argument("--rho-beta", type=float, default=0.0)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--gamma-min", type=float, default=20.0)
    ap.add_argument("--gamma-max", type=float, default=200.0)
    ap.add_argument("--steps", type=int, default=6)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args(argv)

    nl = make_nonlinearity("pow_exp", q=args.q, p=args.p,
                           rho_beta=args.rho_beta)
    grid = geomspace(args.gamma_min, args.gamma_max, args.steps)
    curve = sweep(nl, args.n, grid, with_derivative=True)
    report = error_decay_report(curve)

    header, rows = decay_rows(report)
    widths = (10, 10, 9, 14, 14, 11, 11)
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = []
        for v, w in zip(row, widths):
            cells.append((f"{v:.5g}" if isinstance(v, float) else str(v))
                         .ljust(w))
        print("  ".join(cells))
    print()
    if not report.span_ok:
        print("warning: ladder spans less than a decade; verdicts are weak")
    for q, v in report.verdicts.items():
        word = "bounded" if v["bounded"] else "UNBOUNDED"
        print(f"{q}: {word} (upper-half max/min = {v['max_over_min']:.3g}, "
              f"factor allowed {BOUND_FACTOR:g})")
    if args.out:
        atomic_write(args.out, csv_text(header, rows))
        print(f"wrote {args.out}")
    return 0 if report.bounded else 1


if __name__ == "__main__":
    raise SystemExit(main())
