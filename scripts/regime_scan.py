"""Scan the logarithm strength p in f = u^p e^{u^q} and classify the
small-amplitude behavior of the first zero for each value.

    python3 scripts/regime_scan.py --p 0.3 0.5 1 1.5 2
"""

import argparse

from qshoot.nonlinearity import make_nonlinearity
from qshoot.output import atomic_write, json_text
from qshoot.shooting import classify_small_gamma


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, nargs="+",
                    default=[0.3, 0.5, 1.0, 1.5, 2.0])
    ap.add_argument("--q", type=float, default=2.0)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--out", default=None, help="optional JSON path")
    args = ap.parse_args(argv)

    results = []
    print(f"{'p':>6}  {'verdict':<14} {'p_estimate':>12} {'spread':>10}")
    for p in args.p:
        nl = make_nonlinearity("pow_exp", q=args.q, p=p)
        rep = classify_small_gamma(nl, args.n)
        print(f"{p:6.2f}  {rep.verdict:<14} {rep.p_estimate:12.6f} "
              f"{rep.spread:10.4f}")
        results.append({"p": p, **rep.as_dict()})
    if args.out:
        atomic_write(args.out, json_text(results))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
