"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --workloads sweep_tail verify --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --trace-seed 1 \
        --out perfbench/BASELINE.json

Each run is `run.py --workload W --seed S --seconds <run_seconds>` in a
fresh interpreter, one at a time. For every end-to-end metric the summary
gives the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json. With --trace-seed, each workload also gets one traced run
on that seed, and --out writes medians, quartiles, the traced split and
the environment to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> list:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return lines


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    summary = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for w in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed = attempted = 0
        for seed in seeds:
            res = json.loads(run(w, seed, args.seconds, 0)[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            ok = ok and res["correct"]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{w} seed={seed} " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        entry = {"attempted": attempted, "failed": failed, "metrics": {}}
        for m in spec["end_to_end"]:
            s = spread(values[m["name"]])
            s.update(unit=m["unit"], bound=m["bound"],
                     values=values[m["name"]])
            entry["metrics"][m["name"]] = s
            print(f"  {m['name']:16s} median={s['median']:.6g} {m['unit']} "
                  f"spread={s['spread']:.4f} bound={m['bound']} "
                  f"({s['spread'] / m['bound']:.2f} of bound)")
        if args.trace_seed is not None:
            lines = run(w, args.trace_seed, args.seconds, 1)
            split = [ln for ln in lines if ln.startswith("split ")]
            entry["traced"] = json.loads(split[-1][len("split "):])
            entry["env"] = json.loads(next(
                ln for ln in lines if ln.startswith("env "))[len("env "):])
        summary["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1,
                                             sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
