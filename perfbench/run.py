"""Benchmark of the qshoot command line.

    python3 perfbench/run.py --workload sweep_tail --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) in this process, one request at a
time, through qshoot.cli.main, from the source tree under src/ next to
this directory. With --trace 0 it times the requests, rescales their
times to a reference host speed measured by a calibration task
(hostspeed.py) and prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes over a fixed request list and
prints the per-layer split. The
metric names and units come from BENCHMARK.json at the repository root.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--workload all` runs every workload in turn, each in a fresh interpreter,
and prints one table of all metrics.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"      # scratch outputs and span files

sys.path.insert(0, str(HERE))
from tracer import OpStats, Tracer            # noqa: E402
from workloads import WORKLOADS, Outcome      # noqa: E402

SETUP_PROBES = 3      # fresh interpreters timed per run for setup_s
MIN_OPS = 3           # timed operations per run, however slow
CHILD_TIMEOUT_S = 120

# One process, one thread: no BLAS pool, and qshoot's sweep thread pool off.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

SETUP_PROBE = """\
import sys
sys.path.insert(0, {src!r})
import qshoot.cli
rc = qshoot.cli.load_run_config(None, {flags!r})
rc.nonlinearity()
rc.problem()
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def pin_environment() -> None:
    os.environ.pop("QSHOOT_THREADS", None)
    os.environ.update(PINNED_ENV)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "seed": seed, "QSHOOT_THREADS": os.environ.get("QSHOOT_THREADS",
                                                           "unset"),
            "threads": threading.active_count()}


def measure_setup(flags: dict) -> list:
    """Seconds from launching a fresh interpreter until it has imported
    qshoot.cli and built the run's nonlinearity and config."""
    code = SETUP_PROBE.format(src=str(SRC), flags=flags)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = perf_counter()
                proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed to import qshoot.cli")
        times.append(t1 - t0)
    return times


def execute(main, req, tracer: Tracer | None = None, held=lambda: 0.0):
    """Run one request through qshoot.cli.main; returns (Outcome, seconds).
    `held()` counts seconds taken by calibration samples; those spent
    inside the request are left out of its time."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    argv = list(req.argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            h0, t0 = held(), perf_counter()
            try:
                if tracer is None:
                    code = main(argv)
                else:
                    code = tracer.run("cli", main, argv)
            except Exception:
                error = traceback.format_exc()
            dt = perf_counter() - t0 - (held() - h0)
    files = tuple((p, Path(p).read_bytes()) for p in req.outputs
                  if Path(p).is_file())
    for p, _ in files:
        os.unlink(p)
    n_rw = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return Outcome(code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                   files=files, runtime_warnings=n_rw, error=error), dt


def tail_stat(values: list) -> tuple:
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond). A run of 10 samples or fewer has
    no such percentile; it reports the highest one with a sample beyond it
    (the second-largest), so that one stalled operation does not set it."""
    xs = sorted(values)
    n = len(xs)
    beyond = 10 if n > 10 else min(1, n - 1)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_failures(label, req, names) -> None:
    for name in names:
        print(f"FAIL {label} {req.kind} [{' '.join(req.argv)}]: {name}")


# -- untraced: end-to-end metrics ------------------------------------------

def run_measured(wl, main, seconds: float) -> tuple:
    """Times the requests in wall seconds and in seconds at reference host
    speed (see hostspeed.py); the metrics use the latter."""
    import hostspeed
    lat, windows, items, failed, warns = [], [], 0, 0, 0
    print(f"calibration task: {hostspeed.check_task()} evaluations")
    sampler = hostspeed.Sampler()
    stream = wl.requests()
    sampler.sample()
    sampler.install()
    try:
        t_start = perf_counter()
        while len(lat) < MIN_OPS or \
                perf_counter() - t_start + statistics.median(lat) <= seconds:
            req = next(stream)
            first = len(sampler.samples)
            outcome, dt = execute(main, req, held=lambda: sampler.spent)
            lat.append(dt)
            windows.append((first, len(sampler.samples)))
            warns += outcome.runtime_warnings
            fails = wl.check(req, outcome)
            if fails:
                failed += 1
                report_failures(f"op{len(lat)}", req, fails)
            items += wl.items(req, outcome)
    finally:
        sampler.uninstall()
    sampler.sample()
    ref = [dt * sampler.scale(*w) for dt, w in zip(lat, windows)]
    rss = peak_rss_mb()
    final = wl.final_check()
    if final:
        print(f"FAIL final check of {wl.name}: {len(final)} problems")
        for name in final:
            print(f"FAIL {name}")
        failed = len(lat)
    tail, pct, beyond = tail_stat(ref)
    busy = sum(lat)
    cal_ms = [1e3 * x for x in sampler.samples]
    print(f"ops={len(lat)} items={items} busy_s={busy:.3f} "
          f"fail_frac={failed / len(lat):.6g} ({failed}/{len(lat)}) "
          f"runtime_warnings={warns}")
    print("latencies_ms in order (wall): "
          + " ".join(f"{1e3 * x:.1f}" for x in lat))
    print("latencies_ms in order (reference speed): "
          + " ".join(f"{1e3 * x:.1f}" for x in ref))
    print(f"calibration: {len(cal_ms)} samples, task ms median "
          f"{statistics.median(cal_ms):.4f} min {min(cal_ms):.4f} "
          f"max {max(cal_ms):.4f}, reference "
          f"{1e3 * hostspeed.REF_TASK_S:g}")
    print(f"wall time, not rescaled: p50 {1e3 * statistics.median(lat):.2f}"
          f" ms, tail {1e3 * tail_stat(lat)[0]:.2f} ms, "
          f"{items / busy:.4f} items/s")
    print(f"latency: p50 over {len(lat)} samples; tail is p{pct:.4g} with "
          f"{beyond} sample(s) beyond it"
          + (" (10 samples or fewer)" if beyond < 10 else ""))
    metrics = {
        "latency_ms_p50": 1e3 * statistics.median(ref),
        "latency_ms_tail": 1e3 * tail,
        "items_per_s": items / sum(ref),
        "peak_rss_mb": rss,
    }
    return metrics, len(lat), failed


# -- traced: per-layer split -------------------------------------------------

def layer_metrics(st: OpStats, overhead_ms: float) -> dict:
    ms = {k: 1e3 * v for k, v in st.self_s.items()}
    calls, counts = st.calls, st.counts

    def self_ms(prefix):
        return sum(v for k, v in ms.items()
                   if k == prefix or k.startswith(prefix + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    shoots = calls["shooting.shoot"]
    floors = calls["nonlinearity.convexity_floor"]
    tail_site = calls["ode.tail_admissible"] + calls["ode.tail_start"]
    m = {
        "cli.self_ms": ms.get("cli", 0.0),
        "output.self_ms": self_ms("output"),
        "output.bytes_written": counts["output.bytes_written"],
        "shooting.shoot.calls": shoots,
        "shooting.shoot.self_ms": ms.get("shooting.shoot", 0.0),
        "shooting.choose_route.self_ms": ms.get("shooting.choose_route", 0.0),
        "shooting.sweep.self_ms": ms.get("shooting.sweep", 0.0),
        "shooting.route_t_share": ratio(counts["shooting.shoot.route_t"],
                                        shoots),
        "nonlinearity.convexity_floor.calls": floors,
        "nonlinearity.convexity_floor.self_ms":
            ms.get("nonlinearity.convexity_floor", 0.0),
        "nonlinearity.convexity_floor.useful_ratio":
            ratio(len(st.floor_nls), floors),
        "nonlinearity.eval_g.calls": counts["nonlinearity.eval_g"],
        "nonlinearity.eval_source.calls": calls["nonlinearity.eval_source"],
        "nonlinearity.eval_source.self_ms":
            ms.get("nonlinearity.eval_source", 0.0),
        "asymptotics.snapshot.calls": calls["asymptotics.snapshot"],
        "asymptotics.self_ms": self_ms("asymptotics"),
        "ode.tail_site.calls": tail_site,
        "ode.tail_site.useful_ratio": ratio(calls["ode.tail_start"],
                                            tail_site),
        "ode.integrate.self_ms": ms.get("ode.integrate", 0.0),
        "ode.solve_ivp.calls": calls["ode.solve_ivp"],
        "ode.solve_ivp.self_ms": ms.get("ode.solve_ivp", 0.0),
        "ode.nfev": counts["ode.nfev"],
        "ode.steps_accepted": counts["ode.steps_accepted"],
        "ode.step_accept_ratio": ratio(counts["ode.steps_accepted"],
                                       counts["ode.steps_attempted"]),
        "ode.refine.calls": calls["ode.refine"],
        "ode.refine.evals": counts["ode.refine.evals"],
        "ode.refine.self_ms": ms.get("ode.refine", 0.0),
        "ode.runtime_warnings": counts["ode.runtime_warnings"],
        "linearization.solve_V1.calls": calls["linearization.solve_V1"],
        "linearization.solve_V1.self_ms":
            ms.get("linearization.solve_V1", 0.0),
        "linearization.t_prime_fd.shoots":
            counts["linearization.t_prime_fd.shoots"],
        "verify.quad.self_ms": ms.get("verify.quad", 0.0),
        "trace.overhead_ms": overhead_ms,
    }
    for suite in ("identities", "oracles", "asymptotics", "regimes"):
        m[f"verify.suite.{suite}.self_ms"] = ms.get(f"verify.suite.{suite}",
                                                    0.0)
    return m


def _median_or_same(values: list):
    """Counts repeat exactly and keep their integer form; times take the
    median."""
    if all(v == values[0] for v in values):
        return values[0]
    return statistics.median(values)


def counters(st: OpStats) -> dict:
    """The counts that must repeat exactly between traced passes."""
    out = {f"{k}.calls": v for k, v in st.calls.items()}
    out.update(st.counts)
    out["nonlinearity.convexity_floor.distinct"] = len(st.floor_nls)
    return out


class PassResult(NamedTuple):
    wall_s: float
    outcomes: list
    stats: OpStats            # totals of a traced pass
    by_kind: dict             # request kind -> OpStats


def run_pass(main, reqs, tracer: Tracer | None) -> PassResult:
    outcomes, wall = [], 0.0
    total, by_kind = OpStats(), {}
    if tracer is not None:
        tracer.reset_spans()
        tracer.install()
    try:
        for i, req in enumerate(reqs):
            if tracer is not None:
                tracer.op = i
            outcome, dt = execute(main, req, tracer)
            wall += dt
            outcomes.append(outcome)
            if tracer is not None:
                st = tracer.collect()
                st.counts["ode.runtime_warnings"] += outcome.runtime_warnings
                total.add(st)
                by_kind.setdefault(req.kind, OpStats()).add(st)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return PassResult(wall, outcomes, total, by_kind)


def pass_schedule():
    """Untraced, traced, traced, then alternating."""
    yield False
    yield True
    while True:
        yield True
        yield False


def run_traced(wl, main, seconds: float, seed: int) -> tuple:
    reqs = wl.traced_pass()
    tracer = Tracer()
    untraced, traced = [], []
    attempted = failed = 0
    t_start = perf_counter()
    schedule = pass_schedule()
    while True:
        is_traced = next(schedule)
        res = run_pass(main, reqs, tracer if is_traced else None)
        (traced if is_traced else untraced).append(res)
        for i, (req, outcome) in enumerate(zip(reqs, res.outcomes)):
            attempted += 1
            fails = wl.check(req, outcome)
            if is_traced and outcome.output_key() != \
                    untraced[0].outcomes[i].output_key():
                fails.append("traced output differs from untraced output")
            if fails:
                failed += 1
                report_failures(f"{'traced' if is_traced else 'untraced'}"
                                f"-op{i}", req, fails)
        if len(traced) < 2:
            continue
        upcoming = untraced if is_traced else traced
        if perf_counter() - t_start + statistics.median(
                r.wall_s for r in upcoming) > seconds:
            break
    final = wl.final_check()
    if final:
        for name in final:
            print(f"FAIL {name}")
        failed = attempted

    problems = []
    base = counters(traced[0].stats)
    for k, res in enumerate(traced[1:], start=2):
        other = counters(res.stats)
        diff = sorted(n for n in set(base) | set(other)
                      if base.get(n) != other.get(n))
        if diff:
            problems.append(f"counters differ between traced passes 1 and "
                            f"{k}: {', '.join(diff)}")
    for p in problems:
        print(f"FAIL self-check: {p}")

    split = summarise(wl, seed, reqs, untraced, traced)
    print_split(split, len(traced), len(untraced))
    write_spans(tracer, wl.name, seed)
    return split["metrics"], attempted, failed, not problems


BY_KIND_COUNTERS = ("shooting.shoot.calls", "nonlinearity.convexity_floor.calls",
                    "ode.tail_admissible.calls", "ode.tail_start.calls",
                    "ode.nfev")


def summarise(wl, seed, reqs, untraced, traced) -> dict:
    """Per-layer metrics, the self time of every span, and a few counters
    per request kind; times are medians over the traced passes."""
    wall_u = statistics.median(r.wall_s for r in untraced)
    wall_t = statistics.median(r.wall_s for r in traced)
    overhead_ms = 1e3 * (wall_t - wall_u)
    per_pass = [layer_metrics(r.stats, overhead_ms) for r in traced]
    metrics = {k: _median_or_same([p[k] for p in per_pass])
               for k in per_pass[0]}
    first = traced[0].stats
    spans = {name: {"calls": n, "self_ms": statistics.median(
                 1e3 * r.stats.self_s[name] for r in traced)}
             for name, n in sorted(first.calls.items())}
    total_self = sum(s["self_ms"] for s in spans.values())
    for s in spans.values():
        s["share"] = s["self_ms"] / total_self if total_self else 0.0
    by_kind = {}
    for kind, st in traced[0].by_kind.items():
        c = counters(st)
        by_kind[kind] = {"ops": sum(r.kind == kind for r in reqs),
                         **{k: c.get(k, 0) for k in BY_KIND_COUNTERS}}
    return {"workload": wl.name, "seed": seed, "ops_per_pass": len(reqs),
            "pass_wall_ms": {"untraced": 1e3 * wall_u,
                             "traced": 1e3 * wall_t},
            "metrics": metrics, "spans": spans, "by_kind": by_kind}


def print_split(split: dict, n_traced: int, n_untraced: int) -> None:
    walls = split["pass_wall_ms"]
    print(f"traced passes={n_traced} untraced passes={n_untraced} "
          f"ops per pass={split['ops_per_pass']}")
    print(f"pass wall: untraced {walls['untraced']:.1f} ms, traced "
          f"{walls['traced']:.1f} ms, tracing overhead "
          f"{split['metrics']['trace.overhead_ms']:.1f} ms")
    print("self time by span (median over traced passes):")
    ranked = sorted(split["spans"].items(), key=lambda kv: -kv[1]["self_ms"])
    for name, s in ranked:
        print(f"  {name:40s} calls={s['calls']:<9d} "
              f"self_ms={s['self_ms']:10.2f} share={100 * s['share']:5.1f}%")
    print(f"largest self-time share: {ranked[0][0]} "
          f"({100 * ranked[0][1]['share']:.1f}%)")
    for kind, row in sorted(split["by_kind"].items()):
        print(f"  kind {kind}: " + " ".join(f"{k}={v}"
                                            for k, v in row.items()))
    print("split " + json.dumps(split, sort_keys=True))


def write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    """Spans of the last traced pass, one JSON object per line after a
    header line naming the workload and seed."""
    path = WORK_DIR / "traces" / f"{workload}.jsonl.gz"
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = min((s[4] for s in tracer.spans), default=0.0)
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed}) + "\n")
        for sid, parent, op, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                 "name": name,
                                 "start_us": round(1e6 * (start - t0), 3),
                                 "end_us": round(1e6 * (end - t0), 3)})
                     + "\n")
    print(f"spans: {path.relative_to(ROOT)}")


# -- entry points -------------------------------------------------------------

def result_line(spec_metrics, values, correct, attempted, failed) -> str:
    metrics = {}
    for m in spec_metrics:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_one(args, spec) -> int:
    wl_cls = WORKLOADS[args.workload]
    setup = measure_setup(wl_cls.setup_flags)
    sys.path.insert(0, str(SRC))
    import qshoot.cli
    if Path(qshoot.cli.__file__).resolve().parent != SRC / "qshoot":
        print(f"perfbench: imported qshoot from {qshoot.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} why: {wl_cls.why}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print("setup_s probes: " + " ".join(f"{t:.4f}" for t in setup))
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK_DIR) as tmp:
        wl = wl_cls(args.seed, tmp)
        first = wl.traced_pass()[0]
        print(f"request: qshoot {' '.join(first.argv)}")
        for req in wl.warmup():
            execute(qshoot.cli.main, req)
        gc.collect()
        if args.trace:
            values, attempted, failed, ok = run_traced(
                wl, qshoot.cli.main, args.seconds, args.seed)
            names = spec["per_layer"]
        else:
            values, attempted, failed = run_measured(wl, qshoot.cli.main,
                                                     args.seconds)
            values["setup_s"] = statistics.median(setup)
            ok = True
            names = spec["end_to_end"]
    for m in names:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(result_line(names, values, ok and failed == 0, attempted, failed))
    return 0


def run_all(args, spec) -> int:
    """Every workload in a fresh interpreter; one table of their metrics."""
    rows, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S * 3)
        lines = proc.stdout.strip().splitlines()
        fails = [ln for ln in lines if ln.startswith("FAIL")]
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark exited {proc.returncode}\n{proc.stderr}")
            return 1
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        rows[name] = res
        for ln in fails:
            print(f"{name}: {ln}")
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    width = max(len(m["name"]) + len(m["unit"]) for m in names) + 3
    print(f"{'metric [unit]':{width}s}" + "".join(f"{w:>16s}" for w in rows))
    for m in names:
        cells = "".join(f"{r['metrics'][m['name']]['value']:16.6g}"
                        for r in rows.values())
        print(f"{m['name'] + ' [' + m['unit'] + ']':{width}s}{cells}")
    print(f"{'fail_frac [1]':{width}s}" + "".join(
        f"{r['failed'] / r['attempted']:16.6g}" for r in rows.values()))
    values = {f"{w}.{k}": v["value"] for w, r in rows.items()
              for k, v in r["metrics"].items()}
    units = [{"name": f"{w}.{k}", "unit": v["unit"]} for w, r in rows.items()
             for k, v in r["metrics"].items()]
    print(result_line(units, values, correct, attempted, failed))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qshoot" / "cli.py").is_file():
        print(f"perfbench: no qshoot source tree at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    pin_environment()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
