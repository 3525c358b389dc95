"""The benchmark's workloads: the qshoot requests each one issues, built
from the seed, and the checks each answer must pass.

qshoot itself never sees the seed; it only receives the generated flags.
Nothing here imports qshoot at module level, so the driver can check that
the source tree is present before anything is loaded.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

BESSEL_J0_FIRST_ZERO = 2.404825557695773

# acceptance bounds of the package's own oracle and cross-check tests
ORACLE_TOL = 1e-6            # Bessel zero, planar exponential zero
WEIGHTED_TOL = 1e-5          # weighted reduction against the direct march
ROUTE_TOL = 1e-6             # |T_t - T_r| <= ROUTE_TOL (1 + |T|)
TPRIME_TOL = 1e-3            # linearized flow against central difference


@dataclass(frozen=True)
class Request:
    kind: str                # label for per-kind reporting
    argv: tuple              # qshoot command line, without the program name
    items: int = 1           # amplitudes this request solves
    outputs: tuple = ()      # files the request writes


@dataclass(frozen=True)
class Outcome:
    code: int | None         # exit code; None when main raised
    stdout: str
    stderr: str
    files: tuple             # (path, bytes) for each of Request.outputs
    runtime_warnings: int
    error: str | None = None  # traceback of an exception main let through

    def output_key(self) -> tuple:
        """Everything qshoot produced, for bitwise comparison."""
        return (self.code, self.stdout, self.stderr, self.files)


def _fmt(x: float) -> str:
    return repr(float(x))


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key] = val
    return out


def _csv_rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _basic_failures(outcome: Outcome) -> list:
    if outcome.error is not None:
        last = outcome.error.strip().splitlines()[-1]
        return [f"uncaught exception: {last}"]
    if outcome.code != 0:
        err = outcome.stderr.strip().splitlines()
        return [f"exit code {outcome.code}: {err[-1] if err else ''}"]
    return []


class Workload:
    """One benchmark workload. Subclasses set `name` and `why` and build
    their requests in __init__ from the seed."""

    name = ""
    why = ""
    setup_flags = {}      # RunConfig fields the set-up probe builds

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = Path(outdir)
        self._first = None

    def requests(self):
        """Endless deterministic request stream for the timed loop."""
        while True:
            yield self.request

    def traced_pass(self) -> list:
        """Fixed request list that one traced pass runs."""
        return [self.request]

    def warmup(self) -> list:
        return []

    def items(self, req: Request, outcome: Outcome) -> int:
        return req.items

    def check(self, req: Request, outcome: Outcome) -> list:
        """Names of the checks this answer fails (empty when correct)."""
        return _basic_failures(outcome)

    def final_check(self) -> list:
        """Untimed checks run once after the loop; a failure here fails
        every operation."""
        return []

    def _same_as_first(self, outcome: Outcome) -> list:
        if self._first is None:
            self._first = outcome
            return []
        if outcome.output_key() != self._first.output_key():
            return ["output differs from the first operation's"]
        return []


class SweepTail(Workload):
    name = "sweep_tail"
    why = ("40-point pow_exp sweep; nearly every point takes the tail route "
           "and the convexity-floor scan dominates")
    setup_flags = {"family": "pow_exp", "q": 1.5, "p": 1.0, "rho_beta": 1.0,
                   "n": 2}

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        rng = random.Random(seed)
        self.gamma_min = rng.uniform(2.0, 3.0)
        self.gamma_max = rng.uniform(11.0, 12.0)
        out = str(self.outdir / "sweep.csv")
        self.request = Request(
            kind="sweep",
            argv=("sweep", "--family", "pow_exp", "--q", "1.5", "--p", "1",
                  "--rho-beta", "1", "--n", "2", "--gamma-steps", "40",
                  "--gamma-min", _fmt(self.gamma_min),
                  "--gamma-max", _fmt(self.gamma_max), "--out", out),
            items=40, outputs=(out, out + ".meta.json"))

    def warmup(self):
        return [Request(kind="warmup", argv=(
            "shoot", "--family", "pow_exp", "--q", "1.5", "--p", "1",
            "--rho-beta", "1", "--n", "2", "--gamma", "6"))]

    def check(self, req, outcome):
        fails = _basic_failures(outcome)
        if fails:
            return fails
        fails = [f"sweep row failed: {line}"
                 for line in outcome.stdout.splitlines()
                 if line.startswith("error[")]
        return fails + self._same_as_first(outcome)

    def final_check(self):
        """Re-shoot every amplitude of the first sweep on the route the
        solver did not choose; the two first zeros must agree."""
        if self._first is None or self._first.code != 0:
            return []
        from qshoot.cli import load_run_config
        from qshoot.errors import QShootError
        from qshoot.shooting import choose_route, shoot

        files = dict(self._first.files)
        rows = _csv_rows(files[self.request.outputs[0]])
        meta = json.loads(files[self.request.outputs[1]])
        fails = []
        if len(rows) != 40:
            fails.append(f"sweep has {len(rows)} rows, expected 40")
        if meta.get("errors"):
            fails.append(f"sweep meta lists errors: {meta['errors']}")
        rc = load_run_config(None, self.setup_flags)
        nl, cfg, n = rc.nonlinearity(), rc.problem(), rc.n
        for row in rows:
            gamma = float(row["gamma"])
            if row["T"] == "":
                fails.append(f"placeholder row at gamma={gamma!r}")
                continue
            T = float(row["T"])
            other = "r" if choose_route(nl, n, gamma, cfg) == "t" else "t"
            try:
                T2 = shoot(nl, n, gamma, cfg, route=other).T
            except QShootError as exc:
                fails.append(f"route {other} failed at gamma={gamma!r}: {exc}")
                continue
            if not abs(T - T2) <= ROUTE_TOL * (1.0 + abs(T)):
                fails.append(f"route agreement at gamma={gamma!r}: "
                             f"|{T!r} - {T2!r}| > {ROUTE_TOL}(1+|T|)")
        return fails


class LinearizeGrid(Workload):
    name = "linearize_grid"
    why = ("8-point n=3 derivative grid: the 4-variable linearized channel "
           "plus two tighter finite-difference shoots per point")
    setup_flags = {"family": "pow_exp", "q": 1.5, "n": 3}

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        rng = random.Random(seed)
        self.gamma_min = rng.uniform(3.0, 4.0)
        self.gamma_max = rng.uniform(11.0, 12.0)
        out = str(self.outdir / "linearize.csv")
        self.request = Request(
            kind="linearize",
            argv=("linearize", "--family", "pow_exp", "--q", "1.5",
                  "--n", "3", "--gamma-steps", "8",
                  "--gamma-min", _fmt(self.gamma_min),
                  "--gamma-max", _fmt(self.gamma_max), "--out", out),
            items=8, outputs=(out, out + ".meta.json"))

    def warmup(self):
        out = str(self.outdir / "warmup.csv")
        return [Request(kind="warmup", argv=(
            "linearize", "--family", "pow_exp", "--q", "1.5", "--n", "3",
            "--gamma-steps", "1", "--gamma-min", "6", "--gamma-max", "7",
            "--out", out), outputs=(out,))]

    def check(self, req, outcome):
        fails = _basic_failures(outcome)
        if fails:
            return fails
        rows = _csv_rows(dict(outcome.files)[req.outputs[0]])
        if len(rows) != req.items:
            fails.append(f"grid has {len(rows)} rows, expected {req.items}")
        for row in rows:
            gamma = row["gamma"]
            if row["Tprime_v1"] == "" or row["Tprime_fd"] == "":
                fails.append(f"placeholder row at gamma={gamma}")
                continue
            v1, fd = float(row["Tprime_v1"]), float(row["Tprime_fd"])
            if not abs(v1 - fd) <= TPRIME_TOL * abs(fd):
                fails.append(f"T' cross-check at gamma={gamma}: "
                             f"v1={v1!r} fd={fd!r}")
        return fails


_ORACLE_KINDS = {
    # kind: (amplitude range, argv prefix)
    "linear": ((0.1, 5.0), ("shoot", "--family", "linear", "--n", "2")),
    "exp": ((0.2, 10.0), ("shoot", "--family", "exp", "--n", "2")),
    "singular": ((0.2, 6.0), ("singular", "--family", "exp", "--n", "2",
                              "--beta-weight", "1")),
}


class ShootOracle(Workload):
    name = "shoot_oracle"
    why = ("closed loop of single shoot/singular requests, each checked "
           "against its closed-form first zero")
    setup_flags = {"family": "exp", "n": 2}
    STRATA = 10
    TRACED_REQUESTS = 3 * STRATA

    def requests(self):
        """Kinds come in shuffled blocks of one of each, so every prefix
        holds the three kinds in near-equal numbers. Each kind's amplitude
        range is cut into STRATA equal parts; every STRATA requests of a
        kind visit each part once, in shuffled order. A kind's cost
        depends on its amplitude (the route and the number of floor scans
        change with it), so this keeps the mix of costs, and the p50 that
        falls inside it, the same from seed to seed."""
        rng = random.Random(self.seed)
        kinds = sorted(_ORACLE_KINDS)
        strata = {kind: [] for kind in kinds}
        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                if not strata[kind]:
                    strata[kind] = list(range(self.STRATA))
                    rng.shuffle(strata[kind])
                (lo, hi), prefix = _ORACLE_KINDS[kind]
                part = strata[kind].pop()
                gamma = lo + (hi - lo) * (part + rng.random()) / self.STRATA
                yield Request(kind=kind,
                              argv=prefix + ("--gamma", _fmt(gamma)))

    def traced_pass(self):
        stream = self.requests()
        return [next(stream) for _ in range(self.TRACED_REQUESTS)]

    def warmup(self):
        return [Request(kind=kind, argv=prefix + ("--gamma", "2"))
                for kind, (_, prefix) in sorted(_ORACLE_KINDS.items())]

    def check(self, req, outcome):
        fails = _basic_failures(outcome)
        if fails:
            return fails
        out = _fields(outcome.stdout)
        gamma = float(req.argv[-1])
        if req.kind == "linear":
            err = abs(float(out["R"]) - BESSEL_J0_FIRST_ZERO)
            if not err <= ORACLE_TOL:
                fails.append(f"bessel_zero[gamma={gamma!r}] error {err:.3g}")
        elif req.kind == "exp":
            exact = math.sqrt(8.0 * math.expm1(gamma / 2.0) * math.exp(-gamma))
            err = abs(float(out["R"]) - exact) / exact
            if not err <= ORACLE_TOL:
                fails.append(f"planar_zero[gamma={gamma!r}] rel error "
                             f"{err:.3g}")
        else:
            exact = 2.0 * math.expm1(gamma / 2.0) * math.exp(-gamma)
            err = abs(float(out["R_reduced"]) - exact) / exact
            if not err <= ORACLE_TOL:
                fails.append(f"weighted_closed_form[gamma={gamma!r}] rel "
                             f"error {err:.3g}")
            diff = float(out["rel_difference"])
            if not diff <= WEIGHTED_TOL:
                fails.append(f"weighted_reduction_vs_direct[gamma={gamma!r}] "
                             f"{diff:.3g}")
        return fails


class Verify(Workload):
    name = "verify"
    why = ("all four self-check suites: the only user of the verify layer, "
           "the closed forms and scipy quad")

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)   # fixed inputs: the seed is unused
        out = str(self.outdir / "verify.json")
        self.request = Request(kind="verify", argv=("verify", "--out", out),
                               outputs=(out,))

    def warmup(self):
        return [Request(kind="warmup", argv=("verify", "--suite", "regimes"))]

    def items(self, req, outcome):
        files = dict(outcome.files)
        if outcome.code != 0 or req.outputs[0] not in files:
            return 0
        return sum(len(s["rows"]) for s in json.loads(files[req.outputs[0]]))

    def check(self, req, outcome):
        fails = _basic_failures(outcome)
        if fails:
            return fails
        report = json.loads(dict(outcome.files)[req.outputs[0]])
        fails = [f"suite {s['suite']} failed" for s in report
                 if not s["passed"]]
        return fails + self._same_as_first(outcome)


WORKLOADS = {w.name: w for w in (SweepTail, LinearizeGrid, ShootOracle,
                                 Verify)}
