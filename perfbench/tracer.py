"""Span tracing around the qshoot layer boundaries, from outside the package.

Each boundary is a module-level callable as bound in the module that calls
it: `qshoot.ode.solve_ivp` is scipy's integrator as the ode layer sees it,
`qshoot.shooting.convexity_floor` the floor as the shooting layer sees it.
`Tracer.install` swaps those attributes for wrappers and `uninstall` puts
the originals back, so an untraced run executes the package untouched.

A span records its name, start, end, parent span and operation. Self time
is the span's duration minus the time its direct child spans cover. Spans
and counters stay in memory; `Tracer.collect` hands over one operation's
totals and starts the next.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name): the boundary callables on the workloads'
# paths whose time is a span
SPAN_POINTS = (
    ("qshoot.cli", "atomic_write", "output.atomic_write"),
    ("qshoot.cli", "csv_text", "output.csv_text"),
    ("qshoot.cli", "json_text", "output.json_text"),
    ("qshoot.cli", "curve_rows", "output.curve_rows"),
    ("qshoot.cli", "curve_meta", "output.curve_meta"),
    ("qshoot.cli", "fmt_value", "output.fmt_value"),
    ("qshoot.cli", "shoot", "shooting.shoot"),
    ("qshoot.cli", "sweep", "shooting.sweep"),
    ("qshoot.cli", "shoot_singular", "shooting.shoot_singular"),
    ("qshoot.cli", "shoot_weighted_direct", "shooting.shoot_weighted_direct"),
    ("qshoot.cli", "run_suites", "verify.run_suites"),
    ("qshoot.shooting", "shoot", "shooting.shoot"),
    ("qshoot.shooting", "choose_route", "shooting.choose_route"),
    ("qshoot.shooting", "convexity_floor", "nonlinearity.convexity_floor"),
    ("qshoot.shooting", "tail_admissible", "ode.tail_admissible"),
    ("qshoot.shooting", "tail_start", "ode.tail_start"),
    ("qshoot.shooting", "integrate_t", "ode.integrate"),
    ("qshoot.shooting", "integrate_r", "ode.integrate"),
    # sweep imports these from the linearization module at call time
    ("qshoot.linearization", "t_prime", "linearization.t_prime"),
    ("qshoot.linearization", "t_prime_fd", "linearization.t_prime_fd"),
    ("qshoot.linearization", "solve_V1", "linearization.solve_V1"),
    ("qshoot.linearization", "choose_route", "shooting.choose_route"),
    ("qshoot.linearization", "convexity_floor", "nonlinearity.convexity_floor"),
    ("qshoot.linearization", "tail_start", "ode.tail_start"),
    ("qshoot.linearization", "integrate_t", "ode.integrate"),
    ("qshoot.linearization", "integrate_r", "ode.integrate"),
    ("qshoot.linearization", "snapshot", "asymptotics.snapshot"),
    ("qshoot.ode", "convexity_floor", "nonlinearity.convexity_floor"),
    ("qshoot.ode", "snapshot", "asymptotics.snapshot"),
    ("qshoot.ode", "solve_ivp", "ode.solve_ivp"),
    ("qshoot.ode", "brentq", "ode.refine"),
    ("qshoot.ode", "eval_source", "nonlinearity.eval_source"),
    ("qshoot.ode", "eval_fprime_source", "nonlinearity.eval_source"),
    ("qshoot.verify", "quad", "verify.quad"),
    ("qshoot.verify", "shoot", "shooting.shoot"),
    ("qshoot.verify", "shoot_singular", "shooting.shoot_singular"),
    ("qshoot.verify", "shoot_weighted_direct",
     "shooting.shoot_weighted_direct"),
    ("qshoot.verify", "classify_small_gamma", "shooting.classify_small_gamma"),
    ("qshoot.verify", "t_prime", "linearization.t_prime"),
    ("qshoot.verify", "v2_eval", "linearization.v2_eval"),
    ("qshoot.verify", "snapshot", "asymptotics.snapshot"),
    ("qshoot.verify", "comparison_z", "asymptotics.comparison_z"),
    ("qshoot.verify", "harmonic", "asymptotics.harmonic"),
    ("qshoot.verify", "perturbed_root", "asymptotics.perturbed_root"),
    ("qshoot.verify", "predict_all", "asymptotics.predict_all"),
    ("qshoot.verify", "psi_eval", "asymptotics.psi_eval"),
    ("qshoot.verify", "tail_power_integral", "asymptotics.tail_power_integral"),
    ("qshoot.verify", "turning_integrals", "asymptotics.turning_integrals"),
    ("qshoot.verify", "z_ode_log_residual", "asymptotics.z_ode_log_residual"),
)

# g is evaluated millions of times per sweep: these bindings only count
# calls, through a wrapper with eval_g's own signature to keep it cheap
EVAL_G_MODULES = ("qshoot.nonlinearity", "qshoot.asymptotics", "qshoot.ode",
                  "qshoot.linearization", "qshoot.verify")

SUITE_TABLE = ("qshoot.verify", "_RUNNERS")  # suite name -> runner


class OpStats:
    """Totals of one or more traced operations."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.floor_nls = set()

    def add(self, other: "OpStats") -> None:
        for k, v in other.self_s.items():
            self.self_s[k] += v
        self.calls.update(other.calls)
        self.counts.update(other.counts)
        self.floor_nls |= other.floor_nls


class Tracer:
    def __init__(self):
        self._saved = []
        self._stack = []          # open spans: [id, name, start, child_s]
        self._next_id = 0
        self.op = None            # label of the operation being traced
        self.spans = []           # (id, parent, op, name, start, end)
        self.stats = OpStats()
        self._eval_g_calls = [0]

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in SPAN_POINTS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._swap(mod, attr, self._span_wrapper(name, orig))
        for mod_name in EVAL_G_MODULES:
            mod = importlib.import_module(mod_name)
            self._swap(mod, "eval_g", self._counted_eval_g(mod.eval_g))
        mod_name, attr = SUITE_TABLE
        runners = getattr(importlib.import_module(mod_name), attr)
        for suite, fn in list(runners.items()):
            self._saved.append((runners, suite, fn, True))
            runners[suite] = self._span_wrapper(f"verify.suite.{suite}", fn)

    def _swap(self, mod, attr, wrapper) -> None:
        self._saved.append((mod, attr, getattr(mod, attr), False))
        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig, is_item in reversed(self._saved):
            if is_item:
                holder[key] = orig
            else:
                setattr(holder, key, orig)
        self._saved.clear()

    # -- spans ------------------------------------------------------------

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name (the root of an op)."""
        return self._span_wrapper(name, fn)(*args, **kwargs)

    def _span_wrapper(self, name: str, fn):
        pre = _PRE.get(name)
        note = _NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                traced_args = pre(tracer, args)
                if traced_args is None:
                    return fn(*args, **kwargs)
                args = traced_args
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[2]
                st = tracer.stats
                st.self_s[name] += dur - frame[3]
                st.calls[name] += 1
                if stack:
                    stack[-1][3] += dur
                tracer.spans.append((sid, parent, tracer.op, name, frame[2],
                                     end))
            if note is not None:
                note(tracer, args, result)
            return result
        return wrapper

    def _counted_eval_g(self, fn):
        cell = self._eval_g_calls

        @functools.wraps(fn)
        def wrapper(nl, u, k=0):
            cell[0] += 1
            return fn(nl, u, k)
        return wrapper

    def reset_spans(self) -> None:
        self.spans = []
        self._next_id = 0

    def in_span(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def collect(self) -> OpStats:
        """Totals since the last collect; counting starts afresh."""
        if self._stack:
            raise RuntimeError("collect() inside an open span")
        done = self.stats
        done.counts["nonlinearity.eval_g"] += self._eval_g_calls[0]
        self._eval_g_calls[0] = 0
        self.stats = OpStats()
        return done


def _pre_floor(tracer, args):
    # the linear family returns inf at once: no scan runs, no span is kept
    return None if args[0].linear else args


def _pre_refine(tracer, args):
    fun = args[0]

    def counted(x):
        tracer.stats.counts["ode.refine.evals"] += 1
        return fun(x)
    return (counted,) + args[1:]


def _note_shoot(tracer, args, out):
    if out.route == "t":
        tracer.stats.counts["shooting.shoot.route_t"] += 1
    if tracer.in_span("linearization.t_prime_fd"):
        tracer.stats.counts["linearization.t_prime_fd.shoots"] += 1


def _note_floor(tracer, args, result):
    tracer.stats.floor_nls.add(args[0])


def _note_solve_ivp(tracer, args, sol):
    c = tracer.stats.counts
    c["ode.nfev"] += int(sol.nfev)
    c["ode.steps_accepted"] += len(sol.t) - 1
    # RK45: 2 evaluations to start, then 6 per attempted step (FSAL)
    c["ode.steps_attempted"] += (int(sol.nfev) - 2) // 6


def _note_write(tracer, args, result):
    tracer.stats.counts["output.bytes_written"] += len(args[1].encode())


_PRE = {
    "nonlinearity.convexity_floor": _pre_floor,
    "ode.refine": _pre_refine,
}

_NOTES = {
    "shooting.shoot": _note_shoot,
    "nonlinearity.convexity_floor": _note_floor,
    "ode.solve_ivp": _note_solve_ivp,
    "output.atomic_write": _note_write,
}
