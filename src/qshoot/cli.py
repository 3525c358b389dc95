"""Command-line front end.

Subcommands: shoot, sweep, linearize, verify, regimes, singular. Options
can come from flags or a flat key=value config file (flags win, file next,
defaults last); `main` reuses one parser per process. Exit codes: 0
success, 1 configuration or usage error, 2 solver failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .config import ProblemConfig, check_dimension
from .errors import ConfigError, QShootError
from .linearization import detect_turning, solve_V1, t_prime_fd
from .nonlinearity import Nonlinearity, make_nonlinearity
from .output import (atomic_write, csv_text, curve_meta, curve_rows,
                     fmt_value, json_text, linearization_rows, sweep_svg)
from .shooting import (classify_small_gamma, shoot, shoot_singular,
                       shoot_weighted_direct, sweep)
from .verify import SUITES, run_suites


@dataclass(frozen=True)
class RunConfig:
    """Flat run options; the file form is one key=value per line using the
    keys of KEY_MAP (same spelling as the long flags)."""

    family: str = "pow_exp"
    p: float = 0.0
    q: float = 2.0
    a: float = 1.0
    lam: float = 1.0
    rho_beta: float = 0.0
    beta_weight: float = 0.0
    n: int = 2
    gamma: float | None = None
    gamma_min: float | None = None
    gamma_max: float | None = None
    gamma_steps: int = 0
    tol: float = 1e-10
    tail_c: float = 6.0
    out: str | None = None
    fmt: str = "csv"

    def nonlinearity(self) -> Nonlinearity:
        return make_nonlinearity(self.family, a=self.a, q=self.q, p=self.p,
                                 rho_beta=self.rho_beta, lam=self.lam,
                                 n=self.n)

    def problem(self) -> ProblemConfig:
        """The solver settings, refused up front when the weight does not
        fit the dimension (a sweep would otherwise fail row by row)."""
        check_dimension(self.n, self.beta_weight)
        return ProblemConfig(beta_weight=self.beta_weight, rtol=self.tol,
                             atol=self.tol * 1e-2, c_tail=self.tail_c)


# config-file / flag key -> dataclass field
KEY_MAP = {
    "family": "family", "p": "p", "q": "q", "a": "a", "lambda": "lam",
    "rho-beta": "rho_beta", "beta-weight": "beta_weight", "n": "n",
    "gamma": "gamma", "gamma-min": "gamma_min", "gamma-max": "gamma_max",
    "gamma-steps": "gamma_steps", "tol": "tol", "tail-c": "tail_c",
    "out": "out", "format": "fmt",
}

_INT_KEYS = {"n", "gamma-steps"}
_STR_KEYS = {"family", "out", "format"}
# output formats: the curve as CSV plus its meta sidecar, or an SVG sketch
_FORMATS = ("csv", "svg")


def parse_config_text(text: str) -> dict:
    """key=value lines -> field dict; unknown keys are an error."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected key=value, "
                              f"got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in KEY_MAP:
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        if key in _STR_KEYS:
            out[KEY_MAP[key]] = val
        elif key in _INT_KEYS:
            try:
                out[KEY_MAP[key]] = int(val)
            except ValueError as exc:
                raise ConfigError(
                    f"config line {ln}: key {key!r} needs an integer, "
                    f"got {val!r}") from exc
        else:
            try:
                out[KEY_MAP[key]] = float(val)
            except ValueError as exc:
                raise ConfigError(
                    f"config line {ln}: key {key!r} needs a number, "
                    f"got {val!r}") from exc
    return out


def load_run_config(path: str | None, flag_values: dict) -> RunConfig:
    merged = asdict(RunConfig())
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        merged.update(parse_config_text(text))
    for field_name, v in flag_values.items():
        if v is not None:
            merged[field_name] = v
    if merged["fmt"] not in _FORMATS:
        raise ConfigError(f"format must be one of {', '.join(_FORMATS)}, "
                          f"got {merged['fmt']!r}")
    return RunConfig(**merged)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value options file")
    p.add_argument("--family", choices=("pow_exp", "exp", "linear"))
    p.add_argument("--p", type=float, help="logarithmic drift weight")
    p.add_argument("--q", type=float, help="leading growth exponent")
    p.add_argument("--a", type=float, help="leading growth coefficient")
    p.add_argument("--lambda", type=float, dest="lam",
                   help="source multiplier")
    p.add_argument("--rho-beta", type=float, dest="rho_beta",
                   help="linear drift weight")
    p.add_argument("--beta-weight", type=float, dest="beta_weight",
                   help="singular weight exponent")
    p.add_argument("--n", type=int, help="space dimension / operator degree")
    p.add_argument("--gamma", type=float, help="shooting amplitude")
    p.add_argument("--gamma-min", type=float, dest="gamma_min")
    p.add_argument("--gamma-max", type=float, dest="gamma_max")
    p.add_argument("--gamma-steps", type=int, dest="gamma_steps")
    p.add_argument("--tol", type=float, help="relative step tolerance")
    p.add_argument("--tail-c", type=float, dest="tail_c",
                   help="tail start depth multiplier")
    p.add_argument("--out", help="output file path")
    p.add_argument("--format", dest="fmt", choices=_FORMATS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, so each `main` call reuses it."""
    top = _Parser(prog="qshoot",
                  description="first-zero shooting for quasilinear radial "
                              "problems with exponential growth")
    top.add_argument("--version", action="version",
                     version=f"qshoot {__version__}")
    sub = top.add_subparsers(dest="command")
    for name, desc in (
            ("shoot", "first zero for one amplitude"),
            ("sweep", "bifurcation data over an amplitude grid"),
            ("linearize", "amplitude derivative and turning structure"),
            ("verify", "run the self-check suites"),
            ("regimes", "small-amplitude trend classification"),
            ("singular", "weighted problem via reduction and directly")):
        sp = sub.add_parser(name, help=desc, description=desc)
        _common_flags(sp)
        if name == "verify":
            sp.add_argument("--suite", action="append", choices=SUITES,
                            help="suite to run (repeatable; default all)")
    return top


def _flag_values(args) -> dict:
    vals = {}
    for field_name in KEY_MAP.values():
        if hasattr(args, field_name):
            vals[field_name] = getattr(args, field_name)
    return vals


def _gammas(rc: RunConfig) -> np.ndarray:
    if rc.gamma_min is not None or rc.gamma_max is not None:
        if rc.gamma_min is None or rc.gamma_max is None or rc.gamma_steps < 1:
            raise ConfigError("a grid needs --gamma-min, --gamma-max and "
                              "--gamma-steps >= 1")
        if not (math.isfinite(rc.gamma_min) and math.isfinite(rc.gamma_max)):
            raise ConfigError("--gamma-min and --gamma-max must be finite")
        if not rc.gamma_min < rc.gamma_max:
            raise ConfigError("--gamma-min must sit below --gamma-max")
        if rc.gamma_steps == 1:
            return np.array([rc.gamma_min])
        return np.linspace(rc.gamma_min, rc.gamma_max, rc.gamma_steps)
    if rc.gamma is not None:
        return np.array([rc.gamma])
    raise ConfigError("no amplitudes given: use --gamma or the "
                      "--gamma-min/--gamma-max/--gamma-steps grid")


def _emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _write_curve(path: str, curve) -> None:
    """The curve as CSV plus its .meta.json sidecar."""
    header, rows = curve_rows(curve)
    atomic_write(path, csv_text(header, rows))
    atomic_write(path + ".meta.json",
                 json_text(curve_meta(curve, __version__)))


def cmd_shoot(args) -> int:
    rc = load_run_config(args.config, _flag_values(args))
    if rc.gamma is None:
        raise ConfigError("shoot needs --gamma")
    out = shoot(rc.nonlinearity(), rc.n, rc.gamma, rc.problem())
    lines = [f"{k}={fmt_value(v)}" for k, v in out.as_dict().items()]
    _emit(lines)
    if rc.out:
        atomic_write(rc.out, json_text(out.as_dict()))
    return 0


def cmd_sweep(args) -> int:
    rc = load_run_config(args.config, _flag_values(args))
    grid = _gammas(rc)
    curve = sweep(rc.nonlinearity(), rc.n, grid, rc.problem())
    solved = [o for o in curve.outcomes if o.T is not None]
    lines = [f"points={len(curve.gammas)}", f"solved={len(solved)}"]
    if solved:
        lams = [o.lam for o in solved]
        lines.append(f"lambda_min={fmt_value(min(lams))}")
        lines.append(f"lambda_max={fmt_value(max(lams))}")
    for g, msg in curve.errors:
        lines.append(f"error[gamma={fmt_value(g)}]={msg}")
    _emit(lines)
    if rc.out:
        if rc.fmt == "svg":
            atomic_write(rc.out, sweep_svg(curve))
        else:
            _write_curve(rc.out, curve)
    return 0


def cmd_linearize(args) -> int:
    rc = load_run_config(args.config, _flag_values(args))
    nl = rc.nonlinearity()
    cfg = rc.problem()
    if rc.gamma_min is not None or rc.gamma_max is not None:
        grid = _gammas(rc)
        curve = sweep(nl, rc.n, grid, cfg, with_derivative=True)
        lines = [f"points={len(curve.gammas)}"]
        # uniqueness window: first grid amplitude after which the derivative
        # of the zero stays positive through the end of the grid
        gamma0 = None
        pairs = [(g, tp) for g, tp in zip(curve.gammas, curve.tprime_v1)]
        for i, (g, _) in enumerate(pairs):
            if all(t2 is not None and t2 > 0.0 for _, t2 in pairs[i:]):
                gamma0 = g
                break
        lines.append("gamma0=" + (fmt_value(gamma0) if gamma0 is not None
                                  else "not found"))
        for g, msg in curve.errors:
            lines.append(f"error[gamma={fmt_value(g)}]={msg}")
        _emit(lines)
        if rc.out:
            _write_curve(rc.out, curve)
        return 0

    if rc.gamma is None:
        raise ConfigError("linearize needs --gamma or a gamma grid")
    res = solve_V1(nl, rc.n, rc.gamma, cfg, keep_trajectory=True)
    tp = res.tprime()
    tf = t_prime_fd(nl, rc.n, rc.gamma, cfg)
    lines = [f"gamma={fmt_value(rc.gamma)}", f"T={fmt_value(res.T)}",
             f"V1_T={fmt_value(res.V1_T)}",
             f"Tprime_v1={fmt_value(tp)}", f"Tprime_fd={fmt_value(tf)}",
             f"route={res.route}"]
    try:
        rep = detect_turning(nl, rc.n, rc.gamma, cfg)
        for k, v in rep.as_dict().items():
            lines.append(f"{k}={fmt_value(v) if v is not None else 'absent'}")
    except QShootError as exc:
        lines.append(f"turning=unavailable ({exc})")
    _emit(lines)
    if rc.out:
        if res.route != "t":
            raise ConfigError("trajectory export for the linearized flow "
                              "needs the tail route; raise --gamma")
        header, rows = linearization_rows(res.traj)
        atomic_write(rc.out, csv_text(header, rows))
    return 0


def cmd_verify(args) -> int:
    rc = load_run_config(args.config, _flag_values(args))
    names = tuple(args.suite) if args.suite else SUITES
    reports = run_suites(names)
    lines = []
    ok = True
    for rep in reports:
        lines.append(f"suite {rep.suite}: "
                     f"{'pass' if rep.passed else 'FAIL'} "
                     f"({len(rep.rows)} checks)")
        for row in rep.failing():
            ok = False
            lines.append(f"  FAIL {row.name} value={fmt_value(row.value)} "
                         f"bound={fmt_value(row.bound)}")
    _emit(lines)
    if rc.out:
        atomic_write(rc.out, json_text([r.as_dict() for r in reports]))
    return 0 if ok else 3


def cmd_regimes(args) -> int:
    rc = load_run_config(args.config, _flag_values(args))
    nl = rc.nonlinearity()
    cfg = rc.problem()
    if rc.gamma_min is not None or rc.gamma_max is not None:
        grid = tuple(_gammas(rc))
    else:
        grid = (1e-1, 1e-2, 1e-3, 1e-4)
    rep = classify_small_gamma(nl, rc.n, gammas=grid, cfg=cfg)
    lines = [f"verdict={rep.verdict}",
             f"p_estimate={fmt_value(rep.p_estimate)}",
             f"spread={fmt_value(rep.spread)}"]
    for g, T in zip(rep.gammas, rep.Ts):
        lines.append(f"T[gamma={fmt_value(g)}]={fmt_value(T)}")
    _emit(lines)
    if rc.out:
        atomic_write(rc.out, json_text({
            "verdict": rep.verdict, "p_estimate": rep.p_estimate,
            "spread": rep.spread, "gammas": list(rep.gammas),
            "T": list(rep.Ts)}))
    return 0


def cmd_singular(args) -> int:
    rc = load_run_config(args.config, _flag_values(args))
    if rc.gamma is None:
        raise ConfigError("singular needs --gamma")
    nl = rc.nonlinearity()
    cfg = rc.problem()
    red = shoot_singular(nl, rc.n, rc.beta_weight, rc.gamma, cfg)
    direct = shoot_weighted_direct(nl, rc.n, rc.beta_weight, rc.gamma, cfg)
    rel = abs(red.R - direct.R) / direct.R
    lines = [f"gamma={fmt_value(rc.gamma)}",
             f"beta={fmt_value(rc.beta_weight)}",
             f"R_reduced={fmt_value(red.R)}",
             f"R_direct={fmt_value(direct.R)}",
             f"rel_difference={fmt_value(rel)}",
             f"lambda={fmt_value(direct.lam)}"]
    _emit(lines)
    if rc.out:
        atomic_write(rc.out, json_text({
            "gamma": rc.gamma, "beta": rc.beta_weight,
            "reduced": red.as_dict(), "direct": direct.as_dict(),
            "rel_difference": rel}))
    return 0


_COMMANDS = {
    "shoot": cmd_shoot,
    "sweep": cmd_sweep,
    "linearize": cmd_linearize,
    "verify": cmd_verify,
    "regimes": cmd_regimes,
    "singular": cmd_singular,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"qshoot: error: {exc}", file=sys.stderr)
        return 1
    except QShootError as exc:
        print(f"qshoot: solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
