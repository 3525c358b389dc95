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
from dataclasses import asdict, dataclass, field, fields

from . import __version__
from ._numeric import linspace
from .config import ProblemConfig, check_dimension
from .errors import ConfigError, QShootError
from .linearization import _turning, detect_turning, solve_V1, t_prime_fd
from .nonlinearity import Nonlinearity, make_nonlinearity
from .output import (atomic_write, csv_text, curve_meta, curve_rows,
                     fmt_value, json_text, linearization_rows, sweep_svg)
from .shooting import (choose_route, classify_small_gamma, shoot,
                       shoot_singular, shoot_weighted_direct, sweep)
from .verify import SUITES, run_suites


def _option(default, key=None, read=None, **flag):
    """A RunConfig field that states its option once: `key` is its long
    flag and config key (the field name with - for _ unless given), `read`
    turns a value's text into the field (the default's type unless given),
    and `flag` holds argparse's help and choices."""
    return field(default=default, metadata={
        "key": key, "read": read or type(default), "flag": flag})


@dataclass(frozen=True)
class RunConfig:
    """Flat run options, in flag order; the file form is one key=value per
    line using the keys of KEY_MAP (same spelling as the long flags)."""

    family: str = _option("pow_exp", choices=("pow_exp", "exp", "linear"))
    p: float = _option(0.0, help="logarithmic drift weight")
    q: float = _option(2.0, help="leading growth exponent")
    a: float = _option(1.0, help="leading growth coefficient")
    lam: float = _option(1.0, key="lambda", help="source multiplier")
    rho_beta: float = _option(0.0, help="linear drift weight")
    beta_weight: float = _option(0.0, help="singular weight exponent")
    n: int = _option(2, help="space dimension / operator degree")
    gamma: float | None = _option(None, read=float,
                                  help="shooting amplitude")
    gamma_min: float | None = _option(None, read=float)
    gamma_max: float | None = _option(None, read=float)
    gamma_steps: int = _option(0)
    tol: float = _option(1e-10, help="step rtol; all other tolerances follow")
    tail_c: float = _option(6.0, help="tail start depth multiplier")
    out: str | None = _option(None, read=str, help="output file path")
    # output formats: the curve as CSV plus its meta sidecar, or an SVG
    # sketch
    fmt: str = _option("csv", key="format", choices=("csv", "svg"))

    def nonlinearity(self) -> Nonlinearity:
        return make_nonlinearity(self.family, a=self.a, q=self.q, p=self.p,
                                 rho_beta=self.rho_beta, lam=self.lam)

    def problem(self) -> ProblemConfig:
        """The solver settings, refused up front when the weight does not
        fit the dimension (a sweep would otherwise fail row by row)."""
        check_dimension(self.n, self.beta_weight)
        return ProblemConfig(beta_weight=self.beta_weight, rtol=self.tol,
                             c_tail=self.tail_c)


# config-file key and long flag -> RunConfig field
KEY_MAP = {f.metadata["key"] or f.name.replace("_", "-"): f
           for f in fields(RunConfig)}
_FORMATS = KEY_MAP["format"].metadata["flag"]["choices"]
_NEEDS = {int: "an integer", float: "a number"}


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
        opt = KEY_MAP.get(key)
        if opt is None:
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        read = opt.metadata["read"]
        try:
            out[opt.name] = read(val)
        except ValueError as exc:
            raise ConfigError(
                f"config line {ln}: key {key!r} needs {_NEEDS[read]}, "
                f"got {val!r}") from exc
    return out


def load_run_config(path: str | None, flag_values: dict) -> RunConfig:
    merged = asdict(RunConfig())
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL
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
    for key, f in KEY_MAP.items():
        p.add_argument(f"--{key}", dest=f.name, type=f.metadata["read"],
                       **f.metadata["flag"])


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
    return {f.name: getattr(args, f.name) for f in KEY_MAP.values()}


def _gammas(rc: RunConfig) -> list:
    if rc.gamma_min is not None or rc.gamma_max is not None:
        if rc.gamma_min is None or rc.gamma_max is None or rc.gamma_steps < 1:
            raise ConfigError("a grid needs --gamma-min, --gamma-max and "
                              "--gamma-steps >= 1")
        if not (math.isfinite(rc.gamma_min) and math.isfinite(rc.gamma_max)):
            raise ConfigError("--gamma-min and --gamma-max must be finite")
        if not rc.gamma_min < rc.gamma_max:
            raise ConfigError("--gamma-min must sit below --gamma-max")
        return linspace(rc.gamma_min, rc.gamma_max, rc.gamma_steps)
    if rc.gamma is not None:
        return [rc.gamma]
    raise ConfigError("no amplitudes given: use --gamma or the "
                      "--gamma-min/--gamma-max/--gamma-steps grid")


def _emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _write_curve(rc: RunConfig, curve) -> None:
    """The curve to --out: an SVG sketch, or CSV plus a .meta.json sidecar."""
    if rc.fmt == "svg":
        atomic_write(rc.out, sweep_svg(curve))
        return
    header, rows = curve_rows(curve)
    atomic_write(rc.out, csv_text(header, rows))
    atomic_write(rc.out + ".meta.json",
                 json_text(curve_meta(curve, __version__)))


def cmd_shoot(rc: RunConfig, args) -> int:
    if rc.gamma is None:
        raise ConfigError("shoot needs --gamma")
    out = shoot(rc.nonlinearity(), rc.n, rc.gamma, rc.problem())
    lines = [f"{k}={fmt_value(v)}" for k, v in out.as_dict().items()]
    _emit(lines)
    if rc.out:
        atomic_write(rc.out, json_text(out.as_dict()))
    return 0


def cmd_sweep(rc: RunConfig, args) -> int:
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
        _write_curve(rc, curve)
    return 0


def cmd_linearize(rc: RunConfig, args) -> int:
    nl = rc.nonlinearity()
    cfg = rc.problem()
    if rc.gamma_min is not None or rc.gamma_max is not None:
        grid = _gammas(rc)
        curve = sweep(nl, rc.n, grid, cfg, with_derivative=True)
        lines = [f"points={len(curve.gammas)}"]
        # uniqueness window: first grid amplitude after which the derivative
        # of the zero stays positive through the end of the grid
        tps = curve.tprime_v1
        gamma0 = next((g for i, g in enumerate(curve.gammas)
                       if all(t is not None and t > 0.0 for t in tps[i:])),
                      None)
        lines.append("gamma0=" + (fmt_value(gamma0) if gamma0 is not None
                                  else "not found"))
        for g, msg in curve.errors:
            lines.append(f"error[gamma={fmt_value(g)}]={msg}")
        _emit(lines)
        if rc.out:
            _write_curve(rc, curve)
        return 0

    if rc.gamma is None:
        raise ConfigError("linearize needs --gamma or a gamma grid")
    if rc.out and choose_route(nl, rc.n, rc.gamma, cfg) != "t":
        raise ConfigError("trajectory export for the linearized flow "
                          "needs the tail route; raise --gamma")
    res = solve_V1(nl, rc.n, rc.gamma, cfg, keep_trajectory=True)
    tp = res.tprime()
    tf = t_prime_fd(nl, rc.n, rc.gamma, cfg)
    lines = [f"gamma={fmt_value(rc.gamma)}", f"T={fmt_value(res.T)}",
             f"V1_T={fmt_value(res.V1_T)}",
             f"Tprime_v1={fmt_value(tp)}", f"Tprime_fd={fmt_value(tf)}",
             f"route={res.route}"]
    try:
        # a t-route march already carries the channel the report reads
        rep = (_turning(res) if res.route == "t" else
               detect_turning(nl, rc.n, rc.gamma, cfg))
        for k, v in rep.as_dict().items():
            lines.append(f"{k}={fmt_value(v) if v is not None else 'absent'}")
    except QShootError as exc:
        lines.append(f"turning=unavailable ({exc})")
    _emit(lines)
    if rc.out:
        header, rows = linearization_rows(res.traj)
        atomic_write(rc.out, csv_text(header, rows))
    return 0


def cmd_verify(rc: RunConfig, args) -> int:
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


def cmd_regimes(rc: RunConfig, args) -> int:
    nl = rc.nonlinearity()
    cfg = rc.problem()
    grid = {}  # the default amplitude ladder unless a grid is given
    if rc.gamma_min is not None or rc.gamma_max is not None:
        grid["gammas"] = _gammas(rc)
    rep = classify_small_gamma(nl, rc.n, cfg=cfg, **grid)
    lines = [f"verdict={rep.verdict}",
             f"p_estimate={fmt_value(rep.p_estimate)}",
             f"spread={fmt_value(rep.spread)}"]
    for g, T in zip(rep.gammas, rep.Ts):
        lines.append(f"T[gamma={fmt_value(g)}]={fmt_value(T)}")
    _emit(lines)
    if rc.out:
        atomic_write(rc.out, json_text(rep.as_dict()))
    return 0


def cmd_singular(rc: RunConfig, args) -> int:
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
        rc = load_run_config(args.config, _flag_values(args))
        grid = rc.gamma_min is not None or rc.gamma_max is not None
        if rc.out and rc.fmt == "svg":
            if args.command != "sweep" and not (
                    args.command == "linearize" and grid):
                raise ConfigError(f"{args.command} draws no curve: --format "
                                  "svg needs sweep or a linearize grid")
            if not grid or rc.gamma_steps < 2:
                raise ConfigError("--format svg draws a curve through a "
                                  "grid: it needs --gamma-steps >= 2")
        return _COMMANDS[args.command](rc, args)
    except ConfigError as exc:
        print(f"qshoot: error: {exc}", file=sys.stderr)
        return 1
    except QShootError as exc:
        print(f"qshoot: solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
