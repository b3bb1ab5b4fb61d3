"""Command-line interface.

``verify`` runs scenarios and writes reports; ``eval`` computes one value.
Complex literals use the grammar ``RE(+|-)IMi`` with decimal floats
(e.g. ``0.3-0.12i``); a bare real is accepted.  Exit code 0 means every
report passed, 1 means at least one failed, 2 means the invocation or
configuration was unusable.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .config import Config, _keys, load_config
from .errors import ConfigurationError, EllSelbergError
from .integrand import c_constant, j_closed, psi
from .invariants import BalancingMode, ParameterSet, coefficient_c, fundamental_invariant
from .qseries import Nomes, elliptic_gamma, theta
from .report import write_report
from .sampling import DEFAULT_BOX
from . import scenarios as scn

_FLOAT = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = re.compile(rf"^({_FLOAT})(?:([+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i)?$")


def parse_complex(text: str) -> complex:
    """Parse ``RE(+|-)IMi`` (bare real accepted); raises ValueError otherwise."""
    m = _COMPLEX.match(text.strip())
    if not m:
        raise ValueError(
            f"bad complex literal {text!r}: expected RE(+|-)IMi, e.g. 0.3-0.12i"
        )
    re_part = float(m.group(1))
    im_part = float(m.group(2)) if m.group(2) else 0.0
    return complex(re_part, im_part)


def format_complex(z: complex) -> str:
    """Inverse of parse_complex; shortest float form that round-trips."""
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    im = repr(z.imag)
    if not im.startswith("-"):
        im = "+" + im
    return f"{z.real!r}{im}i"


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _complex_list(text: str) -> tuple[complex, ...]:
    try:
        return tuple(parse_complex(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_MODES = {"pq": BalancingMode.PQ, "p": BalancingMode.P, "one": BalancingMode.ONE}


class _StoreOnce(argparse.Action):
    """Store an option's value, and refuse a second occurrence of the option:
    a repeated --z would otherwise silently replace the first list."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = namespace.__dict__.setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose options, and its subcommands', store once."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps its
    state in the namespace (see _StoreOnce), so one parser serves every call."""
    top = _Parser(
        prog="ellselberg",
        description="Verify BC_n elliptic Selberg integral identities numerically.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run verification scenarios")
    ver.add_argument("--scenario", choices=scn.SCENARIO_NAMES, help="restrict to one scenario")
    ver.add_argument("--config", help="key = value config file")
    ver.add_argument("--n", type=int, help="rank (number of integration variables)")
    ver.add_argument("--p", type=_complex_arg, help="first nome")
    ver.add_argument("--q", type=_complex_arg, help="second nome")
    ver.add_argument("--t", type=_complex_arg, help="coupling parameter")
    ver.add_argument("--a", type=_complex_list, metavar="C,C,...",
                     help="free parameters (solved entry appended unless --a6 given)")
    ver.add_argument("--a6", type=_complex_arg, help="explicit final parameter")
    ver.add_argument("--balancing", choices=sorted(_MODES), help="balancing mode")
    ver.add_argument("--grid", type=int, help="quadrature budget (max points per axis)")
    ver.add_argument("--tol", type=float, help="verdict tolerance")
    ver.add_argument("--seed", type=int, help="sampling seed")
    ver.add_argument("--count", type=int, help="sampled parameter sets per scenario row")
    ver.add_argument("--timing", choices=("on", "off"),
                     help="record runtime_ms (off keeps reports byte-identical)")
    ver.add_argument("--report", help="write the report array to this path")
    ver.add_argument("--format", choices=("json", "csv"), default="json")

    ev = sub.add_parser("eval", help="evaluate a single quantity")
    target = ev.add_subparsers(dest="target", required=True)

    def common(p, nomes=True, params=False, balancing="pq"):
        if nomes:
            p.add_argument("--p", type=_complex_arg, required=True)
            p.add_argument("--q", type=_complex_arg, required=True)
        if params:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--t", type=_complex_arg, required=True)
            p.add_argument("--a", type=_complex_list, required=True, metavar="C,C,...")
            p.add_argument("--a6", type=_complex_arg)
            p.add_argument("--balancing", choices=sorted(_MODES), default=balancing)

    g = target.add_parser("gamma", help="elliptic gamma Gamma(u; p, q)")
    g.add_argument("--u", type=_complex_arg, required=True)
    common(g)

    th = target.add_parser("theta", help="theta(u; p)")
    th.add_argument("--u", type=_complex_arg, required=True)
    th.add_argument("--p", type=_complex_arg, required=True)
    common(th, nomes=False)

    ps = target.add_parser("psi", help="integrand Psi at a point z")
    ps.add_argument("--z", type=_complex_list, required=True, metavar="C,C,...")
    common(ps, params=True)

    ei = target.add_parser("E", help="fundamental invariant E_r(a, b; z)")
    ei.add_argument("--r", type=int, required=True)
    ei.add_argument("--a", type=_complex_arg, required=True)
    ei.add_argument("--b", type=_complex_arg, required=True)
    ei.add_argument("--z", type=_complex_list, required=True, metavar="C,C,...")
    ei.add_argument("--t", type=_complex_arg, required=True)
    ei.add_argument("--p", type=_complex_arg, required=True)
    common(ei, nomes=False)

    ci = target.add_parser("C", help="recurrence coefficient C_r (ONE balancing)")
    ci.add_argument("--r", type=int, required=True)
    common(ci, params=True, balancing="one")

    jj = target.add_parser("J", help="closed-form product J")
    common(jj, params=True)

    cn = target.add_parser("c_n", help="evaluation constant c_n")
    cn.add_argument("--n", type=int, required=True)
    cn.add_argument("--t", type=_complex_arg, required=True)
    common(cn)

    return top


def _build_config(args) -> tuple[Config, list]:
    """The run's Config, the flags over its config file, and the keys the
    file assigns."""
    cfg, keys = Config(), []
    if getattr(args, "config", None):
        cfg, keys = load_config(args.config, cfg), _keys(args.config)
    overrides = {}
    for key in ("seed", "count", "tol", "grid"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "timing", None) is not None:
        overrides["timing"] = args.timing == "on"
    return cfg.replace(**overrides), keys


def _parameter_set(args, nomes: Nomes, mode: BalancingMode) -> ParameterSet:
    a = list(args.a)
    if args.a6 is not None:
        a.append(args.a6)
    if len(a) == 5:
        return ParameterSet.solved(args.n, args.t, a, nomes, mode)
    if len(a) == 6:
        return ParameterSet(
            args.n, args.t, tuple(a), balancing_mode=mode
        ).validate(nomes)
    raise EllSelbergError(
        f"expected 5 free parameters (plus optional --a6), got {len(a)}"
    )


def _da_parameters(args, nomes: Nomes) -> tuple:
    """The 2n+4 Dixon-Anderson parameters; the last is solved when 2n+3 are given."""
    a = list(args.a) + ([args.a6] if args.a6 is not None else [])
    if len(a) == 2 * args.n + 3:
        prod = 1.0 + 0.0j
        for v in a:
            prod *= v
        a.append(nomes.pq / prod)
    return tuple(a)


def _explicit_reports(args, cfg: Config) -> list:
    """One explicit parameter set through the scenario's index sweep."""
    name, nomes = args.scenario, Nomes(args.p, args.q)
    spec = scn.SCENARIOS[name]
    if spec.balancing is None:
        ps = _da_parameters(args, nomes)
    else:
        ps = _parameter_set(args, nomes, _MODES[args.balancing] if args.balancing else spec.balancing)
    return scn.cases(name, args.n, ps, nomes, cfg.tol, budget=cfg.grid, timing=cfg.timing)


def _sampled_reports(args, cfg: Config) -> list:
    """Sample at user-supplied nomes in the configured box, one row's sweep."""
    row = scn.Row(
        args.scenario,
        args.n if args.n is not None else 1,
        Nomes(args.p, args.q),
        mode=_MODES[args.balancing] if args.balancing else None,
        box=cfg.box,
        t=args.t,
    )
    return scn.run_row(row, cfg.seed, cfg.count, cfg.tol, budget=cfg.grid, timing=cfg.timing)


def _check_box_unused(cfg: Config) -> None:
    """Only sampled --p/--q runs read the box: a box key set elsewhere is an error."""
    keys = [name for name in cfg.box.field_names if getattr(cfg.box, name) != getattr(DEFAULT_BOX, name)]
    if keys:
        raise ConfigurationError(
            f"config key(s) {', '.join(keys)} set the sampling box, "
            "which only sampled runs (--p/--q without --a) use"
        )


# The kinds of verify run: explicit runs are given --a, sampled ones --p or
# --q, and suite runs neither.  Each kind requires the flags in _REQUIRES and
# reads every flag and config key but those in _UNREAD.  A scenario without
# a balancing reads neither --t nor --balancing, and --format and --timing
# (the key timing too) act only on a --report.
_SUITE, _SAMPLED, _EXPLICIT = "suite", "sampled (--p/--q)", "explicit (--a)"
_REQUIRES = {_SUITE: (), _SAMPLED: ("scenario", "p", "q"), _EXPLICIT: ("scenario", "n", "p", "q", "t")}
_UNREAD = {_SUITE: ("t", "balancing", "a6"), _SAMPLED: ("a6",), _EXPLICIT: ("seed", "count")}


def _usage_error(args, kind: str) -> str | None:
    """The usage error of a verify run of this kind: the first flag it
    requires that is missing, a rank below 1, else the first flag given
    that it does not read."""
    uncoupled = args.scenario is not None and scn.SCENARIOS[args.scenario].balancing is None
    for flag in _REQUIRES[kind]:
        if getattr(args, flag) is None and not (uncoupled and flag == "t"):
            return f"{kind} runs require --{flag}"
    if args.n is not None and args.n < 1:
        return f"--n must be at least 1, got {args.n}"
    for flag in [dest for dest in vars(args) if dest in getattr(args, "_given", ())]:
        if error := _unread(args, kind, flag, f"--{flag}"):
            return error
    return None


def _unread(args, kind: str, name: str, label: str) -> str | None:
    """The usage error of the flag or config key ``name``, shown as label,
    given to a verify run of this kind that does not read it."""
    uncoupled = args.scenario is not None and scn.SCENARIOS[args.scenario].balancing is None
    if name in _UNREAD[kind]:
        readers = [other for other in _UNREAD if name not in _UNREAD[other]]
        return f"{label} is read only by {' and '.join(readers)} runs"
    if uncoupled and name in ("t", "balancing"):
        return f"{label} is read only by scenarios with a balancing, which {args.scenario} has not"
    if name in ("format", "timing") and args.report is None:
        return f"{label} is read only by runs that write a --report"
    return None


def _print_reports(reports) -> None:
    for rep in reports:
        verdict = "PASS" if rep.passed else "FAIL"
        indices = "".join(
            f" {label}={val}"
            for label, val in (("k", rep.k), ("r", rep.r), ("i", rep.i))
            if val is not None
        )
        line = (
            f"{verdict} {rep.scenario} n={rep.n} seed={rep.seed_index}{indices} "
            f"rel_err={rep.rel_err:.3e} tol={rep.tol:.1e}"
        )
        if rep.detail and not rep.passed:
            line += f"  [{rep.detail}]"
        print(line)
    passed = sum(1 for rep in reports if rep.passed)
    print(f"{len(reports)} reports, {passed} passed, {len(reports) - passed} failed")


def _report_to(path: str, reports=None, fmt: str = "json") -> None:
    """Write reports to path in fmt; with reports None, only check that path
    can be written, leaving it as it was.  ConfigurationError where it cannot."""
    try:
        if reports is not None:
            write_report(reports, path, fmt)
        elif os.path.exists(path):
            open(path, "a").close()
        else:
            open(path, "w").close()
            os.remove(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot write report {path}: {exc.strerror or exc}") from exc


def _cmd_verify(args) -> int:
    cfg, keys = _build_config(args)
    kind = _EXPLICIT if args.a is not None else _SUITE if args.p is None and args.q is None else _SAMPLED
    if error := _usage_error(args, kind):
        print(error, file=sys.stderr)
        return 2
    if kind != _SAMPLED:
        _check_box_unused(cfg)
    for key in keys:
        if error := _unread(args, kind, key, f"config key {key}"):
            print(error, file=sys.stderr)
            return 2
    if args.report is not None:
        _report_to(args.report)
    if kind == _EXPLICIT:
        reports = _explicit_reports(args, cfg)
    elif kind == _SAMPLED:
        reports = _sampled_reports(args, cfg)
    else:
        reports = scn.run_suite(
            seed=cfg.seed,
            scenario=args.scenario,
            n=args.n,
            count=cfg.count,
            tol=cfg.tol,
            grid=cfg.grid,
            timing=cfg.timing,
        )
    _print_reports(reports)
    if args.report is not None:
        _report_to(args.report, reports, args.format)
        print(f"wrote {args.format} report to {args.report}")
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_eval(args) -> int:
    if args.target == "gamma":
        value = elliptic_gamma(args.u, Nomes(args.p, args.q))
    elif args.target == "theta":
        value = theta(args.u, args.p)
    elif args.target == "E":
        value = fundamental_invariant(args.r, args.a, args.b, list(args.z), args.t, args.p)
    elif args.target == "c_n":
        value = c_constant(args.n, Nomes(args.p, args.q), args.t)
    else:
        nomes = Nomes(args.p, args.q)
        ps = _parameter_set(args, nomes, _MODES[args.balancing])
        if args.target == "psi":
            if len(args.z) != ps.n:
                raise EllSelbergError(f"psi needs n={ps.n} z-values, got {len(args.z)}")
            value = psi(list(args.z), ps, nomes)
        elif args.target == "C":
            value = coefficient_c(args.r, ps, nomes)
        elif args.target == "J":
            value = j_closed(ps, nomes)
        else:
            raise EllSelbergError(f"unknown eval target {args.target!r}")
    print(format_complex(complex(value)))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_eval(args)
    except EllSelbergError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
