"""Command-line front end: analysis, simulation, comparison, sweeps, tuning.

Every command reads a scenario from ``--config`` and emits CSV (stdout or
``--out``); human-readable progress goes to stderr so the CSV stream stays
clean.  Exit codes: 0 success, 2 bad configuration or arguments, 3 numerical
or placement failure.

``main`` does all of the I/O: it parses the arguments, reads and validates
the config, resolves the seed, calls the command, writes the CSV and maps
errors to exit codes.  A command ``cmd_*(config, seed, args)`` returns
``(header, rows)``; its stderr status lines are its only side effect.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import operator
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction

from . import analytic, mc, scenario
from .geometry import PlacementError
from .scenario import ConfigError
from .specfun import NumericalError

__all__ = ["main", "SEED_ENV_VAR", "DEFAULT_SEED"]

SEED_ENV_VAR = "SWARMREL_SEED"
DEFAULT_SEED = 20210
DEFAULT_TRIALS = 20_000

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SWEEPABLE = (
    "message_bits",
    "swarm_radius_m",
    "swarm_altitude_m",
    "tau_phase1_s",
    "n_uavs",
    "m_available",
    "m_occupied",
    "rounds",
)
_INT_VARS = scenario.INT_FIELDS | {"rounds"}
# the most points of a range grid: at about 1 ms each, a million take a quarter hour
MAX_GRID_POINTS = 1_000_000


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return DEFAULT_SEED
    try:
        return _uint64(env)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"{SEED_ENV_VAR}: {exc}")


def _uint64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _protocol_for(args) -> mc.Protocol:
    if args.protocol == "multi_round":
        rounds = 1 if args.rounds is None else args.rounds
        return mc.multi_round(rounds, with_head=not args.no_head)
    if args.rounds is not None or args.no_head:
        option = "--rounds" if args.rounds is not None else "--no-head"
        raise ConfigError(f"{option}: only --protocol multi_round takes it, not {args.protocol}")
    return mc.PROTOCOLS[args.protocol]


# --- commands -----------------------------------------------------------------

_ANALYZE_HEADER = [
    "engine",
    "protocol",
    "trials",
    "seed",
    "p_head",
    "p_member",
    "expected_phase1",
    "k_effective",
    "p_phase2",
    "eta",
    "one_minus_eta",
    "std_err",
    "in_regime",
]
_EST_HEADER = ["engine", "protocol", "trials", "seed", "eta", "one_minus_eta", "std_err"]


def cmd_analyze(config, seed, args):
    br = analytic.reliability(config)
    _status(
        f"p_head={br.p_head:.6f} p_member={br.p_member:.6f} "
        f"expected_phase1={br.expected_phase1:.4f} k_effective={br.k_effective:.4f} "
        f"p_phase2={br.p_phase2:.6f} eta={br.eta:.6f} in_regime={br.in_regime}"
    )
    if not br.in_regime:
        _status("warning: fewer than one expected decoder after the cellular stage; "
                "the relay-stage approximation is out of its regime")
    row = [
        "analytic",
        "proposed",
        "",
        seed,
        br.p_head,
        br.p_member,
        br.expected_phase1,
        br.k_effective,
        "" if math.isnan(br.p_phase2) else br.p_phase2,
        br.eta,
        1.0 - br.eta,
        "",
        int(br.in_regime),
    ]
    return _ANALYZE_HEADER, [row]


def _mc_row(est, protocol) -> list:
    _status(f"{protocol.label}: eta={est.eta_mean:.6f} std_err={est.std_err:.2e}")
    std_err = "" if math.isnan(est.std_err) else est.std_err
    return ["mc", protocol.label, est.trials, est.seed, est.eta_mean, 1.0 - est.eta_mean, std_err]


def cmd_simulate(config, seed, args, protocols=None):
    """The MC row of each of ``protocols`` (default ``--protocol``), all on one draw per chunk."""
    protocols = protocols or [_protocol_for(args)]
    curves = mc.estimate_variants([(config, p) for p in protocols], args.trials, seed,
                                  workers=args.workers)
    return _EST_HEADER, [_mc_row(curve[-1], p) for curve, p in zip(curves, protocols)]


def cmd_compare(config, seed, args):
    return cmd_simulate(config, seed, args, protocols=list(mc.PROTOCOLS.values()))


_SWEEP_HEADER = ["variable", "value", *_EST_HEADER]


def _parse_values(args) -> tuple:
    """The --values list, or the --start/--stop/--step grid: point i is start + i step,
    exact in the decimals given and rounded once (0.0003, not 0.00030000000000000003)."""
    kind = int if args.var in _INT_VARS else float
    if args.values is not None:
        parts = [p for p in args.values.split(",") if p.strip()]
        if not parts:
            raise ConfigError("values: must be non-empty")
        try:
            return tuple(kind(p) for p in parts)
        except ValueError:
            raise ConfigError(f"values: cannot parse {args.values!r} as {kind.__name__}s "
                              f"for {args.var}")
    if args.start is None or args.stop is None or args.step is None:
        raise ConfigError("values: give either --values or all of --start/--stop/--step")
    if not all(map(math.isfinite, (args.start, args.stop, args.step))):
        raise ConfigError("start/stop/step: must be finite")
    if args.step <= 0:
        raise ConfigError(f"step: must be > 0, got {args.step}")
    for name, value in (("start", args.start), ("step", args.step)):
        if kind is int and not value.is_integer():
            raise ConfigError(f"{name}: must be a whole number for {args.var}, got {value}")
    start, stop, step = (Fraction(repr(v)) for v in (args.start, args.stop, args.step))
    count = (stop - start) // step + 1
    if count < 1:
        raise ConfigError("values: empty grid")
    # point i is (a + i b) / D over the common denominator D: integer true
    # division rounds once, correctly, as a Fraction's float does, at a
    # fraction of its cost; a whole-number grid has D = 1
    denominator = math.lcm(start.denominator, step.denominator)
    a, b = (int(v * denominator) for v in (start, step))
    divide = operator.floordiv if kind is int else operator.truediv

    def point(i):
        return divide(a + i * b, denominator)

    # the float spacing is coarsest at an end of the grid
    if count > 1 and (point(1) == point(0) or point(count - 1) == point(count - 2)):
        raise ConfigError(f"step: {args.step} is below the float spacing of the grid")
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"step: {args.step} gives {count} grid points, "
                          f"more than {MAX_GRID_POINTS:,}")
    return tuple(point(i) for i in range(count))


def _sweep_rows(config, args, values, engines, protocol, seed) -> list:
    variants = [(config, mc.multi_round(value, protocol.with_head)) if args.var == "rounds" else
                (scenario.validate(replace(config, **{args.var: value})), protocol)
                for value in values]
    curves = (mc.estimate_variants(variants, args.trials, seed, workers=args.workers)
              if "mc" in engines else [None] * len(values))
    rows = []
    for value, (point, row_protocol), curve in zip(values, variants, curves):
        for engine in engines:
            if engine == "analytic":
                eta = analytic.reliability(point).eta
                cells = ["analytic", "proposed", "", seed, eta, 1.0 - eta, ""]
            else:
                cells = _mc_row(curve[-1], row_protocol)
            rows.append([args.var, value, *cells])
        _status(f"{args.var}={value}: done")
    return rows


def cmd_sweep(config, seed, args):
    engines = ("analytic", "mc") if args.engine == "both" else (args.engine,)
    protocol = _protocol_for(args)
    values = _parse_values(args)
    if args.var == "rounds" and args.protocol != "multi_round":
        raise ConfigError("variable 'rounds' requires --protocol multi_round")
    if args.var == "rounds" and args.rounds is not None:
        raise ConfigError("--rounds: a sweep over rounds takes its round counts from the values")
    if "analytic" in engines and protocol != mc.PROPOSED:
        raise ConfigError("the analytic engine models the proposed two-phase protocol only")
    return _SWEEP_HEADER, _sweep_rows(config, args, values, engines, protocol, seed)


_OPT_HEADER = _SWEEP_HEADER + ["is_best"]


def cmd_optimize_tau(config, seed, args):
    """The tau_phase1_s sweep of the proposed protocol, plus its argmax."""
    values = _parse_values(args)
    rows = _sweep_rows(config, args, values, (args.engine,), mc.PROPOSED, seed)
    etas = [row[6] for row in rows]
    # the grid ascends, so the first maximum breaks ties toward the smaller
    # split (longer relay stage)
    best = etas.index(max(etas))
    for i, row in enumerate(rows):
        row.append(int(i == best))
    _status(f"best tau_phase1_s={values[best]!r} (eta={etas[best]:.6f})")
    return _OPT_HEADER, rows


_DIST_HEADER = ["k", "probability", "trials", "seed"]


def cmd_dist_k(config, seed, args):
    dist = mc.phase1_count_distribution(config, args.trials, seed, workers=args.workers)
    _status(
        f"mean={dist.mean_count:.4f} mode={dist.mode} "
        f"std_err={dist.std_err_count:.4f} trials={dist.trials}"
    )
    return _DIST_HEADER, [[k, float(p), dist.trials, dist.seed] for k, p in enumerate(dist.pmf)]


# --- argument parsing -----------------------------------------------------------


def _add_command(sub, name, func, summary, trials=True):
    """Subcommand ``name`` running ``func``, with the options every command takes."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(func=func)
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--seed", type=_uint64, default=None,
                   help=f"rng seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    if trials:
        p.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS,
                       help="Monte Carlo trials")
        p.add_argument("--workers", type=_positive_int, default=1, help="worker processes")
    return p


def _add_protocol(p):
    """The --protocol/--rounds/--no-head options of simulate and sweep."""
    p.add_argument("--protocol", default="proposed", choices=[*mc.PROTOCOLS, "multi_round"])
    p.add_argument("--rounds", type=int, help="relay rounds (multi_round, default 1)")
    p.add_argument("--no-head", action="store_true",
                   help="multi_round without the head's pilot weighting")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="swarmrel",
        description="Reliability of two-phase (cellular + D2D relay) delivery to a UAV swarm",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "analyze", cmd_analyze, "closed-form reliability breakdown", trials=False)
    _add_protocol(_add_command(sub, "simulate", cmd_simulate, "Monte Carlo reliability estimate"))
    _add_command(sub, "compare", cmd_compare, "all protocols on one scenario")

    p = _add_command(sub, "sweep", cmd_sweep, "sweep one variable")
    p.add_argument("--var", required=True, choices=SWEEPABLE)
    p.add_argument("--values", default=None, help="comma-separated values")
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--engine", default="both", choices=("analytic", "mc", "both"))
    _add_protocol(p)

    p = _add_command(sub, "optimize-tau", cmd_optimize_tau, "grid search the stage-split time")
    p.add_argument("--start", type=float, required=True, help="first tau_phase1_s (s)")
    p.add_argument("--stop", type=float, required=True, help="last tau_phase1_s (s)")
    p.add_argument("--step", type=float, required=True, help="grid step (s)")
    p.add_argument("--engine", default="analytic", choices=("analytic", "mc"))
    p.set_defaults(var="tau_phase1_s", values=None)

    _add_command(sub, "dist-k", cmd_dist_k, "histogram of cellular-stage decoder count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a config error is reported before a seed error
        config = scenario.validate(scenario.read_config(args.config))
        header, rows = args.func(config, _resolve_seed(args), args)
        to_file = args.out not in (None, "-")
        with (open(args.out, "w", newline="", encoding="utf-8") if to_file
              else nullcontext(sys.stdout)) as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_fmt(cell) for cell in row] for row in rows)
        return 0
    except (ConfigError, OSError) as exc:
        # an OSError names its path
        _status(f"config error: {exc}")
        return EXIT_CONFIG
    except UnicodeDecodeError as exc:
        # the one file read as text is the config
        _status(f"config error: {args.config}: {exc}")
        return EXIT_CONFIG
    except MemoryError as exc:
        # the run's arrays grow with the trials and the relay rounds
        _status(f"config error: the run does not fit in memory, lower --trials or --rounds: {exc}")
        return EXIT_CONFIG
    except (NumericalError, PlacementError) as exc:
        _status(f"numerical error: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
