"""Command-line front end.

Subcommands:
    coeffs   - print a schedule's combination coefficients and what they imply
               for the post-selection probability
    evolve   - one (time, algorithm) cell of a sweep, human-readable
    sweep    - full sweep to CSV or JSON
    scaling  - fitted convergence order of the multi-product state error

All domain rejections exit nonzero after a single diagnostic line on stderr.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

import numpy as np

from .experiments import (
    COLUMNS,
    ERROR_CEILING,
    SweepConfig,
    cell_text,
    check_format,
    drop_floor,
    emit,
    fit_order,
    load_config,
    parse_schedule_spec,
    read_number,
    run_sweep,
    sweep_states,
)
from .lcu import predicted_probability
from .linalg import check_count
from .multiproduct import state_errors


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mptrotter",
        description="Multi-product Trotter simulation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="combination coefficients of a schedule")
    p.add_argument("--schedule", required=True,
                   help="modified:a,k | original:gamma,k | comma-separated list")

    p = sub.add_parser("evolve", help="evolve the configured state at one time")
    p.add_argument("--config", default=None, help="JSON config file (optional)")
    p.add_argument("--algo", required=True,
                   help="exact | trotter:<l> | mp:<schedule> | mp_oaa:<schedule>[:<rounds>]")
    p.add_argument("--t", required=True, help="evolution time")

    p = sub.add_parser("sweep", help="run the full time sweep")
    p.add_argument("--config", default=None, help="JSON config file (optional)")
    p.add_argument("--out", default=None, help="output path")
    p.add_argument("--format", default="csv", help="csv or json")

    p = sub.add_parser("scaling", help="fit the state-error convergence order")
    p.add_argument("--config", default=None, help="JSON config file (optional)")
    p.add_argument("--k", required=True, help="number of product terms")
    p.add_argument("--tmin", default="0.05")
    p.add_argument("--tmax", default="0.4")
    p.add_argument("--points", default="13")
    p.add_argument("--floor", default=None,
                   help="drop errors at or below this before fitting "
                        "(default: the schedule's roundoff floor)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call to `main`."""
    return build_parser()


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_numbers(argv: list[str]) -> list[str]:
    """argv with each `--option value` pair whose value is a negative number
    written as the one token `--option=value`.

    Before Python 3.13, argparse reads a token that starts with '-' as an
    option unless it looks like -5 or -.5, so `--t -1e-3` and `--floor -inf`
    were usage errors while `--t -0.001` ran. Every option takes at most one
    value and no command has positional arguments, so such a token after an
    option can only be its value.
    """
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev and arg.startswith("-")
                and _is_number(arg)):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def _numbers(args, kind, *names) -> list:
    """The values of the options `names` of args, each read by `read_number` as kind
    (float or int), so a malformed one is a domain error naming the option, not an
    argparse usage message; an option left out without a default stays None."""
    return [None if (text := getattr(args, name)) is None else read_number(text, name, kind)
            for name in names]


def _cmd_coeffs(args) -> int:
    sched = parse_schedule_spec(args.schedule)
    print(f"schedule: {args.schedule.strip()}  L = {', '.join(map(str, sched.iterations))}")
    print(" q  L(q)             c_q")
    for q, (l, c) in enumerate(zip(sched.iterations, sched.coefficients), start=1):
        # a product of nonzero factors is never 0: a 0 or subnormal c_q has underflowed
        tiny = abs(c) < sys.float_info.min
        print(f"{q:2d}  {l:4d}  " + (" underflowed, below 2.2e-308" if tiny else f"{c: .12e}"))
    prob = sched.ideal_success_probability()
    print(f"sum c_q = {sum(sched.coefficients):.12g}")
    print(f"sum |c_q| = {sched.abs_coefficient_sum():.12g}")
    print(f"success probability 1/(sum|c_q|)^2 = {prob:.12g}")
    print(f"one-round amplified probability = {predicted_probability(prob, 1):.12g}")
    return 0


def _cmd_evolve(args) -> int:
    config = load_config(args.config) if args.config else SweepConfig()
    (t,) = _numbers(args, float, "t")
    table = run_sweep(replace(config, t_grid=(t,), algorithms=(args.algo,)))
    # time and algorithm share the first line; NaN cells are left out
    lines = [f"{name} = {cell_text(cell)}"
             for name, (cell,) in zip(COLUMNS, table.columns()) if cell == cell]
    print("  ".join(lines[:2]))
    print("\n".join(lines[2:]))
    if table.degenerate[0]:
        print("degenerate post-selection: populations undefined")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config) if args.config else SweepConfig()
    if not args.out:
        raise ValueError("no output path: pass --out")
    check_format(args.format)  # before the sweep, not after it
    table = run_sweep(config)
    emit(table, args.format, args.out)
    print(f"wrote {len(table)} rows to {args.out} ({args.format})")
    return 0


def _cmd_scaling(args) -> int:
    config = load_config(args.config) if args.config else SweepConfig()
    k, points = _numbers(args, int, "k", "points")
    tmin, tmax, floor = _numbers(args, float, "tmin", "tmax", "floor")
    points = check_count(points, "points", 4, most=sys.maxsize)
    for name, value in (("tmin", tmin), ("tmax", tmax)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (0 < tmin < tmax):
        raise ValueError(f"need 0 < tmin < tmax, got {tmin}, {tmax}")
    if floor is not None and not 0 <= floor < np.inf:  # NaN fails
        raise ValueError(f"floor must be a finite nonnegative number, got {floor}")
    ts = np.geomspace(tmin, tmax, points)
    config = replace(config, t_grid=tuple(ts), algorithms=(f"mp:modified:1,{k}",))
    schedule = config.specs[0].schedule
    if floor is None:
        floor = schedule.roundoff_floor()
    if not floor < 2:  # no state error exceeds 2, the distance of antipodal unit vectors
        raise ValueError(f"floor {floor:g} is at least 2, the largest state error, so no "
                         "point can rise above it; use fewer terms or a lower --floor")
    exact, (kept,) = sweep_states(config)
    errs, _ = state_errors(exact, kept)
    kept_t, kept_e = drop_floor(ts, errs, floor)
    print(f"schedule L = {schedule.iterations}, {len(kept_t)}/{len(ts)} points "
          f"above floor {floor:g} before the first error >= {ERROR_CEILING:g}")
    if len(kept_t) < 4:
        if (errs >= ERROR_CEILING).any():
            raise ValueError(
                "fewer than 4 points above the numerical floor before the error "
                f"saturates at {ERROR_CEILING:g}; move [tmin, tmax] to smaller times"
            )
        raise ValueError(
            "fewer than 4 points above the numerical floor; the error is too small "
            "to measure in double precision on this window, widen [tmin, tmax]"
        )
    slope = fit_order(kept_t, kept_e)
    if not slope > 0:  # truncation error grows with t; a flat or falling one is roundoff
        raise ValueError(
            f"fitted order {slope:.6g} is not positive; the error on this window is "
            "roundoff, not truncation error, move [tmin, tmax] to larger times"
        )
    print(f"fitted order = {slope:.6g}")
    return 0


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "scaling": _cmd_scaling,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_attach_negative_numbers(argv))
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
