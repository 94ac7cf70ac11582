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
import dataclasses
import sys

import numpy as np

from .experiments import (
    COLUMNS,
    ERROR_FLOOR,
    SweepConfig,
    cell_text,
    drop_floor,
    emit,
    fit_order,
    load_config,
    parse_schedule_spec,
    run_sweep,
    sweep_states,
)
from .lcu import predicted_probability
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
    p.add_argument("--t", required=True, type=float, help="evolution time")

    p = sub.add_parser("sweep", help="run the full time sweep")
    p.add_argument("--config", default=None, help="JSON config file (optional)")
    p.add_argument("--out", default=None, help="output path (overrides config)")
    p.add_argument("--format", default=None, choices=("csv", "json"),
                   help="output format (overrides config)")

    p = sub.add_parser("scaling", help="fit the state-error convergence order")
    p.add_argument("--config", default=None, help="JSON config file (optional)")
    p.add_argument("--k", required=True, type=int, help="number of product terms")
    p.add_argument("--tmin", type=float, default=0.05)
    p.add_argument("--tmax", type=float, default=0.4)
    p.add_argument("--points", type=int, default=13)
    p.add_argument("--floor", type=float, default=ERROR_FLOOR,
                   help="drop errors at or below this before fitting")
    return parser


def _config(path: str | None) -> SweepConfig:
    return load_config(path) if path else SweepConfig()


def _cmd_coeffs(args) -> int:
    sched = parse_schedule_spec(args.schedule)
    label = sched.kind if sched.param is None else f"{sched.kind}({sched.param:g})"
    print(f"schedule: kind={label}  L = {', '.join(str(l) for l in sched.iterations)}")
    print(" q  L(q)             c_q")
    for q, (l, c) in enumerate(zip(sched.iterations, sched.coefficients), start=1):
        print(f"{q:2d}  {l:4d}  {c: .12e}")
    prob = sched.ideal_success_probability()
    print(f"sum c_q = {sum(sched.coefficients):.12g}")
    print(f"sum |c_q| = {sched.abs_coefficient_sum():.12g}")
    print(f"success probability 1/(sum|c_q|)^2 = {prob:.12g}")
    print(f"one-round amplified probability = {predicted_probability(prob, 1):.12g}")
    return 0


def _cmd_evolve(args) -> int:
    config = _config(args.config)
    one = SweepConfig(model=config.model, initial_state=config.initial_state,
                      t_grid=(args.t,), algorithms=(args.algo,),
                      oaa_rounds=config.oaa_rounds)
    row = run_sweep(one)[0]
    # time and algorithm share the first line; missing cells are left out
    lines = [f"{name} = {cell_text(cell)}"
             for name, cell in zip(COLUMNS, row.cells()) if cell is not None]
    print("  ".join(lines[:2]))
    print("\n".join(lines[2:]))
    if row.degenerate:
        print("degenerate post-selection: populations undefined")
    return 0


def _cmd_sweep(args) -> int:
    config = _config(args.config)
    out = args.out or config.output_path
    if not out:
        raise ValueError("no output path: pass --out or set 'output' in the config")
    fmt = args.format or config.format
    rows = run_sweep(config)
    emit(rows, fmt, out)
    print(f"wrote {len(rows)} rows to {out} ({fmt})")
    return 0


def _cmd_scaling(args) -> int:
    config = _config(args.config)
    if args.points < 4:
        raise ValueError(f"need at least 4 points, got {args.points}")
    if not (0 < args.tmin < args.tmax):
        raise ValueError(f"need 0 < tmin < tmax, got {args.tmin}, {args.tmax}")
    ts = np.geomspace(args.tmin, args.tmax, args.points)
    config = dataclasses.replace(config, algorithms=(f"mp:modified:1,{args.k}",),
                                 t_grid=tuple(ts))
    exact, (kept,) = sweep_states(config)
    errs, _ = state_errors(exact, kept)
    kept_t, kept_e = drop_floor(ts, errs, args.floor)
    print(f"schedule L = {config.specs[0].iterations}, {len(kept_t)}/{len(ts)} points "
          f"above floor {args.floor:g}")
    if len(kept_t) < 4:
        raise ValueError(
            "fewer than 4 points above the numerical floor; the error is too small "
            "to measure in double precision on this window, widen [tmin, tmax]"
        )
    slope = fit_order(kept_t, kept_e)
    print(f"fitted order = {slope:.6g}")
    return 0


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "scaling": _cmd_scaling,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
