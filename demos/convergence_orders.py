#!/usr/bin/env python3
"""Measure convergence orders of the product formulas on the two-spin model.

A k-term combination should scale like t^(2k+1); the slope of log(error)
against log(t) makes that visible directly. Points below double-precision
roundoff (the fixed ERROR_FLOOR, 1e-13) are dropped before fitting -- with
enough cancellation the error simply disappears into the floor, which is a
feature of the method, not a fit problem.
"""
import numpy as np

from mptrotter import SweepConfig, drop_floor, fit_order, run_sweep
from mptrotter.experiments import ERROR_FLOOR

# each term count gets the window where its error is clean of the floor
windows = {1: (0.05, 0.4), 2: (0.05, 0.4), 3: (0.3, 1.2), 4: (1.0, 3.0)}

print("multi-product state-error orders (theory: 2k + 1)")
for k, (lo, hi) in windows.items():
    cfg = SweepConfig(t_grid=tuple(np.geomspace(lo, hi, 13)),
                      algorithms=(f"mp:modified:1,{k}",))
    kept_t, kept_e = drop_floor(cfg.t_grid, run_sweep(cfg).state_error, ERROR_FLOOR)
    slope = fit_order(kept_t, kept_e)
    print(f"  k = {k}  L = {cfg.specs[0].iterations}  window [{lo}, {hi}]"
          f"  slope = {slope:.3f}  ({len(kept_t)}/{len(cfg.t_grid)} points used)")

print()
print("plain second-order product, error vs iteration count at t = 10")
ls = [12, 24, 48, 96]
cfg = SweepConfig(t_grid=(10.0,), algorithms=tuple(f"trotter:{l}" for l in ls))
print(f"  slope = {fit_order(ls, run_sweep(cfg).state_error):.3f}  (theory -2)")
