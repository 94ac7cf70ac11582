#!/usr/bin/env python3
"""Measure convergence orders of the product formulas on the two-spin model.

A k-term combination should scale like t^(2k+1); the slope of log(error)
against log(t) makes that visible directly. Points below double-precision
roundoff are dropped before fitting -- with enough cancellation the error
simply disappears into the floor, which is a feature of the method, not a
fit problem.
"""
import numpy as np

from mptrotter import (
    build_spin_hamiltonian,
    drop_floor,
    fit_order,
    hermitian_propagator,
    make_schedule,
    mp_operator,
    state_errors,
    total,
    trotterize,
)

decomp = build_spin_hamiltonian()
psi0 = np.array([np.sqrt(0.3), np.sqrt(0.7), 0.0, 0.0])


def exact_states(ts):
    """exp(-iHt) psi0 for a time or an array of times."""
    return hermitian_propagator(total(decomp), ts) @ psi0


# each term count gets the window where its error is clean of the floor
windows = {1: (0.05, 0.4), 2: (0.05, 0.4), 3: (0.3, 1.2), 4: (1.0, 3.0)}

print("multi-product state-error orders (theory: 2k + 1)")
for k, (lo, hi) in windows.items():
    sched = make_schedule("modified", a=1, k=k)
    ts = np.geomspace(lo, hi, 13)
    errs, _ = state_errors(exact_states(ts), mp_operator(decomp, ts, sched) @ psi0)
    kept_t, kept_e = drop_floor(ts, errs)
    slope = fit_order(kept_t, kept_e)
    print(f"  k = {k}  L = {sched.iterations}  window [{lo}, {hi}]"
          f"  slope = {slope:.3f}  ({len(kept_t)}/{len(ts)} points used)")

print()
print("plain second-order product, error vs iteration count at t = 10")
ls = [12, 24, 48, 96]
outputs = np.stack([trotterize(decomp, 10.0, l) @ psi0 for l in ls])
errs, _ = state_errors(exact_states(10.0), outputs)
print(f"  slope = {fit_order(ls, errs):.3f}  (theory -2)")
