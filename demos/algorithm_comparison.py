#!/usr/bin/env python3
# Three ways to spend roughly one hundred Trotter steps, compared at long
# times. The iterated product uses all its steps on one branch; the two
# multi-product schedules split theirs across branches and cancel error
# terms instead. The geometric split wins everywhere.
from mptrotter import SweepConfig, run_sweep

ALGOS = (
    "trotter:96",        # plain iterated product
    "mp:1,2,3,96",       # ramp plus one deep branch
    "mp:modified:2,4",   # geometric 4, 8, 16, 32
)

cfg = SweepConfig(t_grid=tuple(float(t) for t in (5, 10, 15, 20, 25, 30)),
                  algorithms=ALGOS)
table = run_sweep(cfg)

print("state error against exact evolution")
print("   t   trotter:96     mp:1,2,3,96    mp:modified:2,4")
for t in cfg.t_grid:
    errs = table.state_error[table.t == t]
    print(f"  {t:4.0f}  {errs[0]:.6e}   {errs[1]:.6e}   {errs[2]:.6e}")

print()
print("the same rows, classical fidelity of the populations")
for t in cfg.t_grid:
    fids = table.fidelity[table.t == t]
    print(f"  t = {t:4.0f}   " + "   ".join(f"{f:.9f}" for f in fids))
