"""Experiment driver: time sweeps over algorithms, fidelities, CSV/JSON output.

A sweep evolves one initial state of the two-spin model under several
algorithms over a time grid and records, per (t, algorithm): the post-selected
populations, the post-selection success probability, the state error against
exact evolution, and the classical fidelity of the population distributions.
Everything is deterministic: the same config yields byte-identical output.

Algorithm specs are strings:

    exact                    eigendecomposition propagator
    trotter:<l>              iterated second-order product, l iterations
    mp:<schedule>            multi-product via the simulated LCU circuit
    mp_oaa:<schedule>[:<n>]  same, followed by n amplification rounds

and schedules are "modified:a,k", "original:gamma,k", or an explicit
comma-separated list like "1,2,3,96".
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .hamiltonian import DEFAULT_PARAMS, SpinModelParams, build_spin_hamiltonian, total
from .lcu import amplify, optimal_split
from .linalg import hermitian_propagator, weighted_sum
from .multiproduct import MpSchedule, make_schedule, state_errors
from .trotter import products

# State errors at or below this are indistinguishable from double-precision
# roundoff for the problem sizes here; order fits must drop such points.
ERROR_FLOOR = 1e-13

DEFAULT_ALGORITHMS = ("exact", "trotter:96", "mp:modified:2,4", "mp_oaa:modified:2,4:1")


def default_t_grid() -> tuple[float, ...]:
    """61 integer-spaced times covering [0, 60]."""
    return tuple(float(t) for t in np.linspace(0.0, 60.0, 61))


def parse_schedule_spec(text: str) -> MpSchedule:
    """Schedule from its CLI/config spelling."""
    text = text.strip()
    if text.startswith("modified:"):
        body = text[len("modified:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"modified schedule spec needs 'modified:a,k', got {text!r}")
        return make_schedule("modified", a=_as_int(parts[0], "a"), k=_as_int(parts[1], "k"))
    if text.startswith("original:"):
        body = text[len("original:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"original schedule spec needs 'original:gamma,k', got {text!r}")
        try:
            gamma = float(parts[0])
        except ValueError:
            raise ValueError(f"gamma must be a real number, got {parts[0]!r}") from None
        return make_schedule("original", gamma=gamma, k=_as_int(parts[1], "k"))
    return make_schedule("explicit",
                         iterations=[_as_int(p, "iteration count") for p in text.split(",")])


def _as_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text.strip()!r}") from None


@dataclass(frozen=True)
class AlgorithmSpec:
    spec: str
    kind: str                       # exact | trotter | mp | mp_oaa
    l: int | None = None
    schedule: MpSchedule | None = None
    rounds: int = 0

    @property
    def iterations(self) -> tuple[int, ...]:
        """Iteration counts of the Trotter products this algorithm combines."""
        if self.kind == "trotter":
            return (self.l,)
        return self.schedule.iterations if self.schedule else ()


def parse_algorithm(spec: str, default_rounds: int = 1) -> AlgorithmSpec:
    s = spec.strip()
    if s == "exact":
        return AlgorithmSpec(spec=s, kind="exact")
    if s.startswith("trotter:"):
        l = _as_int(s[len("trotter:"):], "iteration count")
        if l < 1:
            raise ValueError(f"iteration count must be positive, got {l}")
        return AlgorithmSpec(spec=s, kind="trotter", l=l)
    if s.startswith("mp_oaa:"):
        body = s[len("mp_oaa:"):]
        # the whole body may be a schedule (round count defaulted), else the
        # last :-field is the round count
        try:
            return AlgorithmSpec(spec=s, kind="mp_oaa",
                                 schedule=parse_schedule_spec(body),
                                 rounds=default_rounds)
        except ValueError:
            head, sep, tail = body.rpartition(":")
            if not sep:
                raise
        rounds = _as_int(tail, "round count")
        if rounds < 0:
            raise ValueError(f"round count must be nonnegative, got {rounds}")
        return AlgorithmSpec(spec=s, kind="mp_oaa",
                             schedule=parse_schedule_spec(head), rounds=rounds)
    if s.startswith("mp:"):
        return AlgorithmSpec(spec=s, kind="mp", schedule=parse_schedule_spec(s[len("mp:"):]))
    raise ValueError(
        f"unknown algorithm {spec!r}; expected exact, trotter:<l>, mp:<schedule>, "
        f"or mp_oaa:<schedule>[:<rounds>]"
    )


@dataclass(frozen=True)
class SweepConfig:
    model: SpinModelParams = DEFAULT_PARAMS
    initial_state: tuple[complex, ...] = ()
    t_grid: tuple[float, ...] = ()
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    oaa_rounds: int = 1
    output_path: str | None = None
    format: str = "csv"
    specs: tuple[AlgorithmSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        state = tuple(complex(a) for a in self.initial_state) or (
            complex(np.sqrt(0.3)), complex(np.sqrt(0.7)), 0j, 0j)
        if len(state) != 4:
            raise ValueError(f"initial state needs 4 amplitudes, got {len(state)}")
        nrm = float(np.linalg.norm(np.asarray(state)))
        if not abs(nrm - 1.0) <= 1e-9:  # NaN fails
            raise ValueError(f"initial state is not normalized: ||psi|| = {nrm!r}")
        grid = tuple(float(t) for t in self.t_grid) or default_t_grid()
        if not all(np.isfinite(grid)):
            raise ValueError("time grid entries must be finite")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if int(self.oaa_rounds) != self.oaa_rounds or self.oaa_rounds < 0:
            raise ValueError(f"oaa_rounds must be a nonnegative integer, got {self.oaa_rounds!r}")
        object.__setattr__(self, "specs",
                           tuple(parse_algorithm(s, self.oaa_rounds) for s in self.algorithms))
        object.__setattr__(self, "initial_state", state)
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "algorithms", tuple(self.algorithms))


class SweepRow(NamedTuple):
    """One (t, algorithm) result of a sweep.

    The fields before `degenerate` are the output columns, in order. A
    degenerate row has None populations and fidelity and a NaN state error.
    """

    t: float
    algo: str
    p00: float | None
    p01: float | None
    p10: float | None
    p11: float | None
    success_prob: float
    state_error: float
    fidelity: float | None
    degenerate: bool = False

    def cells(self) -> list:
        """The output columns in order, None where a value is None or NaN."""
        return [None if v != v else v for v in self[:len(COLUMNS)]]  # NaN != NaN


COLUMNS = SweepRow._fields[:SweepRow._fields.index("degenerate")]
CSV_HEADER = ",".join(COLUMNS)


CONFIG_KEYS = ("omega", "delta", "e1", "e2", "initial_state", "t_grid",
               "algorithms", "oaa_rounds", "output", "format")


def _parse_amplitude(entry) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2 \
            and all(isinstance(x, (int, float)) for x in entry):
        return complex(entry[0], entry[1])
    raise ValueError(f"amplitudes must be numbers or [re, im] pairs, got {entry!r}")


def _config_value(raw: dict, key: str, default, types: tuple, what: str):
    """raw[key] (or the default), rejected unless an instance of types.

    JSON true/false never pass as numbers.
    """
    val = raw.get(key, default)
    if isinstance(val, bool) or not isinstance(val, types):
        raise ValueError(f"config key {key!r} must be {what}, got {val!r}")
    return val


def _real(val, what: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError(f"{what} must be a number, got {val!r}")
    return float(val)


def load_config(path) -> SweepConfig:
    """Read a flat JSON config; unknown keys are rejected, known ones optional.

    Every value is type-checked, so a malformed config fails with a
    ValueError naming the key rather than a TypeError deeper down.
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; allowed: {list(CONFIG_KEYS)}")
    model = SpinModelParams(**{
        name: _real(raw.get(name, getattr(DEFAULT_PARAMS, name)), f"config key {name!r}")
        for name in ("omega", "delta", "e1", "e2")
    })
    state = tuple(_parse_amplitude(a)
                  for a in _config_value(raw, "initial_state", [], (list,), "a list"))
    grid = tuple(_real(t, "every t_grid entry")
                 for t in _config_value(raw, "t_grid", [], (list,), "a list"))
    algorithms = _config_value(raw, "algorithms", list(DEFAULT_ALGORITHMS), (list,), "a list")
    if not all(isinstance(a, str) for a in algorithms):
        raise ValueError(f"config key 'algorithms' must list strings, got {algorithms!r}")
    return SweepConfig(
        model=model,
        initial_state=state,
        t_grid=grid,
        algorithms=tuple(algorithms),
        oaa_rounds=_config_value(raw, "oaa_rounds", 1, (int,), "an integer"),
        output_path=_config_value(raw, "output", None, (str, type(None)), "a path string"),
        format=_config_value(raw, "format", "csv", (str,), "a string"),
    )


def classical_fidelity(p, q):
    """Bhattacharyya-type overlap (sum_i sqrt(p_i q_i))^2 of two distributions.

    Inputs must be elementwise nonnegative and each sum to 1 within 1e-9;
    the result is symmetric, 1 exactly when p = q, 0 on disjoint support.
    Batched over the last axis: 1-d inputs give a float, (T, n) inputs an
    array of T overlaps, and one bad row rejects the batch.
    """
    a = np.atleast_1d(np.asarray(p, dtype=float))
    b = np.atleast_1d(np.asarray(q, dtype=float))
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"distributions differ in length: {a.shape[-1]} vs {b.shape[-1]}")
    for name, v in (("p", a), ("q", b)):
        if np.any(v < -1e-12):
            raise ValueError(f"{name} has negative entries")
        tot = v.sum(axis=-1)
        bad = ~(np.abs(tot - 1.0) <= 1e-9)  # NaN fails
        if np.any(bad):
            raise ValueError(f"{name} is not normalized: sum = {float(tot[bad].flat[0])!r}")
    root = np.sum(np.sqrt(np.clip(a, 0.0, None) * np.clip(b, 0.0, None)), axis=-1)
    fid = np.minimum(root * root, 1.0)
    return float(fid) if fid.ndim == 0 else fid


def _outputs(algo: AlgorithmSpec, psi0, exact, stacks) -> np.ndarray:
    """Unnormalized kept states of one algorithm at every time, (T, d).

    stacks maps each iteration count to its (T, d, d) stack of Trotter
    products.
    """
    if algo.kind == "exact":
        return exact
    if algo.kind == "trotter":
        return stacks[algo.l] @ psi0
    m, m_prime = optimal_split(algo.schedule.coefficients)
    block = weighted_sum(m * m_prime, [stacks[l] for l in algo.schedule.iterations])
    return amplify(block, psi0, algo.rounds)


def sweep_states(config: SweepConfig) -> tuple[np.ndarray, list[np.ndarray]]:
    """(exact, outputs): the exact states and each algorithm's kept states.

    exact is (T, d) over the time grid, and outputs holds one unnormalized
    (T, d) array per algorithm, in config order. H is diagonalized once per
    run, each distinct Trotter product is one (T, d, d) stack shared by the
    algorithms that use it, and each multi-product algorithm runs its circuit
    block through one stacked amplification.
    """
    decomp = build_spin_hamiltonian(config.model)
    psi0 = np.asarray(config.initial_state, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    ts = np.asarray(config.t_grid)
    exact = hermitian_propagator(total(decomp), ts) @ psi0
    stacks = {l: products(decomp, ts, l)
              for l in sorted({l for a in config.specs for l in a.iterations})}
    return exact, [_outputs(algo, psi0, exact, stacks) for algo in config.specs]


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """All (t, algorithm) rows of the sweep, grid-major, algorithms in config order.

    The states come from `sweep_states`; kept branches that `state_errors`
    flags as vanishing give degenerate rows.
    """
    exact, outputs = sweep_states(config)
    p_exact = np.abs(exact) ** 2
    p_exact = p_exact / p_exact.sum(axis=-1, keepdims=True)
    columns = []
    for algo, kept in zip(config.specs, outputs):
        errors, degenerate = state_errors(exact, kept)
        if algo.kind == "exact":  # the reference itself, not a roundoff-sized error
            errors = np.zeros_like(errors)
        norms = np.linalg.norm(kept, axis=-1)
        prob = norms * norms if algo.schedule else np.ones_like(norms)
        ok = ~degenerate
        pops = np.abs(kept[ok]) ** 2
        pops = pops / pops.sum(axis=-1, keepdims=True)
        pop_col = [(None,) * kept.shape[-1]] * len(kept)
        fid_col = [None] * len(kept)
        for i, pop, fid in zip(np.flatnonzero(ok).tolist(), pops.tolist(),
                               classical_fidelity(p_exact[ok], pops).tolist()):
            pop_col[i], fid_col[i] = pop, fid
        columns.append((algo.spec, pop_col, prob.tolist(), errors.tolist(), fid_col,
                        degenerate.tolist()))
    return [SweepRow(t, spec, *pop_col[i], prob[i], errors[i], fid_col[i], flags[i])
            for i, t in enumerate(config.t_grid)
            for spec, pop_col, prob, errors, fid_col, flags in columns]


def fit_order(t_grid, errors) -> float:
    """Least-squares slope of log(error) against log(t).

    Needs at least 4 strictly ascending positive times and strictly positive
    errors; points sitting at the numerical floor must be dropped by the
    caller first (see drop_floor), since log of roundoff noise flattens any
    fit.
    """
    ts = np.asarray(t_grid, dtype=float).reshape(-1)
    es = np.asarray(errors, dtype=float).reshape(-1)
    if ts.size != es.size:
        raise ValueError(f"grid and errors differ in length: {ts.size} vs {es.size}")
    if ts.size < 4:
        raise ValueError(f"need at least 4 points for an order fit, got {ts.size}")
    if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("times must be positive and strictly ascending")
    if np.any(es <= 0):
        raise ValueError("errors must be strictly positive; filter floor points first")
    slope, _ = np.polyfit(np.log(ts), np.log(es), 1)
    return float(slope)


def drop_floor(t_grid, errors, floor: float = ERROR_FLOOR):
    """Keep only the points whose error rises above the given floor."""
    ts = np.asarray(t_grid, dtype=float).reshape(-1)
    es = np.asarray(errors, dtype=float).reshape(-1)
    keep = es > floor
    return ts[keep], es[keep]


def cell_text(cell) -> str:
    """CSV spelling of one output cell: empty for None, 12 significant digits."""
    return "" if cell is None else cell if isinstance(cell, str) else f"{cell:.12g}"


def emit(rows, format: str, path) -> None:
    """Write rows as CSV or JSON; CSV floats carry 12 significant digits.

    Each row is written from its cells, so a degenerate row keeps its time,
    algorithm and success probability and leaves the other columns empty
    (CSV) or null (JSON).
    """
    table = [r.cells() for r in rows]
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(COLUMNS)
            writer.writerows([cell_text(c) for c in cells] for cells in table)
        return
    if format == "json":
        payload = [dict(zip(COLUMNS, cells)) for cells in table]
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
        return
    raise ValueError(f"format must be csv or json, got {format!r}")
