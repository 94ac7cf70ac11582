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
    mp_oaa:<schedule>[:<n>]  same, followed by n amplification rounds (default 1)

so mp:<schedule> is mp_oaa:<schedule>:0; schedules are "modified:a,k",
"original:gamma,k", or an explicit comma-separated list like "1,2,3,96".
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .hamiltonian import (
    DEFAULT_PARAMS,
    HamiltonianDecomposition,
    SpinModelParams,
    build_spin_hamiltonian,
    total,
)
from .lcu import amplify, optimal_split
from .linalg import as_state, brief, check_count, hermitian_propagator, weighted_sum
from .multiproduct import MpSchedule, make_schedule, state_errors
from .trotter import product_stacks

# A fixed floor for state errors, which acceptance criterion 3 and the order demo
# fit above; `scaling` drops errors at the schedule's own `roundoff_floor()`.
ERROR_FLOOR = 1e-13

# Half of 2, the largest state error: from the first error this large on, the
# error saturates and oscillates between 0 and 2, so `drop_floor` keeps no
# point from there on.
ERROR_CEILING = 1.0

DEFAULT_ALGORITHMS = ("exact", "trotter:96", "mp:modified:2,4", "mp_oaa:modified:2,4:1")

# Most rounds an mp_oaa spec may ask for: `lcu.amplify` runs one Python loop
# pass per round (about 20 us on the default 61-time stack), and the paper
# uses one round; a geometric schedule needs at most one.
_MAX_ROUNDS = 10 ** 4


_DEFAULT_T_GRID = tuple(float(t) for t in np.linspace(0.0, 60.0, 61))


def default_t_grid() -> tuple[float, ...]:
    """61 integer-spaced times covering [0, 60]: one tuple, formed at import."""
    return _DEFAULT_T_GRID


# Each generated schedule kind's first parameter and its type; k follows it.
_GENERATED = {"modified": ("a", int), "original": ("gamma", float)}


def parse_schedule_spec(text: str) -> MpSchedule:
    """Schedule from its CLI/config spelling: "modified:a,k" and "original:gamma,k"
    through `make_schedule`, any other text as a comma-separated list of counts."""
    text = text.strip()
    kind, sep, body = text.partition(":")
    if sep and kind in _GENERATED:
        name, number = _GENERATED[kind]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"{kind} schedule spec needs '{kind}:{name},k', got {brief(text)}")
        return make_schedule(kind, **{name: read_number(parts[0], name, number)},
                             k=read_number(parts[1], "k"))
    return MpSchedule(tuple(read_number(p, "iteration count") for p in text.split(",")))


def read_number(text: str, what: str, kind=int):
    """kind(text) for text stripped of surrounding whitespace, kind being int or
    float; text that is no such number is a ValueError naming what."""
    text = text.strip()
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} must be {noun}, got {brief(text)}") from None


@dataclass(frozen=True)
class AlgorithmSpec:
    spec: str
    kind: str                       # exact | trotter | mp
    l: int | None = None
    schedule: MpSchedule | None = None
    rounds: int = 0                 # amplification rounds after the mp circuit

    @property
    def iterations(self) -> tuple[int, ...]:
        """Iteration counts of the Trotter products this algorithm combines."""
        if self.kind == "trotter":
            return (self.l,)
        return self.schedule.iterations if self.schedule else ()


# Most distinct spec texts the parse memo keeps; a config lists a few, and
# `scaling` adds one per k.
_SPEC_CACHE_SIZE = 64


def parse_algorithm(spec: str) -> AlgorithmSpec:
    """The algorithm a spec string names, parsed once per process per spec text.

    The result is frozen, schedule and coefficients included, so one memo of
    at most _SPEC_CACHE_SIZE entries serves every config of the process; a
    spec that fails raises again each time. A spec that is no string is a
    ValueError naming it.
    """
    if not isinstance(spec, str):
        raise ValueError(f"algorithm spec must be a string, got {brief(spec)}")
    return _parse_algorithm(spec)


@functools.lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _parse_algorithm(spec: str) -> AlgorithmSpec:
    s = spec.strip()
    if s == "exact":
        return AlgorithmSpec(spec=s, kind="exact")
    head, sep, body = s.partition(":")
    if sep and head == "trotter":
        l = check_count(read_number(body, "iteration count"), "iteration count", 1)
        try:
            float(l)
        except OverflowError:
            raise ValueError(f"iteration count {l} overflows a float") from None
        return AlgorithmSpec(spec=s, kind="trotter", l=l)
    if sep and head in ("mp", "mp_oaa"):
        rounds = 0 if head == "mp" else 1
        # the last field of every schedule has a comma, so a last :-field
        # without one is a round count, which only mp_oaa takes, unless a bare
        # generated kind precedes it (a malformed schedule); with none, one round
        front, sep, tail = body.rpartition(":")
        if sep and "," not in tail and front.strip() not in _GENERATED:
            if head == "mp":
                raise ValueError("mp takes no round count; use mp_oaa:<schedule>:<n>")
            body, rounds = front, check_count(read_number(tail, "round count"), "round count", 0)
        if rounds > _MAX_ROUNDS:
            raise ValueError(f"round count must be at most {_MAX_ROUNDS}, got {rounds}")
        return AlgorithmSpec(spec=s, kind="mp", schedule=parse_schedule_spec(body),
                             rounds=rounds)
    raise ValueError(
        f"unknown algorithm {brief(spec)}; expected exact, trotter:<l>, mp:<schedule>, "
        f"or mp_oaa:<schedule>[:<rounds>]"
    )


@dataclass(frozen=True)
class SweepConfig:
    model: SpinModelParams = DEFAULT_PARAMS
    initial_state: tuple[complex, ...] = ()
    t_grid: tuple[float, ...] = ()
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    specs: tuple[AlgorithmSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        state = tuple(complex(a) for a in self.initial_state) or (
            complex(np.sqrt(0.3)), complex(np.sqrt(0.7)), 0j, 0j)
        if len(state) != 4:
            raise ValueError(f"initial state needs 4 amplitudes, got {len(state)}")
        as_state(state, "initial state")
        grid = tuple(float(t) for t in self.t_grid) or default_t_grid()
        if not all(map(math.isfinite, grid)):
            raise ValueError("time grid entries must be finite")
        object.__setattr__(self, "specs", tuple(parse_algorithm(s) for s in self.algorithms))
        object.__setattr__(self, "initial_state", state)
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "algorithms", tuple(self.algorithms))


# The output columns of a sweep, in order.
COLUMNS = ("t", "algo", "p00", "p01", "p10", "p11", "success_prob", "state_error",
           "fidelity")
CSV_HEADER = ",".join(COLUMNS)


CONFIG_KEYS = (*(f.name for f in fields(SpinModelParams)), "initial_state", "t_grid",
               "algorithms")


def _parse_amplitude(entry) -> complex:
    """A bare number or an [re, im] pair; JSON true/false are no numbers."""
    pair = entry if isinstance(entry, list) and len(entry) == 2 else [entry, 0]
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair):
        raise ValueError(f"amplitudes must be numbers or [re, im] pairs, got {brief(entry)}")
    return complex(*(_real(x, "every initial_state amplitude") for x in pair))


def _config_list(raw: dict, key: str) -> list:
    """raw[key], or an empty list when the key is absent; rejected unless a list."""
    val = raw.get(key, [])
    if not isinstance(val, list):
        raise ValueError(f"config key {key!r} must be a list, got {brief(val)}")
    return val


def _real(val, what: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError(f"{what} must be a number, got {brief(val)}")
    try:
        return float(val)
    except OverflowError:
        raise ValueError(f"{what} must fit in a float, got a {len(str(abs(val)))}-digit "
                         "integer") from None


def load_config(path) -> SweepConfig:
    """Read a flat JSON config; unknown keys are rejected, known ones optional.

    Every value is type-checked, so a malformed config fails with a
    ValueError naming the key rather than a TypeError deeper down; one nested
    too deeply for the JSON parser fails with a ValueError too.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError("config nests too deeply to parse") from None
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {brief(unknown)}; allowed: {list(CONFIG_KEYS)}")
    model = SpinModelParams(**{
        f.name: _real(raw.get(f.name, getattr(DEFAULT_PARAMS, f.name)), f"config key {f.name!r}")
        for f in fields(SpinModelParams)
    })
    state = tuple(_parse_amplitude(a) for a in _config_list(raw, "initial_state"))
    grid = tuple(_real(t, "every t_grid entry") for t in _config_list(raw, "t_grid"))
    algorithms = _config_list(raw, "algorithms")
    if not all(isinstance(a, str) for a in algorithms):
        raise ValueError(f"config key 'algorithms' must list strings, got {brief(algorithms)}")
    return SweepConfig(model=model, initial_state=state, t_grid=grid, algorithms=(
        tuple(algorithms) if "algorithms" in raw else DEFAULT_ALGORITHMS))


def classical_fidelity(p, q):
    """Bhattacharyya-type overlap (sum_i sqrt(p_i q_i))^2 of two distributions.

    Inputs must be elementwise nonnegative and each sum to 1 within 1e-9;
    the result is symmetric, 1 exactly when p = q, 0 on disjoint support.
    Batched over the last axis: 1-d inputs give a float, (T, n) inputs an
    array of T overlaps, and one bad row rejects the batch. The checked
    inputs go to `_fidelity`, which `run_sweep` calls on its populations.
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
    fid = _fidelity(a, b)
    return float(fid) if fid.ndim == 0 else fid


def _fidelity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`classical_fidelity` of float arrays a and b, unchecked, over the last axis."""
    root = np.sum(np.sqrt(np.clip(a, 0.0, None) * np.clip(b, 0.0, None)), axis=-1)
    return np.minimum(root * root, 1.0)


def _outputs(algo: AlgorithmSpec, psi0, exact, stacks, blocks) -> np.ndarray:
    """Unnormalized kept states of one algorithm at every time, (T, d).

    stacks maps each iteration count to its (T, d, d) stack of Trotter
    products; blocks maps each schedule to its circuit block stack, and
    gains the block of a schedule seen for the first time.
    """
    if algo.kind == "exact":
        return exact
    if algo.kind == "trotter":
        return stacks[algo.l] @ psi0
    key = algo.schedule  # mp and mp_oaa on one schedule share its block
    if key not in blocks:
        m, m_prime = optimal_split(algo.schedule.coefficients)
        blocks[key] = weighted_sum(m * m_prime, [stacks[l] for l in algo.schedule.iterations])
    return amplify(blocks[key], psi0, algo.rounds)


@functools.lru_cache(maxsize=8)
def _spin_model(params: SpinModelParams) -> HamiltonianDecomposition:
    """The spin model's decomposition for params, built and checked once per process.

    Its terms are diagonalized on first use and cached on it, so a sweep that
    repeats a model within one process (every sweep and scaling call of a
    session on one config) neither rebuilds nor rediagonalizes it. The memo
    is private: its decomposition never leaves this module. Parameters that
    compare equal share an entry; they differ at most in the sign of a zero,
    which no state depends on.
    """
    return build_spin_hamiltonian(params)


def sweep_states(config: SweepConfig) -> tuple[np.ndarray, list[np.ndarray]]:
    """(exact, outputs): the exact states and each algorithm's kept states.

    exact is (T, d) over the time grid, and outputs holds one unnormalized
    (T, d) array per algorithm, in config order. The model is built, checked
    and term-diagonalized once per process (see `_spin_model`). Its total H
    gives the exact states through `hermitian_propagator`, which keeps the
    spectrum of a matrix that comes a second time in a row: repeated runs on
    one model diagonalize H twice per process, not once per run. Each run
    forms the steps of every distinct Trotter product in one stacked call,
    giving one (T, d, d) stack per product shared by the algorithms that use
    it. Each distinct schedule's circuit block (its optimal split and
    weighted sum) is formed once per run and shared by the mp and mp_oaa
    algorithms on it; each runs the block through one stacked amplification.

    Products of about 2**60 steps and more overflow double precision. They
    are formed with numpy's overflow warnings off, and an algorithm whose
    kept states or their norms are not finite is rejected with a ValueError
    naming it.
    """
    decomp = _spin_model(config.model)
    psi0 = np.asarray(config.initial_state, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    ts = np.asarray(config.t_grid)
    exact = hermitian_propagator(total(decomp), ts) @ psi0
    with np.errstate(over="ignore", invalid="ignore"):
        stacks = product_stacks(decomp, ts,
                                sorted({l for a in config.specs for l in a.iterations}))
        blocks = {}
        outputs = [_outputs(algo, psi0, exact, stacks, blocks) for algo in config.specs]
        for algo, kept in zip(config.specs, outputs):
            # a NaN or infinite entry makes its norm NaN or infinite too
            if not np.isfinite(np.linalg.norm(kept, axis=-1)).all():
                raise ValueError(
                    f"algorithm {brief(algo.spec)} overflows double precision: its kept "
                    f"states or their norms are not finite (largest iteration "
                    f"count {max(algo.iterations)})")
    return exact, outputs


class SweepTable:
    """The result of a sweep, held column by column.

    Entry i of each column is the (t, algorithm) cell i: grid-major,
    algorithms in config order. t, success_prob, state_error and fidelity are float arrays,
    degenerate a bool array, algo a tuple of specs, and populations one
    (cells, d) block; a degenerate cell has NaN populations, state error and
    fidelity.
    """

    def __init__(self, t, algo, populations, success_prob, state_error, fidelity,
                 degenerate) -> None:
        self.t, self.algo, self.populations = t, algo, populations
        self.success_prob, self.state_error = success_prob, state_error
        self.fidelity, self.degenerate = fidelity, degenerate

    def __len__(self) -> int:
        return len(self.algo)

    def columns(self) -> list[list]:
        """The output columns in COLUMNS order as Python lists, NaN kept."""
        return [self.t.tolist(), list(self.algo), *self.populations.T.tolist(),
                self.success_prob.tolist(), self.state_error.tolist(),
                self.fidelity.tolist()]


def run_sweep(config: SweepConfig) -> SweepTable:
    """All (t, algorithm) cells of the sweep, grid-major, algorithms in config order.

    The states come from `sweep_states` and are scored in one stacked pass
    over the (T, A, d) kept states; kept branches that `state_errors` flags
    as vanishing give degenerate cells.
    """
    exact, outputs = sweep_states(config)
    specs = config.specs
    kept = (np.stack(outputs, axis=1) if outputs
            else np.zeros((len(exact), 0, exact.shape[-1]), dtype=complex))
    errors, degenerate = state_errors(exact[:, None], kept)
    # the reference itself, not a roundoff-sized error
    errors[:, [algo.kind == "exact" for algo in specs]] = 0.0
    norms = np.linalg.norm(kept, axis=-1)
    prob = np.where([algo.schedule is not None for algo in specs], norms * norms, 1.0)
    p_exact = np.abs(exact) ** 2
    p_exact = p_exact / p_exact.sum(axis=-1, keepdims=True)
    ok = ~degenerate
    pops = np.full(kept.shape, np.nan)
    fid = np.full(ok.shape, np.nan)
    kept_pops = np.abs(kept[ok]) ** 2
    kept_pops /= kept_pops.sum(axis=-1, keepdims=True)
    pops[ok] = kept_pops
    # each kept cell against the exact distribution at its time; both are
    # distributions by construction, so the checks of classical_fidelity are skipped
    fid[ok] = _fidelity(p_exact[np.nonzero(ok)[0]], kept_pops)
    times, algos, dim = kept.shape
    return SweepTable(t=np.repeat(np.asarray(config.t_grid), algos),
                      algo=tuple(algo.spec for algo in specs) * times,
                      populations=pops.reshape(-1, dim), success_prob=prob.reshape(-1),
                      state_error=errors.reshape(-1), fidelity=fid.reshape(-1),
                      degenerate=degenerate.reshape(-1))


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


def drop_floor(t_grid, errors, floor: float):
    """Keep only the points whose error rises above floor, which has no default
    (`scaling` reads the schedule's roundoff floor, criterion 3 ERROR_FLOOR),
    and that come before the first error >= ERROR_CEILING: a later point is
    saturated, however small its error."""
    ts = np.asarray(t_grid, dtype=float).reshape(-1)
    es = np.asarray(errors, dtype=float).reshape(-1)
    keep = (es > floor) & ~np.logical_or.accumulate(es >= ERROR_CEILING)
    return ts[keep], es[keep]


def cell_text(cell) -> str:
    """CSV spelling of one output cell: empty for None, 12 significant digits."""
    return "" if cell is None else cell if isinstance(cell, str) else f"{cell:.12g}"


# One CSV line of a row with every cell present, in cell_text's spelling
# ("%.12g" equals f"{x:.12g}"); the algorithm name goes in already quoted.
_CSV_ROW = ",".join("%s" if name == "algo" else "%.12g" for name in COLUMNS) + "\n"
# One record as json.dumps(records, indent=2) spells it; str(float) is json's repr.
_JSON_RECORD = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %s" for name in COLUMNS) + "\n  }"


def _csv_line(cells) -> str:
    """One line of cells as csv.writer spells it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def check_format(format: str) -> None:
    """Reject an output format other than csv or json, naming it."""
    if format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {format!r}")


def emit(table: SweepTable, format: str, path) -> None:
    """Write a sweep's table as CSV or JSON, in one write; CSV floats carry 12
    significant digits.

    A NaN cell is written empty (CSV) or null (JSON), so a degenerate row
    keeps its time, algorithm and success probability only. A row of finite
    numbers is formatted in one step, its algorithm name quoted once per name;
    the others go cell by cell through csv.writer or json.dumps.
    """
    check_format(format)
    columns, as_csv = table.columns(), format == "csv"
    irregular = ~np.isfinite(np.column_stack([table.t, table.populations, table.success_prob,
                                              table.state_error, table.fidelity])).all(axis=1)
    # each name as csv.writer spells it among other fields (the line of
    # [name, ""] without the empty field's "," and the newline), or as JSON
    quoted = {name: _csv_line([name, ""])[:-2] if as_csv else json.dumps(name)
              for name in set(table.algo)}
    rows = [(_CSV_ROW if as_csv else _JSON_RECORD) % cells for cells in
            zip(columns[0], [quoted[name] for name in table.algo], *columns[2:])]
    for i in np.flatnonzero(irregular).tolist():
        cells = [None if col[i] != col[i] else col[i] for col in columns]  # NaN != NaN
        rows[i] = (_csv_line([cell_text(c) for c in cells]) if as_csv
                   else _JSON_RECORD % tuple(json.dumps(c) for c in cells))
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n" + "".join(rows) if as_csv
                 else "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n")
