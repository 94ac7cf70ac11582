"""The benchmark's four workloads.

Each workload is a closed loop from one process: the next op starts when the
previous one returns. Inputs come from the seed alone (`make_inputs`, numpy
only) as a pool of `pool_size` entries that the ops cycle through; a run ends
on a whole number of cycles, so per-op averages repeat exactly for one seed.

The program sees only the generated inputs. Every op's output is parsed
(untimed) and compared with a reference from `oracles`, computed once per
pool entry by `expected` without calling mptrotter. `reference` names the
calibration kernel whose resource use is closest to the workload's.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import re
from pathlib import Path

import numpy as np

from oracles import (
    SIGMA_X,
    SIGMA_Z,
    Eigen,
    OracleMismatch,
    ProductFormula,
    amplified,
    fidelity,
    mp_coefficients,
    require_close,
    spin_terms,
)

# Model parameters written into every sweep/scaling config, so the oracle's
# own copy of the model and the program's agree by construction.
MODEL = {"omega": 0.2, "delta": 0.5, "e1": 0.3, "e2": 0.7}
# The default sweep: 61 times, four algorithms; modified:2,4 is L = 2 * 2^q.
SWEEP_GRID = tuple(float(t) for t in range(61))
SWEEP_ALGOS = ("exact", "trotter:96", "mp:modified:2,4", "mp_oaa:modified:2,4:1")
SWEEP_TROTTER_L = 96
MP_ITERATIONS = (4, 8, 16, 32)
CSV_COLUMNS = ("t", "algo", "p00", "p01", "p10", "p11", "success_prob",
               "state_error", "fidelity")
# CSV values carry 12 significant digits; in-memory states agree to roundoff.
CSV_ATOL = 1e-9
STATE_ATOL = 1e-9


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def ising_terms(qubits: int = 8, j: float = 1.0, h: float = 1.0):
    """Transverse-field Ising split (h sum X_i, J sum Z_i Z_{i+1}), open chain."""
    def site(op, i):
        out = np.eye(1, dtype=complex)
        for q in range(qubits):
            out = np.kron(out, op if q == i else np.eye(2, dtype=complex))
        return out

    hx = h * sum(site(SIGMA_X, i) for i in range(qubits))
    zs = [site(SIGMA_Z, i) for i in range(qubits)]
    hzz = j * sum(zs[i] @ zs[i + 1] for i in range(qubits - 1))
    return hx, hzz


def run_cli(lib, argv) -> tuple[int, str, str]:
    """cli.main(argv) in-process with its output captured: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_output(raw) -> str:
    code, out, err = raw
    if code != 0:
        raise OracleMismatch(f"cli exited {code}: {err.strip()}")
    return out


def write_config(path: Path, psi: np.ndarray) -> str:
    amps = [[float(a.real), float(a.imag)] for a in psi]
    path.write_text(json.dumps({**MODEL, "initial_state": amps}))
    return str(path)


def modified_weights() -> np.ndarray:
    """Optimal-split LCU weights m_i m'_i = c_i / sum|c| of modified:2,4."""
    c = mp_coefficients(MP_ITERATIONS)
    return c / np.sum(np.abs(c))


def mp_maps(pf: ProductFormula, t: float, weights):
    """M' = sum w_i S(t/L_i)^L_i and its adjoint, as maps on states."""
    def m(v):
        return sum(w * pf.power(t, l, v) for w, l in zip(weights, MP_ITERATIONS))

    def m_dag(v):
        return sum(np.conj(w) * pf.power(-t, l, v) for w, l in zip(weights, MP_ITERATIONS))

    return m, m_dag


class SweepDefault:
    """One op: the default `sweep` through cli.main, CSV written to disk."""

    name = "sweep_default"
    reference = "small"
    pool_size = 4
    warmup = 1

    @staticmethod
    def make_inputs(seed: int):
        rng = np.random.default_rng(seed)
        return [random_state(4, rng) for _ in range(SweepDefault.pool_size)]

    def __init__(self, lib, inputs, workdir: Path) -> None:
        self.lib = lib
        self.argv = []
        for j, psi in enumerate(inputs):
            cfg = write_config(workdir / f"sweep{j}.json", psi)
            self.argv.append(["sweep", "--config", cfg, "--out", str(workdir / f"sweep{j}.csv")])

    def op(self, j: int):
        return run_cli(self.lib, self.argv[j])

    def parse(self, j: int, raw):
        cli_output(raw)
        path = Path(self.argv[j][-1])
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        path.unlink()
        if not lines or tuple(lines[0]) != CSV_COLUMNS:
            raise OracleMismatch(f"csv header {lines[:1]}")
        keys = [(float(r[0]), r[1]) for r in lines[1:]]
        values = np.array([[float(x) if x else np.nan for x in r[2:]] for r in lines[1:]])
        return {"keys": keys, "values": values}

    @staticmethod
    def expected(inputs):
        h1, h2 = spin_terms(**MODEL)
        exact = Eigen(h1 + h2)
        pf = ProductFormula((h1, h2))
        weights = modified_weights()
        psi = np.stack(inputs, axis=1)  # all pool states as columns
        keys, blocks = [], []
        for t in SWEEP_GRID:
            ex = exact.apply(t, psi)
            m, m_dag = mp_maps(pf, t, weights)
            outs = (ex, pf.power(t, SWEEP_TROTTER_L, psi), m(psi), amplified(m, m_dag, psi, 1))
            p_exact = np.abs(ex) ** 2 / np.sum(np.abs(ex) ** 2, axis=0)
            for algo, out in zip(SWEEP_ALGOS, outs):
                norm = np.linalg.norm(out, axis=0)
                prob = norm ** 2 if algo.startswith("mp") else np.ones_like(norm)
                state = out / norm
                pops = np.abs(state) ** 2
                pops = pops / pops.sum(axis=0)
                err = np.linalg.norm(ex - state, axis=0)
                fid = [fidelity(p_exact[:, s], pops[:, s]) for s in range(psi.shape[1])]
                keys.append((t, algo))
                blocks.append(np.vstack([pops, prob, err, fid]))  # 7 x pool
        table = np.stack(blocks)  # rows x 7 x pool
        return [{"keys": keys, "values": table[:, :, s]} for s in range(psi.shape[1])]

    @staticmethod
    def compare(got, want) -> None:
        if got["keys"] != want["keys"]:
            raise OracleMismatch("sweep rows differ in (t, algo) order")
        require_close("sweep csv values", got["values"], want["values"], CSV_ATOL)


class IsingD256:
    """One op: an mp_oaa:modified:2,4:1 cell on an 8-qubit Ising split (d=256)."""

    name = "ising_d256"
    reference = "dense"
    pool_size = 2
    warmup = 1

    @staticmethod
    def make_inputs(seed: int):
        rng = np.random.default_rng(seed)
        return [(float(rng.uniform(0.5, 2.0)), random_state(256, rng))
                for _ in range(IsingD256.pool_size)]

    def __init__(self, lib, inputs, workdir: Path) -> None:
        self.lib = lib
        self.inputs = inputs
        self.decomp = lib.hamiltonian.HamiltonianDecomposition(terms=ising_terms())
        sched = lib.multiproduct.make_schedule("modified", a=2, k=4)
        self.iterations = sched.iterations
        self.coeffs = np.asarray(sched.coefficients)

    def op(self, j: int):
        lib = self.lib
        t, psi = self.inputs[j]
        h = lib.hamiltonian.total(self.decomp)
        exact = lib.linalg.hermitian_propagator(h, t) @ psi
        ops = [lib.trotter.trotterize(self.decomp, t, l) for l in self.iterations]
        circuit = lib.lcu.build_lcu(self.coeffs, ops)
        outcome = lib.lcu.apply_oaa(circuit, psi, 1)
        error = float(np.linalg.norm(exact - outcome.renormalized_state))
        return exact, outcome, error

    def parse(self, j: int, raw):
        exact, outcome, error = raw
        return {"exact": exact, "kept": outcome.projected_state,
                "prob": outcome.success_probability, "error": error}

    @staticmethod
    def expected(inputs):
        terms = ising_terms()
        exact = Eigen(sum(terms))
        pf = ProductFormula(terms)
        weights = modified_weights()
        wants = []
        for t, psi in inputs:
            ex = exact.apply(t, psi)
            kept = amplified(*mp_maps(pf, t, weights), psi, 1)
            norm = np.linalg.norm(kept)
            wants.append({"exact": ex, "kept": kept, "prob": norm ** 2,
                          "error": np.linalg.norm(ex - kept / norm)})
        return wants

    @staticmethod
    def compare(got, want) -> None:
        for key in ("exact", "kept", "prob", "error"):
            require_close(f"ising {key}", got[key], want[key], STATE_ATOL)


class LcuEnsemble:
    """One op: build_lcu, apply_lcu and apply_oaa (n in 1..3) on a random circuit."""

    name = "lcu_ensemble"
    reference = "small"
    # Every (k, d, rounds, split kind) once, so the op-time mix, and with it
    # the median and the tail, does not depend on the seed.
    shapes = [(k, d, n, caller) for k in range(1, 9) for d in range(2, 9)
              for n in (1, 2, 3) for caller in (False, True)]
    pool_size = len(shapes)
    warmup = 64

    @staticmethod
    def make_inputs(seed: int):
        rng = np.random.default_rng(seed)
        entries = []
        for pos in rng.permutation(LcuEnsemble.pool_size):
            k, d, rounds, caller = LcuEnsemble.shapes[pos]
            c = rng.uniform(-1.0, 1.5, size=k)
            if np.max(np.abs(c)) < 1e-3:
                c[0] = 1.0
            ops = [haar_unitary(d, rng) for _ in range(k)]
            psi = random_state(d, rng)
            split = None
            if caller:  # a random feasible split: unit-norm m, m' with m_i m'_i = c_i / z
                r = rng.dirichlet(np.ones(k))
                r = (r + 1e-4) / (1.0 + k * 1e-4)
                m = np.sqrt(r) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=k))
                z = np.sqrt(np.sum(c ** 2 / r))
                split = (m, c / (z * m))
            entries.append({"c": c, "ops": ops, "psi": psi, "rounds": rounds, "split": split})
        return entries

    def __init__(self, lib, inputs, workdir: Path) -> None:
        self.lib = lib
        self.inputs = inputs

    def op(self, j: int):
        lcu = self.lib.lcu
        e = self.inputs[j]
        if e["split"] is None:
            circuit = lcu.build_lcu(e["c"], e["ops"])
        else:
            circuit = lcu.build_lcu(e["c"], e["ops"], split=e["split"])
        return lcu.apply_lcu(circuit, e["psi"]), lcu.apply_oaa(circuit, e["psi"], e["rounds"])

    def parse(self, j: int, raw):
        base, amp = raw
        return {"kept": base.projected_state, "prob": base.success_probability,
                "amplified": amp.projected_state, "amp_prob": amp.success_probability}

    @staticmethod
    def expected(inputs):
        wants = []
        for e in inputs:
            c, ops, psi = e["c"], e["ops"], e["psi"]
            split = e["split"]
            weights = c / np.sum(np.abs(c)) if split is None else split[0] * split[1]

            def m(v, weights=weights, ops=ops):
                return sum(w * (a @ v) for w, a in zip(weights, ops))

            def m_dag(v, weights=weights, ops=ops):
                return sum(np.conj(w) * (a.conj().T @ v) for w, a in zip(weights, ops))

            kept = m(psi)
            amp = amplified(m, m_dag, psi, e["rounds"])
            wants.append({"kept": kept, "prob": np.vdot(kept, kept).real,
                          "amplified": amp, "amp_prob": np.vdot(amp, amp).real})
        return wants

    @staticmethod
    def compare(got, want) -> None:
        for key in ("kept", "prob", "amplified", "amp_prob"):
            require_close(f"lcu {key}", got[key], want[key], 1e-10)


class ScalingFit:
    """One op: `scaling --k k` through cli.main on t in [2, 32], k cycling 2..6."""

    name = "scaling_fit"
    reference = "small"
    ks = (2, 3, 4, 5, 6)
    pool_size = 10
    warmup = 5
    window = ("--tmin", "2", "--tmax", "32", "--points", "13")

    @staticmethod
    def make_inputs(seed: int):
        rng = np.random.default_rng(seed)
        ks = ScalingFit.ks
        return [(ks[j % len(ks)], random_state(4, rng)) for j in range(ScalingFit.pool_size)]

    def __init__(self, lib, inputs, workdir: Path) -> None:
        self.lib = lib
        self.argv = [["scaling", "--config", write_config(workdir / f"scaling{j}.json", psi),
                      "--k", str(k), *self.window]
                     for j, (k, psi) in enumerate(inputs)]

    def op(self, j: int):
        return run_cli(self.lib, self.argv[j])

    def parse(self, j: int, raw):
        out = cli_output(raw)
        order = re.search(r"fitted order = (\S+)", out)
        kept = re.search(r"(\d+)/\d+ points above", out)
        if not (order and kept):
            raise OracleMismatch(f"unexpected scaling output {out!r}")
        return {"order": float(order.group(1)), "kept": int(kept.group(1))}

    @staticmethod
    def expected(inputs):
        return [{"order": 2.0 * k + 1.0} for k, _ in inputs]

    @staticmethod
    def compare(got, want) -> None:
        if got["kept"] < 4:
            raise OracleMismatch(f"only {got['kept']} points above the floor")
        if not abs(got["order"] - want["order"]) <= 1.0:
            raise OracleMismatch(f"fitted order {got['order']} not within 1 of {want['order']}")


WORKLOADS = {cls.name: cls for cls in (SweepDefault, IsingD256, LcuEnsemble, ScalingFit)}
