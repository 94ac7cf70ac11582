"""Each oracle accepts the program's output and rejects a perturbed copy."""
import ast
import copy
import importlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from oracles import OracleMismatch
from workloads import WORKLOADS

LIB_MODULES = ("linalg", "hamiltonian", "trotter", "multiproduct", "lcu", "experiments", "cli")


@pytest.fixture(scope="module")
def lib():
    return SimpleNamespace(**{m: importlib.import_module(f"mptrotter.{m}") for m in LIB_MODULES})


@pytest.fixture(scope="module")
def outputs(lib, tmp_path_factory):
    """(program output, oracle value) of pool entry 1 of every workload."""
    result = {}
    for name, cls in WORKLOADS.items():
        inputs = cls.make_inputs(7)
        workload = cls(lib, inputs, tmp_path_factory.mktemp(name))
        result[name] = (workload.parse(1, workload.op(1)), cls.expected(inputs)[1])
    return result


def _kick(key, index, amount=1e-6):
    def apply(got):
        got[key] = np.array(got[key], dtype=complex if np.iscomplexobj(got[key]) else float)
        got[key][index] += amount
        return got
    return apply


def _flip(key):
    def apply(got):
        got[key] = -np.asarray(got[key])
        return got
    return apply


def _sweep_flip_error(got):
    values = got["values"].copy()
    row = int(np.argmax(values[:, 5]))  # the largest state error, nonzero
    values[row, 5] = -values[row, 5]
    got["values"] = values
    return got


PERTURBATIONS = {
    "sweep_default": [_kick("values", (7, 0)), _kick("values", (-1, 4)), _sweep_flip_error],
    "ising_d256": [_kick("exact", 3), _kick("kept", 0), _flip("kept"), _kick("error", ())],
    "lcu_ensemble": [_kick("kept", 0), _kick("amplified", 1), _flip("amplified"),
                     _kick("prob", ())],
    "scaling_fit": [_flip("order"), _kick("order", (), 1.5), _kick("kept", (), -10)],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_accepts_program_output(outputs, name):
    got, want = outputs[name]
    WORKLOADS[name].compare(got, want)


@pytest.mark.parametrize("name,which", [(n, i) for n, ps in PERTURBATIONS.items()
                                        for i in range(len(ps))])
def test_oracle_rejects_perturbed_output(outputs, name, which):
    got, want = outputs[name]
    bad = PERTURBATIONS[name][which](copy.deepcopy(got))
    with pytest.raises(OracleMismatch):
        WORKLOADS[name].compare(bad, want)


def test_sweep_rejects_reordered_rows(outputs):
    got, want = outputs["sweep_default"]
    bad = copy.deepcopy(got)
    bad["keys"][0], bad["keys"][1] = bad["keys"][1], bad["keys"][0]
    with pytest.raises(OracleMismatch):
        WORKLOADS["sweep_default"].compare(bad, want)


def test_oracles_never_import_the_library():
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.startswith("mptrotter") for name in imported)


def test_chebyshev_recurrence_matches_one_round_form():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m /= 2.0 * np.linalg.norm(m, 2)
    psi = rng.standard_normal(6) + 0j

    def fwd(v):
        return m @ v

    def adj(v):
        return m.conj().T @ v

    np.testing.assert_allclose(oracles.amplified(fwd, adj, psi, 0), m @ psi, atol=1e-15)
    one = 3.0 * m @ psi - 4.0 * m @ m.conj().T @ m @ psi
    np.testing.assert_allclose(oracles.amplified(fwd, adj, psi, 1), one, atol=1e-14)
    # n = 2 against T_5 on the singular values
    u, s, vh = np.linalg.svd(m)
    t5 = 16 * s ** 5 - 20 * s ** 3 + 5 * s
    np.testing.assert_allclose(oracles.amplified(fwd, adj, psi, 2), (u * t5) @ vh @ psi,
                               atol=1e-13)


def test_product_formula_is_exact_for_commuting_terms():
    h1 = np.diag([0.3, -0.2, 0.5]).astype(complex)
    h2 = np.diag([1.0, 0.4, -0.7]).astype(complex)
    psi = np.array([0.6, 0.8j, 0.0])
    got = oracles.ProductFormula((h1, h2)).power(1.7, 5, psi)
    np.testing.assert_allclose(got, np.exp(-1.7j * np.diag(h1 + h2)) * psi, atol=1e-14)


def test_mp_coefficients_match_closed_form():
    ell = np.array([4.0, 8.0, 16.0, 32.0])
    closed = [np.prod([ell[q] ** 2 / (ell[q] ** 2 - ell[p] ** 2) for p in range(4) if p != q])
              for q in range(4)]
    np.testing.assert_allclose(oracles.mp_coefficients(ell), closed, rtol=1e-10)
