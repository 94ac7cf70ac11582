"""The tracer wraps every binding, computes self time, and restores bindings."""
import importlib

import pytest

from tracer import NAMES, Tracer


@pytest.fixture
def modules():
    return {m: importlib.import_module(f"mptrotter.{m}")
            for m in ("linalg", "hamiltonian", "lcu", "multiproduct")}


def test_wraps_every_binding_and_restores(modules):
    original = modules["linalg"].spectral_norm
    tracer = Tracer()
    tracer.install()
    try:
        for name in ("linalg", "hamiltonian", "lcu", "multiproduct"):
            assert modules[name].spectral_norm is not original
        assert modules["hamiltonian"].spectral_norm is modules["linalg"].spectral_norm
    finally:
        tracer.uninstall()
    for name in ("linalg", "hamiltonian", "lcu", "multiproduct"):
        assert modules[name].spectral_norm is original


def test_counts_nested_calls_and_self_time(modules):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        modules["hamiltonian"].build_spin_hamiltonian()
        tracer.end_op()
    finally:
        tracer.uninstall()
    calls = dict(zip(NAMES, tracer.calls))
    assert calls["hamiltonian.build_spin_hamiltonian"] == 1
    assert calls["linalg.kron"] == 2
    assert calls["linalg.spectral_norm"] == 2  # hermiticity check of each term
    root = NAMES.index("hamiltonian.build_spin_hamiltonian")
    parents = list(tracer.span_parent)
    names = list(tracer.span_name)
    assert [p for p, n in zip(parents, names) if n == root] == [-1]
    assert all(p == names.index(root) for p, n in zip(parents, names) if n != root)
    span = tracer.span_end[names.index(root)] - tracer.span_start[names.index(root)]
    assert sum(tracer.self_s) == pytest.approx(span, rel=1e-9, abs=1e-12)
    assert set(tracer.span_op) == {0}


def test_metrics_cover_every_per_layer_name():
    from tracer import PER_LAYER
    assert set(Tracer().metrics(0.0)) == {name for name, _, _ in PER_LAYER}
