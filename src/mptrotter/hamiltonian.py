"""Term-decomposed Hamiltonians, in particular a driven two-spin model.

The model is an electron spin driven with Rabi frequency omega at detuning
delta, hyperfine-coupled to a nuclear spin: the electron part acts as
(omega/2) sigma_x + (delta/2) sigma_z on the electron alone, and the coupling
projects onto the excited electron state and weighs the nuclear levels with
energies e1, e2. Basis order is electron (x) nuclear: |00>, |01>, |10>, |11>,
so |10> means electron excited, nuclear ground.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import ATOL_ALGEBRAIC, as_operator, eigenpairs, kron, spectral_norm

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class SpinModelParams:
    """Two-spin model parameters (hbar = 1, all energies dimensionless)."""

    omega: float = 0.2
    delta: float = 0.5
    e1: float = 0.3
    e2: float = 0.7

    def __post_init__(self) -> None:
        for name in ("omega", "delta", "e1", "e2"):
            val = getattr(self, name)
            if not np.isfinite(val):
                raise ValueError(f"{name} must be a finite real, got {val!r}")


# Reference parameter set used by the bundled experiments.
DEFAULT_PARAMS = SpinModelParams()


@dataclass(frozen=True)
class HamiltonianDecomposition:
    """Ordered Hermitian terms whose sum is the full Hamiltonian."""

    terms: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.terms) == 0:
            raise ValueError("decomposition needs at least one term")
        coerced = tuple(as_operator(h) for h in self.terms)
        dim = coerced[0].shape[0]
        for i, h in enumerate(coerced):
            if h.shape[0] != dim:
                raise ValueError(
                    f"term {i} has dimension {h.shape[0]}, expected {dim}"
                )
            if not np.isfinite(h).all():
                raise ValueError(f"term {i} entries must be finite")
            dev = spectral_norm(h - h.conj().T)
            if not dev < ATOL_ALGEBRAIC:  # NaN fails
                raise ValueError(f"term {i} is not Hermitian: ||H - H^dag|| = {dev:.3e}")
        object.__setattr__(self, "terms", coerced)

    @cached_property
    def eigenpairs(self) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
        """(eigenvalues, eigenvectors) of each term, computed on first use.

        Every propagator of a term is then a phase scaling of the same basis.
        The basis is the cheapest `linalg.eigenpairs` finds: None for a
        diagonal term, whose propagators are its phases on the diagonal; real
        eigenvectors for a real term; complex ones otherwise.
        """
        return tuple(eigenpairs(h) for h in self.terms)

    @property
    def dim(self) -> int:
        return self.terms[0].shape[0]

    def __len__(self) -> int:
        return len(self.terms)


def build_spin_hamiltonian(params: SpinModelParams = DEFAULT_PARAMS) -> HamiltonianDecomposition:
    """Two-term split of the driven two-spin Hamiltonian.

    H1 is the electron drive tensored with the nuclear identity; H2 is the
    projector onto the excited electron times the nuclear level energies.
    The split is the natural one for product formulas: each term is cheap to
    exponentiate on its own, and [H1, H2] != 0 for generic parameters.
    """
    h1 = kron(params.omega / 2.0 * SIGMA_X + params.delta / 2.0 * SIGMA_Z, np.eye(2))
    excited = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    h2 = kron(excited, np.diag([params.e1, params.e2]).astype(complex))
    return HamiltonianDecomposition(terms=(h1, h2))


def total(decomp: HamiltonianDecomposition) -> np.ndarray:
    """Sum of all terms."""
    out = np.zeros_like(decomp.terms[0])
    for h in decomp.terms:
        out = out + h
    return out
