"""Multi-product Trotter formulas, LCU circuit simulation, and amplitude
amplification for small dense quantum systems."""

from .experiments import (
    SweepConfig,
    SweepTable,
    classical_fidelity,
    default_t_grid,
    drop_floor,
    emit,
    fit_order,
    load_config,
    parse_algorithm,
    parse_schedule_spec,
    run_sweep,
)
from .hamiltonian import (
    HamiltonianDecomposition,
    SpinModelParams,
    build_spin_hamiltonian,
    total,
)
from .lcu import (
    LcuCircuit,
    amplify,
    apply_lcu,
    apply_oaa,
    build_lcu,
    oaa_error_report,
    optimal_split,
    predicted_probability,
)
from .linalg import (
    complete_unitary,
    eigen_propagator,
    hermitian_propagator,
    is_hermitian,
    is_unitary,
    kron,
    spectral_norm,
)
from .multiproduct import (
    ErrorReport,
    MpSchedule,
    error_report,
    make_schedule,
    mp_coefficients,
    mp_operator,
    state_errors,
)
from .trotter import second_order_step, trotterize

__version__ = "0.1.0"

__all__ = [
    "ErrorReport",
    "HamiltonianDecomposition",
    "LcuCircuit",
    "MpSchedule",
    "SpinModelParams",
    "SweepConfig",
    "SweepTable",
    "amplify",
    "apply_lcu",
    "apply_oaa",
    "build_lcu",
    "build_spin_hamiltonian",
    "classical_fidelity",
    "complete_unitary",
    "default_t_grid",
    "drop_floor",
    "eigen_propagator",
    "emit",
    "error_report",
    "fit_order",
    "hermitian_propagator",
    "is_hermitian",
    "is_unitary",
    "kron",
    "load_config",
    "make_schedule",
    "mp_coefficients",
    "mp_operator",
    "oaa_error_report",
    "optimal_split",
    "parse_algorithm",
    "parse_schedule_spec",
    "predicted_probability",
    "run_sweep",
    "second_order_step",
    "spectral_norm",
    "state_errors",
    "total",
    "trotterize",
]
