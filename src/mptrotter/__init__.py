"""Multi-product Trotter formulas, LCU circuit simulation, and amplitude
amplification for small dense quantum systems."""

from .experiments import (
    SweepConfig,
    SweepRow,
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
    DEFAULT_PARAMS,
    HamiltonianDecomposition,
    SpinModelParams,
    build_spin_hamiltonian,
    total,
)
from .lcu import (
    LcuCircuit,
    LcuOutcome,
    OaaErrorReport,
    apply_lcu,
    apply_oaa,
    build_lcu,
    oaa_error_report,
    oaa_iterate,
    optimal_split,
    predicted_probability,
)
from .linalg import (
    complete_unitary,
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
    phase_aligned_state_error,
)
from .trotter import second_order_step, trotterize

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PARAMS",
    "ErrorReport",
    "HamiltonianDecomposition",
    "LcuCircuit",
    "LcuOutcome",
    "MpSchedule",
    "OaaErrorReport",
    "SpinModelParams",
    "SweepConfig",
    "SweepRow",
    "apply_lcu",
    "apply_oaa",
    "build_lcu",
    "build_spin_hamiltonian",
    "classical_fidelity",
    "complete_unitary",
    "default_t_grid",
    "drop_floor",
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
    "oaa_iterate",
    "optimal_split",
    "parse_algorithm",
    "parse_schedule_spec",
    "phase_aligned_state_error",
    "predicted_probability",
    "run_sweep",
    "second_order_step",
    "spectral_norm",
    "total",
    "trotterize",
]
