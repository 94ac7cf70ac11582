"""Multi-product Trotter formulas, LCU circuit simulation, and amplitude
amplification for small dense quantum systems."""

from .experiments import (
    SweepConfig,
    SweepTable,
    drop_floor,
    emit,
    fit_order,
    load_config,
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
    apply_lcu,
    apply_oaa,
    build_lcu,
    oaa_error_report,
    predicted_probability,
)
from .linalg import hermitian_propagator
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
    "apply_lcu",
    "apply_oaa",
    "build_lcu",
    "build_spin_hamiltonian",
    "drop_floor",
    "emit",
    "error_report",
    "fit_order",
    "hermitian_propagator",
    "load_config",
    "make_schedule",
    "mp_coefficients",
    "mp_operator",
    "oaa_error_report",
    "predicted_probability",
    "run_sweep",
    "second_order_step",
    "state_errors",
    "total",
    "trotterize",
]
