"""Stabilizer quantum error correction workbench."""

from .analytic import (
    classical_hamming_bound,
    code_failure_analytic,
    pseudo_threshold,
    quantum_hamming_bound_holds,
    repetition_success,
)
from .catalog import (
    CodeBundle,
    by_name,
    make_five_qubit,
    make_planar,
    make_shor,
    make_three_qubit_bit,
    make_three_qubit_phase,
    make_toric,
    make_two_qubit,
)
from .gf2 import BitMatrix, BitVector, in_rowspace, kernel_basis, rank, row_reduce
from .lattice import (
    CellComplex,
    Lattice,
    build_planar,
    build_toric,
    dual_complex,
    homology_rank,
    logical_cycles,
    stabilizers_from_lattice,
)
from .montecarlo import (
    BitFlip,
    Depolarizing,
    IndependentXZ,
    MCStats,
    PhaseFlip,
    TrialOutcome,
    error_distribution_analytic,
    logical_error_rate,
    run_trial,
    sample_error,
)
from .pauli import PauliWord, commutes, format_word, multiply, parse, weight
from .qasm import QasmProgram, emit, emit_code_demo, noise_angle, parse_qasm
from .stabilizer import (
    LogicalOperators,
    Residual,
    StabilizerCode,
    Syndrome,
    SyndromeTable,
    build_syndrome_table,
    distance,
    logical_operators,
    normalizer_kernel,
    residual_class,
    syndrome,
    validate,
)
from .statevec import (
    Circuit,
    StateVector,
    apply,
    apply_pauli,
    apply_with_recycling,
    encode,
    expectation_pauli,
    fidelity,
    hadamard_test_syndrome,
    swap_test_expectation,
)

__version__ = "0.1.0"
