"""Optimal initial amplitudes for quantum search with prior knowledge.

Given a prior over where the unique solution sits and a query budget, the
optimizer allocates initial squared amplitudes to maximize the expected
success probability; the rest of the package verifies those plans against
exact simulation and independent brute-force bounds, and emits runnable
3-qubit circuits for the half-half benchmark family.
"""

from .bounds import BoundReport, lemma_a1_search, theorem_a2_bound
from .circuits import (
    REFERENCE_THETA,
    block_amplitude,
    build_halfhalf_circuit,
    emit_qasm,
    halfhalf_prior,
    in_high_block,
    parse_qasm,
    solution_outcome,
    theta_for_sigma,
)
from .errors import InvalidInput, NumericalFailure, ResourceLimit
from .esp import (
    METHODS,
    AmplitudePlan,
    EspReport,
    cap,
    esp,
    ranking_baseline,
    speedup_plan,
    success_prob_single,
    uniform_plan,
)
from .optimizer import (
    kernel_backend,
    kkt_residual,
    load_plan,
    optimize,
    optimize_t1_closed_form,
    plan_to_json,
    save_plan,
)
from .prior import (
    Prior,
    l1_distance,
    load_prior,
    new_prior,
    sample_random_prior,
    top_k_mass,
)
from .simulator import (
    MAX_QUBITS,
    Gate,
    GateCircuit,
    prepare_state,
    run_gate_circuit,
    run_iterations,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudePlan",
    "BoundReport",
    "EspReport",
    "Gate",
    "GateCircuit",
    "InvalidInput",
    "MAX_QUBITS",
    "METHODS",
    "NumericalFailure",
    "Prior",
    "REFERENCE_THETA",
    "ResourceLimit",
    "block_amplitude",
    "build_halfhalf_circuit",
    "cap",
    "emit_qasm",
    "esp",
    "halfhalf_prior",
    "in_high_block",
    "kernel_backend",
    "kkt_residual",
    "l1_distance",
    "lemma_a1_search",
    "load_plan",
    "load_prior",
    "new_prior",
    "optimize",
    "optimize_t1_closed_form",
    "parse_qasm",
    "plan_to_json",
    "prepare_state",
    "ranking_baseline",
    "run_gate_circuit",
    "run_iterations",
    "sample_random_prior",
    "save_plan",
    "solution_outcome",
    "speedup_plan",
    "success_prob_single",
    "theorem_a2_bound",
    "theta_for_sigma",
    "top_k_mass",
    "uniform_plan",
]
