import math

import numpy as np
import pytest

from qsearch import (
    MAX_QUBITS,
    AmplitudePlan,
    Gate,
    GateCircuit,
    InvalidInput,
    ResourceLimit,
    prepare_state,
    run_gate_circuit,
    run_iterations,
    success_prob_single,
)

UNIFORM4 = AmplitudePlan(q=np.full(4, 0.25), t=1)
UNIFORM8 = AmplitudePlan(q=np.full(8, 0.125), t=1)


def test_prepare_state_splits_mass():
    state = prepare_state(UNIFORM4)
    assert state.dtype == np.float64
    assert state.size == 5
    assert state[0] == 0.0
    assert state[1:].tolist() == pytest.approx([0.5] * 4, abs=1e-15)
    with pytest.raises(ValueError):
        state[0] = 1.0  # read-only

    half = prepare_state(AmplitudePlan(q=np.array([0.3, 0.2]), t=2))
    assert half[0] == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_single_iteration_on_four_items_is_certain():
    for x in range(1, 5):
        assert run_iterations(UNIFORM4, x) == pytest.approx(1.0, abs=1e-12)


def test_zero_iterations_returns_prior_mass():
    plan = AmplitudePlan(q=np.array([0.1, 0.4, 0.3]), t=0)
    for x, q in ((1, 0.1), (2, 0.4), (3, 0.3)):
        assert run_iterations(plan, x) == pytest.approx(q, abs=1e-15)


def test_uniform_eight_matches_analytic_curve():
    assert run_iterations(UNIFORM8, 3) == pytest.approx(0.78125, abs=1e-12)


def test_item_index_bounds():
    with pytest.raises(InvalidInput):
        run_iterations(UNIFORM4, 0)
    with pytest.raises(InvalidInput):
        run_iterations(UNIFORM4, 5)


def test_simulated_probability_matches_closed_form():
    # the iteration acts as a rotation in span{|s>, |x>}, so the measured
    # probability must reproduce sin^2((2t+1) arcsin sqrt(q_x)) exactly
    rng = np.random.Generator(np.random.PCG64(2024))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        scale = float(rng.uniform(0.05, 1.0))
        q = rng.dirichlet(np.ones(n)) * scale
        t = int(rng.integers(0, 6))
        x = int(rng.integers(1, n + 1))
        plan = AmplitudePlan(q=q, t=t)
        diff = abs(run_iterations(plan, x) - success_prob_single(float(q[x - 1]), t))
        worst = max(worst, diff)
    assert worst <= 1e-10


def test_reflection_sign_is_a_global_phase():
    rng = np.random.Generator(np.random.PCG64(7))
    q = rng.dirichlet(np.ones(6)) * 0.9
    plan = AmplitudePlan(q=q, t=3)
    x = 2

    s = np.concatenate(([math.sqrt(1.0 - q.sum())], np.sqrt(q)))
    a = s.copy()
    for _ in range(plan.t):
        a[x] = -a[x]
        a = a - 2.0 * s * float(s @ a)  # opposite reflection sign
    assert float(a[x]) ** 2 == pytest.approx(run_iterations(plan, x), abs=1e-12)


@pytest.mark.parametrize(
    "kind, qubits, angle",
    [
        ("cnot", (0, 1), None),
        ("h", (0, 1), None),
        ("ccz", (0, 1), None),
        ("ccz", (0, 1, 1), None),
        ("h", (-1,), None),
        ("ry", (0,), None),
        ("ry", (0,), math.nan),
        ("x", (0,), 0.5),
        ("h", (1.5,), None),
        ("h", (True,), None),
        ("h", ("1",), None),
        ("ry", (0,), True),
        ("ry", (0,), "1.0"),
        ("h", 0, None),
        ("h", None, None),
    ],
)
def test_gate_rejects_malformed(kind, qubits, angle):
    with pytest.raises(InvalidInput):
        Gate(kind=kind, qubits=qubits, angle=angle)


def test_gate_and_circuit_take_numpy_numbers():
    gate = Gate(kind="ry", qubits=(np.int64(1),), angle=np.float32(0.5))
    assert gate.qubits == (1,) and type(gate.qubits[0]) is int
    assert gate.angle == 0.5 and type(gate.angle) is float
    assert GateCircuit(qubit_count=np.int64(2), gates=(gate,)).qubit_count == 2


def test_gate_normalizes_kind():
    gate = Gate(kind="H", qubits=(1,))
    assert gate.kind == "h"


def test_circuit_rejects_out_of_range_gate():
    with pytest.raises(InvalidInput):
        GateCircuit(qubit_count=2, gates=(Gate(kind="x", qubits=(2,)),))
    with pytest.raises(InvalidInput):
        GateCircuit(qubit_count=2, gates=(), solution_label="0")
    with pytest.raises(InvalidInput):
        GateCircuit(qubit_count=2, gates=(), solution_label="2x")
    with pytest.raises(InvalidInput):
        GateCircuit(qubit_count=0, gates=())
    for count in (2.5, "3", True):
        with pytest.raises(InvalidInput):
            GateCircuit(qubit_count=count, gates=())
    for gates in (("h",), (None,), 5):
        with pytest.raises(InvalidInput):
            GateCircuit(qubit_count=2, gates=gates)
    for label in (5, None, b"01"):
        with pytest.raises(InvalidInput):
            GateCircuit(qubit_count=2, gates=(), solution_label=label)


def test_register_cap():
    big = GateCircuit(qubit_count=MAX_QUBITS + 1, gates=())
    with pytest.raises(ResourceLimit):
        run_gate_circuit(big)


def test_hadamard_splits_one_qubit():
    circuit = GateCircuit(qubit_count=1, gates=(Gate(kind="h", qubits=(0,)),))
    assert run_gate_circuit(circuit).tolist() == pytest.approx([0.5, 0.5], abs=1e-15)


def test_qubit_zero_is_least_significant():
    flip0 = GateCircuit(qubit_count=2, gates=(Gate(kind="x", qubits=(0,)),))
    assert run_gate_circuit(flip0).tolist() == [0.0, 1.0, 0.0, 0.0]
    flip1 = GateCircuit(qubit_count=2, gates=(Gate(kind="x", qubits=(1,)),))
    assert run_gate_circuit(flip1).tolist() == [0.0, 0.0, 1.0, 0.0]


def test_ry_rotates_by_half_angle():
    theta = 0.77
    circuit = GateCircuit(qubit_count=1, gates=(Gate(kind="ry", qubits=(0,), angle=theta),))
    probs = run_gate_circuit(circuit)
    assert probs[0] == pytest.approx(math.cos(theta / 2.0) ** 2, abs=1e-15)
    assert probs[1] == pytest.approx(math.sin(theta / 2.0) ** 2, abs=1e-15)


def test_z_phase_is_observable_between_hadamards():
    gates = (Gate(kind="h", qubits=(0,)), Gate(kind="z", qubits=(0,)), Gate(kind="h", qubits=(0,)))
    probs = run_gate_circuit(GateCircuit(qubit_count=1, gates=gates))
    assert probs.tolist() == pytest.approx([0.0, 1.0], abs=1e-15)


def test_ccz_phase_interferes():
    # H on qubit 0 makes |110> + |111>; CCZ flips only the |111> branch and
    # the closing H converts the sign into a deterministic |111> outcome.
    gates = (
        Gate(kind="h", qubits=(0,)),
        Gate(kind="x", qubits=(1,)),
        Gate(kind="x", qubits=(2,)),
        Gate(kind="ccz", qubits=(0, 1, 2)),
        Gate(kind="h", qubits=(0,)),
    )
    probs = run_gate_circuit(GateCircuit(qubit_count=3, gates=gates))
    assert probs[7] == pytest.approx(1.0, abs=1e-12)


def test_ccz_is_diagonal_elsewhere():
    gates = (
        Gate(kind="x", qubits=(0,)),
        Gate(kind="x", qubits=(1,)),
        Gate(kind="ccz", qubits=(0, 1, 2)),
    )
    probs = run_gate_circuit(GateCircuit(qubit_count=3, gates=gates))
    assert probs[3] == pytest.approx(1.0, abs=1e-15)
