import math
import re

import numpy as np
import pytest

from qsearch import (
    REFERENCE_THETA,
    GateCircuit,
    Gate,
    InvalidInput,
    ResourceLimit,
    block_amplitude,
    build_halfhalf_circuit,
    emit_qasm,
    esp,
    halfhalf_prior,
    in_high_block,
    optimize,
    parse_qasm,
    run_gate_circuit,
    run_iterations,
    solution_outcome,
    theta_for_sigma,
)

ALL_LABELS = [format(i, "03b") for i in range(8)]


def test_reference_angles_reproduced():
    for sigma, reference in REFERENCE_THETA:
        assert theta_for_sigma(sigma) == pytest.approx(reference, abs=1e-3)


def test_uniform_prior_needs_right_angle():
    # sigma = 0 collapses to the uniform plan q = 1/8, i.e. theta = pi/2
    assert theta_for_sigma(0.0) == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_smallest_deviation_angle_to_solver_precision():
    # independent root of the two-block stationarity balance at sigma = 1/80
    # (scipy.optimize.brentq on (1/8+s) g'(q) = (1/8-s) g'(1/4-q), xtol=1e-16)
    assert theta_for_sigma(1.0 / 80.0) == pytest.approx(1.4872497711443937, abs=1e-9)


def test_prior_shape():
    p = halfhalf_prior(0.05)
    assert p.weights[:4].tolist() == pytest.approx([0.175] * 4, abs=1e-15)
    assert p.weights[4:].tolist() == pytest.approx([0.075] * 4, abs=1e-15)
    with pytest.raises(InvalidInput):
        halfhalf_prior(0.125)
    with pytest.raises(InvalidInput):
        halfhalf_prior(-0.01)


@pytest.mark.parametrize("label", ["", "10", "1010", "1a1", 101, None])
def test_build_rejects_malformed_label(label):
    with pytest.raises(InvalidInput):
        solution_outcome(label)
    with pytest.raises(InvalidInput):
        build_halfhalf_circuit(1.0, label)


def test_block_helpers():
    assert solution_outcome("101") == 5
    assert solution_outcome("011") == 3
    assert in_high_block("011") is True
    assert in_high_block("100") is False
    with pytest.raises(InvalidInput):
        solution_outcome("12")
    assert block_amplitude(math.pi / 2.0, True) == pytest.approx(0.125, abs=1e-15)
    assert block_amplitude(math.pi / 2.0, False) == pytest.approx(0.125, abs=1e-15)
    total = 4 * block_amplitude(0.9, True) + 4 * block_amplitude(0.9, False)
    assert total == pytest.approx(1.0, abs=1e-15)


def test_circuit_structure_unmarked_oracle():
    theta = theta_for_sigma(0.05)
    circuit = build_halfhalf_circuit(theta, "111")
    kinds = tuple(g.kind for g in circuit.gates)
    assert kinds == (
        "h", "h", "ry",
        "ccz",
        "h", "h", "ry",
        "x", "x", "x", "ccz", "x", "x", "x",
        "h", "h", "ry",
    )
    assert circuit.qubit_count == 3
    assert circuit.solution_label == "111"
    angles = [g.angle for g in circuit.gates if g.kind == "ry"]
    assert angles == [theta, -theta, theta]


def test_circuit_structure_fully_flipped_oracle():
    circuit = build_halfhalf_circuit(theta_for_sigma(0.05), "000")
    kinds = [g.kind for g in circuit.gates]
    assert kinds.count("ccz") == 2
    assert len(circuit.gates) == 23
    # the oracle X-conjugation targets every qubit for the all-zeros label
    assert [g.kind for g in circuit.gates[3:10]] == ["x", "x", "x", "ccz", "x", "x", "x"]


def test_oracle_flips_follow_label_bits():
    circuit = build_halfhalf_circuit(theta_for_sigma(0.05), "101")
    first_ccz = next(i for i, g in enumerate(circuit.gates) if g.kind == "ccz")
    assert circuit.gates[first_ccz - 1] == Gate("x", (1,))
    assert circuit.gates[first_ccz + 1] == Gate("x", (1,))


@pytest.mark.parametrize("sigma", [0.0, 1.0 / 80.0, 8.0 / 80.0])
def test_circuit_agrees_with_abstract_iteration(sigma):
    p = halfhalf_prior(sigma)
    plan = optimize(p, 1)
    theta = theta_for_sigma(sigma)
    simulated = np.empty(8)
    for outcome, label in enumerate(ALL_LABELS):
        circuit = build_halfhalf_circuit(theta, label)
        probs = run_gate_circuit(circuit)
        predicted = run_iterations(plan, outcome + 1)
        assert probs[outcome] == pytest.approx(predicted, abs=1e-10)
        simulated[outcome] = probs[outcome]
    averaged = float(p.weights @ simulated)
    assert averaged == pytest.approx(esp(p, plan), abs=1e-10)


def test_qasm_minimal_circuit_lines():
    circuit = GateCircuit(qubit_count=1, gates=(Gate("h", (0,)),))
    text = emit_qasm(circuit)
    assert text.splitlines() == [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        "qreg q[1];",
        "creg c[1];",
        "h q[0];",
        "measure q -> c;",
    ]
    assert text.endswith("\n")
    assert emit_qasm(circuit) == text


def test_qasm_angle_formatting():
    theta = theta_for_sigma(0.05)
    text = emit_qasm(build_halfhalf_circuit(theta, "110"))
    assert f"ry({theta:.17g}) q[2];" in text
    assert f"ry({-theta:.17g}) q[2];" in text
    assert text.count("ry(") == 3
    assert text.count("ccx") == 2
    assert "// solution: 110" in text


def test_qasm_round_trip_with_label():
    # the whole emitted family: sigma = j/80 for j = 0..9, times the 8 labels
    for j in range(10):
        theta = theta_for_sigma(j / 80.0)
        for label in ALL_LABELS:
            circuit = build_halfhalf_circuit(theta, label)
            assert parse_qasm(emit_qasm(circuit)) == circuit, (j, label)


def test_qasm_round_trip_without_label():
    circuit = GateCircuit(
        qubit_count=2,
        gates=(Gate("h", (0,)), Gate("ry", (1,), 0.3), Gate("z", (1,)), Gate("x", (0,))),
    )
    recovered = parse_qasm(emit_qasm(circuit))
    assert recovered == circuit
    assert recovered.solution_label == ""


def test_qasm_emit_register_cap():
    with pytest.raises(ResourceLimit):
        emit_qasm(GateCircuit(qubit_count=13, gates=()))


def emitted_around(body):
    """body between the emitted header and measure line; a qreg q[k] line gains its creg c[k]."""
    body = re.sub(r"qreg q\[(\d+)\];\n", r"\g<0>creg c[\1];\n", body)
    return f'OPENQASM 2.0;\ninclude "qelib1.inc";\n{body}measure q -> c;\n'


def test_emitted_around_a_good_body_parses():
    # so that each rejection below is the grammar's verdict on its body
    circuit = parse_qasm(emitted_around("qreg q[3];\nh q[2];\nccx q[0],q[1],q[2];\nh q[2];\n"))
    assert circuit == GateCircuit(qubit_count=3, gates=(Gate("ccz", (0, 1, 2)),))


@pytest.mark.parametrize(
    "text",
    [
        "qreg q[2];\ncnot q[0],q[1];\n",
        "h q[0];\n",  # no qreg
        "qreg q[3];\nh q[2];\nccx q[0],q[1],q[2];\nx q[2];\n",
        "qreg q[3];\nccx q[0],q[1],q[2];\n",
        "qreg q[3];\nh q[2];\nccx q[0],q[1],q[2];\n",
        "qreg q[3];\nry(bad) q[0];\n",
        "qreg q[3];\nh q[2];\nccx q[0],q[1],q[2];\nccx q[0],q[1],q[2];\n",  # ccx in a sandwich
        "qreg q[3];\nh q[2];\nccx q[0],q[1],q[2];\nry(0.5) q[2];\n",  # ry in a sandwich
        "qreg q[3];\nh q[1];\nccx q[0],q[1],q[2];\nh q[2];\n",  # opening h on another qubit
        "qreg q[3];\nh q[2];\nccx q[0],q[1],q[2];\nh q[1];\n",  # closing h on another qubit
        "qreg q[3];\nh q[0];\n// note\nh q[1];\n",  # comment between gates
        "qreg q[3];\nh q[0];\n\nh q[1];\n",  # blank line between gates
        "qreg q[3];\nry(1.2.3) q[0];\n",  # angle that float() refuses
    ],
)
def test_qasm_parse_rejects(text):
    with pytest.raises(InvalidInput):
        parse_qasm(emitted_around(text))


LABELLED = emit_qasm(
    GateCircuit(qubit_count=3, gates=(Gate("h", (0,)), Gate("ccz", (0, 1, 2))), solution_label="101")
)


@pytest.mark.parametrize(
    "text",
    [
        LABELLED.replace("measure q -> c;\n", ""),
        LABELLED.replace("measure q -> c;\n", "x q[0];\nx q[1];\n"),  # as long as the measure line
        LABELLED.replace("creg c[3];", "creg c[2];"),
        LABELLED.replace("// solution: 101\nqreg q[3];\n", "qreg q[3];\n// solution: 101\n"),
        LABELLED.replace("// solution: 101\n", "// solution: 1x1\n"),
        LABELLED.replace("qreg q[3];\n", "measure q -> c;\nqreg q[2];\nqreg q[3];\n"),
        LABELLED.replace("\nccx", "\n// note\nccx"),
        LABELLED.replace("\nccx", "\n\nccx"),
        LABELLED.replace("],q[", "], q["),
        LABELLED.replace("\n", "\r\n"),
        "qreg q[3];\nh q[2];\n",
        LABELLED.replace("h q[0];", "h q[" + "9" * 5000 + "];"),
        LABELLED.replace("q[3];\ncreg c[3]", "q[{0}];\ncreg c[{0}]".format("9" * 5000)),
    ],
    ids=[
        "no-measure",
        "gates-for-measure",
        "creg-size",
        "solution-after-qreg",
        "solution-not-bits",
        "measure-first-two-qregs",
        "comment-in-sandwich",
        "blank-in-sandwich",
        "spaced-ccx",
        "crlf",
        "bare-body",
        "long-index",
        "long-register",
    ],
)
def test_qasm_parse_rejects_what_emit_never_writes(text):
    assert text != LABELLED
    with pytest.raises(InvalidInput):
        parse_qasm(text)
