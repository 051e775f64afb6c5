"""Three-qubit circuits realizing optimal plans for 'half-half' priors.

A half-half prior puts weight 1/8 + sigma on four locations and 1/8 - sigma
on the other four.  Its single-query optimal plan needs only one rotation
angle: state preparation is H on qubits 0 and 1 plus RY(theta) on qubit 2,
so basis states with qubit-2 bit 0 (the high block, outcomes 0-3) carry
squared amplitude cos^2(theta/2)/4 = q_hi and the rest carry
sin^2(theta/2)/4 = q_lo.  One Grover iteration is then:

    A | oracle (X-conjugated CCZ) | A-dagger | reflection about |000> | A

Solution labels read left to right from qubit 2 down to qubit 0, so label
"b2b1b0" names outcome index int(label, 2).
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import InvalidInput, NumericalFailure, ResourceLimit
from .optimizer import optimize
from .prior import Prior, new_prior
from .simulator import MAX_QUBITS, Gate, GateCircuit

#: Reference rotation angles for the eight benchmark deviations sigma = j/80,
#: j = 1..8; independently recomputed values must land within 1e-3 of these.
REFERENCE_THETA = (
    (1.0 / 80.0, 1.48725065),
    (2.0 / 80.0, 1.40239865),
    (3.0 / 80.0, 1.31480465),
    (4.0 / 80.0, 1.22272065),
    (5.0 / 80.0, 1.12383265),
    (6.0 / 80.0, 1.01471265),
    (7.0 / 80.0, 0.88979265),
    (8.0 / 80.0, 0.73831265),
)

_BLOCK_TOL = 1e-10


def halfhalf_prior(sigma: float) -> Prior:
    """The prior (1/8+sigma) x4, (1/8-sigma) x4."""
    if not 0.0 <= sigma < 0.125:
        raise InvalidInput(f"sigma must lie in [0, 1/8), got {sigma!r}")
    return new_prior([0.125 + sigma] * 4 + [0.125 - sigma] * 4)


def theta_for_sigma(sigma: float) -> float:
    """Preparation angle of the optimal single-query half-half plan.

    Solves the 8-item problem with the general optimizer, checks that the
    four high-block (and four low-block) amplitudes agree, and maps the
    common high value through theta = 2 acos(2 sqrt(q_hi)).  The low block
    must satisfy the complementary identity sin^2(theta/2)/4 = q_lo; a
    violation means the solver output is not realizable by one rotation.
    """
    p = halfhalf_prior(sigma)
    q = optimize(p, 1).q
    q_hi = q[:4]
    q_lo = q[4:]
    spread_hi = float(np.ptp(q_hi))
    spread_lo = float(np.ptp(q_lo))
    if spread_hi > _BLOCK_TOL or spread_lo > _BLOCK_TOL:
        raise NumericalFailure(
            f"block amplitudes not constant: spread {spread_hi!r}/{spread_lo!r}"
        )
    hi = float(q_hi.mean())
    lo = float(q_lo.mean())
    theta = 2.0 * math.acos(2.0 * math.sqrt(hi))
    if abs(math.sin(0.5 * theta) ** 2 / 4.0 - lo) > _BLOCK_TOL:
        raise NumericalFailure(
            f"theta = {theta!r} does not reproduce the low block {lo!r}"
        )
    return theta


def _prep(theta: float) -> list:
    return [Gate("h", (0,)), Gate("h", (1,)), Gate("ry", (2,), theta)]


def _oracle(solution: str) -> list:
    # X on every qubit whose solution bit is 0 turns the bare CCZ (which
    # tags |111>) into a phase flip on exactly the marked basis state.
    flips = [Gate("x", (qb,)) for qb in range(3) if solution[2 - qb] == "0"]
    return flips + [Gate("ccz", (0, 1, 2))] + flips


def build_halfhalf_circuit(theta: float, solution: str) -> GateCircuit:
    """One full Grover iteration for the half-half plan with angle theta.

    The diffusion block A (reflect about |000>) A-dagger equals the
    reflection about the prepared state, so the whole gate list implements
    exactly one optimal query.  Exactly two CCZs appear: one inside the
    oracle, one inside the reflection.
    """
    solution_outcome(solution)
    all_x = [Gate("x", (qb,)) for qb in range(3)]
    gates = (
        _prep(theta)
        + _oracle(solution)
        + [Gate("h", (0,)), Gate("h", (1,)), Gate("ry", (2,), -theta)]
        + all_x
        + [Gate("ccz", (0, 1, 2))]
        + all_x
        + _prep(theta)
    )
    return GateCircuit(qubit_count=3, gates=tuple(gates), solution_label=solution)


def emit_qasm(circuit: GateCircuit) -> str:
    """OpenQASM 2.0 text for a circuit; byte-deterministic.

    CCZ is lowered to the qelib1-standard h/ccx/h sandwich on its last qubit.
    Angles carry 17 significant digits so they round-trip losslessly.
    """
    if circuit.qubit_count > MAX_QUBITS:
        raise ResourceLimit(f"refusing to emit beyond the {MAX_QUBITS}-qubit cap")
    k = circuit.qubit_count
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    if circuit.solution_label:
        lines.append(f"// solution: {circuit.solution_label}")
    lines.append(f"qreg q[{k}];")
    lines.append(f"creg c[{k}];")
    for g in circuit.gates:
        if g.kind in ("h", "x", "z"):
            lines.append(f"{g.kind} q[{g.qubits[0]}];")
        elif g.kind == "ry":
            lines.append(f"ry({g.angle:.17g}) q[{g.qubits[0]}];")
        else:  # ccz
            qa, qb, qc = g.qubits
            lines.append(f"h q[{qc}];")
            lines.append(f"ccx q[{qa}],q[{qb}],q[{qc}];")
            lines.append(f"h q[{qc}];")
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"


# The emitted dialect, and nothing else: the header (with the solution
# comment only when the circuit is labelled), then gate tokens read at a
# cursor, then the measure line.  A CCZ comes back from its h/ccx/h
# sandwich, whose two h gates must sit on the ccx target.  Indices and the
# register size have at most two digits, as emit_qasm stops at MAX_QUBITS.
_QASM_HEADER = re.compile(
    r'OPENQASM 2\.0;\ninclude "qelib1\.inc";\n'
    r"(?:// solution: (?P<solution>[01]+)\n)?"
    r"qreg q\[(?P<k>\d{1,2})\];\ncreg c\[(?P=k)\];\n"
)
_QASM_GATE = re.compile(
    r"h q\[(?P<c>\d{1,2})\];\n"
    r"ccx q\[(?P<a>\d{1,2})\],q\[(?P<b>\d{1,2})\],q\[(?P=c)\];\nh q\[(?P=c)\];\n"
    r"|(?P<kind>[hxz]) q\[(?P<q>\d{1,2})\];\n"
    r"|ry\((?P<angle>[-+.0-9e]+)\) q\[(?P<rq>\d{1,2})\];\n"
)
_QASM_END = "measure q -> c;\n"


def parse_qasm(text: str) -> GateCircuit:
    """Reader for exactly the text that :func:`emit_qasm` writes.

    Any other text, even one the OpenQASM standard allows (comments, blank
    lines, other spacing or a missing measure line), is rejected.
    """
    header = _QASM_HEADER.match(text)
    if header is None or not text.endswith(_QASM_END):
        raise InvalidInput("cannot parse QASM: not the emitted header and measure line")
    pos, end = header.end(), len(text) - len(_QASM_END)
    gates = []
    while pos < end:
        m = _QASM_GATE.match(text, pos, end)
        if m is None:
            line = text[pos:].partition("\n")[0]
            raise InvalidInput(f"cannot parse QASM line: {line!r}")
        if m["c"] is not None:
            gates.append(Gate("ccz", (int(m["a"]), int(m["b"]), int(m["c"]))))
        elif m["kind"] is not None:
            gates.append(Gate(m["kind"], (int(m["q"]),)))
        else:
            try:
                angle = float(m["angle"])
            except ValueError as exc:
                raise InvalidInput(f"bad ry angle in QASM: {m['angle']!r}") from exc
            gates.append(Gate("ry", (int(m["rq"]),), angle))
        pos = m.end()
    return GateCircuit(
        qubit_count=int(header["k"]),
        gates=tuple(gates),
        solution_label=header["solution"] or "",
    )


def block_amplitude(theta: float, high: bool) -> float:
    """Squared per-item amplitude of the high or low block for a given theta."""
    half = 0.5 * theta
    return (math.cos(half) ** 2 if high else math.sin(half) ** 2) / 4.0


def solution_outcome(solution: str) -> int:
    """Basis index named by a 'b2b1b0' label (qubit 0 is the LSB)."""
    if len(solution) != 3 or any(ch not in "01" for ch in solution):
        raise InvalidInput(f"solution must be 3 bits, got {solution!r}")
    return int(solution, 2)


def in_high_block(solution: str) -> bool:
    """True when the labelled outcome lies in the heavier (qubit-2 = 0) block."""
    return solution_outcome(solution) < 4
