"""Exact statevector simulation in real (float64) arithmetic.

Two executable forms are covered, both exact (no sampling, no noise):

* the abstract iteration on an (N+1)-dimensional vector, where index 0 is a
  sink component carrying the leftover amplitude sqrt(1 - sum(q)) and indices
  1..N are the items — one oracle sign flip plus one reflection about the
  initial state per query;
* gate-level circuits over k qubits (k <= 12), used to validate the emitted
  3-qubit circuits against the abstract model.

Basis convention for circuits: basis index = sum_j bit_j * 2^j with qubit 0
as the least significant bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidInput, NumericalFailure, ResourceLimit, check_int
from .esp import AmplitudePlan

#: Largest gate-level register; dense vectors stay desk-sized below this.
MAX_QUBITS = 12

_NORM_TOL = 1e-10

_GATE_ARITY = {"h": 1, "x": 1, "z": 1, "ry": 1, "ccz": 3}

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class Gate:
    """One gate application: kind in {h, x, z, ry, ccz}, qubit indices, angle for ry."""

    kind: str
    qubits: Tuple[int, ...]
    angle: Optional[float] = None

    def __post_init__(self):
        kind = str(self.kind).lower()
        if kind not in _GATE_ARITY:
            raise InvalidInput(f"unknown gate kind {self.kind!r}")
        qubits = tuple(self.qubits)
        for qb in qubits:
            check_int(qb, "qubit")
        qubits = tuple(int(qb) for qb in qubits)
        if len(qubits) != _GATE_ARITY[kind]:
            raise InvalidInput(f"{kind} takes {_GATE_ARITY[kind]} qubit(s), got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise InvalidInput(f"{kind} qubits must be distinct, got {qubits}")
        if kind == "ry":
            real = isinstance(self.angle, numbers.Real) and not isinstance(self.angle, bool)
            if not real or not math.isfinite(self.angle):
                raise InvalidInput(f"ry needs a finite real angle, got {self.angle!r}")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise InvalidInput(f"{kind} takes no angle")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "qubits", qubits)


@dataclass(frozen=True)
class GateCircuit:
    """Ordered gate list over a small register, with an optional solution label."""

    qubit_count: int
    gates: Tuple[Gate, ...]
    solution_label: str = ""

    def __post_init__(self):
        check_int(self.qubit_count, "qubit_count", 1)
        gates = tuple(self.gates)
        for g in gates:
            if max(g.qubits) >= self.qubit_count:
                raise InvalidInput(
                    f"gate {g.kind} on {g.qubits} exceeds register of {self.qubit_count}"
                )
        if self.solution_label and (
            len(self.solution_label) != self.qubit_count
            or any(ch not in "01" for ch in self.solution_label)
        ):
            raise InvalidInput(f"bad solution label {self.solution_label!r}")
        object.__setattr__(self, "gates", gates)


def prepare_state(plan: AmplitudePlan) -> np.ndarray:
    """Initial state (sqrt(1-sum q), sqrt(q_1), ..., sqrt(q_N)), read-only."""
    s = np.empty(plan.n + 1)
    s[0] = math.sqrt(max(0.0, 1.0 - float(plan.q.sum())))
    s[1:] = np.sqrt(plan.q)
    s.setflags(write=False)
    return s


def run_iterations(plan: AmplitudePlan, x: int) -> float:
    """Success probability of measuring item x after plan.t Grover iterations.

    Each iteration flips the sign of amplitude x (phase oracle) and reflects
    about the initial state |s>.  The reflection is applied as
    2 s (s.a) - a; the opposite sign convention differs by a global phase
    only, which cannot change any measured probability.
    """
    if not 1 <= x <= plan.n:
        raise InvalidInput(f"item index must be in [1, {plan.n}], got {x}")
    s = prepare_state(plan)
    a = s.copy()
    for _ in range(plan.t):
        a[x] = -a[x]
        a = 2.0 * s * float(s @ a) - a
        norm = float(a @ a)
        if abs(norm - 1.0) > _NORM_TOL:
            raise NumericalFailure(f"iteration lost unitarity: norm^2 = {norm!r}")
    return float(a[x]) ** 2


def _apply_gate(psi: np.ndarray, gate: Gate) -> np.ndarray:
    if gate.kind == "ccz":
        qa, qb, qc = gate.qubits
        idx = np.arange(psi.size)
        mask = ((idx >> qa) & (idx >> qb) & (idx >> qc) & 1).astype(bool)
        psi = psi.copy()
        psi[mask] = -psi[mask]
        return psi
    if gate.kind == "h":
        u = _H
    elif gate.kind == "x":
        u = _X
    elif gate.kind == "z":
        u = _Z
    else:  # ry
        half = 0.5 * gate.angle
        u = np.array(
            [
                [math.cos(half), -math.sin(half)],
                [math.sin(half), math.cos(half)],
            ]
        )
    (target,) = gate.qubits
    # (high bits, target bit, low bits): u acts on the middle axis.
    view = psi.reshape(-1, 2, 1 << target)
    return np.moveaxis(np.tensordot(u, view, axes=([1], [1])), 0, 1).reshape(-1)


def run_gate_circuit(circuit: GateCircuit) -> np.ndarray:
    """Outcome probabilities of the circuit applied to |0...0>."""
    k = circuit.qubit_count
    if k > MAX_QUBITS:
        raise ResourceLimit(f"{k} qubits exceeds the {MAX_QUBITS}-qubit cap")
    psi = np.zeros(2**k)
    psi[0] = 1.0
    for gate in circuit.gates:
        psi = _apply_gate(psi, gate)
        norm = float(psi @ psi)
        if abs(norm - 1.0) > _NORM_TOL:
            raise NumericalFailure(
                f"gate {gate.kind} on {gate.qubits} lost unitarity: norm^2 = {norm!r}"
            )
    return psi * psi
