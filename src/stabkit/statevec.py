"""Dense state-vector simulator used as the independent correctness oracle.

Convention: qubit 0 is the most significant bit of the amplitude index, so
the ket string |q0 q1 ...> reads left to right. Equality of states is always
checked through fidelity, never amplitude-wise, to stay global-phase blind.

Every Circuit runs through the one op loop `_run`. Its one control
rule: a controlled op acts on the control = 1 slab of the register, in which
each target axis above the control's axis shifts down by one.
"""
from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .pauli import PauliWord
from .stabilizer import Syndrome

MAX_QUBITS = 20

_PAULI_LETTERS = {"x": "X", "y": "Y", "z": "Z", "cx": "X", "cz": "Z"}

_SQ2 = 1.0 / math.sqrt(2.0)

GATE_MATRICES = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    """exp(-i*theta*P/2) for P in {X, Y, Z}."""
    p = GATE_MATRICES[axis]
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * p


def axis_rotation_matrix(nx: float, ny: float, nz: float, theta: float) -> np.ndarray:
    """Rotation about an arbitrary Bloch axis (nx, ny, nz)."""
    p = nx * GATE_MATRICES["x"] + ny * GATE_MATRICES["y"] + nz * GATE_MATRICES["z"]
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * p


def pauli_word_matrix(word: PauliWord) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a PauliWord, including its phase."""
    if word.n > 12:
        raise ValueError("dense Pauli matrix limited to 12 qubits")
    m = np.array([[1]], dtype=complex)
    for letter in word.letters():
        m = np.kron(m, GATE_MATRICES[letter.lower()])
    return (1j ** word.phase) * m


class Op(Record):
    """One circuit step. `condition` is (classical bit indices, required
    integer value); the bit at position k of the tuple is the 2^k digit."""

    __slots__ = _fields = ("kind", "targets", "controls", "angle", "pauli", "classical_bit",
                           "condition")

    def __init__(self, kind: str, targets: tuple[int, ...] = (), controls: tuple[int, ...] = (),
                 angle: float | None = None, pauli: PauliWord | None = None,
                 classical_bit: int | None = None,
                 condition: tuple[tuple[int, ...], int] | None = None):
        self._fill(kind, targets, controls, angle, pauli, classical_bit, condition)


class Circuit:
    """Ordered gate list on n qubits and a flat classical bit array."""

    def __init__(self, n_qubits: int, n_classical: int = 0):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        self.n_classical = n_classical
        self.ops: list[Op] = []

    def _check(self, *qubits: int) -> None:
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} out of range for n={self.n_qubits}")

    def _add(self, op: Op) -> "Circuit":
        qubits = (*op.controls, *op.targets)
        self._check(*qubits)
        if len(set(qubits)) < len(qubits):
            raise ValueError(f"{op.kind} names a qubit twice in {qubits}")
        self.ops.append(op)
        return self

    def h(self, q, condition=None):
        return self._add(Op("h", (q,), condition=condition))

    def x(self, q, condition=None):
        return self._add(Op("x", (q,), condition=condition))

    def y(self, q, condition=None):
        return self._add(Op("y", (q,), condition=condition))

    def z(self, q, condition=None):
        return self._add(Op("z", (q,), condition=condition))

    def s(self, q, condition=None):
        return self._add(Op("s", (q,), condition=condition))

    def sdg(self, q, condition=None):
        return self._add(Op("sdg", (q,), condition=condition))

    def rx(self, theta, q, condition=None):
        return self._add(Op("rx", (q,), angle=float(theta), condition=condition))

    def ry(self, theta, q, condition=None):
        return self._add(Op("ry", (q,), angle=float(theta), condition=condition))

    def rz(self, theta, q, condition=None):
        return self._add(Op("rz", (q,), angle=float(theta), condition=condition))

    def cx(self, control, target, condition=None):
        return self._add(Op("cx", (target,), (control,), condition=condition))

    def cz(self, control, target, condition=None):
        return self._add(Op("cz", (target,), (control,), condition=condition))

    def swap(self, a, b, condition=None):
        return self._add(Op("swap", (a, b), condition=condition))

    def cpauli(self, control, word: PauliWord, targets=None, condition=None):
        """Controlled Pauli word; `targets` defaults to qubits 0..word.n-1."""
        if targets is None:
            targets = tuple(range(word.n))
        targets = tuple(targets)
        if len(targets) != word.n:
            raise ValueError("target count must equal word size")
        return self._add(Op("cpauli", targets, (control,), pauli=word, condition=condition))

    def measure(self, q, classical_bit):
        if classical_bit is None or not 0 <= classical_bit < self.n_classical:
            raise ValueError(f"classical bit {classical_bit} out of range")
        return self._add(Op("measure", (q,), classical_bit=classical_bit))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Circuit)
            and self.n_qubits == other.n_qubits
            and self.n_classical == other.n_classical
            and self.ops == other.ops
        )

    def __repr__(self) -> str:
        return f"Circuit(n={self.n_qubits}, ops={len(self.ops)})"


class StateVector:
    """2^n complex amplitudes, kept normalized to 1 within 1e-10."""

    def __init__(self, n: int, amps: np.ndarray | None = None):
        if n < 1:
            raise ValueError("need at least one qubit")
        if n > MAX_QUBITS:
            raise ValueError(f"refusing n={n} qubits (> {MAX_QUBITS}); the oracle is desk-scale")
        self.n = n
        if amps is None:
            self.amps = np.zeros(1 << n, dtype=complex)
            self.amps[0] = 1.0
        else:
            amps = np.asarray(amps, dtype=complex)
            if amps.shape != (1 << n,):
                raise ValueError("amplitude count must be 2^n")
            norm = np.linalg.norm(amps)
            if abs(norm - 1.0) > 1e-8:
                raise ValueError(f"state not normalized (norm {norm})")
            self.amps = amps.copy()

    @classmethod
    def basis(cls, n: int, index: int) -> "StateVector":
        s = cls(n)
        s.amps[0] = 0.0
        s.amps[index] = 1.0
        return s

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __repr__(self) -> str:
        return f"StateVector(n={self.n})"


class MeasurementRecord:
    """Outcomes of the measurements executed by one apply() call;
    `probability` is the joint Born probability of the taken branch."""

    def __init__(self, bits: dict[int, int] | None = None, outcomes: list[int] | None = None,
                 probability: float = 1.0):
        self.bits = {} if bits is None else bits
        self.outcomes = [] if outcomes is None else outcomes
        self.probability = probability


def _view(state: StateVector) -> np.ndarray:
    return state.amps.reshape([2] * state.n)


def _apply_1q(state: StateVector, mat: np.ndarray, q: int) -> None:
    a = state.amps.reshape(1 << q, 2, -1)
    a0 = a[:, 0, :].copy()
    a1 = a[:, 1, :].copy()
    a[:, 0, :] = mat[0, 0] * a0 + mat[0, 1] * a1
    a[:, 1, :] = mat[1, 0] * a0 + mat[1, 1] * a1


def _apply_pauli_slab(sub: np.ndarray, letters: str, axes: list[int], phase: int = 0) -> np.ndarray:
    """i^phase times the Pauli `letters` applied to an ndarray view, as a new
    array; axes[q] is the array axis of letter q."""
    out = sub
    for q, letter in enumerate(letters):
        if letter == "I":
            continue
        ax = axes[q]
        if letter in ("X", "Y"):
            out = np.flip(out, axis=ax)
        if letter in ("Z", "Y"):
            shape = [1] * out.ndim
            shape[ax] = 2
            sign = np.array([1, -1], dtype=complex).reshape(shape)
            if letter == "Y":
                # after the flip, amplitude entering index 0 is scaled by -i
                sign = np.array([-1j, 1j], dtype=complex).reshape(shape)
            out = out * sign
    return out * (1j ** phase)


def apply_pauli(state: StateVector, word: PauliWord) -> None:
    """In-place action of a PauliWord on the full register."""
    if word.n != state.n:
        raise ValueError("qubit count mismatch")
    v = _view(state)
    state.amps = _apply_pauli_slab(v, word.letters(), list(range(state.n)), word.phase).reshape(-1)


def _measure(state: StateVector, q: int, rng, forced: int | None) -> tuple[int, float]:
    """Project axis q onto one outcome; returns (outcome, branch probability).

    P(0) is w0 / (w0 + w1) from the two branch weights, and the kept branch
    is divided by its own norm, so a state that has drifted in norm is
    renormalised exactly instead of having the drift amplified by 1/prob.
    """
    a = state.amps.reshape(1 << q, 2, -1)
    w = [float(np.vdot(b, b).real) for b in (a[:, 0].ravel(), a[:, 1].ravel())]
    p0 = w[0] / (w[0] + w[1])
    if forced is not None:
        outcome = int(forced)
    elif rng is not None:
        outcome = 0 if rng.random() < p0 else 1
    elif p0 > 1.0 - 1e-9:
        outcome = 0
    elif p0 < 1e-9:
        outcome = 1
    else:
        raise ValueError(
            f"measurement outcome is random (P(0)={p0:.3g}); pass an rng or force a branch"
        )
    prob = w[outcome] / (w[0] + w[1])
    if prob <= 1e-300:
        raise ValueError(f"postselected branch q{q}={outcome} has zero probability")
    a[:, 1 - outcome, :] = 0.0
    a[:, outcome, :] /= math.sqrt(w[outcome])
    return outcome, prob


def _condition_met(cond, bits: dict[int, int]) -> bool:
    if cond is None:
        return True
    idxs, value = cond
    acc = 0
    for k, b in enumerate(idxs):
        acc |= (bits.get(b, 0) & 1) << k
    return acc == value


def _run(
    ops, state: StateVector | None, order: list[int], last_use: dict[int, int],
    rng, forced_outcomes,
) -> tuple[MeasurementRecord, StateVector | None]:
    """The one op loop. Register axis j holds qubit order[j]; a qubit not in
    `order` enters as a fresh |0> at its first use, and a measured qubit
    leaves the register when the measurement is its `last_use` op index.
    `order` is updated in place; returns the record and the final state."""
    record = MeasurementRecord()
    forced = iter(() if forced_outcomes is None else forced_outcomes)
    for i, op in enumerate(ops):
        if not _condition_met(op.condition, record.bits):
            continue
        for q in (*op.controls, *op.targets):
            if q not in order:
                order.append(q)
                fresh = np.array([1.0, 0.0])
                state = StateVector(len(order), fresh if state is None else np.kron(state.amps, fresh))
        if op.kind != "measure":
            _apply_unitary_op(state, op, order.index)
            continue
        q = op.targets[0]
        ax = order.index(q)
        outcome, prob = _measure(state, ax, rng, next(forced, None))
        record.outcomes.append(outcome)
        record.probability *= prob
        if op.classical_bit is not None:
            record.bits[op.classical_bit] = outcome
        if last_use.get(q) == i:
            order.pop(ax)
            kept = state.amps.reshape(1 << ax, 2, -1)[:, outcome, :]
            state = StateVector(len(order), kept.reshape(-1)) if order else None
    return record, state


def apply(
    state: StateVector,
    circuit: Circuit | Op,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
) -> MeasurementRecord:
    """Run a circuit (or single op) in place; returns measurement record.

    `forced_outcomes` postselects measurement branches in program order,
    renormalizing and recording the joint branch probability.
    """
    if isinstance(circuit, Op):
        circuit = Circuit(state.n)._add(circuit)
    if circuit.n_qubits != state.n:
        raise ValueError("circuit/state qubit count mismatch")
    record, _ = _run(circuit.ops, state, list(range(state.n)), {}, rng, forced_outcomes)
    if not record.outcomes:
        drift = abs(np.linalg.norm(state.amps) - 1.0)
        if drift > 1e-10:
            raise AssertionError(f"norm drifted by {drift}")
    return record


def _apply_unitary_op(state: StateVector, op: Op, axis) -> None:
    """Apply a non-measurement op; `axis` maps a qubit id to its register axis.

    A controlled op acts on the slab v[(slice(None),) * c + (1,)] of the
    register view v, where c is the control's axis; in that slab a target
    axis t > c is axis t - 1. Paulis (x, y, z, cx, cz, cpauli) go through
    _apply_pauli_slab, swap is np.swapaxes, and h, s, sdg and the rotations
    go through their 2x2 matrix.
    """
    ts = [axis(q) for q in op.targets]
    if op.kind in ("h", "s", "sdg"):
        return _apply_1q(state, GATE_MATRICES[op.kind], ts[0])
    if op.kind in ("rx", "ry", "rz"):
        return _apply_1q(state, rotation_matrix(op.kind[1], op.angle), ts[0])
    v = _view(state)
    sl: tuple = ()
    if op.controls:
        c = axis(op.controls[0])
        sl = (slice(None),) * c + (1,)
        ts = [t - (t > c) for t in ts]
    if op.kind == "swap":
        v[sl] = np.swapaxes(v[sl], *ts)
    elif op.kind in _PAULI_LETTERS:
        v[sl] = _apply_pauli_slab(v[sl], _PAULI_LETTERS[op.kind], ts)
    elif op.kind == "cpauli":
        v[sl] = _apply_pauli_slab(v[sl], op.pauli.letters(), ts, op.pauli.phase)
    else:
        raise ValueError(f"unsupported op kind {op.kind!r}")


def apply_with_recycling(
    circuit: Circuit,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
) -> tuple[MeasurementRecord, StateVector | None, list[int]]:
    """Simulate a circuit while keeping only live qubits in the register.

    Qubits enter the state lazily (fresh |0>) at first use and are dropped
    right after their final measurement, so wide ancilla-heavy circuits
    (e.g. code demos) run at their peak *live* width instead of their
    declared width. Returns (record, final state, live qubit ids); the
    state is None when everything has been measured away.
    """
    last_use = {q: i for i, op in enumerate(circuit.ops) for q in (*op.controls, *op.targets)}
    order: list[int] = []
    record, state = _run(circuit.ops, None, order, last_use, rng, forced_outcomes)
    return record, state, order


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def expectation_pauli(state: StateVector, word: PauliWord) -> float:
    """Real expectation <psi|P|psi>; rejects non-Hermitian phases (i, -i)."""
    if word.n != state.n:
        raise ValueError("qubit count mismatch")
    if word.phase % 2 == 1:
        raise ValueError("word with phase i^odd is not Hermitian")
    tmp = state.copy()
    apply_pauli(tmp, word)
    val = complex(np.vdot(state.amps, tmp.amps))
    if abs(val.imag) > 1e-9:
        raise AssertionError(f"expectation has imaginary part {val.imag}")
    return float(val.real)


def swap_test_expectation(a: StateVector, b: StateVector) -> float:
    """Ancilla <Z> of the swap test between two n-qubit states.

    Simulates the literal circuit: H on an ancilla, controlled-SWAP of the
    two registers, H, then reads P(0) - P(1) off the ancilla. The
    controlled-SWAP is applied as the exact register-exchange permutation.
    Equals |<a|b>|^2.
    """
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    n = a.n
    total = 1 + 2 * n
    if total > MAX_QUBITS:
        raise ValueError("states too large for the swap test oracle")
    amps = np.kron(np.array([1.0, 0.0], dtype=complex), np.kron(a.amps, b.amps))
    full = StateVector(total, amps)
    apply(full, Op("h", (0,)))
    # controlled swap: on the ancilla=1 slab, exchange the two n-qubit registers
    v = full.amps.reshape(2, 1 << n, 1 << n)
    v[1] = v[1].T.copy()
    apply(full, Op("h", (0,)))
    p0 = float(np.sum(np.abs(full.amps.reshape(2, -1)[0]) ** 2))
    return p0 - (1.0 - p0)


def encode(bundle, input_state: StateVector) -> StateVector:
    """Map a k-qubit input to its logical n-qubit state: input qubit j
    enters on qubit j, the other n - k qubits start in |0>, and the
    bundle's encoder circuit runs on the register."""
    n, k, _ = bundle.params
    if input_state.n != k:
        raise ValueError(f"input has {input_state.n} qubits; {bundle.name} encodes {k}")
    full = StateVector(n)  # refuses n > MAX_QUBITS before 2^n amplitudes exist
    full.amps = np.kron(input_state.amps, full.amps[: 1 << (n - k)])
    apply(full, bundle.encoder)
    return full


def hadamard_test_syndrome(
    state: StateVector,
    generators,
    rng: np.random.Generator | None = None,
    postselect: list[int] | None = None,
) -> tuple[Syndrome, StateVector]:
    """Extract the syndrome of `state` with one Hadamard test per generator.

    One circuit on n + l qubits: ancilla n+i gets H, the controlled
    generator i, H, and a measurement into bit i. `_run` adds each ancilla
    as a fresh |0> at its first gate and drops it after its measurement, so
    the peak register is n+1 qubits. `postselect` forces the l outcomes.
    For states of the form E|psi>_L with Pauli E, every measurement is
    deterministic.
    """
    generators = list(generators)
    n, l = state.n, len(generators)
    if any(g.n != n for g in generators):
        raise ValueError("generator size mismatch")
    if postselect is not None and len(postselect) != l:
        raise ValueError(f"postselect has {len(postselect)} outcomes for {l} generators")
    circ = Circuit(n + l, n_classical=l)
    last_use = {}
    for i, g in enumerate(generators):
        circ.h(n + i).cpauli(n + i, g).h(n + i).measure(n + i, i)
        last_use[n + i] = len(circ.ops) - 1
    record, post = _run(circ.ops, state.copy(), list(range(n)), last_use, rng, postselect)
    return Syndrome(tuple(record.outcomes)), post
