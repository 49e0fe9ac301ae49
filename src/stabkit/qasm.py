"""OpenQASM 3.0 emission for circuits and full code demos, plus the
minimal reader used by round-trip tests.

Output is deterministic: fixed register order, one statement per line,
angles rendered with repr (shortest round-trip form). Classical registers
compare little-endian in `if` conditions: bit 0 is the least significant.
"""
from __future__ import annotations

import math
import re

from ._record import Record
from .montecarlo import NoiseModel, _noise_coins
from .stabilizer import build_syndrome_table
from .statevec import Circuit, Op

HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'

# gate name -> (angle count, qubit count), the arguments of the Circuit
# method of that name; a gate is written `name[(angle)] controls, targets;`
_GATES = {**dict.fromkeys(("h", "x", "y", "z", "s", "sdg"), (0, 1)),
          **dict.fromkeys(("rx", "ry", "rz"), (1, 1)),
          **dict.fromkeys(("cx", "cz", "swap"), (0, 2))}


def noise_angle(p: float) -> float:
    """Ry angle phi = arcsin(2p - 1), so that Ry(phi) H |0> is measured as
    |1> with probability exactly p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return math.asin(2.0 * p - 1.0)


class Register(Record):
    __slots__ = _fields = ("name", "start", "size")

    def __init__(self, name: str, start: int, size: int):
        self._fill(name, start, size)


class QasmProgram(Record):
    __slots__ = _fields = ("source", "qubit_registers", "classical_registers")

    def __init__(self, source: str, qubit_registers: tuple[Register, ...],
                 classical_registers: tuple[Register, ...]):
        self._fill(source, qubit_registers, classical_registers)

    def __str__(self) -> str:
        return self.source


def _emit_op(op: Op, qn: dict[int, str], cn: dict[int, str]) -> list[str]:
    if op.kind == "measure":
        return [f"{cn[op.classical_bit]} = measure {qn[op.targets[0]]};"]
    if op.kind == "cpauli":
        # expand to controlled one-qubit gates; controlled-Y is conjugated
        # as S . CX . Sdg on the target (S X Sdg = Y), and the controlled
        # phase i^p is S^p on the control
        c = op.controls
        gates = [Op(("s", "z", "sdg")[op.pauli.phase - 1], c)] if op.pauli.phase else []
        for t, letter in zip(op.targets, op.pauli.letters()):
            if letter == "Y":
                gates += [Op("sdg", (t,)), Op("cx", (t,), c), Op("s", (t,))]
            elif letter != "I":
                gates.append(Op("c" + letter.lower(), (t,), c))
        return [line for g in gates for line in _emit_op(g, qn, cn)]
    if op.kind not in _GATES:
        raise ValueError(f"cannot emit op kind {op.kind!r}")
    angle = "" if op.angle is None else f"({float(op.angle)!r})"
    return [f"{op.kind}{angle} {', '.join(qn[q] for q in (*op.controls, *op.targets))};"]


def emit(
    circuit: Circuit,
    qubit_registers: tuple[Register, ...] | None = None,
    classical_registers: tuple[Register, ...] | None = None,
) -> QasmProgram:
    """Translate a circuit to OpenQASM 3.0 text, one statement per op.

    Classically-conditioned ops become single-line `if` blocks; the
    condition's bit tuple must be a whole declared register.
    """
    if qubit_registers is None:
        qubit_registers = (Register("q", 0, circuit.n_qubits),)
    if classical_registers is None:
        classical_registers = (
            (Register("c", 0, circuit.n_classical),) if circuit.n_classical else ()
        )
    qn, cn = ({r.start + i: f"{r.name}[{i}]" for r in regs for i in range(r.size)}
              for regs in (qubit_registers, classical_registers))
    for kind, names, width in (("qubit", qn, circuit.n_qubits), ("bit", cn, circuit.n_classical)):
        missing = [i for i in range(width) if i not in names]
        if missing:
            raise ValueError(f"{kind} index {missing[0]} not covered by any register")
    whole = {tuple(range(r.start, r.start + r.size)): r for r in classical_registers}
    lines = [HEADER.rstrip("\n")]
    for reg in qubit_registers:
        lines.append(f"qubit[{reg.size}] {reg.name};")
    for reg in classical_registers:
        lines.append(f"bit[{reg.size}] {reg.name};")
    for op in circuit.ops:
        body = _emit_op(op, qn, cn)
        if op.condition is not None:
            bits, value = op.condition
            if bits not in whole:
                raise ValueError("conditions must test a whole classical register in order")
            reg = whole[bits]
            inner = " ".join(body)
            lines.append(f"if ({reg.name} == {value}) {{ {inner} }}")
        else:
            lines.extend(body)
    return QasmProgram("\n".join(lines) + "\n", qubit_registers, classical_registers)


def build_code_demo(bundle, model: NoiseModel) -> tuple[Circuit, tuple[Register, ...], tuple[Register, ...]]:
    """Assemble the demo circuit: encoder, per-coin stochastic noise
    gadgets, syndrome extraction, classically-controlled corrections from
    the weight-1 syndrome table, and final data measurement.

    Coins go on the model's designated qubits (all data qubits when it
    designates none). Returns the flat circuit and its register layouts;
    data qubits come first, then noise ancillas, then syndrome ancillas.
    """
    code = bundle.code
    n = code.n
    coins = _noise_coins(model, n=n)
    n_coins = len(coins)
    l = code.num_generators
    qregs = (Register("q", 0, n), Register("na", n, n_coins), Register("sa", n + n_coins, l))
    cregs = (Register("nc", 0, n_coins), Register("s", n_coins, l), Register("c", n_coins + l, n))
    circ = Circuit(n + n_coins + l, n_classical=n_coins + l + n)
    circ.ops.extend(bundle.encoder.ops)
    for j, (letter, q, prob) in enumerate(coins):
        anc = n + j
        circ.h(anc)
        circ.ry(noise_angle(prob), anc)
        if letter == "X":
            circ.cx(anc, q)
        else:
            circ.cz(anc, q)
        circ.measure(anc, j)
    for i, g in enumerate(code.generators):
        anc = n + n_coins + i
        x_type = g.z_bits.is_zero()
        z_type = g.x_bits.is_zero()
        if z_type:
            for q in g.support():
                circ.cx(q, anc)
        elif x_type:
            for q in g.support():
                circ.h(q)
                circ.cx(q, anc)
                circ.h(q)
        else:
            circ.h(anc)
            circ.cpauli(anc, g, targets=tuple(range(n)))
            circ.h(anc)
        circ.measure(anc, n_coins + i)
    table = build_syndrome_table(code, 1)
    syn_bits = tuple(range(n_coins, n_coins + l))
    # by condition value; the zero syndrome's identity adds no gate
    for value, w in sorted((sum(b << k for k, b in enumerate(s.bits)), w) for s, w in table.items()):
        cond = (syn_bits, value)
        letters = w.letters()
        for q in w.support():
            getattr(circ, letters[q].lower())(q, condition=cond)
    for q in range(n):
        circ.measure(q, n_coins + l + q)
    return circ, qregs, cregs


def emit_code_demo(bundle, model: NoiseModel) -> QasmProgram:
    circ, qregs, cregs = build_code_demo(bundle, model)
    return emit(circ, qregs, cregs)


# ---------------------------------------------------------------------------
# minimal reader (round-trip testing only; not a general OpenQASM parser)

_DECL = re.compile(r"^(qubit|bit)\[(\d+)\] (\w+);$")
_MEASURE = re.compile(r"^(\w+\[\d+\]) = measure (\w+\[\d+\]);$")
_GATE = re.compile(r"^(\w+)(?:\(([^)]+)\))? (.+);$")
_IF = re.compile(r"^if \((\w+) == (\d+)\) \{ (.*) \}$")
_OPERAND = re.compile(r"^(\w+)\[(\d+)\]$")


class QasmParseError(ValueError):
    pass


def parse_qasm(text: str) -> tuple[Circuit, tuple[Register, ...], tuple[Register, ...]]:
    """Parse the subset of OpenQASM 3.0 that emit() produces."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if lines[:2] != ["OPENQASM 3.0;", 'include "stdgates.inc";']:
        raise QasmParseError("missing OPENQASM 3.0 header")
    qregs: list[Register] = []
    cregs: list[Register] = []
    body_start = 2
    for ln in lines[2:]:
        m = _DECL.match(ln)
        if not m:
            break
        kind, size, name = m.group(1), int(m.group(2)), m.group(3)
        regs = qregs if kind == "qubit" else cregs
        start = sum(r.size for r in regs)
        regs.append(Register(name, start, size))
        body_start += 1
    qmap = {r.name: r for r in qregs}
    cmap = {r.name: r for r in cregs}
    circ = Circuit(sum(r.size for r in qregs), sum(r.size for r in cregs))

    def flat(operand: str, regs: dict[str, Register]) -> int:
        m = _OPERAND.match(operand.strip())
        if not m or m.group(1) not in regs:
            raise QasmParseError(f"bad operand {operand!r}")
        reg = regs[m.group(1)]
        idx = int(m.group(2))
        if idx >= reg.size:
            raise QasmParseError(f"index {idx} exceeds register {reg.name}")
        return reg.start + idx

    def add_gate(stmt: str, condition=None) -> None:
        m = _MEASURE.match(stmt)
        if m:
            if condition is not None:
                raise QasmParseError("conditioned measurement not supported")
            circ.measure(flat(m.group(2), qmap), flat(m.group(1), cmap))
            return
        m = _GATE.match(stmt)
        if not m:
            raise QasmParseError(f"cannot parse statement {stmt!r}")
        name, angle, operands = m.groups()
        angles = [] if angle is None else [angle]
        qubits = [flat(tok, qmap) for tok in operands.split(",")]
        if name not in _GATES:
            raise QasmParseError(f"unsupported gate {name!r}")
        if _GATES[name] != (len(angles), len(qubits)):
            raise QasmParseError(f"{name} takes (angles, qubits) = {_GATES[name]}: {stmt!r}")
        try:
            getattr(circ, name)(*map(float, angles), *qubits, condition=condition)
        except ValueError as exc:
            raise QasmParseError(f"{exc}: {stmt!r}") from exc

    for ln in lines[body_start:]:
        m = _IF.match(ln)
        if m:
            if m.group(1) not in cmap:
                raise QasmParseError(f"unknown bit register {m.group(1)!r}")
            reg = cmap[m.group(1)]
            cond = (tuple(range(reg.start, reg.start + reg.size)), int(m.group(2)))
            inner = m.group(3).strip()
            for stmt in filter(None, (s.strip() for s in inner.split(";"))):
                add_gate(stmt + ";", condition=cond)
            continue
        add_gate(ln)
    return circ, tuple(qregs), tuple(cregs)
