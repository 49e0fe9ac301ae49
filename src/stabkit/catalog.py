"""Constructors for the named codes, each bundled with encoder circuit,
canonical logical operators, and [[n, k, d]] parameters.

The five fixed codes carry hand-written encoders; the toric and planar
codes carry the Steane-style CSS encoder that `_css_encoder` builds from
their X checks and logical X words.

The d recorded for the detection-oriented codes (two-qubit, both
three-qubit codes) is the published label, which counts only the error
type the code targets; their full-Pauli distance from
stabilizer.distance() is 1 (an untargeted single-qubit error is already a
logical operation). The other codes' labels agree with the computed
distance.
"""
from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from . import gf2
from . import lattice as lattice_mod
from . import pauli, stabilizer
from ._record import Record
from .pauli import PauliWord
from .stabilizer import LogicalOperators, StabilizerCode
from .statevec import Circuit


class CodeBundle(Record):
    """A code with its [[n, k, d]] parameters, rate k/n, canonical logical
    (X, Z) pairs and encoder: a gate circuit on n qubits that maps input
    qubit j (on qubit j, the rest in |0>) to logical qubit j."""

    __slots__ = _fields = ("code", "encoder", "logical", "params", "rate")

    def __init__(self, code: StabilizerCode, encoder: Circuit,
                 logical: LogicalOperators, params: tuple[int, int, int], rate: Fraction):
        self._fill(code, encoder, logical, params, rate)

    @property
    def name(self) -> str:
        return self.code.name


def _bundle(code: StabilizerCode, encoder, logical_pairs, d: int) -> CodeBundle:
    logical = LogicalOperators(tuple(logical_pairs))
    n = code.n
    k = code.num_logical_qubits()
    return CodeBundle(code, encoder, logical, (n, k, d), Fraction(k, n))


def _pair(n: int, x_text: str, z_text: str) -> tuple[PauliWord, PauliWord]:
    return (pauli.parse(x_text, n), pauli.parse(z_text, n))


def make_two_qubit() -> CodeBundle:
    """[[2,1,2]] bit-flip detection code, generator ZZ, encoder one CNOT."""
    code = StabilizerCode.from_strings("two-qubit", ["ZZ"])
    enc = Circuit(2)
    enc.cx(0, 1)
    return _bundle(code, enc, [_pair(2, "XX", "ZI")], d=2)


def make_three_qubit_bit() -> CodeBundle:
    """[[3,1,3]] bit-flip code; checks give syndromes X1->11, X2->10, X3->01."""
    code = StabilizerCode.from_strings("three-qubit-bit", ["ZZI", "ZIZ"])
    enc = Circuit(3)
    enc.cx(0, 1)
    enc.cx(0, 2)
    return _bundle(code, enc, [_pair(3, "XXX", "ZII")], d=3)


def make_three_qubit_phase() -> CodeBundle:
    """[[3,1,3]] phase-flip code: the bit-flip encoder followed by
    Hadamards; checks are the Hadamard conjugates of the bit-flip ones."""
    code = StabilizerCode.from_strings("three-qubit-phase", ["XXI", "XIX"])
    enc = Circuit(3)
    enc.cx(0, 1)
    enc.cx(0, 2)
    for q in range(3):
        enc.h(q)
    return _bundle(code, enc, [_pair(3, "ZZZ", "XII")], d=3)


def make_shor() -> CodeBundle:
    """[[9,1,3]] concatenated code: six weight-2 ZZ block checks plus two
    weight-6 X checks. The logical X word is Z-type (one Z per block) and
    the logical Z word is X-type (one full block of X), reflecting the
    phase-flip outer code."""
    gens = [
        "ZZIIIIIII", "IZZIIIIII",
        "IIIZZIIII", "IIIIZZIII",
        "IIIIIIZZI", "IIIIIIIZZ",
        "XXXXXXIII", "IIIXXXXXX",
    ]
    code = StabilizerCode.from_strings("shor", gens)
    enc = Circuit(9)
    enc.cx(0, 3)
    enc.cx(0, 6)
    for q in (0, 3, 6):
        enc.h(q)
    for block in (0, 3, 6):
        enc.cx(block, block + 1)
        enc.cx(block, block + 2)
    return _bundle(code, enc, [_pair(9, "ZIIZIIZII", "XXXIIIIII")], d=3)


def make_five_qubit() -> CodeBundle:
    """[[5,1,3]] code with stabilizer <XZZXI, IXZZX, XIXZZ, ZXIXZ>; the
    encoder reproduces the two 16-term logical basis states exactly."""
    code = StabilizerCode.from_strings(
        "five-qubit", ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    )
    enc = Circuit(5)
    enc.z(0)
    for q in (1, 2, 3, 4):
        enc.h(q)
    for q in (4, 3, 2, 1):
        enc.cx(q, 0)
    enc.cz(0, 4)
    enc.cz(1, 2)
    enc.cz(3, 4)
    enc.cz(0, 1)
    enc.cz(2, 3)
    return _bundle(code, enc, [_pair(5, "XXXXX", "ZZZZZ")], d=3)


def _css_encoder(code: StabilizerCode, logical_x: list[PauliWord]) -> Circuit:
    """Steane-style encoder of a CSS code (Gottesman 1997, quant-ph/9705052 §4).

    Only the X checks have x bits, so the leading rows of the parity
    check's RREF (pivots < n) are RREF(Hx), with pivots P. Each logical X
    word, reduced against them, vanishes on P; the reduced words must
    already be in RREF, with pivots Q. Input qubit j moves to Q_j, fans out
    to the rest of its reduced word, and each X row then puts |+> on its
    pivot and fans out to the rest of the row.
    """
    n = code.n
    rs = code.rowspace()
    x_rows = sum(p < n for p in rs.pivots)
    words = gf2.BitMatrix(len(logical_x), 2 * n, np.stack(
        [gf2._reduce_against(rs.rref, rs.pivots, x.symplectic()).data for x in logical_x]))
    rref, q = gf2.row_reduce(words)
    if rref != words or len(q) != len(logical_x):
        raise ValueError(f"{code.name}: the reduced logical X words are not in RREF")
    enc = Circuit(n)
    for j in reversed(range(len(q))):
        # Q is increasing, so q[j] >= j, and qubit q[j] still holds |0>
        if q[j] != j:
            enc.swap(j, q[j])
    fans = [(p, row, False) for p, row in zip(q, gf2._unpack(words.data, n))]
    fans += [(p, row, True) for p, row in zip(rs.pivots, gf2._unpack(rs.rref.data[:x_rows], n))]
    for pivot, row, hadamard in fans:
        if hadamard:
            enc.h(pivot)
        for t in np.flatnonzero(row):
            if t != pivot:
                enc.cx(pivot, int(t))
    return enc


def _lattice_bundle(lat: lattice_mod.Lattice, name: str, d: int) -> CodeBundle:
    code = StabilizerCode(name, lattice_mod.stabilizers_from_lattice(lat))
    pairs = lattice_mod.logical_cycles(lat).pairs
    return _bundle(code, _css_encoder(code, [x for x, _ in pairs]), pairs, d)


def make_toric(m: int, n: int) -> CodeBundle:
    """[[2mn, 2, min(m,n)]] toric code."""
    lat = lattice_mod.build_toric(m, n)
    return _lattice_bundle(lat, f"toric:{m}x{n}", min(m, n))


def make_planar(m: int, n: int) -> CodeBundle:
    """[[2mn+n-m, 1, min(n, m+1)]] planar code. The logical Z chain has
    weight n and the logical X chain crosses m+1 horizontal edges, so the
    distance is min(n, m+1)."""
    lat = lattice_mod.build_planar(m, n)
    return _lattice_bundle(lat, f"planar:{m}x{n}", min(n, m + 1))


_LATTICE_NAME = re.compile(r"^(toric|planar):(\d+)x(\d+)$")

_FIXED_CODES = {
    "two-qubit": make_two_qubit,
    "three-qubit-bit": make_three_qubit_bit,
    "three-qubit-phase": make_three_qubit_phase,
    "shor": make_shor,
    "five-qubit": make_five_qubit,
}


def code_names() -> list[str]:
    return list(_FIXED_CODES) + ["toric:MxN", "planar:MxN"]


def by_name(name: str) -> CodeBundle:
    """Resolve a CLI code name: fixed names or toric:MxN / planar:MxN."""
    if name in _FIXED_CODES:
        return _FIXED_CODES[name]()
    m = _LATTICE_NAME.match(name)
    if m:
        kind, rows, cols = m.group(1), int(m.group(2)), int(m.group(3))
        if kind == "toric":
            return make_toric(rows, cols)
        return make_planar(rows, cols)
    raise KeyError(f"unknown code {name!r}; known: {', '.join(code_names())}")
