"""n-qubit Pauli group arithmetic with phase tracking.

A word is i^phase * L_0 ... L_{n-1} with letters L determined per qubit by
an (x, z) bit pair: I=(0,0), X=(1,0), Y=(1,1), Z=(0,1). The x and z bits
stay packed in BitVectors and every operation works on whole words. The
product rule follows the convention X*Z = -i*Y (equivalently Y = i*X*Z).
"""
from __future__ import annotations

import re

import numpy as np

from . import gf2
from .gf2 import BitVector

_LETTERS = "IXYZ"
_XZ_OF_LETTER = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# letter codes x + 2z, as ASCII bytes and back (4 marks a byte that is no letter)
_LETTER_OF_CODE = np.frombuffer(b"IXZY", dtype=np.uint8)
_CODE_OF_BYTE = np.full(256, 4, dtype=np.uint8)
_CODE_OF_BYTE[_LETTER_OF_CODE] = np.arange(4)

_PHASE_PREFIXES = {"": 0, "i": 1, "-": 2, "-i": 3}
_PREFIX_OF_PHASE = {0: "", 1: "i", 2: "-", 3: "-i"}

_PRODUCT_TERM = re.compile(r"([XYZ])(\d+)")


class PauliWord:
    """A phased Pauli operator on n qubits: i^phase * (letter string)."""

    __slots__ = ("n", "x_bits", "z_bits", "phase")

    def __init__(self, n: int, x_bits: BitVector, z_bits: BitVector, phase: int = 0):
        if x_bits.len != n or z_bits.len != n:
            raise ValueError("bit vector length must equal qubit count")
        self.n = n
        self.x_bits = x_bits
        self.z_bits = z_bits
        self.phase = phase % 4

    @classmethod
    def identity(cls, n: int) -> "PauliWord":
        return cls(n, BitVector(n), BitVector(n), 0)

    @classmethod
    def from_letters(cls, letters: str, phase: int = 0) -> "PauliWord":
        # "replace" keeps one byte per character, so positions survive
        codes = _CODE_OF_BYTE[np.frombuffer(letters.encode("ascii", "replace"), dtype=np.uint8)]
        if (codes == 4).any():
            bad = letters[int(np.argmax(codes == 4))]
            raise ValueError(f"invalid Pauli letter {bad!r}")
        n = len(letters)
        return cls(n, BitVector.from_bits(codes & 1), BitVector.from_bits(codes >> 1), phase)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliWord":
        """One non-identity letter at `qubit` (0-based), identity elsewhere."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        x, z = np.zeros((2, n), dtype=np.uint8)
        x[qubit], z[qubit] = _XZ_OF_LETTER[letter]
        return cls(n, BitVector.from_bits(x), BitVector.from_bits(z), 0)

    def letter(self, qubit: int) -> str:
        if not 0 <= qubit < self.n:
            raise IndexError(f"qubit {qubit} out of range for n={self.n}")
        return self.letters()[qubit]

    def letters(self) -> str:
        codes = gf2._unpack(self.x_bits.data, self.n) + 2 * gf2._unpack(self.z_bits.data, self.n)
        return _LETTER_OF_CODE[codes].tobytes().decode("ascii")

    def support(self) -> list[int]:
        """Qubits carrying a non-identity letter."""
        return np.flatnonzero(gf2._unpack(self.x_bits.data | self.z_bits.data, self.n)).tolist()

    def symplectic(self) -> BitVector:
        """Image (x_1..x_n, z_1..z_n) in Z2^{2n}; independent of phase."""
        return BitVector(2 * self.n, gf2._concat(self.x_bits.data, self.z_bits.data, self.n))

    def copy(self) -> "PauliWord":
        return PauliWord(self.n, self.x_bits.copy(), self.z_bits.copy(), self.phase)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliWord)
            and self.n == other.n
            and self.phase == other.phase
            and self.x_bits == other.x_bits
            and self.z_bits == other.z_bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.phase, self.x_bits, self.z_bits))

    def __repr__(self) -> str:
        return f"PauliWord({format_word(self)!r})"


def multiply(a: PauliWord, b: PauliWord) -> PauliWord:
    """Exact group product a*b, including the accumulated phase."""
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} != {b.n}")
    x1, z1, x2, z2 = a.x_bits.data, a.z_bits.data, b.x_bits.data, b.z_bits.data
    x3, z3 = x1 ^ x2, z1 ^ z2
    # Counting Y = i*X*Z: each Y in a factor carries i, reordering a's Z
    # past b's X carries (-1), and each Y in the product gives back one i.
    phase = (a.phase + b.phase + _count(x1 & z1) + _count(x2 & z2)
             + 2 * _count(z1 & x2) - _count(x3 & z3))
    return PauliWord(a.n, BitVector(a.n, x3), BitVector(a.n, z3), phase % 4)


def _count(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def inverse(a: PauliWord) -> PauliWord:
    """Group inverse: the letter part squares to +1 (Y is stored phase-free),
    so only the prefactor i^phase conjugates."""
    return PauliWord(a.n, a.x_bits.copy(), a.z_bits.copy(), (-a.phase) % 4)


def symplectic_product(a: PauliWord, b: PauliWord) -> int:
    """GF(2) form x_a.z_b + z_a.x_b; 1 iff a and b anticommute."""
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} != {b.n}")
    return (_count(a.x_bits.data & b.z_bits.data) + _count(a.z_bits.data & b.x_bits.data)) & 1


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True iff the operators commute (vanishing symplectic product)."""
    return symplectic_product(a, b) == 0


def weight(a: PauliWord) -> int:
    """Number of qubits carrying a non-identity letter."""
    return _count(a.x_bits.data | a.z_bits.data)


def parse(text: str, n: int) -> PauliWord:
    """Parse a letter string ("XZZXI", optional +/-/i/-i prefix) or a
    1-based product form ("X1Z3") into an n-qubit word."""
    s = text.strip()
    phase = 0
    # A leading sign or i is a phase prefix only when followed by a letter.
    for cand in ("-i", "+i", "-", "+", "i"):
        if s.startswith(cand):
            rest = s[len(cand):]
            if rest and (rest[0] in _LETTERS):
                phase = _PHASE_PREFIXES[cand.lstrip("+") or ""]
                s = rest
            break
    if re.fullmatch(r"[IXYZ]+", s):
        if len(s) != n:
            raise ValueError(f"letter string length {len(s)} != n={n}")
        return PauliWord.from_letters(s, phase)
    if re.fullmatch(r"(?:[XYZ]\d+)+", s):
        word = PauliWord.identity(n)
        word.phase = phase
        for letter, idx in _PRODUCT_TERM.findall(s):
            q = int(idx)
            if not 1 <= q <= n:
                raise ValueError(f"qubit index {q} out of range 1..{n}")
            word = multiply(word, PauliWord.single(n, q - 1, letter))
        return word
    raise ValueError(f"cannot parse Pauli word {text!r}")


def format_word(a: PauliWord) -> str:
    """Canonical text form: optional phase prefix plus the letter string."""
    return _PREFIX_OF_PHASE[a.phase] + a.letters()


def format_product(a: PauliWord) -> str:
    """1-based product form like "X1Z3"; identity renders as "I"."""
    terms = [f"{ch}{q + 1}" for q, ch in enumerate(a.letters()) if ch != "I"]
    body = "".join(terms) if terms else "I"
    return _PREFIX_OF_PHASE[a.phase] + body
