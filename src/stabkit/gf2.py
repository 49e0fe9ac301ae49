"""Bit-packed linear algebra over GF(2).

Vectors and matrices store 64 columns per uint64 word: bit j of word w
holds column 64*w + j. Padding bits beyond the declared length are kept
zero so whole-word XOR and popcount are safe.
"""
from __future__ import annotations

import functools

import numpy as np

_WORD = 64


def _n_words(bits: int) -> int:
    return max(1, (bits + _WORD - 1) // _WORD)


def _pack(bits) -> np.ndarray:
    """0/1 array of shape (..., m) -> uint64 words of shape (..., _n_words(m)).

    With _unpack, the only code that knows the bit order within a word.
    """
    bits = np.asarray(bits)
    m = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (_n_words(m) * _WORD,), dtype=np.uint8)
    padded[..., :m] = bits & 1
    words = np.packbits(padded, axis=-1, bitorder="little").view("<u8")
    return words.astype(np.uint64, copy=False)


def _unpack(data: np.ndarray, m: int) -> np.ndarray:
    """uint64 words of shape (..., words) -> uint8 0/1 array of shape (..., m)."""
    raw = np.ascontiguousarray(data, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=m, bitorder="little")


def _concat(x: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """Words of the 2n-bit image (x|z) from the words of two n-bit halves."""
    return _pack(np.concatenate([_unpack(x, n), _unpack(z, n)], axis=-1))


def _split(v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of _concat: the words of the halves x and z of (x|z)."""
    bits = _unpack(v, 2 * n)
    return _pack(bits[..., :n]), _pack(bits[..., n:])


@functools.cache
def _pad_mask(bits: int) -> np.ndarray:
    """Per-word mask clearing bits at positions >= `bits` (read-only, shared)."""
    words = _n_words(bits)
    mask = np.full(words, ~np.uint64(0), dtype=np.uint64)
    tail = bits % _WORD
    if bits > 0 and tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    elif bits == 0:
        mask[0] = np.uint64(0)
    mask.flags.writeable = False
    return mask


class BitVector:
    """Fixed-length vector over GF(2), bit-packed into uint64 words."""

    __slots__ = ("len", "data")

    def __init__(self, length: int, data: np.ndarray | None = None):
        if length < 0:
            raise ValueError("length must be nonnegative")
        self.len = length
        if data is None:
            self.data = np.zeros(_n_words(length), dtype=np.uint64)
        else:
            data = np.asarray(data, dtype=np.uint64)
            if data.shape != (_n_words(length),):
                raise ValueError("word count does not match length")
            self.data = data & _pad_mask(length)

    @classmethod
    def from_bits(cls, bits) -> "BitVector":
        if not isinstance(bits, np.ndarray):
            bits = np.array(list(bits), dtype=np.int64)
        return cls(len(bits), _pack(bits))

    def copy(self) -> "BitVector":
        return BitVector(self.len, self.data.copy())

    def get(self, i: int) -> int:
        if not 0 <= i < self.len:
            raise IndexError(f"bit index {i} out of range for length {self.len}")
        return int((self.data[i // _WORD] >> np.uint64(i % _WORD)) & np.uint64(1))

    def set(self, i: int, value: int) -> None:
        if not 0 <= i < self.len:
            raise IndexError(f"bit index {i} out of range for length {self.len}")
        bit = np.uint64(1) << np.uint64(i % _WORD)
        if value & 1:
            self.data[i // _WORD] |= bit
        else:
            self.data[i // _WORD] &= ~bit

    def to_bits(self) -> list[int]:
        return _unpack(self.data, self.len).tolist()

    def popcount(self) -> int:
        return int(np.bitwise_count(self.data).sum())

    def is_zero(self) -> bool:
        return not self.data.any()

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.len != other.len:
            raise ValueError("length mismatch")
        return BitVector(self.len, self.data ^ other.data)

    def __ixor__(self, other: "BitVector") -> "BitVector":
        if self.len != other.len:
            raise ValueError("length mismatch")
        self.data ^= other.data
        return self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.len == other.len
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self) -> int:
        return hash((self.len, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"BitVector({''.join(str(b) for b in self.to_bits())})"


class BitMatrix:
    """rows x cols matrix over GF(2), each row bit-packed like a BitVector."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: np.ndarray | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        words = _n_words(cols)
        if data is None:
            self.data = np.zeros((rows, words), dtype=np.uint64)
        else:
            data = np.asarray(data, dtype=np.uint64)
            if data.shape != (rows, words):
                raise ValueError("word shape does not match dimensions")
            self.data = data & _pad_mask(cols)[None, :]

    @classmethod
    def from_rows(cls, rows_bits, cols: int | None = None) -> "BitMatrix":
        rows_bits = [list(r) for r in rows_bits]
        if cols is None:
            cols = len(rows_bits[0]) if rows_bits else 0
        if any(len(row) != cols for row in rows_bits):
            raise ValueError("ragged rows")
        bits = np.array(rows_bits, dtype=np.int64).reshape(len(rows_bits), cols)
        return cls(len(rows_bits), cols, _pack(bits))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, _pack(np.eye(n, dtype=np.uint8)))

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.rows, self.cols, self.data.copy())

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        return int((self.data[i, j // _WORD] >> np.uint64(j % _WORD)) & np.uint64(1))

    def set(self, i: int, j: int, value: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        bit = np.uint64(1) << np.uint64(j % _WORD)
        if value & 1:
            self.data[i, j // _WORD] |= bit
        else:
            self.data[i, j // _WORD] &= ~bit

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.data[i].copy())

    def to_lists(self) -> list[list[int]]:
        return _unpack(self.data, self.cols).tolist()

    def mat_vec(self, v: BitVector) -> BitVector:
        """Matrix-vector product over GF(2)."""
        if v.len != self.cols:
            raise ValueError("dimension mismatch")
        prod = np.bitwise_count(self.data & v.data[None, :]).sum(axis=1) & 1
        return BitVector(self.rows, _pack(prod))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data.tobytes()))

    def __repr__(self) -> str:
        body = "\n".join("".join(str(b) for b in row) for row in self.to_lists())
        return f"BitMatrix({self.rows}x{self.cols})\n{body}"


def row_reduce(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row-echelon form over GF(2) plus the pivot column list.

    Pivot search scans each column top-down for the first set bit
    (deterministic output regardless of input row order).
    """
    r = m.copy()
    pivots: list[int] = []
    rank = 0
    for col in range(r.cols):
        w, b = col // _WORD, np.uint64(col % _WORD)
        colbits = (r.data[:, w] >> b) & np.uint64(1)
        hits = np.nonzero(colbits[rank:])[0]
        if hits.size == 0:
            continue
        pivot = rank + int(hits[0])
        if pivot != rank:
            r.data[[rank, pivot]] = r.data[[pivot, rank]]
            colbits = (r.data[:, w] >> b) & np.uint64(1)
        elim = np.nonzero(colbits)[0]
        elim = elim[elim != rank]
        if elim.size:
            r.data[elim] ^= r.data[rank]
        pivots.append(col)
        rank += 1
        if rank == r.rows:
            break
    return r, pivots


def rank(m: BitMatrix) -> int:
    """GF(2) row rank."""
    return len(row_reduce(m)[1])


def kernel_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of {v : M v = 0 over GF(2)}; size is cols - rank(M)."""
    return [BitVector(m.cols, row) for row in _pack(RowSpace(m).kernel_bits())]


def in_rowspace(m: BitMatrix, v: BitVector) -> bool:
    """True iff v is a GF(2) combination of the rows of m."""
    return RowSpace(m).contains(v)


def _reduce_against(rref: BitMatrix, pivots: list[int], v: BitVector) -> BitVector:
    """Reduce v against the rows of an RREF matrix; zero result means
    membership. The RREF must be fully reduced, as row_reduce returns it:
    row i is then the only row with a 1 in column pivots[i], so v's
    coefficient on row i is v's bit there, and one masked XOR-reduce of
    those rows does the whole reduction."""
    hits = _unpack(v.data, v.len)[np.asarray(pivots, dtype=np.intp)].astype(bool)
    return BitVector(v.len, v.data ^ np.bitwise_xor.reduce(rref.data[: len(pivots)][hits], axis=0))


class RowSpace:
    """Precomputed RREF wrapper for repeated membership tests."""

    def __init__(self, m: BitMatrix):
        self.cols = m.cols
        self.rref, self.pivots = row_reduce(m)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel_bits(self) -> np.ndarray:
        """0/1 rows spanning {v : M v = 0}, one per free column: a 1 there and
        the pivot rows' entries in that column. As the RREF is fully reduced,
        r is in the rowspace iff r is orthogonal to every row."""
        free = np.setdiff1d(np.arange(self.cols), self.pivots)
        basis = np.zeros((len(free), self.cols), dtype=np.uint8)
        basis[np.arange(len(free)), free] = 1
        basis[:, self.pivots] = _unpack(self.rref.data[: self.rank], self.cols)[:, free].T
        return basis

    def contains(self, v: BitVector) -> bool:
        if v.len != self.cols:
            raise ValueError("dimension mismatch")
        return _reduce_against(self.rref, self.pivots, v).is_zero()
