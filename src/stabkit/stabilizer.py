"""Stabilizer-code engine: validation, syndromes, logical operators,
distance search, and lookup-table decoding.

Membership in the stabilizer group is tested over GF(2) on the parity
check rowspace, ignoring phases: all catalog codes have +1-phase
generators, and residual classification only needs membership up to phase.
"""
from __future__ import annotations

import itertools
from enum import Enum
from functools import cached_property

import numpy as np

from . import gf2, pauli
from ._record import Record
from .gf2 import BitMatrix, BitVector
from .pauli import PauliWord


class Residual(Enum):
    STABILIZER = "Stabilizer"
    LOGICAL = "Logical"
    DETECTABLE = "Detectable"


class Syndrome(Record):
    """Anticommutation pattern against the generator list; bit i belongs to
    generator i and is printed leftmost-first."""

    __slots__ = _fields = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        self._fill(bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def is_zero(self) -> bool:
        return not any(self.bits)


class LogicalOperators(Record):
    """One (X-like, Z-like) pair per logical qubit."""

    __slots__ = _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[PauliWord, PauliWord], ...]):
        self._fill(pairs)

    def violations(self, code: "StabilizerCode") -> list[str]:
        out = []
        rs = code.rowspace()
        flat = [(f"X{i}", x) for i, (x, _) in enumerate(self.pairs)]
        flat += [(f"Z{i}", z) for i, (_, z) in enumerate(self.pairs)]
        for name, w in flat:
            for gi, bit in enumerate(syndrome(code, w).bits):
                if bit:
                    out.append(f"{name} anticommutes with generator {gi}")
            if rs.contains(w.symplectic()):
                out.append(f"{name} is a stabilizer element")
        for i, (xi, zi) in enumerate(self.pairs):
            if pauli.commutes(xi, zi):
                out.append(f"pair {i}: X{i} and Z{i} commute")
            for j, (xj, zj) in enumerate(self.pairs):
                if i == j:
                    continue
                if not pauli.commutes(xi, zj):
                    out.append(f"X{i} anticommutes with Z{j}")
                if not pauli.commutes(xi, xj):
                    out.append(f"X{i} anticommutes with X{j}")
                if not pauli.commutes(zi, zj):
                    out.append(f"Z{i} anticommutes with Z{j}")
        return out


# float32 holds every integer up to 2**24 exactly, so an image entry (a sum
# of at most 2n products of bits) is exact while 2n stays below this
_FLOAT32_EXACT = 1 << 24


class StabilizerCode:
    """n physical qubits with an ordered, independent, commuting generator
    list; the parity check matrix is the (X|Z) image of the generators, and
    `check_x`/`check_z` hold the words of its two halves."""

    def __init__(self, name: str, generators: list[PauliWord]):
        if not generators:
            raise ValueError("need at least one generator")
        n = generators[0].n
        if any(g.n != n for g in generators):
            raise ValueError("generators act on different qubit counts")
        self.name = name
        self.n = n
        self.generators = [g.copy() for g in generators]
        self.parity_check = BitMatrix(
            len(generators), 2 * n, np.stack([g.symplectic().data for g in generators])
        )
        self.check_x, self.check_z = gf2._split(self.parity_check.data, n)
        self._rowspace: gf2.RowSpace | None = None
        self._map: np.ndarray | None = None

    @classmethod
    def from_strings(cls, name: str, strings: list[str]) -> "StabilizerCode":
        n = len(strings[0].lstrip("+-i"))
        words = [pauli.parse(s, n) for s in strings]
        return cls(name, words)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def num_logical_qubits(self) -> int:
        return self.n - self.num_generators

    def rowspace(self) -> gf2.RowSpace:
        if self._rowspace is None:
            self._rowspace = gf2.RowSpace(self.parity_check)
        return self._rowspace

    def images(self, xz: np.ndarray) -> np.ndarray:
        """0/1 rows (syndrome | residual key) of 0/1 (x|z) rows, by one
        float32 product with the code's GF(2) map, reduced mod 2.

        The map's first l columns are the parity check with halves swapped,
        so column g flags the bits that anticommute with generator g. The
        rest are the parity check's kernel basis, under which a residual r
        is a stabilizer iff its key is 0. By linearity, e ^ c is a
        stabilizer iff e and c have the same image.
        """
        if 2 * self.n >= _FLOAT32_EXACT:
            raise ValueError(f"{self.n} qubits: the float32 map needs 2n < {_FLOAT32_EXACT}")
        if self._map is None:
            swapped = gf2._unpack(gf2._concat(self.check_z, self.check_x, self.n), 2 * self.n)
            kernel = self.rowspace().kernel_bits()
            self._map = np.concatenate([swapped, kernel]).T.astype(np.float32)
        img = (xz.astype(np.float32, copy=False) @ self._map).astype(np.int32)
        return np.bitwise_and(img, 1, dtype=np.uint8, casting="unsafe")

    def keys_of(self, xz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`_row_keys` of the syndromes and of the whole images of 0/1 (x|z) rows."""
        images = self.images(xz)
        return _row_keys(images[:, : self.num_generators]), _row_keys(images)

    def generator_strings(self) -> list[str]:
        return [pauli.format_word(g) for g in self.generators]

    def __repr__(self) -> str:
        return f"StabilizerCode({self.name!r}, n={self.n}, l={self.num_generators})"


def validate(code: StabilizerCode) -> list[str]:
    """Empty list iff the code satisfies all structural invariants."""
    gens = code.generators
    # the syndromes of the generators themselves: their symplectic products
    anti = code.images(gf2._unpack(code.parity_check.data, 2 * code.n))[:, : len(gens)]
    violations = [f"pair ({i},{j}) anticommutes" for i, j in zip(*np.nonzero(np.triu(anti, 1)))]
    r = code.rowspace().rank
    if r < len(gens):
        violations.append(f"rank {r} < {len(gens)}: generators dependent")
    for i, g in enumerate(gens):
        if g.phase != 0:
            violations.append(f"generator {i} has phase i^{g.phase} != +1")
    if code.n < len(gens):
        violations.append(f"more generators ({len(gens)}) than qubits ({code.n})")
    return violations


def syndrome(code: StabilizerCode, error: PauliWord) -> Syndrome:
    """Bit i = symplectic product of generator i with the error: the parity
    of |x_i & z_e| + |z_i & x_e|, taken as one popcount of the XOR."""
    if error.n != code.n:
        raise ValueError(f"error acts on {error.n} qubits, code has {code.n}")
    overlap = (code.check_x & error.z_bits.data) ^ (code.check_z & error.x_bits.data)
    bits = np.bitwise_count(overlap).sum(axis=1) & 1
    return Syndrome(tuple(bits.tolist()))


def normalizer_kernel(code: StabilizerCode) -> list[BitVector]:
    """Basis (size 2n - l) of the symplectic-orthogonal complement: the
    images of all Pauli words commuting with every generator.

    A word g is in the normalizer iff C * Omega * phi(g)^T = 0, and
    multiplying by the block form Omega swaps the X and Z halves of each
    parity check row.
    """
    swapped = gf2._concat(code.check_z, code.check_x, code.n)
    return gf2.kernel_basis(BitMatrix(code.num_generators, 2 * code.n, swapped))


def word_from_symplectic(v: BitVector) -> PauliWord:
    """Phase-free word whose (X|Z) image is v."""
    if v.len % 2:
        raise ValueError("symplectic vector must have even length")
    n = v.len // 2
    x, z = gf2._split(v.data, n)
    return PauliWord(n, BitVector(n, x), BitVector(n, z), 0)


def _symplectic_pairs(vectors: list[PauliWord]) -> list[tuple[PauliWord, PauliWord]] | None:
    """Symplectic Gram-Schmidt on independent words: pair each word with the
    first later one it anticommutes with, and clear both from the rest.
    None when a word has no partner."""
    pairs = []
    while vectors:
        a, rest = vectors[0], vectors[1:]
        b = next((v for v in rest if pauli.symplectic_product(a, v)), None)
        if b is None:
            return None
        pairs.append((a, b))
        # make the rest commute with b, then with a; independence keeps them nonzero
        rest = [_xor(v, a) if pauli.symplectic_product(v, b) else v for v in rest if v is not b]
        vectors = [_xor(v, b) if pauli.symplectic_product(v, a) else v for v in rest]
    return pairs


def _xor(u: PauliWord, v: PauliWord) -> PauliWord:
    """Phase-free word whose image is the sum of the images of u and v."""
    return PauliWord(u.n, u.x_bits ^ v.x_bits, u.z_bits ^ v.z_bits, 0)


def _is_css(code: StabilizerCode) -> bool:
    for g in code.generators:
        if not (g.x_bits.is_zero() or g.z_bits.is_zero()):
            return False
    return True


def logical_operators(code: StabilizerCode) -> LogicalOperators:
    """k anticommuting (X-like, Z-like) pairs from the normalizer modulo the
    stabilizer. CSS codes get pure-X / pure-Z representatives; other codes
    fall back to generic symplectic Gram-Schmidt."""
    k = code.num_logical_qubits()
    if k < 1:
        raise ValueError("code has no logical qubits")
    if _is_css(code):
        pairs = _css_logicals(code)
        if pairs is not None:
            return LogicalOperators(tuple(pairs))
    quotient = _quotient_basis(normalizer_kernel(code), code.rowspace())
    pairs = _symplectic_pairs([word_from_symplectic(v) for v in quotient])
    if pairs is None:
        raise AssertionError("normalizer quotient is not symplectic")
    return LogicalOperators(tuple(pairs))


def _css_logicals(code: StabilizerCode) -> list[tuple[PauliWord, PauliWord]] | None:
    n = code.n
    # the pure-X and pure-Z generators' halves
    has_x, has_z = code.check_x.any(axis=1), code.check_z.any(axis=1)
    hx = BitMatrix(int((has_x & ~has_z).sum()), n, code.check_x[has_x & ~has_z])
    hz = BitMatrix(int((has_z & ~has_x).sum()), n, code.check_z[has_z & ~has_x])
    # pure-X logicals: commute with Z checks, not generated by X checks
    x_cands = _quotient_basis(gf2.kernel_basis(hz), gf2.RowSpace(hx))
    z_cands = _quotient_basis(gf2.kernel_basis(hx), gf2.RowSpace(hz))
    k = code.num_logical_qubits()
    if len(x_cands) != k or len(z_cands) != k:
        return None
    # X words come first, so each X word pairs with a Z word
    return _symplectic_pairs(
        [PauliWord(n, x, BitVector(n), 0) for x in x_cands]
        + [PauliWord(n, BitVector(n), z, 0) for z in z_cands]
    )


def _quotient_basis(vectors: list[BitVector], rs: gf2.RowSpace) -> list[BitVector]:
    """Independent vectors spanning span(vectors) modulo the rowspace `rs`:
    reduce each against rs, drop the zeros, then row-reduce the rest."""
    reduced = [gf2._reduce_against(rs.rref, rs.pivots, v) for v in vectors]
    reduced = [r.data for r in reduced if not r.is_zero()]
    if not reduced:
        return []
    rref, pivots = gf2.row_reduce(BitMatrix(len(reduced), rs.cols, np.stack(reduced)))
    return [rref.row(i) for i in range(len(pivots))]


# rows per block of every batch product through StabilizerCode.images: the
# words of _word_blocks (table build, distance) and the shots of
# montecarlo._run_stream. It bounds their memory (weight 4 on toric:4x4 alone
# is 2.9M words); 1 << 10 made mc_lattice benchmark runs 18% longer (CHANGES.md).
_BLOCK_ROWS = 1 << 11


def _word_blocks(n: int, min_weight: int, max_weight: int):
    """(weight, 0/1 (x|z) rows) blocks of the phase-free words, by ascending
    weight, then ascending qubit tuple, then letter order X < Y < Z. This
    order is part of the decoding contract (first word seen for a syndrome
    wins). A block holds at most _BLOCK_ROWS rows, all of one weight."""
    for w in range(min_weight, max_weight + 1):
        # letter index 0, 1, 2 = X, Y, Z: x set for X and Y, z for Y and Z
        letters = np.array(list(itertools.product(range(3), repeat=w)), dtype=np.intp)
        x, z = letters <= 1, letters >= 1
        tuples = itertools.combinations(range(n), w)
        step = max(1, _BLOCK_ROWS // len(letters))
        while chunk := list(itertools.islice(tuples, step)):
            qubits = np.array(chunk, dtype=np.intp).reshape(len(chunk), 1, w)
            # more letter patterns than _BLOCK_ROWS only when step is 1
            for lo in range(0, len(letters), _BLOCK_ROWS):
                xs, zs = x[lo : lo + _BLOCK_ROWS], z[lo : lo + _BLOCK_ROWS]
                rows = np.arange(len(chunk) * len(xs)).reshape(len(chunk), len(xs), 1)
                block = np.zeros((rows.size, 2 * n), dtype=np.uint8)
                block[rows, qubits] = xs
                block[rows, n + qubits] = zs
                yield w, block


def _words(xz: np.ndarray, n: int) -> list[PauliWord]:
    """Phase-free words of packed (x, z) halves, of shape (rows, 2, words)."""
    return [PauliWord(n, BitVector(n, x), BitVector(n, z), 0) for x, z in xz]


def enumerate_words(n: int, min_weight: int, max_weight: int):
    """Phase-free words in the order of _word_blocks."""
    for _, block in _word_blocks(n, min_weight, max_weight):
        yield from _words(gf2._pack(block.reshape(-1, 2, n)), n)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One fixed-width byte string per 0/1 row, equal iff the rows are, for
    any nonzero row length. All keys share one width, so the bytes dtype's
    disregard of trailing NULs cannot merge two of them."""
    packed = np.packbits(rows, axis=1)
    return np.ascontiguousarray(packed).view(f"S{packed.shape[1]}").ravel()


def distance(code: StabilizerCode, max_search_weight: int = 4) -> int | None:
    """Smallest weight of a word in N(S) \\ S, by exhaustive enumeration up
    to `max_search_weight`; None when the search cap is exceeded. A word is
    in N(S) \\ S iff its syndrome is 0 and its residual key is not."""
    l = code.num_generators
    for w, block in _word_blocks(code.n, 1, max_search_weight):
        img = code.images(block)
        if (img[:, l:].any(axis=1) & ~img[:, :l].any(axis=1)).any():
            return w
    return None


class SyndromeTable(Record):
    """The minimal-weight lookup table of `code`, as arrays sorted by syndrome
    key (`_row_keys`, which sorts like the syndrome bits). Row i holds key i's
    correction as packed x and z halves, and the key of its whole image
    (`StabilizerCode.keys_of`); `order` lists the rows in enumeration order.
    The MC kernel, `decode_outcome` and the exports read the arrays;
    `entries` (the dict in enumeration order) is built on first read. Tables
    compare by identity."""

    _fields = ("code", "max_weight", "keys", "image_keys", "xz", "order")
    __slots__ = _fields + ("__dict__",)  # the dict holds `entries`
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, code: StabilizerCode, max_weight: int, keys: np.ndarray,
                 image_keys: np.ndarray, xz: np.ndarray, order: np.ndarray):
        self._fill(code, max_weight, keys, image_keys, xz, order)

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row of each syndrome key, and whether the table holds that key."""
        rows = np.minimum(np.searchsorted(self.keys, keys), len(self) - 1)
        return rows, self.keys[rows] == keys

    def correction(self, s: Syndrome) -> PauliWord | None:
        if len(s) != self.code.num_generators:
            return None
        rows, hit = self.find(_row_keys(np.array([s.bits], dtype=np.uint8)))
        return _words(self.xz[rows], self.code.n)[0] if hit[0] else None

    def items(self, rows=slice(None)) -> list[tuple[Syndrome, PauliWord]]:
        """(syndrome, correction) pairs of the given rows, by default all in key order."""
        bits = np.unpackbits(self.keys[rows, None].view(np.uint8), axis=1, count=self.code.num_generators)
        return list(zip(map(Syndrome, map(tuple, bits.tolist())), _words(self.xz[rows], self.code.n)))

    @cached_property
    def entries(self) -> dict[Syndrome, PauliWord]:
        return dict(self.items(self.order))

    def __len__(self) -> int:
        return len(self.keys)


def build_syndrome_table(code: StabilizerCode, max_weight: int) -> SyndromeTable:
    """Enumerate errors by ascending weight (identity first, claiming the
    zero syndrome); the first word producing a syndrome becomes its
    correction, and its image key comes from the block's same product."""
    if max_weight < 0:
        raise ValueError(f"max_weight {max_weight} < 0")
    l, firsts, seen = code.num_generators, [], np.empty(0, dtype="S1")
    for _, block in _word_blocks(code.n, 0, max_weight):
        keys, image_keys = code.keys_of(block)
        first = np.sort(np.unique(keys, return_index=True)[1])
        firsts.append((keys[first], image_keys[first], gf2._pack(block[first].reshape(-1, 2, code.n))))
        seen = np.union1d(seen, keys[first])
        # every syndrome is claimed, so no later word can add an entry
        if len(seen) == 1 << l:
            break
    # blocks come in enumeration order, so a key's first row is its correction
    keys, image_keys, xz = (np.concatenate(c) for c in zip(*firsts))
    keys, first = np.unique(keys, return_index=True)
    return SyndromeTable(code, max_weight, keys, image_keys[first], xz[first], np.argsort(first))


def residual_class(code: StabilizerCode, residual: PauliWord) -> Residual:
    """Classify a residual (correction composed with the true error):
    Detectable if any generator anticommutes, else Stabilizer if its image
    lies in the parity-check rowspace, else Logical. Phase is ignored."""
    if residual.n != code.n:
        raise ValueError("residual size mismatch")
    if not syndrome(code, residual).is_zero():
        return Residual.DETECTABLE
    if code.rowspace().contains(residual.symplectic()):
        return Residual.STABILIZER
    return Residual.LOGICAL


def export_code(code: StabilizerCode, table: SyndromeTable | None = None,
                logicals: LogicalOperators | None = None,
                dist: int | None = None) -> dict:
    """JSON-friendly description of a code."""
    doc = {
        "name": code.name,
        "n": code.n,
        "k": code.num_logical_qubits(),
        "generators": code.generator_strings(),
    }
    if logicals is not None:
        doc["logical_x"] = [pauli.format_word(x) for x, _ in logicals.pairs]
        doc["logical_z"] = [pauli.format_word(z) for _, z in logicals.pairs]
    if dist is not None:
        doc["distance"] = dist
    if table is not None:
        doc["table"] = [
            {"syndrome": str(s), "correction": pauli.format_word(w)}
            for s, w in table.items()
        ]
    return doc
