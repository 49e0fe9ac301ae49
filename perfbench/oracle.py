"""Independent decode oracle for stabkit's Monte-Carlo estimator.

It replays the documented stream contract of `logical_error_rate`: shots
are cut into streams of `stream_size` trials, stream i of a run with seed s
draws from PCG64 seeded by SeedSequence([s, i]), and each trial consumes one
uniform block of shape (n,). Everything after the uniforms is computed here
from 0/1 arrays, sharing no code with stabkit:

* the weight-1 table is rebuilt in enumeration order (identity, then qubit 0
  as X, Y, Z, then qubit 1, ...); the first word seen for a syndrome wins;
* lookups are keyed on the full packed syndrome bytes, never on an integer;
* a residual is a stabilizer iff it commutes with every generator and with
  every logical representative.

The oracle imports nothing from stabkit, so callers pass plain 0/1 arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Trials decoded at a time. Small chunks keep the oracle's memory well below
# stabkit's, so the run's peak RSS measures stabkit.
CHUNK = 1024

def anticommutation(ax, az, bx, bz) -> np.ndarray:
    """(len(a), len(b)) matrix of symplectic products of words given as 0/1
    rows over qubits. The products are sums of at most 2n ones, which
    float32 holds exactly, so the matrix products can run in BLAS."""
    a = np.hstack([ax, az]).astype(np.float32)
    b = np.hstack([bz, bx]).astype(np.float32)
    return ((a @ b.T).astype(np.int64) & 1).astype(np.uint8)


def sample(kind: str, p: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map uniforms to (x, z) error bits. Depolarizing splits [0, p) into
    thirds: [0, p/3) is X, [p/3, 2p/3) is Y and [2p/3, p) is Z."""
    if kind == "bitflip":
        return u < p, np.zeros(u.shape, dtype=bool)
    if kind == "depolarizing":
        return u < 2 * p / 3, (u >= p / 3) & (u < p)
    raise ValueError(f"oracle has no noise model {kind!r}")


@dataclass(frozen=True)
class Counts:
    success: int
    logical: int
    unmatched: int
    distinct_syndromes: int
    streams: int

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.success, self.logical, self.unmatched)


class DecodeOracle:
    """Weight-1 lookup decoding of one code, from its generator bits
    (gx, gz: l x n) and logical representatives (lx, lz: 2k x n, the k
    X-like words first, then the k Z-like words)."""

    def __init__(self, gx, gz, lx, lz):
        self.gx, self.gz = np.asarray(gx, dtype=np.uint8), np.asarray(gz, dtype=np.uint8)
        self.lx, self.lz = np.asarray(lx, dtype=np.uint8), np.asarray(lz, dtype=np.uint8)
        l, n = self.gx.shape
        self.n = n
        k = n - l
        if len(self.lx) != 2 * k:
            raise ValueError(f"need {2 * k} logical representatives, got {len(self.lx)}")
        if anticommutation(self.lx, self.lz, self.gx, self.gz).any():
            raise ValueError("a logical representative anticommutes with a generator")
        gram = anticommutation(self.lx, self.lz, self.lx, self.lz)
        eye = np.eye(k, dtype=np.uint8)
        zero = np.zeros((k, k), dtype=np.uint8)
        if not np.array_equal(gram, np.block([[zero, eye], [eye, zero]])):
            raise ValueError("logical representatives are not symplectic pairs")
        cx = np.zeros((1 + 3 * n, n), dtype=np.uint8)
        cz = np.zeros_like(cx)
        for q in range(n):
            cx[1 + 3 * q, q] = cx[2 + 3 * q, q] = 1   # X, Y
            cz[2 + 3 * q, q] = cz[3 + 3 * q, q] = 1   # Y, Z
        self.cand_x, self.cand_z = cx, cz
        self.table: dict[bytes, int] = {}
        for i, key in enumerate(self.syndrome_keys(cx, cz)):
            self.table.setdefault(key.tobytes(), i)

    def syndrome_keys(self, ex, ez) -> np.ndarray:
        """Packed syndrome bytes, one row per error row."""
        return np.packbits(anticommutation(ex, ez, self.gx, self.gz), axis=-1)

    def stream(self, kind: str, p: float, size: int, seed: int, index: int) -> Counts:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))
        success = unmatched = 0
        distinct: set[bytes] = set()
        for start in range(0, size, CHUNK):   # consecutive rows: the same uniforms
            u = rng.random((min(CHUNK, size - start), self.n))
            ex, ez = (e.view(np.uint8) for e in sample(kind, p, u))
            keys = self.syndrome_keys(ex, ez)
            # Distinct rows, sorted as fixed-width byte strings (much faster
            # than np.unique(axis=0)); equal widths make equal strings equal
            # rows. The lookups then use each distinct row's own bytes.
            _, first, inverse = np.unique(keys.view(f"S{keys.shape[1]}").ravel(),
                                          return_index=True, return_inverse=True)
            rows = [keys[i].tobytes() for i in first]
            distinct.update(rows)
            hit = np.array([self.table.get(row, -1) for row in rows])[inverse]
            matched = hit >= 0
            corr = np.where(matched, hit, 0)
            rx, rz = ex ^ self.cand_x[corr], ez ^ self.cand_z[corr]
            detectable = anticommutation(rx, rz, self.gx, self.gz).any(axis=1)
            logical = anticommutation(rx, rz, self.lx, self.lz).any(axis=1)
            success += int((matched & ~detectable & ~logical).sum())
            unmatched += int((~matched).sum())
        return Counts(success, size - success, unmatched, len(distinct), 1)

    def run(self, kind: str, p: float, shots: int, seed: int, stream_size: int) -> Counts:
        """Counts for a whole `logical_error_rate` call."""
        parts = []
        for index, start in enumerate(range(0, shots, stream_size)):
            parts.append(self.stream(kind, p, min(stream_size, shots - start), seed, index))
        return Counts(*(sum(getattr(c, f) for c in parts) for f in Counts.__dataclass_fields__))
