"""Pauli-frame error sampling and Monte-Carlo logical error rate estimation.

Reproducibility contract: shots are partitioned into fixed-size streams;
stream i uses numpy's PCG64 seeded from SeedSequence([seed, i]). Stream
counts are summed, so the result is bit-identical for any worker count.
A trial consumes one uniform block of shape (n,) for single-coin models or
(2, n) for IndependentXZ, which keeps the scalar and vectorized paths on
the same random stream.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from . import gf2
from .gf2 import BitVector
from .pauli import PauliWord
from .stabilizer import StabilizerCode, Syndrome, SyndromeTable, build_syndrome_table

RNG_NAME = "pcg64-seedseq(seed,stream)"
DEFAULT_STREAM_SIZE = 8192


@dataclass(frozen=True)
class BitFlip:
    p: float


@dataclass(frozen=True)
class PhaseFlip:
    p: float


@dataclass(frozen=True)
class Depolarizing:
    """Any single Pauli with probability p per qubit, split evenly X/Y/Z."""

    p: float


@dataclass(frozen=True)
class IndependentXZ:
    """Independent X and Z coins per qubit; `qubits` restricts the coins to
    a designated subset (None means all qubits)."""

    p_x: float
    p_z: float
    qubits: tuple[int, ...] | None = None


NoiseModel = BitFlip | PhaseFlip | Depolarizing | IndependentXZ


def _validate_model(model: NoiseModel) -> None:
    probs = (
        (model.p,) if not isinstance(model, IndependentXZ) else (model.p_x, model.p_z)
    )
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")


def _coin_mask(model: IndependentXZ, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    if model.qubits is None:
        mask[:] = True
    else:
        for q in model.qubits:
            if not 0 <= q < n:
                raise ValueError(f"designated qubit {q} out of range")
            mask[q] = True
    return mask


def _sample_bits(model: NoiseModel, n: int, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map a block of uniforms to (x_bits, z_bits) arrays of shape (..., n)."""
    if isinstance(model, BitFlip):
        x = uniforms < model.p
        return x, np.zeros_like(x)
    if isinstance(model, PhaseFlip):
        z = uniforms < model.p
        return np.zeros_like(z), z
    if isinstance(model, Depolarizing):
        u = uniforms
        p = model.p
        hit = u < p
        x = hit & (u < 2 * p / 3)          # X or Y
        z = hit & (u >= p / 3)             # Y or Z
        return x, z
    if isinstance(model, IndependentXZ):
        mask = _coin_mask(model, uniforms.shape[-1])
        x = (uniforms[..., 0, :] < model.p_x) & mask
        z = (uniforms[..., 1, :] < model.p_z) & mask
        return x, z
    raise TypeError(f"unknown noise model {model!r}")


def _uniform_shape(model: NoiseModel, n: int) -> tuple[int, ...]:
    return (2, n) if isinstance(model, IndependentXZ) else (n,)


def sample_error(model: NoiseModel, n: int, rng: np.random.Generator) -> PauliWord:
    """Draw one iid per-qubit error word."""
    _validate_model(model)
    u = rng.random(_uniform_shape(model, n))
    x, z = _sample_bits(model, n, u)
    return PauliWord(n, BitVector.from_bits(x), BitVector.from_bits(z), 0)


class TrialOutcome(Enum):
    SUCCESS = "Success"
    LOGICAL_ERROR = "LogicalError"
    UNMATCHED_SYNDROME = "UnmatchedSyndrome"


def decode_outcome(
    code: StabilizerCode, table: SyndromeTable, error: PauliWord
) -> TrialOutcome:
    """Look up the correction for the error's syndrome and classify the
    residual: Stabilizer residual means success, anything else is a logical
    error; an absent syndrome is reported as unmatched."""
    from .stabilizer import Residual, residual_class, syndrome

    s = syndrome(code, error)
    if s.is_zero():
        correction = PauliWord.identity(code.n)
    else:
        correction = table.correction(s)
        if correction is None:
            return TrialOutcome.UNMATCHED_SYNDROME
    residual = PauliWord(
        code.n,
        correction.x_bits ^ error.x_bits,
        correction.z_bits ^ error.z_bits,
        0,
    )
    if residual_class(code, residual) is Residual.STABILIZER:
        return TrialOutcome.SUCCESS
    return TrialOutcome.LOGICAL_ERROR


def run_trial(
    code: StabilizerCode,
    table: SyndromeTable,
    model: NoiseModel,
    rng: np.random.Generator,
) -> TrialOutcome:
    """One decode-and-correct round on a freshly sampled error."""
    return decode_outcome(code, table, sample_error(model, code.n, rng))


@dataclass(frozen=True)
class MCStats:
    """count_logical folds in unmatched-syndrome trials (conservative);
    count_unmatched reports that subset separately."""

    shots: int
    count_success: int
    count_logical: int
    count_unmatched: int
    estimate: float
    stderr: float
    seed: int
    rng: str = RNG_NAME
    stream_size: int = DEFAULT_STREAM_SIZE


class _CodeArrays:
    """Dense uint8 views of the code and table used by the stream runner."""

    def __init__(self, code: StabilizerCode, table: SyndromeTable):
        n, l = code.n, code.num_generators
        self.n, self.l = n, l
        # int64 so the uint8 error matrices promote in the syndrome matmul
        # (a uint8 accumulator would overflow past 255 qubits)
        checks = gf2._unpack(code.parity_check.data, 2 * n).astype(np.int64)
        self.gx = np.ascontiguousarray(checks[:, :n])
        self.gz = np.ascontiguousarray(checks[:, n:])
        # the zero syndrome always takes the identity, as in decode_outcome
        entries = {**table.entries, Syndrome((0,) * l): PauliWord.identity(n)}
        keys = _syndrome_keys(np.array([s.bits for s in entries], dtype=np.uint8))
        order = np.argsort(keys)
        self.keys = keys[order]
        words = list(entries.values())
        self.corr_x = gf2._unpack(np.stack([w.x_bits.data for w in words])[order], n)
        self.corr_z = gf2._unpack(np.stack([w.z_bits.data for w in words])[order], n)
        rs = code.rowspace()
        self.rref_rows = gf2._unpack(rs.rref.data[: rs.rank], 2 * n)
        self.rref_pivots = list(rs.pivots)


def _syndrome_keys(syn: np.ndarray) -> np.ndarray:
    """One fixed-width byte string per 0/1 syndrome row, equal iff the rows
    are, for any number of generators. All keys share one width, so the
    bytes dtype's disregard of trailing NULs cannot merge two of them."""
    packed = np.packbits(syn.astype(np.uint8), axis=1)
    return np.ascontiguousarray(packed).view(f"S{packed.shape[1]}").ravel()


def _run_stream(
    arrays: _CodeArrays, model: NoiseModel, size: int, seed_pair: tuple[int, int]
) -> tuple[int, int, int]:
    """(success, logical, unmatched) counts for one derived stream."""
    rng = np.random.default_rng(list(seed_pair))
    n = arrays.n
    u = rng.random((size,) + _uniform_shape(model, n))
    ex, ez = _sample_bits(model, n, u)
    ex = ex.astype(np.uint8)
    ez = ez.astype(np.uint8)
    syn = ((ex @ arrays.gz.T) + (ez @ arrays.gx.T)) & 1
    keys = _syndrome_keys(syn)
    idx = np.minimum(np.searchsorted(arrays.keys, keys), len(arrays.keys) - 1)
    unmatched = arrays.keys[idx] != keys
    rx = ex ^ arrays.corr_x[idx]
    rz = ez ^ arrays.corr_z[idx]
    resid = np.concatenate([rx, rz], axis=1)
    for row, pivot in zip(arrays.rref_rows, arrays.rref_pivots):
        mask = resid[:, pivot] == 1
        if mask.any():
            resid[mask] ^= row
    in_stab = ~resid.any(axis=1)
    n_unmatched = int(unmatched.sum())
    n_success = int((in_stab & ~unmatched).sum())
    n_logical = size - n_success
    return n_success, n_logical, n_unmatched


def logical_error_rate(
    code: StabilizerCode,
    model: NoiseModel,
    shots: int,
    seed: int,
    table: SyndromeTable | None = None,
    workers: int = 1,
    stream_size: int = DEFAULT_STREAM_SIZE,
) -> MCStats:
    """Estimate the logical error rate with `shots` decode-and-correct
    trials; deterministic for a given seed regardless of worker count."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _validate_model(model)
    if table is None:
        table = build_syndrome_table(code, 1)
    arrays = _CodeArrays(code, table)
    sizes = []
    left = shots
    while left > 0:
        take = min(stream_size, left)
        sizes.append(take)
        left -= take
    jobs = [(arrays, model, size, (seed, i)) for i, size in enumerate(sizes)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda j: _run_stream(*j), jobs))
    else:
        results = [_run_stream(*j) for j in jobs]
    success = sum(r[0] for r in results)
    logical = sum(r[1] for r in results)
    unmatched = sum(r[2] for r in results)
    rate = logical / shots
    stderr = math.sqrt(rate * (1.0 - rate) / shots)
    return MCStats(
        shots=shots,
        count_success=success,
        count_logical=logical,
        count_unmatched=unmatched,
        estimate=rate,
        stderr=stderr,
        seed=seed,
        stream_size=stream_size,
    )


MAX_ANALYTIC_COINS = 8


def error_distribution_analytic(model: NoiseModel, qubits) -> dict[str, float]:
    """Exact product-of-Bernoullis probability for every coin pattern on a
    small designated qubit subset. Keys are 1-based product labels like
    "X1Z3" ("I" for the empty pattern)."""
    _validate_model(model)
    qubits = list(qubits)
    if isinstance(model, BitFlip):
        coins = [("X", q, model.p) for q in qubits]
    elif isinstance(model, PhaseFlip):
        coins = [("Z", q, model.p) for q in qubits]
    elif isinstance(model, IndependentXZ):
        coins = [("X", q, model.p_x) for q in qubits] + [
            ("Z", q, model.p_z) for q in qubits
        ]
    else:
        raise ValueError("per-pattern Bernoulli analysis needs binary coins "
                         "(BitFlip, PhaseFlip, or IndependentXZ)")
    if len(coins) > MAX_ANALYTIC_COINS:
        raise ValueError(f"subset too large ({len(coins)} coins > {MAX_ANALYTIC_COINS})")
    out: dict[str, float] = {}
    for r in range(len(coins) + 1):
        for fired in combinations(range(len(coins)), r):
            prob = 1.0
            label_parts = []
            for i, (letter, q, p) in enumerate(coins):
                if i in fired:
                    prob *= p
                    label_parts.append(f"{letter}{q + 1}")
                else:
                    prob *= 1.0 - p
            out["".join(label_parts) if label_parts else "I"] = prob
    return out
