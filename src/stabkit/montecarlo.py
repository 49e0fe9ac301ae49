"""Pauli-frame error sampling and Monte-Carlo logical error rate estimation.

Reproducibility contract: shots are partitioned into fixed-size streams;
stream i uses numpy's PCG64 seeded from SeedSequence([seed, i]). Stream
counts are summed, so the result is bit-identical for any worker count.
A trial consumes one uniform block of shape (n,) for single-coin models or
(2, n) for IndependentXZ, which keeps the scalar and vectorized paths on
the same random stream. A stream is drawn and decoded block by block, at
most `stabilizer._BLOCK_ROWS` trials at a time; consecutive draws give the
same uniforms as one large draw, so the block size is not part of the
contract and bounds a stream's memory whatever its size.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from enum import Enum
from itertools import combinations

import numpy as np

from ._record import Record
from .gf2 import BitVector
from .pauli import PauliWord
from . import stabilizer
from .stabilizer import StabilizerCode, SyndromeTable, build_syndrome_table

RNG_NAME = "pcg64-seedseq(seed,stream)"
DEFAULT_STREAM_SIZE = 8192


class _OneCoin(Record):
    __slots__ = _fields = ("p",)

    def __init__(self, p: float):
        self._fill(p)


class BitFlip(_OneCoin):
    __slots__ = ()


class PhaseFlip(_OneCoin):
    __slots__ = ()


class Depolarizing(_OneCoin):
    """Any single Pauli with probability p per qubit, split evenly X/Y/Z."""

    __slots__ = ()


class IndependentXZ(Record):
    """Independent X and Z coins per qubit; `qubits` restricts the coins to
    a designated subset (None means all qubits)."""

    __slots__ = _fields = ("p_x", "p_z", "qubits")

    def __init__(self, p_x: float, p_z: float, qubits: tuple[int, ...] | None = None):
        self._fill(p_x, p_z, qubits)


NoiseModel = BitFlip | PhaseFlip | Depolarizing | IndependentXZ


def _validate_model(model: NoiseModel, n: int | None = None) -> None:
    """Reject probabilities outside [0, 1], an empty designated-qubit list
    (None means all qubits), and designated qubits that are negative,
    repeated, or >= n when n is given."""
    probs = (
        (model.p,) if not isinstance(model, IndependentXZ) else (model.p_x, model.p_z)
    )
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
    if getattr(model, "qubits", None) is not None:
        if not model.qubits:
            raise ValueError("the designated qubit list is empty")
        _check_qubits(model.qubits, n)


def _check_qubits(qubits, n: int | None) -> list[int]:
    qubits = list(qubits)
    for q in qubits:
        if q < 0 or (n is not None and q >= n):
            raise ValueError(f"designated qubit {q} out of range")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"designated qubits {qubits} repeat")
    return qubits


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
        x = uniforms[..., 0, :] < model.p_x
        z = uniforms[..., 1, :] < model.p_z
        if model.qubits is not None:
            mask = np.zeros(n, dtype=bool)
            mask[list(model.qubits)] = True
            x &= mask
            z &= mask
        return x, z
    raise TypeError(f"unknown noise model {model!r}")


def _uniform_shape(model: NoiseModel, n: int) -> tuple[int, ...]:
    return (2, n) if isinstance(model, IndependentXZ) else (n,)


def sample_error(model: NoiseModel, n: int, rng: np.random.Generator) -> PauliWord:
    """Draw one iid per-qubit error word."""
    _validate_model(model, n)
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
    from .stabilizer import Residual, _xor, residual_class, syndrome

    correction = table.correction(syndrome(code, error))
    if correction is None:
        return TrialOutcome.UNMATCHED_SYNDROME
    if residual_class(code, _xor(correction, error)) is Residual.STABILIZER:
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


class MCStats(Record):
    """count_logical folds in unmatched-syndrome trials (conservative);
    count_unmatched reports that subset separately."""

    __slots__ = _fields = ("shots", "count_success", "count_logical", "count_unmatched",
                           "estimate", "stderr", "seed", "rng", "stream_size")

    def __init__(self, shots: int, count_success: int, count_logical: int, count_unmatched: int,
                 estimate: float, stderr: float, seed: int, rng: str = RNG_NAME,
                 stream_size: int = DEFAULT_STREAM_SIZE):
        self._fill(shots, count_success, count_logical, count_unmatched, estimate, stderr, seed,
                   rng, stream_size)

    # the 95% Wilson score interval of the logical rate, above 0 even when no shot fails
    ci_low = property(lambda self: _wilson(self.count_logical, self.shots)[0])
    ci_high = property(lambda self: _wilson(self.count_logical, self.shots)[1])


def _wilson(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval of k failures in n shots (z: the two-sided normal quantile)."""
    z = 1.959963984540054
    center, half = k + z * z / 2, z * math.sqrt(k * (n - k) / n + z * z / 4)
    return max(0.0, (center - half) / (n + z * z)), min(1.0, (center + half) / (n + z * z))


def _run_stream(code: StabilizerCode, table: SyndromeTable, model: NoiseModel, size: int,
                seed_pair: tuple[int, int]) -> tuple[int, int, int]:
    """(success, logical, unmatched) counts for one derived stream, decoded in
    blocks of `stabilizer._BLOCK_ROWS` shots; a matched shot succeeds iff its
    image equals its correction's (`StabilizerCode.images`)."""
    rng, block = np.random.default_rng(list(seed_pair)), stabilizer._BLOCK_ROWS
    shape, n_success, n_matched = _uniform_shape(model, code.n), 0, 0
    for lo in range(0, size, block):
        bits = _sample_bits(model, code.n, rng.random((min(block, size - lo),) + shape))
        keys, image_keys = code.keys_of(np.concatenate(bits, axis=1, dtype=np.float32))
        rows, matched = table.find(keys)
        n_success += int((matched & (table.image_keys[rows] == image_keys)).sum())
        n_matched += int(matched.sum())
    return n_success, size - n_success, size - n_matched


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
    if shots < 1 or stream_size < 1 or workers < 1:
        raise ValueError("shots, stream_size and workers must be >= 1")
    _validate_model(model, code.n)
    if table is None:
        table = build_syndrome_table(code, 1)
    if table.code.parity_check != code.parity_check:
        raise ValueError(f"the table was built for {table.code.name}, not {code.name}")
    jobs = [
        (code, table, model, min(stream_size, shots - start), (seed, i))
        for i, start in enumerate(range(0, shots, stream_size))
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda j: _run_stream(*j), jobs))
    else:
        results = [_run_stream(*j) for j in jobs]
    success, logical, unmatched = (sum(counts) for counts in zip(*results))
    rate = logical / shots
    stderr = math.sqrt(rate * (1.0 - rate) / shots)
    return MCStats(shots, success, logical, unmatched, rate, stderr, seed, stream_size=stream_size)


MAX_ANALYTIC_COINS = 8


def _noise_coins(model: NoiseModel, qubits=None, n: int | None = None) -> list[tuple[str, int, float]]:
    """(letter, qubit, probability) per binary coin, X coins first. `qubits`
    defaults to the model's designated qubits (or all n) and names only those.
    The model and the qubits pass the checks of `_validate_model`."""
    _validate_model(model, n)
    designated = getattr(model, "qubits", None)
    if qubits is None:
        qubits = range(n) if designated is None else designated
    qubits = _check_qubits(qubits, n)
    if designated is not None and not set(qubits) <= set(designated):
        raise ValueError(f"qubits {qubits} are not all among the model's designated {designated}")
    if isinstance(model, BitFlip):
        return [("X", q, model.p) for q in qubits]
    if isinstance(model, PhaseFlip):
        return [("Z", q, model.p) for q in qubits]
    if isinstance(model, IndependentXZ):
        return [("X", q, model.p_x) for q in qubits] + [("Z", q, model.p_z) for q in qubits]
    raise ValueError(f"per-qubit coins need BitFlip, PhaseFlip or IndependentXZ, not {model!r}")


def error_distribution_analytic(model: NoiseModel, qubits) -> dict[str, float]:
    """Exact product-of-Bernoullis probability for every coin pattern on a
    small designated qubit subset. Keys are 1-based product labels like
    "X1Z3" ("I" for the empty pattern)."""
    coins = _noise_coins(model, qubits)
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
