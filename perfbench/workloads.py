"""The benchmark's workloads: the inputs a seed makes, what one op does, and
how each op's output is checked outside the timed region.

Every workload is a fixed list of configurations; a round runs one op per
configuration, and the timed loop repeats whole rounds. An op's seed derives
from the workload seed, the configuration index and the round, so no two ops
of a run repeat the same call, and the first round's outputs (which the run
digests) do not depend on how many rounds fit in the measured time.

`sk` is the imported stabkit package and `span(name, calls)` returns a
context manager (a no-op with tracing off) that the ops wrap around each
call into a stabkit layer.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import DecodeOracle, anticommutation
from spans import no_span

NOISE = {"depolarizing": "Depolarizing", "bitflip": "BitFlip"}


def derive_seed(seed: int, index: int, round_: int) -> int:
    return int(np.random.SeedSequence([seed, index, round_]).generate_state(1)[0])


def _bits(words) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([w.x_bits.to_bits() for w in words], dtype=np.uint8),
            np.array([w.z_bits.to_bits() for w in words], dtype=np.uint8))


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()[:16]


@dataclass
class Verdict:
    problems: list[str]   # empty when the output was verified
    summary: str          # the output as digested
    work: int             # verified shots (0 for a failed op)
    counts: dict[str, int]


@dataclass(frozen=True)
class MCConfig:
    code: str
    kind: str
    p: float
    shots: int

    def noise(self) -> str:
        return f"{NOISE[self.kind]}({self.p!r})"


class MonteCarlo:
    """Shared checks of the two Monte-Carlo workloads. An op returns the
    MCStats of one `logical_error_rate` call; the oracle replays the same
    streams and must reproduce all three counts."""

    def __init__(self, grid, shots: int):
        """`grid` lists (code, noise kind, p) per configuration."""
        self.configs = [MCConfig(c, k, p, shots) for c, k, p in grid]
        self._oracles: dict[str, DecodeOracle] = {}
        # a fresh set-up before every round: the round's ops share one table
        self.ops_per_setup = len(self.configs)

    def describe(self, sk, cfg: MCConfig) -> str:
        code = sk.catalog.by_name(cfg.code).code
        return (f"{cfg.code} n={code.n} generators={code.num_generators} "
                f"noise={cfg.noise()} p={cfg.p!r} shots/op={cfg.shots}")

    def oracle(self, sk, name: str) -> DecodeOracle:
        if name not in self._oracles:
            code = sk.catalog.by_name(name).code
            pairs = sk.stabilizer.logical_operators(code).pairs
            reps = [x for x, _ in pairs] + [z for _, z in pairs]
            self._oracles[name] = DecodeOracle(*_bits(code.generators), *_bits(reps))
        return self._oracles[name]

    def check(self, sk, cfg: MCConfig, seed: int, out) -> Verdict:
        """All three counts must equal the oracle's for the same streams."""
        want = self.oracle(sk, cfg.code).run(
            cfg.kind, cfg.p, cfg.shots, seed, sk.montecarlo.DEFAULT_STREAM_SIZE)
        got = (out.count_success, out.count_logical, out.count_unmatched)
        bad = []
        if out.shots != cfg.shots or got != want.triple:
            bad.append(f"(success, logical, unmatched) got={got} expected={want.triple}")
        counts = {"streams": want.streams, "shots": cfg.shots,
                  "unmatched": out.count_unmatched, "distinct_syndromes": want.distinct_syndromes}
        return Verdict(bad, " ".join(map(str, got)), 0 if bad else cfg.shots, counts)

    def reproduce(self, sk, state, cfg: MCConfig, seed: int, out) -> str | None:
        """Re-run the op with two workers; the MCStats must be identical."""
        again = self.op(sk, state, cfg, seed, no_span, workers=2)
        return None if again == out else f"workers=2 gave {again}, workers=1 gave {out}"

    def _estimate(self, sk, code, table, cfg: MCConfig, seed: int, span, workers: int):
        model = getattr(sk.montecarlo, NOISE[cfg.kind])(cfg.p)
        with span("montecarlo.logical_error_rate"):
            return sk.montecarlo.logical_error_rate(
                code, model, cfg.shots, seed, table=table, workers=workers)


class MCLattice(MonteCarlo):
    """Lattice codes of 30, 60 and 70 generators, each op 20000 shots (two
    full 8192-shot streams and one partial) against a prebuilt weight-1
    table. The batch shot kernel is almost all of each op, and toric:6x6
    is past the 64-generator limit of the batch decoder's integer keys."""

    name = "mc_lattice"
    trace_rounds = 1

    def __init__(self):
        noises = [("depolarizing", 0.005), ("depolarizing", 0.02), ("bitflip", 0.01)]
        super().__init__([(c, k, p) for c in ("toric:4x4", "planar:5x6", "toric:6x6")
                          for k, p in noises], 20000)

    def setup(self, sk, span):
        state = {}
        for name in dict.fromkeys(c.code for c in self.configs):
            with span("catalog.by_name"):
                code = sk.catalog.by_name(name).code
            with span("stabilizer.build_syndrome_table.w1"):
                state[name] = (code, sk.stabilizer.build_syndrome_table(code, 1))
        return state

    def op(self, sk, state, cfg: MCConfig, seed: int, span, workers: int = 1):
        code, table = state[cfg.code]
        return self._estimate(sk, code, table, cfg, seed, span, workers)


class MCSweep(MonteCarlo):
    """A `simulate`-style threshold sweep over 20 p values on the three
    small codes; each op builds the code and its weight-1 table, then runs
    one 4000-shot estimate (a single partial stream). Fixed per-call costs
    are about half of each op."""

    name = "mc_sweep"
    trace_rounds = 8

    def __init__(self):
        ps = [float(p) for p in np.geomspace(0.001, 0.2, 20)]
        kinds = {"five-qubit": "depolarizing", "shor": "depolarizing", "three-qubit-bit": "bitflip"}
        super().__init__([(c, k, p) for c, k in kinds.items() for p in ps], 4000)

    def setup(self, sk, span):
        return None

    def op(self, sk, state, cfg: MCConfig, seed: int, span, workers: int = 1):
        with span("catalog.by_name"):
            code = sk.catalog.by_name(cfg.code).code
        with span("stabilizer.build_syndrome_table.w1"):
            table = sk.stabilizer.build_syndrome_table(code, 1)
        return self._estimate(sk, code, table, cfg, seed, span, workers)


@dataclass(frozen=True)
class WorkupConfig:
    code: str
    table_weight: int
    family: str | None


# QASM demo noise per gate-encoded code; shor and three-qubit-bit match the
# golden files under tests/golden.
DEMO_NOISE = {
    "five-qubit": lambda mc: mc.BitFlip(0.1),
    "shor": lambda mc: mc.IndependentXZ(0.1, 0.1, qubits=(0, 2)),
    "three-qubit-bit": lambda mc: mc.BitFlip(0.1),
}
GOLDEN = {"shor": "shor_demo.qasm", "three-qubit-bit": "three_qubit_bit_demo.qasm"}
DISTANCE_MAX_N = 18
STATEVEC_MAX_N = 13
THRESHOLD_TOL = 1e-6


class CodeWorkup:
    """One op works up one code the way `codes describe` and the acceptance
    criteria do. The per-bit Python paths of pauli, stabilizer and gf2 do
    almost all of the work; the batch Monte-Carlo kernel is not used."""

    name = "code_workup"
    trace_rounds = 1
    # `codes describe` works up one code per process: a fresh import before
    # every op, so no state carries over from one workup to the next
    ops_per_setup = 1

    def __init__(self, root: Path):
        codes = [  # (name, syndrome table weight, analytic family)
            ("five-qubit", 2, "five_qubit"), ("shor", 2, "shor"),
            ("three-qubit-bit", 2, "three_qubit"), ("planar:2x3", 2, None),
            ("toric:3x3", 2, None), ("planar:3x4", 2, None), ("toric:4x4", 2, None),
            # weight 2 on 72 qubits takes about 12 s
            ("toric:6x6", 1, None),
        ]
        self.configs = [WorkupConfig(*c) for c in codes]
        self.golden_dir = root / "tests" / "golden"

    def describe(self, sk, cfg: WorkupConfig) -> str:
        code = sk.catalog.by_name(cfg.code).code
        return f"{cfg.code} n={code.n} generators={code.num_generators} table_weight={cfg.table_weight}"

    def setup(self, sk, span):
        return None

    @staticmethod
    def errors(sk, n: int):
        return [sk.pauli.PauliWord.single(n, q, letter) for q in range(n) for letter in "XYZ"]

    def op(self, sk, state, cfg: WorkupConfig, seed: int, span):
        out = {}
        with span("catalog.by_name"):
            bundle = out["bundle"] = sk.catalog.by_name(cfg.code)
        code = bundle.code
        with span("stabilizer.validate"):
            out["validate"] = sk.stabilizer.validate(code)
        with span("gf2.rank"):
            out["rank"] = sk.gf2.rank(code.parity_check)
        with span("stabilizer.logical_operators"):
            out["logicals"] = sk.stabilizer.logical_operators(code)
        if ":" in cfg.code:
            kind, dims = cfg.code.split(":")
            build = sk.lattice.build_toric if kind == "toric" else sk.lattice.build_planar
            with span("lattice.build"):
                lat = build(*map(int, dims.split("x")))
            with span("lattice.homology_rank"):
                out["homology"] = sk.lattice.homology_rank(lat.complex, 1)
        with span(f"stabilizer.build_syndrome_table.w{cfg.table_weight}"):
            table = out["table"] = sk.stabilizer.build_syndrome_table(code, cfg.table_weight)
        if code.n <= DISTANCE_MAX_N:
            with span("stabilizer.distance"):
                out["distance"] = sk.stabilizer.distance(code, bundle.params[2])
        errors = self.errors(sk, code.n)
        with span("montecarlo.decode_outcome", len(errors)):
            out["outcomes"] = [sk.montecarlo.decode_outcome(code, table, e) for e in errors]
        if code.n <= STATEVEC_MAX_N:
            sv = sk.statevec
            rng = np.random.default_rng(seed)
            amps = rng.normal(size=(2, 2 ** code.num_logical_qubits())) @ [1, 1j]
            with span("statevec.encode"):
                encoded = out["encoded"] = sv.encode(bundle, sv.StateVector(
                    code.num_logical_qubits(), amps / np.linalg.norm(amps)))
            out["sv_syndromes"] = []
            for e in errors:
                state = encoded.copy()
                sv.apply_pauli(state, e)
                with span("statevec.hadamard_test_syndrome"):
                    s, _ = sv.hadamard_test_syndrome(state, code.generators, rng=rng)
                out["sv_syndromes"].append(s)
        if cfg.code in DEMO_NOISE:
            with span("qasm.emit_code_demo"):
                source = out["qasm"] = sk.qasm.emit_code_demo(
                    bundle, DEMO_NOISE[cfg.code](sk.montecarlo)).source
            with span("qasm.parse_qasm"):
                out["parsed"] = sk.qasm.parse_qasm(source)
        if cfg.family:
            with span("analytic.pseudo_threshold"):
                out["threshold"] = sk.analytic.pseudo_threshold(cfg.family)
        return out

    def check(self, sk, cfg: WorkupConfig, seed: int, out) -> Verdict:
        code = out["bundle"].code
        bad = []
        if out["validate"]:
            bad.append(f"validate returned {out['validate']}")
        if out["rank"] != code.num_generators:
            bad.append(f"rank {out['rank']} != {code.num_generators} generators")
        if v := out["logicals"].violations(code):
            bad.append(f"logical operator violations {v}")
        if "homology" in out:
            k = 2 if cfg.code.startswith("toric") else 1
            if out["homology"] != k or code.num_logical_qubits() != k:
                bad.append(f"homology rank {out['homology']}, k={code.num_logical_qubits()}, want {k}")
        table_problem, table_sha = self._check_table(code, out["table"])
        bad += table_problem
        if "distance" in out:
            # README: the full-Pauli distance of three-qubit-bit is 1
            want = 1 if cfg.code == "three-qubit-bit" else out["bundle"].params[2]
            if out["distance"] != want:
                bad.append(f"distance {out['distance']} != {want}")
        TO = sk.montecarlo.TrialOutcome
        for i, (e, got) in enumerate(zip(self.errors(sk, code.n), out["outcomes"])):
            # README: Y and Z errors act logically on three-qubit-bit
            logical = cfg.code == "three-qubit-bit" and "XYZ"[i % 3] != "X"
            if got is not (TO.LOGICAL_ERROR if logical else TO.SUCCESS):
                bad.append(f"{sk.pauli.format_word(e)} decoded to {got.value}")
        for e, s in zip(self.errors(sk, code.n), out.get("sv_syndromes", ())):
            if s != sk.stabilizer.syndrome(code, e):
                bad.append(f"state-vector syndrome of {sk.pauli.format_word(e)} is {s}")
        if "qasm" in out:
            if cfg.code in GOLDEN and out["qasm"] != (self.golden_dir / GOLDEN[cfg.code]).read_text():
                bad.append(f"QASM demo differs from {GOLDEN[cfg.code]}")
            if sk.qasm.emit(*out["parsed"]).source != out["qasm"]:
                bad.append("parsed QASM demo does not re-emit to the same text")
        if "threshold" in out:
            p = out["threshold"]
            if abs(sk.analytic.code_failure_analytic(cfg.family, p) - p) > THRESHOLD_TOL:
                bad.append(f"pseudo-threshold {p!r} is not a fixed point within {THRESHOLD_TOL}")
        summary = " ".join([
            repr(out["validate"]), str(out["rank"]),
            " ".join(x.letters() + "/" + z.letters() for x, z in out["logicals"].pairs),
            str(out.get("homology")), str(out.get("distance")), table_sha,
            _sha(" ".join(o.value for o in out["outcomes"])),
            _sha(" ".join(map(str, out.get("sv_syndromes", ())))),
            _sha(out["encoded"].amps.tobytes()) if "encoded" in out else "-",
            _sha(out.get("qasm", "")), repr(out.get("threshold")),
        ])
        return Verdict(bad, summary, 0 if bad else len(out["outcomes"]), {})

    @staticmethod
    def _check_table(code, table) -> tuple[list[str], str]:
        """Each entry's syndrome, computed by the oracle's arithmetic, must
        equal its key."""
        entries = sorted(table.entries.items(), key=lambda kv: kv[0].bits)
        wx, wz = _bits([w for _, w in entries])
        keys = anticommutation(wx, wz, *_bits(code.generators))
        bad = [] if all(tuple(row) == s.bits for row, (s, _) in zip(keys.tolist(), entries)) \
            else ["a table entry's syndrome differs from its key"]
        return bad, _sha(wx.tobytes() + wz.tobytes() + keys.tobytes())
