import math
import tracemalloc

import numpy as np
import pytest

from stabkit import catalog, montecarlo as mc, pauli, stabilizer as stab
from stabkit.montecarlo import (
    BitFlip,
    Depolarizing,
    IndependentXZ,
    PhaseFlip,
    TrialOutcome,
)
from stabkit.pauli import PauliWord


def test_sample_error_p0_identity():
    rng = np.random.default_rng(0)
    for model in (BitFlip(0.0), PhaseFlip(0.0), Depolarizing(0.0), IndependentXZ(0.0, 0.0)):
        assert mc.sample_error(model, 6, rng) == PauliWord.identity(6)


def test_sample_error_p1_bitflip():
    rng = np.random.default_rng(0)
    word = mc.sample_error(BitFlip(1.0), 5, rng)
    assert pauli.format_word(word) == "XXXXX"


def test_sample_error_p1_phaseflip():
    rng = np.random.default_rng(0)
    assert pauli.format_word(mc.sample_error(PhaseFlip(1.0), 3, rng)) == "ZZZ"


def test_sample_error_respects_designated_qubits():
    rng = np.random.default_rng(0)
    model = IndependentXZ(1.0, 1.0, qubits=(0, 2))
    word = mc.sample_error(model, 4, rng)
    assert pauli.format_word(word) == "YIYI"


def test_depolarizing_letter_split():
    rng = np.random.default_rng(12)
    counts = {"X": 0, "Y": 0, "Z": 0}
    for _ in range(3000):
        w = mc.sample_error(Depolarizing(0.9), 1, rng)
        letter = w.letters()
        if letter != "I":
            counts[letter] += 1
    total = sum(counts.values())
    for share in counts.values():
        assert abs(share / total - 1 / 3) < 0.05


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        mc.sample_error(BitFlip(1.5), 3, np.random.default_rng(0))


@pytest.mark.parametrize("qubits", [(0, 0), (1, 2, 1)], ids=["pair", "third"])
def test_repeated_designated_qubits_rejected(qubits):
    model = IndependentXZ(0.1, 0.1, qubits=qubits)
    with pytest.raises(ValueError, match="repeat"):
        mc.sample_error(model, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="repeat"):
        mc.logical_error_rate(catalog.make_shor().code, model, 100, seed=0)


def test_empty_designated_qubit_list_rejected():
    # None means all qubits; an empty tuple designates none and is an error
    model = IndependentXZ(0.1, 0.1, qubits=())
    with pytest.raises(ValueError, match="designated qubit list is empty"):
        mc.logical_error_rate(catalog.make_shor().code, model, 100, seed=0)
    with pytest.raises(ValueError, match="designated qubit list is empty"):
        mc.sample_error(model, 4, np.random.default_rng(0))


def test_decode_outcomes_three_qubit():
    bundle = catalog.make_three_qubit_bit()
    table = stab.build_syndrome_table(bundle.code, 1)
    assert mc.decode_outcome(bundle.code, table, pauli.parse("X2", 3)) is TrialOutcome.SUCCESS
    # X1X2 shares a syndrome with X3; the correction leaves the logical XXX
    assert mc.decode_outcome(bundle.code, table, pauli.parse("X1X2", 3)) is TrialOutcome.LOGICAL_ERROR


def test_decode_outcome_shor_degenerate_success():
    bundle = catalog.make_shor()
    table = stab.build_syndrome_table(bundle.code, 1)
    err = pauli.parse("Z3", 9)  # block-1 phase flip
    corr = table.correction(stab.syndrome(bundle.code, err))
    assert corr != err  # correction hits a different qubit of the block
    assert mc.decode_outcome(bundle.code, table, err) is TrialOutcome.SUCCESS


def test_unmatched_syndrome_reported():
    bundle = catalog.make_planar(1, 2)
    table = stab.build_syndrome_table(bundle.code, 1)  # 12 of 16 syndromes
    err = pauli.parse("X2Z3", 5)  # weight-2 syndrome 0111, absent at weight 1
    assert mc.decode_outcome(bundle.code, table, err) is TrialOutcome.UNMATCHED_SYNDROME


def test_rate_zero_at_p0():
    bundle = catalog.make_five_qubit()
    stats = mc.logical_error_rate(bundle.code, Depolarizing(0.0), 2000, seed=3)
    assert stats.estimate == 0.0
    assert stats.count_success == 2000


def test_three_qubit_rate_matches_closed_form():
    bundle = catalog.make_three_qubit_bit()
    for p in (0.05, 0.1):
        stats = mc.logical_error_rate(bundle.code, BitFlip(p), 50_000, seed=1)
        closed = 3 * p**2 - 2 * p**3
        assert abs(stats.estimate - closed) < 4 * stats.stderr


def test_five_qubit_rate_matches_closed_form():
    bundle = catalog.make_five_qubit()
    for p in (0.05, 0.1):
        stats = mc.logical_error_rate(bundle.code, Depolarizing(p), 50_000, seed=1)
        closed = 1 - (1 - p) ** 5 - 5 * p * (1 - p) ** 4
        assert abs(stats.estimate - closed) < 4 * stats.stderr


def _shor_weight2_failure_lower_bound(p: float) -> float:
    """Exact probability of weight-2 depolarizing patterns the decoder
    fails on; every weight-0/1 pattern succeeds, so this lower-bounds the
    failure rate."""
    bundle = catalog.make_shor()
    table = stab.build_syndrome_table(bundle.code, 1)
    q = p / 3
    lower = 0.0
    for word in stab.enumerate_words(9, 1, 2):
        w = pauli.weight(word)
        outcome = mc.decode_outcome(bundle.code, table, word)
        if w == 1:
            assert outcome is TrialOutcome.SUCCESS
        elif outcome is not TrialOutcome.SUCCESS:
            lower += q**2 * (1 - p) ** 7
    return lower


def test_shor_rate_bounds():
    bundle = catalog.make_shor()
    p = 0.05
    stats = mc.logical_error_rate(bundle.code, Depolarizing(p), 50_000, seed=1)
    closed = 1 - (1 - p) ** 8 * (1 + 8 * p)
    lower = _shor_weight2_failure_lower_bound(p)
    assert stats.estimate <= closed + 4 * stats.stderr
    assert stats.estimate >= lower - 4 * stats.stderr


def test_seed_determinism_across_workers():
    bundle = catalog.make_five_qubit()
    runs = [
        mc.logical_error_rate(bundle.code, Depolarizing(0.08), 30_000, seed=42, workers=w)
        for w in (1, 8)
    ]
    assert runs[0] == runs[1]
    repeat = mc.logical_error_rate(bundle.code, Depolarizing(0.08), 30_000, seed=42)
    assert repeat == runs[0]


# fewer than, exactly and more than 64 generators (4, 64, 64 and 70); weight-2
# tables, whose corrections differ from some errors by a nontrivial
# stabilizer; and a k = 0 code, where every matched shot is a success
@pytest.mark.parametrize("name,max_weight", [
    pytest.param("five-qubit", 1, id="five-qubit"),
    pytest.param("toric:3x11", 1, id="toric:3x11"),
    pytest.param("planar:1x22", 1, id="planar:1x22"),
    pytest.param("toric:6x6", 1, id="toric:6x6"),
    pytest.param("shor", 2, id="shor-w2"),
    pytest.param("toric:3x3", 2, id="toric:3x3-w2"),
    pytest.param("bell", 1, id="bell"),
])
def test_stream_runner_matches_scalar_trials(name, max_weight):
    if name == "bell":
        code = stab.StabilizerCode.from_strings("bell", ["XX", "ZZ"])
    else:
        code = catalog.by_name(name).code
    table = stab.build_syndrome_table(code, max_weight)
    models = (Depolarizing(0.08), Depolarizing(0.02), BitFlip(0.1), PhaseFlip(0.1),
              IndependentXZ(0.1, 0.2, qubits=(0, min(2, code.n - 1))))
    for model in models:
        rng = np.random.default_rng([99, 0])
        outcomes = [mc.run_trial(code, table, model, rng) for _ in range(600)]
        scalar = (
            sum(o is TrialOutcome.SUCCESS for o in outcomes),
            sum(o is not TrialOutcome.SUCCESS for o in outcomes),
            sum(o is TrialOutcome.UNMATCHED_SYNDROME for o in outcomes),
        )
        assert mc._run_stream(code, table, model, 600, (99, 0)) == scalar


# shot streams and word enumerations run in blocks of stabilizer._BLOCK_ROWS
# rows; 7 splits every stream below into blocks, 1 << 14 leaves each whole
BLOCK_SIZES = (7, 1 << 14, stab._BLOCK_ROWS)


def _at_each_block_size(monkeypatch, run):
    results = []
    for rows in BLOCK_SIZES:
        monkeypatch.setattr(stab, "_BLOCK_ROWS", rows)
        results.append(run())
    return results


@pytest.mark.parametrize("stream_size", [1, 6, 7, 8, 26, 8192])
def test_stream_counts_do_not_depend_on_the_block_size(monkeypatch, stream_size):
    code = catalog.make_shor().code
    table = stab.build_syndrome_table(code, 1)
    models = (BitFlip(0.1), PhaseFlip(0.1), Depolarizing(0.1), IndependentXZ(0.1, 0.2),
              IndependentXZ(0.2, 0.3, qubits=(0, 4, 8)))
    shots = min(2 * stream_size + 3, 8192)  # a partial last stream, or one full one

    def run():
        return [mc.logical_error_rate(code, model, shots, seed=3, table=table, workers=w,
                                      stream_size=stream_size)
                for model in models for w in (1, 2)]

    small, whole, default = _at_each_block_size(monkeypatch, run)
    assert small == whole == default
    assert any(s.count_unmatched for s in whole) and all(s.count_success for s in whole)


@pytest.mark.parametrize("name", ["shor", "toric:3x3"])
def test_tables_and_distance_do_not_depend_on_the_block_size(monkeypatch, name):
    code = catalog.by_name(name).code

    def run():
        tables = [stab.build_syndrome_table(code, w) for w in (1, 2)]
        arrays = [(t.keys, t.image_keys, t.xz, t.order) for t in tables]
        return [a.tobytes() for four in arrays for a in four], stab.distance(code, 3)

    small, whole, default = _at_each_block_size(monkeypatch, run)
    assert small == whole == default
    assert whole[1] == 3


def test_stream_memory_does_not_grow_with_its_size():
    code = catalog.by_name("toric:6x6").code
    table = stab.build_syndrome_table(code, 1)
    mc._run_stream(code, table, Depolarizing(0.02), 10, (1, 0))  # builds the code's map
    peaks = []
    for shots in (8192, 32768):
        tracemalloc.start()
        mc._run_stream(code, table, Depolarizing(0.02), shots, (1, 0))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # about 3.9 MB at 2048-row blocks; a whole 8192-shot stream peaked at 15 MB
    assert peaks[0] < 6e6
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]


def test_wilson_interval_against_its_closed_form():
    z = 1.959963984540054
    assert mc._wilson(0, 10_000) == (0.0, pytest.approx(z * z / (10_000 + z * z)))
    assert mc._wilson(0, 10_000)[1] == pytest.approx(3.84e-4, rel=1e-3)
    assert mc._wilson(10_000, 10_000) == (pytest.approx(10_000 / (10_000 + z * z)), 1.0)
    # textbook form in the estimate: (p + z^2/2n -+ z sqrt(p(1-p)/n + z^2/4n^2)) / (1 + z^2/n)
    k, n = 37, 1000
    p = k / n
    center, half = p + z * z / (2 * n), z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    want = ((center - half) / (1 + z * z / n), (center + half) / (1 + z * z / n))
    assert mc._wilson(k, n) == pytest.approx(want)
    stats = mc.MCStats(n, n - k, k, 0, p, math.sqrt(p * (1 - p) / n), 1)
    assert (stats.ci_low, stats.ci_high) == pytest.approx(want)
    assert stats.ci_low < stats.estimate < stats.ci_high


def test_scalar_oracle_does_not_use_the_map(monkeypatch):
    # the differential test above compares two implementations only while
    # the scalar path keeps its own syndromes and rowspace tests
    code = catalog.make_shor().code
    table = stab.build_syndrome_table(code, 1)
    logicals = stab.logical_operators(code)

    def refuse(self, xz):
        raise AssertionError("the scalar oracle called StabilizerCode.images")

    monkeypatch.setattr(stab.StabilizerCode, "images", refuse)
    rng = np.random.default_rng(3)
    outcomes = {mc.run_trial(code, table, Depolarizing(0.2), rng) for _ in range(200)}
    assert TrialOutcome.SUCCESS in outcomes and TrialOutcome.LOGICAL_ERROR in outcomes
    assert logicals.violations(code) == []


def test_float32_kernel_refuses_codes_past_its_exact_range(monkeypatch):
    bundle = catalog.make_five_qubit()  # 2n = 10
    table = stab.build_syndrome_table(bundle.code, 1)
    monkeypatch.setattr(stab, "_FLOAT32_EXACT", 10)
    with pytest.raises(ValueError, match="float32"):
        mc.logical_error_rate(bundle.code, BitFlip(0.1), 100, seed=1, table=table)
    for query in (stab.validate, stab.distance, lambda code: stab.build_syndrome_table(code, 1)):
        with pytest.raises(ValueError, match="float32"):
            query(bundle.code)
    monkeypatch.setattr(stab, "_FLOAT32_EXACT", 11)
    assert mc.logical_error_rate(bundle.code, BitFlip(0.1), 100, seed=1, table=table).shots == 100
    assert stab.validate(bundle.code) == []
    assert stab.distance(bundle.code) == 3
    assert stab.build_syndrome_table(bundle.code, 1).entries == table.entries


def test_decoders_do_not_build_the_entries_dict():
    code = catalog.make_shor().code
    table = stab.build_syndrome_table(code, 2)
    mc.logical_error_rate(code, Depolarizing(0.05), 1000, seed=1, table=table, workers=2)
    rng = np.random.default_rng(0)
    outcomes = {mc.run_trial(code, table, Depolarizing(0.2), rng) for _ in range(200)}
    assert TrialOutcome.SUCCESS in outcomes and TrialOutcome.LOGICAL_ERROR in outcomes
    assert "entries" not in vars(table)


def test_logical_error_rate_refuses_another_codes_table():
    # the table's image keys come from its own code's map
    code = catalog.make_five_qubit().code
    other = stab.StabilizerCode.from_strings("pairs", ["XXIII", "ZZIII", "IIXXI", "IIZZI"])
    with pytest.raises(ValueError, match="built for pairs"):
        mc.logical_error_rate(code, Depolarizing(0.05), 100, seed=1, table=stab.build_syndrome_table(other, 1))


@pytest.mark.parametrize("shots,stream_size,workers", [
    (0, 8192, 1), (100, 0, 1), (100, -5, 1), (100, 8192, 0), (100, 8192, -2),
], ids=["0-8192", "100-0", "100--5", "workers-0", "workers--2"])
def test_rejects_empty_runs_and_streams(shots, stream_size, workers):
    bundle = catalog.make_five_qubit()
    with pytest.raises(ValueError, match="must be >= 1"):
        mc.logical_error_rate(bundle.code, BitFlip(0.1), shots, seed=1, stream_size=stream_size,
                              workers=workers)


def test_five_qubit_weight1_table_never_unmatched():
    bundle = catalog.make_five_qubit()
    stats = mc.logical_error_rate(bundle.code, Depolarizing(0.2), 20_000, seed=5)
    assert stats.count_unmatched == 0


def test_unmatched_counts_fold_into_logical():
    bundle = catalog.make_planar(1, 2)
    stats = mc.logical_error_rate(bundle.code, Depolarizing(0.3), 20_000, seed=5)
    assert stats.count_unmatched > 0
    assert stats.count_success + stats.count_logical == stats.shots
    assert stats.count_unmatched <= stats.count_logical
    assert stats.estimate == stats.count_logical / stats.shots


def test_stats_metadata():
    bundle = catalog.make_three_qubit_bit()
    stats = mc.logical_error_rate(bundle.code, BitFlip(0.1), 100, seed=7)
    assert stats.rng == mc.RNG_NAME
    assert stats.seed == 7
    assert stats.stderr == pytest.approx(
        math.sqrt(stats.estimate * (1 - stats.estimate) / stats.shots)
    )


def test_error_distribution_analytic_shor_column():
    dist = mc.error_distribution_analytic(IndependentXZ(0.1, 0.1, qubits=(0, 2)), (0, 2))
    assert len(dist) == 16
    assert sum(dist.values()) == pytest.approx(1.0)
    assert dist["I"] == pytest.approx(0.6561)
    for single in ("X1", "X3", "Z1", "Z3"):
        assert dist[single] == pytest.approx(0.0729)
    assert dist["X1X3"] == pytest.approx(0.0081)
    assert dist["X1X3Z1"] == pytest.approx(9.0e-4)
    assert dist["X1X3Z1Z3"] == pytest.approx(1.0e-4)


def test_error_distribution_analytic_rejects_large_subset():
    with pytest.raises(ValueError):
        mc.error_distribution_analytic(IndependentXZ(0.1, 0.1), range(5))


def test_error_distribution_analytic_rejects_depolarizing():
    with pytest.raises(ValueError):
        mc.error_distribution_analytic(Depolarizing(0.1), (0,))


def test_error_distribution_analytic_rejects_qubits_the_model_does_not_designate():
    with pytest.raises(ValueError, match="designated"):
        mc.error_distribution_analytic(IndependentXZ(0.1, 0.1, qubits=(0,)), (1, 2))
    assert len(mc.error_distribution_analytic(IndependentXZ(0.1, 0.1, qubits=(0, 2)), (2,))) == 4


@pytest.mark.parametrize("qubits", [(0, 0), (-1,), (2, -3)], ids=["repeated", "negative", "negative-second"])
def test_error_distribution_analytic_rejects_bad_qubits(qubits):
    with pytest.raises(ValueError, match="designated qubit"):
        mc.error_distribution_analytic(IndependentXZ(0.1, 0.1), qubits)
