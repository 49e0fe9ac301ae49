import itertools

import numpy as np
import pytest

from stabkit import catalog, gf2, pauli, stabilizer as stab
from stabkit.pauli import PauliWord
from stabkit.stabilizer import Residual, StabilizerCode, Syndrome


@pytest.fixture(scope="module")
def five_qubit():
    return StabilizerCode.from_strings(
        "five-qubit", ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    )


@pytest.fixture(scope="module")
def bitflip3():
    return catalog.make_three_qubit_bit().code


@pytest.fixture(scope="module")
def planar12():
    return catalog.make_planar(1, 2).code


PAPER_FIVE_QUBIT_TABLE = {
    "0000": "I",
    "0001": "X1",
    "0010": "Z3",
    "0011": "X5",
    "0100": "Z5",
    "0101": "Z2",
    "0110": "X4",
    "0111": "Y5",
    "1000": "X2",
    "1001": "Z4",
    "1010": "Z1",
    "1011": "Y1",
    "1100": "X3",
    "1101": "Y2",
    "1110": "Y3",
    "1111": "Y4",
}

# per-syndrome weights of the published m=1, n=2 planar lookup table
PAPER_PLANAR_TABLE_WEIGHTS = {
    "0000": 0, "0001": 1, "0010": 1, "0011": 1,
    "0100": 1, "0101": 1, "0110": 1, "0111": 2,
    "1000": 1, "1001": 1, "1010": 1, "1011": 2,
    "1100": 1, "1101": 2, "1110": 2, "1111": 1,
}


def test_validate_five_qubit_clean(five_qubit):
    assert stab.validate(five_qubit) == []


def test_validate_anticommuting_pair():
    code = StabilizerCode.from_strings("bad", ["X", "Z"])
    violations = stab.validate(code)
    assert any("pair (0,1) anticommutes" in v for v in violations)


def test_validate_reports_anticommuting_pairs_in_pair_order():
    code = StabilizerCode.from_strings("bad", ["XIZ", "ZXI", "IZX", "YYI", "ZZZ"])
    gens = code.generators
    expected = [
        f"pair ({i},{j}) anticommutes"
        for i, j in itertools.combinations(range(len(gens)), 2)
        if not pauli.commutes(gens[i], gens[j])
    ]
    assert len(expected) >= 3
    assert [v for v in stab.validate(code) if v.startswith("pair")] == expected


def test_validate_dependent_rows():
    code = StabilizerCode.from_strings("dup", ["XX", "XX"])
    violations = stab.validate(code)
    assert any("rank 1 < 2" in v for v in violations)


def test_validate_bad_phase():
    code = StabilizerCode("phased", [pauli.parse("-Z", 1)])
    assert any("phase" in v for v in stab.validate(code))


def test_num_logical_qubits(five_qubit):
    assert five_qubit.num_logical_qubits() == 1
    assert catalog.make_shor().code.num_logical_qubits() == 1
    assert catalog.make_toric(5, 5).code.num_logical_qubits() == 2


def test_syndrome_z1_is_1010(five_qubit):
    assert str(stab.syndrome(five_qubit, pauli.parse("Z1", 5))) == "1010"


def test_syndrome_identity_zero(five_qubit):
    assert stab.syndrome(five_qubit, PauliWord.identity(5)).is_zero()


def test_syndrome_planar_x0(planar12):
    assert str(stab.syndrome(planar12, pauli.parse("X1", 5))) == "1000"


def test_syndrome_size_mismatch(five_qubit):
    with pytest.raises(ValueError):
        stab.syndrome(five_qubit, PauliWord.identity(4))


def test_normalizer_kernel_five_qubit(five_qubit):
    basis = stab.normalizer_kernel(five_qubit)
    assert len(basis) == 6
    for v in basis:
        word = stab.word_from_symplectic(v)
        assert all(pauli.commutes(word, g) for g in five_qubit.generators)


def test_normalizer_kernel_trivial_code():
    code = StabilizerCode.from_strings("tiny", ["ZZ"])
    # l=1, n=2: kernel has 2n - l = 3 vectors
    assert len(stab.normalizer_kernel(code)) == 3


def test_normalizer_kernel_bitflip(bitflip3):
    basis = stab.normalizer_kernel(bitflip3)
    assert len(basis) == 4
    images = {tuple(v.to_bits()) for v in basis}
    spanned = set()
    for r in range(1 << len(basis)):
        acc = gf2.BitVector(6)
        for i, v in enumerate(basis):
            if (r >> i) & 1:
                acc ^= v
        spanned.add(tuple(acc.to_bits()))
    assert tuple(pauli.parse("Z1", 3).symplectic().to_bits()) in spanned
    assert tuple(pauli.parse("XXX", 3).symplectic().to_bits()) in spanned


def test_logical_operators_five_qubit(five_qubit):
    ops = stab.logical_operators(five_qubit)
    assert len(ops.pairs) == 1
    assert ops.violations(five_qubit) == []
    canonical = stab.LogicalOperators(
        ((pauli.parse("XXXXX", 5), pauli.parse("ZZZZZ", 5)),)
    )
    assert canonical.violations(five_qubit) == []


def test_logical_operators_planar_equivalence(planar12):
    ops = stab.logical_operators(planar12)
    assert ops.violations(planar12) == []
    (xbar, zbar) = ops.pairs[0]
    rs = planar12.rowspace()
    x_ref = pauli.parse("XIIXI", 5)
    z_ref = pauli.parse("ZZIII", 5)
    assert rs.contains((xbar.symplectic() ^ x_ref.symplectic()))
    assert rs.contains((zbar.symplectic() ^ z_ref.symplectic()))


def test_logical_operators_toric_two_pairs():
    code = catalog.make_toric(2, 2).code
    ops = stab.logical_operators(code)
    assert len(ops.pairs) == 2
    assert ops.violations(code) == []
    # brute-force commutation matrix of the four words
    words = [w for pair in ops.pairs for w in pair]
    comm = [[pauli.commutes(a, b) for b in words] for a in words]
    assert comm[0][1] is False and comm[2][3] is False
    assert comm[0][3] and comm[2][1] and comm[0][2] and comm[1][3]


def test_distance_five_qubit(five_qubit):
    assert stab.distance(five_qubit, 4) == 3


def test_distance_exceeds_cap(five_qubit):
    assert stab.distance(five_qubit, 2) is None


def test_distance_detection_codes_full_pauli():
    # Under the general N(S)\S definition the detection-oriented codes have
    # distance 1 (an untargeted single-qubit error acts logically); their
    # published labels count only the targeted error type.
    assert stab.distance(catalog.make_two_qubit().code, 3) == 1
    assert stab.distance(catalog.make_three_qubit_bit().code, 3) == 1
    assert catalog.make_two_qubit().params == (2, 1, 2)
    assert catalog.make_three_qubit_bit().params == (3, 1, 3)


def test_distance_shor():
    assert stab.distance(catalog.make_shor().code, 3) == 3


def _brute_force_distance(code):
    """Independent oracle: enumerate all 4^n phase-free words, test
    commutation via dense matrices and membership via the explicit
    stabilizer group set."""
    from stabkit.statevec import pauli_word_matrix

    n = code.n
    gens = code.generators
    gen_mats = [pauli_word_matrix(g) for g in gens]
    group = set()
    for r in range(1 << len(gens)):
        acc = PauliWord.identity(n)
        for i, g in enumerate(gens):
            if (r >> i) & 1:
                acc = pauli.multiply(acc, g)
        group.add(acc.letters())
    best = None
    for letters in itertools.product("IXYZ", repeat=n):
        word = PauliWord.from_letters("".join(letters))
        w = pauli.weight(word)
        if w == 0 or (best is not None and w >= best):
            continue
        m = pauli_word_matrix(word)
        if all(np.allclose(m @ gm, gm @ m) for gm in gen_mats):
            if word.letters() not in group:
                best = w
    return best


@pytest.mark.parametrize(
    "make", [catalog.make_two_qubit, catalog.make_three_qubit_bit,
             catalog.make_three_qubit_phase, catalog.make_five_qubit],
)
def test_distance_matches_brute_force(make):
    code = make().code
    assert stab.distance(code, code.n) == _brute_force_distance(code)


def test_syndrome_table_five_qubit_exact(five_qubit):
    table = stab.build_syndrome_table(five_qubit, 1)
    assert len(table.entries) == 16
    seen = {str(s): pauli.format_product(w) for s, w in table.entries.items()}
    assert seen == PAPER_FIVE_QUBIT_TABLE


def test_syndrome_table_planar_weights(planar12):
    table = stab.build_syndrome_table(planar12, 2)
    assert len(table.entries) == 16
    weights = {str(s): pauli.weight(w) for s, w in table.entries.items()}
    assert weights == PAPER_PLANAR_TABLE_WEIGHTS


@pytest.mark.parametrize("fixture_name,max_weight", [("five_qubit", 1), ("planar12", 2)])
def test_syndrome_table_invariants(fixture_name, max_weight, request):
    code = request.getfixturevalue(fixture_name)
    table = stab.build_syndrome_table(code, max_weight)
    # every correction reproduces its key, at the minimal weight for that
    # syndrome among all candidates up to the search depth
    minima = {}
    for word in stab.enumerate_words(code.n, 0, max_weight):
        s = stab.syndrome(code, word)
        w = pauli.weight(word)
        minima[s] = min(minima.get(s, w), w)
    for s, corr in table.entries.items():
        assert stab.syndrome(code, corr) == s
        assert pauli.weight(corr) == minima[s]


def test_syndrome_table_zero_syndrome_is_identity(five_qubit, planar12):
    for code in (five_qubit, planar12):
        table = stab.build_syndrome_table(code, 2)
        zero = Syndrome((0,) * code.num_generators)
        assert table.correction(zero) == PauliWord.identity(code.n)


def test_residual_class_shor_degenerate():
    code = catalog.make_shor().code
    assert stab.residual_class(code, pauli.parse("Z1Z2", 9)) is Residual.STABILIZER


def test_residual_class_logical(five_qubit):
    assert stab.residual_class(five_qubit, pauli.parse("XXXXX", 5)) is Residual.LOGICAL


def test_residual_class_detectable(five_qubit):
    assert stab.residual_class(five_qubit, pauli.parse("X1", 5)) is Residual.DETECTABLE


def test_normalizer_elements_leave_syndrome_invariant(five_qubit):
    rng = np.random.default_rng(9)
    kernel = stab.normalizer_kernel(five_qubit)
    for _ in range(40):
        letters = "".join(rng.choice(list("IXYZ"), size=5))
        err = PauliWord.from_letters(letters)
        acc = gf2.BitVector(10)
        for v in kernel:
            if rng.integers(2):
                acc ^= v
        normal = stab.word_from_symplectic(acc)
        combined = pauli.multiply(err, normal)
        assert stab.syndrome(five_qubit, combined) == stab.syndrome(five_qubit, err)


def test_single_qubit_syndromes_distinct_nonzero(five_qubit):
    syndromes = set()
    for q in range(5):
        for letter in "XYZ":
            s = stab.syndrome(five_qubit, PauliWord.single(5, q, letter))
            assert not s.is_zero()
            syndromes.add(s)
    assert len(syndromes) == 15


def test_decode_weight_one_residuals_are_stabilizer(five_qubit):
    table = stab.build_syndrome_table(five_qubit, 1)
    for q in range(5):
        for letter in "XYZ":
            err = PauliWord.single(5, q, letter)
            corr = table.correction(stab.syndrome(five_qubit, err))
            residual = pauli.multiply(corr, err)
            assert stab.residual_class(five_qubit, residual) is Residual.STABILIZER


def test_export_code(five_qubit):
    table = stab.build_syndrome_table(five_qubit, 1)
    doc = stab.export_code(five_qubit, table=table, dist=3)
    assert doc["generators"] == ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    assert doc["n"] == 5 and doc["k"] == 1 and doc["distance"] == 3
    assert len(doc["table"]) == 16


def reference_letters(n, min_weight, max_weight):
    """The contract order, letter by letter: weight, qubit tuple, X < Y < Z."""
    for w in range(min_weight, max_weight + 1):
        for qubits in itertools.combinations(range(n), w):
            for letters in itertools.product("XYZ", repeat=w):
                chars = ["I"] * n
                for q, letter in zip(qubits, letters):
                    chars[q] = letter
                yield "".join(chars)


def reference_table(code, max_weight):
    """The per-word loop: scalar syndromes, first word per syndrome wins."""
    entries = {}
    full = 1 << code.num_generators
    for letters in reference_letters(code.n, 0, max_weight):
        word = PauliWord.from_letters(letters)
        s = stab.syndrome(code, word)
        if s not in entries:
            entries[s] = word
            if len(entries) == full:
                break
    return entries


def reference_distance(code, cap):
    """The per-word loop: scalar syndromes and per-word rowspace tests."""
    rs = code.rowspace()
    for letters in reference_letters(code.n, 1, cap):
        word = PauliWord.from_letters(letters)
        if stab.syndrome(code, word).is_zero() and not rs.contains(word.symplectic()):
            return pauli.weight(word)
    return None


def _code(name):
    if name == "bell":
        return StabilizerCode.from_strings("bell", ["XX", "ZZ"])
    return catalog.by_name(name).code


def test_enumerate_words_follows_contract_order():
    words = list(stab.enumerate_words(6, 0, 3))
    assert [pauli.format_word(w) for w in words] == list(reference_letters(6, 0, 3))


# five-qubit fills its table at weight 1, so weight 2 stops early
@pytest.mark.parametrize("name,max_weight", [
    ("five-qubit", 1), ("five-qubit", 2), ("shor", 2), ("planar:2x3", 2),
    ("toric:3x3", 2), ("bell", 1),
])
def test_syndrome_table_matches_per_word_loop(name, max_weight):
    code = _code(name)
    got = stab.build_syndrome_table(code, max_weight).entries
    assert list(got.items()) == list(reference_table(code, max_weight).items())


# planar:2x3 has 12 generators, so most of its 4096 syndromes miss the table
@pytest.mark.parametrize("name,max_weight", [("planar:2x3", 1), ("five-qubit", 1), ("three-qubit-bit", 2)])
def test_correction_lookup_matches_entries_on_every_syndrome(name, max_weight):
    code = _code(name)
    table = stab.build_syndrome_table(code, max_weight)
    syndromes = [Syndrome(bits) for bits in itertools.product((0, 1), repeat=code.num_generators)]
    got = [table.correction(s) for s in syndromes]
    assert "entries" not in vars(table)  # lookups read the arrays
    assert got == [table.entries.get(s) for s in syndromes]
    assert len(table) == len(table.entries)
    assert table.correction(Syndrome((0,) * (code.num_generators + 1))) is None


def test_syndrome_table_refuses_negative_weight(five_qubit):
    with pytest.raises(ValueError, match="max_weight"):
        stab.build_syndrome_table(five_qubit, -1)


@pytest.mark.parametrize("name", ["two-qubit", "five-qubit", "shor", "planar:2x3", "toric:3x3", "bell"])
def test_distance_matches_per_word_loop(name):
    code = _code(name)
    found = [stab.distance(code, cap) for cap in (1, 2, 3)]
    assert found == [reference_distance(code, cap) for cap in (1, 2, 3)]
    assert None in found or name == "two-qubit"
