import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import catalog, pauli, stabilizer as stab
from stabkit.pauli import PauliWord
from stabkit.statevec import pauli_word_matrix

LETTERS = "IXYZ"
XZ_OF_LETTER = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
LETTER_OF_XZ = {v: k for k, v in XZ_OF_LETTER.items()}

# Reference for the product phase: exponent of i picked up by a
# single-qubit product a*b. Cyclic products XY, YZ, ZX give +i, the
# reversed ones -i (exponent 3), matching XZ = -iY.
PHASE_TABLE = {
    (a, b): 0 if "I" in (a, b) or a == b else 1 if a + b in ("XY", "YZ", "ZX") else 3
    for a in LETTERS
    for b in LETTERS
}


def per_qubit_multiply(a, b):
    """a*b one qubit at a time: letters from the (x, z) sums, phase from the table."""
    phase = a.phase + b.phase
    letters = []
    for la, lb in zip(a.letters(), b.letters()):
        phase += PHASE_TABLE[la, lb]
        (xa, za), (xb, zb) = XZ_OF_LETTER[la], XZ_OF_LETTER[lb]
        letters.append(LETTER_OF_XZ[xa ^ xb, za ^ zb])
    return PauliWord.from_letters("".join(letters), phase % 4)


def random_word(rng, n):
    w = PauliWord.from_letters("".join(rng.choice(list(LETTERS), size=n)))
    w.phase = int(rng.integers(0, 4))
    return w


def test_xz_is_minus_i_y():
    x = pauli.parse("X", 1)
    z = pauli.parse("Z", 1)
    prod = pauli.multiply(x, z)
    assert pauli.format_word(prod) == "-iY"
    assert prod.phase == 3


def test_multiply_identity():
    rng = np.random.default_rng(0)
    for n in (1, 3, 7):
        p = random_word(rng, n)
        assert pauli.multiply(p, PauliWord.identity(n)) == p
        assert pauli.multiply(PauliWord.identity(n), p) == p


def test_generator_squares_to_identity():
    g = pauli.parse("XZZXI", 5)
    assert pauli.multiply(g, g) == PauliWord.identity(5)


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        pauli.multiply(PauliWord.identity(2), PauliWord.identity(3))


def test_inverse_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = random_word(rng, 4)
        assert pauli.multiply(w, pauli.inverse(w)) == PauliWord.identity(4)


def test_commutes_x_z_same_qubit():
    assert not pauli.commutes(pauli.parse("X", 1), pauli.parse("Z", 1))


def test_five_qubit_generators_commute():
    gens = [pauli.parse(s, 5) for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
    for a, b in itertools.combinations(gens, 2):
        assert pauli.commutes(a, b)


def test_z1_anticommutes_with_first_and_third_generators():
    z1 = pauli.parse("Z1", 5)
    assert not pauli.commutes(z1, pauli.parse("XZZXI", 5))
    assert not pauli.commutes(z1, pauli.parse("XIXZZ", 5))
    assert pauli.commutes(z1, pauli.parse("IXZZX", 5))
    assert pauli.commutes(z1, pauli.parse("ZXIXZ", 5))


def test_weight():
    assert pauli.weight(PauliWord.identity(4)) == 0
    assert pauli.weight(pauli.parse("XZZXI", 5)) == 4
    assert pauli.weight(pauli.parse("Y4", 5)) == 1


def test_parse_letter_string():
    w = pauli.parse("XZZXI", 5)
    assert w.x_bits.to_bits() == [1, 0, 0, 1, 0]
    assert w.z_bits.to_bits() == [0, 1, 1, 0, 0]
    assert w.phase == 0


def test_parse_identity():
    assert pauli.parse("IIIII", 5) == PauliWord.identity(5)


def test_parse_minus_y():
    w = pauli.parse("-Y", 1)
    assert (w.x_bits.to_bits(), w.z_bits.to_bits(), w.phase) == ([1], [1], 2)
    # oracle: -Y as a matrix equals i^2 times the Y matrix
    assert np.allclose(pauli_word_matrix(w), -pauli_word_matrix(pauli.parse("Y", 1)))


def test_parse_product_form():
    w = pauli.parse("X1Z3", 5)
    assert pauli.format_word(w) == "XIZII"
    # product on the same qubit picks up the XZ = -iY phase
    w2 = pauli.parse("X1Z1", 1)
    assert pauli.format_word(w2) == "-iY"


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        pauli.parse("XQ", 2)
    with pytest.raises(ValueError):
        pauli.parse("XX", 3)
    with pytest.raises(ValueError):
        pauli.parse("X9", 5)


def test_format_parse_roundtrip():
    rng = np.random.default_rng(31)
    for _ in range(80):
        w = random_word(rng, 6)
        assert pauli.parse(pauli.format_word(w), 6) == w


def test_phase_prefixes():
    for prefix, phase in (("", 0), ("i", 1), ("-", 2), ("-i", 3)):
        w = pauli.parse(prefix + "XZ", 2)
        assert w.phase == phase
        assert pauli.format_word(w) == prefix + "XZ"


def test_multiply_matches_matrix_oracle_exhaustive_n1():
    for a_letter, b_letter in itertools.product(LETTERS, repeat=2):
        for pa, pb in itertools.product(range(4), repeat=2):
            a = PauliWord.from_letters(a_letter, pa)
            b = PauliWord.from_letters(b_letter, pb)
            prod = pauli.multiply(a, b)
            assert np.allclose(
                pauli_word_matrix(prod),
                pauli_word_matrix(a) @ pauli_word_matrix(b),
            )


def test_associativity_exhaustive_n1():
    words = [PauliWord.from_letters(ch, p) for ch in LETTERS for p in range(4)]
    for a, b, c in itertools.product(words, repeat=3):
        left = pauli.multiply(pauli.multiply(a, b), c)
        right = pauli.multiply(a, pauli.multiply(b, c))
        assert left == right


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_commutes_matches_dense_commutator(n, seed):
    rng = np.random.default_rng(seed)
    a, b = random_word(rng, n), random_word(rng, n)
    ma, mb = pauli_word_matrix(a), pauli_word_matrix(b)
    dense_commute = np.allclose(ma @ mb, mb @ ma)
    assert pauli.commutes(a, b) == dense_commute


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_multiply_associative_random(n, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_word(rng, n) for _ in range(3))
    assert pauli.multiply(pauli.multiply(a, b), c) == pauli.multiply(a, pauli.multiply(b, c))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_symplectic_homomorphism(n, seed):
    rng = np.random.default_rng(seed)
    a, b = random_word(rng, n), random_word(rng, n)
    assert pauli.multiply(a, b).symplectic() == (a.symplectic() ^ b.symplectic())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_weight_subadditive(n, seed):
    rng = np.random.default_rng(seed)
    a, b = random_word(rng, n), random_word(rng, n)
    assert pauli.weight(pauli.multiply(a, b)) <= pauli.weight(a) + pauli.weight(b)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 130), st.integers(0, 2**31 - 1))
def test_multiply_matches_per_qubit_product(n, seed):
    # n up to 130 crosses the 64-bit word boundaries
    rng = np.random.default_rng(seed)
    a, b = random_word(rng, n), random_word(rng, n)
    assert pauli.multiply(a, b) == per_qubit_multiply(a, b)


@pytest.mark.parametrize("n", [63, 64, 65, 128])
def test_symplectic_roundtrip_across_word_boundary(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        w = random_word(rng, n)
        w.phase = 0
        image = w.symplectic()
        assert image.to_bits() == w.x_bits.to_bits() + w.z_bits.to_bits()
        assert stab.word_from_symplectic(image) == w


def test_syndrome_matches_generator_products_on_wide_lattice():
    code = catalog.by_name("toric:6x6").code  # 72 qubits, 70 generators
    rng = np.random.default_rng(11)
    words = [PauliWord.single(code.n, q, ch) for q in (0, 63, 64, 71) for ch in "XYZ"]
    words += [random_word(rng, code.n) for _ in range(30)]
    for w in words:
        expected = tuple(pauli.symplectic_product(g, w) for g in code.generators)
        assert stab.syndrome(code, w).bits == expected
