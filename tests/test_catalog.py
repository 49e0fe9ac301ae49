import math
import zlib
from fractions import Fraction

import numpy as np
import pytest

from stabkit import catalog, pauli, stabilizer as stab, statevec as sv
from stabkit.gf2 import BitVector
from stabkit.statevec import Circuit, StateVector

ALL_FIXED = ["two-qubit", "three-qubit-bit", "three-qubit-phase", "shor", "five-qubit"]
# every lattice shape up to MAX_QUBITS: toric:3x3 is 18 qubits, planar:3x1 has no X checks
ENCODED = ALL_FIXED + ["toric:2x2", "planar:1x2", "toric:2x3", "toric:3x3", "planar:2x3",
                       "planar:1x5", "planar:3x1"]


@pytest.mark.parametrize(
    "name,params",
    [
        ("two-qubit", (2, 1, 2)),
        ("three-qubit-bit", (3, 1, 3)),
        ("three-qubit-phase", (3, 1, 3)),
        ("shor", (9, 1, 3)),
        ("five-qubit", (5, 1, 3)),
    ],
)
def test_params_and_rate(name, params):
    bundle = catalog.by_name(name)
    assert bundle.params == params
    assert bundle.rate == Fraction(params[1], params[0])


@pytest.mark.parametrize("name", ALL_FIXED + ["toric:2x2", "planar:1x2", "planar:2x3"])
def test_bundles_validate(name):
    bundle = catalog.by_name(name)
    assert stab.validate(bundle.code) == []
    assert bundle.logical.violations(bundle.code) == []
    assert bundle.code.num_logical_qubits() == bundle.params[1]


@pytest.mark.parametrize("name", ENCODED)
def test_encoder_reaches_code_space(name):
    bundle = catalog.by_name(name)
    k = bundle.params[1]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    a = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    a /= np.linalg.norm(a)
    enc = sv.encode(bundle, StateVector(k, a))
    for g in bundle.code.generators:
        assert sv.expectation_pauli(enc, g) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", ENCODED)
def test_logical_action(name):
    bundle = catalog.by_name(name)
    k = bundle.params[1]
    for j, (xbar, zbar) in enumerate(bundle.logical.pairs):
        zero = sv.encode(bundle, StateVector(k))
        one_label = 1 << (k - 1 - j)
        one = sv.encode(bundle, StateVector.basis(k, one_label))
        flipped = zero.copy()
        sv.apply_pauli(flipped, xbar)
        assert sv.fidelity(flipped, one) > 1 - 1e-9
        negated = one.copy()
        sv.apply_pauli(negated, zbar)
        assert abs(np.vdot(one.amps, negated.amps) + 1.0) < 1e-9
        fixed = zero.copy()
        sv.apply_pauli(fixed, zbar)
        assert abs(np.vdot(zero.amps, fixed.amps) - 1.0) < 1e-9


def test_two_qubit_syndromes():
    code = catalog.make_two_qubit().code
    assert str(stab.syndrome(code, pauli.parse("X1", 2))) == "1"
    assert str(stab.syndrome(code, pauli.parse("X1X2", 2))) == "0"


def test_three_qubit_bit_syndromes():
    code = catalog.make_three_qubit_bit().code
    assert str(stab.syndrome(code, pauli.parse("X1", 3))) == "11"
    assert str(stab.syndrome(code, pauli.parse("X2", 3))) == "10"
    assert str(stab.syndrome(code, pauli.parse("X3", 3))) == "01"
    # double flips collide with single flips
    assert str(stab.syndrome(code, pauli.parse("X1X2", 3))) == "01"


def test_three_qubit_phase_syndromes():
    code = catalog.make_three_qubit_phase().code
    assert str(stab.syndrome(code, pauli.parse("Z1", 3))) == "11"
    assert str(stab.syndrome(code, pauli.parse("Z2", 3))) == "10"
    assert str(stab.syndrome(code, pauli.parse("Z3", 3))) == "01"


def test_phase_encoder_is_bit_encoder_plus_hadamards():
    enc = catalog.make_three_qubit_phase().encoder
    kinds = [op.kind for op in enc.ops]
    assert kinds == ["cx", "cx", "h", "h", "h"]


def test_shor_generators():
    code = catalog.make_shor().code
    assert code.generator_strings() == [
        "ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
        "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX",
    ]


def test_shor_degeneracy_and_block_syndromes():
    code = catalog.make_shor().code
    assert stab.residual_class(code, pauli.parse("Z1Z2", 9)) is stab.Residual.STABILIZER
    s1 = stab.syndrome(code, pauli.parse("X1", 9))
    s4 = stab.syndrome(code, pauli.parse("X4", 9))
    assert s1 != s4


def test_five_qubit_saturates_quantum_hamming_bound():
    total = sum(math.comb(5, j) * 3**j for j in range(2)) * 2
    assert total == 32 == 2**5


def test_toric_2x2_counts():
    bundle = catalog.make_toric(2, 2)
    assert bundle.params == (8, 2, 2)
    assert bundle.code.num_generators == 6


def test_planar_counts_formula():
    assert catalog.make_planar(1, 2).params[0] == 5
    assert catalog.make_planar(2, 3).params[0] == 13
    assert catalog.make_planar(2, 3).params[1] == 1


def _conjugate(circuit: Circuit, xz: np.ndarray) -> np.ndarray:
    """0/1 (x|z) rows P mapped to U P U^dagger by the circuit's H, CX and
    SWAP gates, phases dropped: a tableau check that needs no state vector."""
    n = circuit.n_qubits
    x, z = xz[:, :n].copy(), xz[:, n:].copy()
    for op in circuit.ops:
        if op.kind == "h":
            q = op.targets[0]
            x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
        elif op.kind == "cx":
            c, t = op.controls[0], op.targets[0]
            x[:, t] ^= x[:, c]
            z[:, c] ^= z[:, t]
        else:
            assert op.kind == "swap"
            pair = list(op.targets)
            x[:, pair], z[:, pair] = x[:, pair[::-1]], z[:, pair[::-1]]
    return np.concatenate([x, z], axis=1)


@pytest.mark.parametrize("name", ["toric:6x6", "planar:1x6", "toric:2x2", "planar:3x1"])
def test_lattice_encoder_maps_paulis_to_code(name):
    # past MAX_QUBITS too: the ancillas' Z images must be stabilizers and
    # input j's Z and X images the logical Z and X of qubit j, up to stabilizers
    bundle = catalog.by_name(name)
    n, k, _ = bundle.params
    assert isinstance(bundle.encoder, Circuit) and bundle.encoder.n_qubits == n
    images = _conjugate(bundle.encoder, np.eye(2 * n, dtype=np.uint8))
    z_img, x_img = images[n:], images[:n]
    rs = bundle.code.rowspace()
    for row in z_img[k:]:
        assert rs.contains(BitVector.from_bits(row))
    for j, (xbar, zbar) in enumerate(bundle.logical.pairs):
        for img, word in ((z_img[j], zbar), (x_img[j], xbar)):
            assert rs.contains(BitVector.from_bits(img) ^ word.symplectic())


def test_css_encoder_needs_reduced_logicals():
    bundle = catalog.make_toric(2, 2)
    (x1, _), (x2, _) = bundle.logical.pairs
    with pytest.raises(ValueError, match="RREF"):
        catalog._css_encoder(bundle.code, [x1, pauli.multiply(x1, x2)])


def test_by_name_errors():
    with pytest.raises(KeyError):
        catalog.by_name("steane")
    with pytest.raises(ValueError):
        catalog.by_name("toric:1x4")


def test_by_name_lattice_parsing():
    assert catalog.by_name("planar:2x2").params == (8, 1, 2)
    assert catalog.by_name("toric:2x3").params == (12, 2, 2)
