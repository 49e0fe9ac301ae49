import math
from fractions import Fraction

import numpy as np
import pytest

from stabkit import catalog, pauli, stabilizer as stab, statevec as sv
from stabkit.statevec import StateVector

ALL_FIXED = ["two-qubit", "three-qubit-bit", "three-qubit-phase", "shor", "five-qubit"]


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


@pytest.mark.parametrize("name", ALL_FIXED + ["toric:2x2", "planar:1x2"])
def test_encoder_reaches_code_space(name):
    bundle = catalog.by_name(name)
    k = bundle.params[1]
    rng = np.random.default_rng(hash(name) % 2**32)
    a = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    a /= np.linalg.norm(a)
    enc = sv.encode(bundle, StateVector(k, a))
    for g in bundle.code.generators:
        assert sv.expectation_pauli(enc, g) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", ALL_FIXED + ["toric:2x2", "planar:1x2"])
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


def test_large_lattice_has_no_encoder():
    assert catalog.make_toric(3, 3).encoder is None
    assert catalog.make_toric(2, 2).encoder is not None


@pytest.mark.parametrize("rows, cols, n_qubits", [(1, 5, 14), (1, 6, 17)])
def test_projector_encoder_limit(rows, cols, n_qubits):
    # 14 and 17 qubits: the largest planar code with a projector encoder
    # and the smallest without one
    bundle = catalog.make_planar(rows, cols)
    assert bundle.code.n == n_qubits
    if n_qubits <= sv.PROJECTOR_ENCODER_MAX_QUBITS:
        assert isinstance(bundle.encoder, sv.ProjectorEncoder)
    else:
        assert bundle.encoder is None


def test_by_name_errors():
    with pytest.raises(KeyError):
        catalog.by_name("steane")
    with pytest.raises(ValueError):
        catalog.by_name("toric:1x4")


def test_by_name_lattice_parsing():
    assert catalog.by_name("planar:2x2").params == (8, 1, 2)
    assert catalog.by_name("toric:2x3").params == (12, 2, 2)
