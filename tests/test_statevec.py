import itertools
import math

import numpy as np
import pytest

from stabkit import catalog, montecarlo as mc, pauli, qasm, stabilizer as stab, statevec as sv
from stabkit.statevec import Circuit, StateVector


def random_state(rng, n):
    a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, a / np.linalg.norm(a))


def test_bell_preparation():
    state = StateVector(2)
    circ = Circuit(2)
    circ.h(0)
    circ.cx(0, 1)
    sv.apply(state, circ)
    expected = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    assert np.allclose(state.amps, expected)


def test_ry_pi_is_bit_flip():
    state = StateVector(1)
    circ = Circuit(1)
    circ.ry(math.pi, 0)
    sv.apply(state, circ)
    assert sv.fidelity(state, StateVector.basis(1, 1)) > 1 - 1e-12


def test_xz_matrices_equal_minus_i_y():
    x, z, y = (sv.GATE_MATRICES[k] for k in "xzy")
    assert np.allclose(x @ z, -1j * y)


def test_gate_size_guard():
    with pytest.raises(ValueError):
        StateVector(21)


def test_index_out_of_range():
    circ = Circuit(2)
    with pytest.raises(ValueError):
        circ.h(2)


def test_norm_preserved_random_circuit():
    rng = np.random.default_rng(3)
    state = random_state(rng, 4)
    circ = Circuit(4)
    for _ in range(60):
        kind = rng.choice(["h", "x", "y", "z", "s", "rx", "ry", "rz", "cx", "cz", "swap"])
        q = int(rng.integers(4))
        q2 = int((q + 1 + rng.integers(3)) % 4)
        if kind in ("rx", "ry", "rz"):
            getattr(circ, kind)(rng.uniform(0, 2 * math.pi), q)
        elif kind in ("cx", "cz", "swap"):
            getattr(circ, kind)(q, q2)
        else:
            getattr(circ, kind)(q)
    sv.apply(state, circ)
    assert abs(state.norm() - 1.0) < 1e-10


def _kron_blocks(n, blocks):
    """Dense 2^n matrix: blocks[q] (a 2x2 matrix) on qubit q, identity elsewhere."""
    out = np.eye(1)
    for q in range(n):
        out = np.kron(out, blocks.get(q, np.eye(2)))
    return out


def _dense_gate(n, kind, qubits, angle=0.7):
    """Oracle matrix of one gate, built from 2x2 blocks alone."""
    m = sv.GATE_MATRICES
    if kind == "swap":
        return sum(_kron_blocks(n, dict.fromkeys(qubits, m[p])) for p in "ixyz") / 2
    if kind in ("cx", "cz"):
        c, t = qubits
        return _kron_blocks(n, {c: np.diag([1, 0])}) + _kron_blocks(n, {c: np.diag([0, 1]), t: m[kind[1]]})
    u = sv.rotation_matrix(kind[1], angle) if kind[0] == "r" else m[kind]
    return _kron_blocks(n, {qubits[0]: u})


@pytest.mark.parametrize("qubits", [(0, 2), (2, 0), (1, 2), (2, 1)], ids=str)
@pytest.mark.parametrize("kind", ["x", "y", "z", "h", "s", "sdg", "rx", "ry", "rz", "cx", "cz", "swap"])
def test_gate_matches_dense_matrix(kind, qubits):
    # the one control rule and the one Pauli path against a dense oracle
    state = random_state(np.random.default_rng(11), 3)
    expected = _dense_gate(3, kind, qubits) @ state.amps
    args = qubits if kind in ("cx", "cz", "swap") else qubits[:1]
    if kind[0] == "r":
        args = (0.7, *args)
    sv.apply(state, getattr(Circuit(3), kind)(*args))
    assert np.allclose(state.amps, expected, atol=1e-12)


@pytest.mark.parametrize("control,targets", [(0, (1, 2, 3)), (2, (3, 0, 1)), (3, (2, 1, 0))])
def test_cpauli_matches_dense_matrix(control, targets):
    word = pauli.parse("-XYZ", 3)
    state = random_state(np.random.default_rng(12), 4)
    letters = {t: sv.GATE_MATRICES[a.lower()] for t, a in zip(targets, word.letters())}
    p0, p1 = np.diag([1, 0]), np.diag([0, 1])
    expected = (_kron_blocks(4, {control: p0}) - _kron_blocks(4, {control: p1, **letters})) @ state.amps
    sv.apply(state, Circuit(4).cpauli(control, word, targets=targets))
    assert np.allclose(state.amps, expected, atol=1e-12)


@pytest.mark.parametrize("gate,args", [
    ("cx", (0, 0)), ("cz", (1, 1)), ("swap", (0, 0)), ("cpauli", (1, pauli.parse("XZ", 2), (1, 2))),
], ids=["cx", "cz", "swap", "cpauli"])
def test_gate_naming_a_qubit_twice_is_rejected(gate, args):
    # a repeated operand used to act on another qubit, with no error
    with pytest.raises(ValueError, match="names a qubit twice"):
        getattr(Circuit(3), gate)(*args)


def test_measurement_seeded_and_projective():
    circ = Circuit(1, n_classical=1)
    circ.h(0)
    circ.measure(0, 0)
    outcomes = []
    for seed in range(30):
        state = StateVector(1)
        rec = sv.apply(state, circ, rng=np.random.default_rng(seed))
        outcomes.append(rec.bits[0])
        assert sv.fidelity(state, StateVector.basis(1, rec.bits[0])) > 1 - 1e-12
    assert 0 in outcomes and 1 in outcomes
    # same seed, same outcome
    a = sv.apply(StateVector(1), circ, rng=np.random.default_rng(7)).bits[0]
    b = sv.apply(StateVector(1), circ, rng=np.random.default_rng(7)).bits[0]
    assert a == b


def test_postselection_probabilities():
    circ = Circuit(1, n_classical=1)
    circ.ry(2 * math.asin(math.sqrt(0.3)), 0)
    circ.measure(0, 0)
    state = StateVector(1)
    rec = sv.apply(state, circ, forced_outcomes=[1])
    assert abs(rec.probability - 0.3) < 1e-12


def test_teleportation_deferred_measurement():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        circ = Circuit(3)
        circ.h(1)
        circ.cx(1, 2)
        circ.cx(0, 1)
        circ.h(0)
        circ.cx(1, 2)
        circ.cz(0, 2)
        full = StateVector(3, np.kron(a, [1, 0, 0, 0]))
        sv.apply(full, circ)
        branches = full.amps.reshape(4, 2)
        for branch in branches:
            norm = np.linalg.norm(branch)
            assert abs(norm - 0.5) < 1e-12  # four equiprobable branches
            assert abs(abs(np.vdot(a, branch / norm)) - 1) < 1e-9


def test_swap_test_identical_orthogonal_overlap():
    zero = StateVector(1)
    one = StateVector.basis(1, 1)
    plus = StateVector(1, np.array([1, 1], complex) / math.sqrt(2))
    assert abs(sv.swap_test_expectation(zero, zero.copy()) - 1.0) < 1e-9
    assert abs(sv.swap_test_expectation(zero, one)) < 1e-9
    assert abs(sv.swap_test_expectation(zero, plus) - 0.5) < 1e-9


def test_swap_test_matches_fidelity_random():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        a, b = random_state(rng, n), random_state(rng, n)
        assert abs(sv.swap_test_expectation(a, b) - sv.fidelity(a, b)) < 1e-9


def test_expectation_pauli():
    zero = StateVector(1)
    assert sv.expectation_pauli(zero, pauli.parse("Z", 1)) == pytest.approx(1.0)
    bundle = catalog.make_five_qubit()
    enc = sv.encode(bundle, StateVector(1))
    for g in bundle.code.generators:
        assert sv.expectation_pauli(enc, g) == pytest.approx(1.0, abs=1e-9)
    assert sv.expectation_pauli(enc, pauli.parse("XXXXX", 5)) == pytest.approx(0.0, abs=1e-9)


def test_expectation_rejects_non_hermitian_phase():
    with pytest.raises(ValueError):
        sv.expectation_pauli(StateVector(1), pauli.parse("iZ", 1))


def test_encode_three_qubit():
    rng = np.random.default_rng(2)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    a /= np.linalg.norm(a)
    enc = sv.encode(catalog.make_three_qubit_bit(), StateVector(1, a))
    expected = np.zeros(8, complex)
    expected[0b000] = a[0]
    expected[0b111] = a[1]
    assert np.allclose(enc.amps, expected)


def test_encode_five_qubit_paper_expansion():
    enc = sv.encode(catalog.make_five_qubit(), StateVector(1))
    nonzero = np.abs(enc.amps) > 1e-12
    assert nonzero.sum() == 16
    assert np.allclose(np.abs(enc.amps[nonzero]), 0.25)
    plus = ["00000", "10010", "01001", "10100", "01010", "00101"]
    minus = ["00110", "11000", "11101", "00011", "11110", "01111",
             "01100", "10111", "11011", "10001"]
    expected = np.zeros(32, complex)
    for s in plus:
        expected[int(s, 2)] = 0.25
    for s in minus:
        expected[int(s, 2)] = -0.25
    assert np.allclose(enc.amps, expected)


def test_encode_shor_ghz_product():
    enc = sv.encode(catalog.make_shor(), StateVector(1))
    ghz = np.zeros(8, complex)
    ghz[0] = ghz[7] = 1 / math.sqrt(2)
    expected = np.kron(np.kron(ghz, ghz), ghz)
    assert np.allclose(enc.amps, expected)


def test_encode_rejects_wrong_input_size():
    with pytest.raises(ValueError, match="encodes 1"):
        sv.encode(catalog.make_five_qubit(), StateVector(2))
    with pytest.raises(ValueError, match="encodes 2"):
        sv.encode(catalog.make_toric(2, 2), StateVector(1))


def test_encode_stops_at_max_qubits():
    bundle = catalog.make_toric(4, 4)  # 32 qubits: a gate encoder, but no state vector
    assert isinstance(bundle.encoder, Circuit)
    with pytest.raises(ValueError, match=f"> {sv.MAX_QUBITS}"):
        sv.encode(bundle, StateVector(2))


def test_hadamard_test_syndrome_five_qubit():
    bundle = catalog.make_five_qubit()
    enc = sv.encode(bundle, StateVector(1))
    errored = enc.copy()
    sv.apply_pauli(errored, pauli.parse("Z1", 5))
    syn, post = sv.hadamard_test_syndrome(errored, bundle.code.generators)
    assert str(syn) == "1010"
    assert sv.fidelity(post, errored) > 1 - 1e-9


def test_hadamard_test_no_error():
    bundle = catalog.make_three_qubit_bit()
    enc = sv.encode(bundle, StateVector(1))
    syn, _ = sv.hadamard_test_syndrome(enc, bundle.code.generators)
    assert syn.is_zero()


def test_hadamard_test_coherent_error_branches():
    bundle = catalog.make_three_qubit_bit()
    rng = np.random.default_rng(4)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    a /= np.linalg.norm(a)
    enc = sv.encode(bundle, StateVector(1, a))
    eps = 0.27
    flipped = enc.copy()
    sv.apply_pauli(flipped, pauli.parse("X1", 3))
    amps = (1 - eps) * enc.amps + eps * flipped.amps
    amps /= np.linalg.norm(amps)
    # postselect each branch: joint probability must match the closed form
    p00 = (1 - eps) ** 2 / (1 - 2 * eps + 2 * eps**2)
    probs = {}
    for outcome in ((0, 0), (1, 1)):
        trial = StateVector(3, amps)
        joint = 1.0
        work = trial
        for bit, g in zip(outcome, bundle.code.generators):
            ext = StateVector(4, np.kron(work.amps, [1, 0]))
            c = Circuit(4, 1)
            c.h(3)
            c.cpauli(3, g)
            c.h(3)
            c.measure(3, 0)
            rec = sv.apply(ext, c, forced_outcomes=[bit])
            joint *= rec.probability
            col = ext.amps.reshape(-1, 2)[:, bit]
            work = StateVector(3, col / np.linalg.norm(col))
        probs[outcome] = joint
    assert probs[(0, 0)] == pytest.approx(p00, abs=1e-9)
    assert probs[(1, 1)] == pytest.approx(1 - p00, abs=1e-9)


def test_hadamard_test_postselect_picks_a_branch():
    bundle = catalog.make_three_qubit_bit()
    enc = sv.encode(bundle, random_state(np.random.default_rng(6), 1))
    flipped = enc.copy()
    sv.apply_pauli(flipped, pauli.parse("X1", 3))
    mixed = StateVector(3, 0.8 * enc.amps + 0.6 * flipped.amps)
    syn, post = sv.hadamard_test_syndrome(mixed, bundle.code.generators, postselect=[1, 1])
    assert syn.bits == (1, 1)
    assert sv.fidelity(post, flipped) > 1 - 1e-12
    with pytest.raises(ValueError, match="random"):
        sv.hadamard_test_syndrome(mixed, bundle.code.generators)
    with pytest.raises(ValueError, match="postselect has 1 outcomes for 2 generators"):
        sv.hadamard_test_syndrome(mixed, bundle.code.generators, postselect=[1])
    with pytest.raises(ValueError, match="generator size mismatch"):
        sv.hadamard_test_syndrome(mixed, [pauli.parse("ZZ", 2)])


@pytest.mark.parametrize(
    "name", ["three-qubit-bit", "planar:1x2", "toric:2x2", "planar:2x2"]
)
def test_oracle_agreement_weight_two(name):
    # every bundle with n <= 9: Hadamard-test syndromes match the algebra
    bundle = catalog.by_name(name)
    k = bundle.params[1]
    rng = np.random.default_rng(len(name))
    a = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    a /= np.linalg.norm(a)
    enc = sv.encode(bundle, StateVector(k, a))
    for err in stab.enumerate_words(bundle.code.n, 1, 2):
        state = enc.copy()
        sv.apply_pauli(state, err)
        syn, post = sv.hadamard_test_syndrome(state, bundle.code.generators)
        assert syn == stab.syndrome(bundle.code, err)
        assert sv.fidelity(post, state) > 1 - 1e-9


def test_imperfect_gate_model():
    rng = np.random.default_rng(17)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    psi = random_state(rng, 1)
    eps, reps = 1e-3, 7
    stepped = psi.copy()
    for _ in range(reps):
        sv._apply_1q(stepped, sv.axis_rotation_matrix(*axis, eps), 0)
    direct = psi.copy()
    sv._apply_1q(direct, sv.axis_rotation_matrix(*axis, reps * eps), 0)
    assert np.allclose(stepped.amps, direct.amps, atol=1e-12)
    fail_stepped = 1 - sv.fidelity(psi, stepped)
    fail_direct = 1 - abs(np.vdot(psi.amps, direct.amps)) ** 2
    assert fail_stepped == pytest.approx(fail_direct, abs=1e-12)
    # quadratic scaling over a decade of total angle
    thetas = np.logspace(-3, -2, 8)
    fails = []
    for theta in thetas:
        rotated = psi.copy()
        sv._apply_1q(rotated, sv.axis_rotation_matrix(*axis, theta), 0)
        fails.append(1 - sv.fidelity(psi, rotated))
    slope = np.polyfit(np.log(thetas), np.log(fails), 1)[0]
    assert abs(slope - 2.0) < 0.1


def _ancilla_reuse_circuit():
    circ = Circuit(4, n_classical=2)
    circ.h(0)
    circ.cx(0, 1)
    circ.ry(0.7, 2)
    circ.measure(2, 0)
    circ.x(3, condition=((0,), 1))
    circ.cx(1, 3)
    circ.measure(3, 1)
    return circ, itertools.product((0, 1), repeat=2)


def _three_qubit_bit_demo():
    # 3 data + 3 coin + 2 syndrome qubits; every coin pattern is forced and
    # the syndrome and data measurements that follow are deterministic
    circ, _, _ = qasm.build_code_demo(catalog.make_three_qubit_bit(), mc.BitFlip(0.1))
    return circ, itertools.product((0, 1), repeat=3)


def _embed(state, order, circ, bits):
    """The flat register that a recycled run stands for: live qubits from
    `state` (axis j is qubit order[j]), measured qubits in their outcome."""
    outcome = {op.targets[0]: bits[op.classical_bit] for op in circ.ops if op.kind == "measure"}
    flat = np.zeros([2] * circ.n_qubits, dtype=complex)
    live = 1.0 if state is None else state.amps.reshape([2] * state.n).transpose(np.argsort(order))
    flat[tuple(slice(None) if q in order else outcome[q] for q in range(circ.n_qubits))] = live
    return StateVector(circ.n_qubits, flat.reshape(-1))


@pytest.mark.parametrize(
    "build", [_ancilla_reuse_circuit, _three_qubit_bit_demo], ids=["ancilla-reuse", "three-qubit-bit-demo"]
)
def test_recycling_matches_flat_simulation(build):
    circ, patterns = build()
    for forced in patterns:
        flat = StateVector(circ.n_qubits)
        try:
            rec_flat = sv.apply(flat, circ, forced_outcomes=list(forced))
        except ValueError:
            rec_flat = None
        try:
            rec_cyc, state, order = sv.apply_with_recycling(circ, forced_outcomes=list(forced))
        except ValueError:
            rec_cyc = None
        assert (rec_flat is None) == (rec_cyc is None)
        if rec_flat is None:
            continue
        assert rec_flat.bits == rec_cyc.bits
        assert rec_flat.outcomes == rec_cyc.outcomes
        assert rec_flat.probability == pytest.approx(rec_cyc.probability, abs=1e-12)
        assert sv.fidelity(flat, _embed(state, order, circ, rec_cyc.bits)) > 1 - 1e-12


@pytest.mark.parametrize("name,model,forced", [
    ("three-qubit-bit", mc.BitFlip(0.001), [1, 1, 1]),
    ("shor", mc.IndependentXZ(0.01, 0.01), [0] * 9 + [1] * 4 + [0] * 5),
    ("shor", mc.IndependentXZ(0.01, 0.01), [0] * 9 + [1] * 5 + [0] * 4),
    ("shor", mc.IndependentXZ(0.01, 0.01), [1] * 9 + [0] * 9),
], ids=["three-qubit-bit-xxx", "shor-4z", "shor-5z", "shor-9x"])
def test_forced_rare_branches_stay_normalised(name, model, forced):
    # a forced branch of probability ~1e-9 must not amplify rounding drift:
    # the kept branch is divided by its own norm, not by sqrt(1 - P(0))
    bundle = catalog.by_name(name)
    circ, _, _ = qasm.build_code_demo(bundle, model)
    del circ.ops[-bundle.code.n:]  # leave the data qubits unmeasured
    rec, state, order = sv.apply_with_recycling(circ, forced_outcomes=forced)
    coins = mc._noise_coins(model, n=bundle.code.n)
    expected = math.prod(p if fired else 1 - p for (_, _, p), fired in zip(coins, forced))
    assert expected < 1e-8
    assert sorted(order) == list(range(bundle.code.n))
    assert abs(state.norm() - 1.0) <= 1e-12
    assert rec.probability == pytest.approx(expected, rel=1e-12, abs=0)
