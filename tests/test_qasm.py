import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from stabkit import catalog, montecarlo as mc, pauli, qasm, stabilizer as stab, statevec as sv
from stabkit.statevec import Circuit, StateVector

GOLDEN = Path(__file__).parent / "golden"


def test_noise_angle_endpoints():
    assert qasm.noise_angle(0.5) == 0.0
    assert qasm.noise_angle(1.0) == pytest.approx(math.pi / 2)
    assert qasm.noise_angle(0.0) == pytest.approx(-math.pi / 2)
    assert qasm.noise_angle(0.1) == pytest.approx(math.asin(-0.8))


@pytest.mark.parametrize("p", [0.0, 0.1, 0.37, 0.5, 0.9, 1.0])
def test_noise_angle_prepares_probability_p(p):
    # oracle: Ry(phi) H |0> must be measured as |1> with probability p
    state = StateVector(1)
    circ = Circuit(1)
    circ.h(0)
    circ.ry(qasm.noise_angle(p), 0)
    sv.apply(state, circ)
    assert abs(state.amps[1]) ** 2 == pytest.approx(p, abs=1e-9)


def test_emit_bell():
    circ = Circuit(2)
    circ.h(0)
    circ.cx(0, 1)
    text = qasm.emit(circ).source
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 3.0;"
    assert lines[1] == 'include "stdgates.inc";'
    assert "h q[0];" in lines
    assert "cx q[0], q[1];" in lines


def test_emit_empty_circuit():
    text = qasm.emit(Circuit(2)).source
    assert text == 'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[2] q;\n'


def test_emit_all_gates_roundtrip():
    circ = Circuit(3, n_classical=2)
    circ.h(0)
    circ.x(1)
    circ.y(2)
    circ.z(0)
    circ.s(1)
    circ.sdg(2)
    circ.rx(0.25, 0)
    circ.ry(-1.5, 1)
    circ.rz(2.75, 2)
    circ.cx(0, 1)
    circ.cz(1, 2)
    circ.swap(0, 2)
    circ.measure(0, 0)
    circ.x(1, condition=((0, 1), 1))
    circ.measure(1, 1)
    prog = qasm.emit(circ, classical_registers=(qasm.Register("c", 0, 2),))
    parsed, _, _ = qasm.parse_qasm(prog.source)
    assert parsed == circ


def test_emit_unsupported_gate():
    circ = Circuit(2)
    circ.ops.append(sv.Op("ccx", (0,), (1,)))
    with pytest.raises(ValueError):
        qasm.emit(circ)


def test_controlled_y_expansion():
    circ = Circuit(2)
    circ.cpauli(0, pauli.parse("Y", 1), targets=(1,))
    text = qasm.emit(circ).source
    assert "sdg q[1];\ncx q[0], q[1];\ns q[1];" in text
    # semantics: the expansion equals a dense controlled-Y
    parsed, _, _ = qasm.parse_qasm(text)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    direct = StateVector(2, amps.copy())
    sv.apply(direct, circ)
    expanded = StateVector(2, amps.copy())
    sv.apply(expanded, parsed)
    assert np.allclose(direct.amps, expanded.amps)


@pytest.mark.parametrize("word", ["XZ", "-XZ", "iYX", "-iZY"])
def test_controlled_word_phase_survives_emission(word):
    circ = Circuit(3).cpauli(1, pauli.parse(word, 2), targets=(2, 0))
    parsed, _, _ = qasm.parse_qasm(qasm.emit(circ).source)
    amps = np.random.default_rng(8).normal(size=(8, 2)) @ [1, 1j]
    direct, expanded = (StateVector(3, amps / np.linalg.norm(amps)) for _ in range(2))
    sv.apply(direct, circ)
    sv.apply(expanded, parsed)
    assert np.allclose(direct.amps, expanded.amps, atol=1e-12)


def test_three_qubit_demo_structure():
    prog = qasm.emit_code_demo(catalog.make_three_qubit_bit(), mc.BitFlip(0.1))
    lines = prog.source.splitlines()
    body = lines[8:]  # after header + 6 declarations
    encode_cnots = [ln for ln in body[:2]]
    assert encode_cnots == ["cx q[0], q[1];", "cx q[0], q[2];"]
    assert sum(1 for ln in body if ln.startswith("ry(")) == 3  # one per noise block
    extraction = [ln for ln in body if ", sa[" in ln and ln.startswith("cx q[")]
    assert len(extraction) == 4
    corrections = [ln for ln in body if ln.startswith("if (")]
    assert len(corrections) == 3
    assert sum(1 for ln in body if "= measure q[" in ln) == 3


def test_shor_demo_ancilla_counts():
    prog = qasm.emit_code_demo(
        catalog.make_shor(), mc.IndependentXZ(0.1, 0.1, qubits=(0, 2))
    )
    assert "qubit[4] na;" in prog.source  # noise coins X1, X3, Z1, Z3
    assert "qubit[8] sa;" in prog.source
    assert "qubit[9] q;" in prog.source


def test_five_qubit_demo_p0_angle():
    prog = qasm.emit_code_demo(catalog.make_five_qubit(), mc.BitFlip(0.0))
    assert f"ry({-math.pi / 2!r})" in prog.source


def test_demo_rejects_depolarizing():
    with pytest.raises(ValueError):
        qasm.emit_code_demo(catalog.make_three_qubit_bit(), mc.Depolarizing(0.1))


@pytest.mark.parametrize("qubits", [(9,), (-1,), (0, 0)], ids=["past-n", "negative", "repeated"])
def test_demo_rejects_bad_designated_qubits(qubits):
    with pytest.raises(ValueError, match="designated qubit"):
        qasm.emit_code_demo(catalog.make_shor(), mc.IndependentXZ(0.1, 0.1, qubits=qubits))


@pytest.mark.parametrize("name", ["planar:1x2", "toric:2x2"])
def test_lattice_demo_roundtrip_and_syndromes(name):
    bundle = catalog.by_name(name)
    code = bundle.code
    n, l = code.n, code.num_generators
    circ, qregs, cregs = qasm.build_code_demo(bundle, mc.BitFlip(0.1))
    source = qasm.emit(circ, qregs, cregs).source
    assert qasm.emit(*qasm.parse_qasm(source)).source == source
    # the n coins are measured first: none fired, then each one alone
    for fired in (None, *range(n)):
        coins = [int(q == fired) for q in range(n)]
        rec, _, _ = sv.apply_with_recycling(circ, np.random.default_rng(0), coins)
        error = pauli.PauliWord.identity(n) if fired is None else pauli.PauliWord.single(n, fired, "X")
        assert tuple(rec.bits[n + i] for i in range(l)) == stab.syndrome(code, error).bits


def test_emission_deterministic():
    a = qasm.emit_code_demo(catalog.make_shor(), mc.IndependentXZ(0.1, 0.1, qubits=(0, 2)))
    b = qasm.emit_code_demo(catalog.make_shor(), mc.IndependentXZ(0.1, 0.1, qubits=(0, 2)))
    assert a.source == b.source


def test_golden_three_qubit():
    prog = qasm.emit_code_demo(catalog.make_three_qubit_bit(), mc.BitFlip(0.1))
    assert prog.source == (GOLDEN / "three_qubit_bit_demo.qasm").read_text()


def test_golden_shor():
    prog = qasm.emit_code_demo(
        catalog.make_shor(), mc.IndependentXZ(0.1, 0.1, qubits=(0, 2))
    )
    assert prog.source == (GOLDEN / "shor_demo.qasm").read_text()


def test_roundtrip_three_qubit_branch_distributions():
    circ, qregs, cregs = qasm.build_code_demo(catalog.make_three_qubit_bit(), mc.BitFlip(0.1))
    parsed, pq, pc = qasm.parse_qasm(qasm.emit(circ, qregs, cregs).source)
    assert parsed == circ and pq == qregs and pc == cregs
    n_meas = sum(1 for op in circ.ops if op.kind == "measure")
    total = 0.0
    for outs in itertools.product((0, 1), repeat=n_meas):
        recs = []
        for c in (circ, parsed):
            state = StateVector(c.n_qubits)
            try:
                recs.append(sv.apply(state, c, forced_outcomes=list(outs)))
            except ValueError:
                recs.append(None)
        assert (recs[0] is None) == (recs[1] is None)
        if recs[0] is not None:
            assert recs[0].probability == pytest.approx(recs[1].probability, abs=1e-12)
            if outs[:3] == (0, 0, 0):
                total += recs[0].probability
    # with no noise coin fired the syndrome is clean and data decodes exactly
    assert total == pytest.approx(0.9**3)


def test_roundtrip_shor_seeded_simulation():
    circ, qregs, cregs = qasm.build_code_demo(
        catalog.make_shor(), mc.IndependentXZ(0.1, 0.1, qubits=(0, 2))
    )
    parsed, _, _ = qasm.parse_qasm(qasm.emit(circ, qregs, cregs).source)
    assert parsed == circ
    for seed in (0, 1, 2):
        r1, s1, _ = sv.apply_with_recycling(circ, rng=np.random.default_rng(seed))
        r2, s2, _ = sv.apply_with_recycling(parsed, rng=np.random.default_rng(seed))
        assert r1.bits == r2.bits
        assert r1.probability == pytest.approx(r2.probability, abs=1e-12)
        assert (s1 is None) == (s2 is None)


def test_roundtrip_five_qubit_demo_semantics():
    # non-CSS generators go through the Hadamard-test form; the emitted text
    # expands the controlled words, so the parsed circuit differs
    # structurally but must behave identically
    circ, qregs, cregs = qasm.build_code_demo(catalog.make_five_qubit(), mc.PhaseFlip(0.1))
    parsed, _, _ = qasm.parse_qasm(qasm.emit(circ, qregs, cregs).source)
    assert parsed != circ
    for seed in (0, 1, 2):
        r1, _, _ = sv.apply_with_recycling(circ, rng=np.random.default_rng(seed))
        r2, _, _ = sv.apply_with_recycling(parsed, rng=np.random.default_rng(seed))
        assert r1.bits == r2.bits
        assert r1.probability == pytest.approx(r2.probability, abs=1e-12)


def test_parse_rejects_garbage():
    with pytest.raises(qasm.QasmParseError):
        qasm.parse_qasm("h q[0];\n")
    with pytest.raises(qasm.QasmParseError):
        qasm.parse_qasm('OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[1] q;\nfoo q[0];\n')


@pytest.mark.parametrize("stmt", [
    "h q[0], q[1];", "cx q[0];", "rx q[0];", "rx q[0], q[1];", "h(0.5) q[0];", "rx(abc) q[0];",
    "cx q[0], q[0];", "x q[2];", "x r[0];", "c[1] = measure q[0];", "if (d == 1) { x q[0]; }",
])
def test_parse_rejects_malformed_statement(stmt):
    text = f"{qasm.HEADER}qubit[2] q;\nbit[1] c;\n{stmt}\n"
    with pytest.raises(qasm.QasmParseError):
        qasm.parse_qasm(text)


def test_emit_rejects_uncovered_qubit():
    circ = Circuit(2).h(1)
    with pytest.raises(ValueError, match="qubit index 1 not covered by any register"):
        qasm.emit(circ, qubit_registers=(qasm.Register("q", 0, 1),))


def test_emit_rejects_condition_on_part_of_register():
    circ = Circuit(1, n_classical=2).measure(0, 0).x(0, condition=((0,), 1))
    with pytest.raises(ValueError, match="whole classical register"):
        qasm.emit(circ)
