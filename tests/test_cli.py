import json
from pathlib import Path

import pytest

from stabkit import catalog, stabilizer
from stabkit.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_codes_list(capsys):
    code, out, _ = run_cli(capsys, "codes", "list")
    assert code == 0
    names = out.split()
    assert "five-qubit" in names and "shor" in names and "toric:MxN" in names


def test_codes_describe_five_qubit_json(capsys):
    code, out, _ = run_cli(capsys, "codes", "describe", "five-qubit", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    assert doc["schema_version"] == 1
    assert doc["n"] == 5 and doc["k"] == 1 and doc["distance"] == 3
    assert len(doc["table"]) == 16


def test_codes_describe_human(capsys):
    code, out, _ = run_cli(capsys, "codes", "describe", "shor")
    assert code == 0
    assert "[[9,1,3]]" in out and "rate 1/9" in out


def test_codes_describe_unknown(capsys):
    code, _, err = run_cli(capsys, "codes", "describe", "steane")
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_threshold_shor(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--family", "shor")
    assert code == 0
    value = float(out.strip())
    assert 0.0318 <= value <= 0.0328


def test_threshold_three_qubit_hyphen_name(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--family", "three-qubit")
    assert code == 0
    assert float(out.strip()) == 0.5


def test_decode_table_two_qubit(capsys):
    code, out, _ = run_cli(capsys, "decode-table", "two-qubit", "--json")
    assert code == 0
    doc = json.loads(out)
    syndromes = {row["syndrome"] for row in doc["table"]}
    assert syndromes == {"0", "1"}


def test_bounds_quantum(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--quantum", "5", "1", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True and doc["slack"] == 0


def test_bounds_classical(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--classical", "2", "7", "3", "--json")
    assert code == 0
    assert json.loads(out)["max_codewords"] == 16


def test_lattice_json(capsys):
    code, out, _ = run_cli(
        capsys, "lattice", "--type", "toric", "--rows", "5", "--cols", "5", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["qubits"] == 50 and doc["generators"] == 48 and doc["k"] == 2


def test_lattice_rejects_small_toric(capsys):
    code, _, err = run_cli(capsys, "lattice", "--type", "toric", "--rows", "1", "--cols", "4")
    assert code == 1 and "error:" in err


def test_simulate_deterministic_output(capsys):
    argv = [
        "simulate", "--code", "three-qubit-bit", "--noise", "bit-flip",
        "--p", "0.1", "--shots", "5000", "--seed", "11", "--json",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["shots"] == 5000 and doc["seed"] == 11
    assert doc["count_success"] + doc["count_logical"] == 5000


def test_simulate_text_reports_unmatched(capsys):
    argv = ["simulate", "--code", "planar:1x2", "--noise", "depolarizing",
            "--p", "0.3", "--shots", "2000", "--seed", "5"]
    code, out, _ = run_cli(capsys, *argv)
    _, doc, _ = run_cli(capsys, *argv, "--json")
    unmatched = json.loads(doc)["count_unmatched"]
    assert code == 0 and unmatched > 0
    assert f"(2000 shots, {unmatched} unmatched, seed 5)" in out


def test_simulate_reports_a_nonzero_interval_at_zero_failures(capsys):
    argv = ["simulate", "--code", "five-qubit", "--noise", "depolarizing",
            "--p", "0.0001", "--shots", "10000"]
    _, out, _ = run_cli(capsys, *argv)
    _, doc, _ = run_cli(capsys, *argv, "--json")
    doc = json.loads(doc)
    assert doc["count_logical"] == 0 and doc["stderr"] == 0.0
    assert doc["ci_low"] == 0.0 and doc["ci_high"] == pytest.approx(3.84e-4, rel=1e-3)
    assert "0.000000 +- 0.000000, 95% CI [0.000000, 0.000384]" in out


def test_simulate_csv(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--code", "five-qubit", "--noise", "depolarizing",
        "--p", "0.05", "--shots", "2000", "--seed", "3", "--csv", str(target),
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "p,shots,logical_rate,stderr,seed"
    fields = lines[2].split(",")
    assert fields[0] == "0.05" and fields[1] == "2000" and fields[4] == "3"


def test_simulate_unknown_noise(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--code", "shor", "--noise", "amplitude-damping",
        "--p", "0.1", "--shots", "10",
    )
    assert code == 1 and "unknown noise kind" in err


def test_emit_qasm_to_file(tmp_path, capsys):
    target = tmp_path / "demo.qasm"
    code, _, _ = run_cli(
        capsys, "emit-qasm", "--code", "three-qubit-bit", "--noise", "bit-flip",
        "--p", "0.1", "-o", str(target),
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith('OPENQASM 3.0;\ninclude "stdgates.inc";\n')


def test_emit_qasm_rejects_qubit_past_code(capsys):
    code, out, err = run_cli(
        capsys, "emit-qasm", "--code", "shor", "--noise", "independent-xz",
        "--p", "0.1", "--qubits", "9", "-o", "-",
    )
    assert code == 1 and out == "" and "designated qubit 9 out of range" in err


@pytest.mark.parametrize("command,noise,flag,message", [
    ("simulate", "independent-xz", ["--qubits", "0,0"], "designated qubits [0, 0] repeat"),
    ("simulate", "bit-flip", ["--qubits", "0"], "need --noise independent-xz"),
    ("simulate", "depolarizing", ["--p2", "0.3"], "need --noise independent-xz"),
    ("emit-qasm", "bit-flip", ["--qubits", "0"], "need --noise independent-xz"),
    ("emit-qasm", "phase-flip", ["--p2", "0.3"], "need --noise independent-xz"),
], ids=["simulate-repeated-qubits", "simulate-qubits", "simulate-p2", "emit-qasm-qubits", "emit-qasm-p2"])
def test_noise_flags_are_checked_not_dropped(capsys, command, noise, flag, message):
    extra = ["--shots", "1000"] if command == "simulate" else ["-o", "-"]
    code, out, err = run_cli(
        capsys, command, "--code", "shor", "--noise", noise, "--p", "0.1", *flag, *extra
    )
    assert code == 1 and out == "" and message in err


@pytest.mark.parametrize("command", ["simulate", "emit-qasm"])
@pytest.mark.parametrize("qubits", ["", ","], ids=["empty", "comma"])
def test_empty_qubit_list_exits_1(capsys, command, qubits):
    extra = ["--shots", "100"] if command == "simulate" else ["-o", "-"]
    code, out, err = run_cli(
        capsys, command, "--code", "shor", "--noise", "independent-xz", "--p", "0.1",
        "--qubits", qubits, *extra,
    )
    assert code == 1 and out == "" and "designated qubit list is empty" in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_simulate_rejects_workers_below_one(capsys, workers):
    code, out, err = run_cli(
        capsys, "simulate", "--code", "shor", "--noise", "bit-flip", "--p", "0.1",
        "--shots", "100", f"--workers={workers}",
    )
    assert code == 1 and out == "" and "must be >= 1" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_decode_table_shor_weight2_json_matches_golden(capsys):
    # shor's weight-2 table is enumerated in another order than its keys
    # sort in, so this pins the export's ascending-syndrome order
    entries = stabilizer.build_syndrome_table(catalog.make_shor().code, 2).entries
    assert list(entries) != sorted(entries, key=lambda s: s.bits)
    code, out, _ = run_cli(capsys, "decode-table", "shor", "--max-weight", "2", "--json")
    assert code == 0
    assert out == (GOLDEN / "shor_decode_table_w2.json").read_text()
    assert len(json.loads(out)["table"]) == 148
