"""Record classes: value semantics, and a fresh import that generates no code."""
import copy
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import stabkit
from stabkit import catalog, lattice, stabilizer
from stabkit.montecarlo import BitFlip, Depolarizing, IndependentXZ, MCStats, PhaseFlip
from stabkit.qasm import Register
from stabkit.stabilizer import Syndrome
from stabkit.statevec import Op

# Drops stabkit as perfbench/run.py does before each set-up, then imports it
# again with exec and eval recording every string source they compile. The
# first import comes before the patch, since first-time standard-library
# imports run namedtuple evals of their own.
_REIMPORT = textwrap.dedent("""
    import builtins, sys
    import numpy, stabkit
    for name in [m for m in sys.modules if m == "stabkit" or m.startswith("stabkit.")]:
        del sys.modules[name]
    sources = []
    def recording(builtin):
        def call(source, *args, **kwargs):
            if isinstance(source, str):
                sources.append(source.strip().splitlines()[0])
            return builtin(source, *args, **kwargs)
        return call
    builtins.exec, builtins.eval = recording(builtins.exec), recording(builtins.eval)
    import stabkit
    print(len(sources), *sources[:5], sep="\\n")
""")


def test_fresh_import_generates_no_code():
    src = str(Path(stabkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", _REIMPORT], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines()[0] == "0", run.stdout


def test_records_compare_and_hash_by_value_within_one_class():
    assert BitFlip(0.1) == BitFlip(0.1) and hash(BitFlip(0.1)) == hash(BitFlip(0.1))
    assert BitFlip(0.1) != PhaseFlip(0.1) and PhaseFlip(0.1) != Depolarizing(0.1)
    assert Syndrome((0, 1)) != (0, 1)
    assert {Syndrome((0, 1)): "hit"}[Syndrome((0, 1))] == "hit"
    assert MCStats(10, 9, 1, 0, 0.1, 0.09, 3) == MCStats(10, 9, 1, 0, 0.1, 0.09, 3)
    assert MCStats(10, 9, 1, 0, 0.1, 0.09, 3) != MCStats(10, 9, 1, 0, 0.1, 0.09, 4)
    assert Op("cx", (1,), (0,)) == Op("cx", targets=(1,), controls=(0,)) != Op("cx", (0,), (1,))
    assert Register("q", 0, 3) == Register("q", 0, 3) != Register("q", 0, 4)


def test_records_print_like_dataclasses():
    assert repr(IndependentXZ(0.1, 0.2, qubits=(0, 2))) == "IndependentXZ(p_x=0.1, p_z=0.2, qubits=(0, 2))"
    assert repr(Register("sa", 4, 2)) == "Register(name='sa', start=4, size=2)"
    assert repr(MCStats(10, 9, 1, 0, 0.1, 0.09, 3, stream_size=5)) == (
        "MCStats(shots=10, count_success=9, count_logical=1, count_unmatched=0, estimate=0.1, "
        "stderr=0.09, seed=3, rng='pcg64-seedseq(seed,stream)', stream_size=5)"
    )


@pytest.mark.parametrize("record,field", [
    (BitFlip(0.1), "p"), (IndependentXZ(0.1, 0.2), "qubits"), (Syndrome((0, 1)), "bits"),
    (MCStats(10, 9, 1, 0, 0.1, 0.09, 3), "estimate"), (Op("h", (0,)), "targets"),
    (lattice.build_toric(2, 2), "rows"), (catalog.make_two_qubit(), "code"),
], ids=["BitFlip", "IndependentXZ", "Syndrome", "MCStats", "Op", "Lattice", "CodeBundle"])
def test_record_fields_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown_field = 1


def test_records_copy_and_pickle_by_value():
    stats = MCStats(10, 9, 1, 0, 0.1, 0.09, 3)
    assert pickle.loads(pickle.dumps(stats)) == stats == copy.copy(stats)
    assert copy.deepcopy(IndependentXZ(0.1, 0.2, qubits=(0, 2))) == IndependentXZ(0.1, 0.2, qubits=(0, 2))


def test_cached_properties_stay_cached():
    complex_ = lattice.build_planar(2, 3).complex
    assert complex_.boundary1 is complex_.boundary1
    assert complex_.boundary2 is complex_.boundary2
    table = stabilizer.build_syndrome_table(catalog.make_five_qubit().code, 1)
    assert table.entries is table.entries


def test_syndrome_tables_compare_by_identity():
    code = catalog.make_five_qubit().code
    table = stabilizer.build_syndrome_table(code, 1)
    assert table == table and table != stabilizer.build_syndrome_table(code, 1)
    assert {table: 1}[table] == 1
