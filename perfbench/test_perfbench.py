"""Tests of the benchmark itself: the decode oracle against stabkit's scalar
decoder, the span arithmetic and the output digest.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
from oracle import DecodeOracle  # noqa: E402
from spans import Tracer  # noqa: E402
from stabkit import catalog, montecarlo as mc, stabilizer as st  # noqa: E402
from workloads import _bits  # noqa: E402


def oracle_for(code) -> DecodeOracle:
    pairs = st.logical_operators(code).pairs
    return DecodeOracle(*_bits(code.generators), *_bits([x for x, _ in pairs] + [z for _, z in pairs]))


# 30, 64 and 70 generators: the batch decoder's integer keys wrap past 64
@pytest.mark.parametrize("name,generators", [
    ("toric:4x4", 30), ("toric:3x11", 64), ("planar:1x22", 64), ("toric:6x6", 70)])
@pytest.mark.parametrize("kind,p", [("depolarizing", 0.02), ("bitflip", 0.01)])
def test_oracle_matches_scalar_run_trial_on_stream_prefix(name, generators, kind, p):
    code = catalog.by_name(name).code
    assert code.num_generators == generators
    table = st.build_syndrome_table(code, 1)
    model = mc.Depolarizing(p) if kind == "depolarizing" else mc.BitFlip(p)
    seed, trials = 7, 600
    rng = np.random.default_rng([seed, 0])
    outcomes = [mc.run_trial(code, table, model, rng) for _ in range(trials)]
    success = sum(o is mc.TrialOutcome.SUCCESS for o in outcomes)
    unmatched = sum(o is mc.TrialOutcome.UNMATCHED_SYNDROME for o in outcomes)
    got = oracle_for(code).stream(kind, p, trials, seed, 0)
    assert got.triple == (success, trials - success, unmatched)
    assert unmatched > 0 and success < trials


@pytest.mark.parametrize("name", ["toric:4x4", "toric:3x11"])
def test_oracle_matches_batch_path_up_to_64_generators(name):
    code = catalog.by_name(name).code
    stats = mc.logical_error_rate(code, mc.Depolarizing(0.02), 20000, seed=5)
    got = oracle_for(code).run("depolarizing", 0.02, 20000, 5, mc.DEFAULT_STREAM_SIZE)
    assert got.triple == (stats.count_success, stats.count_logical, stats.count_unmatched)
    assert got.streams == 3


def test_oracle_rejects_logicals_that_are_not_pairs():
    code = catalog.by_name("five-qubit").code
    x, z = st.logical_operators(code).pairs[0]
    with pytest.raises(ValueError, match="symplectic pairs"):
        DecodeOracle(*_bits(code.generators), *_bits([x, x]))


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["op", 0.0, 10.0, None, 0, 1],
        ["a", 1.0, 4.0, 0, 0, 1],
        ["b", 5.0, 6.0, 0, 0, 2],
        ["a", 7.0, 8.0, 0, 0, 1],
    ]
    assert tracer.self_times() == {"op": (5.0, 1), "a": (4.0, 2), "b": (1.0, 2)}


class SteadyProbe:
    """Stands in for run.Probe: the reference kernel always takes REF_S."""

    def __init__(self):
        self.times = []

    def __call__(self):
        self.times.append(run.REF_S)

    def scale(self, k):
        return 1.0


def one_round(workload, seed, rounds=1):
    w = run.make_workload(workload)
    ops = run.Runner(w, seed, SteadyProbe()).rounds(run.no_span, rounds=rounds)
    assert not any(op.verdict.problems for op in ops)
    return ops


@pytest.mark.parametrize("workload", ["mc_sweep", "code_workup"])
def test_digest_repeats_for_a_seed_and_changes_with_it(workload):
    first = run.digest(one_round(workload, 1))
    assert run.digest(one_round(workload, 1)) == first
    assert run.digest(one_round(workload, 2)) != first


def test_rounds_draw_new_seeds_and_the_digest_ignores_later_rounds():
    ops = one_round("mc_sweep", 1, rounds=2)
    assert len({op.seed for op in ops}) == len(ops)
    assert run.digest(ops) == run.digest(one_round("mc_sweep", 1))


def test_latency_percentiles_see_intermittent_stalls():
    def ops(seconds):
        return [run.Op(i % 3, i // 3, i, s, run.Verdict([], "", 10, {}), 0, s)
                for i, s in enumerate(seconds)]
    steady = run.e2e(ops([0.01] * 30))
    stalled = run.e2e(ops([0.01] * 26 + [0.5] * 4))
    assert stalled["op_p90_ms"] > 10 * steady["op_p90_ms"]


def test_probe_times_the_kernel_in_a_child_process_and_stops_it():
    cpus = os.sched_getaffinity(0)
    probe = run.Probe()
    try:
        probe()
        probe()
        assert all(0 < t < 1 for t in probe.times)
        assert probe.scale(0) == pytest.approx(2 * run.REF_S / sum(probe.times))
    finally:
        probe.close()
        os.sched_setaffinity(0, cpus)
    assert probe.proc.returncode == 0
