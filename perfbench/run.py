"""stabkit benchmark: closed-loop workloads, one client, every op verified.

Usage, from the root of a stabkit checkout:

    python3 perfbench/run.py --workload mc_lattice --seed 1 --seconds 20 --trace 0

The run imports stabkit from the checkout's `src/` (it refuses to run
against any other copy) and repeats whole rounds of ops for `--seconds`.
Before every round (on `code_workup`, before every op) it imports stabkit
afresh and rebuilds what the workload prebuilds; those set-ups are timed.
The outputs are checked outside the timed region: Monte-Carlo counts
against the independent oracle in `oracle.py`, code workups against the
properties the README and the acceptance criteria state. An op whose output
disagrees is a failed op: its time counts, its work does not, and the
report names it.

Op and set-up times are scaled to a reference speed by a reference kernel
timed in a child process on the same CPU (see `Probe`); the report prints
the unscaled figures too.

With `--trace 1` a separate traced pass follows the untraced loop; it records
spans around every call into stabkit, writes them to
`.bench_out/spans-<workload>-seed<seed>.jsonl` and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `correct` is false when a
check that has no metric of its own fails: a result that changes with the
worker count.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One client, one thread: the oracle's float matmuls must not leave BLAS
# threads spinning on the second core while the next op is timed.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

from spans import Tracer, no_span  # noqa: E402
from workloads import CodeWorkup, MCLattice, MCSweep, Verdict, derive_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The reference kernel: a fixed loop of the kinds of work stabkit's Python
# paths do (integer arithmetic, numpy scalar bit operations, small dicts and
# lists), run in a child process that never imports stabkit, on the CPU the
# benchmark is pinned to. Each request runs it three times and answers with
# the median time.
PROBE_KERNEL = """
import sys, time
import numpy as np
WORDS = np.arange(64, dtype=np.uint64)
def kernel():
    s = 0
    for i in range(20000):
        s += i * i
    d = {}
    for i in range(1500):
        bit = int((WORDS[i & 63] >> np.uint64(i % 7)) & np.uint64(1))
        d[(i, bit)] = [bit] * 3
def timed():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
for _ in iter(lambda: sys.stdin.buffer.read(1), b""):
    sys.stdout.write(repr(sorted(timed() for _ in range(3))[1]) + "\\n")
    sys.stdout.flush()
"""
# The kernel's median time over sixteen 20-second runs on a shared
# two-vCPU x86-64 host; op and set-up times are scaled by REF_S over the
# kernel's time around them.
REF_S = 4.5e-3
# seconds of op time between two runs of the kernel
PROBE_EVERY_S = 0.2

# per-layer metric -> span; the value is the span's mean self time per call
SELF_MS = {
    "montecarlo.logical_error_rate.self_ms": "montecarlo.logical_error_rate",
    "stabilizer.build_syndrome_table.w1_ms": "stabilizer.build_syndrome_table.w1",
    "stabilizer.build_syndrome_table.w2_ms": "stabilizer.build_syndrome_table.w2",
    "stabilizer.distance.self_ms": "stabilizer.distance",
    "stabilizer.logical_operators.self_ms": "stabilizer.logical_operators",
    "stabilizer.validate.self_ms": "stabilizer.validate",
    "gf2.rank.self_ms": "gf2.rank",
    "lattice.build.self_ms": "lattice.build",
    "lattice.homology_rank.self_ms": "lattice.homology_rank",
    "catalog.by_name.self_ms": "catalog.by_name",
    "statevec.encode.self_ms": "statevec.encode",
    "statevec.hadamard_test_syndrome.self_ms": "statevec.hadamard_test_syndrome",
    "qasm.emit_code_demo.self_ms": "qasm.emit_code_demo",
    "qasm.parse_qasm.self_ms": "qasm.parse_qasm",
    "analytic.pseudo_threshold.self_ms": "analytic.pseudo_threshold",
}


def drop_stabkit() -> None:
    for name in [m for m in sys.modules if m == "stabkit" or m.startswith("stabkit.")]:
        del sys.modules[name]


def import_stabkit():
    """Import stabkit afresh from the checkout, dropping any earlier import,
    so that every set-up repetition pays for the import."""
    drop_stabkit()
    sk = importlib.import_module("stabkit")
    if not Path(sk.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"stabkit was imported from {sk.__file__}, not from {SRC}")
    return sk


def make_workload(name: str):
    if name == "code_workup":
        return CodeWorkup(ROOT)
    return {"mc_lattice": MCLattice, "mc_sweep": MCSweep}[name]()


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Probe:
    """Times the reference kernel on the benchmark's CPU. Other tenants of a
    shared host make every program on a core up to about 1.5 times slower,
    for seconds to minutes at a time; the kernel slows with it, and stabkit
    can neither speed it up nor slow it down."""

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.proc = subprocess.Popen([sys.executable, "-c", PROBE_KERNEL],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.times: list[float] = []

    def __call__(self) -> None:
        self.proc.stdin.write(b".")
        self.proc.stdin.flush()
        self.times.append(float(self.proc.stdout.readline()))

    def scale(self, k: int) -> float:
        """Factor for work done between the k-th and the next kernel run."""
        return REF_S / ((self.times[k] + self.times[k + 1]) / 2)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


@dataclass
class Op:
    config: int       # index into workload.configs
    round: int
    seed: int
    seconds: float    # time of the calls into stabkit
    verdict: Verdict
    probe: int        # index of the last kernel run before the op
    ref_seconds: float = 0.0   # seconds scaled to the reference speed


class Runner:
    """Runs rounds of ops and checks each output as soon as the op returns,
    outside its timed region, so no output outlives its check."""

    def __init__(self, workload, seed: int, probe: Probe):
        self.workload, self.seed, self.probe = workload, seed, probe
        self.setups: list[tuple[float, int]] = []   # (seconds, last kernel run)
        self.oracle_s = 0.0
        self.repro: dict[int, str | None] = {}   # worker-count check per config
        self.next_round = 0

    def set_up(self, span=no_span):
        """Import stabkit afresh and build what the workload prebuilds. The
        caller has let go of the previous import; its modules and state are
        collected here, before the timing starts, so that they do not pile
        up and make the peak RSS depend on when the collector last ran."""
        drop_stabkit()
        gc.collect()
        t0 = perf_counter()
        with span("bench.setup"):
            sk = import_stabkit()
            state = self.workload.setup(sk, span)
        self.setups.append((perf_counter() - t0, len(self.probe.times) - 1))
        return sk, state

    def setup_s(self, scaled: bool = True) -> list[float]:
        return [s * (self.probe.scale(k) if scaled else 1) for s, k in self.setups]

    def rounds(self, span, seconds=None, rounds=None, tracer=None) -> list[Op]:
        """Whole rounds until the ops have run for `seconds` (at least one
        round), or `rounds` rounds. An op that raises is a failed op."""
        w = self.workload
        ops: list[Op] = []
        busy, done, probed = 0.0, 0, None
        while (done < rounds) if rounds is not None else (done == 0 or busy < seconds):
            r = self.next_round
            for i, cfg in enumerate(w.configs):
                if probed is None or busy - probed >= PROBE_EVERY_S:
                    self.probe()
                    probed = busy
                if tracer is not None:
                    tracer.op = "setup"
                if i % w.ops_per_setup == 0:
                    sk = state = out = None
                    sk, state = self.set_up(span)
                if tracer is not None:
                    tracer.op = len(ops)
                seed = derive_seed(self.seed, i, r)
                error = None
                t0 = perf_counter()
                try:
                    with span("bench.op"):
                        out = w.op(sk, state, cfg, seed, span)
                except Exception:
                    out, error = None, traceback.format_exc()
                dt = perf_counter() - t0
                busy += dt
                t0 = perf_counter()
                if error is not None:
                    verdict = Verdict(["raised " + error.strip().splitlines()[-1]], error, 0, {})
                else:
                    verdict = w.check(sk, cfg, seed, out)
                    if r == 0 and hasattr(w, "reproduce"):
                        self.repro[i] = w.reproduce(sk, state, cfg, seed, out)
                self.oracle_s += perf_counter() - t0
                ops.append(Op(i, r, seed, dt, verdict, len(self.probe.times) - 1))
            self.next_round += 1
            done += 1
        self.probe()
        for op in ops:
            op.ref_seconds = op.seconds * self.probe.scale(op.probe)
        return ops


def by_config(ops) -> list[list[Op]]:
    groups: dict[int, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.config, []).append(op)
    return [groups[i] for i in sorted(groups)]


def e2e(ops, scaled: bool = True) -> dict[str, float]:
    """Throughput from each configuration's median op time, and latency
    percentiles over all attempted ops; from the scaled op times unless
    `scaled` is false.

    A round of the median op times is the time a typical round takes; the
    median leaves out the host's brief slowdowns but follows any change in
    the ops' typical time. Throughput credits each configuration with its
    share of verified ops and its mean verified shots per op.
    """
    def seconds(op):
        return op.ref_seconds if scaled else op.seconds

    groups = by_config(ops)
    round_s = sum(statistics.median(map(seconds, g)) for g in groups)
    verified = sum(sum(not o.verdict.problems for o in g) / len(g) for g in groups)
    shots = sum(sum(o.verdict.work for o in g) / len(g) for g in groups)
    latency_ms = [1e3 * seconds(op) for op in ops]
    return {
        "ops_per_s": verified / round_s,
        "shots_per_s": shots / round_s,
        "op_p50_ms": float(np.percentile(latency_ms, 50)),
        "op_p90_ms": float(np.percentile(latency_ms, 90)),
    }


def busy_rate(ops) -> float:
    """Attempted ops per second of scaled op time."""
    return len(ops) / sum(op.ref_seconds for op in ops)


def digest(ops) -> str:
    """sha256 over the first round's outputs, in configuration order; later
    rounds are checked but not digested, so the digest does not depend on
    how many rounds a run fits in."""
    first = sorted((op.config, op.verdict.summary) for op in ops if op.round == 0)
    return hashlib.sha256("\n".join(f"{i} {s}" for i, s in first).encode()).hexdigest()


def per_layer(tracer, ops, overhead, oracle_s, failed_frac):
    selfs = tracer.self_times()

    def mean_ms(span_name):
        total, calls = selfs.get(span_name, (0.0, 0))
        return 1e3 * total / calls if calls else 0.0

    metrics = {name: (mean_ms(span), "ms") for name, span in SELF_MS.items()}
    counts: dict[str, int] = {}
    for op in ops:
        for key, value in op.verdict.counts.items():
            counts[key] = counts.get(key, 0) + value
    streams, shots = counts.get("streams", 0), counts.get("shots", 0)
    lep_s = selfs.get("montecarlo.logical_error_rate", (0.0, 0))[0]
    dec_s, dec_calls = selfs.get("montecarlo.decode_outcome", (0.0, 0))
    metrics.update({
        "montecarlo.ms_per_stream": (1e3 * lep_s / streams if streams else 0.0, "ms"),
        "montecarlo.streams": (streams, "count"),
        "montecarlo.shots": (shots, "count"),
        "montecarlo.unmatched_frac": (counts.get("unmatched", 0) / shots if shots else 0.0, "ratio"),
        "montecarlo.distinct_syndromes_per_stream": (
            counts.get("distinct_syndromes", 0) / streams if streams else 0.0, "count"),
        "montecarlo.decode_outcome.us_per_call": (1e6 * dec_s / dec_calls if dec_calls else 0.0, "us"),
        "bench.trace_overhead_frac": (overhead, "ratio"),
        "bench.oracle_s": (oracle_s, "s"),
        "failed_frac": (failed_frac, "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("mc_lattice", "mc_sweep", "code_workup"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "stabkit" / "__init__.py").is_file():
        print(f"perfbench: no stabkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    probe = Probe()
    try:
        return run(args, probe)
    finally:
        probe.close()


def run(args, probe: Probe) -> int:
    workload = make_workload(args.workload)
    runner = Runner(workload, args.seed, probe)
    ops = runner.rounds(no_span, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sk = import_stabkit()

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    mc = sk.montecarlo
    provenance = {
        "stabkit": sk.__version__, "rng": mc.RNG_NAME, "stream_size": mc.DEFAULT_STREAM_SIZE,
        "numpy": np.__version__, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": git_commit(ROOT),
    }
    print("provenance " + json.dumps(provenance))
    for cfg in workload.configs:
        print("input " + workload.describe(sk, cfg))
    if args.trace:
        untraced = busy_rate(ops)
        tracer = Tracer()
        traced = runner.rounds(tracer.span, rounds=workload.trace_rounds, tracer=tracer)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")
        ops += traced
    failed = [(n, op) for n, op in enumerate(ops) if op.verdict.problems]
    for n, op in failed:
        cfg = workload.configs[op.config]
        noise = f" noise={cfg.noise()}" if hasattr(cfg, "noise") else ""
        print(f"FAILED op {n}: workload={workload.name} code={cfg.code}{noise} "
              f"seed={op.seed}: {'; '.join(op.verdict.problems)}")
    repro = runner.repro
    for i, problem in repro.items():
        if problem:
            print(f"NOT REPRODUCIBLE {workload.describe(sk, workload.configs[i])}: {problem}")
    print(f"ops {len(ops)} in {runner.next_round} rounds, failed {len(failed)} "
          f"(failed_frac {len(failed) / len(ops):.6f}); checks {runner.oracle_s:.3f} s")
    if repro:
        print(f"workers=2 re-runs identical: {sum(p is None for p in repro.values())}/{len(repro)}")
    print(f"digest sha256:{digest(ops)}")
    setup_s = runner.setup_s()
    print(f"setup {len(setup_s)} times, median {statistics.median(setup_s):.4f} s "
          f"(unscaled {statistics.median(runner.setup_s(scaled=False)):.4f} s)")
    print(f"reference kernel {len(probe.times)} runs: median {1e3 * statistics.median(probe.times):.3f} ms, "
          f"quartiles {' '.join(f'{1e3 * q:.3f}' for q in statistics.quantiles(probe.times, n=4))} ms; "
          f"times scale by {REF_S * 1e3:g} ms / kernel time")
    raw = e2e(ops, scaled=False)
    print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))

    if args.trace:
        overhead = 1.0 - busy_rate(traced) / untraced
        metrics = per_layer(tracer, traced, overhead, runner.oracle_s, len(failed) / len(ops))
    else:
        fig = e2e(ops)
        metrics = {
            "shots_per_s": (fig["shots_per_s"], "1/s"),
            "ops_per_s": (fig["ops_per_s"], "1/s"),
            "op_p50_ms": (fig["op_p50_ms"], "ms"),
            "op_p90_ms": (fig["op_p90_ms"], "ms"),
            "verified_frac": (1.0 - len(failed) / len(ops), "ratio"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not any(repro.values()),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
