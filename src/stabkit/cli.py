"""Command-line surface: codes, decode tables, Monte Carlo, thresholds,
bounds, lattices, and QASM emission with machine-readable output."""
from __future__ import annotations

import argparse
import json
import sys

from . import analytic, catalog, montecarlo, pauli, qasm, stabilizer
from .lattice import build_planar, build_toric, homology_rank, logical_cycles, stabilizers_from_lattice

SCHEMA_VERSION = 1


def _noise_model(kind: str, p: float, p2: float | None, qubits) -> montecarlo.NoiseModel:
    kind = kind.replace("_", "-")
    if kind == "independent-xz":
        return montecarlo.IndependentXZ(p, p2 if p2 is not None else p, qubits)
    single = {
        "bit-flip": montecarlo.BitFlip,
        "phase-flip": montecarlo.PhaseFlip,
        "depolarizing": montecarlo.Depolarizing,
    }
    if kind not in single:
        raise ValueError(f"unknown noise kind {kind!r}; known: {', '.join(single)}, independent-xz")
    if p2 is not None or qubits is not None:
        raise ValueError(f"--p2 and --qubits need --noise independent-xz, not {kind}")
    return single[kind](p)


def _parse_qubits(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    return tuple(int(tok) for tok in text.split(",") if tok != "")


def _describe(bundle: catalog.CodeBundle, max_weight: int) -> dict:
    table = stabilizer.build_syndrome_table(bundle.code, max_weight)
    return {
        "schema_version": SCHEMA_VERSION,
        **stabilizer.export_code(bundle.code, table=table, logicals=bundle.logical, dist=bundle.params[2]),
        "rate": f"{bundle.rate.numerator}/{bundle.rate.denominator}",
    }


def _write(path: str, text: str) -> None:
    """Write text to the file at path, or to stdout when path is '-'."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_codes(args) -> int:
    if args.action == "list":
        for name in catalog.code_names():
            print(name)
        return 0
    bundle = catalog.by_name(args.name)
    doc = _describe(bundle, args.max_weight)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        n, k, d = bundle.params
        print(f"{bundle.name}: [[{n},{k},{d}]] code, rate {doc['rate']}")
        print("generators:")
        for g in doc["generators"]:
            print(f"  {g}")
        print(f"logical X: {', '.join(doc['logical_x'])}")
        print(f"logical Z: {', '.join(doc['logical_z'])}")
    return 0


def _cmd_decode_table(args) -> int:
    bundle = catalog.by_name(args.name)
    table = stabilizer.build_syndrome_table(bundle.code, args.max_weight)
    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "code": bundle.name,
            "max_weight": args.max_weight,
            "table": stabilizer.export_code(bundle.code, table=table)["table"],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"{'syndrome':>10}  correction")
        for s, w in table.items():
            print(f"{str(s):>10}  {pauli.format_product(w)}")
    return 0


def _cmd_simulate(args) -> int:
    bundle = catalog.by_name(args.code)
    model = _noise_model(args.noise, args.p, args.p2, _parse_qubits(args.qubits))
    stats = montecarlo.logical_error_rate(
        bundle.code, model, args.shots, args.seed, workers=args.workers
    )
    if args.csv:
        lines = [
            f"# schema_version={SCHEMA_VERSION}",
            "p,shots,logical_rate,stderr,seed",
            f"{args.p!r},{stats.shots},{stats.estimate!r},{stats.stderr!r},{stats.seed}",
        ]
        _write(args.csv, "\n".join(lines) + "\n")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "code": bundle.name,
        "noise": args.noise,
        "p": args.p,
        "shots": stats.shots,
        "logical_rate": stats.estimate,
        "stderr": stats.stderr,
        "ci_low": stats.ci_low,
        "ci_high": stats.ci_high,
        "count_success": stats.count_success,
        "count_logical": stats.count_logical,
        "count_unmatched": stats.count_unmatched,
        "seed": stats.seed,
        "rng": stats.rng,
        "stream_size": stats.stream_size,
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    elif not args.csv:
        print(
            f"{bundle.name} {args.noise} p={args.p}: logical rate "
            f"{stats.estimate:.6f} +- {stats.stderr:.6f}, 95% CI [{stats.ci_low:.6f}, "
            f"{stats.ci_high:.6f}] ({stats.shots} shots, "
            f"{stats.count_unmatched} unmatched, seed {stats.seed})"
        )
    return 0


def _cmd_threshold(args) -> int:
    family = args.family.replace("-", "_")
    value = analytic.pseudo_threshold(family)
    if args.json:
        print(json.dumps({"schema_version": SCHEMA_VERSION, "family": family, "pseudo_threshold": value}))
    else:
        print(f"{value:.6f}")
    return 0


def _cmd_bounds(args) -> int:
    if args.quantum:
        n, k, d = args.quantum
        holds, slack = analytic.quantum_hamming_bound_holds(n, k, d)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "bound": "quantum-hamming",
            "n": n, "k": k, "d": d,
            "holds": holds,
            "slack": slack,
        }
    else:
        q, n, d = args.classical
        doc = {
            "schema_version": SCHEMA_VERSION,
            "bound": "classical-hamming",
            "q": q, "n": n, "d": d,
            "max_codewords": analytic.classical_hamming_bound(q, n, d),
        }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(" ".join(f"{k}={v}" for k, v in doc.items() if k != "schema_version"))
    return 0


def _cmd_lattice(args) -> int:
    toric = args.type == "toric"
    lat = (build_toric if toric else build_planar)(args.rows, args.cols)
    generators = len(stabilizers_from_lattice(lat))
    pairs = logical_cycles(lat).pairs
    doc = {
        "schema_version": SCHEMA_VERSION,
        "type": args.type,
        "rows": args.rows,
        "cols": args.cols,
        "qubits": lat.n_qubits,
        "generators": generators,
        "k": lat.n_qubits - generators,
        "h1_rank": homology_rank(lat.complex, 1),
        "logical_x": [pauli.format_product(x) for x, _ in pairs],
        "logical_z": [pauli.format_product(z) for _, z in pairs],
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for key, val in doc.items():
            if key != "schema_version":
                print(f"{key}: {val}")
    return 0


def _cmd_emit_qasm(args) -> int:
    bundle = catalog.by_name(args.code)
    model = _noise_model(args.noise, args.p, args.p2, _parse_qubits(args.qubits))
    _write(args.output, qasm.emit_code_demo(bundle, model).source)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabkit",
        description="Stabilizer quantum error correction workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_codes = sub.add_parser("codes", help="list or describe the code catalog")
    codes_sub = p_codes.add_subparsers(dest="action", required=True)
    codes_sub.add_parser("list", help="list known code names")
    p_desc = codes_sub.add_parser("describe", help="describe one code")
    p_desc.add_argument("name")
    p_desc.add_argument("--json", action="store_true")
    p_desc.add_argument("--max-weight", type=int, default=1,
                        help="table search depth for the JSON export")

    p_tab = sub.add_parser("decode-table", help="print a syndrome lookup table")
    p_tab.add_argument("name")
    p_tab.add_argument("--max-weight", type=int, default=1)
    p_tab.add_argument("--json", action="store_true")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo logical error rate")
    p_sim.add_argument("--code", required=True)
    p_sim.add_argument("--noise", required=True)
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--p2", type=float, default=None,
                       help="Z-coin probability for independent-xz")
    p_sim.add_argument("--qubits", default=None,
                       help="comma-separated designated qubits for independent-xz")
    p_sim.add_argument("--shots", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--csv", default=None, help="write CSV to file ('-' for stdout)")
    p_sim.add_argument("--json", action="store_true")

    p_thr = sub.add_parser("threshold", help="pseudo-threshold of a code family")
    p_thr.add_argument("--family", required=True,
                       help="three-qubit | shor | five-qubit")
    p_thr.add_argument("--json", action="store_true")

    p_bounds = sub.add_parser("bounds", help="Hamming bound checks")
    group = p_bounds.add_mutually_exclusive_group(required=True)
    group.add_argument("--quantum", nargs=3, type=int, metavar=("N", "K", "D"))
    group.add_argument("--classical", nargs=3, type=int, metavar=("Q", "N", "D"))
    p_bounds.add_argument("--json", action="store_true")

    p_lat = sub.add_parser("lattice", help="toric/planar lattice summary")
    p_lat.add_argument("--type", choices=("toric", "planar"), required=True)
    p_lat.add_argument("--rows", type=int, required=True)
    p_lat.add_argument("--cols", type=int, required=True)
    p_lat.add_argument("--json", action="store_true")

    p_emit = sub.add_parser("emit-qasm", help="emit an OpenQASM 3.0 code demo")
    p_emit.add_argument("--code", required=True)
    p_emit.add_argument("--noise", required=True)
    p_emit.add_argument("--p", type=float, required=True)
    p_emit.add_argument("--p2", type=float, default=None)
    p_emit.add_argument("--qubits", default=None)
    p_emit.add_argument("-o", "--output", default="-")
    return parser


_HANDLERS = {
    "codes": _cmd_codes,
    "decode-table": _cmd_decode_table,
    "simulate": _cmd_simulate,
    "threshold": _cmd_threshold,
    "bounds": _cmd_bounds,
    "lattice": _cmd_lattice,
    "emit-qasm": _cmd_emit_qasm,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (KeyError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
