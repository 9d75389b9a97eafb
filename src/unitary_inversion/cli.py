"""Command-line entry point: simulation runs, single SDP solves, table sweeps.

Exit codes are a stable contract: 0 success, 2 tolerance breach, 3 size
cap, 4 solver failure.  Every command with a fixed seed emits
byte-reproducible JSON payloads; wall time and artifact digests go to a
separate run manifest when an output directory is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import comb_sdp, protocol, reference_tables
from .sdp import SolverConfig, solve, verify
from .tensor import haar_unitary, random_state

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_SIZE_CAP = 3
EXIT_SOLVER = 4

EXACTNESS_BOUND = 1.0 - 1e-10


def _manifest_parameters(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _write_artifacts(out_dir: str, files: dict[str, str], manifest: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, text in files.items():
        path = out / name
        path.write_text(text)
        hashes[name] = hashlib.sha256(text.encode()).hexdigest()
    manifest = dict(manifest)
    manifest["artifact_hashes"] = hashes
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))


def cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    circuit = protocol.build_protocol()
    start = time.perf_counter()
    records = []
    for _ in range(args.trials):
        u = haar_unitary(2, rng)
        phi = random_state((2,), rng)
        if args.mode == "standard":
            _, fid = protocol.run_inversion(u, phi, circuit)
            records.append({"fidelity": fid})
        else:
            if args.mode == "catalytic":
                catalyst = protocol.honest_catalyst(u)
            else:
                catalyst = protocol.honest_catalyst(haar_unitary(2, rng))
            _, cat_fid, target_fid = protocol.run_catalytic(u, phi, catalyst, circuit)
            records.append({"catalyst_fidelity": cat_fid, "target_fidelity": target_fid})
    wall = time.perf_counter() - start
    if args.mode == "standard":
        values = [r["fidelity"] for r in records]
    else:
        values = [min(r["catalyst_fidelity"], r["target_fidelity"]) for r in records]
    payload = {
        "command": "simulate",
        "mode": args.mode,
        "trials": args.trials,
        "seed": args.seed,
        "per_trial": records,
        "summary": {
            "min_fidelity": min(values),
            "mean_fidelity": sum(values) / len(values),
        },
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.json:
        print(text)
    else:
        print(
            f"{args.mode}: trials={args.trials} min={payload['summary']['min_fidelity']:.12f} "
            f"mean={payload['summary']['mean_fidelity']:.12f}"
        )
    if args.out:
        _write_artifacts(
            args.out,
            {"simulate.json": text},
            {"command": "simulate", "parameters": _manifest_parameters(args),
             "seed": args.seed, "wall_time": wall},
        )
    if args.mode == "adversarial":
        return EXIT_OK
    return EXIT_OK if payload["summary"]["min_fidelity"] >= EXACTNESS_BOUND else EXIT_TOLERANCE


def _build_problem(mode: str, d: int, n: int, svec_cap: int):
    if mode in ("seq", "par"):
        if comb_sdp.reduced_svec_size(d, n) > svec_cap:
            return None
        return (
            comb_sdp.build_sequential_sdp(d, n)
            if mode == "seq"
            else comb_sdp.build_parallel_sdp(d, n)
        )
    return comb_sdp.build_full_sdp(d, n, mode.removeprefix("full-"))


def cmd_solve(args) -> int:
    config = SolverConfig(
        feasibility_tol=args.tol_feas,
        gap_tol=args.tol_gap,
        max_iterations=args.max_iterations,
    )
    start = time.perf_counter()
    try:
        problem = _build_problem(args.mode, args.d, args.n, args.svec_cap)
    except ValueError as exc:  # the full-space dimension cap
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    if problem is None:
        print(
            f"size cap: reduced instance (d={args.d}, n={args.n}) exceeds "
            f"svec cap {args.svec_cap}",
            file=sys.stderr,
        )
        return EXIT_SIZE_CAP
    solution = solve(problem, config)
    report = verify(problem, solution)
    wall = time.perf_counter() - start
    payload = {
        "command": "solve",
        "d": args.d,
        "n": args.n,
        "mode": args.mode,
        "optimal_fidelity": solution.objective_value,
        "gap": solution.gap,
        "residual": solution.primal_residual,
        "iterations": solution.iterations,
        "status": solution.status,
        "block_census": problem.block_dims,
        "verified_constraint_violation": report.max_constraint_violation,
        "verified_min_eigenvalue": min(report.block_min_eigenvalues),
    }
    if solution.status != "optimal":
        payload["reason"] = solution.reason
        print(f"solver {solution.status}: {solution.reason}", file=sys.stderr)
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.json:
        print(text)
    else:
        print(
            f"{args.mode} d={args.d} n={args.n}: optimum {solution.objective_value:.6f} "
            f"(status {solution.status}, gap {solution.gap:.2e}, residual {solution.primal_residual:.2e})"
        )
    if args.out:
        _write_artifacts(
            args.out,
            {"solve.json": text, "solution.json": solution.to_json(),
             "instance.json": problem.to_json()},
            {"command": "solve", "parameters": _manifest_parameters(args),
             "seed": 0, "wall_time": wall},
        )
    return EXIT_OK if solution.status == "optimal" else EXIT_SOLVER


def _format_table(mode: str, results: dict, d_range, n_range) -> str:
    lines = ["d," + ",".join(f"n={n}" for n in n_range)]
    for d in d_range:
        cells = []
        for n in n_range:
            r = results.get((mode, d, n))
            cells.append("SKIPPED" if r is None else f"{r['value']:.4f}")
        lines.append(f"{d}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_tables(args) -> int:
    config = SolverConfig(feasibility_tol=args.tol_feas, gap_tol=args.tol_gap)
    modes = args.modes
    refs = reference_tables.reference_cells()
    d_range = range(args.d_min, args.d_max + 1)
    n_range = range(args.n_min, args.n_max + 1)
    start = time.perf_counter()
    results: dict[tuple[str, int, int], dict] = {}
    breaches = 0
    failures = 0
    for mode in modes:
        for d in d_range:
            for n in n_range:
                problem = _build_problem(mode, d, n, args.svec_cap)
                if problem is None:
                    continue
                solution = solve(problem, config)
                entry = {
                    "value": solution.objective_value,
                    "gap": solution.gap,
                    "status": solution.status,
                }
                if solution.status != "optimal":
                    failures += 1
                    entry["reason"] = solution.reason
                    print(f"{mode} d={d} n={n}: solver {solution.status}: {solution.reason}", file=sys.stderr)
                ref = refs.get((mode, d, n))
                if ref is not None:
                    entry["reference"] = ref.value
                    entry["tolerance"] = ref.tolerance
                    entry["deviation"] = abs(solution.objective_value - ref.value)
                    if entry["deviation"] > ref.tolerance:
                        breaches += 1
                results[(mode, d, n)] = entry
    wall = time.perf_counter() - start
    if not results:
        print(f"size cap: every reduced instance exceeds svec cap {args.svec_cap}", file=sys.stderr)
        return EXIT_SIZE_CAP

    deviation_lines = ["mode,d,n,computed,reference,tolerance,deviation,status"]
    for (mode, d, n), entry in sorted(results.items()):
        if "reference" not in entry:
            continue
        ok = "ok" if entry["deviation"] <= entry["tolerance"] else "breach"
        deviation_lines.append(
            f"{mode},{d},{n},{entry['value']:.6f},{entry['reference']:.4f},"
            f"{entry['tolerance']:.0e},{entry['deviation']:.2e},{ok}"
        )
    files = {"deviations.csv": "\n".join(deviation_lines) + "\n"}
    for mode in modes:
        files[f"table_{mode}.csv"] = _format_table(mode, results, d_range, n_range)
    payload = {
        "command": "tables",
        "cells": {
            f"{mode}/d{d}/n{n}": entry for (mode, d, n), entry in sorted(results.items())
        },
        "breaches": breaches,
        "solver_failures": failures,
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.json:
        print(text)
    else:
        for mode in modes:
            print(f"[{mode}]")
            print(files[f"table_{mode}.csv"])
    if args.out:
        files["tables.json"] = text
        _write_artifacts(
            args.out,
            files,
            {"command": "tables", "parameters": _manifest_parameters(args),
             "seed": 0, "wall_time": wall},
        )
    if failures:
        return EXIT_SOLVER
    return EXIT_TOLERANCE if breaches else EXIT_OK


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _local_dim(text: str) -> int:
    if int(text) < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {text}")
    return int(text)


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _reduced_modes(text: str) -> list[str]:
    modes = [m.strip() for m in text.split(",") if m.strip()]
    if not modes or not set(modes) <= {"seq", "par"} or len(set(modes)) < len(modes):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of seq and par, each at most once, got {text!r}"
        )
    return modes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uinv",
        description="Exact qubit-unitary inversion simulation and comb-SDP tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the seven-qubit inversion circuit")
    sim.add_argument("--trials", type=_positive_int, default=100)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--mode", choices=("standard", "catalytic", "adversarial"), default="standard"
    )
    sim.add_argument("--json", action="store_true")
    sim.add_argument("--out", type=str, default=None)
    sim.set_defaults(func=cmd_simulate)

    slv = sub.add_parser("solve", help="assemble and solve one inversion SDP")
    slv.add_argument("--d", type=_local_dim, required=True)
    slv.add_argument("--n", type=_positive_int, required=True)
    slv.add_argument("--mode", choices=("seq", "par", "full-seq", "full-par"), default="seq")
    slv.add_argument("--tol-gap", type=_positive_float, default=1e-6)
    slv.add_argument("--tol-feas", type=_positive_float, default=1e-8)
    slv.add_argument("--max-iterations", type=_positive_int, default=200)
    slv.add_argument("--svec-cap", type=_positive_int, default=comb_sdp.REDUCED_SVEC_CAP)
    slv.add_argument("--json", action="store_true")
    slv.add_argument("--out", type=str, default=None)
    slv.set_defaults(func=cmd_solve)

    tab = sub.add_parser("tables", help="reproduce the fidelity tables")
    tab.add_argument("--d-min", type=_local_dim, default=2)
    tab.add_argument("--d-max", type=_local_dim, default=6)
    tab.add_argument("--n-min", type=_positive_int, default=1)
    tab.add_argument("--n-max", type=_positive_int, default=5)
    tab.add_argument("--modes", type=_reduced_modes, default="seq,par")
    tab.add_argument("--svec-cap", type=_positive_int, default=comb_sdp.REDUCED_SVEC_CAP)
    tab.add_argument("--tol-gap", type=_positive_float, default=1e-6)
    tab.add_argument("--tol-feas", type=_positive_float, default=1e-8)
    tab.add_argument("--json", action="store_true")
    tab.add_argument("--out", type=str, default=None)
    tab.set_defaults(func=cmd_tables)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tables":
        for name in ("d", "n"):
            low, high = getattr(args, f"{name}_min"), getattr(args, f"{name}_max")
            if low > high:
                parser.error(f"--{name}-min {low} exceeds --{name}-max {high}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
