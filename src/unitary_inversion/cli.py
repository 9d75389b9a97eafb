"""Command-line entry point: simulation runs, single SDP solves, table sweeps.

Exit codes are a stable contract: 0 success, 2 tolerance breach, 3 size
cap, 4 solver failure.  Every command with a fixed seed emits
byte-reproducible JSON payloads; wall time and artifact digests go to a
separate run manifest when an output directory is given.  A command
returns an `_Outcome` (or exit 3 alone, at a size cap) for `_emit` to print and write.

Only ``solve`` and ``tables`` import the SDP modules, and with them scipy;
``simulate`` runs on numpy alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import protocol, reference_tables
from .tensor import haar_unitary, random_state

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_SIZE_CAP = 3
EXIT_SOLVER = 4

EXACTNESS_BOUND = 1.0 - 1e-10
# the default --svec-cap: reduced programs with more svec coordinates are skipped
REDUCED_SVEC_CAP = 2000


class _Outcome(NamedTuple):
    payload: dict
    summary: str  # printed in place of the payload without --json
    files: dict[str, str]  # --out artifacts besides <command>.json
    seed: int
    code: int


def _emit(args, start: float, outcome: _Outcome) -> int:
    """Print the payload or summary; under --out write every artifact and the manifest."""
    text = json.dumps(outcome.payload, sort_keys=True, indent=2)
    print(text if args.json else outcome.summary)
    if args.out:
        files = {f"{args.command}.json": text, **outcome.files}
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, body in files.items():
            (out / name).write_text(body)
        manifest = {
            "command": args.command,
            "parameters": {k: v for k, v in vars(args).items() if k not in ("func", "out")},
            "seed": outcome.seed,
            "wall_time": time.perf_counter() - start,
            "artifact_hashes": {n: hashlib.sha256(b.encode()).hexdigest() for n, b in files.items()},
        }
        (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
    return outcome.code


def cmd_simulate(args) -> _Outcome:
    rng = np.random.default_rng(args.seed)
    circuit = protocol.build_protocol()
    records, values = [], []
    for _ in range(args.trials):
        u = haar_unitary(2, rng)
        phi = random_state((2,), rng)
        if args.mode == "standard":
            _, fid = protocol.run_inversion(u, phi, circuit)
            records.append({"fidelity": fid})
            values.append(fid)
        else:
            catalyst = protocol.honest_catalyst(u if args.mode == "catalytic" else haar_unitary(2, rng))
            _, cat_fid, target_fid = protocol.run_catalytic(u, phi, catalyst, circuit)
            records.append({"catalyst_fidelity": cat_fid, "target_fidelity": target_fid})
            values.append(min(cat_fid, target_fid))
    low, mean = min(values), sum(values) / len(values)
    payload = {
        "command": "simulate",
        "mode": args.mode,
        "trials": args.trials,
        "seed": args.seed,
        "per_trial": records,
        "summary": {
            "min_fidelity": low,
            "mean_fidelity": mean,
        },
    }
    summary = f"{args.mode}: trials={args.trials} min={low:.12f} mean={mean:.12f}"
    exact = args.mode == "adversarial" or low >= EXACTNESS_BOUND
    return _Outcome(payload, summary, {}, args.seed, EXIT_OK if exact else EXIT_TOLERANCE)


def _build_problem(mode: str, d: int, n: int, svec_cap: int):
    """The program of one cell, or the reason it exceeds its size cap."""
    from . import comb_sdp

    if mode.startswith("full-"):
        try:
            return comb_sdp.build_full_sdp(d, n, mode.removeprefix("full-"))
        except comb_sdp.SizeCapError as exc:
            return str(exc)
    if comb_sdp.reduced_svec_size(d, n) > svec_cap:
        return f"reduced instance (d={d}, n={n}) exceeds svec cap {svec_cap}"
    return (comb_sdp.build_sequential_sdp if mode == "seq" else comb_sdp.build_parallel_sdp)(d, n)


def _solve(problem, config, label: str = ""):
    """Solve one program; a solve that does not end optimal gets one stderr line."""
    from . import sdp

    solution = sdp.solve(problem, config)
    if solution.status != "optimal":
        print(f"{label}solver {solution.status}: {solution.reason}", file=sys.stderr)
    return solution


def cmd_solve(args) -> _Outcome | int:
    from . import sdp

    problem = _build_problem(args.mode, args.d, args.n, args.svec_cap)
    if isinstance(problem, str):
        print(f"size cap: {problem}", file=sys.stderr)
        return EXIT_SIZE_CAP
    config = sdp.SolverConfig(
        feasibility_tol=args.tol_feas, gap_tol=args.tol_gap, max_iterations=args.max_iterations
    )
    solution = _solve(problem, config)
    report = sdp.verify(problem, solution)
    # a failed solve's objective is an iterate's value, not the optimal fidelity
    optimal = solution.status == "optimal"
    payload = {
        "command": "solve",
        "d": args.d,
        "n": args.n,
        "mode": args.mode,
        "optimal_fidelity" if optimal else "objective": solution.objective_value,
        "gap": solution.gap,
        "residual": solution.primal_residual,
        "iterations": solution.iterations,
        "status": solution.status,
        "block_census": problem.block_dims,
        "verified_constraint_violation": report.max_constraint_violation,
        "verified_min_eigenvalue": min(report.block_min_eigenvalues),
    }
    if not optimal:
        payload["reason"] = solution.reason
    summary = (
        f"{args.mode} d={args.d} n={args.n}: {'optimum' if optimal else 'objective'} "
        f"{solution.objective_value:.6f} "
        f"(status {solution.status}, gap {solution.gap:.2e}, residual {solution.primal_residual:.2e})"
    )
    files = {"solution.json": solution.to_json(), "instance.json": problem.to_json()}
    return _Outcome(payload, summary, files, 0, EXIT_OK if optimal else EXIT_SOLVER)


class _Cell(NamedTuple):
    """A solved table cell, classified once: a failed cell still breaches on its deviation."""

    entry: dict
    failed: bool
    breach: bool


def _mark(cell: _Cell | None) -> str:
    if cell is None:
        return "SKIPPED"
    return "FAILED" if cell.failed else f"{cell.entry['value']:.4f}"


def cmd_tables(args) -> _Outcome | int:
    from . import sdp

    config = sdp.SolverConfig(feasibility_tol=args.tol_feas, gap_tol=args.tol_gap)
    refs = reference_tables.reference_cells()
    d_range = range(args.d_min, args.d_max + 1)
    n_range = range(args.n_min, args.n_max + 1)
    cells: dict[tuple[str, int, int], _Cell] = {}
    for mode in args.modes:
        for d in d_range:
            for n in n_range:
                problem = _build_problem(mode, d, n, args.svec_cap)
                if isinstance(problem, str):
                    continue
                solution = _solve(problem, config, f"{mode} d={d} n={n}: ")
                failed = solution.status != "optimal"
                entry = {
                    "value": solution.objective_value,
                    "gap": solution.gap,
                    "status": solution.status,
                }
                if failed:
                    entry["reason"] = solution.reason
                ref = refs.get((mode, d, n))
                if ref is not None:
                    entry["reference"] = ref.value
                    entry["tolerance"] = ref.tolerance
                    entry["deviation"] = abs(solution.objective_value - ref.value)
                breach = ref is not None and entry["deviation"] > ref.tolerance
                cells[(mode, d, n)] = _Cell(entry, failed, breach)
    if not cells:
        print(f"size cap: every reduced instance exceeds svec cap {args.svec_cap}", file=sys.stderr)
        return EXIT_SIZE_CAP
    deviation_lines = ["mode,d,n,computed,reference,tolerance,deviation,status"]
    for (mode, d, n), (entry, failed, breach) in sorted(cells.items()):
        if "reference" in entry:
            status = entry["status"] if failed else "breach" if breach else "ok"
            deviation_lines.append(
                f"{mode},{d},{n},{entry['value']:.6f},{entry['reference']:.4f},"
                f"{entry['tolerance']:.0e},{entry['deviation']:.2e},{status}"
            )
    files = {"deviations.csv": "\n".join(deviation_lines) + "\n"}
    header = "d," + ",".join(f"n={n}" for n in n_range)
    for mode in args.modes:
        rows = [f"{d}," + ",".join(_mark(cells.get((mode, d, n))) for n in n_range) for d in d_range]
        files[f"table_{mode}.csv"] = "\n".join([header, *rows]) + "\n"
    payload = {
        "command": "tables",
        "cells": {f"{mode}/d{d}/n{n}": cell.entry for (mode, d, n), cell in sorted(cells.items())},
        "breaches": sum(cell.breach for cell in cells.values()),
        "solver_failures": sum(cell.failed for cell in cells.values()),
    }
    summary = "\n".join(f"[{mode}]\n{files[f'table_{mode}.csv']}" for mode in args.modes)
    code = EXIT_TOLERANCE if payload["breaches"] else EXIT_OK
    return _Outcome(payload, summary, files, 0, EXIT_SOLVER if payload["solver_failures"] else code)


def _int_at_least(low: int):
    """Argument type for integers >= ``low``; every rejection is an ``ArgumentTypeError``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _out_dir(text: str) -> str:
    """Argument type for --out: a directory, or a path that can be made one."""
    path = Path(text)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        where = "is" if existing == path else "lies under"
        raise argparse.ArgumentTypeError(f"{where} an existing file, not a directory")
    return text


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
    sim.add_argument("--trials", type=_int_at_least(1), default=100)
    sim.add_argument("--seed", type=_int_at_least(0), default=0)
    sim.add_argument("--mode", choices=("standard", "catalytic", "adversarial"), default="standard")

    slv = sub.add_parser("solve", help="assemble and solve one inversion SDP")
    slv.add_argument("--d", type=_int_at_least(2), required=True)
    slv.add_argument("--n", type=_int_at_least(1), required=True)
    slv.add_argument("--mode", choices=("seq", "par", "full-seq", "full-par"), default="seq")
    slv.add_argument("--tol-gap", type=_positive_float, default=1e-6)
    slv.add_argument("--tol-feas", type=_positive_float, default=1e-8)
    slv.add_argument("--max-iterations", type=_int_at_least(1), default=200)
    # no default here, so that main can tell a given cap from the default one
    slv.add_argument("--svec-cap", type=_int_at_least(1), default=None,
                     help="seq and par only: full programs have a fixed cap")

    tab = sub.add_parser("tables", help="reproduce the fidelity tables")
    tab.add_argument("--d-min", type=_int_at_least(2), default=2)
    tab.add_argument("--d-max", type=_int_at_least(2), default=6)
    tab.add_argument("--n-min", type=_int_at_least(1), default=1)
    tab.add_argument("--n-max", type=_int_at_least(1), default=5)
    tab.add_argument("--modes", type=_reduced_modes, default="seq,par")
    tab.add_argument("--svec-cap", type=_int_at_least(1), default=REDUCED_SVEC_CAP)
    tab.add_argument("--tol-gap", type=_positive_float, default=1e-6)
    tab.add_argument("--tol-feas", type=_positive_float, default=1e-8)

    for command, func in ((sim, cmd_simulate), (slv, cmd_solve), (tab, cmd_tables)):
        command.add_argument("--json", action="store_true")
        command.add_argument("--out", type=_out_dir, default=None)
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tables":
        for name in ("d", "n"):
            low, high = getattr(args, f"{name}_min"), getattr(args, f"{name}_max")
            if low > high:
                parser.error(f"--{name}-min {low} exceeds --{name}-max {high}")
    if args.command == "solve":
        if args.mode.startswith("full-") and args.svec_cap is not None:
            from .comb_sdp import FULL_SPACE_DIM_CAP

            parser.error(
                f"--svec-cap applies to seq and par only; full programs have the fixed "
                f"{FULL_SPACE_DIM_CAP}-dimension cap"
            )
        if args.svec_cap is None:
            args.svec_cap = REDUCED_SVEC_CAP
    start = time.perf_counter()
    outcome = args.func(args)
    return outcome if isinstance(outcome, int) else _emit(args, start, outcome)


if __name__ == "__main__":
    sys.exit(main())
