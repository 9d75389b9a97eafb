"""One benchmark workload in one process: set up, run timed passes, check outputs.

    python3 perfbench/worker.py --workload table --seed 1 --seconds 10 \
        --trace 0 --t0-ns <time.monotonic_ns() before this process started>

``run.py`` starts this file once per workload run, so cold caches and peak
RSS are what one fresh process pays.  The last line of standard output is
one JSON object.  With ``--setup-only`` the process stops when it is ready.

Set-up is everything from process start until the first item can run:
interpreter start, package import, and on ``circuit`` building both
protocol circuits.  After that, the workload's fixed item list runs in
passes; another pass starts only while it is expected to end within
``--seconds``, and there is always at least one.

Only the package's public functions are called, always through their
module attribute, so that a traced run (``--trace 1``) can wrap them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer  # noqa: E402
from unitary_inversion import (  # noqa: E402
    comb_sdp,
    protocol,
    reference_tables,
    sdp,
    symmetric_group,
    tensor,
)

# ---------------------------------------------------------------------------
# Fixed item lists.  Written out rather than derived from the solver's size
# cap, so that raising the cap cannot change what a workload runs.
# ---------------------------------------------------------------------------

# Protocol runs in one circuit pass, by kind.  Mostly standard gate-path
# inversions; the other kinds keep every protocol entry point measured.
CIRCUIT_MIX = (
    ("standard", 800),  # run_inversion, gate-path circuit
    ("matrix", 80),  # run_inversion, matrix-path circuit
    ("catalytic", 50),  # run_catalytic with the honest catalyst
    ("adversarial", 50),  # run_catalytic with another unitary's catalyst
    ("transfer", 20),  # empirical_transfer_matrix
)

# The 32 cells that `uinv tables` solves at its default size cap.
TABLE_CELLS = (
    ("seq", 2, 1), ("seq", 2, 2), ("seq", 2, 3), ("seq", 2, 4),
    ("seq", 3, 1), ("seq", 3, 2), ("seq", 3, 3),
    ("seq", 4, 1), ("seq", 4, 2), ("seq", 4, 3),
    ("seq", 5, 1), ("seq", 5, 2), ("seq", 5, 3),
    ("seq", 6, 1), ("seq", 6, 2), ("seq", 6, 3),
    ("par", 2, 1), ("par", 2, 2), ("par", 2, 3), ("par", 2, 4),
    ("par", 3, 1), ("par", 3, 2), ("par", 3, 3),
    ("par", 4, 1), ("par", 4, 2), ("par", 4, 3),
    ("par", 5, 1), ("par", 5, 2), ("par", 5, 3),
    ("par", 6, 1), ("par", 6, 2), ("par", 6, 3),
)

# The smallest cell beyond the default cap: the solver in its large regime.
FRONTIER_CELLS = (("seq", 3, 4),)

# Full-space oracle programs, each compared with its reduced program.
ORACLE_PROGRAMS = (
    ("seq", 2, 1), ("par", 2, 1),
    ("seq", 2, 2), ("par", 2, 2),
    ("seq", 3, 1), ("par", 3, 1),
)
# Reduced solution sent through expand_comb and back through reduce_comb.
ROUNDTRIP_PROGRAM = ("seq", 2, 2)

# ---------------------------------------------------------------------------
# Correctness checks, made by the benchmark itself.
# ---------------------------------------------------------------------------

FIDELITY_BOUND = 1.0 - 1e-10
TRANSFER_MATRIX = np.array([[-1.0, -1.0], [1.0, -2.0]]) / math.sqrt(3.0)
TRANSFER_TOL = 1e-10
FEASIBILITY_TOL = 1e-8  # times max(1, |rhs|)
EIGENVALUE_TOL = 1e-8
GAP_TOL = 1e-6
ORACLE_AGREEMENT_TOL = 1e-5
ROUNDTRIP_TOL = 1e-10

REFERENCES = reference_tables.reference_cells()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# circuit
# ---------------------------------------------------------------------------


def circuit_setup() -> dict:
    return {
        "standard": protocol.build_protocol("gate"),
        "matrix": protocol.build_protocol("matrix"),
    }


def circuit_items(rng: np.random.Generator, mix=CIRCUIT_MIX) -> list[tuple]:
    """Seeded inputs for one pass, in seeded order, made before timing."""
    kinds = [kind for kind, count in mix for _ in range(count)]
    items = []
    for index in rng.permutation(len(kinds)):
        kind = kinds[index]
        u = tensor.haar_unitary(2, rng)
        phi = tensor.random_state((2,), rng)
        catalyst = None
        if kind == "catalytic":
            catalyst = protocol.honest_catalyst(u)
        elif kind == "adversarial":
            catalyst = protocol.honest_catalyst(tensor.haar_unitary(2, rng))
        items.append((kind, u, phi, catalyst))
    return items


def circuit_run(item: tuple, circuits: dict) -> tuple[bool, float]:
    """Run one item; returns (passed, figure of merit).

    The figure is the fidelity, except for ``transfer`` where it is the
    larger of the entrywise deviation from the exact matrix and the residual.
    Adversarial runs are counted but never fail.
    """
    kind, u, phi, catalyst = item
    if kind in ("standard", "matrix"):
        _, fidelity = protocol.run_inversion(u, phi, circuits[kind])
        return fidelity >= FIDELITY_BOUND, fidelity
    if kind == "transfer":
        g, residual = protocol.empirical_transfer_matrix(u, phi, circuits["standard"])
        deviation = max(float(np.abs(g - TRANSFER_MATRIX).max()), residual)
        return deviation <= TRANSFER_TOL, deviation
    _, catalyst_fid, target_fid = protocol.run_catalytic(u, phi, catalyst, circuits["standard"])
    fidelity = min(catalyst_fid, target_fid)
    return kind == "adversarial" or fidelity >= FIDELITY_BOUND, fidelity


def circuit_summary(items: list[tuple], outcomes: list[tuple[bool, float]], passes: int) -> dict:
    """Per kind: runs, failures and the worst figure of merit."""
    summary: dict[str, dict] = {}
    kinds = [item[0] for item in items] * passes
    for kind, (passed, figure) in zip(kinds, outcomes):
        entry = summary.setdefault(kind, {"count": 0, "failed": 0, "worst": None})
        entry["count"] += 1
        entry["failed"] += not passed
        if figure is not None:
            worse = max if kind == "transfer" else min
            entry["worst"] = figure if entry["worst"] is None else worse(entry["worst"], figure)
    for kind, entry in summary.items():
        entry["worst_is"] = "max_deviation" if kind == "transfer" else "min_fidelity"
    return summary


# ---------------------------------------------------------------------------
# table, frontier and oracle
# ---------------------------------------------------------------------------


def solve_program(space: str, mode: str, d: int, n: int) -> tuple[dict, object]:
    """Build, solve and verify one program; returns (record, solution).

    The record lists every check the solution failed under ``failed_checks``.
    ``verify`` reports the largest violation over all rows, so the
    feasibility check scales it by the largest right-hand side the program
    has: d^(n+1) for the reduced trace row, d^n for the full parallel
    program, 1 for the full sequential one.
    """
    start = time.perf_counter()
    if space == "full":
        problem = comb_sdp.build_full_sdp(d, n, mode)
        dim = d ** (2 * n + 2)
        svec = dim * (dim + 1) // 2
        rhs_scale = 1.0 if mode == "seq" else float(d**n)
    else:
        builder = comb_sdp.build_sequential_sdp if mode == "seq" else comb_sdp.build_parallel_sdp
        problem = builder(d, n)
        svec = comb_sdp.reduced_svec_size(d, n)
        rhs_scale = float(d ** (n + 1))
    built = time.perf_counter()
    solution = sdp.solve(problem, sdp.SolverConfig())
    solved = time.perf_counter()
    report = sdp.verify(problem, solution)
    verified = time.perf_counter()

    reference = REFERENCES[(mode, d, n)]
    deviation = abs(solution.objective_value - reference.value)
    min_eigenvalue = min(report.block_min_eigenvalues)
    checks = {
        "optimal": solution.status == "optimal",
        "reference": deviation <= reference.tolerance,
        "feasible": report.max_constraint_violation <= FEASIBILITY_TOL * max(1.0, rhs_scale),
        "psd": min_eigenvalue >= -EIGENVALUE_TOL,
        "gap": report.gap is not None and report.gap <= GAP_TOL,
    }
    record = {
        "space": space,
        "mode": mode,
        "d": d,
        "n": n,
        "svec": svec,
        "iterations": solution.iterations,
        "status": solution.status,
        "build_s": built - start,
        "solve_s": solved - built,
        "verify_s": verified - solved,
        "value": solution.objective_value,
        "reference_deviation": deviation,
        "violation": report.max_constraint_violation,
        "min_eigenvalue": min_eigenvalue,
        "gap": report.gap,
        "failed_checks": [name for name, ok in checks.items() if not ok],
    }
    return record, solution


def cell_run(cell: tuple[str, int, int]) -> tuple[bool, list[dict]]:
    record, _ = solve_program("reduced", *cell)
    return not record["failed_checks"], [record]


class OracleRunner:
    """Full-space programs against reduced ones, then one reduce/expand round trip.

    The round trip reuses the reduced solution of ``ROUNDTRIP_PROGRAM``
    from the same pass, so it always runs last.
    """

    def __init__(self) -> None:
        self._reduced_solutions: dict[tuple, object] = {}

    def __call__(self, item) -> tuple[bool, list[dict]]:
        if item == "roundtrip":
            return self._roundtrip()
        full, _ = solve_program("full", *item)
        reduced, solution = solve_program("reduced", *item)
        self._reduced_solutions[item] = solution
        agreement = abs(full["value"] - reduced["value"])
        full["reduced_agreement"] = agreement
        if agreement > ORACLE_AGREEMENT_TOL:
            full["failed_checks"].append("agreement")
        ok = not full["failed_checks"] and not reduced["failed_checks"]
        return ok, [full, reduced]

    def _roundtrip(self) -> tuple[bool, list[dict]]:
        mode, d, n = ROUNDTRIP_PROGRAM
        solution = self._reduced_solutions.pop(ROUNDTRIP_PROGRAM)
        comb = comb_sdp.solution_blocks_to_comb(d, n, solution.blocks)
        back = comb_sdp.reduce_comb(comb_sdp.expand_comb(comb), d, n)
        deviation = max(
            float(np.abs(back.blocks[key] - block).max()) for key, block in comb.blocks.items()
        )
        ok = deviation <= ROUNDTRIP_TOL
        record = {"space": "roundtrip", "mode": mode, "d": d, "n": n,
                  "deviation": deviation, "failed_checks": [] if ok else ["roundtrip"]}
        return ok, [record]


def sdp_items(rng: np.random.Generator, cells) -> list:
    return [cells[i] for i in rng.permutation(len(cells))]


def oracle_items(rng: np.random.Generator, programs=ORACLE_PROGRAMS) -> list:
    return sdp_items(rng, programs) + ["roundtrip"]


# ---------------------------------------------------------------------------
# Tracing: which public functions are wrapped, where their callers find them.
# ---------------------------------------------------------------------------

# (module, attribute, span name).  A function imported into another module
# is wrapped there too, because that is the name its callers resolve.
TRACED = (
    (protocol, "build_protocol", "protocol.build_protocol"),
    (protocol, "run_inversion", "protocol.run_inversion"),
    (protocol, "run_catalytic", "protocol.run_catalytic"),
    (protocol, "empirical_transfer_matrix", "protocol.empirical_transfer_matrix"),
    (protocol, "apply_to_subsystems", "tensor.apply_to_subsystems"),
    (protocol, "reduced_density_matrix", "tensor.reduced_density_matrix"),
    (protocol, "embed_operator", "tensor.embed_operator"),
    (tensor, "apply_to_subsystems", "tensor.apply_to_subsystems"),
    (tensor, "reduced_density_matrix", "tensor.reduced_density_matrix"),
    (tensor, "embed_operator", "tensor.embed_operator"),
    (tensor, "partial_trace", "tensor.partial_trace"),
    (comb_sdp, "permutation_matrix", "symmetric_group.permutation_matrix"),
    (comb_sdp, "matrix_unit", "symmetric_group.matrix_unit"),
    (symmetric_group, "permutation_matrix", "symmetric_group.permutation_matrix"),
    (symmetric_group, "matrix_unit", "symmetric_group.matrix_unit"),
    (comb_sdp, "build_sequential_sdp", "comb_sdp.build_sequential_sdp"),
    (comb_sdp, "build_parallel_sdp", "comb_sdp.build_parallel_sdp"),
    (comb_sdp, "build_full_sdp", "comb_sdp.build_full_sdp"),
    (comb_sdp, "performance_blocks", "comb_sdp.performance_blocks"),
    (comb_sdp, "full_performance_operator", "comb_sdp.full_performance_operator"),
    (comb_sdp, "reduce_comb", "comb_sdp.reduce_comb"),
    (comb_sdp, "expand_comb", "comb_sdp.expand_comb"),
    (sdp, "verify", "sdp.verify"),
)

# Spans whose numbers become per-layer metrics, and which numbers.
SPAN_METRICS = {
    "tensor.apply_to_subsystems": ("calls", "busy_s"),
    "tensor.reduced_density_matrix": ("busy_s",),
    "tensor.embed_operator": ("calls", "busy_s"),
    "tensor.partial_trace": ("busy_s",),
    "symmetric_group.embedding_matrix": ("calls", "busy_s"),
    "symmetric_group.permutation_matrix": ("busy_s",),
    "symmetric_group.matrix_unit": ("calls", "busy_s"),
    "protocol.build_protocol": ("busy_s",),
    "protocol.run_inversion": ("busy_s", "self_s"),
    "protocol.run_catalytic": ("busy_s",),
    "protocol.empirical_transfer_matrix": ("busy_s",),
    "comb_sdp.build_sequential_sdp": ("busy_s", "self_s"),
    "comb_sdp.build_parallel_sdp": ("busy_s", "self_s"),
    "comb_sdp.performance_blocks": ("busy_s",),
    "comb_sdp.build_full_sdp": ("busy_s", "self_s"),
    "comb_sdp.full_performance_operator": ("busy_s",),
    "comb_sdp.reduce_comb": ("busy_s",),
    "comb_sdp.expand_comb": ("busy_s",),
    "sdp.solve": ("busy_s",),
    "sdp.verify": ("busy_s",),
}


class LayerCounters:
    """Counters that spans alone cannot give, gathered by wrapping callees."""

    def __init__(self) -> None:
        self.embedding_pairs: set = set()
        self.iterations = 0
        self.not_optimal = 0
        self.rss_rise_mb = 0.0

    def embedding_matrix(self, original):
        def counted(parent, child):
            self.embedding_pairs.add((parent, child))
            return original(parent, child)

        return counted

    def solve(self, original):
        def counted(problem, config=None):
            before = _peak_rss_mb()
            solution = original(problem, config)
            self.rss_rise_mb += _peak_rss_mb() - before
            self.iterations += solution.iterations
            self.not_optimal += solution.status != "optimal"
            return solution

        return counted


def install_tracer(tracer: Tracer, counters: LayerCounters) -> None:
    for module, attr, name in TRACED:
        tracer.patch(module, attr, name)
    for module in (comb_sdp, symmetric_group):
        tracer.patch(module, "embedding_matrix", "symmetric_group.embedding_matrix",
                     counters.embedding_matrix)
    tracer.patch(sdp, "solve", "sdp.solve", counters.solve)


def layer_metrics(tracer: Tracer, counters: LayerCounters, timed_ns: int,
                  tableau_cache: tuple[int, int], svec: int) -> dict:
    """Per-layer metrics of a traced run, except the overhead (see run.py)."""
    layers: dict[str, float] = {}
    for span, fields in SPAN_METRICS.items():
        for field in fields:
            if field == "calls":
                layers[f"{span}.calls"] = tracer.calls.get(span, 0)
            elif field == "busy_s":
                layers[f"{span}.busy_s"] = tracer.busy_ns.get(span, 0) / 1e9
            else:
                layers[f"{span}.self_s"] = tracer.self_ns.get(span, 0) / 1e9
    embedding_calls = tracer.calls.get("symmetric_group.embedding_matrix", 0)
    layers["symmetric_group.embedding_matrix.distinct_frac"] = (
        len(counters.embedding_pairs) / embedding_calls if embedding_calls else 0.0
    )
    hits, misses = tableau_cache
    layers["symmetric_group.standard_tableaux.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    layers["comb_sdp.svec"] = svec
    layers["sdp.solve.iterations"] = counters.iterations
    solve_s = tracer.busy_ns.get("sdp.solve", 0) / 1e9
    layers["sdp.solve.s_per_iter"] = solve_s / counters.iterations if counters.iterations else 0.0
    layers["sdp.solve.rss_rise_mb"] = counters.rss_rise_mb
    layers["sdp.solve.not_optimal"] = counters.not_optimal
    layers["trace.uncovered_frac"] = 1.0 - tracer.covered_ns / timed_ns
    return layers


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def setup(workload: str):
    """The library-side work a workload needs before its first item."""
    return circuit_setup() if workload == "circuit" else None


def plan(workload: str, rng: np.random.Generator, state, small: bool = False):
    """Inputs for one pass; returns (items, run_item, summarize).

    ``state`` is what :func:`setup` returned.  ``small`` swaps in short item
    lists of the same kinds, for tests.
    """
    if workload == "circuit":
        circuits = state
        mix = tuple((kind, 2) for kind, _ in CIRCUIT_MIX) if small else CIRCUIT_MIX
        items = circuit_items(rng, mix)
        return (items, lambda item: circuit_run(item, circuits),
                lambda outcomes, passes: {"modes": circuit_summary(items, outcomes, passes)})
    if workload == "oracle":
        programs = (("par", 2, 1), ROUNDTRIP_PROGRAM) if small else ORACLE_PROGRAMS
        return oracle_items(rng, programs), OracleRunner(), _sdp_summary
    cells = {"table": TABLE_CELLS, "frontier": FRONTIER_CELLS}[workload]
    if small:
        cells = (("seq", 2, 2), ("par", 2, 2)) if workload == "table" else (("seq", 3, 2),)
    return sdp_items(rng, cells), cell_run, _sdp_summary


def _sdp_summary(outcomes, passes) -> dict:
    return {"records": [r for _, records in outcomes if records for r in records]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 t0_ns: int | None = None, small: bool = False) -> dict:
    """Set up and run one workload in this process; returns the result object."""
    tracer = counters = None
    if trace:
        tracer, counters = Tracer(), LayerCounters()
        install_tracer(tracer, counters)
    try:
        state = setup(workload)
        ready_ns = time.monotonic_ns()
        rng = np.random.default_rng(seed)
        items, run_item, summarize = plan(workload, rng, state, small)
        result = _run_passes(items, run_item, seconds, tracer, workload == "circuit")
    finally:
        if tracer is not None:
            tracer.restore()
    result.update(summarize(result.pop("outcomes"), result["passes"]))
    result["setup_s"] = (ready_ns - t0_ns) / 1e9 if t0_ns is not None else None
    timed_ns, tableau_cache = result.pop("timed_ns"), result.pop("tableau_cache")
    if trace:
        svec = sum(r["svec"] for r in result.get("records", ()) if r["space"] == "reduced")
        result["layers"] = layer_metrics(tracer, counters, timed_ns, tableau_cache, svec)
    result["workload"] = workload
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def _run_passes(items: list, run_item, seconds: float, tracer: Tracer | None,
                trial_per_item: bool) -> dict:
    """Run passes over ``items`` for about ``seconds``; time items and passes.

    A trial is one item when ``trial_per_item``, else one whole pass.  On
    the SDP workloads items differ in size by orders of magnitude, and a
    percentile over them jumps between cells from run to run; their per-item
    times are kept in the records instead.
    """
    cache_before = symmetric_group.standard_tableaux.cache_info()
    if tracer is not None:
        tracer.covered_ns = 0
    latencies_ns: list[int] = []
    outcomes: list = []
    pass_walls: list[float] = []
    errors: list[str] = []
    failed = 0
    start = time.perf_counter_ns()
    while True:
        pass_start = time.perf_counter_ns()
        for item in items:
            t = time.perf_counter_ns()
            try:
                outcome = run_item(item)
            except Exception as exc:  # one failing item must not hide the others
                errors.append(f"{item!r}: {exc!r}")
                outcome = (False, None)
            latencies_ns.append(time.perf_counter_ns() - t)
            failed += not outcome[0]
            outcomes.append(outcome)
        now = time.perf_counter_ns()
        pass_walls.append((now - pass_start) / 1e9)
        if (now - start) / 1e9 + pass_walls[-1] > seconds:
            break
    timed_ns = time.perf_counter_ns() - start
    cache_after = symmetric_group.standard_tableaux.cache_info()
    trials_ms = np.array(latencies_ns) / 1e6 if trial_per_item else np.array(pass_walls) * 1e3
    p50, p99 = np.percentile(trials_ms, [50, 99])
    return {
        "passes": len(pass_walls),
        "items_per_pass": len(items),
        "trials_per_pass": len(items) if trial_per_item else 1,
        "pass_walls_s": pass_walls,
        "wall_s": float(np.median(pass_walls)),
        "attempted": len(latencies_ns),
        "failed": failed,
        "errors": errors,
        "trial_ms": {"p50": float(p50), "p99": float(p99), "samples": len(trials_ms)},
        "outcomes": outcomes,
        "timed_ns": timed_ns,
        "tableau_cache": (cache_after.hits - cache_before.hits,
                          cache_after.misses - cache_before.misses),
    }


def environment() -> dict:
    """Library versions and the BLAS threading the run used (read, never set)."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("circuit", "table", "frontier", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup(args.workload)
        result = {"setup_s": (time.monotonic_ns() - args.t0_ns) / 1e9}
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.t0_ns)
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
