"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one machine-greppable pass/fail line.  The table cells and
oracle instances are solved once per session and shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from unitary_inversion import comb_sdp as cs
from unitary_inversion import protocol as pr
from unitary_inversion.sdp import _SvecIndexer, solve
from unitary_inversion.symmetric_group import (
    matrix_unit,
    su_dim,
    tableau_count,
    young_diagrams,
)
from unitary_inversion.tensor import haar_unitary, random_state

from test_symmetric_group import branching_deviation, partial_trace_deviation

EXACT = 1 - 1e-10

SEQ_CELLS = {
    (2, 1): 0.5000, (2, 2): 0.7500, (2, 3): 0.9330, (2, 4): 1.0000,
    (3, 1): 0.2222, (3, 2): 0.3333, (3, 3): 0.4444,
    (4, 1): 0.1250, (4, 2): 0.1875,
    (5, 1): 0.0800, (5, 2): 0.1200,
    (6, 1): 0.0556, (6, 2): 0.0833,
}
PAR_CELLS = {
    (2, 1): 0.5000, (2, 2): 0.6545, (2, 3): 0.7500, (2, 4): 0.8117,
    (3, 1): 0.2222, (3, 2): 0.3333, (3, 3): 0.4310,
    (4, 1): 0.1250, (4, 2): 0.1875,
    (5, 1): 0.0800, (5, 2): 0.1200,
    (6, 1): 0.0556, (6, 2): 0.0833,
}

# iterations of each solve above; a change that moves one says why in CHANGES.md
ITERATIONS = {
    **{("seq",) + cell: count for cell, count in {
        (2, 1): 7, (2, 2): 12, (2, 3): 10, (2, 4): 19,
        (3, 1): 7, (3, 2): 9, (3, 3): 12,
        (4, 1): 7, (4, 2): 9,
        (5, 1): 8, (5, 2): 9,
        (6, 1): 8, (6, 2): 9,
    }.items()},
    **{("par",) + cell: count for cell, count in {
        (2, 1): 7, (2, 2): 8, (2, 3): 10, (2, 4): 12,
        (3, 1): 7, (3, 2): 9, (3, 3): 11,
        (4, 1): 7, (4, 2): 9,
        (5, 1): 8, (5, 2): 9,
        (6, 1): 8, (6, 2): 9,
    }.items()},
    ("full-seq", 2, 1): 7, ("full-seq", 2, 2): 14, ("full-seq", 3, 1): 7,
    ("full-par", 2, 1): 7, ("full-par", 2, 2): 7, ("full-par", 3, 1): 7,
}


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def table_results():
    results = {}
    for (d, n) in SEQ_CELLS:
        solution = solve(cs.build_sequential_sdp(d, n))
        results[("seq", d, n)] = solution
    for (d, n) in PAR_CELLS:
        solution = solve(cs.build_parallel_sdp(d, n))
        results[("par", d, n)] = solution
    return results


@pytest.fixture(scope="module")
def oracle_results():
    results = {}
    for d, n in ((2, 1), (2, 2), (3, 1)):
        for mode in ("seq", "par"):
            full = solve(cs.build_full_sdp(d, n, mode))
            reduced = solve(
                cs.build_sequential_sdp(d, n)
                if mode == "seq"
                else cs.build_parallel_sdp(d, n)
            )
            results[(mode, d, n)] = (full, reduced)
    return results


def test_criterion_1_exact_inversion():
    circuit = pr.build_protocol()
    rng = np.random.default_rng(20240501)
    start = time.perf_counter()
    worst = 1.0
    for _ in range(100):
        u = haar_unitary(2, rng)
        phi = random_state((2,), rng)
        state, fidelity = pr.run_inversion(u, phi, circuit)
        worst = min(worst, fidelity, pr.ancilla_restoration(state))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (exact inversion)",
        worst >= EXACT and elapsed <= 10.0,
        f"min fidelity {worst:.3e} over 100 trials in {elapsed:.2f}s",
    )


def test_criterion_2_catalyst_property():
    circuit = pr.build_protocol()
    rng = np.random.default_rng(20240502)
    worst = 1.0
    for _ in range(50):
        u = haar_unitary(2, rng)
        phi = random_state((2,), rng)
        _, cat_fid, target_fid = pr.run_catalytic(
            u, phi, pr.honest_catalyst(u), circuit
        )
        worst = min(worst, cat_fid, target_fid)
    erasure = 0.0
    for _ in range(10):
        u = haar_unitary(2, rng)
        regenerated = np.kron(np.eye(2), u) @ np.kron(u, np.eye(2)) @ pr.SINGLET
        erasure = max(erasure, float(np.abs(regenerated - pr.SINGLET).max()))
    report(
        "criterion 2 (catalyst property)",
        worst >= EXACT and erasure <= 1e-12,
        f"min fidelity {worst:.3e} over 50 trials, erasure deviation {erasure:.3e}",
    )


def test_criterion_3_transfer_matrix():
    circuit = pr.build_protocol()
    expected = np.array([[-1.0, -1.0], [1.0, -2.0]]) / math.sqrt(3.0)
    rng = np.random.default_rng(20240503)
    worst = 0.0
    for _ in range(20):
        u = haar_unitary(2, rng)
        phi = random_state((2,), rng)
        g, residual = pr.empirical_transfer_matrix(u, phi, circuit)
        worst = max(worst, float(np.abs(g - expected).max()), residual)
    report(
        "criterion 3 (transfer matrix)",
        worst <= 1e-10,
        f"max entrywise deviation {worst:.3e} over 20 pairs",
    )


def test_criterion_4_sequential_table(table_results):
    worst_cell, worst_dev = None, 0.0
    for (d, n), reference in SEQ_CELLS.items():
        solution = table_results[("seq", d, n)]
        assert solution.status == "optimal", f"seq d={d} n={n}: {solution.status}"
        deviation = abs(solution.objective_value - reference)
        if deviation > worst_dev:
            worst_cell, worst_dev = (d, n), deviation
        assert deviation <= 1e-4, f"seq d={d} n={n}: {deviation:.2e} > 1e-4"
    report(
        "criterion 4 (sequential table)",
        True,
        f"{len(SEQ_CELLS)} cells, worst deviation {worst_dev:.2e} at {worst_cell}",
    )


def test_criterion_5_parallel_table(table_results):
    worst_dev = 0.0
    for (d, n), reference in PAR_CELLS.items():
        solution = table_results[("par", d, n)]
        assert solution.status == "optimal", f"par d={d} n={n}: {solution.status}"
        deviation = abs(solution.objective_value - reference)
        worst_dev = max(worst_dev, deviation)
        assert deviation <= 1e-4, f"par d={d} n={n}: {deviation:.2e} > 1e-4"
    report(
        "criterion 5 (parallel table)",
        True,
        f"{len(PAR_CELLS)} cells, worst deviation {worst_dev:.2e}",
    )


def test_criterion_6_oracle_equivalence(oracle_results):
    worst = 0.0
    for (mode, d, n), (full, reduced) in oracle_results.items():
        assert (full.status, reduced.status) == ("optimal", "optimal"), (mode, d, n)
        worst = max(worst, abs(full.objective_value - reduced.objective_value))
        assert abs(full.objective_value - reduced.objective_value) <= 1e-5, (mode, d, n)
    report(
        "criterion 6 (oracle equivalence)",
        True,
        f"6 instances, worst |full - reduced| {worst:.2e}",
    )


def test_criterion_7_representation_suite():
    worst = 0.0
    # unit realness, trace, product rule for up to 4 boxes at d <= 3
    for d in (2, 3):
        for boxes in (2, 3, 4):
            for mu in young_diagrams(boxes, d):
                dim = tableau_count(mu)
                units = {
                    (i, j): matrix_unit(mu, d)[i, j]
                    for i in range(dim)
                    for j in range(dim)
                }
                for (i, j), e in units.items():
                    worst = max(worst, float(np.abs(e.imag).max()))
                    target = su_dim(mu, d) if i == j else 0.0
                    worst = max(worst, abs(float(np.trace(e).real) - target))
                for (i, j), e1 in units.items():
                    for (k, l), e2 in units.items():
                        expected = units[(i, l)] if j == k else 0.0
                        worst = max(worst, float(np.abs(e1 @ e2 - expected).max()))
    # branching for up to 3+1 boxes, and the last-factor partial trace for up to 4
    for d in (2, 3):
        worst = max(worst, *(branching_deviation(d, boxes) for boxes in (1, 2, 3)))
        worst = max(worst, *(partial_trace_deviation(d, boxes) for boxes in (2, 3, 4)))
    dims_exact = all(
        sum(tableau_count(m) * su_dim(m, d) for m in young_diagrams(n, d)) == d**n
        for d in range(2, 5)
        for n in range(1, 7)
    )
    report(
        "criterion 7 (representation suite)",
        worst <= 1e-10 and dims_exact,
        f"worst lemma deviation {worst:.3e}, dimension identity exact: {dims_exact}",
    )


def test_criterion_8_structural_cross_checks(table_results):
    seq = {k[1:]: v.objective_value for k, v in table_results.items() if k[0] == "seq"}
    par = {k[1:]: v.objective_value for k, v in table_results.items() if k[0] == "par"}
    dominance = all(seq[cell] >= par[cell] - 1e-6 for cell in par)
    by_d = {}
    for (d, n), value in seq.items():
        by_d.setdefault(d, []).append((n, value))
    monotone = True
    for d, cells in by_d.items():
        cells.sort()
        for (n1, v1), (n2, v2) in zip(cells, cells[1:]):
            monotone = monotone and v2 >= v1 - 1e-6
    coincide = all(
        abs(seq[cell] - par[cell]) <= 1e-5
        for cell in par
        if cell[1] <= cell[0] - 1
    )
    pattern = all(
        abs(value - (n + 1) / d**2) <= 1e-5
        for (d, n), value in seq.items()
        if d >= n + 1
    )
    report(
        "criterion 8 (structural cross-checks)",
        dominance and monotone and coincide and pattern,
        f"dominance {dominance}, monotone {monotone}, "
        f"coincidence(n<=d-1) {coincide}, pattern {pattern}",
    )


def test_criterion_9_iteration_counts(table_results, oracle_results):
    found = {key: solution.iterations for key, solution in table_results.items()}
    for (mode, d, n), (full, reduced) in oracle_results.items():
        found[(f"full-{mode}", d, n)] = full.iterations
        assert reduced.iterations == found[(mode, d, n)], (mode, d, n)
    moved = {key: (ITERATIONS.get(key), count) for key, count in found.items() if ITERATIONS.get(key) != count}
    report(
        "criterion 9 (iteration counts)",
        found.keys() == ITERATIONS.keys() and not moved,
        f"{len(found)} programs in {sum(found.values())} iterations, moved (pinned, found): {moved or 'none'}",
    )


def test_criterion_10_parallel_combs_are_sequential(table_results):
    # both builders lay out the same blocks, so a parallel comb is a point
    # of the sequential program; a sequential optimum breaks the parallel rows
    cells = sorted(SEQ_CELLS.keys() & PAR_CELLS.keys())
    worst_in_seq, least_in_par, same_objective = 0.0, (math.inf, None), True
    for d, n in cells:
        seq, par = cs.build_sequential_sdp(d, n), cs.build_parallel_sdp(d, n)
        assert seq.block_dims == par.block_dims, (d, n)
        same_objective &= all(np.array_equal(s, p) for s, p in zip(seq.objective, par.objective))
        indexer, scale = _SvecIndexer(seq.block_dims), d ** (n + 1)
        x_seq, x_par = (
            indexer.pack([(b + b.T) / 2.0 for b in table_results[(mode, d, n)].blocks]) for mode in ("seq", "par")
        )
        worst_in_seq = max(worst_in_seq, float(np.abs(seq.a @ x_par - seq.rhs).max()) / scale)
        if n >= 2:
            least_in_par = min(least_in_par, (float(np.abs(par.a @ x_seq - par.rhs).max()) / scale, (d, n)))
    report(
        "criterion 10 (par within seq)",
        worst_in_seq <= 1e-12 and least_in_par[0] >= 1e-5 and same_objective,
        f"{len(cells)} cells, worst par-in-seq residual "
        f"{worst_in_seq:.1e} d^(n+1), least seq-in-par violation (n >= 2) {least_in_par[0]:.1e} d^(n+1) "
        f"at {least_in_par[1]}, objectives identical: {same_objective}",
    )
