"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one machine-greppable pass/fail line.  The table cells and
oracle instances are solved once per session and shared across criteria.
"""

import itertools
import math
import time

import numpy as np
import pytest

from unitary_inversion import comb_sdp as cs
from unitary_inversion import protocol as pr
from unitary_inversion.reference_tables import reference_cells
from unitary_inversion.sdp import _SvecIndexer, solve
from unitary_inversion.symmetric_group import (
    children,
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


def estimation_fidelity(d: int, n: int) -> float:
    """F_est(d, n) = sigma_max(B)^2 / d^2 of covariant estimate-and-prepare.

    B[nu, lambda] = 1 when nu, with n+1 boxes, is lambda, with n boxes, plus
    one box, both with at most d rows (Chiribella, D'Ariano & Sacchi, PRA 72,
    042338 (2005)).
    """
    rows = {nu: i for i, nu in enumerate(young_diagrams(n + 1, d))}
    shapes = young_diagrams(n, d)
    grow = np.zeros((len(rows), len(shapes)))
    for j, lam in enumerate(shapes):
        grow[[rows[nu] for nu in children(lam, max_depth=d)], j] = 1.0
    return float(np.linalg.norm(grow, 2)) ** 2 / d**2


def test_criterion_11_estimation_bounds_the_parallel_column(table_results):
    # estimating U from n parallel calls and preparing the inverse of the
    # estimate is a parallel comb, so F_est <= par is proved; that par equals
    # F_est on every solved cell is observed, not proved
    below, above = [], []  # F_est - value and b.y - F_est per cell
    for d, n in PAR_CELLS:
        solution = table_results[("par", d, n)]
        bound = float(cs.build_parallel_sdp(d, n).rhs @ solution.dual)
        estimate = estimation_fidelity(d, n)
        below.append(estimate - solution.objective_value)
        above.append(bound - estimate)
    inside = min(below) >= -1e-6 and min(above) >= -1e-9
    # at d=2, B is a path and F_est = cos^2(pi/(n+3))
    path = max(abs(estimation_fidelity(2, n) - math.cos(math.pi / (n + 3)) ** 2) for n in range(1, 7))
    refs = reference_cells()
    predictions = ", ".join(
        f"({d},5) {estimation_fidelity(d, 5):.7f} vs {refs[('par', d, 5)].value:.4f}" for d in range(3, 7)
    )
    report(
        "criterion 11 (estimation bounds par)",
        inside and path <= 1e-12,
        f"{len(PAR_CELLS)} cells, F_est - value in [{min(below):.1e}, {max(below):.1e}], "
        f"b.y - F_est in [{min(above):.1e}, {max(above):.1e}], "
        f"d=2 path deviation {path:.1e}; par n=5 predictions {predictions}",
    )


def binary_icosahedral() -> np.ndarray:
    """The 120 unit quaternions (a, b, c, d) of the binary icosahedral group, from the exact golden ratio.

    The 8 units +-e_i, the 16 points (+-1/2, +-1/2, +-1/2, +-1/2), and the
    96 even permutations of (+-phi, +-1, +-1/phi, 0)/2.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    points = [sign * row for row in np.eye(4) for sign in (1.0, -1.0)]
    points += [np.array(signs) / 2.0 for signs in itertools.product((1.0, -1.0), repeat=4)]
    even = [
        perm for perm in itertools.permutations(range(4))
        if sum(perm[i] > perm[j] for i, j in itertools.combinations(range(4), 2)) % 2 == 0
    ]
    for signs in itertools.product((1.0, -1.0), repeat=3):
        base = np.array([signs[0] * phi, signs[1], signs[2] / phi, 0.0]) / 2.0
        points += [base[list(perm)] for perm in even]
    return np.array(points)


def test_criterion_12_exactness_on_a_design():
    # E(U) = sum over phi in {|0>, |1>} of |Out(U) - Exp(U)|^2 is a polynomial of
    # degree <= 8 in U's quaternion coordinates, and the 120 points are a
    # spherical 11-design, so their average is E's exact Haar integral; a zero
    # integral of a nonnegative continuous E proves E = 0 for every U in SU(2)
    quaternions = binary_icosahedral()
    a, b, c, d = quaternions.T
    unitaries = np.stack([a + 1j * b, c + 1j * d, -c + 1j * d, a - 1j * b], axis=1).reshape(-1, 2, 2)
    products = np.einsum("xij,yjk->xyik", unitaries, unitaries).reshape(-1, 4)
    # a product's first row [a + ib, c + id] gives back its quaternion (a, b, c, d)
    coordinates = np.stack([part(products[:, i]) for i in (0, 1) for part in (np.real, np.imag)], axis=1)
    nearest = (coordinates @ quaternions.T).argmax(axis=1)  # unit vectors: the largest overlap
    closure = float(np.abs(coordinates - quaternions[nearest]).max())
    moments = [float(np.mean((a * a + b * b) ** k)) for k in range(7)]
    moment_miss = max(abs(moments[k] - 1.0 / (k + 1)) for k in range(6))
    inputs = np.eye(2, dtype=complex)
    averages, elapsed = {}, 0.0
    for path in ("gate", "matrix"):
        circuit = pr.build_protocol(path)
        start = time.perf_counter()
        for run in ("inversion", "catalytic"):
            total = 0.0
            for u in unitaries:
                for phi in inputs:
                    if run == "inversion":
                        out, _ = pr.run_inversion(u, phi, circuit)
                    else:
                        out, _, _ = pr.run_catalytic(u, phi, pr.honest_catalyst(u), circuit)
                    total += float(np.linalg.norm(out - pr.expected_output(u, phi)) ** 2)
            averages[(path, run)] = total / len(unitaries)
        elapsed = max(elapsed, time.perf_counter() - start)
    worst = max(averages.values())
    report(
        "criterion 12 (exactness on a design)",
        len(quaternions) == 120 and closure <= 1e-12 and moment_miss <= 1e-14 and worst <= 1e-20
        and elapsed <= 1.0,
        f"{len(quaternions)} points closed to {closure:.1e}, moments k <= 5 within {moment_miss:.1e} "
        f"(k = 6: {moments[6]:.7f} vs 1/7), design average of E "
        + ", ".join(f"{path} {run} {value:.1e}" for (path, run), value in averages.items())
        + f", {elapsed:.3f}s per path",
    )
