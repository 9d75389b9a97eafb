import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from unitary_inversion.comb_sdp import build_parallel_sdp, build_sequential_sdp
from unitary_inversion.sdp import (
    SdpProblem,
    SolverConfig,
    _preprocess_rows,
    _schur_solver,
    _SvecIndexer,
    solve,
    verify,
)

TIGHT = SolverConfig(gap_tol=1e-11, feasibility_tol=1e-11, max_iterations=300)


def scalar_problem():
    return SdpProblem.from_rows(
        [1], [np.array([[1.0]])], [({0: np.array([[1.0]])}, 1.0)]
    )


def test_scalar_problem():
    solution = solve(scalar_problem())
    assert solution.status == "optimal"
    assert abs(solution.objective_value - 1.0) <= 1e-6
    assert solution.gap <= 1e-6
    assert solution.primal_residual <= 1e-8


def test_linear_program_as_diagonal_sdp():
    # max x + y subject to x + y = 1 on the diagonal of a 2x2 block
    problem = SdpProblem.from_rows(
        [2],
        [np.eye(2)],
        [
            ({0: np.eye(2)}, 1.0),
            ({0: np.array([[0.0, 0.5], [0.5, 0.0]])}, 0.0),
        ],
    )
    solution = solve(problem)
    assert solution.status == "optimal"
    assert abs(solution.objective_value - 1.0) <= 1e-6


def test_largest_eigenvalue_closed_form():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    cost = (a + a.T) / 2
    problem = SdpProblem.from_rows([6], [cost], [({0: np.eye(6)}, 1.0)])
    solution = solve(problem, TIGHT)
    assert solution.status == "optimal"
    assert abs(solution.objective_value - np.linalg.eigvalsh(cost)[-1]) <= 1e-9


def test_comb_instance_reference_value():
    problem = build_sequential_sdp(2, 2)
    solution = solve(problem)
    assert solution.status == "optimal"
    assert abs(solution.objective_value - 0.7500) <= 1e-4


def test_determinism():
    problem = build_sequential_sdp(2, 2)
    a = solve(problem)
    b = solve(problem)
    assert a.status == b.status
    assert a.objective_value == b.objective_value
    assert a.iterations == b.iterations


def test_scaling_covariance():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5))
    cost = (a + a.T) / 2
    base = SdpProblem.from_rows([5], [cost], [({0: np.eye(5)}, 1.0)])
    scaled = SdpProblem.from_rows([5], [10.0 * cost], [({0: np.eye(5)}, 1.0)])
    v1 = solve(base, TIGHT).objective_value
    v10 = solve(scaled, TIGHT).objective_value
    assert abs(v10 - 10.0 * v1) <= 1e-8


def test_duplicated_rows_do_not_change_optimum():
    problem = build_sequential_sdp(2, 1)
    doubled = SdpProblem(
        problem.block_dims,
        problem.objective,
        scipy.sparse.vstack([problem.a, problem.a]).tocsr(),
        np.concatenate([problem.rhs, problem.rhs]),
        problem.metadata,
    )
    a = solve(problem)
    b = solve(doubled)
    assert abs(a.objective_value - b.objective_value) <= 1e-9


def test_infeasible_detected_by_preprocessing():
    problem = SdpProblem.from_rows(
        [1],
        [np.array([[1.0]])],
        [
            ({0: np.array([[1.0]])}, 1.0),
            ({0: np.array([[1.0]])}, 2.0),
        ],
    )
    assert solve(problem).status == "infeasible_detected"


def test_inconsistent_combination_detected():
    # rows x=1, y=1, x+y=3 are pairwise distinct but jointly inconsistent
    e1 = np.diag([1.0, 0.0])
    e2 = np.diag([0.0, 1.0])
    problem = SdpProblem.from_rows(
        [2],
        [np.eye(2)],
        [
            ({0: e1}, 1.0),
            ({0: e2}, 1.0),
            ({0: e1 + e2}, 3.0),
        ],
    )
    assert solve(problem).status == "infeasible_detected"


def test_rejects_unsymmetric_and_complex_data():
    with pytest.raises(ValueError):
        SdpProblem.from_rows(
            [2], [np.array([[0.0, 1.0], [0.0, 0.0]])], []
        )
    with pytest.raises(ValueError):
        SdpProblem.from_rows(
            [2], [np.eye(2) * (1 + 1j)], []
        )


def test_verify_matches_solver_bookkeeping():
    problem = build_sequential_sdp(2, 2)
    solution = solve(problem)
    report = verify(problem, solution)
    assert report.max_constraint_violation <= 1e-8
    assert min(report.block_min_eigenvalues) >= -1e-9
    assert abs(report.objective - solution.objective_value) <= 1e-10
    assert abs(report.gap - solution.gap) <= 1e-8


def test_verify_flags_corrupted_block():
    problem = build_sequential_sdp(2, 1)
    solution = solve(problem)
    corrupted = [b.copy() for b in solution.blocks]
    corrupted[0][0, 0] += 1e-3
    solution.blocks = corrupted
    report = verify(problem, solution)
    assert report.max_constraint_violation > 1e-4


def test_mu_history_monotone_tail():
    problem = build_sequential_sdp(2, 2)
    solution = solve(problem)
    tail = solution.mu_history[5:]
    assert all(b <= a * 1.01 for a, b in zip(tail, tail[1:]))


def test_solution_json_fields():
    solution = solve(scalar_problem())
    payload = json.loads(solution.to_json())
    assert set(payload) == {
        "objective",
        "gap",
        "residual",
        "iterations",
        "status",
        "block_eigenvalue_minima",
    }


def test_problem_json_roundtrip():
    problem = build_sequential_sdp(2, 2)
    rebuilt = SdpProblem.from_json(problem.to_json())
    assert rebuilt.block_dims == problem.block_dims
    assert rebuilt.metadata["mode"] == "seq"
    assert rebuilt.a.shape[0] == problem.a.shape[0]
    a = solve(problem)
    b = solve(rebuilt)
    assert abs(a.objective_value - b.objective_value) <= 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gap_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


def random_symmetric(rng, size):
    mat = rng.standard_normal((size, size))
    return (mat + mat.T) / 2


def random_rows_problem():
    rng = np.random.default_rng(5)
    dims = [3, 1, 4]
    rows = []
    for blocks in ({0}, {1, 2}, {0, 1, 2}, {2}, set()):
        coeffs = {b: random_symmetric(rng, dims[b]) for b in sorted(blocks)}
        rows.append((coeffs, float(rng.standard_normal())))
    objective = [random_symmetric(rng, s) for s in dims]
    return SdpProblem.from_rows(dims, objective, rows), rows


def test_constraint_matrix_matches_dense_definition():
    problem, rows = random_rows_problem()
    assert problem.a.shape == (len(rows), _SvecIndexer(problem.block_dims).total)
    rng = np.random.default_rng(6)
    for _ in range(3):
        x = [random_symmetric(rng, s) for s in problem.block_dims]
        applied = problem.a @ _SvecIndexer(problem.block_dims).pack(x)
        dense = [sum(float(np.sum(m * x[b])) for b, m in coeffs.items()) for coeffs, _ in rows]
        assert np.abs(applied - dense).max() <= 1e-12
    assert np.array_equal(problem.rhs, [rhs for _, rhs in rows])


def test_constraint_matrix_json_roundtrip():
    problem, _ = random_rows_problem()
    rebuilt = SdpProblem.from_json(problem.to_json())
    assert rebuilt.a.shape == problem.a.shape
    assert np.abs((rebuilt.a - problem.a).toarray()).max() <= 1e-15
    assert np.abs(rebuilt.rhs - problem.rhs).max() <= 1e-15


def test_from_json_rejects_unknown_block():
    problem, _ = random_rows_problem()
    payload = json.loads(problem.to_json())
    payload["constraints"][0]["blocks"][0]["index"] = 7
    with pytest.raises(ValueError):
        SdpProblem.from_json(json.dumps(payload))


def test_from_rows_rejects_bad_rows():
    good = np.eye(2)
    bad_rows = [
        [({2: good}, 1.0)],
        [({0: good}, float("nan"))],
        [({0: np.array([[0.0, 1.0], [0.0, 0.0]])}, 1.0)],
        [({0: good * 1j}, 1.0)],
        [({0: np.eye(3)}, 1.0)],
    ]
    for rows in bad_rows:
        with pytest.raises(ValueError):
            SdpProblem.from_rows([2], [good], rows)


def reference_preprocess(a, rhs):
    """Row preprocessing as first written: economic pivoted QR, then lstsq on the rows."""
    a = a.toarray()
    seen, order = {}, []
    for i in range(a.shape[0]):
        key = a[i].tobytes()
        if key in seen:
            if abs(rhs[i] - rhs[seen[key]]) > 1e-12 * max(1.0, abs(rhs[seen[key]])):
                return np.array(order, dtype=int), False
        else:
            seen[key] = i
            order.append(i)
    a, rhs = a[order], rhs[order]
    nonzero = np.linalg.norm(a, axis=1) > 1e-10
    if np.any(np.abs(rhs[~nonzero]) > 1e-12):
        return np.array(order, dtype=int), False
    a, rhs = a[nonzero], rhs[nonzero]
    kept = np.array(order, dtype=int)[nonzero]
    _, r, piv = scipy.linalg.qr(a.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > 1e-10 * max(diag[0], 1e-300)))
    keep, drop = np.sort(piv[:rank]), np.sort(piv[rank:])
    if drop.size:
        coeffs, *_ = np.linalg.lstsq(a[keep].T, a[drop].T, rcond=None)
        scale = max(1.0, float(np.abs(rhs).max()))
        if np.abs(coeffs.T @ rhs[keep] - rhs[drop]).max() > 1e-8 * scale:
            return kept[keep], False
    return kept[keep], True


@pytest.mark.parametrize("build", [build_sequential_sdp, build_parallel_sdp])
@pytest.mark.parametrize("d", [2, 3])
def test_preprocess_rows_matches_reference(build, d):
    problem = build(d, 3)
    kept, consistent = _preprocess_rows(problem.a, problem.rhs)
    ref_kept, ref_consistent = reference_preprocess(problem.a, problem.rhs)
    assert np.array_equal(kept, ref_kept)
    assert consistent is ref_consistent is True
    assert kept.size < problem.a.shape[0]


@pytest.mark.parametrize("offset, consistent", [(1e-6, False), (1e-12, True)])
def test_preprocess_rows_checks_dropped_combination(offset, consistent):
    rng = np.random.default_rng(7)
    basis = [random_symmetric(rng, 3) for _ in range(3)]
    values = [3.0, -2.0, 5.0]
    weights = [2.5, -0.7, 1.3]
    combo = sum(w * m for w, m in zip(weights, basis))
    combo_rhs = float(np.dot(weights, values))
    scale = max(1.0, abs(combo_rhs), *map(abs, values))
    rows = [({0: m}, v) for m, v in zip(basis, values)]
    rows.append(({0: combo}, combo_rhs + offset * scale))
    problem = SdpProblem.from_rows([3], [np.eye(3)], rows)
    kept, flag = _preprocess_rows(problem.a, problem.rhs)
    ref_kept, ref_flag = reference_preprocess(problem.a, problem.rhs)
    assert flag is ref_flag is consistent
    assert kept.size == 3 and np.array_equal(kept, ref_kept)


def counting(monkeypatch, name):
    """Replace np.linalg.<name> by a wrapper that records (rows, succeeded) per call."""
    real = getattr(np.linalg, name)
    calls = []

    def wrapper(mat, *args, **kwargs):
        try:
            out = real(mat, *args, **kwargs)
        except np.linalg.LinAlgError:
            calls.append((np.shape(mat)[0], False))
            raise
        calls.append((np.shape(mat)[0], True))
        return out

    monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


def test_schur_solver_paths(monkeypatch):
    chol = counting(monkeypatch, "cholesky")
    lstsq = counting(monkeypatch, "lstsq")
    rhs = np.array([1.0, 1.0])

    # positive definite: one factorization serves every solve
    big_m = np.array([[4.0, 1.0], [1.0, 3.0]])
    solver = _schur_solver(big_m)
    for _ in range(2):
        assert np.abs(big_m @ solver(rhs) - rhs).max() <= 1e-14
    assert chol == [(2, True)] and lstsq == []

    # singular positive semidefinite: plain Cholesky fails, a jittered one succeeds
    chol.clear()
    big_m = np.ones((2, 2))
    sol = _schur_solver(big_m)(rhs)
    assert chol[0] == (2, False) and chol[-1] == (2, True) and lstsq == []
    assert np.abs(big_m @ sol - rhs).max() <= 1e-8

    # indefinite: all eight attempts fail and least squares takes over
    chol.clear()
    big_m = np.diag([1.0, -1.0])
    solver = _schur_solver(big_m)
    assert chol == [(2, False)] * 8 and lstsq == []
    assert np.array_equal(solver(rhs), [1.0, -1.0])
    assert lstsq == [(2, True)]


def test_solve_factors_each_matrix_once_per_iteration(monkeypatch):
    problem = build_sequential_sdp(2, 3)
    m = _preprocess_rows(problem.a, problem.rhs)[0].size
    nblocks = len(problem.block_dims)
    assert m not in problem.block_dims
    calls = counting(monkeypatch, "cholesky")
    solution = solve(problem)
    assert solution.status == "optimal"
    schur = [ok for rows, ok in calls if rows == m]
    blocks = [ok for rows, ok in calls if rows != m]
    # the last iteration only checks convergence
    assert schur == [True] * (solution.iterations - 1)
    # X and Z once per block at the start and after each step, plus halving retries
    retries = blocks.count(False)
    assert blocks.count(True) <= 2 * nblocks * solution.iterations + nblocks * retries
