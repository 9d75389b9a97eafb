import json

import numpy as np
import pytest
import scipy.sparse

from unitary_inversion.comb_sdp import build_sequential_sdp
from unitary_inversion.sdp import (
    SdpProblem,
    SolverConfig,
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
