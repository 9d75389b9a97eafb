import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from unitary_inversion.comb_sdp import build_full_sdp, build_parallel_sdp, build_sequential_sdp
from unitary_inversion.sdp import (
    SdpProblem,
    SolverConfig,
    _blas_threads,
    _openblas,
    _block_rows,
    _preprocess_rows,
    _schur_complement,
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
    # (2, 3) rather than (2, 2): its objective holds negative zeros
    problem = build_sequential_sdp(2, 3)
    rebuilt = SdpProblem.from_json(problem.to_json())
    assert_same_instance(rebuilt, problem)
    assert rebuilt.metadata == {"d": 2, "n": 3, "mode": "seq"}
    a = solve(problem)
    b = solve(rebuilt)
    assert abs(a.objective_value - b.objective_value) <= 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gap_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    # NaN fails every comparison, and an infinite tolerance accepts any iterate
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("feasibility_tol", "gap_tol"):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(**{name: bad})


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
    assert_same_instance(rebuilt, problem)


def assert_same_instance(rebuilt, problem):
    assert rebuilt.block_dims == problem.block_dims
    assert rebuilt.a.shape == problem.a.shape
    for key in ("indptr", "indices", "data"):
        assert getattr(rebuilt.a, key).dtype == getattr(problem.a, key).dtype
        assert getattr(rebuilt.a, key).tobytes() == getattr(problem.a, key).tobytes()
    assert rebuilt.rhs.tobytes() == problem.rhs.tobytes()
    for got, want in zip(rebuilt.objective, problem.objective, strict=True):
        assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def test_from_json_rejects_unknown_block():
    problem, _ = random_rows_problem()
    payload = json.loads(problem.to_json())
    a, objective = payload["a"], payload["objective"]
    svec = problem.a.shape[1]
    malformed = {
        # a column past the last svec coordinate names no block entry
        "column out of range": ("a", {**a, "indices": a["indices"][:-1] + [svec]}),
        "decreasing indptr": ("a", {**a, "indptr": [0, a["indptr"][2] + 1] + a["indptr"][2:]}),
        "indptr length": ("a", {**a, "indptr": a["indptr"][:-1]}),
        "entries past indptr": ("a", {**a, "indices": a["indices"] + [0], "data": a["data"] + [1.0]}),
        "nan data": ("a", {**a, "data": [math.nan] + a["data"][1:]}),
        "nan objective": ("objective", [[math.nan] + objective[0][1:]] + objective[1:]),
        "inf objective": ("objective", [objective[0][:-1] + [math.inf]] + objective[1:]),
        "float indices": ("a", {**a, "indices": [i + 0.5 for i in a["indices"]]}),
        "float indptr": ("a", {**a, "indptr": [float(i) for i in a["indptr"]]}),
        "objective triangle length": ("objective", [objective[0][:-1]] + objective[1:]),
        "objective of a smaller block": ("objective", [objective[0][:3]] + objective[1:]),
    }
    SdpProblem.from_json(json.dumps(payload))
    for key, value in malformed.values():
        with pytest.raises(ValueError):
            SdpProblem.from_json(json.dumps({**payload, key: value}))


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
    for value in (math.nan, math.inf, -math.inf):
        for entry in ((0, 0), (0, 1)):
            objective = good.copy()
            objective[entry] = objective[entry[::-1]] = value
            with pytest.raises(ValueError, match="finite"):
                SdpProblem.from_rows([2], [objective], [({0: good}, 1.0)])


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


def assert_same_row_space(problem):
    """Kept rows match the reference in number and consistency, are independent and span every row.

    Which of several rows of equal norm is kept is a rounding tie-break, so
    the kept indices themselves may differ from the reference.
    """
    kept, consistent = _preprocess_rows(problem.a, problem.rhs)
    ref_kept, ref_consistent = reference_preprocess(problem.a, problem.rhs)
    assert kept.size == ref_kept.size < problem.a.shape[0]
    assert consistent is ref_consistent is True
    rows = problem.a.toarray()
    basis = rows[kept]
    assert np.linalg.matrix_rank(basis) == kept.size
    _, _, vt = np.linalg.svd(basis, full_matrices=False)
    off_span = np.linalg.norm(rows - (rows @ vt.T) @ vt, axis=1)
    assert np.all(off_span <= 1e-10 * np.linalg.norm(rows, axis=1))


@pytest.mark.parametrize("build", [build_sequential_sdp, build_parallel_sdp])
@pytest.mark.parametrize("d", [2, 3])
def test_preprocess_rows_matches_reference(build, d):
    assert_same_row_space(build(d, 3))


@pytest.mark.parametrize("mode", ["seq", "par"])
@pytest.mark.parametrize("n", [1, 2])
def test_preprocess_rows_matches_reference_full_space(mode, n):
    assert_same_row_space(build_full_sdp(2, n, mode))


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


def diagonal_rows_problem(rows):
    """One 2x2 block per row group; each row is (block, diagonal coefficients, rhs)."""
    nblocks = 1 + max(b for b, _, _ in rows)
    return SdpProblem.from_rows(
        [2] * nblocks, [np.eye(2)] * nblocks, [({b: np.diag(diag)}, value) for b, diag, value in rows]
    )


def test_preprocess_rows_checks_every_component():
    # block 0 holds a consistent dependent row, block 1 an inconsistent one
    problem = diagonal_rows_problem([
        (0, [1.0, 0.0], 1.0), (0, [0.0, 1.0], 2.0), (0, [1.0, 1.0], 3.0),
        (1, [1.0, 0.0], 1.0), (1, [0.0, 1.0], 1.0), (1, [1.0, 1.0], 3.0),
    ])
    kept, consistent = _preprocess_rows(problem.a, problem.rhs)
    assert consistent is reference_preprocess(problem.a, problem.rhs)[1] is False
    assert kept.size == 4


def test_preprocess_rows_threshold_is_global():
    # a large component, a mid-scale one with a dependent row, and rows below
    # 1e-10 times the largest norm: a two-row component and a single row
    tiny = 1e-9
    problem = diagonal_rows_problem([
        (0, [1e3, 0.0], 5.0), (0, [0.0, 2e3], 1.0),
        (1, [1.0, 0.0], 1.0), (1, [0.0, 3.0], 2.0), (1, [2.0, 3.0], 4.0),
        (2, [tiny, 0.0], 0.0), (2, [tiny, tiny], 0.0),
        (3, [0.0, 2 * tiny], 0.0),
    ])
    kept, consistent = _preprocess_rows(problem.a, problem.rhs)
    ref_kept, ref_consistent = reference_preprocess(problem.a, problem.rhs)
    assert consistent is ref_consistent is True
    assert np.array_equal(kept, ref_kept)
    assert np.array_equal(kept, [0, 1, 3, 4])


@pytest.mark.parametrize("value, consistent", [(0.0, True), (1e-3, False)])
def test_preprocess_rows_rank_zero_component(value, consistent):
    # both rows of block 1 fall below the threshold set by block 0
    problem = diagonal_rows_problem([
        (0, [1e4, 0.0], 1.0),
        (1, [1e-9, 0.0], 0.0), (1, [1e-9, 1e-9], value),
    ])
    kept, flag = _preprocess_rows(problem.a, problem.rhs)
    ref_kept, ref_flag = reference_preprocess(problem.a, problem.rhs)
    assert flag is ref_flag is consistent
    assert np.array_equal(kept, ref_kept) and np.array_equal(kept, [0])


def test_preprocess_rows_factors_components_not_the_matrix(monkeypatch):
    problem = build_sequential_sdp(3, 4)
    real_qr = scipy.linalg.qr
    real_toarray = type(problem.a).toarray
    qr_shapes, dense_shapes = [], []

    def qr(mat, *args, **kwargs):
        qr_shapes.append(mat.shape)
        return real_qr(mat, *args, **kwargs)

    def toarray(mat, *args, **kwargs):
        dense_shapes.append(mat.shape)
        return real_toarray(mat, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", qr)
    monkeypatch.setattr(type(problem.a), "toarray", toarray)
    kept, consistent = _preprocess_rows(problem.a, problem.rhs)
    assert consistent and kept.size == 1043
    # QR inputs are transposed: one column per constraint row of a component
    assert qr_shapes and max(cols for _, cols in qr_shapes) <= 233
    assert dense_shapes and max(rows for rows, _ in dense_shapes) <= 233


def counting(monkeypatch, module, name):
    """Replace module.<name> by a wrapper that records (size, matrices, succeeded) per call.

    A call on a stack of shape (..., size, size) counts every matrix in it.
    """
    real = getattr(module, name)
    calls = []

    def wrapper(mat, *args, **kwargs):
        shape = np.shape(mat)
        try:
            out = real(mat, *args, **kwargs)
        except np.linalg.LinAlgError:
            calls.append((shape[-1], math.prod(shape[:-2]), False))
            raise
        calls.append((shape[-1], math.prod(shape[:-2]), True))
        return out

    monkeypatch.setattr(module, name, wrapper)
    return calls


def poisoned(mat):
    """A column-major copy of mat, as the Schur complement comes, with a huge strict upper triangle."""
    out = np.array(mat, dtype=float, order="F")
    out[np.triu_indices(out.shape[0], 1)] = 1e300
    return out


def test_schur_solver_paths(monkeypatch):
    # every path reads only the lower triangle: a poisoned strict upper
    # triangle gives the answers of the full symmetric matrix
    chol = counting(monkeypatch, scipy.linalg, "cho_factor")
    lstsq = counting(monkeypatch, np.linalg, "lstsq")
    rhs = np.array([1.0, 1.0])

    # positive definite: one factorization, in place, serves every solve
    big_m = np.array([[4.0, 1.0], [1.0, 3.0]])
    made = []

    def assemble():
        made.append(poisoned(big_m))
        return made[-1]

    solver = _schur_solver(assemble)
    for _ in range(2):
        assert np.abs(big_m @ solver(rhs) - rhs).max() <= 1e-14
    assert chol == [(2, 1, True)] and lstsq == []
    assert len(made) == 1 and np.abs(np.tril(made[0]) - np.linalg.cholesky(big_m)).max() <= 1e-15
    assert np.array_equal(solver(rhs), _schur_solver(big_m.copy)(rhs))

    # singular positive semidefinite: plain Cholesky fails, a jittered one succeeds
    chol.clear()
    big_m = np.ones((2, 2))
    sol = _schur_solver(lambda: poisoned(big_m))(rhs)
    assert chol[0] == (2, 1, False) and chol[-1] == (2, 1, True) and lstsq == []
    assert np.abs(big_m @ sol - rhs).max() <= 1e-8
    assert np.array_equal(sol, _schur_solver(big_m.copy)(rhs))

    # indefinite: all eight attempts fail and least squares takes over
    chol.clear()
    big_m = np.diag([1.0, -1.0])
    solver = _schur_solver(lambda: poisoned(big_m))
    assert chol == [(2, 1, False)] * 8 and lstsq == []
    assert np.array_equal(solver(rhs), [1.0, -1.0])
    assert lstsq == [(2, 1, True)]
    assert np.array_equal(_schur_solver(big_m.copy)(rhs), [1.0, -1.0])


def random_positive_definite(rng, size):
    mat = rng.standard_normal((size, size))
    return mat @ mat.T + size * np.eye(size)


def untouched_block_problem():
    rng = np.random.default_rng(8)
    dims = [3, 2, 4]
    rows = [({0: random_symmetric(rng, 3), 2: random_symmetric(rng, 4)}, 1.0)]
    rows += [({b: random_symmetric(rng, dims[b])}, 0.5) for b in (0, 2, 2)]
    problem = SdpProblem.from_rows(dims, [np.eye(s) for s in dims], rows)
    assert problem.a[:, _SvecIndexer(dims).spans[1]].nnz == 0
    return problem


@pytest.mark.parametrize(
    "build, split",
    [
        (lambda: build_sequential_sdp(2, 3), False),
        (lambda: build_parallel_sdp(3, 2), False),
        (lambda: build_full_sdp(2, 1, "seq"), False),
        (untouched_block_problem, False),
        (lambda: build_parallel_sdp(2, 4), True),
    ],
    ids=["seq-2-3", "par-3-2", "full-seq-2-1", "from-rows", "par-2-4"],
)
def test_schur_complement_matches_dense_definition(build, split):
    problem = build()
    kept = _preprocess_rows(problem.a, problem.rhs)[0]
    a = problem.a[kept]
    indexer = _SvecIndexer(problem.block_dims)
    block_rows = _block_rows(a, indexer)
    dims = problem.block_dims
    counts = [[p.shape[1] for p, *_ in batches] for batches in block_rows]
    if len(dims) == 1:
        # the trace row has one entry per diagonal element of the block
        assert max(counts[0]) == dims[0]
    # more than _SCHUR_CHUNK rows of one entry count in a block split into
    # batches, each contracted against the rows from its first onward
    assert any(len(ks) > len(set(ks)) for ks in counts) == split
    rng = np.random.default_rng(7)
    x = [random_positive_definite(rng, s) for s in dims]
    zinv = [random_positive_definite(rng, s) for s in dims]
    m = a.shape[0]
    # M_ij = sum_b vec(A_ib)^T (X_b kron Z_b^-1) vec(A_jb), vec row-major
    coeffs = [indexer.unpack(row.toarray().ravel()) for row in a]
    dense = np.zeros((m, m))
    for b, (xb, zb) in enumerate(zip(x, zinv)):
        vec_a = np.array([mats[b].ravel() for mats in coeffs]).reshape(m, -1)
        dense += vec_a @ np.kron(xb, zb) @ vec_a.T
    big_m = _schur_complement(block_rows, x, zinv, m)
    assert np.abs(np.tril(big_m - dense)).max() <= 1e-13 * np.abs(dense).max()
    assert not np.triu(big_m, 1).any()


def test_solve_factors_each_matrix_once_per_iteration(monkeypatch):
    problem = build_sequential_sdp(2, 3)
    m = _preprocess_rows(problem.a, problem.rhs)[0].size
    nblocks = len(problem.block_dims)
    nsizes = len(set(problem.block_dims))
    assert m not in problem.block_dims and nsizes < nblocks
    calls = counting(monkeypatch, np.linalg, "cholesky")
    schur_calls = counting(monkeypatch, scipy.linalg, "cho_factor")
    solution = solve(problem)
    assert solution.status == "optimal"
    schur = [(count, ok) for size, count, ok in schur_calls if size == m]
    blocks = [(count, ok) for size, count, ok in calls if size != m]
    assert len(schur) == len(schur_calls) and len(blocks) == len(calls)
    # the last iteration only checks convergence
    assert schur == [(1, True)] * (solution.iterations - 1)
    # X and Z once per block at the start and after each step, plus halving retries
    retries = sum(count for count, ok in blocks if not ok)
    assert sum(count for count, ok in blocks if ok) <= 2 * nblocks * solution.iterations + nblocks * retries
    # one stacked call per block size for X and for Z, plus halving retries
    failed_calls = sum(not ok for _, ok in blocks)
    assert len(blocks) <= 2 * nsizes * solution.iterations + nsizes * failed_calls


@pytest.mark.parametrize(
    "build, iterations",
    [
        (lambda: build_sequential_sdp(2, 3), 11),
        (lambda: build_sequential_sdp(3, 3), 12),
        (lambda: build_parallel_sdp(2, 4), 13),
        (lambda: build_parallel_sdp(4, 3), 13),
        (lambda: build_full_sdp(2, 2, "seq"), 13),
        (lambda: build_full_sdp(3, 1, "par"), 8),
    ],
    ids=["seq-2-3", "seq-3-3", "par-2-4", "par-4-3", "full-seq-2-2", "full-par-3-1"],
)
def test_trajectories_are_pinned(build, iterations):
    # a change to the solver's arithmetic may move values in the last bits,
    # but iteration counts move only for a reason recorded in CHANGES.md
    solution = solve(build())
    assert (solution.status, solution.iterations) == ("optimal", iterations)


def test_solve_is_independent_of_blas_threads():
    controls = _openblas()
    if not controls:
        pytest.skip("no OpenBLAS thread control found")
    # many blocks of several sizes, then one dense block; Schur complements this
    # large are where threaded Cholesky and matmul change bits
    for problem, kept_rows in ((build_parallel_sdp(2, 4), 315), (build_full_sdp(2, 2, "seq"), 421)):
        assert _preprocess_rows(problem.a, problem.rhs)[0].size == kept_rows
        broken = SdpProblem(problem.block_dims, [np.full_like(c, np.nan) for c in problem.objective],
                            problem.a, problem.rhs)
        results = []
        for threads in (2, 1):
            with _blas_threads(threads):
                solution = solve(problem)
                assert [get() for get, _ in controls] == [threads] * len(controls)
                with pytest.raises(ValueError, match="finite"):
                    solve(broken)
                assert [get() for get, _ in controls] == [threads] * len(controls)
            results.append((
                solution.objective_value.hex(),
                b"".join(block.tobytes() for block in solution.blocks),
                solution.dual.tobytes(),
            ))
        assert results[0] == results[1]
