import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from unitary_inversion import sdp
from unitary_inversion.comb_sdp import build_full_sdp, build_parallel_sdp, build_sequential_sdp
from unitary_inversion.sdp import (
    SdpProblem,
    SolverConfig,
    _blas_threads,
    _openblas,
    _SCHUR_CHUNK,
    _block_rows,
    _preprocess_rows,
    _schur_complement,
    _SvecIndexer,
    solve,
    verify,
)

TIGHT = SolverConfig(gap_tol=1e-11, feasibility_tol=1e-11, max_iterations=300)


def pack_rows(block_dims, objective, rows):
    """Problem from rows given as ({block index: symmetric coefficient}, rhs) pairs."""
    indexer = _SvecIndexer(list(block_dims))
    dense = np.zeros((len(rows), indexer.total))
    for row, (coeffs, _) in zip(dense, rows):
        row[:] = indexer.pack([coeffs.get(b, np.zeros((s, s))) for b, s in enumerate(block_dims)])
    rhs = np.array([value for _, value in rows], dtype=float)
    problem = SdpProblem(list(block_dims), list(objective), scipy.sparse.csr_matrix(dense), rhs)
    problem.validate()
    return problem


def scalar_problem():
    return pack_rows(
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
    problem = pack_rows(
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
    problem = pack_rows([6], [cost], [({0: np.eye(6)}, 1.0)])
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
    base = pack_rows([5], [cost], [({0: np.eye(5)}, 1.0)])
    scaled = pack_rows([5], [10.0 * cost], [({0: np.eye(5)}, 1.0)])
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
    # duplicated rows are dependent rows: the QR drops one and checks its
    # right-hand side against the other's to 1e-8 times the largest one
    for first, second in ((1.0, 2.0), (3.0, 3.0 * (1.0 + 1e-6))):
        problem = pack_rows(
            [1],
            [np.array([[1.0]])],
            [
                ({0: np.array([[1.0]])}, first),
                ({0: np.array([[1.0]])}, second),
            ],
        )
        solution = solve(problem)
        assert solution.status == "infeasible_detected"
        assert solution.reason == "preprocessing found inconsistent constraint rows"


def test_inconsistent_combination_detected():
    # rows x=1, y=1, x+y=3 are pairwise distinct but jointly inconsistent
    e1 = np.diag([1.0, 0.0])
    e2 = np.diag([0.0, 1.0])
    problem = pack_rows(
        [2],
        [np.eye(2)],
        [
            ({0: e1}, 1.0),
            ({0: e2}, 1.0),
            ({0: e1 + e2}, 3.0),
        ],
    )
    assert solve(problem).status == "infeasible_detected"


def diverging_problems():
    e00 = np.diag([1.0, 0.0])
    return {
        # max Tr X with no constraint at all
        "unconstrained": pack_rows([2], [np.eye(2)], []),
        # max X11 subject to X00 = 1: feasible, and unbounded
        "unbounded": pack_rows([2], [np.diag([0.0, 1.0])], [({0: e00}, 1.0)]),
        # X = -1 has no positive semidefinite solution
        "cone-infeasible": pack_rows([1], [np.zeros((1, 1))], [({0: np.eye(1)}, -1.0)]),
    }


@pytest.mark.parametrize("name", list(diverging_problems()))
def test_diverging_iterates_end_as_numerical_failure(name):
    # no overflow warning may escape before the solve stops
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = solve(diverging_problems()[name])
    assert solution.status == "numerical_failure"
    assert re.fullmatch(r"iterates diverge \(max \|X\| .+, max \|y\| .+, bound 1e\+12\) at iteration \d+",
                        solution.reason)
    assert solution.iterations < 10
    assert json.loads(solution.to_json())["reason"] == solution.reason


def reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def test_non_finite_iterate_ends_the_solve(monkeypatch):
    # Cholesky accepts a NaN block, so the divergence test must catch it,
    # and before the NaN iterate replaces the last finite one
    real = sdp._step_lengths
    calls = []

    def nan_step(*args):
        # each call steps X and Z; the fourth is the second iteration's corrector
        calls.append(None)
        ap, ad = real(*args)
        return (math.nan, ad) if len(calls) == 4 else (ap, ad)

    monkeypatch.setattr(sdp, "_step_lengths", nan_step)
    for n in (1, 2):
        calls.clear()
        problem = build_sequential_sdp(2, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve(problem)
        assert solution.status == "numerical_failure"
        assert re.fullmatch(r"iterates diverge \(max \|X\| nan, .+\) at iteration 2", solution.reason)
        assert solution.iterations == 2
        assert all(np.isfinite(block).all() for block in solution.blocks)
        assert np.isfinite(solution.dual).all()
        report = verify(problem, solution)
        assert all(math.isfinite(v) for v in report.block_min_eigenvalues)
        assert json.loads(solution.to_json(), parse_constant=reject_constant)["reason"] == solution.reason


def test_residual_on_original_rows_downgrades_optimal():
    # 2X = 2 + 1e-8 is within preprocessing's consistency tolerance of X = 1,
    # so one row is dropped; the kept one converges, leaving 5e-9 on the other
    one = np.array([[1.0]])
    problem = pack_rows([1], [one], [({0: one}, 1.0), ({0: 2 * one}, 2.0 + 1e-8)])
    assert solve(problem).status == "optimal"
    solution = solve(problem, SolverConfig(feasibility_tol=1e-9))
    assert solution.status == "numerical_failure"
    assert re.fullmatch(r"residual 5e-09 on the original rows exceeds 3e-09 at iteration \d+", solution.reason)


def unconstrained(objective):
    return SdpProblem([2], [objective], scipy.sparse.csr_matrix((0, 3)), np.zeros(0))


def test_rejects_unsymmetric_and_complex_data():
    with pytest.raises(ValueError, match="not symmetric"):
        unconstrained(np.array([[0.0, 1.0], [0.0, 0.0]])).validate()
    with pytest.raises(ValueError, match="real"):
        unconstrained(np.eye(2) * (1 + 1j)).validate()


def test_verify_matches_solver_bookkeeping():
    # seq (2,3) lists blocks of repeated sizes out of size order
    for problem in (build_sequential_sdp(2, 2), build_sequential_sdp(2, 3)):
        solution = solve(problem)
        report = verify(problem, solution)
        assert report.max_constraint_violation <= 1e-8
        assert min(report.block_min_eigenvalues) >= -1e-9
        assert abs(report.objective - solution.objective_value) <= 1e-10
        assert abs(report.gap - solution.gap) <= 1e-8
        # one batched eigvalsh per block size gives the per-block values, in block order
        assert report.block_min_eigenvalues == tuple(
            float(np.linalg.eigvalsh((b + b.T) / 2.0)[0]) for b in solution.blocks
        )
        aty = _SvecIndexer(problem.block_dims).unpack(problem.a.T @ solution.dual)
        slack = [zb - np.asarray(cost, dtype=float) for zb, cost in zip(aty, problem.objective)]
        assert report.dual_min_eigenvalue == min(
            float(np.linalg.eigvalsh((zb + zb.T) / 2.0)[0]) for zb in slack
        )
    assert problem.block_dims != sorted(problem.block_dims)


def test_verify_flags_corrupted_block():
    problem = build_sequential_sdp(2, 1)
    solution = solve(problem)
    corrupted = [b.copy() for b in solution.blocks]
    corrupted[0][0, 0] += 1e-3
    solution.blocks = corrupted
    report = verify(problem, solution)
    assert report.max_constraint_violation > 1e-4


def test_verify_rejects_a_dual_of_the_wrong_length():
    problem = build_sequential_sdp(2, 2)
    solution = solve(problem)
    report = verify(problem, solution)
    assert all(type(v) is float for v in (report.dual_objective, report.dual_min_eigenvalue, report.gap))
    full = solution.dual
    for dual in (full[:-1], np.append(full, 0.0), full[:, None], None):
        solution.dual = dual
        with pytest.raises(ValueError, match="dual of shape"):
            verify(problem, solution)


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
    # a non-integer count would only fail later, inside solve's range()
    for bad in (2.5, 3.0, "10", True, None):
        with pytest.raises(ValueError, match="integer"):
            SolverConfig(max_iterations=bad)
    assert SolverConfig(max_iterations=np.int64(7)).max_iterations == 7
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
    return pack_rows(dims, objective, rows), rows


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
    # indexers share each block size's triangle and scales, so none may write them
    first, second = _SvecIndexer([3, 1, 4]), _SvecIndexer([4, 3])
    assert first.index_pairs[0][0] is second.index_pairs[1][0] and first.scales[2] is second.scales[0]
    shared = [arr for pair in first.index_pairs for arr in pair] + first.scales
    assert not any(arr.flags.writeable for arr in shared)


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


def test_from_reads_sums_halves_then_scales():
    # reads (row, block, r, c, weight) over a 2x2 and a 3x3 block
    dims = [2, 3]
    reads = [
        (0, 1, 0, 1, 2.0), (0, 1, 1, 0, 3.0), (0, 0, 1, 1, -1.5),  # both orders of one entry
        (1, 0, 0, 1, 1.0), (1, 0, 1, 0, -1.0),  # cancels with rhs 0: dropped
        (2, 1, 2, 2, 0.5), (2, 1, 2, 2, -0.5),  # cancels with rhs 4: kept, empty
        # row 3 reads nothing with rhs 0 (dropped), row 4 nothing with rhs -1 (kept)
        (5, 1, 2, 0, 0.25), (5, 0, 0, 0, 4.0),
    ]
    rhs = [1.0, 0.0, 4.0, 0.0, -1.0, 2.0]
    columns = [np.array(v) for v in zip(*reads)]
    problem = SdpProblem.from_reads(dims, [np.eye(s) for s in dims], columns, rhs, {"d": 2})
    # each read is half on each side of the symmetric coefficient matrix,
    # which _SvecIndexer.pack scales by sqrt(2) off the diagonal
    expected = []
    for i in (0, 2, 4, 5):
        mats = [np.zeros((s, s)) for s in dims]
        for row, b, r, c, w in reads:
            if row == i:
                mats[b][r, c] += w / 2.0
                mats[b][c, r] += w / 2.0
        expected.append(_SvecIndexer(dims).pack(mats))
    assert problem.a.has_canonical_format
    assert np.array_equal(problem.a.toarray(), expected)
    assert problem.rhs.tolist() == [1.0, 4.0, -1.0, 2.0]
    assert problem.metadata == {"d": 2}
    # the kept empty rows are what lets preprocessing certify infeasibility
    assert solve(problem).status == "infeasible_detected"
    bad_entries = {
        "row past rhs": (0, 6), "negative row": (0, -1), "block past dims": (1, 2),
        "negative block": (1, -1), "r outside block": (2, 3), "negative c": (3, -1),
        "c outside block 0": (3, 2), "nan weight": (4, math.nan), "inf weight": (4, math.inf),
    }
    for field, value in bad_entries.values():
        bad = [v.copy() for v in columns]
        bad[field][-1] = value  # the last read is in block 0, a 2x2 block
        with pytest.raises(ValueError, match="every read"):
            SdpProblem.from_reads(dims, [np.eye(s) for s in dims], bad, rhs)
    with pytest.raises(ValueError, match="equal-length"):
        SdpProblem.from_reads(dims, [np.eye(s) for s in dims], columns[:4] + [columns[4][:-1]], rhs)
    with pytest.raises(TypeError):
        SdpProblem.from_reads(dims, [np.eye(s) for s in dims], [columns[0] + 0.5] + columns[1:], rhs)


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


def test_validate_rejects_bad_objective_and_rhs():
    good = np.eye(2)
    for value in (math.nan, math.inf, -math.inf):
        for entry in ((0, 0), (0, 1)):
            objective = good.copy()
            objective[entry] = objective[entry[::-1]] = value
            with pytest.raises(ValueError, match="finite"):
                unconstrained(objective).validate()
        problem = pack_rows([2], [good], [({0: good}, 1.0)])
        problem.rhs[0] = value
        with pytest.raises(ValueError, match="finite"):
            problem.validate()


def reference_preprocess(a, rhs):
    """Row preprocessing by its first algorithm: economic pivoted QR, then lstsq on the rows.

    A duplicated row is one more dependent row, judged by the lstsq rule, as
    in ``_preprocess_rows``.
    """
    a = a.toarray()
    nonzero = np.linalg.norm(a, axis=1) > 1e-10
    if np.any(np.abs(rhs[~nonzero]) > 1e-12):
        return np.arange(a.shape[0]), False
    a, rhs = a[nonzero], rhs[nonzero]
    kept = np.flatnonzero(nonzero)
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


@pytest.mark.parametrize(
    "weights, offset, consistent",
    [
        ((2.5, -0.7, 1.3), 1e-6, False),
        ((2.5, -0.7, 1.3), 1e-12, True),
        # an exact duplicate of the first row
        ((1.0, 0.0, 0.0), 1e-6, False),
        ((1.0, 0.0, 0.0), 1e-10, True),
    ],
    ids=["1e-06-False", "1e-12-True", "duplicate-1e-06-False", "duplicate-1e-10-True"],
)
def test_preprocess_rows_checks_dropped_combination(weights, offset, consistent):
    rng = np.random.default_rng(7)
    basis = [random_symmetric(rng, 3) for _ in range(3)]
    values = [3.0, -2.0, 5.0]
    combo = sum(w * m for w, m in zip(weights, basis))
    combo_rhs = float(np.dot(weights, values))
    scale = max(1.0, abs(combo_rhs), *map(abs, values))
    rows = [({0: m}, v) for m, v in zip(basis, values)]
    rows.append(({0: combo}, combo_rhs + offset * scale))
    problem = pack_rows([3], [np.eye(3)], rows)
    kept, flag = _preprocess_rows(problem.a, problem.rhs)
    ref_kept, ref_flag = reference_preprocess(problem.a, problem.rhs)
    assert flag is ref_flag is consistent
    assert kept.size == 3 and np.array_equal(kept, ref_kept)


def diagonal_rows_problem(rows):
    """One 2x2 block per row group; each row is (block, diagonal coefficients, rhs)."""
    nblocks = 1 + max(b for b, _, _ in rows)
    return pack_rows(
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


@pytest.mark.parametrize("kind", ["singular", "indefinite"])
def test_schur_failure_ends_the_solve(monkeypatch, kind):
    # no program the repository builds gives such an M, so the third one is spoiled
    real = sdp._schur_complement
    made = []

    def spoiled(*args):
        made.append(real(*args))
        if len(made) == 3:
            if kind == "singular":
                made[-1][:, 0] = 0.0
            else:
                made[-1][0, 0] = -1.0
        return made[-1]

    monkeypatch.setattr(sdp, "_schur_complement", spoiled)
    solution = solve(build_sequential_sdp(2, 1))
    assert solution.status == "numerical_failure"
    assert solution.reason == "Schur complement not positive definite at iteration 3"
    assert solution.iterations == 3 and len(made) == 3
    assert all(np.isfinite(block).all() for block in solution.blocks)


@pytest.mark.parametrize("name", ["X", "Z"])
def test_step_out_of_the_cone_ends_the_solve(monkeypatch, name):
    # each call steps X and Z; the fourth, the second iteration's corrector,
    # steps X or Z twice as far as the boundary of the cone
    real = sdp._step_lengths
    calls = []

    def overshooting(inverses, dx, dz):
        calls.append(None)
        steps = list(real(inverses, dx, dz))
        if len(calls) != 4:
            return tuple(steps)
        # X's inverse factors lead each joint stack
        parts = [
            (li[:len(dxg)], dxg) if name == "X" else (li[len(dxg):], dzg)
            for li, dxg, dzg in zip(inverses, dx, dz)
        ]
        lam = min(
            float(np.linalg.eigvalsh(sdp._sym(li @ d @ li.swapaxes(-1, -2)))[:, 0].min())
            for li, d in parts
        )
        assert lam < 0
        steps["XZ".index(name)] = 2.0 / -lam
        return tuple(steps)

    monkeypatch.setattr(sdp, "_step_lengths", overshooting)
    solution = solve(build_sequential_sdp(2, 1))
    assert solution.status == "numerical_failure"
    assert re.fullmatch(rf"{name} not positive definite after step \S+ at iteration 2", solution.reason)
    assert solution.iterations == 2 and len(calls) == 4


def random_positive_definite(rng, size):
    mat = rng.standard_normal((size, size))
    return mat @ mat.T + size * np.eye(size)


def separate_step_length(inverses, steps):
    """One matrix family's fraction-to-boundary step, from its own stacks alone."""
    lam = min(
        float(np.linalg.eigvalsh(sdp._sym(li @ d @ li.swapaxes(-1, -2)))[:, 0].min())
        for li, d in zip(inverses, steps)
    )
    return 1.0 if lam >= -1e-14 else min(1.0, 0.98 * (-1.0 / lam))


@pytest.mark.parametrize("limited", ["X", "Z"])
def test_joint_step_lengths_match_separate_stacks(limited):
    rng = np.random.default_rng(11)
    sizes, counts = (1, 3, 5), (2, 1, 3)

    def stacks(make):
        return [np.stack([make(rng, s) for _ in range(n)]) for s, n in zip(sizes, counts)]

    def inverse_factors():
        return [np.linalg.inv(np.linalg.cholesky(st)) for st in stacks(random_positive_definite)]

    # a positive definite step never meets the boundary; a large indefinite one does
    def steps(limits):
        if limits:
            return stacks(lambda rng, s: 100 * random_symmetric(rng, s))
        return stacks(random_positive_definite)

    x_inv, z_inv = inverse_factors(), inverse_factors()
    dx, dz = steps(limited == "X"), steps(limited == "Z")
    joint = [np.concatenate(pair) for pair in zip(x_inv, z_inv)]
    ap, ad = sdp._step_lengths(joint, dx, dz)
    assert (ap, ad) == (separate_step_length(x_inv, dx), separate_step_length(z_inv, dz))
    assert (ap < 1.0, ad < 1.0) == (limited == "X", limited == "Z")


def test_failed_joint_cholesky_names_its_matrix():
    rng = np.random.default_rng(12)
    counts = [2, 1]
    stacks = [
        np.stack([random_positive_definite(rng, s) for _ in range(2 * n)]) for s, n in zip((2, 4), counts)
    ]
    factors, name = sdp._cholesky_joint(stacks, counts)
    assert name == "" and all(np.array_equal(f, np.linalg.cholesky(st)) for f, st in zip(factors, stacks))
    # the Z half of a stack starts after its X blocks
    z_fails = [st.copy() for st in stacks]
    z_fails[1][counts[1]] = -np.eye(4)
    assert sdp._cholesky_joint(z_fails, counts) == (None, "Z")
    for both in (False, True):
        x_fails = [st.copy() for st in (z_fails if both else stacks)]
        x_fails[0][1, 0, 0] = -1.0
        assert sdp._cholesky_joint(x_fails, counts) == (None, "X")


def untouched_block_problem():
    rng = np.random.default_rng(8)
    dims = [3, 2, 4]
    rows = [({0: random_symmetric(rng, 3), 2: random_symmetric(rng, 4)}, 1.0)]
    rows += [({b: random_symmetric(rng, dims[b])}, 0.5) for b in (0, 2, 2)]
    problem = pack_rows(dims, [np.eye(s) for s in dims], rows)
    assert problem.a[:, _SvecIndexer(dims).spans[1]].nnz == 0
    return problem


@pytest.mark.parametrize(
    "build, split, mixed",
    [
        (lambda: build_sequential_sdp(2, 3), False, (1, 2, 4, 9)),
        (lambda: build_parallel_sdp(3, 2), False, (2, 4)),
        (lambda: build_full_sdp(2, 1, "seq"), False, (4, 8, 16)),
        (untouched_block_problem, False, (16,)),
        (lambda: build_parallel_sdp(2, 4), True, (2, 4, 8)),
        (lambda: build_sequential_sdp(4, 3), False, (1, 2, 4, 9)),
    ],
    ids=["seq-2-3", "par-3-2", "full-seq-2-1", "from-rows", "par-2-4", "seq-4-3"],
)
def test_schur_complement_matches_dense_definition(build, split, mixed):
    problem = build()
    kept = _preprocess_rows(problem.a, problem.rhs)[0]
    a = problem.a[kept]
    indexer = _SvecIndexer(problem.block_dims)
    block_rows = _block_rows(a, indexer)
    dims = problem.block_dims
    counts = []
    for chunks in block_rows:
        sizes = [groups[-1][0].stop for groups, _, _ in chunks]
        # a block's rows, in entry-count order, fill chunks of _SCHUR_CHUNK
        # rows but the last, each contracted against the rows from its first onward
        assert all(size == _SCHUR_CHUNK for size in sizes[:-1])
        assert all(0 < size <= _SCHUR_CHUNK for size in sizes)
        assert [tail.shape[0] for _, tail, _ in chunks] == [sum(sizes[i:]) for i in range(len(sizes))]
        # one group of consecutive rows per entry count in a chunk
        for groups, _, _ in chunks:
            ends = [0] + [rows.stop for rows, *_ in groups]
            assert [(rows.start, len(p)) for rows, p, _, _ in groups] == [
                (start, stop - start) for start, stop in zip(ends, ends[1:])
            ]
            assert len({p.shape[1] for _, p, _, _ in groups}) == len(groups)
        counts.append([p.shape[1] for groups, _, _ in chunks for _, p, _, _ in groups])
        assert counts[-1] == sorted(counts[-1])
    if len(dims) == 1:
        # the trace row has one entry per diagonal element of the block
        assert max(counts[0]) == dims[0]
    # more than _SCHUR_CHUNK rows in a block take several chunks, and some
    # chunk holds rows of exactly the entry counts ``mixed``
    assert any(len(chunks) > 1 for chunks in block_rows) == split
    assert mixed in [
        tuple(p.shape[1] for _, p, _, _ in groups) for chunks in block_rows for groups, _, _ in chunks
    ]
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
    # X and Z once per block at the start and after each step, together in
    # one stacked call per block size
    assert all(ok for _, ok in blocks)
    assert sum(count for count, _ in blocks) == 2 * nblocks * solution.iterations
    assert len(blocks) == nsizes * solution.iterations


@pytest.mark.parametrize(
    "build, iterations, digest",
    [
        (lambda: build_sequential_sdp(2, 3), 11,
         "a739f38c4c6031103283f30814cafe355bb6111d50848d6b7ecdc5d3dacbf257"),
        (lambda: build_sequential_sdp(3, 3), 12,
         "7da3db411efadfa82b41c50486c90713b0ceb0fbc0e44dcdd54f9101a7ac8f31"),
        (lambda: build_sequential_sdp(3, 4), 16,
         "7dc0d2fd2edfc42cdb74ffa571388c5d48b47c13be4737291f8b3d06f074355c"),
        (lambda: build_parallel_sdp(2, 4), 13,
         "f2a98666bc4db693acc66a41eee022000eef912b7fb72bf03020a58365556349"),
        (lambda: build_parallel_sdp(4, 3), 13,
         "2a52d7e24f78aa26475836c73c8d1a51bf3f1ca69ddefdbcd00e6e29f810b4a9"),
        (lambda: build_full_sdp(2, 2, "seq"), 13,
         "4f70efc625d05888da1f264d29581a7805c6e98d6038fa2d026b96f09e7590d1"),
        (lambda: build_full_sdp(3, 1, "par"), 8,
         "60878ce66a8023d5d5a41cd1bb7f6937e9eabc92f0be66cf25edacfefbb5585e"),
    ],
    ids=["seq-2-3", "seq-3-3", "seq-3-4", "par-2-4", "par-4-3", "full-seq-2-2", "full-par-3-1"],
)
def test_trajectories_are_pinned(build, iterations, digest):
    # iteration counts move only for a reason recorded in CHANGES.md, and so
    # do the bytes of the value, the blocks and the dual: the solver's
    # arithmetic, and the order of its sums, is pinned
    solution = solve(build())
    assert (solution.status, solution.iterations) == ("optimal", iterations)
    payload = hashlib.sha256(solution.objective_value.hex().encode())
    for block in solution.blocks:
        payload.update(block.tobytes())
    payload.update(solution.dual.tobytes())
    assert payload.hexdigest() == digest


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
