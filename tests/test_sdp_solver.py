import ctypes
import hashlib
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
from hypothesis import given, seed, settings, strategies

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
    # symmetry is judged relative to the largest entry: a tiny matrix can be
    # wholly unsymmetric, and a huge one symmetric up to rounding
    with pytest.raises(ValueError, match="not symmetric"):
        unconstrained(np.array([[0.0, 1e-11], [0.0, 0.0]])).validate()
    unconstrained(np.array([[1e8, 1e8 + 1e-3], [1e8, 1e8]])).validate()
    unconstrained(np.zeros((2, 2))).validate()


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


def test_verify_rejects_blocks_of_the_wrong_count_or_shape():
    problem = build_sequential_sdp(2, 1)
    solution = solve(problem)
    full = solution.blocks
    for blocks, match in ((full[:-1], "block count"), ([np.eye(len(b) + 1) for b in full], "block shape")):
        solution.blocks = blocks
        with pytest.raises(ValueError, match=match):
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
    # bool is an int subclass, and strings and None are no tolerances
    for bad in (True, "1e-6", None):
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


def test_one_indexer_per_block_dims(monkeypatch):
    # building, solving and verifying a program lay out its svec once
    sdp._indexer.cache_clear()
    built = []
    init = _SvecIndexer.__init__

    def counted(self, dims):
        built.append(tuple(dims))
        init(self, dims)

    monkeypatch.setattr(_SvecIndexer, "__init__", counted)
    for d, n in ((2, 2), (3, 3), (2, 4)):
        built.clear()
        problem = build_sequential_sdp(d, n)
        verify(problem, solve(problem))
        assert built == [tuple(problem.block_dims)]
    # the shared instance cannot be altered through its sequences or arrays
    indexer = sdp._indexer((3, 1, 4, 3))
    assert indexer is sdp._indexer((3, 1, 4, 3))
    for seq in (indexer.dims, indexer.sizes, indexer.members, indexer._columns, indexer._triangles):
        assert isinstance(seq, tuple)
    assert indexer.members == ((1,), (0, 3), (2,))
    arrays = [indexer.block, indexer.lo, indexer.hi, indexer.scale_vector, indexer._starts, indexer._dims]
    arrays += [*indexer._columns, *(arr for triangle in indexer._triangles for arr in triangle)]
    assert not any(arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError, match="read-only"):
        indexer.scale_vector[0] = 2.0


@seed(32)
@settings(max_examples=60, deadline=None)
@given(strategies.lists(strategies.integers(1, 8), min_size=1, max_size=6), strategies.integers(0, 2**32 - 1))
def test_layout_table_keeps_its_promises(dims, rng_seed):
    indexer = _SvecIndexer(dims)
    assert indexer.total == sum(s * (s + 1) // 2 for s in dims)
    # every svec column names the entry, lo <= hi, that maps back to it
    assert np.array_equal(indexer.column(indexer.block, indexer.lo, indexer.hi), np.arange(indexer.total))
    assert np.all(indexer.lo <= indexer.hi) and np.all(indexer.hi < np.array(dims)[indexer.block])
    assert np.array_equal(indexer.scale_vector, np.where(indexer.lo == indexer.hi, 1.0, math.sqrt(2.0)))
    # the round trip puts every entry back in place: the diagonal exactly,
    # each off-diagonal entry as (x * sqrt(2)) / sqrt(2) rounds it
    rng = np.random.default_rng(rng_seed)
    stacks = [sdp._sym(rng.standard_normal((len(mem), s, s))) for s, mem in zip(indexer.sizes, indexer.members)]
    back = indexer.unpack_stacks(indexer.pack_stacks(stacks))
    for s, st, bk in zip(indexer.sizes, stacks, back):
        scale = np.where(np.eye(s, dtype=bool), 1.0, math.sqrt(2.0))
        assert bk.tobytes() == ((st * scale) / scale).tobytes()
    arrays = [indexer.block, indexer.lo, indexer.hi, indexer.scale_vector, *indexer._columns]
    assert not any(arr.flags.writeable for arr in arrays + [a for tri in indexer._triangles for a in tri])


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
    # a boolean array is a mask, not indices: safe-cast, [True, False] named rows 1 and 0
    for field in range(4):
        bad = [v.copy() for v in columns]
        bad[field] = bad[field] > 0
        with pytest.raises(ValueError, match="booleans"):
            SdpProblem.from_reads(dims, [np.eye(s) for s in dims], bad, rhs)


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
        # loaded as 0 and 1, not refused, by a dtype test on the whole array
        "bool indptr": ("a", {**a, "indptr": [False] + a["indptr"][1:]}),
        "bool indices": ("a", {**a, "indices": [bool(a["indices"][0])] + a["indices"][1:]}),
        "objective triangle length": ("objective", [objective[0][:-1]] + objective[1:]),
        "objective of a smaller block": ("objective", [objective[0][:3]] + objective[1:]),
        # refused, not rounded by int() into [3, 1, 4]
        "float dim": ("block_dims", [3.5, 1, 4]),
        "bool dim": ("block_dims", [3, True, 4]),
        "string dim": ("block_dims", ["3", 1, 4]),
        "dim past any index": ("block_dims", [4611686018427387904]),
        "a as a list": ("a", [1, 2]),
        "no a.data": ("a", {k: v for k, v in a.items() if k != "data"}),
        "bool data": ("a", {**a, "data": [True] + a["data"][1:]}),
        "bool rhs": ("rhs", [True] + payload["rhs"][1:]),
        "scalar rhs": ("rhs", 1.0),
        "scalar objective": ("objective", 1.0),
        "scalar triangle": ("objective", [objective[0], 1.0, objective[2]]),
        "nested triangle": ("objective", [objective[0], [objective[1]], objective[2]]),
    }
    SdpProblem.from_json(json.dumps(payload))
    for key, value in malformed.values():
        with pytest.raises(ValueError):
            SdpProblem.from_json(json.dumps({**payload, key: value}))
    # a payload that is not an object, or misses a key, is malformed too
    missing = [{k: v for k, v in payload.items() if k != key} for key in ("block_dims", "rhs", "objective", "a")]
    for bad in ({}, [], None, 1, *missing):
        with pytest.raises(ValueError):
            SdpProblem.from_json(json.dumps(bad))
    # a zero-size block, and no block at all, are refused as block dims, not inside numpy
    for dims, triangles in (([3, 1, 4, 0], objective + [[]]), ([], [])):
        with pytest.raises(ValueError, match="block dims"):
            SdpProblem.from_json(json.dumps({**payload, "block_dims": dims, "objective": triangles}))


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
    # a column of right-hand sides has the rows' length, but is not a vector
    payload = json.loads(pack_rows([2], [good], [({0: good}, 1.0)]).to_json())
    payload["rhs"] = [[v] for v in payload["rhs"]]
    with pytest.raises(ValueError, match="1-D"):
        SdpProblem.from_json(json.dumps(payload))
    # built directly, with no JSON reader in front of validate
    one = pack_rows([2], [good], [({0: good}, 1.0)])
    for bad, match in (
        (SdpProblem([2], [], one.a, one.rhs), "one objective matrix per block"),
        (SdpProblem([2], [good], one.a, one.rhs[:, None]), "1-D"),
        (SdpProblem([2], [good], one.a, np.zeros(2)), "constraint matrix shape"),
    ):
        with pytest.raises(ValueError, match=match):
            bad.validate()
    # an empty program is refused here, before solve meets a ZeroDivisionError
    with pytest.raises(ValueError, match="block dims"):
        SdpProblem([], [], scipy.sparse.csr_matrix((0, 0)), np.zeros(0)).validate()


def reference_preprocess(a, rhs):
    """Row preprocessing by its first algorithm: economic pivoted QR, then lstsq on the rows.

    A duplicated row is one more dependent row, judged by the lstsq rule, as
    in ``_preprocess_rows``, with its rules: a rank threshold relative to the
    largest row norm, rows below it predicted as 0, and one tolerance over
    every dropped row.
    """
    a = a.toarray()
    norms = np.linalg.norm(a, axis=1)
    threshold = 1e-10 * norms.max(initial=0.0)
    live = np.flatnonzero(norms > threshold)
    _, r, piv = scipy.linalg.qr(a[live].T, mode="economic", pivoting=True)
    rank = int(np.sum(np.abs(np.diag(r)) > threshold))
    keep, drop = live[np.sort(piv[:rank])], live[np.sort(piv[rank:])]
    predicted = np.zeros(rhs.size)
    if drop.size:
        coeffs, *_ = np.linalg.lstsq(a[keep].T, a[drop].T, rcond=None)
        predicted[drop] = coeffs.T @ rhs[keep]
    dropped = np.setdiff1d(np.arange(rhs.size), keep)
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    return keep, bool(np.all(np.abs(predicted - rhs)[dropped] <= 1e-8 * scale))


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


@pytest.mark.parametrize("exponent", [-40, 40])
@pytest.mark.parametrize(
    "build",
    [lambda: build_sequential_sdp(3, 3), lambda: build_parallel_sdp(2, 3), lambda: build_full_sdp(2, 2, "seq")],
    ids=["seq-3-3", "par-2-3", "full-seq-2-2"],
)
def test_preprocess_rows_ignores_a_uniform_scale(build, exponent):
    # the rank threshold and the tolerance are relative, and a power of two
    # scales every row and right-hand side exactly: the same rows are kept
    problem = build()
    kept, consistent = _preprocess_rows(problem.a, problem.rhs)
    scaled_kept, scaled_consistent = _preprocess_rows(problem.a * 2.0**exponent, problem.rhs * 2.0**exponent)
    assert np.array_equal(scaled_kept, kept)
    assert scaled_consistent is consistent is True


def test_rescaled_program_solves_to_its_optimum():
    # an absolute row-norm floor would drop most of these rows as zero and
    # certify a wrong optimum of 2 on what is left
    problem = build_sequential_sdp(2, 2)
    scale = 2.0**-34
    solution = solve(SdpProblem(problem.block_dims, problem.objective, problem.a * scale, problem.rhs * scale))
    assert solution.status == "optimal"
    assert abs(solution.objective_value - 0.75) <= 1e-5


def live_components(problem):
    """Rows above the rank threshold, split into components of rows that share an svec column."""
    norms = scipy.sparse.linalg.norm(problem.a, axis=1)
    live = np.flatnonzero(norms > 1e-10 * norms.max())
    pattern = abs(problem.a[live])
    labels = scipy.sparse.csgraph.connected_components(pattern @ pattern.T, directed=False)[1]
    return [live[labels == label] for label in range(labels.max() + 1)]


def test_preprocess_rows_factors_components_not_the_matrix(monkeypatch):
    problem = build_sequential_sdp(3, 4)
    other = build_full_sdp(2, 2, "seq")
    # QR inputs are transposed: one column per row of a component, one row per svec column it touches
    expected = {
        name: sorted(
            (np.unique(prob.a[comp].indices).size, comp.size) for comp in live_components(prob) if comp.size > 1
        )
        for name, prob in (("seq-3-4", problem), ("full-seq-2-2", other))
    }
    real_qr = scipy.linalg.qr
    real_getitem = scipy.sparse.csr_matrix.__getitem__
    qr_shapes, slices = [], []

    def qr(mat, *args, **kwargs):
        qr_shapes.append(mat.shape)
        return real_qr(mat, *args, **kwargs)

    def getitem(mat, key):
        slices.append(mat.shape)
        return real_getitem(mat, key)

    monkeypatch.setattr(scipy.linalg, "qr", qr)
    monkeypatch.setattr(scipy.sparse.csr_matrix, "__getitem__", getitem)
    kept, consistent = _preprocess_rows(problem.a, problem.rhs)
    assert consistent and kept.size == 1043
    assert qr_shapes and sorted(qr_shapes) == expected["seq-3-4"]
    assert max(cols for _, cols in qr_shapes) <= 233
    # the components are sliced from the CSR arrays, not from the matrix, so
    # the count of sparse slices does not grow with the number of components
    assert len(slices) == 2 < len(qr_shapes)
    # nor with it here, where another count of components is factored
    qr_shapes.clear()
    slices.clear()
    _preprocess_rows(other.a, other.rhs)
    assert sorted(qr_shapes) == expected["full-seq-2-2"] and len(qr_shapes) != len(expected["seq-3-4"])
    assert len(slices) == 2


def interleaved_components_problem(rng, offset):
    """Rows of sparse random reads whose components interleave in row order.

    Every right-hand side is the row's value at one planted X, so the rows
    are consistent, but for ``offset`` added to one exact duplicate.  Exact
    and scaled duplicates repeat rows, and one row of norm 1e-17, as a row
    cancelled to rounding is, falls below the rank threshold.
    """
    dims = [4, 3, 5]
    planted = [random_positive_definite(rng, s) for s in dims]
    coeffs = []
    for _ in range(18):
        b = int(rng.integers(len(dims)))
        mat = np.zeros((dims[b], dims[b]))
        for _ in range(int(rng.integers(1, 4))):
            r, c = rng.integers(dims[b], size=2)
            mat[r, c] = mat[c, r] = rng.standard_normal()
        coeffs.append({b: mat})
    picks = rng.choice(len(coeffs), size=6, replace=False)
    coeffs += [coeffs[i] for i in picks[:3]]
    coeffs += [{b: factor * mat for b, mat in coeffs[i].items()} for i, factor in zip(picks[3:], (-2.5, 3.0, 0.5))]
    coeffs.append({0: np.diag([1e-17, 0.0, 0.0, 0.0])})
    rhs = np.array([sum(float(np.sum(mat * planted[b])) for b, mat in row.items()) for row in coeffs])
    rhs[18] += offset * max(1.0, float(np.abs(rhs).max()))
    order = rng.permutation(len(coeffs))
    return pack_rows(dims, [np.eye(s) for s in dims], [(coeffs[i], rhs[i]) for i in order])


@pytest.mark.parametrize("offset, consistent", [(0.0, True), (1e-3, False)])
@pytest.mark.parametrize("rng_seed", range(8))
def test_preprocess_rows_matches_reference_on_interleaved_components(rng_seed, offset, consistent):
    problem = interleaved_components_problem(np.random.default_rng(rng_seed), offset)
    components = live_components(problem)
    assert len(components) > 2 and any(np.any(np.diff(comp) > 1) for comp in components)
    kept, flag = _preprocess_rows(problem.a, problem.rhs)
    ref_kept, ref_flag = reference_preprocess(problem.a, problem.rhs)
    assert flag is ref_flag is consistent
    # which of two equal rows is kept is a rounding tie-break, the row space is not
    rows = problem.a.toarray()
    # three exact duplicates, three scaled ones and the cancelled row at least are dropped
    assert kept.size == ref_kept.size == np.linalg.matrix_rank(rows[kept]) <= len(rows) - 7
    _, _, vt = np.linalg.svd(rows[kept], full_matrices=False)
    norms = np.linalg.norm(rows, axis=1)
    assert np.all(np.linalg.norm(rows - (rows @ vt.T) @ vt, axis=1) <= 1e-10 * norms.max())


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
        # every call fills the solve's one buffer, which the factor overwrites in place
        made.append(real(*args))
        assert np.shares_memory(made[-1], made[0])
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

    def overshooting(inverses, dx, dz, fraction):
        calls.append(None)
        steps = list(real(inverses, dx, dz, fraction))
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


def separate_step_length(inverses, steps, fraction):
    """One matrix family's fraction-to-boundary step, from its own stacks alone."""
    lam = min(
        float(np.linalg.eigvalsh(sdp._sym(li @ d @ li.swapaxes(-1, -2)))[:, 0].min())
        for li, d in zip(inverses, steps)
    )
    return 1.0 if lam >= -1e-14 else min(1.0, fraction * (-1.0 / lam))


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
    ap, ad = sdp._step_lengths(joint, dx, dz, 0.9)
    assert (ap, ad) == (separate_step_length(x_inv, dx, 0.9), separate_step_length(z_inv, dz, 0.9))
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
    assert problem.a[:, _SvecIndexer(dims).block == 1].nnz == 0
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
        # one 64 x 64 block whose 421 rows take 7 chunks
        (lambda: build_full_sdp(2, 2, "seq"), True, (8, 16, 32, 64)),
    ],
    ids=["seq-2-3", "par-3-2", "full-seq-2-1", "from-rows", "par-2-4", "seq-4-3", "full-seq-2-2"],
)
def test_schur_complement_matches_dense_definition(build, split, mixed):
    problem = build()
    kept = _preprocess_rows(problem.a, problem.rhs)[0]
    a = problem.a[kept]
    indexer = _SvecIndexer(problem.block_dims)
    block_rows = _block_rows(a, indexer)
    dims = problem.block_dims
    counts = []
    for chunks, s in zip(block_rows, dims):
        sizes = [groups[-1][0].stop for groups, *_ in chunks]
        # a block's rows, in entry-count order, fill chunks of _SCHUR_CHUNK
        # rows but the last, each contracted against the rows from its first onward
        assert all(size == _SCHUR_CHUNK for size in sizes[:-1])
        assert all(0 < size <= _SCHUR_CHUNK for size in sizes)
        assert [tail.shape[0] for _, tail, _, _ in chunks] == [sum(sizes[i:]) for i in range(len(sizes))]
        # a tail has one column per distinct flat column p*s + q its rows read,
        # ``used`` naming them in increasing order
        for _, tail, used, _ in chunks:
            assert tail.shape[1] == used.size == np.unique(tail.indices).size
            assert np.all(np.diff(used) > 0) and 0 <= used[0] and used[-1] < s * s
        # one group of consecutive rows per entry count in a chunk
        for groups, *_ in chunks:
            ends = [0] + [rows.stop for rows, *_ in groups]
            assert [(rows.start, len(p)) for rows, p, _, _ in groups] == [
                (start, stop - start) for start, stop in zip(ends, ends[1:])
            ]
            assert len({p.shape[1] for _, p, _, _ in groups}) == len(groups)
        counts.append([p.shape[1] for groups, *_ in chunks for _, p, _, _ in groups])
        assert counts[-1] == sorted(counts[-1])
    if len(dims) == 1:
        # the trace row has one entry per diagonal element of the block
        assert max(counts[0]) == dims[0]
        # a one-block program's rows are sparse in it: every tail is narrower than s^2
        assert all(tail.shape[1] < dims[0] ** 2 for _, tail, _, _ in block_rows[0])
    # more than _SCHUR_CHUNK rows in a block take several chunks, and some
    # chunk holds rows of exactly the entry counts ``mixed``
    assert any(len(chunks) > 1 for chunks in block_rows) == split
    assert mixed in [
        tuple(p.shape[1] for _, p, _, _ in groups) for chunks in block_rows for groups, *_ in chunks
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
    buf = np.empty(m * m + 1)
    big_m = _schur_complement(block_rows, x, zinv, buf)
    assert np.shares_memory(big_m, buf) and big_m.flags.f_contiguous
    assert np.abs(np.tril(big_m - dense)).max() <= 1e-13 * np.abs(dense).max()
    assert not np.triu(big_m, 1).any()
    # assembled again into the same buffer, over another M and its spoiled
    # spare slot: no stale entry survives, and the bytes are those of a fresh one
    first = big_m.copy()
    x_other = [random_positive_definite(rng, s) for s in dims]
    zinv_other = [random_positive_definite(rng, s) for s in dims]
    _schur_complement(block_rows, x_other, zinv_other, buf)
    buf[-1] = np.nan
    again = _schur_complement(block_rows, x, zinv, buf)
    assert again.tobytes() == first.tobytes()


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


def test_solve_holds_one_schur_complement():
    # each iteration assembles and factors M in the solve's one buffer, so a
    # longer solve peaks no higher: at two live copies, iterations after the
    # first would add a whole 8 m^2 bytes to the traced peak
    problem = build_full_sdp(2, 2, "seq")
    m = _preprocess_rows(problem.a, problem.rhs)[0].size
    assert m == 421
    solve(problem, SolverConfig(max_iterations=1))
    peaks = []
    for iterations in (1, 3):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solution = solve(problem, SolverConfig(max_iterations=iterations))
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert (solution.status, solution.iterations) == ("max_iter", iterations)
    assert peaks[0] > 8 * m * m
    assert peaks[1] - peaks[0] < 0.5 * 8 * m * m


@pytest.mark.parametrize(
    "build, iterations, digest",
    [
        (lambda: build_sequential_sdp(2, 3), 10,
         "6821c6f78d4e93ad38569c7350a7e2de820585af0026bada3e94760d8771110e"),
        (lambda: build_sequential_sdp(3, 3), 12,
         "bce11ed82659760669420c4e590bb8199e8fc0484063a1eebd5e751c5f34f7c3"),
        (lambda: build_sequential_sdp(2, 4), 19,
         "b2decdbb57bfb392421f9a1f4f34642626e032a917e35ac8d98b1903e30a81bf"),
        (lambda: build_sequential_sdp(3, 4), 14,
         "11f4c0d52d41d35b2a605aed3f91a0a16d657b93161dddf66da40f4640ec4910"),
        (lambda: build_parallel_sdp(2, 4), 12,
         "9849afb97759d75afe1bdc88ff0349bfb3383e1bdc6138422ec31894c9cd6363"),
        (lambda: build_parallel_sdp(4, 3), 12,
         "bd28daff8c0cf0a211daf3cb691f71576b74fa81b8be21aa2d8873208de5a0f1"),
        (lambda: build_full_sdp(2, 2, "seq"), 14,
         "047e060219880e3130b89add390f501dc3d9f8961e9fd32854c270cd797de2b7"),
        (lambda: build_full_sdp(3, 1, "par"), 7,
         "89586c3a8434dc2db0bab8ff39cd2910f76459ece1fb93dbaf4bfd20c8f23d91"),
    ],
    ids=["seq-2-3", "seq-3-3", "seq-2-4", "seq-3-4", "par-2-4", "par-4-3", "full-seq-2-2", "full-par-3-1"],
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


def test_headline_cell_ignores_its_row_order():
    # seq (2,4), value 1, has a degenerate optimum; the adaptive corrector
    # step reaches it by one path whatever order its rows come in
    problem = build_sequential_sdp(2, 4)
    results = []
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(problem.a.shape[0])
        solution = solve(SdpProblem(problem.block_dims, problem.objective, problem.a[order], problem.rhs[order]))
        assert solution.status == "optimal"
        results.append((solution.iterations, solution.objective_value))
    iterations, values = zip(*results)
    assert len(set(iterations)) == 1
    assert max(values) - min(values) <= 1e-10


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


@pytest.mark.parametrize("load", ["refused", "without-controls"])
def test_solve_runs_where_no_openblas_thread_control_is_found(monkeypatch, load):
    problem = build_sequential_sdp(2, 2)
    value = solve(problem).objective_value
    controls = _openblas()
    saved = [get() for get, _ in controls]
    loaded = []

    def cdll(path, *args, **kwargs):
        loaded.append(path)
        if load == "refused":
            raise OSError(f"{path}: cannot open shared object file")
        # a library that exports none of the thread-count functions
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    _openblas.cache_clear()
    try:
        assert _openblas() == ()
        if not loaded:
            pytest.skip("no bundled OpenBLAS library to refuse")
        for _, put in controls:
            put(2)
        # with no controls found, the thread counts are left as the caller set them
        with _blas_threads(1):
            assert [get() for get, _ in controls] == [2] * len(controls)
            solution = solve(problem)
            assert [get() for get, _ in controls] == [2] * len(controls)
        assert (solution.status, solution.objective_value) == ("optimal", value)
        assert abs(value - 0.75) <= 1e-4
    finally:
        _openblas.cache_clear()
        for (_, put), threads in zip(controls, saved):
            put(threads)


PLANTED_DIMS = (6, 6, 4)


def planted_problem(seed, degenerate):
    """A random SDP with a known optimal pair, and its optimal value b^T y*.

    Per block, X* and Z* share a random eigenbasis: X* is positive on its
    first r eigenvectors, Z* on the rest, so X* Z* = 0.  A degenerate
    instance leaves one eigenvector to neither.  30 dense symmetric rows and
    the trace row give b = A(X*) and C = A^T y* - Z*, so (X*, y*, Z*) is
    optimal and the value is b^T y*.
    """
    rng = np.random.default_rng(seed)
    x_star, z_star = [], []
    for s in PLANTED_DIMS:
        basis = np.linalg.qr(rng.standard_normal((s, s)))[0]
        rank = int(rng.integers(1, s - 1 if degenerate else s))
        x_eig = np.where(np.arange(s) < rank, rng.uniform(0.5, 2.0, s), 0.0)
        z_eig = np.where(np.arange(s) >= rank + degenerate, rng.uniform(0.5, 2.0, s), 0.0)
        x_star.append(basis @ np.diag(x_eig) @ basis.T)
        z_star.append(basis @ np.diag(z_eig) @ basis.T)
    # coefficient mats[b][i] of row i in block b; the last row is the trace
    mats = [
        np.concatenate([[random_symmetric(rng, s) for _ in range(30)], [np.eye(s)]])
        for s in PLANTED_DIMS
    ]
    y_star = rng.standard_normal(31)
    rhs = sum(np.einsum("irc,rc->i", mb, xb) for mb, xb in zip(mats, x_star))
    objective = [np.einsum("i,irc->rc", y_star, mb) - zb for mb, zb in zip(mats, z_star)]
    # one read per entry of each dense coefficient, both triangles
    reads = [[], [], [], [], []]
    for b, mb in enumerate(mats):
        i, r, c = np.indices(mb.shape).reshape(3, -1)
        for part, values in zip(reads, (i, np.full_like(i, b), r, c, mb.ravel())):
            part.append(values)
    problem = SdpProblem.from_reads(list(PLANTED_DIMS), objective, [np.concatenate(p) for p in reads], rhs)
    return problem, float(rhs @ y_star)


# instances that end short of optimal, by seed; a solver change that moves
# this list says why in CHANGES.md.  Both degenerate failures had met the
# gap tolerance, but not the primal one, when X neared singular and the
# Schur complement lost definiteness (ROADMAP items 16 and 18)
PLANTED_FAILURES = {
    False: {},
    True: {
        15: "Schur complement not positive definite at iteration 10",
        19: "Schur complement not positive definite at iteration 10",
    },
}


@pytest.mark.parametrize("degenerate", [False, True], ids=["strict", "degenerate"])
def test_planted_optima_are_found(degenerate):
    # an optimal end lies at the planted value to the gap tolerance, and so
    # does the last iterate of every failure
    gap_tol = SolverConfig().gap_tol
    failures = {}
    for seed in range(20):
        problem, value = planted_problem(seed, degenerate)
        solution = solve(problem)
        found = solution.objective_value
        assert abs(found - value) <= gap_tol * (1 + abs(found) + abs(value)), (seed, found, value)
        if solution.status != "optimal":
            assert solution.status == "numerical_failure" and solution.reason
            failures[seed] = solution.reason
    assert failures == PLANTED_FAILURES[degenerate]
