import numpy as np
import pytest

from unitary_inversion import comb_sdp as cs
from unitary_inversion import tensor
from unitary_inversion.sdp import SdpProblem, _SvecIndexer, solve
from unitary_inversion.symmetric_group import (
    YoungDiagram,
    matrix_unit,
    su_dim,
    tableau_count,
    young_diagrams,
)


def constraint_residual(problem: SdpProblem, blocks: list[np.ndarray]) -> float:
    values = problem.a @ _SvecIndexer(problem.block_dims).pack(blocks)
    return float(np.abs(values - problem.rhs).max())


def comb_blocks_in_problem_order(d: int, n: int, comb: cs.ReducedComb) -> list[np.ndarray]:
    return [comb.blocks[k] for k in cs.block_keys(d, n)]


def test_performance_blocks_single_row():
    blocks = cs.performance_blocks(3, 1)
    single = YoungDiagram((2,))
    m = su_dim(single, 3)
    assert blocks.omega[single].shape == (1, 1)
    assert abs(blocks.omega[single][0, 0] - 1.0 / (9 * m)) <= 1e-15


def test_performance_blocks_rank_one_and_trace():
    for d, n in ((2, 2), (2, 3), (3, 2)):
        blocks = cs.performance_blocks(d, n)
        for mu, omega in blocks.omega.items():
            eigs = np.linalg.eigvalsh(omega)
            assert eigs[0] >= -1e-10
            assert sum(e > 1e-10 for e in eigs) == 1
            expected_trace = tableau_count(mu) / (d * d * su_dim(mu, d))
            assert abs(np.trace(omega) - expected_trace) <= 1e-12


def test_evaluate_fidelity_zero_and_off_diagonal_invariance():
    d, n = 2, 2
    perf = cs.performance_blocks(d, n)
    zero = cs.ReducedComb(
        d,
        n,
        {
            (mu, nu): np.zeros(
                (tableau_count(mu) * tableau_count(nu),) * 2
            )
            for mu in young_diagrams(n + 1, d)
            for nu in young_diagrams(n + 1, d)
        },
    )
    assert cs.evaluate_fidelity(zero, perf) == 0.0
    bumped = {k: b.copy() for k, b in zero.blocks.items()}
    for (mu, nu), block in bumped.items():
        if mu != nu:
            block += 1.0
    assert cs.evaluate_fidelity(cs.ReducedComb(d, n, bumped), perf) == 0.0


def test_evaluate_fidelity_on_optimizer_output():
    d, n = 2, 3
    problem = cs.build_sequential_sdp(d, n)
    solution = solve(problem)
    comb = cs.solution_blocks_to_comb(d, n, solution.blocks)
    value = cs.evaluate_fidelity(comb, cs.performance_blocks(d, n))
    assert abs(value - 0.9330) <= 1e-3
    assert abs(value - solution.objective_value) <= 1e-10


def test_reduced_comb_validation():
    with pytest.raises(ValueError):
        cs.ReducedComb(2, 1, {})
    blocks = {
        (mu, nu): np.zeros((tableau_count(mu) * tableau_count(nu),) * 2)
        for mu in young_diagrams(2, 2)
        for nu in young_diagrams(2, 2)
    }
    blocks[(young_diagrams(2, 2)[0], young_diagrams(2, 2)[0])] = np.zeros((2, 2))
    with pytest.raises(ValueError):
        cs.ReducedComb(2, 1, blocks)


def test_reduce_identity_structure():
    d, n = 2, 1
    full = np.eye(d ** (2 * n + 2))
    comb = cs.reduce_comb(full, d, n)
    for (mu, nu), block in comb.blocks.items():
        m_mu, m_nu = su_dim(mu, d), su_dim(nu, d)
        expected = m_mu * m_nu * np.eye(block.shape[0])
        assert np.abs(block - expected).max() <= 1e-10


COMMUTANT_SIZES = ((2, 1), (2, 2), (3, 1))


def random_commutant_blocks(d: int, n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    blocks = {}
    for mu, nu in cs.block_keys(d, n):
        size = tableau_count(mu) * tableau_count(nu)
        g = rng.standard_normal((size, size))
        blocks[(mu, nu)] = g + g.T
    return blocks


def test_reduce_round_trip_on_commutant_element():
    for d, n in COMMUTANT_SIZES:
        # random symmetric element of the commutant via expansion with random blocks
        blocks = random_commutant_blocks(d, n, 8)
        full = cs.expand_comb(cs.ReducedComb(d, n, blocks))
        back = cs.reduce_comb(full, d, n)
        for key, block in blocks.items():
            assert np.abs(back.blocks[key] - block).max() <= 1e-8
        rebuilt = cs.expand_comb(back)
        assert np.abs(rebuilt - full).max() <= 1e-8


def embedded_units(mu, d: int, n: int, regs: list[int]) -> dict:
    """E^mu_ij placed on the listed registers, written out with embed_operator."""
    dims = cs.full_register_dims(d, n)
    count = tableau_count(mu)
    return {
        (i, j): tensor.embed_operator(matrix_unit(mu, i, j, d), regs, dims).real
        for i in range(count)
        for j in range(count)
    }


@pytest.mark.parametrize("d, n", COMMUTANT_SIZES)
def test_commutant_pairing_matches_definition(d, n):
    # pins the register grouping (I_1..I_n, F) / (P, O_1..O_n) and the index
    # order of both directions, which a round trip alone cannot see
    reg = cs.register_indices(n)
    inputs = list(reg["I"]) + [reg["F"]]
    outputs = [reg["P"]] + list(reg["O"])
    blocks = random_commutant_blocks(d, n, 5)
    full = cs.expand_comb(cs.ReducedComb(d, n, blocks))
    reduced = cs.reduce_comb(full, d, n)
    expected = np.zeros_like(full)
    for (mu, nu), block in blocks.items():
        e_in = embedded_units(mu, d, n, inputs)
        e_out = embedded_units(nu, d, n, outputs)
        d_mu, d_nu = tableau_count(mu), tableau_count(nu)
        m_mu, m_nu = su_dim(mu, d), su_dim(nu, d)
        for i, j, k, l in np.ndindex(d_mu, d_mu, d_nu, d_nu):
            row, col = i * d_nu + k, j * d_nu + l
            value = np.trace(full @ e_in[(j, i)] @ e_out[(l, k)])
            assert abs(reduced.blocks[(mu, nu)][row, col] - value) <= 1e-12
            expected += block[row, col] / (m_mu * m_nu) * (e_in[(i, j)] @ e_out[(k, l)])
    assert np.abs(full - expected).max() <= 1e-12


def test_reduce_rejects_unsymmetric_input():
    d, n = 2, 1
    rng = np.random.default_rng(9)
    g = rng.standard_normal((16, 16))
    with pytest.raises(ValueError):
        cs.reduce_comb(g + g.T, d, n)


def test_reduce_of_full_objective_matches_performance_blocks():
    for d, n in ((2, 1), (2, 2), (3, 1)):
        omega = cs.full_performance_operator(d, n)
        comb = cs.reduce_comb(omega, d, n)
        perf = cs.performance_blocks(d, n)
        for mu, block in perf.omega.items():
            scaled = su_dim(mu, d) ** 2 * block
            assert np.abs(comb.blocks[(mu, mu)] - scaled).max() <= 1e-10
        for mu in perf.omega:
            for nu in perf.omega:
                if mu != nu:
                    assert np.abs(comb.blocks[(mu, nu)]).max() <= 1e-10


def test_full_objective_trace_and_positivity():
    for d, n in ((2, 1), (2, 2), (3, 1)):
        omega = cs.full_performance_operator(d, n)
        assert np.abs(omega - omega.T).max() <= 1e-10
        assert np.linalg.eigvalsh(omega)[0] >= -1e-10
        expected = sum(
            tableau_count(mu) * su_dim(mu, d) for mu in young_diagrams(n + 1, d)
        ) / (d * d)
        assert abs(np.trace(omega) - expected) <= 1e-10
        assert abs(expected - float(d) ** (n - 1)) <= 1e-12


def test_maximally_mixed_comb_is_feasible_in_full_space():
    for d, n, mode in ((2, 1, "seq"), (2, 1, "par"), (2, 2, "seq"), (2, 2, "par")):
        problem = cs.build_full_sdp(d, n, mode)
        mixed = cs.maximally_mixed_comb(d, n)
        assert constraint_residual(problem, [mixed]) <= 1e-12
        assert abs(np.trace(mixed) - d ** (n + 1)) <= 1e-12


def test_wire_comb_is_feasible_in_full_space_sequential():
    # the pass-through comb: each slot output feeds the next slot input
    for d, n in ((2, 1), (2, 2)):
        dims = cs.full_register_dims(d, n)
        reg = cs.register_indices(n)
        bell = np.zeros(d * d)
        for i in range(d):
            bell[i * d + i] = 1.0
        pairs = [(reg["P"], reg["I"][0])]
        for k in range(n - 1):
            pairs.append((reg["O"][k], reg["I"][k + 1]))
        pairs.append((reg["O"][n - 1], reg["F"]))
        full = np.eye(d ** (2 * n + 2))
        for a, b in pairs:
            full = full @ tensor.embed_operator(np.outer(bell, bell), (a, b), dims).real
        problem = cs.build_full_sdp(d, n, "seq")
        assert constraint_residual(problem, [full]) <= 1e-12


def test_reduction_of_feasible_comb_satisfies_reduced_constraints():
    for d, n in ((2, 1), (2, 2)):
        mixed = cs.maximally_mixed_comb(d, n)
        comb = cs.reduce_comb(mixed, d, n)
        blocks = comb_blocks_in_problem_order(d, n, comb)
        for build in (cs.build_sequential_sdp, cs.build_parallel_sdp):
            problem = build(d, n)
            assert constraint_residual(problem, blocks) <= 1e-8


def test_sequential_reference_values():
    for d, n, ref in ((2, 1, 0.5000), (2, 4, 1.0000), (3, 2, 0.3333)):
        solution = solve(cs.build_sequential_sdp(d, n))
        assert solution.status == "optimal"
        assert abs(solution.objective_value - ref) <= 1e-3


def test_parallel_reference_values():
    for d, n, ref in ((2, 2, 0.6545), (2, 3, 0.7500), (3, 3, 0.4310)):
        solution = solve(cs.build_parallel_sdp(d, n))
        assert solution.status == "optimal"
        assert abs(solution.objective_value - ref) <= 1e-3


def test_full_space_cap():
    with pytest.raises(ValueError):
        cs.build_full_sdp(2, 5, "seq", dim_cap=256)
    with pytest.raises(ValueError):
        cs.build_full_sdp(2, 1, "other")


def test_reduced_svec_sizes():
    assert cs.reduced_svec_size(2, 1) == 4
    block_sizes = cs.reduced_block_dims(2, 4)
    assert sum(block_sizes) == (1 + 4 + 5) ** 2
    assert cs.reduced_svec_size(2, 4) == sum(s * (s + 1) // 2 for s in block_sizes)


def test_problem_json_has_schema_fields():
    import json

    problem = cs.build_parallel_sdp(2, 2)
    payload = json.loads(problem.to_json())
    assert payload["d"] == 2 and payload["n"] == 2 and payload["mode"] == "par"
    assert payload["block_dims"] == cs.reduced_block_dims(2, 2)
    first = payload["constraints"][0]
    assert "rhs" in first and "blocks" in first
    assert {"index", "coeff_upper_triangle"} == set(first["blocks"][0])


def test_row_counts_are_pinned():
    # the row generators must neither drop nor duplicate rows
    reduced = {(2, 3): (53, 45), (3, 3): (95, 88), (2, 4): (343, 325), (4, 3): (105, 93)}
    for (d, n), (seq_rows, par_rows) in reduced.items():
        assert cs.build_sequential_sdp(d, n).a.shape[0] == seq_rows
        assert cs.build_parallel_sdp(d, n).a.shape[0] == par_rows
    full = {(2, 1): (40, 39), (2, 2): (568, 531), (3, 1): (385, 384)}
    for (d, n), (seq_rows, par_rows) in full.items():
        assert cs.build_full_sdp(d, n, "seq").a.shape[0] == seq_rows
        assert cs.build_full_sdp(d, n, "par").a.shape[0] == par_rows


def dense_entry_rows(terms, out_rows, out_cols, dims):
    """Reference for the shared row generator: one dense coefficient per output entry."""
    indexer = _SvecIndexer(dims)
    rows = []
    for p in range(out_rows * out_cols):
        for q in range(p, out_rows * out_cols):
            (g1, b1), (g2, b2) = divmod(p, out_cols), divmod(q, out_cols)
            mats = [np.zeros((s, s)) for s in dims]
            for scale, pm, qm, key in terms:
                if qm is None:
                    width = dims[key] // pm.shape[1]
                    contrib = scale * (b1 == b2) * np.kron(np.outer(pm[g2], pm[g1]), np.eye(width))
                else:
                    contrib = scale * np.outer(np.kron(pm[g2], qm[b2]), np.kron(pm[g1], qm[b1]))
                mats[key] += (contrib + contrib.T) / 2.0
            packed = indexer.pack(mats)
            if packed.any():
                rows.append(packed)
    return np.array(rows)


def test_entry_rows_match_dense_definition():
    rng = np.random.default_rng(3)
    dims = [6, 4]

    def sparse_random(shape):
        return rng.standard_normal(shape) * (rng.random(shape) < 0.5)

    terms = [
        (0.7, sparse_random((2, 2)), sparse_random((3, 3)), 0),
        (1.1, sparse_random((2, 2)), sparse_random((3, 2)), 1),
        (-0.3, sparse_random((2, 2)), None, 1),
        (0.5, np.eye(2), None, 0),
    ]
    sparse = cs._entry_rows(terms, 2, 3, _SvecIndexer(dims)).toarray()
    dense = dense_entry_rows(terms, 2, 3, dims)
    assert sparse.shape == dense.shape
    assert np.abs(sparse - dense).max() <= 1e-14
