import hashlib
import math

import numpy as np
import pytest

from unitary_inversion import comb_sdp as cs
from unitary_inversion import tensor
from unitary_inversion.sdp import SdpProblem, _SvecIndexer, solve
from unitary_inversion.symmetric_group import (
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
    single = (2,)
    m = su_dim(single, 3)
    assert blocks.blocks[(single, single)].shape == (1, 1)
    assert abs(blocks.blocks[(single, single)][0, 0] - 1.0 / (9 * m)) <= 1e-15


def test_performance_blocks_rank_one_and_trace():
    for d, n in ((2, 2), (2, 3), (3, 2)):
        blocks = cs.performance_blocks(d, n)
        assert list(blocks.blocks) == cs.block_keys(d, n)
        for (mu, nu), omega in blocks.blocks.items():
            if mu != nu:
                assert not omega.any()
                continue
            eigs = np.linalg.eigvalsh(omega)
            assert eigs[0] >= -1e-10
            assert sum(e > 1e-10 for e in eigs) == 1
            expected_trace = tableau_count(mu) / (d * d * su_dim(mu, d))
            assert abs(np.trace(omega) - expected_trace) <= 1e-12


def test_evaluate_fidelity_zero_and_off_diagonal_invariance():
    d, n = 2, 2
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
    assert cs.evaluate_fidelity(zero) == 0.0
    bumped = {k: b.copy() for k, b in zero.blocks.items()}
    for (mu, nu), block in bumped.items():
        if mu != nu:
            block += 1.0
    assert cs.evaluate_fidelity(cs.ReducedComb(d, n, bumped)) == 0.0


def test_evaluate_fidelity_on_optimizer_output():
    d, n = 2, 3
    problem = cs.build_sequential_sdp(d, n)
    solution = solve(problem)
    comb = cs.solution_blocks_to_comb(d, n, solution.blocks)
    value = cs.evaluate_fidelity(comb)
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
    # a solver's block list one too long or one too short is refused for its length
    listed = [np.eye(size) for size in cs.reduced_block_dims(2, 1)]
    for wrong in (listed + [np.eye(3)], listed[:-1]):
        with pytest.raises(ValueError, match="longer|shorter"):
            cs.solution_blocks_to_comb(2, 1, wrong)


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
    for d, n in COMMUTANT_SIZES + ((2, 4),):
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
        (i, j): tensor.embed_operator(matrix_unit(mu, d)[i, j], regs, dims).real
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
    with pytest.raises(ValueError, match="does not match"):
        cs.reduce_comb(np.eye(8), d, n)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_reduce_rejects_non_finite_input(value):
    # a NaN would pass the commutant test, and an inf would reach einsum
    mat = np.zeros((16, 16))
    mat[3, 5] = value
    with pytest.raises(ValueError, match="non-finite"):
        cs.reduce_comb(mat, 2, 1)


def test_reduce_of_full_objective_matches_performance_blocks():
    for d, n in ((2, 1), (2, 2), (3, 1), (2, 4)):
        omega = cs.full_performance_operator(d, n)
        comb = cs.reduce_comb(omega, d, n)
        perf = cs.performance_blocks(d, n)
        for (mu, nu), block in perf.blocks.items():
            scaled = su_dim(mu, d) * su_dim(nu, d) * block
            assert np.abs(comb.blocks[(mu, nu)] - scaled).max() <= 1e-10


def test_full_objective_trace_and_positivity():
    for d, n in ((2, 1), (2, 2), (3, 1), (4, 1)):
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
        mixed = np.eye(d ** (2 * n + 2)) / d ** (n + 1)
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
        mixed = np.eye(d ** (2 * n + 2)) / d ** (n + 1)
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
    # the size cap is the CLI's, decided before any build; the builder checks
    # only its mode and the smallest instance
    with pytest.raises(ValueError):
        cs.build_full_sdp(2, 1, "other")
    # below the smallest instance, as for the reduced builders
    for d, n in ((1, 1), (2, 0)):
        for mode in ("seq", "par"):
            with pytest.raises(ValueError, match="need d >= 2 and n >= 1"):
                cs.build_full_sdp(d, n, mode)


@pytest.mark.parametrize(
    "build",
    [
        cs.performance_blocks,
        cs.build_sequential_sdp,
        cs.build_parallel_sdp,
        cs.reduced_svec_size,
        cs.reduced_block_dims,
        cs.block_keys,
    ],
)
def test_reduced_builders_refuse_below_the_smallest_instance(build):
    for d, n in ((1, 1), (2, 0)):
        with pytest.raises(ValueError, match="need d >= 2 and n >= 1"):
            build(d, n)


def test_reduced_svec_sizes():
    assert cs.reduced_svec_size(2, 1) == 4
    block_sizes = cs.reduced_block_dims(2, 4)
    assert sum(block_sizes) == (1 + 4 + 5) ** 2
    assert cs.reduced_svec_size(2, 4) == sum(s * (s + 1) // 2 for s in block_sizes)


@pytest.mark.parametrize("build", [cs.build_sequential_sdp, cs.build_parallel_sdp])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_programs_past_the_depth_bound_share_one_shape(build, n):
    # at d >= n+1 every (n+1)-box diagram fits, so d enters only the weights
    first, *rest = (build(d, n) for d in range(n + 1, n + 5))
    for problem in rest:
        assert problem.block_dims == first.block_dims
        assert np.array_equal(problem.a.indptr, first.a.indptr)
        assert np.array_equal(problem.a.indices, first.a.indices)
        assert not np.array_equal(problem.a.data, first.a.data)


def test_problem_json_has_schema_fields():
    import json

    problem = cs.build_parallel_sdp(2, 2)
    payload = json.loads(problem.to_json())
    assert payload["d"] == 2 and payload["n"] == 2 and payload["mode"] == "par"
    assert payload["block_dims"] == cs.reduced_block_dims(2, 2)
    assert set(payload) == {"d", "n", "mode", "block_dims", "objective", "a", "rhs"}
    assert set(payload["a"]) == {"indptr", "indices", "data"}
    assert payload["a"]["indptr"] == problem.a.indptr.tolist()
    assert payload["a"]["indices"] == problem.a.indices.tolist()
    assert len(payload["a"]["data"]) == problem.a.nnz
    assert len(payload["rhs"]) == problem.a.shape[0]


def program_digest(problem: SdpProblem) -> str:
    h = hashlib.sha256()
    for arr in (problem.a.indptr, problem.a.indices, problem.a.data, problem.rhs):
        h.update(arr.tobytes())
    return h.hexdigest()


def test_row_counts_are_pinned():
    # the row generators must neither drop nor duplicate rows
    reduced = {
        (2, 3): (53, 45), (3, 3): (95, 88), (2, 4): (343, 325), (4, 3): (105, 93),
        (3, 4): (1375, 1280), (2, 5): (3215, 2873),
    }
    for (d, n), (seq_rows, par_rows) in reduced.items():
        assert cs.build_sequential_sdp(d, n).a.shape[0] == seq_rows
        assert cs.build_parallel_sdp(d, n).a.shape[0] == par_rows
    # nor move a bit: the digests pin each program's sparsity pattern,
    # coefficient values and right-hand side.  They do not pin the order of
    # the per-row sums, which leaves these bytes unchanged here even when
    # reversed; test_entry_rows_sum_in_term_order guards that order.  The
    # values are 0/1 products, scalar multiples and sequential sums, so the
    # bytes do not depend on the BLAS build
    digests = {
        (2, 3): ("eb34faebbfcef7e6de60a1d5d0d5a9b68f115f9f4dce19f4ae1319da3ad80a0e",
                 "8db9667a821f44e0d18fe2e89d8c7f00027acc4a17451f1b28b00635a2000f11"),
        (3, 3): ("58e3b5835626b1c4ee48a99fb09c0544be7604a7787a66612f5533913f5e4673",
                 "e4958a7801565c00fabb4cc8d23ea011f5dcca9a6207346b03342c45974969e5"),
        (2, 4): ("f3c835cbb34183fa34eb6a199bc3e44fe5b8ef1d80657665d8a70125029404fa",
                 "ce9f699b0a27997e159d4de46d99ed89ec8dcb47022ed314100f56e0c5dc4da9"),
        (4, 3): ("a5868ef3914efb8d09334cac85c2f4207202981cfedabe3ee01eb70f6e3c715a",
                 "b122cb2376db7bd00ed39f22fe8d1a22724a516907b5c180afeb902b4e5ed266"),
        (3, 4): ("03d873c1307cd2f08a43af4f58e9d3a5c64a52f1abb16bee46f45440a42c9111",
                 "7db2a31bd7e67060886508c016ac767aab5bad3fe920879bc7d754cb40def29c"),
        (2, 5): ("417b32eff3d419453336b11a73f16ae0f441d9d309939e84a97c1257c008b388",
                 "714a313707f9dd8b70ada6c250eec1bc8c71718569ca181171488820acb55a88"),
    }
    for (d, n), expected in digests.items():
        for build, digest in zip((cs.build_sequential_sdp, cs.build_parallel_sdp), expected):
            assert program_digest(build(d, n)) == digest, (build.__name__, d, n)
    full = {(2, 1): (40, 39), (2, 2): (568, 531), (3, 1): (385, 384)}
    for (d, n), (seq_rows, par_rows) in full.items():
        assert cs.build_full_sdp(d, n, "seq").a.shape[0] == seq_rows
        assert cs.build_full_sdp(d, n, "par").a.shape[0] == par_rows
    # the full programs' bytes, as first built from one dense adjoint per row
    full_digests = {
        (2, 1): ("f5cc4e6a1824c7e4daf3887976407b4a061f66f290a36415f75d1cf764865226",
                 "11c7f9d3bda5b44f14bab66c44b2a9850baa67c9a5920df402ce35c668aaaa1f"),
        (2, 2): ("a3d8d3cd6f7052ccc3758b89ee490d9cbd838ff87d0a711a0b010d5ff0b1dce2",
                 "e9d3fcb9f63bf40a10e0402dfe22e676d487e19a15edf05673d66a1bcda5cdca"),
        (3, 1): ("65acdd01c9ddee579d0dc15f9eaadf4c4732903fb56fb824a5bf608514b5d009",
                 "fb65364661c8bca58e04ab4bb520d5149740ca2601105d7e80c152008a8f7f89"),
        (4, 1): ("bdfdffb6e38a0b49793c8a28aab15da9e372a3c2821a4b4ba5c33a70cb169f2a",
                 "7d305b64acce0927668afaa9ccd88bb4877cf962fc75e3dd11447200a62fe055"),
        (2, 3): ("34eb4e795df1ebb7c870e03c2f318e0bf0f3720377f7b94f0d1ae789be988885",
                 "602ce6610a0b3c0f18826459ef388553a9016134ace0745330eec2f146a10f89"),
    }
    for (d, n), expected in full_digests.items():
        for mode, digest in zip(("seq", "par"), expected):
            assert program_digest(cs.build_full_sdp(d, n, mode)) == digest, (mode, d, n)


def test_reduced_programs_are_pinned():
    # one digest over every reduced program at svec <= 10,000, both modes,
    # and seq (3,5): the bytes of their (indptr, indices, data, rhs), as
    # first built from dense 0/1 selection matrices
    cells = [
        (build, d, n)
        for d in range(2, 7)
        for n in range(1, 6)
        for build in (cs.build_sequential_sdp, cs.build_parallel_sdp)
        if cs.reduced_svec_size(d, n) <= 10_000
    ] + [(cs.build_sequential_sdp, 3, 5)]
    assert len(cells) == 43
    h = hashlib.sha256()
    for build, d, n in cells:
        problem = build(d, n)
        for arr in (problem.a.indptr, problem.a.indices, problem.a.data, problem.rhs):
            h.update(arr.tobytes())
    assert h.hexdigest() == "29a7efddfd4bf807f21be0a4f8e510a6a824db2809e6a0b90319db4422696308"


def lifted_marginal(c, d: int, n: int, out: list[int], inner: list[int]) -> np.ndarray:
    """Tr over the registers outside ``inner``, times 1 on ``out`` minus ``inner``.

    Written as one einsum over the register axes of C: kept registers carry
    row axes a.. and column axes m.., traced ones A.. on both sides; the
    result's factors follow the sorted ``out``.
    """
    count = 2 * n + 2
    rows, cols, sums = "abcdefghijkl"[:count], "mnopqrstuvwx"[:count], "ABCDEFGHIJKL"
    traced = "".join(rows[k] if k in inner else sums[k] for k in range(count))
    traced += "".join(cols[k] if k in inner else sums[k] for k in range(count))
    ones = [rows[k] + cols[k] for k in out if k not in inner]
    target = "".join(rows[k] for k in out) + "".join(cols[k] for k in out)
    operands = [c.reshape((d,) * (2 * count))] + [np.eye(d)] * len(ones)
    side = d ** len(out)
    return np.einsum(",".join([traced] + ones) + "->" + target, *operands).reshape(side, side)


@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (3, 1)])
def test_full_space_rows_match_register_maps(d, n):
    # A @ svec(C) - rhs lists the upper triangle of each comb condition's
    # residual, family by family, for any symmetric C
    rng = np.random.default_rng(31)
    total = d ** (2 * n + 2)
    c = rng.standard_normal((total, total))
    c = c + c.T
    reg = cs.register_indices(n)
    p, ins, outs, f = reg["P"], list(reg["I"]), list(reg["O"]), reg["F"]

    def marginal(keep):
        return lifted_marginal(c, d, n, sorted(keep), sorted(keep))

    # sequential: C_i = d^-(n+1-i) Tr C over all but (P, I_1..I_i, O_1..O_{i-1}),
    # with F as I_{n+1}; Tr_{I_i} C_i = C_{i-1} x 1_{O_{i-1}} (1_P at i = 1),
    # and C_0 = d^-(n+1) Tr C = 1
    seq = []
    for i in range(1, n + 2):
        out = sorted([p] + ins[: i - 1] + outs[: i - 1])
        lifted = outs[i - 2] if i > 1 else p
        inner = [r for r in out if r != lifted]
        residual = float(d) ** -(n + 1 - i) * marginal(out)
        residual -= float(d) ** -(n + 2 - i) * lifted_marginal(c, d, n, out, inner)
        seq.append(residual)
    seq.append(np.array([[float(d) ** -(n + 1) * np.trace(c) - 1.0]]))
    # parallel: Tr_F C = Tr_{O F} C x 1_O / d^n and Tr_{I O F} C = d^n 1_P
    out = sorted([p] + ins + outs)
    par = [
        marginal(out) - lifted_marginal(c, d, n, out, [p] + ins) / d**n,
        marginal([p]) - d**n * np.eye(d),
    ]
    for mode, residuals in (("seq", seq), ("par", par)):
        problem = cs.build_full_sdp(d, n, mode)
        values = problem.a @ _SvecIndexer([total]).pack([c]) - problem.rhs
        expected = np.concatenate([m[np.triu_indices(m.shape[0])] for m in residuals])
        assert values.shape == expected.shape
        assert np.abs(values - expected).max() <= 1e-9 * np.abs(c).max()


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
    return np.array(rows).reshape(-1, indexer.total)


def entry_row_cases():
    """(terms, out_rows, out_cols, block dims) by name; P has out_rows rows, Q out_cols.

    P and Q are 0/1 selections, at most one 1 per row, as the builders form
    them; a row without a 1 is a tableau that the selection leaves out.
    """
    rng = np.random.default_rng(3)

    def selection(rows, cols):
        mat = np.zeros((rows, cols))
        kept = np.flatnonzero(rng.random(rows) < 0.7)
        mat[kept, rng.integers(cols, size=kept.size)] = 1.0
        return mat

    mixed = [
        (0.7, selection(2, 2), selection(3, 3), 0),
        (1.1, selection(2, 2), selection(3, 2), 1),
        (-0.3, selection(2, 2), None, 1),
        (0.5, np.eye(2), None, 0),
        (0.2, np.eye(2)[[1, 0]], np.eye(3)[[2, 0, 1]], 0),
    ]
    # partial selections as the builders form them: x.T @ q has a zero row
    # for each tableau that x does not select
    x = np.eye(2, 3, k=1)
    selections = [
        (1.0, x.T, x.T @ np.eye(2, 3), 0),
        (-1.0 / 3.0, x.T @ np.eye(2)[[1, 0]], np.eye(3, 2), 1),
        (0.5, x.T, None, 0),
    ]
    empty = [
        (0.9, np.zeros((2, 2)), selection(3, 3), 0),
        (0.6, selection(2, 2), selection(3, 2), 1),
        (0.4, np.zeros((2, 2)), None, 1),
    ]
    # traces over wide second factors: widths 3 and 2 of six-dimensional blocks
    traced = [
        (0.8, np.eye(2)[[1, 0]], None, 0),
        (-1.2, np.eye(2, 3, k=1), None, 1),
        (0.3, selection(2, 3), None, 1),
    ]
    # dyadic scales make the sums exact, so the first term cancels to zero,
    # and so do the rows only it reaches (output row 1, which the second
    # term's P leaves empty)
    ones = (0.5, np.eye(2)[[1, 0]], np.eye(3)[[0, 2, 1]], 0)
    kept = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    partial = [ones, (1.1, np.array([[0.0, 1.0], [0.0, 0.0]]), kept, 1)]
    partial.append((-ones[0],) + ones[1:])
    exact = [(0.5, x.T, x.T @ np.eye(2, 3), 0), (0.25, x.T, None, 0)]
    return {
        "mixed": (mixed, 2, 3, [6, 4]),
        "selections": (selections, 3, 3, [6, 4]),
        "empty_term": (empty, 2, 3, [6, 4]),
        "traced_wide": (traced, 2, 3, [6, 6]),
        "cancelling": (partial, 2, 3, [6, 4]),
        "all_cancel": (exact + [(-t[0],) + t[1:] for t in exact], 3, 3, [6, 4]),
    }


ENTRY_ROW_CASES = entry_row_cases()


def as_index_maps(terms, dims):
    """The terms as _entry_rows takes them, with each block's second-factor width.

    A 0/1 selection becomes the column of each row's 1, -1 for an empty row.
    """

    def index_map(mat):
        return np.where(mat.any(axis=1), mat.argmax(axis=1), -1)

    widths = [1] * len(dims)
    maps = []
    for scale, pm, qm, key in terms:
        widths[key] = dims[key] // pm.shape[1]
        maps.append((scale, index_map(pm), None if qm is None else index_map(qm), key))
    return maps, widths


def entry_rows_problem(terms, out_rows, out_cols, dims):
    """_entry_rows' reads of the terms, turned into rows by SdpProblem.from_reads."""
    maps, widths = as_index_maps(terms, dims)
    reads = cs._entry_rows(maps, out_rows, out_cols, widths)
    rhs = np.zeros(out_rows * out_cols * (out_rows * out_cols + 1) // 2)
    return SdpProblem.from_reads(dims, [np.zeros((s, s)) for s in dims], reads, rhs)


@pytest.mark.parametrize("case", list(ENTRY_ROW_CASES))
def test_entry_rows_match_dense_definition(case):
    terms, out_rows, out_cols, dims = ENTRY_ROW_CASES[case]
    a = entry_rows_problem(terms, out_rows, out_cols, dims).a
    assert a.has_canonical_format
    dense = dense_entry_rows(terms, out_rows, out_cols, dims)
    assert a.shape == dense.shape
    assert np.abs(a.toarray() - dense).max(initial=0.0) <= 1e-14


def test_entry_rows_sum_in_term_order():
    # 1 + 2^-53 rounds to 1, so the order of the three scales decides the row
    one = np.eye(1)
    tiny = 2.0**-53
    cases = [
        ([(1.0, one, one, 0), (tiny, one, one, 0), (-1.0, one, one, 0)], None),
        ([(1.0, one, one, 0), (-1.0, one, one, 0), (tiny, one, one, 0)], tiny),
        ([(1.0, one, None, 0), (-1.0, one, one, 0), (tiny, one, one, 0)], tiny),
    ]
    for terms, expected in cases:
        a = entry_rows_problem(terms, 1, 1, [1]).a
        if expected is None:
            assert a.shape == (0, 1)
        else:
            assert a.indices.tolist() == [0] and a.data.tolist() == [expected]


def test_builder_terms_are_selections(monkeypatch):
    # _entry_rows reads each term through index maps, which it does not
    # check: integer arrays with one entry per output row (p) or column (q),
    # each -1 or a tableau of the block's first (p) or second (q) factor
    entry_rows = cs._entry_rows
    seen = []
    block_dims = []

    def checked(terms, out_rows, out_cols, widths):
        for _, p, q, key in terms:
            maps = [(p, out_rows, block_dims[key] // widths[key])]
            maps += [] if q is None else [(q, out_cols, widths[key])]
            for index_map, length, width in maps:
                assert index_map.dtype.kind == "i" and index_map.shape == (length,)
                assert -1 <= index_map.min() and index_map.max() < width
                seen.append(index_map)
        return entry_rows(terms, out_rows, out_cols, widths)

    monkeypatch.setattr(cs, "_entry_rows", checked)
    cells = [(d, n) for d in range(2, 5) for n in range(1, 4)] + [(2, 4)]
    for d, n in cells:
        block_dims[:] = cs.reduced_block_dims(d, n)
        cs.build_sequential_sdp(d, n)
        cs.build_parallel_sdp(d, n)
    assert len(seen) > 1000
