"""Symmetry-reduced and full-space SDPs for optimal deterministic unitary inversion.

A comb with n slots over local dimension d is scored by the average-case
channel fidelity against the inverse of the unknown unitary.  Group
symmetry lets the comb's Choi matrix be replaced by one real PSD block per
ordered pair of (n+1)-box Young diagrams; the constraints couple blocks
through 0/1 tableau-embedding matrices and the objective touches only the
diagonal pairs through rank-one performance blocks.

The full-space programs on d^(2(n+1))-dimensional Choi matrices are kept
as brute-force oracles for cross-validating the reduction at desk scale.

Register bookkeeping for the full space: global factor order is
[P, I_1..I_n, O_1..O_n, F].  The commutant machinery treats the group
(I_1, ..., I_n, F) and the group (P, O_1, ..., O_n) as (n+1)-fold tensor
factors, in those orders, so "last factor" lemmas apply to F and O_n.  The
performance operator pairs (I_1..I_n, F) with (O_1..O_n, P) instead.  Each
commutant routine regroups the full-register matrix once into
(first group) x (second group) order with :func:`_regroup` and contracts
it against stacked matrix units with ``einsum``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

from . import tensor
from .sdp import SdpProblem, _SvecIndexer
from .symmetric_group import (
    YoungDiagram,
    cycle_permutation,
    embedding_matrix,
    matrix_unit,
    permutation_matrix,
    su_dim,
    tableau_count,
    young_diagrams,
)

FULL_SPACE_DIM_CAP = 4096
REDUCED_SVEC_CAP = 2000


@dataclass(frozen=True)
class PerformanceBlocks:
    """Rank-one objective blocks, one per diagram with n+1 boxes."""

    d: int
    n: int
    omega: dict[YoungDiagram, np.ndarray]


def performance_blocks(d: int, n: int) -> PerformanceBlocks:
    """Objective blocks [Omega_mu]_{ik,jl} = pi_{ik} pi_{jl} / (d^2 m_mu).

    pi is the orthogonal representation matrix of the long cycle on n+1
    letters, so each block is the outer product of its vectorization.  The
    cycle orientation (last letter to the front) is pinned by the Haar
    integral behind the objective: with the blocks' index convention, the
    pairing Tr(C^{mu mu} Omega_mu) must reproduce Tr(C Omega) on the full
    register space, and only this orientation does.
    """
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    cycle = cycle_permutation(n + 1)
    omega = {}
    for mu in young_diagrams(n + 1, d):
        pi = permutation_matrix(mu, cycle).T
        v = pi.reshape(-1)
        omega[mu] = np.outer(v, v) / (d * d * su_dim(mu, d))
    return PerformanceBlocks(d, n, omega)


@dataclass(frozen=True)
class ReducedComb:
    """Symmetry-reduced comb: one real block per ordered diagram pair.

    Block (mu, nu) has size d_mu*d_nu with row index (i, k): i runs over
    mu tableaux, k over nu tableaux, k fastest.
    """

    d: int
    n: int
    blocks: dict[tuple[YoungDiagram, YoungDiagram], np.ndarray]

    def __post_init__(self):
        shapes = set(young_diagrams(self.n + 1, self.d))
        for (mu, nu), mat in self.blocks.items():
            if mu not in shapes or nu not in shapes:
                raise ValueError(f"unexpected diagram pair {(mu.rows, nu.rows)}")
            size = tableau_count(mu) * tableau_count(nu)
            if mat.shape != (size, size):
                raise ValueError(
                    f"block {(mu.rows, nu.rows)} has shape {mat.shape}, expected {size}"
                )
        missing = {
            (mu, nu)
            for mu in shapes
            for nu in shapes
            if (mu, nu) not in self.blocks
        }
        if missing:
            raise ValueError(f"missing blocks for {sorted((m.rows, n_.rows) for m, n_ in missing)}")


def evaluate_fidelity(comb: ReducedComb, blocks: PerformanceBlocks) -> float:
    """Objective value sum_mu Tr(C^{mu mu} Omega_mu); off-diagonal pairs never enter."""
    if (comb.d, comb.n) != (blocks.d, blocks.n):
        raise ValueError("comb and performance blocks have mismatched (d, n)")
    total = 0.0
    for mu, omega in blocks.omega.items():
        total += float(np.tensordot(comb.blocks[(mu, mu)], omega))
    return total


def block_keys(d: int, n: int) -> list[tuple[YoungDiagram, YoungDiagram]]:
    shapes = young_diagrams(n + 1, d)
    return [(mu, nu) for mu in shapes for nu in shapes]


def reduced_block_dims(d: int, n: int) -> list[int]:
    return [tableau_count(mu) * tableau_count(nu) for mu, nu in block_keys(d, n)]


def reduced_svec_size(d: int, n: int) -> int:
    return sum(s * (s + 1) // 2 for s in reduced_block_dims(d, n))


def solution_blocks_to_comb(d: int, n: int, blocks: list[np.ndarray]) -> ReducedComb:
    keys = block_keys(d, n)
    return ReducedComb(d, n, {k: b for k, b in zip(keys, blocks)})


def _objective_list(d: int, n: int) -> list[np.ndarray]:
    perf = performance_blocks(d, n)
    out = []
    for mu, nu in block_keys(d, n):
        size = tableau_count(mu) * tableau_count(nu)
        out.append(perf.omega[mu].copy() if mu == nu else np.zeros((size, size)))
    return out


def _entry_rows(
    terms: list[tuple[float, np.ndarray, np.ndarray | None, int]],
    out_rows: int,
    out_cols: int,
    indexer: _SvecIndexer,
) -> scipy.sparse.csr_matrix:
    """Rows of a homogeneous matrix identity sum_t scale * T_t(C_t) = 0.

    ``terms`` lists (scale, P, Q, block_index).  With a matrix Q the term is
    (P x Q) C (P x Q)^T; with Q = None it is the partial trace
    Tr_2[(P x 1) C (P x 1)^T] x 1 over the block's second factor, which
    pairs only output entries with equal column labels.  One row per
    upper-triangle entry (p, q) of the (out_rows*out_cols) output matrix,
    row-major, with coefficients symmetrized and summed in term order; rows
    without a nonzero coefficient are dropped.
    """
    size = out_rows * out_cols
    keys, values = [], []
    for scale, pm, qm, key in terms:
        if qm is None:
            width = indexer.dims[key] // pm.shape[1]
            u = np.kron(pm, np.ones((out_cols, width)))
            p, c = np.nonzero(u)
            label = p % out_cols * width + c % width
        else:
            u = np.kron(pm, qm)
            p, c = np.nonzero(u)
            label = np.zeros_like(p)
        # entry (p, q), p <= q, pairs the nonzeros of rows p and q of u that
        # carry equal labels (the output column and the traced index)
        first, second = np.nonzero((p[:, None] <= p[None, :]) & (label[:, None] == label[None, :]))
        p, q, r, c = p[first], p[second], c[second], c[first]
        val = scale * (u[q, r] * u[p, c])
        lo, hi = np.minimum(r, c), np.maximum(r, c)
        pair = p * size - p * (p - 1) // 2 + q - p
        keys.append(pair * indexer.total + indexer.column(key, lo, hi))
        values.append(np.where(lo == hi, val, val / 2.0))
    entries, where = np.unique(np.concatenate(keys), return_inverse=True)
    acc = np.zeros(entries.size)
    np.add.at(acc, where, np.concatenate(values))
    pair, col = np.divmod(entries, indexer.total)
    acc *= indexer.scale_vector[col]
    nonzero = acc != 0.0
    present, row = np.unique(pair[nonzero], return_inverse=True)
    return scipy.sparse.csr_matrix(
        (acc[nonzero], (row, col[nonzero])), shape=(present.size, indexer.total)
    )


def _reduced_problem(d: int, n: int, mode: str, indexer: _SvecIndexer, row_sets) -> SdpProblem:
    """Stack homogeneous row sets, then the trace normalization, into one program."""
    # normalization: the fully contracted scalar equals one, i.e. the total
    # trace over all blocks is d^(n+1)
    trace = scipy.sparse.csr_matrix(indexer.pack([np.eye(s) for s in indexer.dims]))
    a = scipy.sparse.vstack(row_sets + [trace], format="csr")
    rhs = np.zeros(a.shape[0])
    rhs[-1] = float(d ** (n + 1))
    problem = SdpProblem(
        indexer.dims, _objective_list(d, n), a, rhs, metadata={"d": d, "n": n, "mode": mode}
    )
    problem.validate()
    return problem


def _shape_chains(base: YoungDiagram, top_boxes: int, d: int) -> list[tuple[YoungDiagram, ...]]:
    """Single-box growth chains from ``base`` up to ``top_boxes`` within depth d."""
    if base.boxes == top_boxes:
        return [(base,)]
    out = []
    for child in base.children(max_depth=d):
        for tail in _shape_chains(child, top_boxes, d):
            out.append((base,) + tail)
    return out


def _chain_matrix(chain: tuple[YoungDiagram, ...]) -> np.ndarray:
    mat = np.eye(tableau_count(chain[0]))
    for parent, child in zip(chain, chain[1:]):
        mat = mat @ embedding_matrix(parent, child)
    return mat


def build_sequential_sdp(d: int, n: int) -> SdpProblem:
    """Reduced SDP for the best fidelity with n sequential calls.

    Variables are the blocks C^{mu nu}.  A level-i block is the 1/d-scaled
    sum of conjugations of top-level blocks, one conjugation per pair of
    single-box growth chains (unrolling the level recursion keeps chains
    separate; collapsing them into one restriction matrix would add
    spurious cross terms).  Each level contributes one matrix equality per
    (gamma, beta) pair of diagrams with i-1 and i boxes, and the recursion
    bottoms out in the trace normalization.
    """
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    key_index = {k: i for i, k in enumerate(block_keys(d, n))}
    indexer = _SvecIndexer(reduced_block_dims(d, n))
    top = n + 1

    def level_terms(alpha: YoungDiagram, beta: YoungDiagram, level: int):
        """(scale, P, Q, block) with C_level^{alpha beta} = sum scale*(P x Q) C (P x Q)^T."""
        out = []
        scale = float(d) ** -(top - level)
        left = [(c[-1], _chain_matrix(c)) for c in _shape_chains(alpha, top, d)]
        right = [(c[-1], _chain_matrix(c)) for c in _shape_chains(beta, top, d)]
        for mu, p in left:
            for nu, q in right:
                out.append((scale, p, q, key_index[(mu, nu)]))
        return out

    row_sets = []
    for level in range(1, top + 1):
        for gamma in young_diagrams(level - 1, d):
            for beta in young_diagrams(level, d):
                terms = []
                for alpha in gamma.children(max_depth=d):
                    x = embedding_matrix(gamma, alpha)
                    for scale, p, q, key in level_terms(alpha, beta, level):
                        terms.append((scale / su_dim(beta, d), x @ p, q, key))
                for delta in beta.parents():
                    x = embedding_matrix(delta, beta)
                    for scale, p, q, key in level_terms(gamma, delta, level - 1):
                        terms.append((-scale / su_dim(delta, d), p, x.T @ q, key))
                row_sets.append(
                    _entry_rows(terms, tableau_count(gamma), tableau_count(beta), indexer)
                )
    return _reduced_problem(d, n, "seq", indexer, row_sets)


def build_parallel_sdp(d: int, n: int) -> SdpProblem:
    """Reduced SDP for the best fidelity with n parallel calls.

    The auxiliary per-diagram matrix coupling the constraint family is
    linear in the variables and eliminated by substitution, leaving
    homogeneous equalities plus the trace normalization.
    """
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    key_index = {k: i for i, k in enumerate(block_keys(d, n))}
    indexer = _SvecIndexer(reduced_block_dims(d, n))
    shapes_top = young_diagrams(n + 1, d)
    row_sets = []
    for alpha in young_diagrams(n, d):
        children = alpha.children(max_depth=d)
        embeddings = {mu: embedding_matrix(alpha, mu) for mu in children}
        # substituted right-hand side: (D^alpha)_{a1 a2} * delta_{k1 k2} / d^(n+1)
        # with D^alpha = sum_{mu, nu'} Tr_2[(X x 1) C^{mu nu'} (X x 1)^T]
        trace_terms = [
            (-1.0 / (d ** (n + 1)), embeddings[mu], None, key_index[(mu, nu)])
            for mu in children
            for nu in shapes_top
        ]
        for nu in shapes_top:
            d_nu = tableau_count(nu)
            terms = [
                (1.0 / su_dim(nu, d), embeddings[mu], np.eye(d_nu), key_index[(mu, nu)])
                for mu in children
            ]
            row_sets.append(
                _entry_rows(terms + trace_terms, tableau_count(alpha), d_nu, indexer)
            )
    return _reduced_problem(d, n, "par", indexer, row_sets)


# ---------------------------------------------------------------------------
# Full-space oracles
# ---------------------------------------------------------------------------


def full_register_dims(d: int, n: int) -> tuple[int, ...]:
    return (d,) * (2 * n + 2)


def register_indices(n: int) -> dict[str, object]:
    """Positions in the global order [P, I_1..I_n, O_1..O_n, F]."""
    return {
        "P": 0,
        "I": tuple(range(1, n + 1)),
        "O": tuple(range(n + 1, 2 * n + 1)),
        "F": 2 * n + 1,
    }


def _regroup(mat: np.ndarray, d: int, order, inverse: bool = False) -> np.ndarray:
    """Reorder the tensor factors of a full-register matrix.

    Factor k of the result is factor ``order[k]`` of ``mat``; with
    ``inverse`` the reordering is undone instead.
    """
    count = len(order)
    axes = [int(a) for a in (np.argsort(order) if inverse else order)]
    total = d**count
    shaped = mat.reshape((d,) * (2 * count))
    return shaped.transpose(axes + [count + a for a in axes]).reshape(total, total)


def _commutant_groups(n: int) -> tuple[list[int], list[int]]:
    """Register positions of the groups (I_1..I_n, F) and (P, O_1..O_n)."""
    reg = register_indices(n)
    return list(reg["I"]) + [reg["F"]], [reg["P"]] + list(reg["O"])


@lru_cache(maxsize=None)
def _matrix_units(mu: YoungDiagram, d: int) -> np.ndarray:
    """Read-only stack E[i, j] = E^mu_ij on (C^d)^(boxes)."""
    count = tableau_count(mu)
    stack = np.array(
        [[matrix_unit(mu, i, j, d) for j in range(count)] for i in range(count)]
    )
    stack.setflags(write=False)
    return stack


def full_performance_operator(d: int, n: int) -> np.ndarray:
    """Haar-averaged objective on the full register space.

    Sum over diagrams mu and tableau pairs (i, j) of E^mu_ij on the group
    (I_1..I_n, F) times E^mu_ij on the group (O_1..O_n, P), over d^2 m_mu;
    the second group's order encodes the cyclic pairing between the
    future/past registers and the call slots.
    """
    side = d ** (n + 1)
    omega = np.zeros((side,) * 4)
    for mu in young_diagrams(n + 1, d):
        e = _matrix_units(mu, d)
        omega += np.einsum("ijac,ijbd->abcd", e, e, optimize=True) / (d * d * su_dim(mu, d))
    inputs, outputs = _commutant_groups(n)
    order = inputs + outputs[1:] + outputs[:1]
    return _regroup(omega.reshape(side * side, -1), d, order, inverse=True)


def _ptrace(mat: np.ndarray, keep: list[int], dims: tuple[int, ...]) -> np.ndarray:
    return tensor.partial_trace(mat, keep, dims=dims).entries.real


def _full_rows(lhs_coeff, out_regs: list[int], dims: tuple[int, ...], rhs_fn):
    """Rows Tr(A C) = rhs for each upper-triangle entry of a register-matrix identity.

    ``lhs_coeff(e)`` maps an elementary output matrix to the coefficient
    matrix A via adjoints of the partial traces and embeddings involved.
    Yields ({0: A}, rhs) pairs for :meth:`SdpProblem.from_rows`.
    """
    out_dim = int(np.prod([dims[r] for r in out_regs])) if out_regs else 1
    for p in range(out_dim):
        for q in range(p, out_dim):
            e = np.zeros((out_dim, out_dim))
            e[p, q] = 0.5
            e[q, p] += 0.5
            coeff = lhs_coeff(e)
            yield {0: (coeff + coeff.T) / 2.0}, rhs_fn(p, q)


def build_full_sdp(d: int, n: int, mode: str, dim_cap: int = FULL_SPACE_DIM_CAP) -> SdpProblem:
    """Brute-force SDP on the unreduced Choi matrix (oracle use only)."""
    if mode not in ("seq", "par"):
        raise ValueError("mode must be 'seq' or 'par'")
    total = d ** (2 * n + 2)
    if total > dim_cap:
        raise ValueError(
            f"full-space dimension {total} exceeds cap {dim_cap} for (d={d}, n={n})"
        )
    dims = full_register_dims(d, n)
    reg = register_indices(n)
    all_regs = list(range(2 * n + 2))
    row_sets = []

    if mode == "seq":
        # level i spaces: C_i lives on (P, I_1..I_i, O_1..O_{i-1})
        for i in range(1, n + 2):
            i_regs = list(reg["I"][: min(i, n)]) + ([reg["F"]] if i == n + 1 else [])
            o_regs = list(reg["O"][: i - 1])
            kept_i = sorted([reg["P"]] + i_regs + o_regs)
            drop_count = (n + 1 - i)
            scale_i = float(d ** -drop_count)
            last_i = i_regs[-1]
            lhs_regs = sorted(set(kept_i) - {last_i})
            rhs_inner = sorted(set(lhs_regs) - ({o_regs[-1]} if o_regs else {reg["P"]}))
            scale_im1 = float(d ** -(drop_count + 1))

            def lhs_coeff(e, lhs_regs=lhs_regs, scale_i=scale_i, rhs_inner=rhs_inner,
                          scale_im1=scale_im1):
                a = scale_i * tensor.embed_operator(e, lhs_regs, dims).real
                if rhs_inner:
                    inner = _ptrace(
                        e,
                        [lhs_regs.index(r) for r in rhs_inner],
                        tuple(dims[r] for r in lhs_regs),
                    )
                    b = scale_im1 * tensor.embed_operator(inner, rhs_inner, dims).real
                else:
                    b = scale_im1 * float(np.trace(e)) * np.eye(total)
                return a - b

            row_sets.append(_full_rows(lhs_coeff, lhs_regs, dims, lambda p, q: 0.0))
        # normalization: fully contracted scalar equals one
        row_sets.append([({0: np.eye(total) * float(d ** -(n + 1))}, 1.0)])
    else:
        # parallel: Tr_F C = Tr_{O F} C x 1_O / d^n  and  Tr_{I O F} C = d^n 1_P
        f_reg = reg["F"]
        lhs_regs = sorted(set(all_regs) - {f_reg})
        inner_regs = sorted([reg["P"]] + list(reg["I"]))

        def par_coeff(e):
            a = tensor.embed_operator(e, lhs_regs, dims).real
            inner = _ptrace(
                e,
                [lhs_regs.index(r) for r in inner_regs],
                tuple(dims[r] for r in lhs_regs),
            )
            b = tensor.embed_operator(inner, inner_regs, dims).real / float(d**n)
            return a - b

        row_sets.append(_full_rows(par_coeff, lhs_regs, dims, lambda p, q: 0.0))

        def p_coeff(e):
            return tensor.embed_operator(e, [reg["P"]], dims).real

        row_sets.append(
            _full_rows(
                p_coeff,
                [reg["P"]],
                dims,
                lambda p, q: float(d**n) if p == q else 0.0,
            )
        )

    omega = full_performance_operator(d, n)
    return SdpProblem.from_rows(
        [total],
        [(omega + omega.T) / 2.0],
        itertools.chain.from_iterable(row_sets),
        metadata={"d": d, "n": n, "mode": f"full-{mode}"},
    )


def maximally_mixed_comb(d: int, n: int) -> np.ndarray:
    """Feasible comb for both orders: ignore everything, output white noise."""
    total = d ** (2 * n + 2)
    return np.eye(total) / float(d ** (n + 1))


def check_commutant_symmetry(full: np.ndarray, d: int, n: int, samples: int = 2, seed: int = 1234) -> float:
    """Largest commutator norm against sampled collective rotations.

    The rotations are v^(x n+1) on (I_1..I_n, F) times w^(x n+1) on
    (P, O_1..O_n); the commutator is taken in that grouped order, which
    only permutes its entries.
    """
    inputs, outputs = _commutant_groups(n)
    mat = _regroup(np.asarray(full), d, inputs + outputs)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        v = tensor.haar_unitary(d, rng).entries
        w = tensor.haar_unitary(d, rng).entries
        big = np.kron(tensor.kron_all(*([v] * (n + 1))), tensor.kron_all(*([w] * (n + 1))))
        comm = mat @ big - big @ mat
        worst = max(worst, float(np.abs(comm).max()))
    return worst


def reduce_comb(full: np.ndarray | tensor.DensityOrChoiMatrix, d: int, n: int) -> ReducedComb:
    """Extract reduced blocks from a collectively symmetric full-space matrix.

    Block entry [(i, k), (j, l)] of pair (mu, nu) is the Hilbert-Schmidt
    pairing Tr(C . E^mu_ji on (I_1..I_n, F) . E^nu_lk on (P, O_1..O_n)),
    real part.  With C regrouped to that order as C[x, y, u, v] (row
    (x, y), column (u, v)) this is the contraction
    sum C[x, y, u, v] E^mu_ji[u, x] E^nu_lk[v, y].  Round-tripping through
    :func:`expand_comb` reproduces the input for matrices inside the
    commutant.
    """
    mat = full.entries if isinstance(full, tensor.DensityOrChoiMatrix) else np.asarray(full)
    total = d ** (2 * n + 2)
    if mat.shape != (total, total):
        raise ValueError(f"matrix shape {mat.shape} does not match (d={d}, n={n})")
    sym_err = check_commutant_symmetry(mat, d, n)
    if sym_err > 1e-8 * max(1.0, float(np.abs(mat).max())):
        raise ValueError(f"input is not collectively symmetric (deviation {sym_err:.3e})")
    side = d ** (n + 1)
    inputs, outputs = _commutant_groups(n)
    grouped = _regroup(np.real(mat), d, inputs + outputs).reshape((side,) * 4)
    blocks: dict[tuple[YoungDiagram, YoungDiagram], np.ndarray] = {}
    for mu in young_diagrams(n + 1, d):
        for nu in young_diagrams(n + 1, d):
            size = tableau_count(mu) * tableau_count(nu)
            block = np.einsum(
                "xyuv,jiux,lkvy->ikjl", grouped, _matrix_units(mu, d), _matrix_units(nu, d),
                optimize=True,
            )
            blocks[(mu, nu)] = block.reshape(size, size)
    return ReducedComb(d, n, blocks)


def expand_comb(comb: ReducedComb) -> np.ndarray:
    """Rebuild the full-space matrix from reduced blocks.

    The inverse of :func:`reduce_comb` on the commutant: the sum of
    block[(i, k), (j, l)] / (m_mu m_nu) times E^mu_ij on (I_1..I_n, F)
    times E^nu_kl on (P, O_1..O_n).
    """
    d, n = comb.d, comb.n
    side = d ** (n + 1)
    out = np.zeros((side,) * 4)
    for (mu, nu), block in comb.blocks.items():
        d_mu, d_nu = tableau_count(mu), tableau_count(nu)
        coeff = block.reshape(d_mu, d_nu, d_mu, d_nu) / (su_dim(mu, d) * su_dim(nu, d))
        out += np.einsum(
            "ikjl,ijac,klbd->abcd", coeff, _matrix_units(mu, d), _matrix_units(nu, d),
            optimize=True,
        )
    inputs, outputs = _commutant_groups(n)
    return _regroup(out.reshape(side * side, -1), d, inputs + outputs, inverse=True)
