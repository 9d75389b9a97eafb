"""Symmetry-reduced and full-space SDPs for optimal deterministic unitary inversion.

A comb with n slots over local dimension d is scored by the average-case
channel fidelity against the inverse of the unknown unitary.  Group
symmetry replaces the comb's Choi matrix by a :class:`ReducedComb`, one real
PSD block per ordered pair of (n+1)-box Young diagrams; the objective is a
ReducedComb too, rank-one on the diagonal pairs and zero elsewhere.  The
constraints couple blocks through 0/1 tableau-embedding matrices, which the
builders carry as index maps, stating every row as reads of block entries
that :meth:`sdp.SdpProblem.from_reads` turns into svec rows.

The full-space programs on d^(2(n+1))-dimensional Choi matrices are kept
as brute-force oracles for cross-validating the reduction at desk scale.

Register bookkeeping for the full space: global factor order is
[P, I_1..I_n, O_1..O_n, F].  The commutant machinery treats the group
(I_1, ..., I_n, F) and the group (P, O_1, ..., O_n) as (n+1)-fold tensor
factors, in those orders, so "last factor" lemmas apply to F and O_n.  The
performance operator pairs (I_1..I_n, F) with (O_1..O_n, P) instead.  Each
commutant routine regroups the full-register matrix once into
(first group) x (second group) order with :func:`tensor.permute_factors`
and contracts it with ``einsum`` against the one cached stack of matrix
units per diagram, :func:`symmetric_group.matrix_unit`.  The same stacks
give reduce-then-expand as an exact projection onto the commutant, which is
how :func:`reduce_comb` tests membership.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor
from .sdp import SdpProblem
from .symmetric_group import (
    children,
    cycle_permutation,
    embedding_matrix,
    matrix_unit,
    parents,
    permutation_matrix,
    su_dim,
    tableau_count,
    young_diagrams,
)

@dataclass(frozen=True)
class ReducedComb:
    """Reduced operator on the commutant, a comb or the objective: one real block per ordered diagram pair.

    Block (mu, nu) has size d_mu*d_nu with row index (i, k): i runs over mu
    tableaux, k over nu tableaux, k fastest.
    """

    d: int
    n: int
    blocks: dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray]

    def __post_init__(self):
        keys = block_keys(self.d, self.n)
        unexpected = [key for key in self.blocks if key not in keys]
        missing = [key for key in keys if key not in self.blocks]
        if unexpected or missing:
            raise ValueError(f"unexpected diagram pairs {unexpected}, missing blocks for {missing}")
        for (mu, nu), mat in self.blocks.items():
            size = tableau_count(mu) * tableau_count(nu)
            if mat.shape != (size, size):
                raise ValueError(f"block {(mu, nu)} has shape {mat.shape}, expected {size}")


def performance_blocks(d: int, n: int) -> ReducedComb:
    """Reduced objective Omega, zero off the diagonal pairs: [Omega_mu]_{ik,jl} = pi_ik pi_jl / (d^2 m_mu).

    pi is the orthogonal representation matrix of the long cycle on n+1
    letters, so each diagonal block is the outer product of its
    vectorization.  The cycle orientation (last letter to the front) is
    pinned by the Haar integral behind the objective: with the blocks' index
    convention, the pairing Tr(C^{mu mu} Omega_mu) must reproduce Tr(C Omega)
    on the full register space, and only this orientation does.
    """
    blocks = {(mu, nu): np.zeros((tableau_count(mu) * tableau_count(nu),) * 2) for mu, nu in block_keys(d, n)}
    cycle = cycle_permutation(n + 1)
    for mu in young_diagrams(n + 1, d):
        v = permutation_matrix(mu, cycle).T.reshape(-1)
        blocks[(mu, mu)] = np.outer(v, v) / (d * d * su_dim(mu, d))
    return ReducedComb(d, n, blocks)


def evaluate_fidelity(comb: ReducedComb) -> float:
    """Objective value Tr(C Omega) = sum_mu Tr(C^{mu mu} Omega_mu), Omega from :func:`performance_blocks`."""
    objective = performance_blocks(comb.d, comb.n).blocks
    return sum(float(np.tensordot(comb.blocks[key], omega)) for key, omega in objective.items())


def block_keys(d: int, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The reduced comb's ordered diagram pairs; the size check of every reduced entry point."""
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    shapes = young_diagrams(n + 1, d)
    return [(mu, nu) for mu in shapes for nu in shapes]


def reduced_block_dims(d: int, n: int) -> list[int]:
    return [tableau_count(mu) * tableau_count(nu) for mu, nu in block_keys(d, n)]


def reduced_svec_size(d: int, n: int) -> int:
    return sum(s * (s + 1) // 2 for s in reduced_block_dims(d, n))


def solution_blocks_to_comb(d: int, n: int, blocks: list[np.ndarray]) -> ReducedComb:
    return ReducedComb(d, n, dict(zip(block_keys(d, n), blocks, strict=True)))


def _entry_rows(
    terms: list[tuple[float, np.ndarray, np.ndarray | None, int]],
    out_rows: int,
    out_cols: int,
    widths: list[int],
) -> tuple[np.ndarray, ...]:
    """Reads (row, block, r, c, weight) of a homogeneous identity sum_t scale * T_t(C_t) = 0.

    ``terms`` lists (scale, p, q, block_index).  p and q are index maps of
    0/1 selections, as tableau embeddings and their products are: p[a] is
    the column of row a's 1, or -1 for an empty row.  With a map q the term
    is (P x Q) C (P x Q)^T, whose entry ((a, k), (b, l)) reads C at
    ((p[a], q[k]), (p[b], q[l])); with q = None it is the partial trace
    Tr_2[(P x 1) C (P x 1)^T] x 1 over the block's second factor of
    ``widths[block]`` tableaux, which reads ((p[a], w), (p[b], w)) for every
    w, where k = l only.  Row j is the j-th upper-triangle entry of the
    (out_rows*out_cols) output, row-major.  The reads come in term order,
    the order :meth:`SdpProblem.from_reads` sums them in, and none repeats
    within a term, so the rows equal per-term sums of dense Kronecker
    products to the last bit, which keeps the solver's trajectories.
    """
    reads = []  # (scale, p, q, block, k = l only)
    for scale, p, q, key in terms:
        if q is None:  # the sum over w of the terms with q = w, at k = l only
            reads += [(scale, p, np.full(out_cols, w), key, True) for w in range(widths[key])]
        else:
            reads.append((scale, p, q, key, False))
    scales, p_at, q_at, blocks, traced = map(np.array, zip(*reads))
    p_at, q_at = p_at[:, :, None], q_at[:, None, :]
    u = p_at * np.asarray(widths)[blocks][:, None, None] + q_at
    u = np.where((p_at < 0) | (q_at < 0), -1, u).reshape(len(reads), -1)
    first, second = np.triu_indices(out_rows * out_cols)
    r, c = u[:, second], u[:, first]
    same = first % out_cols == second % out_cols
    read, row = np.nonzero((r >= 0) & (c >= 0) & (same | ~traced[:, None]))
    return row, blocks[read], r[read, row], c[read, row], scales[read]


def _reduced_problem(d: int, n: int, mode: str, identities) -> SdpProblem:
    """One program from homogeneous identities (terms, out_rows, out_cols), then the trace row."""
    dims = reduced_block_dims(d, n)
    widths = [tableau_count(nu) for _, nu in block_keys(d, n)]
    # normalization: the fully contracted scalar equals one, i.e. the total
    # trace over all blocks is d^(n+1)
    diagonal = np.concatenate([np.arange(s) for s in dims])
    block = np.repeat(np.arange(len(dims)), dims)
    trace = (np.zeros_like(diagonal), block, diagonal, diagonal, np.ones(diagonal.size))
    parts, start = [], 0
    for row, *rest in [_entry_rows(*identity, widths) for identity in identities] + [trace]:
        parts.append((row + start, *rest))
        # rows past an identity's last read are empty and homogeneous, so they are dropped anyway
        start += int(row.max(initial=-1)) + 1
    rhs = np.zeros(start)
    rhs[-1] = float(d ** (n + 1))
    reads = [np.concatenate(v) for v in zip(*parts)]
    objective = list(performance_blocks(d, n).blocks.values())
    return SdpProblem.from_reads(dims, objective, reads, rhs, {"d": d, "n": n, "mode": mode})


def _embedding_map(parent: tuple[int, ...], child: tuple[int, ...]) -> np.ndarray:
    """Index map of :func:`embedding_matrix`: the child tableau extending each parent tableau."""
    return embedding_matrix(parent, child).argmax(1)


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
    key_index = {k: i for i, k in enumerate(block_keys(d, n))}
    top = n + 1

    @functools.cache
    def chains(alpha: tuple[int, ...]):
        """(top diagram, map of the embedding product) per single-box growth chain from alpha."""
        if sum(alpha) == top:
            return [(alpha, np.arange(tableau_count(alpha)))]
        out = []
        for child in children(alpha, max_depth=d):
            x = _embedding_map(alpha, child)  # the child's chains with alpha -> child in front
            out += [(mu, p[x]) for mu, p in chains(child)]
        return out

    @functools.cache
    def shrunk(delta: tuple[int, ...], beta: tuple[int, ...]):
        """delta's chains with the delta -> beta embedding X in front: (top, map of X^T Q) per chain."""
        back = np.full(tableau_count(beta), -1)  # back[x[a]] = a; -1 where X^T has an empty row
        back[_embedding_map(delta, beta)] = np.arange(tableau_count(delta))
        return [(nu, np.where(back < 0, -1, q[back])) for nu, q in chains(delta)]

    identities = []
    for level in range(1, top + 1):
        betas = young_diagrams(level, d)
        for gamma in young_diagrams(level - 1, d):
            for beta in betas:
                sums = [(float(d) ** -(top - level) / su_dim(beta, d), chains(beta))] + [
                    (-float(d) ** -(top - level + 1) / su_dim(delta, d), shrunk(delta, beta))
                    for delta in parents(beta)
                ]
                terms = [
                    (scale, p, q, key_index[(mu, nu)])
                    for scale, right in sums
                    for mu, p in chains(gamma)
                    for nu, q in right
                ]
                identities.append((terms, tableau_count(gamma), tableau_count(beta)))
    return _reduced_problem(d, n, "seq", identities)


def build_parallel_sdp(d: int, n: int) -> SdpProblem:
    """Reduced SDP for the best fidelity with n parallel calls.

    The auxiliary per-diagram matrix coupling the constraint family is
    linear in the variables and eliminated by substitution, leaving
    homogeneous equalities plus the trace normalization.
    """
    key_index = {k: i for i, k in enumerate(block_keys(d, n))}
    shapes_top = young_diagrams(n + 1, d)
    identities = []
    for alpha in young_diagrams(n, d):
        extensions = children(alpha, max_depth=d)
        embeddings = {mu: _embedding_map(alpha, mu) for mu in extensions}
        # substituted right-hand side: (D^alpha)_{a1 a2} * delta_{k1 k2} / d^(n+1)
        # with D^alpha = sum_{mu, nu'} Tr_2[(X x 1) C^{mu nu'} (X x 1)^T]
        trace_terms = [
            (-1.0 / (d ** (n + 1)), embeddings[mu], None, key_index[(mu, nu)])
            for mu in extensions
            for nu in shapes_top
        ]
        for nu in shapes_top:
            d_nu = tableau_count(nu)
            terms = [
                (1.0 / su_dim(nu, d), embeddings[mu], np.arange(d_nu), key_index[(mu, nu)])
                for mu in extensions
            ]
            identities.append((terms + trace_terms, tableau_count(alpha), d_nu))
    return _reduced_problem(d, n, "par", identities)


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


def _commutant_groups(n: int) -> tuple[list[int], list[int]]:
    """Register positions of the groups (I_1..I_n, F) and (P, O_1..O_n)."""
    reg = register_indices(n)
    return list(reg["I"]) + [reg["F"]], [reg["P"]] + list(reg["O"])


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
        e = matrix_unit(mu, d)
        omega += np.einsum("ijac,ijbd->abcd", e, e, optimize=True) / (d * d * su_dim(mu, d))
    inputs, outputs = _commutant_groups(n)
    order = inputs + outputs[1:] + outputs[:1]
    return tensor.permute_factors(
        omega.reshape(side * side, -1), full_register_dims(d, n), np.argsort(order)
    )


def build_full_sdp(d: int, n: int, mode: str) -> SdpProblem:
    """Brute-force SDP on the unreduced Choi matrix (oracle use only).

    Each family (out, inner, (a, b), diag) is the register identity
    a Tr_~out(C) - b Tr_~inner(C) x 1 = diag 1, the lifted registers last in
    ``out`` (``inner=None`` drops the second term; [] is the total trace),
    with one row per upper-triangle entry of the out-register identity.
    The adjoint of a partial trace copies each out entry onto every entry
    of C that it sums, so one embedding of a matrix of row labels over
    ``out`` places every row's first term, and one embedding of each lifted
    value's labels over ``inner`` its second; each label on C's upper
    triangle is one read of that row.  An entry of C meets at most
    one row per term, and a sum of two terms does not depend on their
    order, so the rows match dense per-row adjoints bitwise.
    """
    if mode not in ("seq", "par"):
        raise ValueError("mode must be 'seq' or 'par'")
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    total = d ** (2 * n + 2)
    dims = full_register_dims(d, n)
    reg = register_indices(n)
    if mode == "seq":
        # level i: C_i = d^-(n+1-i) Tr C over all but (P, I_1..I_i, O_1..O_{i-1}),
        # F counting as I_{n+1}; Tr_{I_i} C_i = C_{i-1} x 1 on O_{i-1} (on P at
        # i = 1, where C_0 = d^-(n+1) Tr C is a scalar)
        families = []
        for i in range(1, n + 2):
            out = [reg["P"]] + list(reg["I"][: i - 1]) + list(reg["O"][: i - 1])
            lifted = reg["O"][i - 2] if i > 1 else reg["P"]
            inner = [r for r in out if r != lifted]
            scales = (float(d ** -(n + 1 - i)), float(d ** -(n + 2 - i)))
            families.append((out, inner, scales, 0.0))
        # normalization: fully contracted scalar equals one
        families.append(([], None, (float(d ** -(n + 1)), 0.0), 1.0))
    else:
        # parallel: Tr_F C = Tr_{O F} C x 1_O / d^n  and  Tr_{I O F} C = d^n 1_P
        families = [
            (list(range(2 * n + 1)), [reg["P"]] + list(reg["I"]), (1.0, 1.0 / float(d**n)), 0.0),
            ([reg["P"]], None, (1.0, 0.0), float(d**n)),
        ]
    upper = np.triu_indices(total)
    parts, rhs = [], []
    for out, inner, (a, b), diag in families:
        side = d ** len(out)
        p, q = np.triu_indices(side)
        label = np.zeros((side, side))  # rows count from 1: 0 marks no row
        label[p, q] = label[q, p] = sum(map(len, rhs)) + 1 + np.arange(p.size)
        lift = 0 if inner is None else side // d ** len(inner)
        terms = [(a, label, out)] + [(-b, label[l::lift, l::lift], inner) for l in range(lift)]
        for scale, labels, regs in terms:
            hit = tensor.embed_operator(labels, regs, dims)[upper]
            col = np.flatnonzero(hit)
            parts.append((hit[col].astype(int) - 1, upper[0][col], upper[1][col], np.full(col.size, scale)))
        rhs.append(np.where(p == q, diag, 0.0))
    row, r, c, weight = map(np.concatenate, zip(*parts))
    omega = full_performance_operator(d, n)
    return SdpProblem.from_reads(
        [total], [(omega + omega.T) / 2.0], (row, np.zeros_like(row), r, c, weight),
        np.concatenate(rhs), {"d": d, "n": n, "mode": f"full-{mode}"},
    )


def reduce_comb(full: np.ndarray, d: int, n: int) -> ReducedComb:
    """Extract reduced blocks from a collectively symmetric full-space matrix.

    Block entry [(i, k), (j, l)] of pair (mu, nu) is the Hilbert-Schmidt
    pairing Tr(C . E^mu_ji on (I_1..I_n, F) . E^nu_lk on (P, O_1..O_n)),
    real part.  With C regrouped to that order as C[x, y, u, v] (row
    (x, y), column (u, v)) this is the contraction
    sum C[x, y, u, v] E^mu_ji[u, x] E^nu_lk[v, y].  The units are
    Hilbert-Schmidt orthogonal with squared norm m_mu m_nu, so
    :func:`expand_comb` of these blocks is the orthogonal projection of C
    onto the real commutant.  C is rejected when it has a non-finite entry
    or differs from that projection by more than 1e-8 max(1, max|C|).
    """
    mat = np.asarray(full)
    total = d ** (2 * n + 2)
    if mat.shape != (total, total):
        raise ValueError(f"matrix shape {mat.shape} does not match (d={d}, n={n})")
    # a NaN would pass the commutant test below, since NaN > tolerance is False
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    side = d ** (n + 1)
    inputs, outputs = _commutant_groups(n)
    grouped = tensor.permute_factors(np.real(mat), full_register_dims(d, n), inputs + outputs)
    grouped = grouped.reshape((side,) * 4)
    blocks: dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray] = {}
    for mu, nu in block_keys(d, n):
        size = tableau_count(mu) * tableau_count(nu)
        block = np.einsum(
            "xyuv,jiux,lkvy->ikjl", grouped, matrix_unit(mu, d), matrix_unit(nu, d),
            optimize=True,
        )
        blocks[(mu, nu)] = block.reshape(size, size)
    comb = ReducedComb(d, n, blocks)
    deviation = float(np.abs(mat - expand_comb(comb)).max())
    if deviation > 1e-8 * max(1.0, float(np.abs(mat).max())):
        raise ValueError(f"input is not in the commutant (deviation {deviation:.3e})")
    return comb


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
            "ikjl,ijac,klbd->abcd", coeff, matrix_unit(mu, d), matrix_unit(nu, d),
            optimize=True,
        )
    inputs, outputs = _commutant_groups(n)
    return tensor.permute_factors(
        out.reshape(side * side, -1), full_register_dims(d, n), np.argsort(inputs + outputs)
    )
