"""Deterministic solver for small block-diagonal real SDPs.

Standard form: maximize sum_b Tr(C_b X_b) subject to linear equalities
sum_b Tr(A_{i,b} X_b) = rhs_i and X_b >= 0.  The method is an infeasible
primal-dual path-following iteration with a Mehrotra predictor-corrector
and a Newton direction symmetrized at the dual iterate.  The contract is
the certificate (duality gap plus residuals), not the algorithm.

The constraints are one sparse matrix A in CSR form, one row per equality
and one column per svec coordinate: blocks in order, each block's upper
triangle row by row, off-diagonal entries scaled by sqrt(2), so that
A @ svec(X) is the vector of sum_b Tr(A_{i,b} X_b).  Builders emit rows
of A directly; :meth:`SdpProblem.from_rows` packs per-block coefficient
matrices.  The JSON instance format stores each row per block as the
upper triangle of its coefficient matrix.

Constraint rows are preprocessed: exact duplicates collapse, and a
column-pivoted QR of the transposed rows drops dependent rows.  Q is never
formed; each dropped row's right-hand side is checked for consistency
through R11^{-1} R12 (an inconsistency is reported as infeasibility).
All data must be real symmetric; complex or unsymmetric input is rejected.

Each iteration factors every matrix once.  One Cholesky factor of the
Schur complement serves both the predictor and the corrector.  Each block
of X and Z is factored when the step-halving check accepts the new
iterate, and the next iteration reuses those factors for Z^{-1} and for
both step lengths.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

_SYM_ATOL = 1e-10
_PIVOT_THRESHOLD = 1e-10
_BOUNDARY_FRACTION = 0.98
# rows per batched product in the Schur complement
_SCHUR_CHUNK = 64


@dataclass
class SdpProblem:
    """Block-diagonal SDP in equality standard form (maximization): a @ svec(X) = rhs."""

    block_dims: list[int]
    objective: list[np.ndarray]
    a: scipy.sparse.csr_matrix
    rhs: np.ndarray
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_rows(cls, block_dims, objective, rows, metadata=None) -> "SdpProblem":
        """Pack rows given as ({block index: symmetric coefficient}, rhs) pairs."""
        dims = [int(s) for s in block_dims]
        indexer = _SvecIndexer(dims)
        cols, vals, indptr, rhs = [np.empty(0, dtype=int)], [np.empty(0)], [0], []
        for coeffs, value in rows:
            if not math.isfinite(value):
                raise ValueError("constraint right-hand side must be finite")
            mats = [np.zeros((s, s)) for s in dims]
            for b, mat in coeffs.items():
                if not 0 <= b < len(dims):
                    raise ValueError(f"constraint references unknown block {b}")
                _check_symmetric(mat, dims[b], "constraint")
                mats[b] = np.real(mat)
            vec = indexer.pack(mats)
            cols.append(np.flatnonzero(vec))
            vals.append(vec[cols[-1]])
            indptr.append(indptr[-1] + cols[-1].size)
            rhs.append(float(value))
        a = scipy.sparse.csr_matrix(
            (np.concatenate(vals), np.concatenate(cols), indptr), shape=(len(rhs), indexer.total)
        )
        problem = cls(dims, list(objective), a, np.array(rhs), dict(metadata or {}))
        problem.validate()
        return problem

    def validate(self) -> None:
        if len(self.objective) != len(self.block_dims):
            raise ValueError("one objective matrix per block required")
        for dim, mat in zip(self.block_dims, self.objective):
            _check_symmetric(mat, dim, "objective")
        svec = sum(s * (s + 1) // 2 for s in self.block_dims)
        if self.a.shape != (len(self.rhs), svec):
            raise ValueError(f"constraint matrix shape {self.a.shape} is not ({len(self.rhs)}, {svec})")
        if not (np.isfinite(self.a.data).all() and np.isfinite(self.rhs).all()):
            raise ValueError("constraint data must be finite")

    def to_json(self) -> str:
        indexer = _SvecIndexer(list(self.block_dims))
        constraints = []
        for row, value in zip(self.a, self.rhs):
            vec = row.toarray()[0]
            blocks = [
                {"index": b, "coeff_upper_triangle": [float(x) for x in vec[span] / scale]}
                for b, (span, scale) in enumerate(zip(indexer.spans, indexer.scales))
                if vec[span].any()
            ]
            constraints.append({"blocks": blocks, "rhs": float(value)})
        payload = {
            "block_dims": list(self.block_dims),
            "objective": [_upper_triangle(m) for m in self.objective],
            "constraints": constraints,
        }
        payload.update({k: self.metadata[k] for k in ("d", "n", "mode") if k in self.metadata})
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SdpProblem":
        data = json.loads(text)
        objective = [_from_upper_triangle(v) for v in data["objective"]]
        rows = [
            ({int(e["index"]): _from_upper_triangle(e["coeff_upper_triangle"]) for e in c["blocks"]},
             float(c["rhs"]))
            for c in data["constraints"]
        ]
        metadata = {k: data[k] for k in ("d", "n", "mode") if k in data}
        return cls.from_rows(data["block_dims"], objective, rows, metadata)


def _check_symmetric(mat: np.ndarray, dim: int, what: str) -> None:
    mat = np.asarray(mat)
    if np.iscomplexobj(mat) and np.abs(mat.imag).max() > 0:
        raise ValueError(f"{what} matrix must be real")
    if mat.shape != (dim, dim):
        raise ValueError(f"{what} matrix shape {mat.shape} does not match block size {dim}")
    if np.abs(mat - mat.T).max() > _SYM_ATOL:
        raise ValueError(f"{what} matrix is not symmetric")


def _upper_triangle(mat: np.ndarray) -> list[float]:
    mat = np.asarray(mat, dtype=float)
    idx = np.triu_indices(mat.shape[0])
    return [float(x) for x in mat[idx]]


def _from_upper_triangle(values) -> np.ndarray:
    dim = (math.isqrt(8 * len(values) + 1) - 1) // 2
    mat = np.zeros((dim, dim))
    mat[np.triu_indices(dim)] = values
    return mat + np.triu(mat, 1).T


@dataclass(frozen=True)
class SolverConfig:
    feasibility_tol: float = 1e-8
    gap_tol: float = 1e-6
    max_iterations: int = 200

    def __post_init__(self):
        if self.feasibility_tol <= 0 or self.gap_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class SdpSolution:
    blocks: list[np.ndarray]
    dual: np.ndarray
    objective_value: float
    gap: float
    primal_residual: float
    status: str
    iterations: int = 0
    mu_history: list[float] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "objective": self.objective_value,
            "gap": self.gap,
            "residual": self.primal_residual,
            "iterations": self.iterations,
            "status": self.status,
            "block_eigenvalue_minima": [
                float(np.linalg.eigvalsh(b)[0]) for b in self.blocks
            ],
        }
        return json.dumps(payload, sort_keys=True)


class _SvecIndexer:
    """Symmetric vectorization with sqrt(2)-scaled off-diagonals.

    <svec(A), svec(B)> equals Tr(AB) for symmetric A, B.
    """

    def __init__(self, dims: list[int]):
        self.dims = dims
        self.index_pairs = [np.triu_indices(s) for s in dims]
        root2 = math.sqrt(2.0)
        self.scales = [np.where(ii == jj, 1.0, root2) for ii, jj in self.index_pairs]
        self.scale_vector = np.concatenate([np.empty(0)] + self.scales)
        self.total = self.scale_vector.size
        ends = np.cumsum([scale.size for scale in self.scales], dtype=int)
        self.spans = [slice(int(end) - scale.size, int(end)) for end, scale in zip(ends, self.scales)]

    def column(self, b: int, lo, hi):
        """svec column of entry (lo, hi), lo <= hi, of block b."""
        return self.spans[b].start + lo * self.dims[b] - lo * (lo - 1) // 2 + hi - lo

    def pack(self, mats: list[np.ndarray]) -> np.ndarray:
        out = np.empty(self.total)
        for b, m in enumerate(mats):
            ii, jj = self.index_pairs[b]
            out[self.spans[b]] = m[ii, jj] * self.scales[b]
        return out

    def unpack(self, vec: np.ndarray) -> list[np.ndarray]:
        mats = []
        for b, s in enumerate(self.dims):
            ii, jj = self.index_pairs[b]
            chunk = vec[self.spans[b]] / self.scales[b]
            m = np.zeros((s, s))
            m[ii, jj] = chunk
            m[jj, ii] = chunk
            mats.append(m)
        return mats


def _preprocess_rows(a: scipy.sparse.csr_matrix, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Deduplicate and drop linearly dependent rows of the constraint matrix.

    The rows are densified here, collapsed when exactly equal, and ranked by
    a column-pivoted QR of their transpose (LAPACK ``geqp3``).  Q is never
    formed: a dropped row equals the kept rows combined with the
    coefficients R11^{-1} R12 (R11 the leading rank x rank triangle of R,
    R12 the columns beside it), and its right-hand side must match the same
    combination of theirs.

    Returns (kept_indices, consistent).  ``consistent`` is False when a
    dropped row's right-hand side disagrees with the kept rows, which
    certifies primal infeasibility.
    """
    dense = a.toarray()
    seen: dict[bytes, int] = {}
    order: list[int] = []
    for i in range(dense.shape[0]):
        key = dense[i].tobytes()
        if key in seen:
            j = seen[key]
            if abs(rhs[i] - rhs[j]) > 1e-12 * max(1.0, abs(rhs[j])):
                return np.array(order, dtype=int), False
        else:
            seen[key] = i
            order.append(i)
    rhs = rhs[order]
    nonzero = np.linalg.norm(dense, axis=1)[order] > _PIVOT_THRESHOLD
    for i in np.where(~nonzero)[0]:
        if abs(rhs[i]) > 1e-12:
            return np.array(order, dtype=int), False
    kept_orig = np.array(order, dtype=int)[nonzero]
    rhs = rhs[nonzero]
    if kept_orig.size == 0:
        return kept_orig, True
    rows_t = dense[kept_orig].T
    del dense  # the QR overwrites rows_t in place; no second dense copy stays alive
    r, piv = scipy.linalg.qr(rows_t, overwrite_a=True, mode="raw", pivoting=True)[1:]
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > _PIVOT_THRESHOLD * max(diag[0], 1e-300)))
    keep = np.sort(piv[:rank])
    if rank < piv.size:
        # dropped rows must be consistent combinations of the kept ones
        coeffs = scipy.linalg.solve_triangular(r[:rank, :rank], r[:rank, rank:])
        rhs_pred = coeffs.T @ rhs[piv[:rank]]
        scale = max(1.0, float(np.abs(rhs).max()))
        if np.abs(rhs_pred - rhs[piv[rank:]]).max() > 1e-8 * scale:
            return kept_orig[keep], False
    return kept_orig[keep], True


def _block_rows(a: scipy.sparse.csr_matrix, indexer: _SvecIndexer) -> list[tuple[np.ndarray, scipy.sparse.csr_matrix]]:
    """Per block: the rows touching it and those rows restricted to its columns."""
    out = []
    for span in indexer.spans:
        a_b = a[:, span]
        rows = np.flatnonzero(np.diff(a_b.indptr))
        out.append((rows, a_b[rows]))
    return out


def _schur_complement(
    block_rows, indexer: _SvecIndexer, x: list[np.ndarray], zinv: list[np.ndarray], m: int
) -> np.ndarray:
    """M_ij = Tr(A_i sym(X A_j Z^{-1})), summed block by block.

    The products X_b A_jb Z_b^{-1} of the rows touching block b are formed
    in batches of ``_SCHUR_CHUNK`` rows, which bounds the scratch memory of
    large blocks.
    """
    big_m = np.zeros((m, m))
    for b, (rows, a_b) in enumerate(block_rows):
        s = indexer.dims[b]
        ii, jj = indexer.index_pairs[b]
        scale = indexer.scales[b]
        for start in range(0, rows.size, _SCHUR_CHUNK):
            chunk = slice(start, start + _SCHUR_CHUNK)
            coeffs = a_b[chunk].toarray() / scale
            mats = np.zeros((coeffs.shape[0], s, s))
            mats[:, ii, jj] = coeffs
            mats[:, jj, ii] = coeffs
            t = x[b] @ mats @ zinv[b]
            packed = (t[:, ii, jj] + t[:, jj, ii]) / 2.0 * scale
            big_m[np.ix_(rows, rows[chunk])] += a_b @ packed.T
    return (big_m + big_m.T) / 2.0


def _schur_solver(big_m: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the Schur complement once; return a function solving M v = r.

    Cholesky of M, retried with a diagonal jitter growing tenfold from
    1e-14 * max(1, Tr(M)/m) when rounding leaves M numerically singular;
    least squares when eight attempts fail.
    """
    m = big_m.shape[0]
    base = np.trace(big_m) / max(1, m)
    jitter = 0.0
    for _ in range(8):
        try:
            l = np.linalg.cholesky(big_m + jitter * np.eye(m) if jitter else big_m)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-14 * max(base, 1.0))
            continue

        def solve_chol(rhs_vec: np.ndarray) -> np.ndarray:
            sol = scipy.linalg.solve_triangular(l, rhs_vec, lower=True)
            return scipy.linalg.solve_triangular(l.T, sol, lower=False)

        return solve_chol
    return lambda rhs_vec: np.linalg.lstsq(big_m, rhs_vec, rcond=None)[0]


def _cholesky_blocks(mats: list[np.ndarray]) -> list[np.ndarray] | None:
    """Cholesky factors of every block, or None at the first that is not positive definite."""
    factors = []
    for m in mats:
        try:
            factors.append(np.linalg.cholesky(m))
        except np.linalg.LinAlgError:
            return None
    return factors


def _max_step(l: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with L L^T + alpha*dx staying positive semidefinite."""
    s = scipy.linalg.solve_triangular(l, dx, lower=True)
    s = scipy.linalg.solve_triangular(l, s.T, lower=True)
    w = np.linalg.eigvalsh((s + s.T) / 2.0)
    lam = w[0]
    if lam >= -1e-14:
        return math.inf
    return -1.0 / lam


def _step_length(factors: list[np.ndarray] | None, steps: list[np.ndarray]) -> float:
    """Fraction-to-boundary step for blocks given by their Cholesky factors; 0 without factors."""
    if factors is None:
        return 0.0
    return min(1.0, _BOUNDARY_FRACTION * min(_max_step(l, d) for l, d in zip(factors, steps)))


def _damped_update(
    mats: list[np.ndarray], steps: list[np.ndarray], alpha: float
) -> tuple[float, list[np.ndarray], list[np.ndarray] | None]:
    """Halve alpha until every mats[b] + alpha*steps[b] factors (at most 40 halvings).

    Rounding can leave the fraction-to-boundary step just outside the cone.
    Returns alpha, the updated blocks and their Cholesky factors, which the
    next iteration reuses; the factors are None if the last halving failed too.
    """
    for halvings in range(41):
        new = [m + alpha * d for m, d in zip(mats, steps)]
        factors = _cholesky_blocks(new)
        if factors is not None or halvings == 40:
            return alpha, new, factors
        alpha *= 0.5


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Solve the SDP; deterministic for fixed inputs."""
    config = config or SolverConfig()
    problem.validate()
    dims = list(problem.block_dims)
    nblocks = len(dims)
    indexer = _SvecIndexer(dims)
    c_mats = [np.asarray(mat, dtype=float) for mat in problem.objective]
    cvec = indexer.pack(c_mats)

    m_rows = problem.a.shape[0]
    kept, consistent = _preprocess_rows(problem.a, problem.rhs)
    if not consistent:
        zeros = [np.zeros((s, s)) for s in dims]
        return SdpSolution(zeros, np.zeros(m_rows), 0.0, math.inf, math.inf, "infeasible_detected")
    a = problem.a[kept]
    rhs = problem.rhs[kept]
    m = a.shape[0]
    block_rows = _block_rows(a, indexer)

    tau = max(
        1.0,
        float(np.abs(rhs).max()) if m else 1.0,
        max(float(np.abs(mat).max()) for mat in c_mats) if nblocks else 1.0,
    )
    x = [tau * np.eye(s) for s in dims]
    z = [tau * np.eye(s) for s in dims]
    x_chol = _cholesky_blocks(x)
    z_chol = _cholesky_blocks(z)
    y = np.zeros(m)
    ntotal = sum(dims)

    def apply_a(xm: list[np.ndarray]) -> np.ndarray:
        return a @ indexer.pack(xm)

    def adjoint(yv: np.ndarray) -> list[np.ndarray]:
        return indexer.unpack(a.T @ yv)

    status = "max_iter"
    mu_history: list[float] = []
    iterations = 0
    norm_rhs = 1.0 + (float(np.abs(rhs).max()) if m else 0.0)
    norm_c = 1.0 + max((float(np.abs(mat).max()) for mat in c_mats), default=0.0)

    for iteration in range(config.max_iterations):
        iterations = iteration + 1
        rp = rhs - apply_a(x)
        aty = adjoint(y)
        rd = [c_mats[b] - aty[b] + z[b] for b in range(nblocks)]
        mu = sum(float(np.tensordot(x[b], z[b])) for b in range(nblocks)) / ntotal
        mu_history.append(mu)
        pobj = float(cvec @ indexer.pack(x))
        dobj = float(rhs @ y)
        gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pinf = float(np.abs(rp).max()) / norm_rhs if m else 0.0
        dinf = max(float(np.abs(rd[b]).max()) for b in range(nblocks)) / norm_c
        if gap_rel <= config.gap_tol and pinf <= config.feasibility_tol and dinf <= config.feasibility_tol:
            status = "optimal"
            break
        if float(np.abs(y).max() if m else 0.0) > 1e12 and pinf > config.feasibility_tol:
            status = "infeasible_detected"
            break

        if z_chol is None:
            status = "max_iter"
            break

        def zinv_apply(b: int, mat: np.ndarray) -> np.ndarray:
            l = z_chol[b]
            s = scipy.linalg.solve_triangular(l, mat, lower=True)
            return scipy.linalg.solve_triangular(l.T, s, lower=False)

        # symmetrize the rounded inverses so that svec pairings see both triangles
        zinv = [zinv_apply(b, np.eye(dims[b])) for b in range(nblocks)]
        zinv = [(zi + zi.T) / 2.0 for zi in zinv]
        solve_m = _schur_solver(_schur_complement(block_rows, indexer, x, zinv, m))
        az = apply_a(zinv)

        def direction(sigma_mu: float, cross: list[np.ndarray] | None):
            # Solve M dy = sigma*mu*A(Z^-1) + A(sym(X Rd Z^-1) - K) - b, then
            # dZ = A*dy - Rd and dX from the symmetrized complementarity row.
            extra = []
            for b in range(nblocks):
                t = x[b] @ rd[b] @ zinv[b]
                term = (t + t.T) / 2.0
                if cross is not None:
                    term = term - cross[b]
                extra.append(term)
            rhs_vec = sigma_mu * az + apply_a(extra) - rhs
            dy = solve_m(rhs_vec)
            atdy = adjoint(dy)
            dz = [atdy[b] - rd[b] for b in range(nblocks)]
            dx = []
            for b in range(nblocks):
                t = x[b] @ dz[b] @ zinv[b]
                dx.append(sigma_mu * zinv[b] - x[b] - (t + t.T) / 2.0 - (cross[b] if cross is not None else 0.0))
            return dx, dy, dz

        dx_aff, dy_aff, dz_aff = direction(0.0, None)
        ap = _step_length(x_chol, dx_aff)
        ad = _step_length(z_chol, dz_aff)
        mu_aff = sum(
            float(np.tensordot(x[b] + ap * dx_aff[b], z[b] + ad * dz_aff[b]))
            for b in range(nblocks)
        ) / ntotal
        sigma = min(1.0, max(0.0, (mu_aff / mu)) ** 3)

        cross = []
        for b in range(nblocks):
            t = dx_aff[b] @ dz_aff[b] @ zinv[b]
            cross.append((t + t.T) / 2.0)
        dx, dy, dz = direction(sigma * mu, cross)

        ap, x, x_chol = _damped_update(x, dx, _step_length(x_chol, dx))
        ad, z, z_chol = _damped_update(z, dz, _step_length(z_chol, dz))
        y = y + ad * dy

    pobj = float(cvec @ indexer.pack(x))
    dobj = float(rhs @ y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    residual = float(np.abs(problem.rhs - problem.a @ indexer.pack(x)).max()) if m_rows else 0.0
    dual_full = np.zeros(m_rows)
    dual_full[kept] = y
    if status == "optimal" and residual > config.feasibility_tol * norm_rhs:
        status = "max_iter"
    return SdpSolution(
        blocks=x,
        dual=dual_full,
        objective_value=pobj,
        gap=gap,
        primal_residual=residual,
        status=status,
        iterations=iterations,
        mu_history=mu_history,
    )


@dataclass(frozen=True)
class VerificationReport:
    objective: float
    max_constraint_violation: float
    block_min_eigenvalues: tuple[float, ...]
    dual_objective: float | None
    dual_min_eigenvalue: float | None
    gap: float | None


def verify(problem: SdpProblem, solution: SdpSolution) -> VerificationReport:
    """Recompute residuals from the original rows, independent of solver bookkeeping."""
    if len(solution.blocks) != len(problem.block_dims):
        raise ValueError("solution block count does not match problem")
    for mat, s in zip(solution.blocks, problem.block_dims):
        if mat.shape != (s, s):
            raise ValueError("solution block shape mismatch")
    indexer = _SvecIndexer(list(problem.block_dims))
    costs = [np.asarray(cost, dtype=float) for cost in problem.objective]
    objective = 0.0
    for mat, cost in zip(solution.blocks, costs):
        objective += float(np.sum(cost * mat))
    m_rows = problem.a.shape[0]
    xvec = indexer.pack([(b + b.T) / 2.0 for b in solution.blocks])
    violation = float(np.abs(problem.a @ xvec - problem.rhs).max()) if m_rows else 0.0
    minima = tuple(float(np.linalg.eigvalsh((b + b.T) / 2.0)[0]) for b in solution.blocks)
    dual_obj = None
    dual_min = None
    gap = None
    if solution.dual is not None and len(solution.dual) == m_rows:
        dual_obj = float(problem.rhs @ solution.dual)
        slack = [aty - cost for aty, cost in zip(indexer.unpack(problem.a.T @ solution.dual), costs)]
        dual_min = min(
            (float(np.linalg.eigvalsh((zb + zb.T) / 2.0)[0]) for zb in slack), default=math.inf
        )
        gap = abs(objective - dual_obj) / (1.0 + abs(objective) + abs(dual_obj))
    return VerificationReport(
        objective=objective,
        max_constraint_violation=violation,
        block_min_eigenvalues=minima,
        dual_objective=dual_obj,
        dual_min_eigenvalue=dual_min,
        gap=gap,
    )
