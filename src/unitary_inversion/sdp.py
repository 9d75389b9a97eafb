"""Deterministic solver for small block-diagonal real SDPs.

Standard form: maximize sum_b Tr(C_b X_b) subject to linear equalities
sum_b Tr(A_{i,b} X_b) = rhs_i and X_b >= 0.  The method is an infeasible
primal-dual path-following iteration with a Mehrotra predictor-corrector
and a Newton direction symmetrized at the dual iterate.  The contract is
the certificate (duality gap plus residuals), not the algorithm.

The constraints are one sparse matrix A in CSR form, one row per equality
and one column per svec coordinate: blocks in order, each block's upper
triangle row by row, off-diagonal entries scaled by sqrt(2), so that
A @ svec(X) is the vector of sum_b Tr(A_{i,b} X_b).  Builders state rows
as reads of matrix entries, and only :meth:`SdpProblem.from_reads` turns
them into CSR arrays.  The JSON instance format stores A as those arrays,
so a round trip through it is exact.

Constraint rows are preprocessed on the CSR matrix (see
:func:`_preprocess_rows`): dependent rows, duplicates among them, are
dropped by one column-pivoted QR per connected component of rows that
share svec columns, its input filled straight from the CSR arrays, under
one rank threshold relative to the largest row norm.  One tolerance,
relative to the largest right-hand side, checks every dropped row; an
inconsistency is reported as infeasibility.
All data must be real symmetric; complex or unsymmetric input is rejected.

The Schur complement M_ij = Tr(A_i X A_j Z^{-1}) is assembled from each
row's nonzeros (Fujisawa, Kojima & Nakata's "F2" formula, Math. Prog. 79,
1997): X A_j Z^{-1} = sum_(p,q) A_j[p,q] X[:,p] Z^{-1}[q,:], a rank-k
product costing 2 s^2 k flops when A_j has k nonzeros (both triangles) in
a block of size s, against 4 s^3 for expanding A_j into a dense s x s
matrix and multiplying on both sides.  No row of any program the
repository builds has k > s (the trace row has k = s), so no dense path
is kept.  Rows are taken in chunks of up to ``_SCHUR_CHUNK`` consecutive
rows of one block, whatever their k, and only the lower triangle of M is
built: each pair of rows is formed once per block, and added to a
column-major buffer by one 1-D scatter per chunk; of a chunk's products,
only the flat entries p*s + q that its pairs read are copied.

Each iteration factors every matrix once.  LAPACK ``potrf`` factors the
lower triangle of the Schur complement in place, with no symmetrized
copy, and that one factor serves both the predictor and the corrector.
A solve allocates one buffer for M and each iteration assembles and
factors M in it, so the previous factor is gone before the next M is
summed: the solve's peak memory is one M, 8 m^2 bytes, plus the index
plan of :func:`_block_rows`, not two.
X and Z move by the fraction-to-boundary step, and each of their blocks is
factored once after the step; the next iteration inverts those factors
once and uses the inverses for Z^{-1} and for both step lengths.  The
corrector steps a fraction gamma = 0.9 + 0.09 min(alpha_p, alpha_d) of
the way to the boundary, alpha_p and alpha_d being the previous
iteration's corrector steps, and gamma = 0.99 on the first (SDPT3's
adaptive rule: Tutuncu, Toh & Todd, Math. Prog. 95, 2003).  Short
steps thus keep further from the boundary, and full ones go closer,
which spares degenerate optima such as seq (2,4)'s a long stalled tail.
The predictor's step only sets the centring parameter, and keeps the
fixed ``_BOUNDARY_FRACTION``.

A solve ends ``optimal`` when the relative gap and both infeasibilities
meet the tolerances, and the residual on the original rows does too.
Otherwise ``SdpSolution.reason`` names the cause and its iteration:
``infeasible_detected`` when preprocessing certifies inconsistent rows
(before any iteration), ``max_iter`` at the iteration limit, and
``numerical_failure`` when the Schur complement, or X or Z after its step,
is not positive definite, when X or y after the step exceeds
``_DIVERGENCE_BOUND`` times the starting scale or is not finite (unbounded
or infeasible programs), or when the residual on the original rows
breaches the tolerance.  A step is tested before it is accepted, so a
failed solve returns the last iterate before the failure.

Blocks of equal size are held as one (count, s, s) stack, so the block
Cholesky factors, their inverses, the step-length eigenvalues and the
products of the search directions take one batched numpy call per
distinct size rather than one call per block.  The factors, their
inverses and the step-length eigenvalues of X and Z go further: X's
stack and Z's are joined into one, X's blocks first, so each of these
kernels runs once per size for both.  Batched LAPACK and matmul run the
same routine on each matrix of a stack, so these match the per-block
results bitwise.

:func:`solve` runs under one OpenBLAS thread (numpy's and scipy's
bundled builds) and restores the caller's thread counts on return.  Its
matrices are small or moderate (the Schur complement has a few thousand
rows at most), where a second thread costs more in hand-off than it
gains, and where solver processes running side by side on few cores
slow each other badly when each spins its own BLAS threads.  Threaded
Cholesky and matmul also round differently from single-threaded ones,
so one thread makes the results independent of the host's core count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

_SYM_ATOL = 1e-10
_PIVOT_THRESHOLD = 1e-10
# the predictor's fraction to the boundary; the corrector's adapts (see _solve)
_BOUNDARY_FRACTION = 0.98
# iterates beyond this multiple of the starting scale end the solve as diverging
_DIVERGENCE_BOUND = 1e12
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

    def validate(self) -> None:
        _check_block_dims(self.block_dims)
        if len(self.objective) != len(self.block_dims):
            raise ValueError("one objective matrix per block required")
        for dim, mat in zip(self.block_dims, self.objective):
            _check_objective(mat, dim)
        if np.ndim(self.rhs) != 1:
            raise ValueError(f"rhs must be a 1-D array, got shape {np.shape(self.rhs)}")
        svec = sum(s * (s + 1) // 2 for s in self.block_dims)
        if self.a.shape != (len(self.rhs), svec):
            raise ValueError(f"constraint matrix shape {self.a.shape} is not ({len(self.rhs)}, {svec})")
        if not (np.isfinite(self.a.data).all() and np.isfinite(self.rhs).all()):
            raise ValueError("constraint data must be finite")

    @classmethod
    def from_reads(cls, block_dims, objective, reads, rhs, metadata=None) -> "SdpProblem":
        """Program whose row i sums weight * X_block[r, c] over its reads and equals rhs[i].

        ``reads`` is five equal-length arrays (row, block, r, c, weight).  X
        is symmetric, so (r, c) and (c, r) read one svec coordinate; its reads
        are summed in the order given, off-diagonal ones halved, and only
        then scaled by sqrt(2).  A row is dropped only when it has no nonzero
        coefficient and rhs 0.  Out-of-range or non-finite reads are rejected.
        """
        row, block, r, c, weight = reads
        if any(np.asarray(v).dtype == bool for v in (row, block, r, c)):
            raise ValueError("read indices must be integers, not booleans")
        row, block, r, c = (np.asarray(v).astype(np.int64, casting="safe") for v in (row, block, r, c))
        weight, rhs = np.asarray(weight, dtype=float), np.asarray(rhs, dtype=float)
        if any(v.shape != (row.size,) for v in (row, block, r, c, weight)):
            raise ValueError("reads must be five equal-length 1-D arrays")
        lo, hi, sizes = np.minimum(r, c), np.maximum(r, c), np.asarray(block_dims)
        if row.size and not (
            0 <= min(row.min(), block.min(), lo.min()) and row.max() < rhs.size and block.max() < sizes.size
            and np.all(hi < sizes[block]) and np.isfinite(weight).all()
        ):
            raise ValueError("every read must name a row and a block entry, with a finite weight")
        indexer = _indexer(tuple(block_dims))
        entries, where = np.unique(row * indexer.total + indexer.column(block, lo, hi), return_inverse=True)
        # bincount adds in input order, so each coordinate sums its reads in the order given
        acc = np.bincount(where, weight / np.where(lo == hi, 1.0, 2.0), entries.size)
        row, col = np.divmod(entries, indexer.total)
        acc *= indexer.scale_vector[col]
        nonzero = acc != 0.0
        lengths = np.bincount(row[nonzero], minlength=rhs.size)
        kept = (lengths > 0) | (rhs != 0.0)
        indptr = np.concatenate([[0], np.cumsum(lengths[kept])])
        a = scipy.sparse.csr_matrix((acc[nonzero], col[nonzero], indptr), shape=(kept.sum(), indexer.total))
        problem = cls(list(block_dims), list(objective), a, rhs[kept], dict(metadata or {}))
        problem.validate()
        return problem

    def to_json(self) -> str:
        payload = {
            "block_dims": list(self.block_dims),
            "objective": [_upper_triangle(m) for m in self.objective],
            "a": {k: getattr(self.a, k).tolist() for k in ("indptr", "indices", "data")},
            "rhs": self.rhs.tolist(),
        }
        payload.update({k: self.metadata[k] for k in ("d", "n", "mode") if k in self.metadata})
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SdpProblem":
        """The program of a :meth:`to_json` payload; ValueError for any malformed payload."""
        try:
            data = json.loads(text)
            dims = data["block_dims"]
            _check_block_dims(dims)
            rhs = _numbers(data["rhs"], "rhs")
            indptr, indices = (_numbers(data["a"][k], f"a.{k}", int) for k in ("indptr", "indices"))
            svec = sum(s * (s + 1) // 2 for s in dims)
            values = _numbers(data["a"]["data"], "a.data")
            a = scipy.sparse.csr_matrix((values, indices, indptr), shape=(rhs.size, svec))
            a.check_format(full_check=True)
            if a.nnz != indices.size:
                raise ValueError(f"indptr ends at {a.nnz} of {indices.size} stored entries")
            objective = [_from_upper_triangle(_numbers(v, "an objective triangle")) for v in data["objective"]]
            metadata = {k: data[k] for k in ("d", "n", "mode") if k in data}
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed program payload: {exc!r}") from exc
        problem = cls(dims, objective, a, rhs, metadata)
        problem.validate()
        return problem


def _check_block_dims(dims) -> None:
    """At least one block, each of a positive integer size."""
    sizes = dims if isinstance(dims, (list, tuple)) else []
    if not sizes or any(not _is_number(s, int) or s < 1 for s in sizes):
        raise ValueError(f"block dims must be a non-empty list of positive integers, got {dims!r}")


def _is_number(value, kind: type = float) -> bool:
    """An int, or for ``kind`` float also a float, of Python or numpy; bool, an int subclass, is neither."""
    types = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    return isinstance(value, types) and not isinstance(value, bool)


def _numbers(values, name: str, kind: type = float) -> np.ndarray:
    """A JSON list as a vector of ``kind``; nesting, booleans, other types and floats for int are refused."""
    if not (isinstance(values, list) and all(_is_number(v, kind) for v in values)):
        raise ValueError(f"{name} must be a 1-D list of {'integers' if kind is int else 'numbers'}")
    return np.array(values, dtype=kind)


def _check_objective(mat: np.ndarray, dim: int) -> None:
    mat = np.asarray(mat)
    if np.iscomplexobj(mat) and np.abs(mat.imag).max() > 0:
        raise ValueError("objective matrix must be real")
    if mat.shape != (dim, dim):
        raise ValueError(f"objective matrix shape {mat.shape} does not match block size {dim}")
    # a NaN would pass the symmetry test below, since NaN > tolerance is False
    if not np.isfinite(mat).all():
        raise ValueError("objective matrix must be finite")
    # relative to the largest entry, so that a rescaled objective is judged alike
    if np.abs(mat - mat.T).max() > _SYM_ATOL * np.abs(mat).max():
        raise ValueError("objective matrix is not symmetric")


def _upper_triangle(mat: np.ndarray) -> list[float]:
    return np.asarray(mat, dtype=float)[np.triu_indices(len(mat))].tolist()


def _from_upper_triangle(values) -> np.ndarray:
    dim = (math.isqrt(8 * len(values) + 1) - 1) // 2
    ii, jj = np.triu_indices(dim)
    mat = np.zeros((dim, dim))
    mat[ii, jj] = values
    mat[jj, ii] = values
    return mat


@dataclass(frozen=True)
class SolverConfig:
    feasibility_tol: float = 1e-8
    gap_tol: float = 1e-6
    max_iterations: int = 200

    def __post_init__(self):
        # NaN fails every comparison, and an infinite tolerance passes any iterate
        if not all(_is_number(t) and math.isfinite(t) and t > 0 for t in (self.feasibility_tol, self.gap_tol)):
            raise ValueError("tolerances must be positive finite numbers")
        # range() refuses floats and strings
        if not _is_number(self.max_iterations, int):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
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
    # why the solve ended short of optimal; empty when it is optimal
    reason: str = ""

    def to_json(self) -> str:
        indexer = _indexer(tuple(len(b) for b in self.blocks))
        payload = {
            "objective": self.objective_value,
            "gap": self.gap,
            "residual": self.primal_residual,
            "iterations": self.iterations,
            "status": self.status,
            "block_eigenvalue_minima": _min_eigenvalues(indexer, indexer.stack(self.blocks)),
        }
        if self.status != "optimal":
            payload["reason"] = self.reason
        return json.dumps(payload, sort_keys=True)


class _SvecIndexer:
    """Symmetric vectorization with sqrt(2)-scaled off-diagonals.

    <svec(A), svec(B)> equals Tr(AB) for symmetric A, B.  The layout is one
    per-column table: svec column i holds entry (``lo[i]``, ``hi[i]``),
    lo <= hi, of block ``block[i]``, scaled by ``scale_vector[i]`` (1 on
    the diagonal, sqrt(2) off it).  Blocks of equal size form one group,
    held as a (count, s, s) stack by the ``*_stacks`` methods; ``sizes[g]``
    and ``members[g]`` name group g's size and its block indices in order.
    :func:`_indexer` shares one instance per block-dims tuple, so its
    sequences are tuples and its arrays read-only.
    """

    def __init__(self, dims):
        self.dims = tuple(dims)
        pairs = [np.triu_indices(s) for s in self.dims]
        widths = [ii.size for ii, _ in pairs]
        self.block = np.repeat(np.arange(len(self.dims)), widths)
        self.lo, self.hi = (np.concatenate([np.empty(0, int)] + [p[k] for p in pairs]) for k in (0, 1))
        self.scale_vector = np.where(self.lo == self.hi, 1.0, math.sqrt(2.0))
        self.total = self.scale_vector.size
        self._starts = np.cumsum([0] + widths, dtype=int)[:-1]
        self._dims = np.array(self.dims, dtype=int)
        self.sizes = tuple(sorted(set(self.dims)))
        self.members = tuple(tuple(b for b, s in enumerate(self.dims) if s == size) for size in self.sizes)
        # svec columns of each group, one row per member
        self._columns = tuple(self._starts[list(m)][:, None] + np.arange(widths[m[0]]) for m in self.members)
        table = (self.block, self.lo, self.hi, self.scale_vector)
        for arr in (*table, self._starts, self._dims, *self._columns):
            arr.setflags(write=False)
        # each group's triangle (lo, hi, scale): read-only views of its first member's columns
        spans = [slice(self._starts[mem[0]], self._starts[mem[0]] + widths[mem[0]]) for mem in self.members]
        self._triangles = tuple((self.lo[span], self.hi[span], self.scale_vector[span]) for span in spans)

    def column(self, b, lo, hi):
        """svec column of entry (lo, hi), lo <= hi, of block b; all three may be arrays."""
        return self._starts[b] + lo * self._dims[b] - lo * (lo - 1) // 2 + hi - lo

    def stack(self, mats: list[np.ndarray]) -> list[np.ndarray]:
        return [np.stack([mats[b] for b in mem]) for mem in self.members]

    def unstack(self, stacks: list[np.ndarray]) -> list[np.ndarray]:
        """Per-block views into the stacks, in block order."""
        mats = [None] * len(self.dims)
        for mem, st in zip(self.members, stacks):
            for b, mat in zip(mem, st):
                mats[b] = mat
        return mats

    def pack_stacks(self, stacks: list[np.ndarray]) -> np.ndarray:
        out = np.empty(self.total)
        for (ii, jj, scale), cols, st in zip(self._triangles, self._columns, stacks):
            out[cols] = st[:, ii, jj] * scale
        return out

    def unpack_stacks(self, vec: np.ndarray) -> list[np.ndarray]:
        stacks = []
        for size, (ii, jj, scale), cols in zip(self.sizes, self._triangles, self._columns):
            chunk = vec[cols] / scale
            st = np.zeros((len(cols), size, size))
            st[:, ii, jj] = chunk
            st[:, jj, ii] = chunk
            stacks.append(st)
        return stacks

    def pack(self, mats: list[np.ndarray]) -> np.ndarray:
        return self.pack_stacks(self.stack(mats))

    def unpack(self, vec: np.ndarray) -> list[np.ndarray]:
        return self.unstack(self.unpack_stacks(vec))


@functools.lru_cache(maxsize=128)
def _indexer(dims: tuple[int, ...]) -> _SvecIndexer:
    """The shared indexer of a block-dims tuple; a process sees few distinct tuples."""
    return _SvecIndexer(dims)


def _preprocess_rows(a: scipy.sparse.csr_matrix, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Drop linearly dependent rows, duplicates among them, of the constraint matrix.

    One rank threshold, ``_PIVOT_THRESHOLD`` times the largest row norm (the
    first pivot of one QR of every row), judges every row.  Rows at or
    below it stay out of the QRs.  The others are split into connected
    components, two rows being joined when they share an svec column, and
    each component of two or more rows is ranked by a column-pivoted QR
    (LAPACK ``geqp3``) of its rows' transpose, restricted to the columns
    they touch, a pivot counting toward the rank when it exceeds the same
    threshold.  The whole matrix is never densified: one row slice lays
    the components out one after another, and each QR input is filled from
    its component's run of the CSR arrays.

    Rows of different components have disjoint supports and so are
    orthogonal: in exact arithmetic, rank and pivot order within each
    component match that global QR.  Under rounding, ties between rows of
    equal norm can break differently, which changes which rows are kept
    but not the space they span.  The threshold is relative, so a program
    with every row and right-hand side scaled by one factor keeps the same
    rows.

    Q is never formed: a dropped row equals the kept rows of its component
    combined with the coefficients R11^{-1} R12 (R11 the leading rank x
    rank triangle of the component's R, R12 the columns beside it), and a
    row below the threshold equals 0.  One tolerance, 1e-8 times
    max(1, max |rhs|) over all rows, judges every dropped row's right-hand
    side against the same combination of the kept ones.

    Returns (kept_indices, consistent).  ``consistent`` is False when a
    dropped row's right-hand side disagrees with the kept rows, which
    certifies primal infeasibility.
    """
    a = scipy.sparse.csr_matrix(a, copy=True)
    a.sum_duplicates()
    a.eliminate_zeros()
    norms = scipy.sparse.linalg.norm(a, axis=1)
    threshold = _PIVOT_THRESHOLD * norms.max(initial=0.0)
    # rows cancelled to rounding (seq (3,4) has one of norm 1.8e-17) stay out
    # of the QRs: inside one they would move which of its rows are kept
    live = np.flatnonzero(norms > threshold)
    pattern = abs(a[live])
    labels = scipy.sparse.csgraph.connected_components(pattern @ pattern.T, directed=False)[1]
    # members of each component in row order, so that pivot ties break as in one global QR
    members = live[np.argsort(labels, kind="stable")]
    # one slice lays the rows out component by component, each a run of the CSR arrays
    ordered = a[members]
    kept = np.zeros(rhs.size, dtype=bool)
    predicted = np.zeros(rhs.size)
    sizes = np.bincount(labels)
    for first, last in zip(np.cumsum(sizes) - sizes, np.cumsum(sizes)):
        comp = members[first:last]
        if comp.size == 1:
            # a live row alone in its component is its own pivot
            kept[comp] = True
            continue
        lo, hi = ordered.indptr[first], ordered.indptr[last]
        row = np.repeat(np.arange(comp.size), np.diff(ordered.indptr[first:last + 1]))
        column = np.unique(ordered.indices[lo:hi], return_inverse=True)[1]
        dense = np.zeros((column.max() + 1, comp.size), order="F")
        dense[column, row] = ordered.data[lo:hi]
        r, piv = scipy.linalg.qr(dense, overwrite_a=True, mode="raw", pivoting=True)[1:]
        rank = int(np.sum(np.abs(np.diag(r)) > threshold))
        kept[comp[piv[:rank]]] = True
        if rank < comp.size:
            coeffs = scipy.linalg.solve_triangular(r[:rank, :rank], r[:rank, rank:])
            predicted[comp[piv[rank:]]] = coeffs.T @ rhs[comp[piv[:rank]]]
    tolerance = 1e-8 * max(1.0, float(np.abs(rhs).max(initial=0.0)))
    return np.flatnonzero(kept), bool(np.abs(predicted - rhs)[~kept].max(initial=0.0) <= tolerance)


def _block_rows(a: scipy.sparse.csr_matrix, indexer: _SvecIndexer) -> list[list[tuple]]:
    """Per block: the chunks of rows touching it, for the Schur complement's lower triangle.

    A row's entries in block b are listed in matrix coordinates, both
    triangles, each svec coefficient divided by its sqrt(2) scale, so that
    they are the nonzeros of the symmetric A_ib, stored at column p*s + q of
    one CSR matrix over the flattened s x s block.  One stable sort of all
    of ``a``'s entries groups them by block and orders each block's rows by
    entry count k, keeping each row's entries in their stored order.  A
    chunk is up to ``_SCHUR_CHUNK`` consecutive rows of one block in that
    order, whatever their k: (groups, tail, used, target).  ``groups`` has
    one (rows, p, q, v) per entry count in the chunk, ``rows`` its slice of
    the chunk and p, q, v its rows' entries as (rows, k) arrays; ``tail`` is
    the block's rows from the chunk's first row onward, as CSR over only the
    columns they read: its column i is flat column ``used[i]``, ``used``
    increasing.  ``target`` says where each product of a tail row
    with a chunk row goes in the flat column-major m*m + 1 buffer of
    :func:`_schur_complement`.  A pair of rows lands at (max, min) of their
    global indices, the lower triangle.  Inside the chunk's own square both
    orders of a pair are formed; the one whose tail row is the later (or
    the same) row is kept, and the other goes to the spare last slot.  All
    of this depends only on the kept rows, so it is built once per solve.
    """
    m = a.shape[0]
    # int32 halves the index memory; an m this large would need 17 GB for M itself
    index_type = np.int32 if m * m < 2**31 - 1 else np.int64
    sizes = np.array(indexer.dims, dtype=np.int64)
    entries = a.tocoo()
    block, lo, hi = (arr[entries.col] for arr in (indexer.block, indexer.lo, indexer.hi))
    off = lo != hi
    row = np.concatenate([entries.row, entries.row[off]])
    block = np.concatenate([block, block[off]])
    flat = np.concatenate([lo, hi[off]]) * sizes[block] + np.concatenate([hi, lo[off]])
    v = entries.data / indexer.scale_vector[entries.col]
    v = np.concatenate([v, v[off]])
    key = block * m + row
    _, local, counts = np.unique(key, return_inverse=True, return_counts=True)
    # by block, entry count k and row; the sort is stable, so each row's entries keep their stored order
    order = np.lexsort((row, counts[local], block))
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    rows, counts = (key[starts] % m).astype(index_type), np.diff(starts, append=key.size)
    indptr = np.append(starts, key.size)
    bounds = np.searchsorted(key[starts] // m, np.arange(sizes.size + 1))
    out = []
    for b, (first, last) in enumerate(zip(bounds[:-1], bounds[1:])):
        s, size = indexer.dims[b], last - first
        # each block gets arrays of its own, as scipy copies a CSR view that
        # holds less than half of its base array
        picked = order[indptr[first]:indptr[last]]
        flat_b, v_b = flat[picked].astype(np.int32), v[picked]
        ptr = (indptr[first:last + 1] - indptr[first]).astype(np.int32)
        rows_b, counts_b = rows[first:last], counts[first:last]
        chunks = []
        for start in range(0, size, _SCHUR_CHUNK):
            stop = min(start + _SCHUR_CHUNK, size)
            head = ptr[start]
            used, columns = np.unique(flat_b[head:], return_inverse=True)
            tail = scipy.sparse.csr_matrix(
                (v_b[head:], columns.astype(np.int32), ptr[start:] - head), shape=(size - start, used.size)
            )
            ks, firsts = np.unique(counts_b[start:stop], return_index=True)
            groups = []
            for k, i, j in zip(ks, firsts, [*firsts[1:], stop - start]):
                group = slice(ptr[start + i], ptr[start + j])
                p, q = np.divmod(flat_b[group].reshape(-1, k), s)
                groups.append((slice(i, j), p, q, v_b[group].reshape(-1, k)))
            later, earlier = rows_b[start:, None], rows_b[None, start:stop]
            target = np.where(
                np.tri(size - start, stop - start, dtype=bool),
                np.minimum(later, earlier) * m + np.maximum(later, earlier),
                m * m,
            )
            chunks.append((groups, tail, used, target.ravel()))
        out.append(chunks)
    return out


def _schur_complement(block_rows, x: list[np.ndarray], zinv: list[np.ndarray], buf: np.ndarray) -> np.ndarray:
    """Lower triangle of M_ij = Tr(A_i X A_j Z^{-1}), summed block by block into ``buf``.

    For a row j with entries (p, q, v) in block b, X A_jb Z^{-1} is the
    rank-k sum of v X[:, p] Z^{-1}[q, :] over its entries (the "F2"
    formula): 2 s^2 k flops per row, against 4 s^3 for expanding A_jb into
    a dense s x s matrix and multiplying on both sides.  F2 is the cheaper
    form while k < 2s; the largest k of any program the repository builds
    is s (the trace row), where it costs half, so no dense path is kept.
    A chunk's products fill one preallocated (rows, s, s) stack, one
    batched (rows, s, k) @ (rows, k, s) product per entry count k in it.
    As A_ib is symmetric, Tr(A_ib T) = <vec A_ib, vec T>: each chunk enters
    M as one sparse-times-dense product with the block's rows from the
    chunk's first row onward, so each pair of rows is formed once per
    block, and one 1-D scatter adds it to the lower triangle.  The product
    reads only the flat entries ``used`` of the chunk's products; one gather
    copies them out, in the row-major layout scipy reads without a further
    copy, so scratch memory stays at two ``_SCHUR_CHUNK`` products at most.

    ``buf`` is the caller's m*m + 1 doubles: M column-major, then the spare
    slot that :func:`_block_rows` sends the unkept pairs to.  It is zeroed
    first and filled in place, so whatever it held before, such as the
    previous iteration's factor, is gone, and no second m x m array is
    made.  Returns the (m, m) column-major view of ``buf`` whose lower
    triangle, diagonal included, is M; the strict upper triangle holds
    zeros.
    """
    m = math.isqrt(buf.size - 1)
    buf.fill(0.0)
    for chunks, xb, zb in zip(block_rows, x, zinv):
        s = xb.shape[0]
        for groups, tail, used, target in chunks:
            t = np.empty((groups[-1][0].stop, s, s))
            for rows, p, q, v in groups:
                np.matmul((xb[:, p] * v).transpose(1, 0, 2), zb[q], out=t[rows])
            np.add.at(buf, target, (tail @ t.reshape(len(t), -1).T[used]).ravel())
    return buf[:-1].reshape((m, m), order="F")


def _sym(stack: np.ndarray) -> np.ndarray:
    return (stack + stack.swapaxes(-1, -2)) / 2.0


def _cholesky_blocks(stacks: list[np.ndarray]) -> list[np.ndarray] | None:
    """Cholesky factors of every stack, or None if any matrix is not positive definite."""
    try:
        return [np.linalg.cholesky(st) for st in stacks]
    except np.linalg.LinAlgError:
        return None


def _halves(stacks: list[np.ndarray], counts: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """X's and Z's views of joint X/Z stacks, X's ``counts[g]`` blocks first in stack g."""
    return [st[:n] for st, n in zip(stacks, counts)], [st[n:] for st, n in zip(stacks, counts)]


def _cholesky_joint(stacks: list[np.ndarray], counts: list[int]) -> tuple[list[np.ndarray] | None, str]:
    """Factors of joint X/Z stacks, X's ``counts[g]`` blocks first in stack g.

    Returns (factors, "") or, when a matrix is not positive definite,
    (None, "X") or (None, "Z").  A stack fails exactly when one of its
    matrices does, so only then is X factored alone, to name the one that
    failed.
    """
    factors = _cholesky_blocks(stacks)
    if factors is not None:
        return factors, ""
    return None, "X" if _cholesky_blocks(_halves(stacks, counts)[0]) is None else "Z"


def _step_lengths(inverses: list[np.ndarray], dx: list, dz: list, fraction: float) -> tuple[float, float]:
    """Fraction-to-boundary steps (X's, Z's), each at most 1, for joint X/Z stacks.

    ``inverses`` holds the inverse Cholesky factors of the joint stacks, X's
    blocks first, and dx, dz the steps of X and Z.  The largest alpha
    keeping L L^T + alpha*D positive semidefinite is -1/lambda_min(L^-1 D
    L^-T), or unbounded when that eigenvalue is not negative; the step is
    ``fraction`` of it: ``_BOUNDARY_FRACTION`` for the predictor, and for
    the corrector SDPT3's adaptive 0.9 + 0.09 min(alpha_p, alpha_d) of the
    previous corrector steps (see the module docstring).  The caller
    factors the updated blocks, and a failed factor ends the solve.
    """
    x_minima, z_minima = [], []
    for li, dxg, dzg in zip(inverses, dx, dz):
        lam = np.linalg.eigvalsh(_sym(li @ np.concatenate((dxg, dzg)) @ li.swapaxes(-1, -2)))[:, 0]
        x_minima.append(float(lam[:len(dxg)].min()))
        z_minima.append(float(lam[len(dxg):].min()))
    return tuple(
        1.0 if lam >= -1e-14 else min(1.0, fraction * (-1.0 / lam))
        for lam in (min(x_minima), min(z_minima))
    )


@functools.cache
def _openblas() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of the OpenBLAS builds numpy and scipy load.

    numpy's wheel bundles a 64-bit-integer build, scipy's a 32-bit one, and
    each has its own thread pool.  Empty when neither exports the functions,
    as with another BLAS.  Looked up on first use, not at import.
    """
    found = []
    for package, pattern, suffix in (
        (np, "numpy.libs/libscipy_openblas64_*.so", "64_"),
        (scipy, "scipy.libs/libscipy_openblas-*.so", ""),
    ):
        for path in sorted(Path(package.__file__).resolve().parent.parent.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.append((get, put))
    return tuple(found)


@contextlib.contextmanager
def _blas_threads(count: int):
    """Run the body with ``count`` OpenBLAS threads, then restore the caller's counts.

    The counts are process-wide, so bodies running at once in threads of
    one process see each other's setting.
    """
    controls = _openblas()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(count)
    try:
        yield
    finally:
        for (_, put), threads in zip(controls, saved):
            put(threads)


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Solve the SDP; deterministic for fixed inputs, whatever the caller's BLAS threads."""
    with _blas_threads(1):
        return _solve(problem, config or SolverConfig())


def _solve(problem: SdpProblem, config: SolverConfig) -> SdpSolution:
    problem.validate()
    dims = list(problem.block_dims)
    indexer = _indexer(tuple(dims))
    c = indexer.stack([np.asarray(mat, dtype=float) for mat in problem.objective])
    cvec = indexer.pack_stacks(c)

    m_rows = problem.a.shape[0]
    kept, consistent = _preprocess_rows(problem.a, problem.rhs)
    if not consistent:
        zeros = [np.zeros((s, s)) for s in dims]
        return SdpSolution(
            zeros, np.zeros(m_rows), 0.0, math.inf, math.inf, "infeasible_detected",
            reason="preprocessing found inconsistent constraint rows",
        )
    a = problem.a[kept]
    rhs = problem.rhs[kept]
    m = a.shape[0]
    # a is fixed from here on, so its transpose (a CSC view) is built once
    a_t = a.T
    block_rows = _block_rows(a, indexer)
    # the one Schur complement of the solve: each iteration assembles and factors M in it
    schur = np.empty(m * m + 1)

    # the program's scales, read once: the starting iterate tau * I, the
    # infeasibility norms and the divergence bound derive from them
    rhs_max = float(np.abs(rhs).max(initial=0.0))
    c_max = max(float(np.abs(st).max()) for st in c)
    tau = max(1.0, rhs_max, c_max)
    norm_rhs, norm_c, divergence = 1.0 + rhs_max, 1.0 + c_max, _DIVERGENCE_BOUND * tau
    # X, Z, their factors and every step are lists of per-size stacks; X and
    # Z of one size are the two halves of one joint stack, X's blocks first
    counts = [len(mem) for mem in indexer.members]
    xz = [np.concatenate((st, st)) for st in indexer.stack([tau * np.eye(s) for s in dims])]
    x, z = _halves(xz, counts)
    xz_chol = _cholesky_blocks(xz)
    y = np.zeros(m)
    ntotal = sum(dims)

    def apply_a(stacks: list[np.ndarray]) -> np.ndarray:
        return a @ indexer.pack_stacks(stacks)

    def measure(stacks: list[np.ndarray], yv: np.ndarray) -> tuple[np.ndarray, float, float]:
        """svec(X), the primal objective and the relative gap of an iterate."""
        xvec = indexer.pack_stacks(stacks)
        pobj, dobj = float(cvec @ xvec), float(rhs @ yv)
        return xvec, pobj, abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

    def adjoint(yv: np.ndarray) -> list[np.ndarray]:
        return indexer.unpack_stacks(a_t @ yv)

    def inner(left: list[np.ndarray], right: list[np.ndarray]) -> float:
        return sum(float(np.vdot(lt, rt)) for lt, rt in zip(left, right))

    status, reason = "max_iter", f"no convergence within {config.max_iterations} iterations"
    mu_history: list[float] = []
    iterations = 0
    # the corrector's fraction to the boundary, as if the step before the first were full
    fraction = 0.99

    for iteration in range(config.max_iterations):
        iterations = iteration + 1
        xvec, _, gap_rel = measure(x, y)
        rp = rhs - a @ xvec
        rd = [cg - atyg + zg for cg, atyg, zg in zip(c, adjoint(y), z)]
        mu = inner(x, z) / ntotal
        mu_history.append(mu)
        pinf = float(np.abs(rp).max(initial=0.0)) / norm_rhs
        dinf = max(float(np.abs(rdg).max()) for rdg in rd) / norm_c
        if gap_rel <= config.gap_tol and pinf <= config.feasibility_tol and dinf <= config.feasibility_tol:
            status, reason = "optimal", ""
            break

        # one inverse per factor serves Z^-1 and both step lengths; symmetrize
        # the rounded Z^-1 so that svec pairings see both triangles
        inv_chol = [np.linalg.inv(l) for l in xz_chol]
        zinv = [_sym(li.swapaxes(-1, -2) @ li) for li in _halves(inv_chol, counts)[1]]
        big_m = _schur_complement(block_rows, indexer.unstack(x), indexer.unstack(zinv), schur)
        try:
            # potrf overwrites the lower triangle of M with its factor, in the solve's one buffer
            factor = scipy.linalg.cho_factor(big_m, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            reason = f"Schur complement not positive definite at iteration {iterations}"
            break
        az = apply_a(zinv)
        xrz = [_sym(xg @ rdg @ zig) for xg, rdg, zig in zip(x, rd, zinv)]

        def direction(sigma_mu: float, cross: list):
            # Solve M dy = sigma*mu*A(Z^-1) + A(sym(X Rd Z^-1) - K) - b, then
            # dZ = A*dy - Rd and dX from the symmetrized complementarity row.
            extra = [xrzg - kg for xrzg, kg in zip(xrz, cross)]
            dy = scipy.linalg.cho_solve(factor, sigma_mu * az + apply_a(extra) - rhs, check_finite=False)
            dz = [atdyg - rdg for atdyg, rdg in zip(adjoint(dy), rd)]
            dx = [
                sigma_mu * zig - xg - _sym(xg @ dzg @ zig) - kg
                for xg, dzg, zig, kg in zip(x, dz, zinv, cross)
            ]
            return dx, dy, dz

        dx_aff, dy_aff, dz_aff = direction(0.0, [0.0] * len(x))
        ap, ad = _step_lengths(inv_chol, dx_aff, dz_aff, _BOUNDARY_FRACTION)
        mu_aff = inner(
            [xg + ap * dxg for xg, dxg in zip(x, dx_aff)], [zg + ad * dzg for zg, dzg in zip(z, dz_aff)]
        ) / ntotal
        sigma = min(1.0, max(0.0, (mu_aff / mu)) ** 3)

        cross = [_sym(dxg @ dzg @ zig) for dxg, dzg, zig in zip(dx_aff, dz_aff, zinv)]
        dx, dy, dz = direction(sigma * mu, cross)

        # the factors of the new iterate serve the next iteration
        ap, ad = _step_lengths(inv_chol, dx, dz, fraction)
        fraction = 0.9 + 0.09 * min(ap, ad)
        xz_new = [np.concatenate((xg + ap * dxg, zg + ad * dzg)) for xg, dxg, zg, dzg in zip(x, dx, z, dz)]
        xz_chol, name = _cholesky_joint(xz_new, counts)
        if name:
            alpha = ap if name == "X" else ad
            status = "numerical_failure"
            reason = f"{name} not positive definite after step {alpha:.3g} at iteration {iterations}"
            break
        x_new, z_new = _halves(xz_new, counts)
        y_new = y + ad * dy
        # written so that a NaN fails the test too
        x_max = max((float(np.abs(st).max()) for st in x_new), default=0.0)
        y_max = float(np.abs(y_new).max(initial=0.0))
        if not (x_max <= divergence and y_max <= divergence):
            status = "numerical_failure"
            reason = (
                f"iterates diverge (max |X| {x_max:.3g}, max |y| {y_max:.3g}, "
                f"bound {divergence:.3g}) at iteration {iterations}"
            )
            break
        x, z, y = x_new, z_new, y_new

    xvec, pobj, gap = measure(x, y)
    residual = float(np.abs(problem.rhs - problem.a @ xvec).max(initial=0.0))
    dual_full = np.zeros(m_rows)
    dual_full[kept] = y
    if status == "optimal" and residual > config.feasibility_tol * norm_rhs:
        status = "numerical_failure"
        reason = (
            f"residual {residual:.3g} on the original rows exceeds "
            f"{config.feasibility_tol * norm_rhs:.3g} at iteration {iterations}"
        )
    return SdpSolution(
        blocks=indexer.unstack(x),
        dual=dual_full,
        objective_value=pobj,
        gap=gap,
        primal_residual=residual,
        status=status,
        iterations=iterations,
        mu_history=mu_history,
        reason=reason,
    )


@dataclass(frozen=True)
class VerificationReport:
    objective: float
    max_constraint_violation: float
    block_min_eigenvalues: tuple[float, ...]
    dual_objective: float
    dual_min_eigenvalue: float
    gap: float


def _min_eigenvalues(indexer: _SvecIndexer, stacks: list[np.ndarray]) -> list[float]:
    """Smallest eigenvalue of each block's symmetric part, in block order, one eigvalsh per size."""
    return [float(lam) for lam in indexer.unstack([np.linalg.eigvalsh(_sym(st))[:, 0] for st in stacks])]


def verify(problem: SdpProblem, solution: SdpSolution) -> VerificationReport:
    """Recompute residuals from the original rows, independent of solver bookkeeping."""
    if len(solution.blocks) != len(problem.block_dims):
        raise ValueError("solution block count does not match problem")
    for mat, s in zip(solution.blocks, problem.block_dims):
        if mat.shape != (s, s):
            raise ValueError("solution block shape mismatch")
    m_rows = problem.a.shape[0]
    if np.shape(solution.dual) != (m_rows,):
        raise ValueError(f"dual of shape {np.shape(solution.dual)} does not match {m_rows} rows")
    indexer = _indexer(tuple(problem.block_dims))
    costs = [np.asarray(cost, dtype=float) for cost in problem.objective]
    objective = 0.0
    for mat, cost in zip(solution.blocks, costs):
        objective += float(np.sum(cost * mat))
    xvec = indexer.pack([(b + b.T) / 2.0 for b in solution.blocks])
    violation = float(np.abs(problem.a @ xvec - problem.rhs).max(initial=0.0))
    minima = tuple(_min_eigenvalues(indexer, indexer.stack(solution.blocks)))
    dual_obj = float(problem.rhs @ solution.dual)
    aty = indexer.unpack_stacks(problem.a.T @ solution.dual)
    slack = [st - cost for st, cost in zip(aty, indexer.stack(costs))]
    dual_min = min(_min_eigenvalues(indexer, slack), default=math.inf)
    gap = abs(objective - dual_obj) / (1.0 + abs(objective) + abs(dual_obj))
    return VerificationReport(
        objective=objective,
        max_constraint_violation=violation,
        block_min_eigenvalues=minima,
        dual_objective=dual_obj,
        dual_min_eigenvalue=dual_min,
        gap=gap,
    )
