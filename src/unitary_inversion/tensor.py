"""Dense complex linear algebra for multi-qudit states and operators.

Subsystem index convention, fixed project-wide: index 0 is the leftmost
tensor factor and the most significant digit of a computational-basis
label.  Circuit wire k (numbered from 1, top down) maps to subsystem
index k - 1.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Tolerance of the construction-time algebraic checks (unitarity,
# determinant).
CONSTRUCTION_ATOL = 1e-12


def _as_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid subsystem dimensions {dims}")
    return dims


def basis_state(dims, digits) -> np.ndarray:
    """Computational basis state |digits[0] digits[1] ...> over ``dims``."""
    dims = _as_dims(dims)
    digits = tuple(int(x) for x in digits)
    if len(digits) != len(dims) or any(not 0 <= x < d for x, d in zip(digits, dims)):
        raise ValueError(f"digits {digits} invalid for dims {dims}")
    index = 0
    for x, d in zip(digits, dims):
        index = index * d + x
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[index] = 1.0
    return amps


def random_state(dims, rng) -> np.ndarray:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    rng = np.random.default_rng(rng)
    total = math.prod(_as_dims(dims))
    v = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return v / np.linalg.norm(v)


def check_unitary(mat) -> np.ndarray:
    """``mat`` as a complex array; raises unless it is a finite square unitary matrix."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    err = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
    if not err <= CONSTRUCTION_ATOL:
        raise ValueError(f"matrix is not unitary (deviation {err:.3e})")
    return m


def _check_targets(targets, n: int) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target subsystems in {targets}")
    if any(not 0 <= t < n for t in targets):
        raise ValueError(f"target index out of range in {targets} for {n} subsystems")
    return targets


@lru_cache(maxsize=256)
def _layout(dims: tuple, targets: tuple) -> tuple[int, int, int]:
    """(left, target dimension, right) for consecutive ascending ``targets`` of ``dims``.

    A state over ``dims`` reshaped to these three axes has the targets on
    the middle one.  Validates both once per pair; any other target order
    raises, and exceptions are not cached.
    """
    dims = _as_dims(dims)
    targets = _check_targets(targets, len(dims))
    start = targets[0] if targets else 0
    stop = start + len(targets)
    if targets != tuple(range(start, stop)):
        raise ValueError(f"targets {targets} are not consecutive ascending subsystems")
    return math.prod(dims[:start]), math.prod(dims[start:stop]), math.prod(dims[stop:])


def _wire_view(state: np.ndarray, targets, dims) -> np.ndarray:
    """``state`` reshaped to (left, target dimension, right) by the cached layout."""
    left, dim, right = _layout(tuple(dims), tuple(targets))
    state = np.asarray(state)
    if state.shape != (left * dim * right,):
        raise ValueError(f"state of shape {state.shape} does not match dims {tuple(dims)}")
    return state.reshape(left, dim, right)


def apply_to_subsystems(state: np.ndarray, u: np.ndarray, targets, dims) -> np.ndarray:
    """Apply ``u`` to adjacent subsystems, listed in ascending order, of a state over ``dims``.

    All other subsystems are untouched; the operation is norm preserving
    when ``u`` is unitary.  The state and operator shapes are checked on
    every call; the cost is one reshape and one matrix product.
    """
    view = _wire_view(state, targets, dims)
    mat = np.asarray(u, dtype=complex)
    if mat.shape != (view.shape[1],) * 2:
        raise ValueError(
            f"operator of shape {mat.shape} does not match target dimensions {view.shape[1]}"
        )
    return (mat @ view).reshape(-1)


def permute_factors(mat: np.ndarray, dims, order) -> np.ndarray:
    """Reorder the tensor factors of a square matrix, rows and columns alike.

    Factor k of the result is factor ``order[k]`` of ``mat`` (of dimension
    ``dims[order[k]]``); ``np.argsort(order)`` undoes the reordering.
    """
    dims = _as_dims(dims)
    total = math.prod(dims)
    mat = np.asarray(mat)
    if mat.shape != (total, total):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
    axes = [int(k) for k in order]
    axes += [len(dims) + k for k in axes]
    return mat.reshape(dims * 2).transpose(axes).reshape(total, total)


def embed_operator(op: np.ndarray, targets, dims) -> np.ndarray:
    """Matrix acting as ``op`` on the listed subsystems and identity elsewhere.

    ``targets`` gives the subsystems hosting the consecutive tensor factors
    of ``op``, so the listed order matters.  The result keeps ``op``'s dtype.
    """
    dims = _as_dims(dims)
    n = len(dims)
    targets = _check_targets(targets, n)
    op = np.asarray(op)
    target_dim = math.prod(dims[t] for t in targets)
    if op.shape != (target_dim, target_dim):
        raise ValueError(f"operator shape {op.shape} does not match targets {targets}")
    order = list(targets) + [i for i in range(n) if i not in targets]
    big = np.kron(op, np.eye(math.prod(dims) // target_dim))
    return permute_factors(big, [dims[i] for i in order], np.argsort(order))


def partial_trace(mat: np.ndarray, keep, dims) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    Kept subsystems stay in their original relative order; ``keep=()``
    gives the 1x1 total trace.
    """
    dims = _as_dims(dims)
    n = len(dims)
    keep = sorted(_check_targets(keep, n))
    rest = [i for i in range(n) if i not in keep]
    kept = math.prod(dims[k] for k in keep)
    traced = math.prod(dims[i] for i in rest)
    moved = permute_factors(mat, dims, keep + rest).reshape(kept, traced, kept, traced)
    return np.trace(moved, axis1=1, axis2=3)


def reduced_density_matrix(state: np.ndarray, keep, dims) -> np.ndarray:
    """Reduced density matrix of a pure state over ``dims`` on adjacent ``keep``, listed ascending."""
    view = _wire_view(state, keep, dims)
    psi = view.transpose(1, 0, 2).reshape(view.shape[1], -1)
    return psi @ psi.conj().T


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-random special unitary on C^d.

    Complex Gaussian matrix, QR with the phase of the R diagonal absorbed
    into Q (exact Haar distribution on U(d)), then a determinant root is
    divided out to land in SU(d).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    u = q * phases
    det = np.linalg.det(u)
    u = u * np.exp(-1j * np.angle(det) / d)
    return check_unitary(u)


def project_to_special_unitary(u: np.ndarray) -> np.ndarray:
    """Divide out a determinant root.  Never applied implicitly."""
    mat = np.asarray(u, dtype=complex)
    d = mat.shape[0]
    det = np.linalg.det(mat)
    if not abs(abs(det) - 1.0) <= CONSTRUCTION_ATOL * 100:
        raise ValueError("input is not unitary; cannot normalize determinant")
    return check_unitary(mat * np.exp(-1j * np.angle(det) / d))
