"""Dense complex linear algebra for multi-qudit states and operators.

Subsystem index convention, fixed project-wide: index 0 is the leftmost
tensor factor and the most significant digit of a computational-basis
label.  Circuit wire k (numbered from 1, top down) maps to subsystem
index k - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Tolerance of the construction-time algebraic checks (unitarity,
# Hermiticity, determinant).
CONSTRUCTION_ATOL = 1e-12


def _as_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid subsystem dimensions {dims}")
    return dims


@dataclass(frozen=True)
class Statevector:
    """Complex amplitude vector over a list of subsystem dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_dims(self.dims))
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != math.prod(self.dims):
            raise ValueError(
                f"amplitude vector of length {amps.size} does not match dims {self.dims}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "Statevector") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "Statevector") -> float:
        """Squared overlap |<self|other>|^2."""
        return abs(self.overlap(other)) ** 2


def basis_state(dims, digits) -> Statevector:
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
    return Statevector(amps, dims)


def tensor_states(*states: Statevector) -> Statevector:
    amps = states[0].amplitudes
    dims: tuple[int, ...] = states[0].dims
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
        dims = dims + s.dims
    return Statevector(amps, dims)


def random_state(dims, rng) -> Statevector:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    rng = np.random.default_rng(rng)
    dims = _as_dims(dims)
    total = math.prod(dims)
    v = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return Statevector(v / np.linalg.norm(v), dims)


@dataclass(frozen=True)
class DenseUnitary:
    """Dense square matrix, checked unitary on construction unless disabled."""

    entries: np.ndarray
    dim: int = 0
    check: bool = field(default=True, repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", m.shape[0])
        if self.check:
            err = np.abs(m.conj().T @ m - np.eye(self.dim)).max()
            if err > CONSTRUCTION_ATOL:
                raise ValueError(f"matrix is not unitary (deviation {err:.3e})")

    def determinant(self) -> complex:
        return complex(np.linalg.det(self.entries))

    def __matmul__(self, other: "DenseUnitary") -> "DenseUnitary":
        return DenseUnitary(self.entries @ other.entries, check=False)


@dataclass(frozen=True)
class DensityOrChoiMatrix:
    """Square matrix over a labeled tensor factorization of subsystems."""

    entries: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] | None = None
    hermitian: bool = field(default=True, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_dims(self.dims))
        m = np.asarray(self.entries, dtype=complex)
        total = math.prod(self.dims)
        if m.shape != (total, total):
            raise ValueError(f"matrix shape {m.shape} does not match dims {self.dims}")
        object.__setattr__(self, "entries", m)
        if self.labels is not None and len(self.labels) != len(self.dims):
            raise ValueError("labels must match number of subsystems")
        if self.hermitian:
            err = np.abs(m - m.conj().T).max()
            if err > CONSTRUCTION_ATOL:
                raise ValueError(f"matrix is not Hermitian (deviation {err:.3e})")

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


def _check_targets(targets, n: int) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target subsystems in {targets}")
    if any(not 0 <= t < n for t in targets):
        raise ValueError(f"target index out of range in {targets} for {n} subsystems")
    return targets


def apply_to_subsystems(state: Statevector, u: DenseUnitary | np.ndarray, targets) -> Statevector:
    """Apply ``u`` to the listed subsystems (in the listed order).

    All other subsystems are untouched; the operation is norm preserving
    when ``u`` is unitary.
    """
    dims = state.dims
    n = len(dims)
    targets = _check_targets(targets, n)
    mat = u.entries if isinstance(u, DenseUnitary) else np.asarray(u, dtype=complex)
    target_dim = math.prod(dims[t] for t in targets)
    if mat.shape != (target_dim, target_dim):
        raise ValueError(
            f"operator of shape {mat.shape} does not match target dimensions {target_dim}"
        )
    rest = [i for i in range(n) if i not in targets]
    perm = list(targets) + rest
    tensor = state.amplitudes.reshape(dims).transpose(perm)
    tensor = tensor.reshape(target_dim, -1)
    tensor = (mat @ tensor).reshape([dims[i] for i in perm])
    inverse = np.argsort(perm)
    out = tensor.transpose(inverse).reshape(-1)
    return Statevector(out, dims)


def embed_operator(op: np.ndarray, targets, dims) -> np.ndarray:
    """Matrix acting as ``op`` on the listed subsystems and identity elsewhere.

    ``targets`` gives the subsystems hosting the consecutive tensor factors
    of ``op``, so the listed order matters.
    """
    dims = _as_dims(dims)
    n = len(dims)
    targets = _check_targets(targets, n)
    op = np.asarray(op, dtype=complex)
    target_dim = math.prod(dims[t] for t in targets)
    if op.shape != (target_dim, target_dim):
        raise ValueError(f"operator shape {op.shape} does not match targets {targets}")
    rest = [i for i in range(n) if i not in targets]
    rest_dim = math.prod(dims[i] for i in rest)
    big = np.kron(op, np.eye(rest_dim))
    # big acts on factor order targets + rest; permute into natural order.
    perm = list(targets) + rest
    inverse = list(np.argsort(perm))
    shaped = big.reshape([dims[i] for i in perm] * 2)
    axes = inverse + [n + i for i in inverse]
    total = math.prod(dims)
    return shaped.transpose(axes).reshape(total, total)


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def partial_trace(m: DensityOrChoiMatrix | np.ndarray, keep, dims=None) -> DensityOrChoiMatrix:
    """Trace out every subsystem not listed in ``keep``.

    Kept subsystems stay in their original relative order; the total trace
    is preserved.
    """
    if isinstance(m, DensityOrChoiMatrix):
        dims = m.dims
        labels = m.labels
        mat = m.entries
    else:
        if dims is None:
            raise ValueError("dims required when tracing a bare array")
        dims = _as_dims(dims)
        labels = None
        mat = np.asarray(m, dtype=complex)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(not 0 <= k < n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    tensor = mat.reshape(list(dims) * 2)
    discard = [i for i in range(n) if i not in keep]
    current = list(range(n))
    for subsystem in reversed(discard):
        axis = current.index(subsystem)
        tensor = np.trace(tensor, axis1=axis, axis2=axis + len(current))
        current.pop(axis)
    kept_dims = tuple(dims[k] for k in keep)
    total = math.prod(kept_dims) if kept_dims else 1
    kept_labels = tuple(labels[k] for k in keep) if labels is not None else None
    return DensityOrChoiMatrix(
        tensor.reshape(total, total), kept_dims or (1,), kept_labels, hermitian=False
    )


def reduced_density_matrix(state: Statevector, keep) -> np.ndarray:
    """Reduced density matrix of a pure state on the kept subsystems."""
    dims = state.dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(not 0 <= k < n for k in keep):
        raise ValueError(f"keep indices {keep} out of range")
    rest = [i for i in range(n) if i not in keep]
    perm = keep + rest
    dk = math.prod(dims[k] for k in keep)
    psi = state.amplitudes.reshape(dims).transpose(perm).reshape(dk, -1)
    return psi @ psi.conj().T


def haar_unitary(d: int, seed) -> DenseUnitary:
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
    return DenseUnitary(u)


def project_to_special_unitary(u: DenseUnitary | np.ndarray) -> DenseUnitary:
    """Divide out a determinant root.  Never applied implicitly."""
    mat = u.entries if isinstance(u, DenseUnitary) else np.asarray(u, dtype=complex)
    d = mat.shape[0]
    det = np.linalg.det(mat)
    if abs(abs(det) - 1.0) > CONSTRUCTION_ATOL * 100:
        raise ValueError("input is not unitary; cannot normalize determinant")
    return DenseUnitary(mat * np.exp(-1j * np.angle(det) / d))
