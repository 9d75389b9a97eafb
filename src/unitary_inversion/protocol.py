"""Exact qubit-unitary inversion on seven qubits.

The circuit consumes four black-box calls of an unknown U in SU(2) and
outputs U^{-1} applied to the input qubit, together with the two-qubit
state (U x 1)|psi^-> on the top wires and restored |0> ancillas.  The two
fixed unitaries are assembled from Clebsch-Gordan transforms that convert
between computational qubits and total-spin label registers.

Label conventions: a j-register stores floor(j) in binary, an m-register
stores m + j in binary, and a single qubit |1> carries spin up (+1/2).
Every circuit (VCG2, VCG3, V1, V2) is a list of (controls, targets, op)
gates composed by one function, ``_circuit``.  The Clebsch-Gordan blocks
have two build paths: ``gate`` composes their gate lists, ``matrix``
reads every defined column from one coupling rule (``_coupled``: one
qubit added to spin j) and completes the free columns by an SVD of the
defined ones.  Both agree on every state the protocol can reach, and may
differ off it.  The gate path is the protocol; the matrix path is the
reference that the tests and the benchmark compare it against, and no
user option selects it.

An input state has its ancillas at |0000>: two top-wire factors at
stride 16 in a zero 128-vector.  One loop, ``_run``, applies rounds of
(call, V1, call, V2): two for a standard run, two without the first call
for a catalytic one, one for the transfer matrix.  Calls act on one wire
through ``tensor.apply_to_subsystems``, V1 and V2 as matrix-vector
products.  Inputs are checked in closed form on their entries (U unitary
with determinant 1, states of norm 1, each within 1e-10), so NaN and inf
entries are rejected too.  The module needs numpy and ``tensor`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import (
    apply_to_subsystems,
    check_unitary,
    embed_operator,
    reduced_density_matrix,
)

NUM_WIRES = 7
DIMS = (2,) * NUM_WIRES
# Wire roles (0-based): 0 input qubit, 1-2 singlet pair, 3-6 ancillas.
INPUT_WIRE = 0
ANCILLA_WIRES = (3, 4, 5, 6)
CALL_WIRE = 1  # every black-box call acts here

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def rotation_y(theta: float) -> np.ndarray:
    """Real y-rotation [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def cg_angle(j: float, m_prime: float) -> float:
    """Angle theta of adding one spin-1/2 to spin j: cos(theta) = sqrt((j + m' + 1/2) / (2j + 1))."""
    if j < 0 or abs(round(2 * j) - 2 * j) > 1e-12 or abs(round(2 * m_prime) - 2 * m_prime) > 1e-12:
        raise ValueError(f"j and m' must be non-negative half-integers: ({j}, {m_prime})")
    up = j + m_prime + 0.5  # must be an integer for the coupling to exist
    if abs(m_prime) > j + 0.5 + 1e-12 or abs(round(up) - up) > 1e-12:
        raise ValueError(f"no valid coupling for (j={j}, m'={m_prime})")
    ratio = up / (2.0 * j + 1.0)
    ratio = min(1.0, max(0.0, ratio))
    return math.acos(math.sqrt(ratio))


def _controlled(n: int, controls: dict[int, int], targets: tuple[int, ...], op: np.ndarray) -> np.ndarray:
    """Gate applying ``op`` to ``targets`` when every control matches its value.

    Identity on every control pattern but the hit one, whose diagonal
    block is ``op``.
    """
    size = len(op)
    hit = int(np.ravel_multi_index(tuple(controls.values()), (2,) * len(controls))) * size
    gate = np.eye(2 ** len(controls) * size, dtype=complex)
    gate[hit : hit + size, hit : hit + size] = op
    return embed_operator(gate, tuple(controls) + tuple(targets), (2,) * n)


def _circuit(n: int, gates: list[tuple[dict[int, int], tuple[int, ...], np.ndarray]]) -> np.ndarray:
    """Compose ``(controls, targets, op)`` gates listed in circuit order (first acts first)."""
    mat = np.eye(2**n, dtype=complex)
    for controls, targets, op in gates:
        mat = _controlled(n, controls, targets, op) @ mat
    return mat


def build_vcg2() -> np.ndarray:
    """Three-qubit coupling circuit: two qubits plus |0> to (j, m) labels.

    Output registers: wire 0 holds the j bit, wires 1-2 hold m + j.
    """
    ry = rotation_y(math.pi / 2.0)
    return check_unitary(_circuit(3, [
        ({0: 1, 1: 1}, (2,), _X),
        ({1: 1}, (0,), _X),
        ({2: 0}, (1,), ry),
        ({0: 0, 2: 0}, (1,), ry),
        ({1: 0}, (0,), _X),
        ({}, (0, 1), _SWAP),
        ({}, (1, 2), _SWAP),
    ]))


def build_vcg3() -> np.ndarray:
    """Four-qubit coupling circuit: (j, m) labels plus one qubit to (j', m', p') labels.

    Wire layout: 0 j-bit in / j'-bit out, 1-2 m-register in / m'-register
    out, 3 fresh qubit in / multiplicity bit out.  The rotation angle is
    2*arccos(sqrt(2/3)).
    """
    theta = 2.0 * math.acos(math.sqrt(2.0 / 3.0))
    return check_unitary(_circuit(4, [
        ({0: 0}, (2,), _X),
        ({2: 1, 3: 1}, (1,), _X),
        ({3: 1}, (2,), _X),
        ({1: 1}, (2,), _X),
        ({1: 0}, (3,), rotation_y(math.pi)),
        ({0: 1, 1: 0, 2: 1}, (3,), rotation_y(-theta)),
        ({0: 1, 1: 1, 2: 1}, (3,), rotation_y(theta)),
        ({3: 1}, (0,), _X),
        ({}, (0,), _X),
        ({}, (1, 2), _SWAP),
        ({}, (1,), _X),
        ({0: 1}, (1,), _X),
        ({0: 1}, (1, 2), _SWAP),
        ({0: 1, 1: 1}, (2,), _X),
    ]))


def _complete_isometry(columns: dict[int, np.ndarray], dim: int) -> np.ndarray:
    """Extend orthonormal defined columns to a unitary, deterministically.

    The free columns, in index order, are the left singular vectors of the
    defined ones that span their orthogonal complement.
    """
    defined = sorted(columns)
    free = [col for col in range(dim) if col not in columns]
    mat = np.zeros((dim, dim), dtype=complex)
    mat[:, defined] = np.column_stack([columns[col] for col in defined])
    mat[:, free] = np.linalg.svd(mat[:, defined])[0][:, len(defined):]
    return mat


def _coupled(j: float, m: float, j_old: float) -> list[tuple[float, float, int]]:
    """Terms (coefficient, old m, qubit) of |j; m> built from spin ``j_old`` plus one qubit.

    With theta = cg_angle(j_old, m), the qubit-down term (|0>, old m = m + 1/2)
    and the qubit-up term (|1>, old m = m - 1/2) weigh cos theta and
    -sin theta for j = j_old - 1/2, sin theta and cos theta for
    j = j_old + 1/2.  Terms whose old m lies outside +-j_old are dropped.
    """
    theta = cg_angle(j_old, m)
    c, s = math.cos(theta), math.sin(theta)
    down, up = (c, -s) if j < j_old else (s, c)
    terms = ((down, m + 0.5, 0), (up, m - 0.5, 1))
    return [(w, m_old, q) for w, m_old, q in terms if abs(m_old) <= j_old]


def build_vcg2_matrix() -> np.ndarray:
    """Coupling transform for two qubits from its defining relations.

    Column (j bit, m-register) of the inverse is |j; m> of the two qubits,
    the first qubit a spin 1/2 with m + 1/2 as its value, with the third
    wire at |0>; the remainder is a deterministic unitary completion.
    """
    columns: dict[int, np.ndarray] = {}
    for jbit, j in ((0, 0.0), (1, 1.0)):
        for reg in range(int(2 * j) + 1):
            vec = np.zeros(8, dtype=complex)
            for w, m_old, q in _coupled(j, reg - j, 0.5):
                vec[(int(m_old + 0.5) << 2) | (q << 1)] += w
            columns[(jbit << 2) | reg] = vec
    return check_unitary(_complete_isometry(columns, 8).conj().T)


# The labels of the three-qubit coupling, one row per (j', p') family:
# (j bit, j, j' bit, j', multiplicity bit), j the two-qubit spin it descends from.
_VCG3_LABELS = ((1, 1.0, 0, 0.5, 0), (0, 0.0, 0, 0.5, 1), (1, 1.0, 1, 1.5, 1))


def build_vcg3_matrix() -> np.ndarray:
    """Coupling transform for (two-qubit labels + one qubit) from its relations.

    Column (j' bit, m'-register, p') of the inverse is |j'; m'> built from
    the (j bit, m-register) label of its row in ``_VCG3_LABELS`` and the new
    qubit; completion as in the two-qubit build.
    """
    columns: dict[int, np.ndarray] = {}
    for jbit, j, jbit_new, j_new, p in _VCG3_LABELS:
        for reg_new in range(int(2 * j_new) + 1):
            vec = np.zeros(16, dtype=complex)
            for w, m_old, q in _coupled(j_new, reg_new - j_new, j):
                vec[(jbit << 3) | (int(m_old + j) << 1) | q] += w
            columns[(jbit_new << 3) | (reg_new << 1) | p] = vec
    return check_unitary(_complete_isometry(columns, 16).conj().T)


@dataclass(frozen=True)
class ProtocolCircuit:
    """The two fixed seven-qubit unitaries."""

    v1: np.ndarray
    v2: np.ndarray


def build_protocol(path: str = "gate") -> ProtocolCircuit:
    """The two fixed unitaries from either build path, built once and read-only."""
    return _build_protocol(path)


@lru_cache(maxsize=None)
def _build_protocol(path: str) -> ProtocolCircuit:
    if path == "gate":
        vcg2, vcg3 = build_vcg2(), build_vcg3()
    elif path == "matrix":
        vcg2, vcg3 = build_vcg2_matrix(), build_vcg3_matrix()
    else:
        raise ValueError(f"unknown build path {path!r}")
    v1 = check_unitary(_circuit(NUM_WIRES, [
        ({}, (2, 5), _SWAP),
        ({}, (0, 1, 2), vcg2),
        ({0: 1}, (6,), _X),
        ({}, (3, 4, 5, 6), vcg3.conj().T),
        ({}, (3, 6), _SWAP),
        ({}, (1, 3), _SWAP),
    ]))
    v2 = check_unitary(_circuit(NUM_WIRES, [
        ({}, (1, 3), _SWAP),
        ({}, (0, 1, 2, 3), vcg3),
        ({}, (4, 6), _SWAP),
        ({4: 1}, (3,), _X),
        ({}, (5, 6), _SWAP),
        ({}, (4, 5, 6), vcg2.conj().T),
        ({}, (2, 4), _SWAP),
        ({}, (1, 5), _SWAP),
        ({}, (0, 4), _SWAP),
    ]))
    v1.setflags(write=False)
    v2.setflags(write=False)
    return ProtocolCircuit(v1, v2)


def _require_su2(u: np.ndarray) -> np.ndarray:
    """``u`` as a complex 2x2 array; raises unless it lies in SU(2) within 1e-10.

    Closed forms in the entries [[a, b], [c, d]]: U^dag U - I from the column
    norms and inner product, then ad - bc.  NaN and inf fail ``not err <= tol``.
    """
    mat = np.asarray(u, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError("expected a single-qubit operator")
    a, b, c, d = mat.ravel().tolist()
    norm0 = math.hypot(a.real, a.imag, c.real, c.imag)
    norm1 = math.hypot(b.real, b.imag, d.real, d.imag)
    inner = a.conjugate() * b + c.conjugate() * d
    deviations = (norm0 * norm0 - 1.0, norm1 * norm1 - 1.0, math.hypot(inner.real, inner.imag))
    if not all(abs(x) <= 1e-10 for x in deviations):
        raise ValueError("input operator is not unitary")
    det = a * d - b * c
    if not math.hypot(det.real - 1.0, det.imag) <= 1e-10:
        raise ValueError(f"input must be special unitary (det 1), got det {det:.6f}")
    return mat


def _is_normalized(vec: np.ndarray) -> bool:
    """Whether the Euclidean norm of ``vec`` is within 1e-10 of one; False for NaN or inf."""
    return abs(math.hypot(*vec.real.tolist(), *vec.imag.tolist()) - 1.0) <= 1e-10


def _as_qubit_state(phi) -> np.ndarray:
    vec = np.asarray(phi, dtype=complex)
    if vec.shape != (2,):
        raise ValueError("expected a single-qubit state")
    if not _is_normalized(vec):
        raise ValueError("input state must be normalized")
    return vec


def _input_state(top: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """``top`` x ``rest`` on wires 0-2, ancillas at |0000>: stride 16 in a zero 128-vector."""
    state = np.zeros(2**NUM_WIRES, dtype=complex)
    state[:: 2 ** len(ANCILLA_WIRES)] = np.multiply.outer(top, rest).ravel()
    return state


def _rotated_singlet(u: np.ndarray) -> np.ndarray:
    """(U x 1)|psi^->, as U times the singlet's 2x2 coefficient matrix."""
    return (u @ SINGLET.reshape(2, 2)).ravel()


def expected_output(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Exact final state: -(U x 1)|psi^-> on wires 1-2, U^{-1}|phi> on wire 3."""
    return -_input_state(_rotated_singlet(u), u.conj().T @ phi)


def _run(
    state: np.ndarray, u: np.ndarray, circuit: ProtocolCircuit, rounds: int = 2, first_call: bool = True
) -> np.ndarray:
    """``rounds`` rounds of (call, V1, call, V2); ``first_call=False`` skips the first call."""
    for index in range(rounds):
        if index or first_call:
            state = apply_to_subsystems(state, u, (CALL_WIRE,), DIMS)
        state = circuit.v1 @ state
        state = apply_to_subsystems(state, u, (CALL_WIRE,), DIMS)
        state = circuit.v2 @ state
    return state


def run_inversion(
    u: np.ndarray,
    phi: np.ndarray,
    circuit: ProtocolCircuit | None = None,
) -> tuple[np.ndarray, float]:
    """Simulate the four-call inversion circuit; returns (final state, fidelity).

    Fidelity is the squared overlap with the exact expected output.
    """
    mat = _require_su2(u)
    vec = _as_qubit_state(phi)
    circuit = circuit or build_protocol()
    final = _run(_input_state(vec, SINGLET), mat, circuit)
    return final, abs(complex(np.vdot(final, expected_output(mat, vec)))) ** 2


def run_catalytic(
    u: np.ndarray,
    phi: np.ndarray,
    catalyst: np.ndarray,
    circuit: ProtocolCircuit | None = None,
) -> tuple[np.ndarray, float, float]:
    """Three-call run with the first call replaced by a supplied pair state.

    The pair state enters on the wires the first call would have produced
    it on; returns (final state, catalyst fidelity on the top pair,
    target fidelity of the third wire against U^{-1}|phi>).
    """
    mat = _require_su2(u)
    vec = _as_qubit_state(phi)
    cat = np.asarray(catalyst, dtype=complex)
    if cat.shape != (4,):
        raise ValueError("catalyst must be a two-qubit state")
    if not _is_normalized(cat):
        raise ValueError("catalyst must be normalized")
    circuit = circuit or build_protocol()
    final = _run(_input_state(vec, cat), mat, circuit, first_call=False)
    rho_pair = reduced_density_matrix(final, (0, 1), DIMS)
    catalyst_fidelity = float(np.real(cat.conj() @ rho_pair @ cat))
    rho_target = reduced_density_matrix(final, (2,), DIMS)
    target = mat.conj().T @ vec
    target_fidelity = float(np.real(target.conj() @ rho_target @ target))
    return final, catalyst_fidelity, target_fidelity


def honest_catalyst(u: np.ndarray) -> np.ndarray:
    """The pair state (U x 1)|psi^-> the protocol regenerates."""
    return _rotated_singlet(_require_su2(u))


def ancilla_restoration(state: np.ndarray) -> float:
    """Probability that all four ancilla wires read zero."""
    rho = reduced_density_matrix(state, ANCILLA_WIRES, DIMS)
    return float(np.real(rho[0, 0]))


def pair_basis_states(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vectors |phi>|psi^->|0^4> and |psi^->|phi>|0^4>."""
    return _input_state(phi, SINGLET), _input_state(SINGLET, phi)


def empirical_transfer_matrix(
    u: np.ndarray,
    phi: np.ndarray,
    circuit: ProtocolCircuit | None = None,
) -> tuple[np.ndarray, float]:
    """2x2 matrix G of the conjugated round operator on span{|v>, |w>}.

    The operator is U_1^dag V2 (call) V1 (call) U_1, with U_1 the unitary on
    the input wire; it is never formed as a matrix.  |v> and |w> each pass
    through U_1, one round and U_1^dag as state vectors, and G is the
    least-squares fit of the two images in the basis (|v>, |w>).  Returns
    (G, residual) where residual measures how far the images leave the
    span; the exact protocol keeps it at numerical zero and G is
    independent of both the unitary and the state.
    """
    mat = _require_su2(u)
    vec = _as_qubit_state(phi)
    circuit = circuit or build_protocol()

    def conjugated_round(state: np.ndarray) -> np.ndarray:
        state = apply_to_subsystems(state, mat, (INPUT_WIRE,), DIMS)
        state = _run(state, mat, circuit, rounds=1)
        return apply_to_subsystems(state, mat.conj().T, (INPUT_WIRE,), DIMS)

    v, w = pair_basis_states(vec)
    basis = np.column_stack([v, w])
    images = np.column_stack([conjugated_round(v), conjugated_round(w)])
    coeffs, _, _, _ = np.linalg.lstsq(basis, images, rcond=None)
    return coeffs, float(np.abs(images - basis @ coeffs).max())

