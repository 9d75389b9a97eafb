import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitary_inversion import tensor
from unitary_inversion.tensor import (
    apply_to_subsystems,
    basis_state,
    check_unitary,
    embed_operator,
    haar_unitary,
    partial_trace,
    permute_factors,
    random_state,
    reduced_density_matrix,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def test_not_on_first_qubit():
    state = basis_state((2,), (0,))
    out = apply_to_subsystems(state, X, (0,), (2,))
    assert np.allclose(out, basis_state((2,), (1,)))


def test_identity_leaves_state_unchanged():
    rng = np.random.default_rng(3)
    state = random_state((2, 2, 2), rng)
    out = apply_to_subsystems(state, np.eye(4), (1, 2), (2, 2, 2))
    assert np.allclose(out, state)
    # reversed and gapped targets are not a layout the state helpers take
    for targets in ((2, 0), (0, 2)):
        with pytest.raises(ValueError, match="not consecutive ascending"):
            apply_to_subsystems(state, np.eye(4), targets, (2, 2, 2))


def test_swap_matches_kronecker_oracle():
    # independent oracle: build the full operator by explicit tensor products
    state = basis_state((2, 2), (0, 1))
    out = apply_to_subsystems(state, SWAP, (0, 1), (2, 2))
    oracle = SWAP @ state  # subsystems (0,1) in natural order
    assert np.array_equal(out, basis_state((2, 2), (1, 0)))
    assert np.array_equal(out, oracle)


def test_apply_on_reversed_targets_matches_permuted_kron():
    # u on wires (2, 1) is SWAP u SWAP on wires (1, 2); the reversed list itself is rejected
    rng = np.random.default_rng(5)
    u = haar_unitary(4, rng)
    state = random_state((2, 2, 2), rng)
    out = apply_to_subsystems(state, SWAP @ u @ SWAP, (1, 2), (2, 2, 2))
    # oracle: embed u on (2, 1) via explicit kron and axis permutation
    big = embed_operator(u, (2, 1), (2, 2, 2))
    assert np.allclose(out, big @ state, atol=1e-12)
    with pytest.raises(ValueError, match="not consecutive ascending"):
        apply_to_subsystems(state, u, (2, 1), (2, 2, 2))


def test_apply_rejects_bad_targets():
    state = basis_state((2, 2), (0, 0))
    with pytest.raises(ValueError):
        apply_to_subsystems(state, X, (0, 0), (2, 2))
    with pytest.raises(ValueError):
        apply_to_subsystems(state, X, (2,), (2, 2))
    with pytest.raises(ValueError):
        apply_to_subsystems(state, np.eye(4), (0,), (2, 2))
    # a state of the wrong length for its dims
    with pytest.raises(ValueError):
        apply_to_subsystems(np.ones(4), X, (0,), (2, 2, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_matches_embedded_operator_for_every_layout(n):
    # every ordered target list: the consecutive ascending ones (empty, single,
    # a run, all wires) and range objects against the dense embedding and the
    # matrix-side partial trace, every other order (reversed, gapped) rejected
    rng = np.random.default_rng(40 + n)
    dims = tuple(int(d) for d in rng.choice((2, 3), size=n))
    layouts = [
        targets
        for k in range(n + 1)
        for subset in itertools.combinations(range(n), k)
        for targets in itertools.permutations(subset)
    ]
    consecutive = {()} | {tuple(range(i, j)) for i in range(n) for j in range(i + 1, n + 1)}
    for targets in layouts + [range(n), range(1, n), range(n - 1, -1, -1)]:
        state = random_state(dims, rng)
        target_dim = math.prod(dims[t] for t in targets)
        op = rng.standard_normal((target_dim, target_dim)) + 1j * rng.standard_normal(
            (target_dim, target_dim)
        )
        for _ in range(2):  # a second call after a hit or a raise
            if tuple(targets) not in consecutive:
                with pytest.raises(ValueError, match="not consecutive ascending"):
                    apply_to_subsystems(state, op, targets, dims)
                with pytest.raises(ValueError, match="not consecutive ascending"):
                    reduced_density_matrix(state, targets, dims)
                continue
            out = apply_to_subsystems(state, op, targets, dims)
            oracle = embed_operator(op, targets, dims) @ state
            assert np.abs(out - oracle).max() <= 1e-12, (dims, tuple(targets))
            rho = reduced_density_matrix(state, targets, dims)
            oracle = partial_trace(np.outer(state, state.conj()), targets, dims)
            assert np.abs(rho - oracle).max() <= 1e-12, (dims, tuple(targets))


def test_cached_layout_still_rejects_bad_calls():
    dims = (2, 3, 2)
    state = random_state(dims, 8)
    op = np.eye(6)
    apply_to_subsystems(state, op, (1, 2), dims)
    hits = tensor._layout.cache_info().hits
    apply_to_subsystems(state, op, (1, 2), dims)
    assert tensor._layout.cache_info().hits == hits + 1
    for _ in range(2):
        with pytest.raises(ValueError, match="state of shape"):
            apply_to_subsystems(state[:-1], op, (1, 2), dims)
        with pytest.raises(ValueError, match="operator of shape"):
            apply_to_subsystems(state, np.eye(4), (1, 2), dims)
        with pytest.raises(ValueError, match="duplicate"):
            apply_to_subsystems(state, op, (1, 1), dims)
        with pytest.raises(ValueError, match="out of range"):
            apply_to_subsystems(state, op, (1, 3), dims)
        for targets in ((0, 2), (2, 1)):
            with pytest.raises(ValueError, match="not consecutive ascending"):
                apply_to_subsystems(state, op, targets, dims)
            with pytest.raises(ValueError, match="not consecutive ascending"):
                reduced_density_matrix(state, targets, dims)
        with pytest.raises(ValueError, match="invalid subsystem dimensions"):
            apply_to_subsystems(state, op, (1, 2), (2, 0, 2))


@pytest.mark.parametrize(
    "kind, bad_targets, bad_dims",
    [("targets", (1.0,), (2, 2)), ("dims", (1,), (2, 2.0)), ("targets", (True,), (2, 2))],
)
def test_float_indices_are_refused_after_their_int_twins_are_cached(kind, bad_targets, bad_dims):
    # 1.0 and True equal 1 and hash alike, so the layout cache alone would
    # answer the float or bool call from the int call's entry
    state = random_state((2, 2), 3)
    tensor._layout.cache_clear()
    apply_to_subsystems(state, X, (1,), (2, 2))
    reduced_density_matrix(state, (1,), (2, 2))
    assert tensor._layout.cache_info().currsize == 1
    with pytest.raises(ValueError, match=f"{kind} must be integers"):
        apply_to_subsystems(state, X, bad_targets, bad_dims)
    with pytest.raises(ValueError, match=f"{kind} must be integers"):
        reduced_density_matrix(state, bad_targets, bad_dims)
    # numpy integers are integers, and share the int entry
    apply_to_subsystems(state, X, np.array([1]), np.array([2, 2]))
    assert tensor._layout.cache_info().currsize == 1


MALFORMED_CALLS = {
    # int() read each of these indices as the integer below it
    "float target": (lambda: apply_to_subsystems(np.eye(4)[0], X, [0.7], (2, 2)), "targets must be integers"),
    "float dim": (lambda: basis_state((2.9, 2), (0, 0)), "dims must be integers"),
    "float digit": (lambda: basis_state((2, 2), (1.0, 0)), "digits must be integers"),
    "float order": (lambda: permute_factors(np.eye(4), (2, 2), [1.9, 0.2]), "order must be integers"),
    "string keep": (lambda: partial_trace(np.eye(4), ("0",), (2, 2)), "targets must be integers"),
    "float embed target": (lambda: embed_operator(X, (1.0,), (2, 2)), "targets must be integers"),
    "digit out of range": (lambda: basis_state((2,), (2,)), "invalid for dims"),
    "mis-sized operator": (lambda: embed_operator(np.eye(4), (0,), (2, 2)), "does not match targets"),
    # operator.index reads True as 1
    "bool dim": (lambda: basis_state((True, 2), (0, 1)), "dims must be integers"),
}


@pytest.mark.parametrize("case", list(MALFORMED_CALLS))
def test_malformed_arguments_are_refused(case):
    call, match = MALFORMED_CALLS[case]
    with pytest.raises(ValueError, match=match):
        call()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_norm_preservation(seed):
    rng = np.random.default_rng(seed)
    state = random_state((2, 2, 2, 2), rng)
    u = haar_unitary(4, rng)
    start = int(rng.integers(3))
    out = apply_to_subsystems(state, u, (start, start + 1), (2, 2, 2, 2))
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_disjoint_applications_commute():
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = random_state((2, 2, 2, 2), rng)
        u = haar_unitary(2, rng)
        v = haar_unitary(4, rng)
        dims = (2, 2, 2, 2)
        a = apply_to_subsystems(apply_to_subsystems(state, u, (0,), dims), v, (2, 3), dims)
        b = apply_to_subsystems(apply_to_subsystems(state, v, (2, 3), dims), u, (0,), dims)
        assert np.abs(a - b).max() <= 1e-12


def test_haar_unitary_is_special_unitary():
    for seed in range(5):
        u = haar_unitary(3, seed)
        assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def test_haar_first_moment_twirl():
    # Monte Carlo oracle: averaging U rho U^dag approaches I/d
    rng = np.random.default_rng(2024)
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    acc = np.zeros((2, 2), dtype=complex)
    samples = 10**4
    for _ in range(samples):
        u = haar_unitary(2, rng)
        acc += u @ rho @ u.conj().T
    acc /= samples
    assert np.linalg.norm(acc - np.eye(2) / 2) <= 0.05


def test_haar_rejects_small_dimension():
    with pytest.raises(ValueError):
        haar_unitary(1, 0)


def test_partial_trace_product_states():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    reduced = partial_trace(np.kron(a, b), keep=(0,), dims=(2, 2))
    assert np.allclose(reduced, np.trace(b) * a, atol=1e-12)


def test_partial_trace_preserves_total_trace():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((8, 8))
    h = h + h.T
    reduced = partial_trace(h, keep=(1,), dims=(2, 2, 2))
    assert abs(np.trace(reduced) - np.trace(h)) <= 1e-12


def test_singlet_marginals_are_maximally_mixed():
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    for wire in (0, 1):
        rho = reduced_density_matrix(singlet, (wire,), (2, 2))
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_inverts_tensor_embedding():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4))
    a = a + a.T
    embedded = np.kron(a, np.eye(3) / 3)
    reduced = partial_trace(embedded, keep=(0, 1), dims=(2, 2, 3))
    assert np.abs(reduced - a).max() <= 1e-12


def test_partial_trace_keeping_nothing_is_total_trace():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    reduced = partial_trace(m, keep=(), dims=(2, 3, 2))
    assert reduced.shape == (1, 1)
    assert abs(reduced[0, 0] - np.trace(m)) <= 1e-12


def test_partial_trace_matches_einsum_reference():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    # trace the middle factor: rows (a, b, c), columns (x, b, z)
    expected = np.einsum("abcxbz->acxz", m.reshape(2, 3, 2, 2, 3, 2)).reshape(4, 4)
    reduced = partial_trace(m, keep=(0, 2), dims=(2, 3, 2))
    assert np.abs(reduced - expected).max() <= 1e-12


def test_partial_trace_rejects_mismatched_shape():
    # 8 x 32 has the 256 entries of a (2, 2, 2, 2) matrix but the wrong shape
    with pytest.raises(ValueError):
        partial_trace(np.zeros((8, 32)), keep=(0,), dims=(2, 2, 2, 2))
    with pytest.raises(ValueError):
        partial_trace(np.zeros((4, 4)), keep=(2,), dims=(2, 2))
    # a repeated keep index is an error, not the de-duplicated set
    with pytest.raises(ValueError, match="duplicate"):
        partial_trace(np.eye(8), keep=(1, 1), dims=(2, 2, 2))
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(np.eye(8), keep=(-1,), dims=(2, 2, 2))


def test_reduced_density_matrix_rejects_bad_keep_and_state():
    state = np.full(8, 1 / math.sqrt(8))
    with pytest.raises(ValueError, match="duplicate"):
        reduced_density_matrix(state, (0, 0), (2, 2, 2))
    with pytest.raises(ValueError, match="out of range"):
        reduced_density_matrix(state, (3,), (2, 2, 2))
    for bad in (state[:7], state.reshape(2, 4), np.zeros(16)):
        with pytest.raises(ValueError, match="does not match dims"):
            reduced_density_matrix(bad, (0,), (2, 2, 2))
    for keep in ((2, 0), (0, 2)):
        with pytest.raises(ValueError, match="not consecutive ascending"):
            reduced_density_matrix(state, keep, (2, 2, 2))
    # a valid call still reduces
    assert np.allclose(reduced_density_matrix(state, (1, 2), (2, 2, 2)), np.full((4, 4), 0.25))


def test_permute_factors_matches_permuted_kron():
    rng = np.random.default_rng(9)
    dims = (2, 3, 2)
    factors = [rng.standard_normal((k, k)) for k in dims]
    order = (2, 0, 1)
    mat = functools.reduce(np.kron, factors)
    permuted = permute_factors(mat, dims, order)
    assert np.abs(permuted - functools.reduce(np.kron, [factors[k] for k in order])).max() <= 1e-12
    back = permute_factors(permuted, [dims[k] for k in order], np.argsort(order))
    assert np.array_equal(back, mat)


def test_embed_operator_on_no_targets_is_scaled_identity():
    out = embed_operator(np.array([[2.5]]), (), (2, 3))
    assert out.dtype == np.float64
    assert np.array_equal(out, 2.5 * np.eye(6))
    assert embed_operator(np.eye(2), (1,), (2, 2)).dtype == np.float64


def test_embed_operator_matches_kron_on_sorted_targets():
    rng = np.random.default_rng(6)
    u = haar_unitary(2, rng)
    assert np.allclose(embed_operator(u, (0,), (2, 2)), np.kron(u, np.eye(2)))
    assert np.allclose(embed_operator(u, (1,), (2, 2)), np.kron(np.eye(2), u))
    v = haar_unitary(4, rng)
    assert np.allclose(embed_operator(v, (1, 2), (2, 2, 2)), np.kron(np.eye(2), v))


def test_tensor_states_and_basis():
    phi = basis_state((2,), (1,))
    psi = basis_state((2, 2), (0, 1))
    assert np.array_equal(np.kron(phi, psi), basis_state((2, 2, 2), (1, 0, 1)))
    assert np.allclose(np.kron(np.eye(2), X), embed_operator(X, (1,), (2, 2)))


def test_unitary_check_on_construction():
    with pytest.raises(ValueError):
        check_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        check_unitary(np.eye(2, 3))
    for bad in (np.nan, np.inf, -np.inf):
        mat = np.eye(2, dtype=complex)
        mat[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_unitary(mat)
    out = check_unitary(X.real)
    assert out.dtype == complex and np.array_equal(out, X)

