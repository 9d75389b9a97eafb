import hashlib
import math

import numpy as np
import pytest

from unitary_inversion import protocol as pr
from unitary_inversion.tensor import (
    basis_state,
    embed_operator,
    haar_unitary,
    random_state,
    reduced_density_matrix,
)

GATE = pr.build_protocol()
MATRIX = pr.build_protocol("matrix")
TRANSFER = np.array([[-1.0, -1.0], [1.0, -2.0]]) / math.sqrt(3.0)


def label(bits):
    return basis_state((2,) * len(bits), bits)


# valid (j bit, m-register) labels of two qubits: j = 0, then j = 1
PAIR_LABELS = ((0, 0), (1, 0), (1, 1), (1, 2))
# defined columns of the coupling inverses: (j bit, m-register) for VCG2,
# (j' bit, m'-register, p') for VCG3 with j' = 1/2 twice and j' = 3/2 once
PAIR_COLUMNS = [(jbit << 2) | reg for jbit, reg in PAIR_LABELS]
TRIPLE_COLUMNS = [(reg << 1) | p for reg in range(2) for p in range(2)] + [
    (1 << 3) | (reg << 1) | 1 for reg in range(4)
]


def assert_reference_columns(gate, reference, defined):
    """The gate build matches the reference inverse on every defined label, and
    completing the reference's defined columns again keeps them bitwise."""
    vdg = reference.conj().T
    assert np.abs(gate.conj().T[:, defined] - vdg[:, defined]).max() <= 1e-12
    completed = pr._complete_isometry({col: vdg[:, col] for col in defined}, len(vdg))
    assert completed[:, defined].tobytes() == vdg[:, defined].tobytes()
    assert np.abs(completed.conj().T @ completed - np.eye(len(vdg))).max() <= 1e-14


def test_cg_angle_values():
    assert math.cos(pr.cg_angle(1.0, 0.5)) == pytest.approx(math.sqrt(2 / 3), abs=1e-14)
    assert math.cos(pr.cg_angle(1.0, -0.5)) == pytest.approx(math.sqrt(1 / 3), abs=1e-14)
    assert math.cos(pr.cg_angle(0.5, 0.0)) == pytest.approx(math.sqrt(1 / 2), abs=1e-14)


def test_cg_angle_validation():
    with pytest.raises(ValueError):
        pr.cg_angle(0.5, 1.5)
    with pytest.raises(ValueError):
        pr.cg_angle(0.3, 0.0)
    # j + m' + 1/2 must be an integer for a spin-1/2 coupling to exist
    with pytest.raises(ValueError):
        pr.cg_angle(1.0, 0.0)
    with pytest.raises(ValueError):
        pr.cg_angle(0.5, 0.5)


def test_controlled_gates_match_explicit_matrices():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    # CNOT, control wire 0 on value 1
    cnot = np.eye(4)[[0, 1, 3, 2]]
    assert np.array_equal(pr._controlled(2, {0: 1}, (1,), x), cnot)
    # control on value 0, target above the control: flip wire 0 when wire 1 reads 0
    flip_on_zero = np.eye(4)[[2, 1, 0, 3]]
    assert np.array_equal(pr._controlled(2, {1: 0}, (0,), x), flip_on_zero)
    # Fredkin on reversed targets: swapping wires 2 and 1 is the same swap
    fredkin = np.eye(8)[[0, 1, 2, 3, 4, 6, 5, 7]]
    assert np.array_equal(pr._controlled(3, {0: 1}, (2, 1), swap), fredkin)
    # no controls: the plain embedding
    ry = pr.rotation_y(0.7)
    assert np.array_equal(pr._controlled(3, {}, (2, 0), np.kron(ry, x)),
                          embed_operator(np.kron(ry, x), (2, 0), (2, 2, 2)))


def test_pair_coupling_circuit_unitary():
    for build in (pr.build_vcg2, pr.build_vcg2_matrix):
        v = build()
        assert np.abs(v.conj().T @ v - np.eye(8)).max() <= 1e-12


def test_pair_coupling_reference_columns():
    reference = pr.build_vcg2_matrix()
    # each defined column is |j; m> x |0>: exactly zero with the third wire at |1>
    assert not reference.conj().T[1::2, PAIR_COLUMNS].any()
    assert_reference_columns(pr.build_vcg2(), reference, PAIR_COLUMNS)


def test_pair_coupling_labels():
    # spin-aligned pairs map onto the stretched labels; the antisymmetric
    # pair lands on the j=0 label (third register returns to zero)
    v = pr.build_vcg2()
    assert np.abs(v @ label((1, 1, 0)) - label((1, 1, 0))).max() <= 1e-12
    assert np.abs(v @ label((0, 0, 0)) - label((1, 0, 0))).max() <= 1e-12
    singlet_in = np.kron(pr.SINGLET, [1.0, 0.0])
    out = v @ singlet_in
    assert abs(abs(out[0]) - 1.0) <= 1e-12  # |0>|00> up to sign
    assert np.abs(out[1:]).max() <= 1e-12


def test_pair_coupling_symmetric_combination():
    v = pr.build_vcg2()
    plus = (label((0, 1, 0)) + label((1, 0, 0))) / math.sqrt(2)
    out = v @ plus
    assert abs(abs(out[int("101", 2)]) - 1.0) <= 1e-12  # |1>|01> label


def test_triple_coupling_defining_relations():
    c, s = math.sqrt(2 / 3), math.sqrt(1 / 3)
    relations = [
        (label((0, 0, 1, 0)), c * label((1, 1, 0, 0)) - s * label((1, 0, 1, 1))),
        (label((0, 0, 0, 0)), s * label((1, 0, 1, 0)) - c * label((1, 0, 0, 1))),
        (label((0, 0, 1, 1)), label((0, 0, 0, 1))),
        (label((0, 0, 0, 1)), label((0, 0, 0, 0))),
    ]
    for build in (pr.build_vcg3, pr.build_vcg3_matrix):
        vdg = build().conj().T
        for state, expected in relations:
            assert np.abs(vdg @ state - expected).max() <= 1e-12


def test_triple_coupling_reference_columns():
    reference = pr.build_vcg3_matrix()
    # inputs (j bit, m-register, qubit) whose pair is no valid label stay exactly zero
    off_labels = [
        (jbit << 3) | (reg << 1) | q
        for jbit in range(2) for reg in range(4) for q in range(2)
        if (jbit, reg) not in PAIR_LABELS
    ]
    assert not reference.conj().T[np.ix_(off_labels, TRIPLE_COLUMNS)].any()
    assert_reference_columns(pr.build_vcg3(), reference, TRIPLE_COLUMNS)


def test_triple_coupling_unitary():
    for build in (pr.build_vcg3, pr.build_vcg3_matrix):
        v = build()
        assert np.abs(v.conj().T @ v - np.eye(16)).max() <= 1e-12


def test_protocol_unitaries():
    for circ in (GATE, MATRIX):
        for v in (circ.v1, circ.v2):
            assert np.abs(v.conj().T @ v - np.eye(128)).max() <= 1e-12


def test_build_protocol_caches_one_circuit_per_path():
    assert pr.build_protocol() is pr.build_protocol("gate") is GATE
    assert pr.build_protocol("matrix") is MATRIX
    with pytest.raises(ValueError):
        pr.build_protocol("other")


def test_inversion_identity_input():
    state, fid = pr.run_inversion(np.eye(2), np.array([1.0, 0.0]), GATE)
    assert fid >= 1 - 1e-12
    expected = pr.expected_output(np.eye(2), np.array([1.0, 0.0]))
    # the exact output carries the overall minus sign baked into expected_output
    assert abs(np.vdot(expected, state) - 1.0) <= 1e-10


def test_inversion_exact_over_haar_samples():
    rng = np.random.default_rng(99)
    for circ in (GATE, MATRIX):
        for _ in range(25):
            u = haar_unitary(2, rng)
            phi = random_state((2,), rng)
            state, fid = pr.run_inversion(u, phi, circ)
            assert fid >= 1 - 1e-10
            assert pr.ancilla_restoration(state) >= 1 - 1e-10


def test_inversion_output_phase_pinned_for_both_builds():
    rng = np.random.default_rng(5)
    u = haar_unitary(2, rng)
    phi = random_state((2,), rng)
    expected = pr.expected_output(u, phi)
    for circ in (GATE, MATRIX):
        state, _ = pr.run_inversion(u, phi, circ)
        overlap = np.vdot(expected, state)
        assert abs(overlap - 1.0) <= 1e-10


def test_build_paths_agree_on_protocol_outputs():
    rng = np.random.default_rng(123)
    for _ in range(10):
        u = haar_unitary(2, rng)
        phi = random_state((2,), rng)
        a, fa = pr.run_inversion(u, phi, GATE)
        b, fb = pr.run_inversion(u, phi, MATRIX)
        assert abs(fa - fb) <= 1e-10
        assert abs(abs(np.vdot(a, b)) - 1.0) <= 1e-10


def test_third_wire_marginal_for_explicit_rotation():
    # u = exp(-i pi X / 2) = -iX lies in SU(2)
    u = np.array([[0.0, -1.0j], [-1.0j, 0.0]])
    phi = np.array([1.0, 0.0])
    state, fid = pr.run_inversion(u, phi, GATE)
    assert fid >= 1 - 1e-10
    rho = reduced_density_matrix(state, (2,), pr.DIMS)
    target = u.conj().T @ phi
    assert abs(np.real(target.conj() @ rho @ target) - 1.0) <= 1e-10


NON_FINITE = (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, np.nan))


def _with_entry(array, index, value) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out[index] = value
    return out


def test_non_special_unitary_rejected():
    with pytest.raises(ValueError):
        pr.run_inversion(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="single-qubit operator"):
        pr.run_inversion(np.eye(3), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        pr.run_inversion(np.diag([1.0, 1.0j]), np.array([1.0, 0.0]))
    phi = np.array([1.0, 0.0])
    for bad in NON_FINITE:
        for index in np.ndindex(2, 2):
            u = _with_entry(np.eye(2), index, bad)
            with pytest.raises(ValueError):
                pr.run_inversion(u, phi, GATE)
            with pytest.raises(ValueError):
                pr.empirical_transfer_matrix(u, phi, GATE)
            with pytest.raises(ValueError):
                pr.run_catalytic(u, phi, pr.SINGLET, GATE)
            with pytest.raises(ValueError):
                pr.honest_catalyst(u)


def test_unnormalized_state_rejected():
    with pytest.raises(ValueError):
        pr.run_inversion(np.eye(2), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="single-qubit state"):
        pr.run_inversion(np.eye(2), np.array([1.0, 0.0, 0.0]))
    for bad in NON_FINITE:
        for index in range(2):
            phi = _with_entry([1.0, 0.0], index, bad)
            with pytest.raises(ValueError, match="normalized"):
                pr.run_inversion(np.eye(2), phi, GATE)
            with pytest.raises(ValueError, match="normalized"):
                pr.empirical_transfer_matrix(np.eye(2), phi, GATE)


def test_transfer_matrix_matches_and_is_input_independent():
    rng = np.random.default_rng(2718)
    observed = []
    for _ in range(20):
        u = haar_unitary(2, rng)
        phi = random_state((2,), rng)
        g, residual = pr.empirical_transfer_matrix(u, phi, GATE)
        assert residual <= 1e-10
        assert np.abs(g - TRANSFER).max() <= 1e-10
        observed.append(g)
    stacked = np.stack(observed)
    assert np.abs(stacked - stacked[0]).max() <= 1e-10


def test_transfer_matrix_matches_dense_round_operator():
    # oracle: the conjugated round U_1^dag V2 (call) V1 (call) U_1 as one dense
    # matrix, restricted to span{|v>, |w>} by least squares
    rng = np.random.default_rng(1618)
    for _ in range(5):
        u = haar_unitary(2, rng)
        phi = random_state((2,), rng)
        call = embed_operator(u, (pr.CALL_WIRE,), pr.DIMS)
        u1 = embed_operator(u, (pr.INPUT_WIRE,), pr.DIMS)
        round_op = u1.conj().T @ GATE.v2 @ call @ GATE.v1 @ call @ u1
        basis = np.column_stack(pr.pair_basis_states(phi))
        expected, _, _, _ = np.linalg.lstsq(basis, round_op @ basis, rcond=None)
        g, residual = pr.empirical_transfer_matrix(u, phi, GATE)
        assert np.abs(g - expected).max() <= 1e-12
        assert residual <= 1e-10


def test_transfer_matrix_square_flips_first_basis_vector():
    g2 = TRANSFER @ TRANSFER
    assert np.abs(g2 - np.array([[0.0, 1.0], [-1.0, 1.0]])).max() <= 1e-12
    assert np.allclose(g2 @ np.array([1.0, 0.0]), np.array([0.0, -1.0]))


def test_catalytic_honest_run():
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = haar_unitary(2, rng)
        phi = random_state((2,), rng)
        catalyst = pr.honest_catalyst(u)
        state, cat_fid, target_fid = pr.run_catalytic(u, phi, catalyst, GATE)
        assert cat_fid >= 1 - 1e-10
        assert target_fid >= 1 - 1e-10
        assert pr.ancilla_restoration(state) >= 1 - 1e-10


def test_extra_call_erases_catalyst():
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = haar_unitary(2, rng)
        erased = np.kron(np.eye(2), u) @ np.kron(u, np.eye(2)) @ pr.SINGLET
        assert np.abs(erased - pr.SINGLET).max() <= 1e-12


def test_mismatched_catalyst_fails():
    rng = np.random.default_rng(13)
    below = 0
    trials = 100
    for _ in range(trials):
        u = haar_unitary(2, rng)
        v = haar_unitary(2, rng)
        phi = random_state((2,), rng)
        _, _, target_fid = pr.run_catalytic(u, phi, pr.honest_catalyst(v), GATE)
        if target_fid < 1 - 1e-3:
            below += 1
    assert below >= 95


def test_catalyst_validation():
    with pytest.raises(ValueError):
        pr.run_catalytic(np.eye(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        pr.run_catalytic(
            np.eye(2), np.array([1.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0])
        )
    for bad in NON_FINITE:
        for index in range(4):
            catalyst = _with_entry(pr.SINGLET, index, bad)
            with pytest.raises(ValueError, match="catalyst must be normalized"):
                pr.run_catalytic(np.eye(2), np.array([1.0, 0.0]), catalyst, GATE)



def _digest(*arrays) -> str:
    """SHA-256 over each array's dtype, shape and raw bytes."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _circuit_outputs(circ) -> dict[str, str]:
    """Digests of a build's V1 and V2 and of the runs on three seeded (U, phi)."""
    rng = np.random.default_rng(20260)
    inversion, honest, foreign, transfer = [], [], [], []
    for _ in range(3):
        u = haar_unitary(2, rng)
        other = haar_unitary(2, rng)
        phi = random_state((2,), rng)
        state, fid = pr.run_inversion(u, phi, circ)
        inversion += [state, np.float64(fid)]
        for catalyst, out in ((pr.honest_catalyst(u), honest), (pr.honest_catalyst(other), foreign)):
            state, cat_fid, target_fid = pr.run_catalytic(u, phi, catalyst, circ)
            out += [state, np.float64(cat_fid), np.float64(target_fid)]
        g, residual = pr.empirical_transfer_matrix(u, phi, circ)
        transfer += [g, np.float64(residual)]
    return {
        "v1": _digest(circ.v1),
        "v2": _digest(circ.v2),
        "inversion": _digest(*inversion),
        "catalytic_honest": _digest(*honest),
        "catalytic_foreign": _digest(*foreign),
        "transfer": _digest(*transfer),
    }


def _input_states() -> str:
    """Digest of expected_output and pair_basis_states, with every zero made positive."""
    rng = np.random.default_rng(20261)
    arrays = []
    for _ in range(3):
        u = haar_unitary(2, rng)
        phi = random_state((2,), rng)
        arrays += [pr.expected_output(u, phi) + 0.0, *(v + 0.0 for v in pr.pair_basis_states(phi))]
    return _digest(*arrays)


# SHA-256 of every circuit array and of the runs through it: a change to
# how the circuit is assembled or run must leave all of these bytes alone.
CIRCUIT_DIGESTS = {
    "gate": {
        "v1": "e4af5fdc5f791cca3cdc4738489f817559f9a245d54282dfd32ff219e4b86d7a",
        "v2": "f716702d319817fcc8584779e085b1b7fd441e25c51a55f27d32b264b54fc83b",
        "inversion": "8d2834371bd376ef8464d85753846c98a58268d6bfc57473e52fe953c24e85c2",
        "catalytic_honest": "d17adad769034e92f45c3f45d8c193b32624e403166f110779aaabaac7f9c663",
        "catalytic_foreign": "b5efdec4eeaa70966b129a19189b98d54848062303c65aa5bdfd30ee20eabcf9",
        "transfer": "d3bded5948e1d9399ba8c2911a2ceafbab875a534952a999f16bb079a2b624af",
    },
    "matrix": {
        "v1": "73dbdb662046f9ea37acc25197a1bd3fa34b29ba3e14d02ff069524603754d2f",
        "v2": "09d5674fb532771ed552b6a8dfaac6d3faa0e67af21d1dc1d2dbe189d65417a0",
        "inversion": "4a8222cfd431af95fd0f643032f781b2a32391bfb1a2ee32989bf912b2a62ae2",
        "catalytic_honest": "fbf2f35a7c4a4523b8089345cd2805288251acb9cb5e4ed37acf872ee12af5c4",
        "catalytic_foreign": "92f104ef28fefc4b9a2a90c32792eceda0901628c36fe04da78da886fee07cd1",
        "transfer": "68a0db42da57a658ebc4958789be54de54a9578d38b05081a864d4f125197957",
    },
}
COUPLING_DIGESTS = {
    "vcg2": "37323004c5cfa69801326915ee29e3c94d59428ea53a736fde8ed56748ff4b60",
    "vcg3": "13a121ce19388cb07b87b0c71989ccf1f0cc5cf57777f70e2ff4f2d8b9d8d440",
    "vcg2_matrix": "0f134f5cf691af2eb4806610412389c2d5734574a3ac776d3092f1cb904e565b",
    "vcg3_matrix": "10970a52dc025d09ec384dd4f06987ba7082a888df0b73ac888fa3bdca3519bc",
}
INPUT_STATES_DIGEST = "de45caecf9046a0fcc5e8bcc26293cfaec3755dfcfb0715b04bec908670152eb"


def test_circuit_bytes_are_pinned():
    assert _digest(pr.build_vcg2()) == COUPLING_DIGESTS["vcg2"]
    assert _digest(pr.build_vcg3()) == COUPLING_DIGESTS["vcg3"]
    assert _digest(pr.build_vcg2_matrix()) == COUPLING_DIGESTS["vcg2_matrix"]
    assert _digest(pr.build_vcg3_matrix()) == COUPLING_DIGESTS["vcg3_matrix"]
    assert _input_states() == INPUT_STATES_DIGEST
    for path, circ in (("gate", GATE), ("matrix", MATRIX)):
        assert _circuit_outputs(circ) == CIRCUIT_DIGESTS[path], path
