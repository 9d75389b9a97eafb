import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitary_inversion.symmetric_group import (
    EMPTY_DIAGRAM,
    StandardTableau,
    YoungDiagram,
    adjacent_transposition_word,
    check_permutation,
    cycle_permutation,
    embedding_matrix,
    generator_matrix,
    matrix_unit,
    permutation_matrix,
    permutation_operator,
    standard_tableaux,
    su_dim,
    tableau_count,
    young_diagrams,
)
from unitary_inversion.tensor import partial_trace


def count_semistandard_brute(diagram: YoungDiagram, d: int) -> int:
    """Independent oracle: enumerate weakly-increasing-row, strictly-increasing-column fillings."""
    rows = diagram.rows
    if not rows:
        return 1
    cells = [(r, c) for r, row in enumerate(rows) for c in range(row)]

    def fill(idx: int, values: dict) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, values[(r, c - 1)])
        if r > 0:
            lo = max(lo, values[(r - 1, c)] + 1)
        total = 0
        for v in range(lo, d + 1):
            values[(r, c)] = v
            total += fill(idx + 1, values)
        values.pop((r, c), None)
        return total

    return fill(0, {})


def test_partition_enumeration_examples():
    assert [y.rows for y in young_diagrams(2, 2)] == [(2,), (1, 1)]
    assert [y.rows for y in young_diagrams(5, 2)] == [(5,), (4, 1), (3, 2)]
    assert [y.rows for y in young_diagrams(1, 7)] == [(1,)]
    assert young_diagrams(0, 3) == [EMPTY_DIAGRAM]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5))
def test_partition_enumeration_valid_and_complete(n, d):
    diagrams = young_diagrams(n, d)
    assert len({y.rows for y in diagrams}) == len(diagrams)
    for y in diagrams:
        assert y.boxes == n and y.depth <= d
    # oracle: filter all partitions generated by brute recursion
    def parts(total, mx):
        if total == 0:
            yield ()
            return
        for first in range(min(total, mx), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    expected = {p for p in parts(n, n) if len(p) <= d}
    assert {y.rows for y in diagrams} == expected


def test_tableau_enumeration_counts():
    assert len(standard_tableaux(YoungDiagram((4,)))) == 1
    assert len(standard_tableaux(YoungDiagram((2, 1)))) == 2
    # hook lengths of (3,2): 4,3,1,2,1 so 5!/24 = 5
    assert len(standard_tableaux(YoungDiagram((3, 2)))) == 5


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4))
def test_tableau_count_matches_enumeration(n, d):
    for diagram in young_diagrams(n, d):
        tabs = standard_tableaux(diagram)
        assert len(set(tabs)) == len(tabs) == tableau_count(diagram)


def test_tableau_validation():
    StandardTableau(((1, 3), (2, 4), (5,)))
    StandardTableau(((1, 2), (3,)))
    with pytest.raises(ValueError):
        StandardTableau(((2, 1),))
    with pytest.raises(ValueError):
        StandardTableau(((1, 2), (2,)))
    with pytest.raises(ValueError):
        StandardTableau(((1,), (2, 3)))


def test_su_dim_examples():
    assert su_dim(YoungDiagram((1,)), 5) == 5
    assert su_dim(YoungDiagram((1, 1)), 2) == 1
    assert su_dim(YoungDiagram((2, 1)), 3) == 8
    assert su_dim(YoungDiagram((1, 1, 1)), 2) == 0


def test_su_dim_matches_brute_enumeration():
    for n in range(1, 7):
        for d in range(1, 5):
            for diagram in young_diagrams(n, 4):
                assert su_dim(diagram, d) == count_semistandard_brute(diagram, d)


def test_schur_weyl_dimension_identity():
    for d in range(2, 5):
        for n in range(1, 7):
            total = sum(
                tableau_count(m) * su_dim(m, d) for m in young_diagrams(n, d)
            )
            assert total == d**n


def test_generator_trivial_and_sign():
    assert np.array_equal(generator_matrix(YoungDiagram((4,)), 2), np.eye(1))
    assert np.array_equal(generator_matrix(YoungDiagram((1, 1)), 1), -np.eye(1))


def test_generator_relations_standard_representation():
    mu = YoungDiagram((2, 1))
    s1 = generator_matrix(mu, 1)
    s2 = generator_matrix(mu, 2)
    for s in (s1, s2):
        assert np.abs(s @ s.T - np.eye(2)).max() <= 1e-12
        assert np.abs(s @ s - np.eye(2)).max() <= 1e-12
    assert np.abs(np.linalg.matrix_power(s1 @ s2, 3) - np.eye(2)).max() <= 1e-12


def test_generator_braid_and_commutation():
    for diagram in young_diagrams(5, 3):
        n = diagram.boxes
        gens = [generator_matrix(diagram, k) for k in range(1, n)]
        for k in range(n - 2):
            lhs = gens[k] @ gens[k + 1] @ gens[k]
            rhs = gens[k + 1] @ gens[k] @ gens[k + 1]
            assert np.abs(lhs - rhs).max() <= 1e-12
        for k in range(n - 1):
            for l in range(k + 2, n - 1):
                assert np.abs(gens[k] @ gens[l] - gens[l] @ gens[k]).max() <= 1e-12


def test_permutation_matrix_examples():
    mu = YoungDiagram((2, 1))
    assert np.array_equal(permutation_matrix(mu, (0, 1, 2)), np.eye(2))
    assert np.array_equal(
        permutation_matrix(YoungDiagram((1, 1)), (1, 0)), -np.eye(1)
    )
    long_cycle = permutation_matrix(mu, cycle_permutation(3))
    assert abs(np.trace(long_cycle) + 1.0) <= 1e-12
    # character oracle: traces of P_(123) on (C^2)^3 split as 2 = chi_triv
    # + chi_sign*0 ... cross-check the -1 against the full operator trace
    p = permutation_operator(cycle_permutation(3), 2, 3)
    contributions = sum(
        su_dim(m, 2) * np.trace(permutation_matrix(m, cycle_permutation(3)))
        for m in young_diagrams(3, 2)
    )
    assert abs(np.trace(p) - contributions) <= 1e-10


def test_permutation_matrix_is_homomorphism():
    rng = np.random.default_rng(17)
    for diagram in (YoungDiagram((2, 1)), YoungDiagram((3, 2)), YoungDiagram((2, 2, 1))):
        n = diagram.boxes
        for _ in range(50):
            p = tuple(int(x) for x in rng.permutation(n))
            q = tuple(int(x) for x in rng.permutation(n))
            lhs = permutation_matrix(diagram, tuple(p[q[i]] for i in range(n)))
            rhs = permutation_matrix(diagram, p) @ permutation_matrix(diagram, q)
            assert np.abs(lhs - rhs).max() <= 1e-10
            mat = permutation_matrix(diagram, p)
            assert np.abs(mat @ mat.T - np.eye(tableau_count(diagram))).max() <= 1e-10


def test_word_decomposition_reconstructs_permutation():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        perm = tuple(int(x) for x in rng.permutation(n))
        word = adjacent_transposition_word(perm)
        rebuilt = tuple(range(n))
        for k in reversed(word):
            s = tuple(k if i == k - 1 else k - 1 if i == k else i for i in range(n))
            rebuilt = tuple(s[rebuilt[i]] for i in range(n))
        assert rebuilt == perm


def test_check_permutation_rejects_malformed():
    with pytest.raises(ValueError):
        check_permutation((0, 0, 1))
    with pytest.raises(ValueError):
        permutation_matrix(YoungDiagram((2, 1)), (0, 1))


def test_embedding_matrix_examples():
    assert np.array_equal(
        embedding_matrix(EMPTY_DIAGRAM, YoungDiagram((1,))), np.eye(1)
    )
    for n in range(1, 5):
        for parent in young_diagrams(n, 4):
            for child in parent.children():
                x = embedding_matrix(parent, child)
                assert np.array_equal(
                    x @ x.T, np.eye(tableau_count(parent))
                )


def test_embedding_matrix_rejects_non_extensions():
    with pytest.raises(ValueError):
        embedding_matrix(YoungDiagram((2,)), YoungDiagram((2,)))
    with pytest.raises(ValueError):
        embedding_matrix(YoungDiagram((2,)), YoungDiagram((1, 1, 1)))


def test_branching_census_two_one():
    parent = YoungDiagram((2, 1))
    children = parent.children()
    assert sorted(c.rows for c in children) == [(2, 1, 1), (2, 2), (3, 1)]
    total = sum(tableau_count(c) for c in children)
    assert total == 3 + 2 + 3
    # every child tableau appears in exactly one embedding column
    ones = sum(int(embedding_matrix(parent, c).sum()) for c in children)
    assert ones == len(children) * tableau_count(parent)


def test_permutation_operator_examples():
    assert np.array_equal(permutation_operator((0, 1), 2, 2), np.eye(4))
    swap = permutation_operator((1, 0), 2, 2)
    ket01 = np.zeros(4)
    ket01[1] = 1.0
    assert np.array_equal(swap @ ket01, np.array([0.0, 0.0, 1.0, 0.0]))


def test_permutation_operator_homomorphism():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 4))
        p = tuple(int(x) for x in rng.permutation(n))
        q = tuple(int(x) for x in rng.permutation(n))
        lhs = permutation_operator(tuple(p[q[i]] for i in range(n)), d, n)
        rhs = permutation_operator(p, d, n) @ permutation_operator(q, d, n)
        assert np.array_equal(lhs, rhs)


def test_matrix_unit_trace_and_products():
    for d in (2, 3):
        for n in (2, 3):
            for mu in young_diagrams(n, d):
                dim = tableau_count(mu)
                units = {
                    (i, j): matrix_unit(mu, i, j, d)
                    for i in range(dim)
                    for j in range(dim)
                }
                for (i, j), e in units.items():
                    assert np.abs(e - e.conj()).max() <= 1e-10  # real
                    expected_trace = su_dim(mu, d) if i == j else 0.0
                    assert abs(np.trace(e) - expected_trace) <= 1e-10
                for (i, j), e1 in units.items():
                    for (k, l), e2 in units.items():
                        product = e1 @ e2
                        expected = units[(i, l)] if j == k else np.zeros_like(product)
                        assert np.abs(product - expected).max() <= 1e-10


def test_matrix_unit_cross_sector_products_vanish():
    d, n = 2, 3
    shapes = young_diagrams(n, d)
    e1 = matrix_unit(shapes[0], 0, 0, d)
    e2 = matrix_unit(shapes[1], 0, 1, d)
    assert np.abs(e1 @ e2).max() <= 1e-10


def test_matrix_unit_singlet():
    e = matrix_unit(YoungDiagram((1, 1)), 0, 0, 2)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert np.abs(e - np.outer(singlet, singlet)).max() <= 1e-12


def test_matrix_unit_vanishes_beyond_depth():
    e = matrix_unit(YoungDiagram((1, 1, 1)), 0, 0, 2)
    assert np.abs(e).max() <= 1e-12


def test_matrix_unit_guard():
    with pytest.raises(ValueError):
        matrix_unit(YoungDiagram((3, 2)), 0, 0, 2)
    with pytest.raises(ValueError):
        matrix_unit(YoungDiagram((2,)), 0, 0, 4)
    matrix_unit(YoungDiagram((3, 2)), 0, 0, 2, allow_large=True)


def _restricted_index(tableau, boxes):
    reduced = tableau.restrict(boxes)
    return reduced.shape, standard_tableaux(reduced.shape).index(reduced)


def test_branching_identity():
    # adding one tensor factor splits a commutant unit into child-shape units
    for d in (2, 3):
        for boxes in (1, 2, 3):
            for alpha in young_diagrams(boxes, d):
                dim = tableau_count(alpha)
                for a in range(dim):
                    for b in range(dim):
                        lhs = np.kron(matrix_unit(alpha, a, b, d), np.eye(d))
                        rhs = np.zeros_like(lhs)
                        for child in alpha.children(max_depth=d):
                            x = embedding_matrix(alpha, child)
                            rhs += matrix_unit(
                                child, int(np.argmax(x[a])), int(np.argmax(x[b])), d
                            )
                        assert np.abs(lhs - rhs).max() <= 1e-10


def test_partial_trace_of_matrix_units():
    # tracing the last factor rescales by the ratio of group dimensions
    for d in (2, 3):
        for boxes in (2, 3, 4):
            if boxes == 4 and d == 3:
                continue  # covered by the acceptance suite at smaller size
            for mu in young_diagrams(boxes, d):
                tabs = standard_tableaux(mu)
                for i, ti in enumerate(tabs):
                    for j, tj in enumerate(tabs):
                        e = matrix_unit(mu, i, j, d)
                        reduced = partial_trace(
                            e, keep=range(boxes - 1), dims=(d,) * boxes
                        ).entries
                        alpha, a = _restricted_index(ti, boxes - 1)
                        beta, b = _restricted_index(tj, boxes - 1)
                        if alpha == beta:
                            ratio = su_dim(mu, d) / su_dim(alpha, d)
                            expected = ratio * matrix_unit(alpha, a, b, d)
                        else:
                            expected = np.zeros_like(reduced)
                        assert np.abs(reduced - expected).max() <= 1e-10


def test_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))
