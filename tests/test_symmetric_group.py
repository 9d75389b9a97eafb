import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitary_inversion.symmetric_group import (
    adjacent_transposition_word,
    check_permutation,
    children,
    cycle_permutation,
    embedding_matrix,
    generator_matrix,
    matrix_unit,
    parents,
    permutation_matrix,
    permutation_operator,
    standard_tableaux,
    su_dim,
    tableau_count,
    young_diagrams,
)
from unitary_inversion.tensor import partial_trace


def count_semistandard_brute(rows: tuple[int, ...], d: int) -> int:
    """Independent oracle: enumerate weakly-increasing-row, strictly-increasing-column fillings."""
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


def word_shape(word) -> tuple[int, ...]:
    """The shape of a row word: its row counts."""
    return tuple(word.count(r) for r in range(max(word, default=-1) + 1))


def test_partition_enumeration_examples():
    assert young_diagrams(2, 2) == [(2,), (1, 1)]
    assert young_diagrams(5, 2) == [(5,), (4, 1), (3, 2)]
    assert young_diagrams(1, 7) == [(1,)]
    assert young_diagrams(0, 3) == [()]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5))
def test_partition_enumeration_valid_and_complete(n, d):
    diagrams = young_diagrams(n, d)
    assert len(set(diagrams)) == len(diagrams)
    for y in diagrams:
        assert sum(y) == n and len(y) <= d
    # oracle: filter all partitions generated by brute recursion
    def parts(total, mx):
        if total == 0:
            yield ()
            return
        for first in range(min(total, mx), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    expected = {p for p in parts(n, n) if len(p) <= d}
    assert set(diagrams) == expected
    # one box more or less: children and parents move between levels, inversely
    assert {c for y in diagrams for c in children(y, max_depth=d)} == set(young_diagrams(n + 1, d))
    smaller = young_diagrams(n - 1, d)
    for y in diagrams:
        assert set(parents(y)) <= set(smaller)
        for x in smaller:
            assert (x in parents(y)) == (y in children(x, len(x) + 1))


def test_tableau_enumeration_counts():
    assert len(standard_tableaux((4,))) == 1
    assert len(standard_tableaux((2, 1))) == 2
    # hook lengths of (3,2): 4,3,1,2,1 so 5!/24 = 5
    assert len(standard_tableaux((3, 2))) == 5


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4))
def test_tableau_count_matches_enumeration(n, d):
    for diagram in young_diagrams(n, d):
        tabs = standard_tableaux(diagram)
        assert len(set(tabs)) == len(tabs) == tableau_count(diagram)


def test_tableaux_are_standard_row_words():
    for n in range(8):
        for diagram in young_diagrams(n, max(n, 1)):
            words = standard_tableaux(diagram)
            assert len(set(words)) == len(words) == tableau_count(diagram)
            # the canonical order, read on words, is colexicographic
            assert list(words) == sorted(words, key=lambda w: w[::-1])
            for word in words:
                # standard: every prefix's row counts form a partition
                for k in range(1, n + 1):
                    counts = [word[:k].count(r) for r in range(max(word[:k]) + 1)]
                    assert min(counts) > 0 and counts == sorted(counts, reverse=True)
                assert word_shape(word) == diagram
                if n:
                    assert word[:-1] in standard_tableaux(word_shape(word[:-1]))


def test_su_dim_examples():
    assert su_dim((1,), 5) == 5
    assert su_dim((1, 1), 2) == 1
    assert su_dim((2, 1), 3) == 8
    assert su_dim((1, 1, 1), 2) == 0


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
    assert np.array_equal(generator_matrix((4,), 2), np.eye(1))
    assert np.array_equal(generator_matrix((1, 1), 1), -np.eye(1))


def test_generator_relations_standard_representation():
    mu = (2, 1)
    s1 = generator_matrix(mu, 1)
    s2 = generator_matrix(mu, 2)
    for s in (s1, s2):
        assert np.abs(s @ s.T - np.eye(2)).max() <= 1e-12
        assert np.abs(s @ s - np.eye(2)).max() <= 1e-12
    assert np.abs(np.linalg.matrix_power(s1 @ s2, 3) - np.eye(2)).max() <= 1e-12


def test_generator_braid_and_commutation():
    for diagram in young_diagrams(5, 3):
        n = sum(diagram)
        gens = [generator_matrix(diagram, k) for k in range(1, n)]
        for k in range(n - 2):
            lhs = gens[k] @ gens[k + 1] @ gens[k]
            rhs = gens[k + 1] @ gens[k] @ gens[k + 1]
            assert np.abs(lhs - rhs).max() <= 1e-12
        for k in range(n - 1):
            for l in range(k + 2, n - 1):
                assert np.abs(gens[k] @ gens[l] - gens[l] @ gens[k]).max() <= 1e-12


def test_permutation_matrix_examples():
    mu = (2, 1)
    assert np.array_equal(permutation_matrix(mu, (0, 1, 2)), np.eye(2))
    assert np.array_equal(
        permutation_matrix((1, 1), (1, 0)), -np.eye(1)
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
    for diagram in ((2, 1), (3, 2), (2, 2, 1)):
        n = sum(diagram)
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
        permutation_matrix((2, 1), (0, 1))


MALFORMED_CALLS = {
    # int() read these as the swap (1, 0)
    "float permutation": (lambda: check_permutation((1.9, 0.2)), "perm must be integers"),
    "float permutation matrix": (lambda: permutation_matrix((1, 1), (1.9, 0.2)), "perm must be integers"),
    "float permutation operator": (lambda: permutation_operator((1.0, 0), 2, 2), "perm must be integers"),
    # operator.index reads True, False as the swap (1, 0)
    "bool permutation": (lambda: check_permutation((True, False)), "perm must be integers"),
    "negative box count": (lambda: young_diagrams(-1, 2), "need n >= 0"),
    # range(True) walked one box, and range(2.0) raised TypeError
    "bool box count": (lambda: young_diagrams(True, 2), "n and d must be integers"),
    "float box count": (lambda: young_diagrams(2.0, 2), "n and d must be integers"),
    "zero local dimension": (lambda: su_dim((2, 1), 0), "d must be positive"),
    "transposition index 0": (lambda: generator_matrix((2, 1), 0), "out of range"),
    "permutation of the wrong length": (lambda: permutation_operator((1, 0), 2, 3), "length 2 != 3"),
}


@pytest.mark.parametrize("case", list(MALFORMED_CALLS))
def test_malformed_arguments_are_refused(case):
    call, match = MALFORMED_CALLS[case]
    with pytest.raises(ValueError, match=match):
        call()


def test_embedding_matrix_examples():
    assert np.array_equal(
        embedding_matrix((), (1,)), np.eye(1)
    )
    for n in range(1, 5):
        for parent in young_diagrams(n, 4):
            for child in children(parent, len(parent) + 1):
                x = embedding_matrix(parent, child)
                assert np.array_equal(
                    x @ x.T, np.eye(tableau_count(parent))
                )
                # cached and shared: a caller writing into it would corrupt later builds
                assert embedding_matrix(parent, child) is x
                assert not x.flags.writeable


def test_embedding_matrix_matches_restriction():
    # definition: entry (c, a) is 1 when child tableau a restricts to parent tableau c
    count = 0
    for boxes in range(7):
        for parent in young_diagrams(boxes, max(boxes, 1)):
            parent_tabs = standard_tableaux(parent)
            for child in children(parent, len(parent) + 1):
                child_tabs = standard_tableaux(child)
                expected = np.zeros((len(parent_tabs), len(child_tabs)))
                for a, t in enumerate(child_tabs):
                    restricted = t[:boxes]
                    if word_shape(restricted) == parent:
                        expected[parent_tabs.index(restricted), a] = 1.0
                assert np.array_equal(embedding_matrix(parent, child), expected)
                count += 1
    assert count == 75


def test_embedding_matrix_rejects_non_extensions():
    with pytest.raises(ValueError):
        embedding_matrix((2,), (2,))
    with pytest.raises(ValueError):
        embedding_matrix((2,), (1, 1, 1))


def test_branching_census_two_one():
    parent = (2, 1)
    extensions = children(parent, len(parent) + 1)
    assert sorted(extensions) == [(2, 1, 1), (2, 2), (3, 1)]
    total = sum(tableau_count(c) for c in extensions)
    assert total == 3 + 2 + 3
    # every child tableau appears in exactly one embedding column
    ones = sum(int(embedding_matrix(parent, c).sum()) for c in extensions)
    assert ones == len(extensions) * tableau_count(parent)


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
    for d, n in ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3)):
        for mu in young_diagrams(n, d):
            dim = tableau_count(mu)
            units = {
                (i, j): matrix_unit(mu, d)[i, j]
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
    e1 = matrix_unit(shapes[0], d)[0, 0]
    e2 = matrix_unit(shapes[1], d)[0, 1]
    assert np.abs(e1 @ e2).max() <= 1e-10


def test_matrix_unit_singlet():
    e = matrix_unit((1, 1), 2)[0, 0]
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert np.abs(e - np.outer(singlet, singlet)).max() <= 1e-12


def test_matrix_unit_vanishes_beyond_depth():
    e = matrix_unit((1, 1, 1), 2)[0, 0]
    assert np.abs(e).max() <= 1e-12


def _restricted_index(tableau, boxes):
    reduced = tableau[:boxes]
    return word_shape(reduced), standard_tableaux(word_shape(reduced)).index(reduced)


def branching_deviation(d: int, boxes: int) -> float:
    """Largest deviation of E^alpha_ab x 1 from its child-shape units, over alpha with ``boxes`` boxes."""
    worst = 0.0
    for alpha in young_diagrams(boxes, d):
        dim = tableau_count(alpha)
        for a in range(dim):
            for b in range(dim):
                lhs = np.kron(matrix_unit(alpha, d)[a, b], np.eye(d))
                rhs = np.zeros_like(lhs)
                for child in children(alpha, max_depth=d):
                    x = embedding_matrix(alpha, child)
                    rhs += matrix_unit(child, d)[
                        int(np.argmax(x[a])), int(np.argmax(x[b]))
                    ]
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def test_branching_identity():
    # adding one tensor factor splits a commutant unit into child-shape units
    for d in (2, 3):
        for boxes in (1, 2, 3):
            assert branching_deviation(d, boxes) <= 1e-10


def partial_trace_deviation(d: int, boxes: int) -> float:
    """Largest deviation of Tr_last E^mu_ij from its rescaled restriction, over mu with ``boxes`` boxes."""
    worst = 0.0
    for mu in young_diagrams(boxes, d):
        tabs = standard_tableaux(mu)
        for i, ti in enumerate(tabs):
            for j, tj in enumerate(tabs):
                e = matrix_unit(mu, d)[i, j]
                reduced = partial_trace(
                    e, keep=range(boxes - 1), dims=(d,) * boxes
                )
                alpha, a = _restricted_index(ti, boxes - 1)
                beta, b = _restricted_index(tj, boxes - 1)
                if alpha == beta:
                    ratio = su_dim(mu, d) / su_dim(alpha, d)
                    expected = ratio * matrix_unit(alpha, d)[a, b]
                else:
                    expected = np.zeros_like(reduced)
                worst = max(worst, float(np.abs(reduced - expected).max()))
    return worst


def test_partial_trace_of_matrix_units():
    # tracing the last factor rescales by the ratio of group dimensions
    for d in (2, 3):
        for boxes in (2, 3, 4):
            if boxes == 4 and d == 3:
                continue  # covered by the acceptance suite at smaller size
            assert partial_trace_deviation(d, boxes) <= 1e-10


def _digest(mats) -> str:
    h = hashlib.sha256()
    for mat in mats:
        h.update(repr(mat.shape).encode())
        h.update(np.ascontiguousarray(mat).tobytes())
    return h.hexdigest()


def test_representation_data_is_pinned():
    # every generator and embedding byte, and the long-cycle products and
    # matrix units built from them.  The digests were taken from an
    # implementation that stored each tableau as nested rows, so they hold
    # whatever encodes a tableau.  Generators and embeddings are set entry
    # by entry; the cycle matrices and matrix units also pin numpy's matmul
    # on small matrices
    shapes = [mu for n in range(8) for mu in young_diagrams(n, max(n, 1))]
    generators = _digest(
        generator_matrix(mu, k) for mu in shapes for k in range(1, sum(mu))
    )
    embeddings = _digest(
        embedding_matrix(mu, child) for mu in shapes if sum(mu) < 7 for child in children(mu, len(mu) + 1)
    )
    cycles = _digest(
        permutation_matrix(mu, cycle_permutation(sum(mu))) for mu in shapes if sum(mu)
    )
    units = _digest(
        matrix_unit(mu, d) for d in (2, 3) for n in range(1, 5) for mu in young_diagrams(n, d)
    )
    assert (generators, embeddings, cycles, units) == (
        "f5cc434e4315b178ae188b3299b75afbe0e5b94518c4b880a9651ebd86cd5dc2",
        "607f604dbba6f6c4d43f912c1c07ae3665b98071de77b12085a0482e4258049c",
        "65a509af1c06dbb9d926fc72f0b17a8cea879b8d3ea16d28dadbc94abc265aa6",
        "cbfcc5ec7dca4504c97cc1a77ed6943f49257f832e0b630fe2e73fdfd62607f5",
    )
