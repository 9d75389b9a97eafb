"""Young diagrams, standard tableaux, and orthogonal irreps of S_n.

A shape (Young diagram) is the tuple of its row lengths, positive and
weakly decreasing; the empty shape is ().  Shapes come only from
:func:`young_diagrams`, :func:`parents` and :func:`children`, so nothing
validates them again.

A standard tableau with n boxes is its row word: a tuple w of n row
indices (0-based) in which entry v sits in row w[v-1].  A word is standard
exactly when each of its prefixes has weakly decreasing row counts; the
shape is the word's row counts, an entry's column is the number of
smaller entries in its row, and the sub-tableau holding entries 1..k is
the prefix w[:k].

Canonical tableau ordering (frozen project-wide): tableaux of a shape are
enumerated recursively by the row of the box holding the largest entry, in
increasing row order, with the remaining boxes ordered as in the parent
shape's own canonical list.  As words, that is colexicographic order.  The
ordering is subgroup adapted: restricting the representation to
permutations fixing n gives blocks that are exactly the parent-shape
representations, in parent-canonical order.  Embedding matrices below rely
on this.

Representation matrices use Young's orthogonal form, so every matrix is
real orthogonal and the group-algebra matrix units are real symmetric
under index swap.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .tensor import as_ints


def young_diagrams(n: int, d: int) -> list[tuple[int, ...]]:
    """All partitions of ``n`` with at most ``d`` parts, reverse lexicographic.

    They are the n-step walk of :func:`children` from ().  The first entry is
    the single row (n,) and the last the most column-like shape allowed.
    """
    n, d = as_ints((n, d), "n and d")
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    shapes = {()}
    for _ in range(n):
        shapes = {child for shape in shapes for child in children(shape, max_depth=d)}
    return sorted(shapes, reverse=True)


def _with_box(shape: tuple[int, ...], row: int, delta: int) -> tuple[int, ...]:
    """``shape`` with one box added (delta 1) or removed (delta -1) at the end of ``row``.

    Row len(shape) is a new bottom row.
    """
    rows = list(shape) + [0]
    rows[row] += delta
    return tuple(length for length in rows if length)


def _removable_rows(shape: tuple[int, ...]) -> list[int]:
    """Rows whose last box is a corner."""
    return [r for r in range(len(shape)) if r == len(shape) - 1 or shape[r] > shape[r + 1]]


def parents(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Shapes obtained by removing one box, in row order."""
    return [_with_box(shape, r, -1) for r in _removable_rows(shape)]


def children(shape: tuple[int, ...], max_depth: int) -> list[tuple[int, ...]]:
    """Shapes obtained by adding one box, in row order, at most ``max_depth`` deep."""
    rows = [r for r in range(len(shape)) if r == 0 or shape[r - 1] > shape[r]]
    if len(shape) < max_depth:
        rows.append(len(shape))
    return [_with_box(shape, r, 1) for r in rows]


@lru_cache(maxsize=None)
def standard_tableaux(diagram: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Canonically ordered standard tableaux of a shape, as row words, cached.

    See the module docstring for the word encoding and the order.
    """
    if not diagram:
        return ((),)
    return tuple(
        word + (row,)
        for row in _removable_rows(diagram)
        for word in standard_tableaux(_with_box(diagram, row, -1))
    )


@lru_cache(maxsize=None)
def _tableau_index(diagram: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    return {word: i for i, word in enumerate(standard_tableaux(diagram))}


def _hook_lengths(diagram: tuple[int, ...]) -> list[int]:
    """Arm plus leg plus one for every box, in row order."""
    return [
        (length - c) + sum(1 for below in diagram[r + 1 :] if below > c)
        for r, length in enumerate(diagram)
        for c in range(length)
    ]


@lru_cache(maxsize=None)
def tableau_count(diagram: tuple[int, ...]) -> int:
    """Number of standard tableaux (hook length formula, exact integers), cached."""
    return math.factorial(sum(diagram)) // math.prod(_hook_lengths(diagram))


@lru_cache(maxsize=None)
def su_dim(diagram: tuple[int, ...], d: int) -> int:
    """Dimension of the SU(d) irrep labeled by the diagram, cached.

    Counts semistandard fillings with entries <= d by the hook-content
    formula, whose division is exact in integers.  A diagram deeper than d
    has a box of content -d, so its product, and the dimension, is zero.
    """
    if d < 1:
        raise ValueError("d must be positive")
    contents = math.prod(d + c - r for r, length in enumerate(diagram) for c in range(length))
    return contents // math.prod(_hook_lengths(diagram))


@lru_cache(maxsize=None)
def generator_matrix(diagram: tuple[int, ...], k: int) -> np.ndarray:
    """Read-only Young's orthogonal form of the adjacent transposition (k, k+1).

    Entries follow from the axial distance between boxes k and k+1: equal
    rows give +1 on the diagonal, equal columns -1, and otherwise the
    tableau pairs related by swapping k and k+1 form 2x2 rotation-like
    blocks.  A box's column is the number of smaller entries in its row.
    Cached per (diagram, k), so every caller shares one array.
    """
    n = sum(diagram)
    if not 1 <= k <= n - 1:
        raise ValueError(f"transposition index {k} out of range for {n} boxes")
    words = standard_tableaux(diagram)
    index = _tableau_index(diagram)
    mat = np.zeros((len(words), len(words)))
    for i, word in enumerate(words):
        r1, r2 = word[k - 1], word[k]
        c1, c2 = word[: k - 1].count(r1), word[:k].count(r2)
        if r1 == r2:
            mat[i, i] = 1.0
        elif c1 == c2:
            mat[i, i] = -1.0
        else:
            rho = 1.0 / ((c2 - r2) - (c1 - r1))
            mat[i, i] = rho
            mat[i, index[word[: k - 1] + (r2, r1) + word[k + 1 :]]] = math.sqrt(1.0 - rho * rho)
    mat.setflags(write=False)
    return mat


def check_permutation(perm) -> tuple[int, ...]:
    """Validate one-line notation (0-based): perm[i] is the image of i."""
    perm = as_ints(perm, "perm")
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation of 0..{len(perm) - 1}: {perm}")
    return perm


def adjacent_transposition_word(perm) -> list[int]:
    """Write a permutation as a product of adjacent transpositions.

    Returns 1-based indices [k_1, ..., k_m] with perm = s_{k_1} o ... o s_{k_m}
    as function composition (the last factor acts first), so representation
    matrices multiply in list order.
    """
    perm = check_permutation(perm)
    word: list[int] = []
    line = list(perm)
    # Bubble sort to the identity; right-composing with s_k swaps slots k-1, k.
    # Each pass settles the largest unsorted entry in slot ``end``.
    for end in range(len(line) - 1, 0, -1):
        for i in range(end):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                word.append(i + 1)
    # perm o s_{word[0]} o ... o s_{word[-1]} = identity, each s its own inverse.
    return list(reversed(word))


def permutation_matrix(diagram: tuple[int, ...], perm) -> np.ndarray:
    """Orthogonal representation matrix of an arbitrary permutation.

    The result is independent of the adjacent-transposition decomposition.
    """
    perm = check_permutation(perm)
    if len(perm) != sum(diagram):
        raise ValueError(f"permutation length {len(perm)} != boxes {sum(diagram)}")
    dim = tableau_count(diagram)
    mat = np.eye(dim)
    for k in adjacent_transposition_word(perm):
        mat = mat @ generator_matrix(diagram, k)
    return mat


def cycle_permutation(n: int) -> tuple[int, ...]:
    """The long cycle sending slot i to i+1 (0-based one-line notation)."""
    return tuple((i + 1) % n for i in range(n))


@lru_cache(maxsize=None)
def embedding_matrix(parent: tuple[int, ...], child: tuple[int, ...]) -> np.ndarray:
    """Read-only 0/1 matrix pairing parent tableaux with one-box extensions.

    Entry (c, a) is 1 exactly when deleting the largest entry of child
    tableau a leaves parent tableau c.  The canonical order lists child
    tableaux grouped by the row of their largest entry, each group in its
    parent's order, so the matrix is an identity shifted past the groups
    of the removable rows above the added box.  Cached per pair, so every
    caller shares one array.
    """
    smaller = parents(child)
    if parent not in smaller:
        raise ValueError(f"{child} is not a one-box extension of {parent}")
    offset = sum(tableau_count(p) for p in smaller[: smaller.index(parent)])
    out = np.eye(tableau_count(parent), tableau_count(child), k=offset)
    out.setflags(write=False)
    return out


def permutation_operator(perm, d: int, n: int) -> np.ndarray:
    """Operator permuting tensor factors of (C^d)^n.

    Sends |i_1 ... i_n> to the basis state whose k-th digit is the digit
    previously at slot perm^{-1}(k).
    """
    perm = check_permutation(perm)
    if len(perm) != n:
        raise ValueError(f"permutation length {len(perm)} != {n}")
    axes = [int(a) for a in np.argsort(perm)] + list(range(n, 2 * n))
    total = d**n
    return np.eye(total).reshape((d,) * (2 * n)).transpose(axes).reshape(total, total)


@lru_cache(maxsize=None)
def matrix_unit(diagram: tuple[int, ...], d: int) -> np.ndarray:
    """Read-only stack E[i, j] = E^mu_ij of commutant basis elements on (C^d)^n.

    E^mu_ij = (d_mu / n!) * sum_sigma [pi_mu(sigma)]_ij P_sigma, a real
    matrix satisfying Tr E^mu_ij = m_mu delta_ij and the matrix-unit
    product rule.  One pass over S_n adds each permutation's operator to
    every (i, j) at once: n! * d_mu^2 * d^(2n) work, cached per (diagram, d).
    """
    n = sum(diagram)
    dim = tableau_count(diagram)
    total = d**n
    out = np.zeros((dim, dim, total, total))
    for sigma in itertools.permutations(range(n)):
        pi = permutation_matrix(diagram, sigma)
        out += pi[:, :, None, None] * permutation_operator(sigma, d, n)
    out *= dim / math.factorial(n)
    out.setflags(write=False)
    return out
