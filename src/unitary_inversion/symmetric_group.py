"""Young diagrams, standard tableaux, and orthogonal irreps of S_n.

Canonical tableau ordering (frozen project-wide): tableaux of a shape are
enumerated recursively by the row of the box holding the largest entry, in
increasing row order, with the remaining boxes ordered as in the parent
shape's own canonical list.  The ordering is subgroup adapted: restricting
the representation to permutations fixing n gives blocks that are exactly
the parent-shape representations, in parent-canonical order.  Embedding
matrices below rely on this.

Representation matrices use Young's orthogonal form, so every matrix is
real orthogonal and the group-algebra matrix units are real symmetric
under index swap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# matrix_unit cost grows as n! * d^(2n); the guard keeps accidental calls cheap.
MATRIX_UNIT_MAX_BOXES = 4
MATRIX_UNIT_MAX_DIM = 3


@dataclass(frozen=True, order=True)
class YoungDiagram:
    """Partition shape: weakly decreasing positive row lengths."""

    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if any(r <= 0 for r in rows):
            raise ValueError(f"row lengths must be positive: {rows}")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError(f"row lengths must be weakly decreasing: {rows}")

    @property
    def boxes(self) -> int:
        return sum(self.rows)

    @property
    def depth(self) -> int:
        return len(self.rows)

    def contains(self, other: "YoungDiagram") -> bool:
        padded = other.rows + (0,) * (self.depth - other.depth)
        return other.depth <= self.depth and all(
            o <= s for o, s in zip(padded, self.rows)
        )

    def removable_rows(self) -> list[int]:
        """Rows whose last box is a corner (removable)."""
        rows = self.rows
        return [
            r
            for r in range(len(rows))
            if r == len(rows) - 1 or rows[r] > rows[r + 1]
        ]

    def addable_rows(self, max_depth: int | None = None) -> list[int]:
        """Rows (possibly a new bottom row) where a box may be added."""
        rows = self.rows
        out = [r for r in range(len(rows)) if r == 0 or rows[r - 1] > rows[r]]
        if max_depth is None or len(rows) + 1 <= max_depth:
            out.append(len(rows))
        return out

    def remove_box(self, row: int) -> "YoungDiagram":
        rows = list(self.rows)
        rows[row] -= 1
        if rows[row] == 0:
            rows.pop(row)
        return YoungDiagram(tuple(rows))

    def add_box(self, row: int) -> "YoungDiagram":
        rows = list(self.rows)
        if row == len(rows):
            rows.append(1)
        else:
            rows[row] += 1
        return YoungDiagram(tuple(rows))

    def parents(self) -> list["YoungDiagram"]:
        """Diagrams obtained by removing one box."""
        return [self.remove_box(r) for r in self.removable_rows()]

    def children(self, max_depth: int | None = None) -> list["YoungDiagram"]:
        """Diagrams obtained by adding one box, optionally depth bounded."""
        return [self.add_box(r) for r in self.addable_rows(max_depth)]


EMPTY_DIAGRAM = YoungDiagram(())


def young_diagrams(n: int, d: int) -> list[YoungDiagram]:
    """All partitions of ``n`` with at most ``d`` parts, reverse lexicographic.

    The first entry is the single row (n,) and the last is the most
    column-like shape allowed by the depth bound.
    """
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    if n == 0:
        return [EMPTY_DIAGRAM]

    def rec(remaining: int, maximum: int, depth: int):
        if remaining == 0:
            yield ()
            return
        if depth == 0:
            return
        for first in range(min(remaining, maximum), 0, -1):
            if remaining - first > first * (depth - 1):
                continue
            for tail in rec(remaining - first, first, depth - 1):
                yield (first,) + tail

    return [YoungDiagram(rows) for rows in rec(n, n, d)]


@dataclass(frozen=True)
class StandardTableau:
    """Standard filling of a shape by 1..n, increasing along rows and columns."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        entries = sorted(x for row in rows for x in row)
        n = len(entries)
        if entries != list(range(1, n + 1)):
            raise ValueError(f"filling must use 1..{n} exactly once: {rows}")
        for row in rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"rows must increase: {rows}")
        for r in range(len(rows) - 1):
            if len(rows[r + 1]) > len(rows[r]):
                raise ValueError(f"row lengths must be weakly decreasing: {rows}")
            for c in range(len(rows[r + 1])):
                if rows[r][c] >= rows[r + 1][c]:
                    raise ValueError(f"columns must increase: {rows}")

    @property
    def shape(self) -> YoungDiagram:
        if not self.rows:
            return EMPTY_DIAGRAM
        return YoungDiagram(tuple(len(r) for r in self.rows))

    @property
    def boxes(self) -> int:
        return sum(len(r) for r in self.rows)

    def position(self, value: int) -> tuple[int, int]:
        """(row, column) of a value, 0-based."""
        for r, row in enumerate(self.rows):
            for c, x in enumerate(row):
                if x == value:
                    return r, c
        raise ValueError(f"{value} not present in tableau")

    def restrict(self, k: int) -> "StandardTableau":
        """Sub-tableau holding entries 1..k."""
        rows = tuple(
            tuple(x for x in row if x <= k) for row in self.rows
        )
        return StandardTableau(tuple(r for r in rows if r))

    def add_entry(self, row: int, value: int) -> "StandardTableau":
        rows = [list(r) for r in self.rows]
        if row == len(rows):
            rows.append([value])
        else:
            rows[row].append(value)
        return StandardTableau(tuple(tuple(r) for r in rows))

    def swap(self, k: int) -> "StandardTableau":
        """Exchange entries k and k+1 (result may not be standard)."""
        rows = tuple(
            tuple(k + 1 if x == k else k if x == k + 1 else x for x in row)
            for row in self.rows
        )
        return StandardTableau(rows)


_EMPTY_TABLEAU = StandardTableau(())


@lru_cache(maxsize=None)
def standard_tableaux(diagram: YoungDiagram) -> tuple[StandardTableau, ...]:
    """Canonically ordered standard tableaux of a shape (see module docstring)."""
    n = diagram.boxes
    if n == 0:
        return (_EMPTY_TABLEAU,)
    out: list[StandardTableau] = []
    for row in diagram.removable_rows():
        parent = diagram.remove_box(row)
        for t in standard_tableaux(parent):
            out.append(t.add_entry(row, n))
    return tuple(out)


@lru_cache(maxsize=None)
def _tableau_index(diagram: YoungDiagram) -> dict[StandardTableau, int]:
    return {t: i for i, t in enumerate(standard_tableaux(diagram))}


def _hook_lengths(diagram: YoungDiagram) -> list[int]:
    rows = diagram.rows
    cols = [sum(1 for r in rows if r > c) for c in range(rows[0])] if rows else []
    hooks = []
    for r, length in enumerate(rows):
        for c in range(length):
            hooks.append((length - c) + (cols[c] - r) - 1)
    return hooks


def tableau_count(diagram: YoungDiagram) -> int:
    """Number of standard tableaux (hook length formula, exact integers)."""
    n = diagram.boxes
    if n == 0:
        return 1
    product = math.prod(_hook_lengths(diagram))
    return math.factorial(n) // product


def su_dim(diagram: YoungDiagram, d: int) -> int:
    """Dimension of the SU(d) irrep labeled by the diagram.

    Counts semistandard fillings with entries <= d; zero when the diagram
    is deeper than d.  Exact integer arithmetic throughout.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if diagram.depth > d:
        return 0
    if diagram.boxes == 0:
        return 1
    value = Fraction(1)
    hooks = iter(_hook_lengths(diagram))
    for r, length in enumerate(diagram.rows):
        for c in range(length):
            value *= Fraction(d + c - r, next(hooks))
    assert value.denominator == 1
    return int(value)


def generator_matrix(diagram: YoungDiagram, k: int) -> np.ndarray:
    """Young's orthogonal form of the adjacent transposition (k, k+1).

    Entries follow from the axial distance between boxes k and k+1: equal
    rows give +1 on the diagonal, equal columns -1, and otherwise the
    tableau pairs related by swapping k and k+1 form 2x2 rotation-like
    blocks.
    """
    n = diagram.boxes
    if not 1 <= k <= n - 1:
        raise ValueError(f"transposition index {k} out of range for {n} boxes")
    tabs = standard_tableaux(diagram)
    index = _tableau_index(diagram)
    dim = len(tabs)
    mat = np.zeros((dim, dim))
    for t_idx, t in enumerate(tabs):
        r1, c1 = t.position(k)
        r2, c2 = t.position(k + 1)
        if r1 == r2:
            mat[t_idx, t_idx] = 1.0
        elif c1 == c2:
            mat[t_idx, t_idx] = -1.0
        else:
            axial = (c2 - r2) - (c1 - r1)
            rho = 1.0 / axial
            other = index[t.swap(k)]
            mat[t_idx, t_idx] = rho
            mat[t_idx, other] = math.sqrt(1.0 - rho * rho)
    return mat


@lru_cache(maxsize=None)
def _generator_cached(diagram: YoungDiagram, k: int) -> np.ndarray:
    m = generator_matrix(diagram, k)
    m.setflags(write=False)
    return m


def check_permutation(perm) -> tuple[int, ...]:
    """Validate one-line notation (0-based): perm[i] is the image of i."""
    perm = tuple(int(p) for p in perm)
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
    n = len(line)
    # Bubble sort to the identity; right-composing with s_k swaps slots k-1, k.
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                word.append(i + 1)
                changed = True
    # perm o s_{word[0]} o ... o s_{word[-1]} = identity, each s its own inverse.
    return list(reversed(word))


def permutation_matrix(diagram: YoungDiagram, perm) -> np.ndarray:
    """Orthogonal representation matrix of an arbitrary permutation.

    The result is independent of the adjacent-transposition decomposition.
    """
    perm = check_permutation(perm)
    if len(perm) != diagram.boxes:
        raise ValueError(f"permutation length {len(perm)} != boxes {diagram.boxes}")
    dim = tableau_count(diagram)
    mat = np.eye(dim)
    for k in adjacent_transposition_word(perm):
        mat = mat @ _generator_cached(diagram, k)
    return mat


def cycle_permutation(n: int) -> tuple[int, ...]:
    """The long cycle sending slot i to i+1 (0-based one-line notation)."""
    return tuple((i + 1) % n for i in range(n))


def embedding_matrix(parent: YoungDiagram, child: YoungDiagram) -> np.ndarray:
    """0/1 matrix pairing parent tableaux with one-box extensions.

    Entry (c, a) is 1 exactly when deleting the largest entry of child
    tableau a leaves parent tableau c.  Rows are orthonormal: every parent
    tableau extends uniquely into a fixed child shape.
    """
    if child.boxes != parent.boxes + 1 or not child.contains(parent):
        raise ValueError(f"{child.rows} is not a one-box extension of {parent.rows}")
    parent_index = _tableau_index(parent)
    child_tabs = standard_tableaux(child)
    mat = np.zeros((tableau_count(parent), len(child_tabs)))
    k = child.boxes
    for a, t in enumerate(child_tabs):
        restricted = t.restrict(k - 1)
        if restricted.shape == parent:
            mat[parent_index[restricted], a] = 1.0
    return mat


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


def matrix_unit(
    diagram: YoungDiagram,
    i: int,
    j: int,
    d: int,
    allow_large: bool = False,
) -> np.ndarray:
    """Commutant basis element E^mu_ij on (C^d)^n via the group algebra.

    E^mu_ij = (d_mu / n!) * sum_sigma [pi_mu(sigma)]_ij P_sigma, a real
    matrix satisfying Tr E^mu_ij = m_mu delta_ij and the matrix-unit
    product rule.  Factorial cost; guarded to small sizes unless
    ``allow_large``.
    """
    n = diagram.boxes
    if not allow_large and (n > MATRIX_UNIT_MAX_BOXES or d > MATRIX_UNIT_MAX_DIM):
        raise ValueError(
            f"matrix_unit guarded to n <= {MATRIX_UNIT_MAX_BOXES}, "
            f"d <= {MATRIX_UNIT_MAX_DIM}; pass allow_large=True to override"
        )
    dim = tableau_count(diagram)
    if not (0 <= i < dim and 0 <= j < dim):
        raise ValueError(f"tableau indices ({i}, {j}) out of range for d_mu={dim}")
    total = d**n
    out = np.zeros((total, total))
    for sigma in itertools.permutations(range(n)):
        coeff = permutation_matrix(diagram, sigma)[i, j]
        if coeff != 0.0:
            out += coeff * permutation_operator(sigma, d, n)
    return out * (dim / math.factorial(n))
