"""The order-12 symmetry group acting on residue pairs mod d.

Heights over the torsion grid are invariant under the group generated by

    alpha: (c1, c2) -> (c2, c1)
    beta:  (c1, c2) -> (-c2, c1 - c2)
    gamma: (c1, c2) -> (-c1, -c2)

subject to alpha^2 = beta^3 = gamma^2 = 1.  They permute the unit classes
of each order, so a class table sums one class per orbit.  The group is a
literal table of its twelve matrices, acting through ``images``.
"""

from __future__ import annotations

_Matrix = tuple[tuple[int, int], tuple[int, int]]

# alpha^e1 * beta^e2 * gamma^e3 for (e1, e2, e3) in lexicographic order,
# so the element (e1, e2, e3) sits at index 6*e1 + 2*e2 + e3.
_MATRICES: tuple[_Matrix, ...] = (
    ((1, 0), (0, 1)),
    ((-1, 0), (0, -1)),
    ((0, -1), (1, -1)),
    ((0, 1), (-1, 1)),
    ((-1, 1), (-1, 0)),
    ((1, -1), (1, 0)),
    ((0, 1), (1, 0)),
    ((0, -1), (-1, 0)),
    ((1, -1), (0, -1)),
    ((-1, 1), (0, 1)),
    ((-1, 0), (-1, 1)),
    ((1, 0), (1, -1)),
)


def images(c1, c2, d: int):
    """The twelve images g.(c1, c2) mod d, in the order of _MATRICES.

    c1 and c2 may be ints or integer arrays of one shape.
    """
    for (m11, m12), (m21, m22) in _MATRICES:
        yield (m11 * c1 + m12 * c2) % d, (m21 * c1 + m22 * c2) % d
