"""Obstruction machinery for inner post-Lie algebras.

Given an inner post-Lie algebra with witness w (so ad_{w(x)} is the left
multiplication by x), the defect c(x,y) = [w(x), w(y)] - w([x,y]_sub) is a
center-valued 2-cocycle on the sub-adjacent algebra.  The structure comes
from a Rota-Baxter operator exactly when that cocycle is a coboundary
c(x,y) = -t([x,y]_sub) for some t into the center, and then w - t is such
an operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .errors import NontrivialObstructionError, NotInnerError, NotRotaBaxterError
from .lie import (
    LieAlgebra,
    Subspace,
    _alternating,
    _cyclic_failures,
    _negates,
    center,
    check_jacobi,
    coefficient_matrix,
)
from .postlie import (
    LinearMap,
    PostLieAlgebra,
    _rota_baxter_tables,
    innerness_witness,
    is_homomorphism,
    is_witness,
    sub_adjacent,
)
from .scalars import (
    ExactMatrix,
    ScalarLike,
    Vector,
    _solve_columns,
    hstack,
    is_zero_vector,
    nullspace,
    vec_sub,
    vector,
)


@dataclass(frozen=True)
class LieTwoCochain:
    """An alternating 2-cochain on K^n with values inside a center subspace."""

    ambient: int
    center_basis: Subspace
    values: tuple[tuple[Vector, ...], ...]

    def __post_init__(self) -> None:
        n = self.ambient
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ValueError("cochain table shape mismatch")
        for i in range(n):
            if not is_zero_vector(self.values[i][i]):
                raise ValueError("cochain not alternating on the diagonal")
            for j in range(i + 1, n):
                value, mirror = self.values[i][j], self.values[j][i]
                if len(value) != len(mirror) or not all(map(_negates, value, mirror)):
                    raise ValueError("cochain table not antisymmetric")
                if not self.center_basis.contains(self.values[i][j]):
                    raise ValueError(
                        f"cochain value at ({i},{j}) lies outside the center"
                    )

    @staticmethod
    def from_pairs(
        ambient: int,
        center_basis: Subspace,
        pairs: Mapping[tuple[int, int], Sequence[ScalarLike]],
    ) -> "LieTwoCochain":
        for i, j in pairs:
            if not (0 <= i < j < ambient):
                raise ValueError("cochain pairs must satisfy i < j")
        upper = {key: vector(value) for key, value in pairs.items()}
        return LieTwoCochain(ambient, center_basis, _alternating(ambient, upper))

    def value(self, i: int, j: int) -> Vector:
        return self.values[i][j]


class RbReconstruction(NamedTuple):
    operator: LinearMap
    witness: LinearMap
    cocycle: LieTwoCochain
    correction: LinearMap


def obstruction_cocycle(p: PostLieAlgebra, witness: LinearMap) -> LieTwoCochain:
    """The defect [w(x), w(y)] - w([x,y]_sub) on basis pairs.

    Values must land in the center; anything else means the supplied map is
    not a witness and is rejected.
    """
    if not is_witness(p, witness):
        raise ValueError("supplied map is not an innerness witness for this product")
    return _defect(p, witness, sub_adjacent(p), center(p.base))


def _defect(
    p: PostLieAlgebra, witness: LinearMap, sub: LieAlgebra, z: Subspace
) -> LieTwoCochain:
    """``obstruction_cocycle`` for a known witness, on the sub-adjacent
    algebra ``sub``, with values in the center ``z`` of ``p.base``."""
    n = p.dim
    columns = [witness.column(i) for i in range(n)]
    pairs = {
        (i, j): vec_sub(p.base.bracket(columns[i], columns[j]), witness.apply(sub.sc[i][j]))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return LieTwoCochain.from_pairs(n, z, pairs)


def verify_lie_2cocycle(cochain: LieTwoCochain, sub: LieAlgebra) -> bool:
    """Cyclic cocycle identity over the sub-adjacent bracket on basis triples."""
    if cochain.ambient != sub.dim:
        raise ValueError("cochain and algebra dimensions differ")
    return next(_cyclic_failures(sub.sc, cochain.values), None) is None


def coboundary_solve(cochain: LieTwoCochain, sub: LieAlgebra) -> LinearMap | None:
    """Find t into the center with cochain(x,y) = -t([x,y]_sub), or None.

    One system has the rows -[e_i, e_j]_sub, i < j, and the n components
    of the values cochain(e_i, e_j) as its right-hand sides; one
    elimination solves them all with free variables zero, and the solution
    for component k is row k of t.  The elimination is the same for every
    component, so each column t(e_l) is one fixed combination of cochain
    values, which ``LieTwoCochain`` checked are central: t maps into the
    center.
    """
    n = sub.dim
    if cochain.ambient != n:
        raise ValueError("cochain and algebra dimensions differ")
    rows = []
    rhs = []
    for i in range(n):
        for j in range(i + 1, n):
            # -[e_i, e_j]_sub is the mirror entry, which ``LieAlgebra``
            # checked is the negation.
            rows.append(sub.sc[j][i])
            rhs.append(cochain.value(i, j))
    solved = _solve_columns(ExactMatrix(tuple(rows), n), ExactMatrix(tuple(rhs), n))
    if solved is None:
        return None
    return LinearMap(ExactMatrix(solved, n))


def construct_rb_from_obstruction(
    p: PostLieAlgebra, witness: LinearMap | None = None
) -> RbReconstruction:
    """Full pipeline: witness, defect cocycle, coboundary solve, operator.

    Assumes the post-Lie axioms hold (callers validate).  Raises
    NotInnerError when some left multiplication is not inner and
    NontrivialObstructionError when the cocycle is not a coboundary.  On
    success the reconstructed operator provably induces the given product.
    """
    if witness is None:
        witness = innerness_witness(p)
        if witness is None:
            raise NotInnerError("left multiplications are not all inner derivations")
    elif not is_witness(p, witness):
        raise ValueError("supplied map is not an innerness witness for this product")
    sub = sub_adjacent(p)
    cochain = _defect(p, witness, sub, center(p.base))
    if not verify_lie_2cocycle(cochain, sub):
        raise AssertionError("defect of a valid witness must be a 2-cocycle")
    correction = coboundary_solve(cochain, sub)
    if correction is None:
        raise NontrivialObstructionError(
            "obstruction class is nonzero: no Rota-Baxter operator induces this product"
        )
    operator = witness - correction
    if not is_witness(p, operator):
        raise AssertionError("reconstructed operator does not reproduce the product")
    # [R(x), y] = x > y, so the Rota-Baxter identity says that R is a
    # homomorphism from the sub-adjacent algebra of p.
    if not is_homomorphism(operator, sub.sc, p.base):
        raise AssertionError("reconstructed operator fails the Rota-Baxter identity")
    return RbReconstruction(operator, witness, cochain, correction)


def pullback_algebra(p: PostLieAlgebra) -> LieAlgebra:
    """Subalgebra of sub-adjacent (+) base pairs (x, y) with ad_y = left mult by x.

    Dimension is dim + dim center; rejects non-inner input since then the
    first projection would not be onto.
    """
    n = p.dim
    if innerness_witness(p) is None:
        raise NotInnerError("pullback requires an inner post-Lie algebra")
    sub = sub_adjacent(p)
    z = center(p.base)
    constraint = hstack(coefficient_matrix(p.tc), -coefficient_matrix(p.base.sc))
    basis = Subspace.from_spanning(2 * n, nullspace(constraint))
    if basis.dim != n + z.dim:
        raise AssertionError("pullback dimension differs from dim + dim center")
    # [v_b, v_a] = -[v_a, v_b] and [v_a, v_a] = 0, so the pairs a < b
    # decide closure and give the whole table.
    upper = {}
    for a in range(basis.dim):
        va = basis.basis[a]
        for b in range(a + 1, basis.dim):
            vb = basis.basis[b]
            product = sub.bracket(va[:n], vb[:n]) + p.base.bracket(va[n:], vb[n:])
            coords = basis.coordinates_of(product)
            if coords is None:
                raise AssertionError("pullback is not closed under the bracket")
            upper[(a, b)] = coords
    result = LieAlgebra(_alternating(basis.dim, upper))
    if not check_jacobi(result):
        raise AssertionError("pullback bracket fails Jacobi")
    return result


def rb_difference_cocycle(
    algebra: LieAlgebra, first: LinearMap, second: LinearMap
) -> LinearMap | None:
    """Difference of two Rota-Baxter operators inducing the same product.

    Returns t = second - first after verifying it maps into the center and
    kills sub-adjacent brackets; returns None when the induced products
    differ.  Raises NotRotaBaxterError, naming the first input that fails
    the Rota-Baxter identity.
    """
    products = []
    for name, operator in (("first", first), ("second", second)):
        tables = _rota_baxter_tables(algebra, operator)
        if tables is None:
            raise NotRotaBaxterError(f"{name} map fails the Rota-Baxter identity")
        products.append(tables[0])
    if products[0] != products[1]:
        return None
    difference = second - first
    z = center(algebra)
    n = algebra.dim
    for i in range(n):
        if not z.contains(difference.column(i)):
            raise AssertionError("difference of equal-product operators must be central")
    sub = sub_adjacent(PostLieAlgebra(algebra, products[0]))
    for i in range(n):
        for j in range(i + 1, n):
            if not is_zero_vector(difference.apply(sub.sc[i][j])):
                raise AssertionError("difference must vanish on sub-adjacent brackets")
    return difference
