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
    _integer_form,
    _integer_tables,
    _least_scale,
    _negates,
    _null_subspace,
    _sparse,
    center,
    coefficient_matrix,
)
from .postlie import (
    LinearMap,
    PostLieAlgebra,
    _bracket_defects,
    _is_homomorphism,
    _rota_baxter_tables,
    innerness_witness,
    is_witness,
    sub_adjacent,
    sub_adjacent_table,
)
from .scalars import (
    ExactMatrix,
    IntegerRow,
    ScalarLike,
    Vector,
    _echelon,
    _back_substitute,
    _reduced_solutions,
    _scalar_row,
    hstack,
    is_zero_vector,
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
    algebra ``sub``, with values in the center ``z`` of ``p.base``: the
    defect of the bracket law of w from ``sub`` to ``p.base``, on integer
    rows (``_bracket_defects``)."""
    n = p.dim
    scale, defects = _bracket_defects(witness._integer, sub._integer, p.base._integer)
    pairs = {(i, j): _scalar_row(_sparse(re, im), n, scale) for i, j, re, im in defects}
    return LieTwoCochain.from_pairs(n, z, pairs)


def verify_lie_2cocycle(cochain: LieTwoCochain, sub: LieAlgebra) -> bool:
    """Cyclic cocycle identity over the sub-adjacent bracket on basis triples."""
    if cochain.ambient != sub.dim:
        raise ValueError("cochain and algebra dimensions differ")
    values = _integer_form(cochain.values).rows
    return next(_cyclic_failures(sub._integer.rows, values), None) is None


def _coboundary_echelon(
    brackets: Sequence[IntegerRow], values: Sequence[IntegerRow], n: int
) -> dict[int, dict[int, tuple[int, int]]] | None:
    """The one decision of the class: the ``_echelon`` of the rows
    [brackets[r] | values[r]] in 2n columns, or None when one leads in the
    value block, an equation 0 = nonzero of kappa = -t o sub.  Row r holds
    +-[e_i, e_j]_sub and kappa(e_i, e_j) for the r-th pair i < j, each block
    times a nonzero integer, which moves no leading column."""
    leaders = _echelon(
        bracket + tuple((n + k, a, b) for k, a, b in value)
        for bracket, value in zip(brackets, values)
    )
    return None if any(lead >= n for lead in leaders) else leaders


def coboundary_solve(cochain: LieTwoCochain, sub: LieAlgebra) -> LinearMap | None:
    """Find t into the center with cochain(x,y) = -t([x,y]_sub), or None.

    ``_coboundary_echelon`` decides on the rows -[e_i, e_j]_sub, i < j,
    beside the n components of cochain(e_i, e_j), both on one scale
    (``lie._integer_tables``); for a trivial class the canonical solution
    of component k is row k of t.  Each column t(e_l) is then one fixed
    combination of cochain values, which ``LieTwoCochain`` checked are
    central: t maps into the center.
    """
    n = sub.dim
    if cochain.ambient != n:
        raise ValueError("cochain and algebra dimensions differ")
    brackets, values = _integer_tables(sub.sc, cochain.values)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # -[e_i, e_j]_sub is the mirror entry, which ``LieAlgebra`` checked.
    leaders = _coboundary_echelon(
        [brackets[j][i] for i, j in pairs], [values[i][j] for i, j in pairs], n
    )
    if leaders is None:
        return None
    solved = _reduced_solutions(*_back_substitute(leaders, 2 * n, len(leaders)), n)
    return LinearMap(ExactMatrix(solved, n))


def construct_rb_from_obstruction(
    p: PostLieAlgebra, witness: LinearMap | None = None
) -> RbReconstruction:
    """Full pipeline: witness, defect cocycle, coboundary solve, operator.

    Assumes the post-Lie axioms hold (callers validate).  Raises
    NotInnerError when some left multiplication is not inner and
    NontrivialObstructionError when the cocycle is not a coboundary.  On
    success the reconstructed operator provably induces the given product.
    The sub-adjacent bracket of a post-Lie algebra satisfies Jacobi (a
    consequence of the axioms), so it is built without a Jacobi check.
    """
    if witness is None:
        witness = innerness_witness(p)
        if witness is None:
            raise NotInnerError("left multiplications are not all inner derivations")
    elif not is_witness(p, witness):
        raise ValueError("supplied map is not an innerness witness for this product")
    sub = LieAlgebra(sub_adjacent_table(p.base.sc, p.tc))
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
    if not _is_homomorphism(operator._integer, sub._integer, p.base._integer):
        raise AssertionError("reconstructed operator fails the Rota-Baxter identity")
    return RbReconstruction(operator, witness, cochain, correction)


def pullback_algebra(p: PostLieAlgebra) -> LieAlgebra:
    """Subalgebra of sub-adjacent (+) base pairs (x, y) with ad_y = left mult by x.

    The pairs are the null space N of [C(tc) | -C(sc)].  Its canonical
    basis vectors that lead in the first n columns number dim pi_x(N), and
    the others span {0} x Z, so p is inner exactly when n of them lead
    there; the dimension is then dim + dim center.  Rejects non-inner input,
    whose first projection would not be onto.

    Assumes ``p.base`` is a Lie algebra (callers validate); ``sub_adjacent``
    refuses a sub-adjacent bracket that fails Jacobi.  Then sub (+) base is
    a Lie algebra, and N, closed under its bracket (``coordinates_of``
    checks each product), is a Lie subalgebra: the result satisfies Jacobi
    without a check.
    """
    n = p.dim
    constraint = hstack(coefficient_matrix(p.tc), -coefficient_matrix(p.base.sc))
    basis = _null_subspace(constraint)
    if sum(lead < n for lead in basis.pivots) < n:
        raise NotInnerError("pullback requires an inner post-Lie algebra")
    sub = sub_adjacent(p)
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
    return LieAlgebra(_alternating(basis.dim, upper))


def rb_difference_cocycle(
    algebra: LieAlgebra, first: LinearMap, second: LinearMap
) -> LinearMap | None:
    """Difference of two Rota-Baxter operators inducing the same product.

    Assumes ``algebra`` is a Lie algebra (callers validate).  Returns t =
    second - first when both operators induce the same product, None when
    the induced products differ.  Raises NotRotaBaxterError, naming the
    first input that fails the Rota-Baxter identity.

    t is a central 1-cocycle by a theorem, so it is not checked.  Equal
    induced tables say [t(e_i), e_j] = 0 for all i, j, so t maps into the
    center.  Both operators are then homomorphisms from the same
    sub-adjacent bracket, and with t central
    R2([x,y]_sub) = [R1 x + t x, R1 y + t y] = [R1 x, R1 y] = R1([x,y]_sub),
    so t vanishes on the sub-adjacent brackets.
    """
    tables = []
    for name, operator in (("first", first), ("second", second)):
        pair = _rota_baxter_tables(algebra, operator)
        if pair is None:
            raise NotRotaBaxterError(f"{name} map fails the Rota-Baxter identity")
        tables.append(pair)
    # On its least scale a table's integer rows are unique.
    (induced, _), (other, _) = tables
    if _least_scale(induced) != _least_scale(other):
        return None
    return second - first
