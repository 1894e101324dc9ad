"""Obstruction machinery for inner post-groups, and the group tower.

The defect of a witness map F with Ad_{F(a)} equal to left multiplication by
a is w(a,b) = F(b)^-1 F(a)^-1 F(a o b), a normalized center-valued 2-cocycle
on the sub-adjacent group.  Triviality is decided exactly by linear
congruences over the invariant factors of the center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import NontrivialObstructionError, NotInnerError, NotRotaBaxterError
from .groups import (
    AbelianDecomposition,
    FiniteGroup,
    GroupMap,
    abelian_decomposition,
    center_group,
    conjugation_rows,
    group_violations,
    is_group_homomorphism,
)
from .postgroup import (
    PostGroup,
    from_rb_group,
    induced_triangle,
    innerness_witness_group,
    sub_adjacent_group,
    sub_adjacent_table,
)
from .scalars import IntMatrix, _solve_smith, smith_normal_form

CompositionTable = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GroupTwoCocycle:
    """A normalized 2-cochain on element indices with central values.

    ``value_group`` supplies the multiplication for the values; the
    composition law of the domain group is passed to the verification and
    solving operations separately.
    """

    value_group: FiniteGroup
    values: tuple[tuple[int, ...], ...]
    center: AbelianDecomposition

    def __post_init__(self) -> None:
        n = self.value_group.order
        if len(self.values) != n or any(len(r) != n for r in self.values):
            raise ValueError("cocycle table shape does not match the group")
        central = set(self.center.elements)
        e = self.value_group.identity
        for a in range(n):
            for b in range(n):
                if self.values[a][b] not in central:
                    raise ValueError(f"cocycle value at ({a},{b}) is not central")
        for a in range(n):
            if self.values[a][e] != e or self.values[e][a] != e:
                raise ValueError("cocycle is not normalized at the identity")

    @property
    def order(self) -> int:
        return self.value_group.order

    def value(self, a: int, b: int) -> int:
        return self.values[a][b]


class GroupRbReconstruction(NamedTuple):
    operator: GroupMap
    witness: GroupMap
    cocycle: GroupTwoCocycle
    correction: GroupMap


def obstruction_cocycle_group(pg: PostGroup, witness: GroupMap) -> GroupTwoCocycle:
    """The defect table of a normalized witness; rejects invalid witnesses."""
    return _defect_group(pg, witness, sub_adjacent_group(pg))


def _defect_group(
    pg: PostGroup, witness: GroupMap, sub: FiniteGroup
) -> GroupTwoCocycle:
    """``obstruction_cocycle_group`` on the sub-adjacent group ``sub`` of ``pg``."""
    g = pg.base
    n = g.order
    if witness.size != n:
        raise ValueError("witness size does not match the group order")
    if witness(g.identity) != g.identity:
        raise ValueError("witness is not normalized at the identity")
    if induced_triangle(g, witness) != pg.triangle:
        raise ValueError("supplied map is not an innerness witness")
    values = []
    for a in range(n):
        row = []
        fa_inv = g.inv(witness(a))
        for b in range(n):
            fb_inv = g.inv(witness(b))
            row.append(g.mul(g.mul(fb_inv, fa_inv), witness(sub.mul(a, b))))
        values.append(tuple(row))
    return GroupTwoCocycle(g, tuple(values), abelian_decomposition(g, center_group(g)))


def verify_group_2cocycle(
    cocycle: GroupTwoCocycle, composition: CompositionTable
) -> bool:
    """w(b,c) w(a, b o c) = w(a,b) w(a o b, c) over all triples."""
    n = cocycle.order
    if len(composition) != n:
        raise ValueError("composition table order mismatch")
    mul = cocycle.value_group.mul
    w = cocycle.values
    for a in range(n):
        for b in range(n):
            ab = composition[a][b]
            for c in range(n):
                lhs = mul(w[b][c], w[a][composition[b][c]])
                rhs = mul(w[a][b], w[ab][c])
                if lhs != rhs:
                    return False
    return True


def generating_set(composition: CompositionTable, identity: int) -> tuple[int, ...]:
    """Greedy generators of the group with Cayley table ``composition``.

    Scans the elements in index order and keeps each one that lies outside
    the subgroup generated by those kept so far.  Each kept element at least
    doubles that subgroup, whose order divides n, so at most log2 n are kept.
    """
    generators: list[int] = []
    reached = {identity}
    for a in range(len(composition)):
        if a in reached:
            continue
        generators.append(a)
        frontier = list(reached)
        while frontier:
            x = frontier.pop()
            for s in generators:
                y = composition[x][s]
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return tuple(generators)


def coboundary_solve_group(
    cocycle: GroupTwoCocycle, composition: CompositionTable
) -> GroupMap | None:
    """Find central z with z(e) = e and w(a,b) = z(a) z(b) z(a o b)^-1.

    Returns None exactly when the class is nonzero.  ``cocycle`` must satisfy
    the cocycle identity for ``composition`` (``verify_group_2cocycle``); on
    any other cochain the result is None or a ValueError.

    Only the pairs (a, s) with a != e and s in a generating set S of the
    group (``generating_set``) become congruence rows, (n-1)|S| of them
    rather than (n-1)^2.  That is enough: write the center additively and
    put f = w - dz, a normalized 2-cocycle.  If f(a, s) = 0 for every a and
    every s in S, the cocycle identity
    f(b, c) + f(a, b o c) = f(a, b) + f(a o b, c) at c = s gives
    f(a, b o s) = f(a, b).  Every element is a product of generators and
    f(a, e) = 0, so f vanishes everywhere.

    The system has one Smith normal form, shared by the invariant factors
    of the center: each factor's coordinate of w is one right-hand side.
    The canonical z is the Smith-form solution of this system with its free
    coordinates set to zero.  When Hom(G o, Z(G)) != 0 other solutions exist
    and differ from it by a homomorphism.  The result is substituted back
    into all n^2 pairs before it is returned.
    """
    g = cocycle.value_group
    n = cocycle.order
    e = g.identity
    factors = cocycle.center.invariant_factors
    if not factors:
        if all(
            cocycle.values[a][b] == e for a in range(n) for b in range(n)
        ):
            return GroupMap.constant(n, e)
        return None

    unknowns = [a for a in range(n) if a != e]
    slot = {a: k for k, a in enumerate(unknowns)}
    generators = generating_set(composition, e)
    rows = []
    rhs_coords = []
    for a in unknowns:
        for s in generators:
            row = [0] * len(unknowns)
            row[slot[a]] += 1
            row[slot[s]] += 1
            a_s = composition[a][s]
            if a_s != e:
                row[slot[a_s]] -= 1
            rows.append(row)
            rhs_coords.append(cocycle.center.to_coords(cocycle.values[a][s]))
    snf = smith_normal_form(IntMatrix.from_rows(rows, width=len(unknowns)))

    per_factor: list[list[int]] = []
    for k, modulus in enumerate(factors):
        solution = _solve_smith(snf, [coords[k] for coords in rhs_coords], modulus)
        if solution is None:
            return None
        per_factor.append(solution)

    images = [e] * n
    for a in unknowns:
        coords = tuple(per_factor[k][slot[a]] for k in range(len(factors)))
        images[a] = cocycle.center.from_coords(coords)
    result = GroupMap(tuple(images))
    mul = g.mul
    for a in range(n):
        for b in range(n):
            expected = mul(mul(result(a), result(b)), g.inv(result(composition[a][b])))
            if cocycle.values[a][b] != expected:
                if not verify_group_2cocycle(cocycle, composition):
                    raise ValueError("cochain is not a 2-cocycle for this composition")
                raise AssertionError("congruence solution failed substitution")
    return result


def construct_rb_from_obstruction_group(
    pg: PostGroup, witness: GroupMap | None = None
) -> GroupRbReconstruction:
    """Witness, defect cocycle, congruence solve, operator B(a) = F(a) z(a).

    Assumes the post-group axioms hold (callers validate).  Raises
    NotInnerError when some left multiplication is not a conjugation and
    NontrivialObstructionError when the class is nonzero.
    """
    if witness is None:
        witness = innerness_witness_group(pg)
        if witness is None:
            raise NotInnerError(
                "left multiplications are not all inner automorphisms"
            )
    sub = sub_adjacent_group(pg)
    cocycle = _defect_group(pg, witness, sub)
    if not verify_group_2cocycle(cocycle, sub.table):
        raise AssertionError("defect of a valid witness must be a 2-cocycle")
    correction = coboundary_solve_group(cocycle, sub.table)
    if correction is None:
        raise NontrivialObstructionError(
            "obstruction class is nonzero: no Rota-Baxter operator induces this product"
        )
    g = pg.base
    operator = GroupMap(
        tuple(g.mul(witness(a), correction(a)) for a in range(g.order))
    )
    if induced_triangle(g, operator) != pg.triangle:
        raise AssertionError("reconstructed operator does not reproduce the product")
    # The operator induces pg's product, so its sub-adjacent table is sub's.
    if not is_group_homomorphism(operator, sub.table, g):
        raise AssertionError("reconstructed map fails the group Rota-Baxter identity")
    return GroupRbReconstruction(operator, witness, cocycle, correction)


def pullback_group(pg: PostGroup) -> FiniteGroup:
    """The subgroup of sub-adjacent x base pairs (a, b) with Ad_b = a > (.).

    Its order is |G| times |Z(G)|; rejects non-inner input.
    """
    g = pg.base
    n = g.order
    sub = sub_adjacent_group(pg)
    conj_index: dict[tuple[int, ...], list[int]] = {}
    for c, row in enumerate(conjugation_rows(g)):
        conj_index.setdefault(row, []).append(c)
    members: list[tuple[int, int]] = []
    for a in range(n):
        matches = conj_index.get(tuple(pg.triangle[a]))
        if matches is None:
            raise NotInnerError("pullback requires an inner post-group")
        members.extend((a, b) for b in matches)
    members.sort()
    index = {pair: k for k, pair in enumerate(members)}
    table = []
    for a1, b1 in members:
        row = []
        for a2, b2 in members:
            product = (sub.mul(a1, a2), g.mul(b1, b2))
            if product not in index:
                raise AssertionError("pullback pairs are not closed under the product")
            row.append(index[product])
        table.append(tuple(row))
    names = tuple(f"({g.name_of(a)},{g.name_of(b)})" for a, b in members)
    result = FiniteGroup.from_table(tuple(table), names=names)
    problems = group_violations(result, limit=1)
    if problems:
        raise AssertionError(f"pullback is not a group: {problems[0]}")
    if result.order != n * len(center_group(g)):
        raise AssertionError("pullback order is not |G| * |Z(G)|")
    return result


def rb_difference_cocycle_group(
    group: FiniteGroup, first: GroupMap, second: GroupMap
) -> GroupMap | None:
    """z(a) = B1(a)^-1 B2(a) when both operators induce the same product.

    Verifies the values are central and multiplicative for the sub-adjacent
    law; returns None when the induced products differ.  Raises
    NotRotaBaxterError unless both maps satisfy the Rota-Baxter identity.
    """
    pg1 = from_rb_group(group, first)
    pg2 = from_rb_group(group, second)
    if pg1.triangle != pg2.triangle:
        return None
    n = group.order
    central = set(center_group(group))
    images = tuple(group.mul(group.inv(first(a)), second(a)) for a in range(n))
    if any(z not in central for z in images):
        raise AssertionError("difference of equal-product operators must be central")
    difference = GroupMap(images)
    if not is_group_homomorphism(
        difference, sub_adjacent_table(group, pg1.triangle), group
    ):
        raise AssertionError("difference is not multiplicative on the sub-adjacent group")
    return difference


def group_tower_certificates(
    group: FiniteGroup, operator: GroupMap, depth: int
) -> list[FiniteGroup]:
    """The iterated sub-adjacent groups a o' b = a o (B(a) o b o B(a)^-1).

    Hard checks at every level: group axioms, the Rota-Baxter identity for
    the fixed operator, and that the operator and the tilde map
    a -> a o_(i-1) B(a) are homomorphisms one level down.  Each raises on
    failure, so returning the levels is the certificate.
    """
    if depth < 0:
        raise ValueError("tower depth must be nonnegative")
    # The Rota-Baxter test of a level builds the table of the next level;
    # on it, B is a homomorphism to the level below exactly when it is
    # Rota-Baxter on that level.
    table = sub_adjacent_table(group, induced_triangle(group, operator))
    if not is_group_homomorphism(operator, table, group):
        raise NotRotaBaxterError("map fails the group Rota-Baxter identity")
    levels = [group]
    for i in range(depth):
        current = levels[-1]
        nxt = FiniteGroup.from_table(table, names=group.names)
        problems = group_violations(nxt, limit=1)
        if problems:
            raise AssertionError(f"tower level {i + 1} is not a group: {problems[0]}")
        table = sub_adjacent_table(nxt, induced_triangle(nxt, operator))
        if not is_group_homomorphism(operator, table, nxt):
            raise AssertionError(f"operator is not Rota-Baxter on level {i + 1}")
        tilde = GroupMap(
            tuple(current.mul(a, operator(a)) for a in range(current.order))
        )
        if not is_group_homomorphism(tilde, nxt.table, current):
            raise AssertionError(
                f"tilde map is not a homomorphism from level {i + 1} to {i}"
            )
        levels.append(nxt)
    return levels
