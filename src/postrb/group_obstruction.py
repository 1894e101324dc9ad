"""Obstruction machinery for inner post-groups, and the group tower.

The defect of a witness map F with Ad_{F(a)} equal to left multiplication by
a is w(a,b) = F(b)^-1 F(a)^-1 F(a o b), a normalized center-valued 2-cocycle
on the sub-adjacent group.  Triviality is decided exactly by linear
congruences over the invariant factors of the center.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import getitem, itemgetter
from typing import Iterable, NamedTuple

from .errors import NontrivialObstructionError, NotInnerError, NotRotaBaxterError
from .groups import (
    AbelianDecomposition,
    FiniteGroup,
    GroupMap,
    abelian_decomposition,
    center_group,
    group_violations,
    is_group_homomorphism,
    _cayley_tree,
)
from .postgroup import (
    PostGroup,
    check_rb_group,
    induced_triangle,
    innerness_witness_group,
    sub_adjacent_group,
    sub_adjacent_table,
)
from .scalars import _diagonalize


@dataclass(frozen=True)
class GroupTwoCocycle:
    """A normalized 2-cochain on element indices with central values.

    ``value_group`` supplies the multiplication for the values; the domain
    group (the sub-adjacent group) is passed to the verification and solving
    operations separately.
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


class GroupRbReconstruction(NamedTuple):
    operator: GroupMap
    witness: GroupMap
    cocycle: GroupTwoCocycle
    correction: GroupMap


def obstruction_cocycle_group(pg: PostGroup, witness: GroupMap) -> GroupTwoCocycle:
    """The defect table of a normalized witness; rejects invalid witnesses."""
    g = pg.base
    if witness.size != g.order:
        raise ValueError("witness size does not match the group order")
    if witness(g.identity) != g.identity:
        raise ValueError("witness is not normalized at the identity")
    if induced_triangle(g, witness) != pg.triangle:
        raise ValueError("supplied map is not an innerness witness")
    return _defect_group(pg, witness, sub_adjacent_group(pg))


def _defect_group(
    pg: PostGroup, witness: GroupMap, sub: FiniteGroup
) -> GroupTwoCocycle:
    """``obstruction_cocycle_group`` on the sub-adjacent group ``sub`` of
    ``pg``, for a witness known to be normalized and to induce the product."""
    g = pg.base
    table, images = g.table, witness.images
    inverses = [g.inverse[x] for x in images]  # F(b)^-1, once per b
    columns = tuple(zip(*table))  # columns[y][x] = x y
    values = []
    for fa_inv, sub_row in zip(inverses, sub.table):
        # Row a: b -> (F(b)^-1 F(a)^-1) F(a o b).
        left_rows = map(table.__getitem__, map(columns[fa_inv].__getitem__, inverses))
        values.append(tuple(map(getitem, left_rows, map(images.__getitem__, sub_row))))
    return GroupTwoCocycle(
        g, tuple(values), abelian_decomposition(g, center_group(g))
    )


def verify_group_2cocycle(cocycle: GroupTwoCocycle, domain: FiniteGroup) -> bool:
    """w(b,c) w(a, b o c) = w(a,b) w(a o b, c) over all triples, where o is
    the product of ``domain``.

    When ``domain`` is a group (``FiniteGroup.is_group``) and the values lie
    in a group where they commute, only c in S = ``domain.generators`` is
    tested, n^2 |S| steps instead of n^3.  Write the values additively and
    let dw(a,b,c) be w(b,c) + w(a, b o c) - w(a,b) - w(a o b, c).  Every
    cochain satisfies ddw = 0:
    dw(a,b,c o d) = dw(b,c,d) - dw(a o b,c,d) + dw(a,b o c,d) + dw(a,b,c).
    So if dw vanishes at c and at d for all a, b, it vanishes at c o d; the
    c tested are closed under o, and in a finite group the products of
    generators are all elements.  Any other input is tested at every c.
    """
    if domain.order != cocycle.order:
        raise ValueError("domain group order mismatch")
    value_group = cocycle.value_group
    product = value_group.table
    values = {x for row in cocycle.values for x in row}
    tested = range(domain.order)
    if (
        domain.is_group
        and value_group.is_group
        and all(product[x][y] == product[y][x] for x in values for y in values)
    ):
        tested = domain.generators
    return _cocycle_identity_holds_at(cocycle, domain, tested)


def _cocycle_identity_holds_at(
    cocycle: GroupTwoCocycle, domain: FiniteGroup, tested: Iterable[int]
) -> bool:
    """The cocycle identity at every a, b and every c in ``tested``."""
    composition = domain.table
    value_row = cocycle.value_group.table.__getitem__
    w = cocycle.values
    row_getters = [itemgetter(*row) for row in composition]
    for c in tested:
        w_c = tuple(row[c] for row in w)  # w(b, c) for every b
        w_c_rows = list(map(value_row, w_c))
        at_composed_c = itemgetter(*(row[c] for row in composition))  # b -> b o c
        # Row a of each side: b -> w(b,c) w(a, b o c) and b -> w(a,b) w(a o b, c).
        for w_a, get in zip(w, row_getters):
            if list(map(getitem, w_c_rows, at_composed_c(w_a))) != list(
                map(getitem, map(value_row, w_a), get(w_c))
            ):
                return False
    return True


def coboundary_solve_group(
    cocycle: GroupTwoCocycle, domain: FiniteGroup
) -> GroupMap | None:
    """Find central z with z(e) = e and w(a,b) = z(a) z(b) z(a o b)^-1, where
    o is the product of ``domain``; the canonical such z, defined below.

    Returns None exactly when the class is nonzero.  ``cocycle`` must satisfy
    the cocycle identity for ``domain`` (``verify_group_2cocycle``), which is
    tested first; any other cochain raises ValueError.

    Write the center additively, so the equations read
    z(a o b) = z(a) + z(b) - w(a,b).  Only the pairs (a, s) with s in a
    generating set S of the group (``domain.generators``) are needed: put
    f = w - dz, a normalized 2-cocycle.  If f(a, s) = 0 for every a and every
    s in S, the cocycle identity f(b, c) + f(a, b o c) = f(a, b) + f(a o b, c)
    at c = s gives f(a, b o s) = f(a, b).  Every element is a product of
    generators and f(a, e) = 0, so f vanishes everywhere.

    The pairs (a, s) are the edges a -> a o s of the Cayley graph of S.  A
    breadth-first tree from e (``_cayley_tree``) solves its own edges: along
    them z(a o s) = z(a) + x_s - w(a, s), so z(a) = k_a . x + c_a, where x
    holds the unknowns x_s = z(s), k_a counts the generators on the tree path
    to a and c_a sums the cocycle values along it.  Each of the n |S| - n + 1
    edges off the tree, b = a o s, leaves one congruence with |S| columns,
    (k_a + e_s - k_b) . x = c_b - c_a + w(a, s).  A row that repeats an
    earlier one up to sign is decided by its right-hand side alone; the
    distinct rows take one Smith normal form, shared by the invariant
    factors of the center (each factor's coordinates are one right-hand
    side).  A zero row is one of them: u @ rows @ v = d, u unimodular, has
    the solutions of the rows, so ``_diagonalize`` refutes 0 = nonzero.

    The solutions form a coset of Hom(G o, Z(G)), so z is not unique when
    that group is nonzero.  The canonical z has the lexicographically least
    image tuple (z(0), ..., z(n-1)) by element index.  Two solutions differ
    by a homomorphism, and each element outside S lies in the subgroup
    generated by the generators before it (``generating_set``), so they
    first differ at a generator: z is fixed generator by generator.  The
    homomorphisms that still fit the values chosen so far take, at s_j, the
    values of a subgroup of the center, read per invariant factor off the
    kernel of the diagonal system.  z(s_j) is the least element of its coset
    of that subgroup; when the subgroup is nontrivial, x_j = z(s_j) is
    fixed (the tree reaches s_j from e along s_j: k = e_j,
    c = -w(e, s_j) = 0).  The diagonal system in y, D_i y_i = D_i least_i
    for each D_i != 0, has the solutions of the relations, so it takes
    their place: with the row x_j = (transform row j) . y and right-hand
    side z(s_j) it is diagonalized again, at most |S| + 1 rows, and the new
    transform is composed onto the old one.  Each choice is read off the
    solution set of the relations, not off the unknowns y a Smith normal
    form picks, so it is the same however the system is presented.  The
    walk stops when no homomorphism is left.
    """
    if not verify_group_2cocycle(cocycle, domain):
        raise ValueError("cochain is not a 2-cocycle for this domain group")
    g = cocycle.value_group
    n = cocycle.order
    e = g.identity
    center = cocycle.center
    factors = center.invariant_factors
    if not factors:
        if all(x == e for row in cocycle.values for x in row):
            return GroupMap.constant(n, e)
        return None

    composition = domain.table
    generators = domain.generators
    width = len(generators)
    coords = center.coords
    paths, edges = _cayley_tree(composition, generators, e)
    sums = [(0,) * len(factors)] * n  # c_a, reduced per factor
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    for a, j, b, row in edges:
        # z(a o s) read through the edge (a, s): k_a . x + x_s + c_via.
        w_as = coords[cocycle.values[a][generators[j]]]
        c_via = tuple((x - y) % d for x, y, d in zip(sums[a], w_as, factors))
        if row is None:  # the tree edge into b
            sums[b] = c_via
            continue
        rhs = tuple((x - y) % d for x, y, d in zip(sums[b], c_via, factors))
        signed = max(row, tuple(-p for p in row))  # the row up to sign
        if signed != row:
            row, rhs = signed, tuple(-x % d for x, d in zip(rhs, factors))
        if rows.setdefault(row, rhs) != rhs:
            return None

    columns = [[rhs[k] for rhs in rows.values()] for k in range(len(factors))]
    system = _diagonalize(list(rows), columns, factors, width)
    if system is None:
        return None
    diagonal, least, transform = system
    for j in range(width):
        if all(gcd(di, d) == 1 for d in factors for di in diagonal):
            break  # no homomorphism is left
        x_j = transform.entries[j]  # x_j = z(s_j) in the unknowns y
        cosets = []  # per factor: z(s_j) is ``residue`` mod ``step``
        for d, y in zip(factors, least):
            # The homomorphisms left take the multiples of ``step`` at s_j.
            step = gcd(d, *(p * (d // gcd(di, d)) for p, di in zip(x_j, diagonal)))
            value = sum(p * y_i for p, y_i in zip(x_j, y))
            cosets.append((step, value % step))
        if all(step == d for (step, _), d in zip(cosets, factors)):
            continue
        chosen = min(
            z
            for z in center.elements
            if all(c % step == r for c, (step, r) in zip(coords[z], cosets))
        )
        # The diagonal system in y, D_i y_i = D_i least_i, and x_j = z(s_j).
        kept = [i for i, di in enumerate(diagonal) if di]
        relations = [[diagonal[i] * (i == k) for k in range(width)] for i in kept] + [x_j]
        columns = [
            [diagonal[i] * y[i] for i in kept] + [c] for y, c in zip(least, coords[chosen])
        ]
        system = _diagonalize(relations, columns, factors, width)
        if system is None:
            raise AssertionError("least coset element does not fit the system")
        diagonal, least, step_transform = system
        transform = transform @ step_transform

    solutions = [transform.apply(y) for y in least]
    images = [
        center.from_coords(
            tuple(
                c + sum(p * x for p, x in zip(k_a, solution))
                for c, solution in zip(c_a, solutions)
            )
        )
        for k_a, c_a in zip(paths, sums)
    ]
    return GroupMap(tuple(images))


def construct_rb_from_obstruction_group(pg: PostGroup) -> GroupRbReconstruction:
    """Witness, defect cocycle, congruence solve, operator B(a) = F(a) z(a).

    Assumes the post-group axioms hold (callers validate).  Raises
    NotInnerError when some left multiplication is not a conjugation and
    NontrivialObstructionError when the class is nonzero.  The defect of the
    canonical witness is a 2-cocycle by the theorem; the solve tests the
    cocycle identity once, and a reconstructed operator is checked against
    the product and the Rota-Baxter identity before it is returned.
    """
    witness = innerness_witness_group(pg)
    if witness is None:
        raise NotInnerError("left multiplications are not all inner automorphisms")
    sub = sub_adjacent_group(pg)
    cocycle = _defect_group(pg, witness, sub)
    correction = coboundary_solve_group(cocycle, sub)
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
    if not check_rb_group(g, operator):
        raise AssertionError("reconstructed map fails the group Rota-Baxter identity")
    return GroupRbReconstruction(operator, witness, cocycle, correction)


def pullback_group(pg: PostGroup) -> FiniteGroup:
    """The subgroup of sub-adjacent x base pairs (a, b) with Ad_b = a > (.).

    Assumes ``pg.base`` is a group (callers validate).  The pairs are a
    finite subset of the group G o x G closed under the product, hence a
    subgroup, and the b with Ad_b = a > (.) form one coset of Z(G): its
    order is |G| times |Z(G)|.  Rejects non-inner input.
    """
    g = pg.base
    n = g.order
    sub = sub_adjacent_group(pg)
    conj_index: dict[tuple[int, ...], list[int]] = {}
    for c, row in enumerate(g.conjugation):
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
    return FiniteGroup.from_table(tuple(table), names=names)


def rb_difference_cocycle_group(
    group: FiniteGroup, first: GroupMap, second: GroupMap
) -> GroupMap | None:
    """z(a) = B1(a)^-1 B2(a) when both operators induce the same product.

    Returns None when the induced products differ.  Raises
    NotRotaBaxterError, naming the first map that fails the Rota-Baxter
    identity.

    z is central and multiplicative for the sub-adjacent law by a theorem,
    so it is not checked.  Equal triangles say B1(a) b B1(a)^-1 = B2(a) b B2(a)^-1
    for all b, so z(a) is central.  Both operators are then homomorphisms
    from the same sub-adjacent group, and with z central
    z(a o b) = B1(b)^-1 B1(a)^-1 B2(a) B2(b) = B1(b)^-1 z(a) B2(b) = z(a) z(b).
    """
    for name, operator in (("first", first), ("second", second)):
        if not check_rb_group(group, operator):
            raise NotRotaBaxterError(f"{name} map fails the group Rota-Baxter identity")
    if induced_triangle(group, first) != induced_triangle(group, second):
        return None
    return GroupMap(
        tuple(group.mul(group.inv(first(a)), second(a)) for a in range(group.order))
    )


def group_tower_certificates(
    group: FiniteGroup, operator: GroupMap, depth: int
) -> list[FiniteGroup]:
    """The iterated sub-adjacent groups a o' b = a o (B(a) o b o B(a)^-1).

    Hard checks at every level: group axioms, the Rota-Baxter identity for
    the fixed operator, and that the operator and the tilde map
    a -> a o_(i-1) B(a) are homomorphisms one level down.  Each raises on
    failure, so returning the levels is the certificate.  The operator is a
    homomorphism from the next level exactly when it is Rota-Baxter on this
    one, so ``check_rb_group`` on every level covers both.
    """
    if depth < 0:
        raise ValueError("tower depth must be nonnegative")
    if not check_rb_group(group, operator):
        raise NotRotaBaxterError("map fails the group Rota-Baxter identity")
    levels = [group]
    for i in range(depth):
        current = levels[-1]
        table = sub_adjacent_table(current, induced_triangle(current, operator))
        nxt = FiniteGroup.from_table(table, names=group.names)
        problems = group_violations(nxt, limit=1)
        if problems:
            raise AssertionError(f"tower level {i + 1} is not a group: {problems[0]}")
        if not check_rb_group(nxt, operator):
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
