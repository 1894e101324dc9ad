"""Post-groups on finite groups, and Rota-Baxter operators on groups.

The induced product a > b = B(a) b B(a)^-1 (conjugation rows indexed by B)
and the sub-adjacent table a o b = a (a > b) are built here once and shared:
B is Rota-Baxter exactly when it is a homomorphism (G, o) -> G.

The enumeration of all Rota-Baxter maps does an incremental depth-first
search: whenever B(a) and B(b) are known, the defining identity forces
B(a * B(a) b B(a)^-1) = B(a)B(b), which is propagated to a fixpoint before
branching.  That prunes |G|^|G| down to a tiny tree at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import NotRotaBaxterError
from .groups import (
    FiniteGroup,
    GroupMap,
    _differing_entries,
    group_violations,
    is_group_homomorphism,
)


@dataclass(frozen=True)
class PostGroup:
    base: FiniteGroup
    triangle: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.base.order
        if len(self.triangle) != n or any(len(r) != n for r in self.triangle):
            raise ValueError("triangle table shape does not match the group")
        for row in self.triangle:
            for x in row:
                if not (0 <= x < n):
                    raise ValueError("triangle table entry out of range")

    @property
    def order(self) -> int:
        return self.base.order

    @staticmethod
    def from_table(base: FiniteGroup, table: Sequence[Sequence[int]]) -> "PostGroup":
        return PostGroup(base, tuple(tuple(int(x) for x in row) for row in table))


@dataclass(frozen=True)
class PostGroupReport:
    non_bijective: tuple[int, ...]
    automorphism_failures: tuple[tuple[int, int, int], ...]
    weighted_failures: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not (
            self.non_bijective or self.automorphism_failures or self.weighted_failures
        )


def check_postgroup_axioms(pg: PostGroup) -> PostGroupReport:
    """Each left multiplication must be a group automorphism and the
    weighted associativity (a(a>b)) > c = a > (b>c) must hold.

    On a group base both conditions need only c in a generating set S of the
    base (Bai-Guo-Sheng-Tang, Post-groups, (Lie-)Butcher groups and the
    Yang-Baxter equation, Math. Ann. 2023, where the axioms are endomorphism
    conditions), n^2 |S| steps instead of n^3:

    * for each a, the c with L_a(b c) = L_a(b) L_a(c) for all b are closed
      under the product: L_a(b c d) = L_a(b c) L_a(d) = L_a(b) L_a(c) L_a(d);
    * once every L_a is an endomorphism, so are L_(a o b) and L_a L_b, and
      the c on which two endomorphisms agree are closed under the product.

    In a finite group the products of generators are all elements.  When
    both tests pass, the report lists only the non-bijective rows; on a
    failure or a base that is not a group, both identities are tested at
    every c and every failing triple is reported in lexicographic order.
    """
    g = pg.base
    n = g.order
    non_bijective = tuple(
        a for a, row in enumerate(pg.triangle) if sorted(row) != list(range(n))
    )
    if g.is_group:
        generators = g.generators
        failures = chain(
            _automorphism_failures(pg, generators), _weighted_failures(pg, generators)
        )
        if next(failures, None) is None:
            return PostGroupReport(non_bijective, (), ())
    elements = range(n)
    return PostGroupReport(
        non_bijective,
        tuple(sorted(_automorphism_failures(pg, elements))),
        tuple(sorted(_weighted_failures(pg, elements))),
    )


def _automorphism_failures(
    pg: PostGroup, tested: Iterable[int]
) -> Iterator[tuple[int, int, int]]:
    """The triples (a, b, c), c in ``tested``, with L_a(b c) != L_a(b) L_a(c)."""
    triangle = pg.triangle
    columns = tuple(zip(*pg.base.table))  # columns[c][b] = b c
    row_getters = [itemgetter(*row) for row in triangle]
    for c in tested:
        # Row a of each side: b -> L_a(b c) and b -> L_a(b) L_a(c).
        left = list(map(itemgetter(*columns[c]), triangle))
        right = [get(columns[row[c]]) for get, row in zip(row_getters, triangle)]
        if left != right:
            yield from ((a, b, c) for a, b in _differing_entries(left, right))


def _weighted_failures(
    pg: PostGroup, tested: Iterable[int]
) -> Iterator[tuple[int, int, int]]:
    """The triples (a, b, c), c in ``tested``, with (a o b) > c != a > (b > c)."""
    triangle = pg.triangle
    sub_getters = [itemgetter(*row) for row in sub_adjacent_table(pg.base, triangle)]
    for c in tested:
        column = tuple(row[c] for row in triangle)  # b > c for every b
        # Row a of each side: b -> (a o b) > c and b -> a > (b > c).
        left = [get(column) for get in sub_getters]
        right = list(map(itemgetter(*column), triangle))
        if left != right:
            yield from ((a, b, c) for a, b in _differing_entries(left, right))


def sub_adjacent_group(pg: PostGroup) -> FiniteGroup:
    """The group a o b = a (a > b); valid input always yields a group."""
    g = pg.base
    table = sub_adjacent_table(g, pg.triangle)
    result = FiniteGroup.from_table(table, names=g.names)
    problems = group_violations(result, limit=1)
    if problems:
        raise ValueError(f"sub-adjacent table is not a group: {problems[0]}")
    return result


def induced_triangle(group: FiniteGroup, operator: GroupMap) -> tuple[tuple[int, ...], ...]:
    """The table of a > b = B(a) b B(a)^-1: row a is the conjugation row of B(a)."""
    if operator.size != group.order:
        raise ValueError("operator size does not match the group order")
    rows = group.conjugation
    return tuple(rows[image] for image in operator.images)


def sub_adjacent_table(
    group: FiniteGroup, triangle: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """The table of a o b = a (a > b) for the product table ``triangle``."""
    table = group.table
    return tuple(tuple(map(table[a].__getitem__, row)) for a, row in enumerate(triangle))


def check_rb_group(group: FiniteGroup, operator: GroupMap) -> bool:
    """B(a) B(b) = B(a * B(a) b B(a)^-1) on all pairs: B is a homomorphism
    from the sub-adjacent table of its induced product to the group."""
    table = sub_adjacent_table(group, induced_triangle(group, operator))
    return is_group_homomorphism(operator, table, group)


def from_rb_group(group: FiniteGroup, operator: GroupMap) -> PostGroup:
    """The induced product a > b = B(a) b B(a)^-1; rejects non-Rota-Baxter maps."""
    triangle = induced_triangle(group, operator)
    if not is_group_homomorphism(operator, sub_adjacent_table(group, triangle), group):
        raise NotRotaBaxterError("map fails the group Rota-Baxter identity")
    return PostGroup(group, triangle)


def innerness_witness_group(pg: PostGroup) -> GroupMap | None:
    """Smallest-index conjugator per element, renormalized to fix the identity.

    Assumes the post-group axioms hold.  Returns None as soon as one left
    multiplication is not conjugation by anything.
    """
    g = pg.base
    by_conjugation: dict[tuple[int, ...], int] = {}
    for c, row in enumerate(g.conjugation):
        by_conjugation.setdefault(row, c)
    raw = []
    for row in pg.triangle:
        c = by_conjugation.get(tuple(row))
        if c is None:
            return None
        raw.append(c)
    # The witness at the identity is central, so dividing it out stays in
    # each conjugator coset while pinning the normalization.
    shift = g.inv(raw[g.identity])
    return GroupMap(tuple(g.mul(c, shift) for c in raw))


def enumerate_rb_operators(group: FiniteGroup, cap: int = 8**8) -> list[GroupMap]:
    """All Rota-Baxter maps on the group, in deterministic search order.

    Refuses when the raw search space |G|^|G| exceeds ``cap``; the actual
    search is incremental with constraint propagation, so the bound is a
    guard, not a cost estimate.
    """
    n = group.order
    if n**n > cap:
        raise ValueError(
            f"search space {n}^{n} exceeds the cap {cap}; raise it explicitly"
        )
    table = group.table
    conj = group.conjugation
    images: list[int | None] = [None] * n
    assigned: list[int] = []  # the elements with an image, in assignment order
    results: list[GroupMap] = []

    def propagate(seed: int) -> bool:
        """Close the partial map under the defining identity; False on clash.

        The closure is the least fixpoint of the forcing rule, so a clash is
        reached in every order of propagation or in none.
        """
        queue = [seed]
        while queue:
            x = queue.pop()
            bx = images[x]
            assert bx is not None
            row_x, conj_bx, row_bx = table[x], conj[bx], table[bx]
            for k in range(len(assigned)):
                y = assigned[k]
                by = images[y]
                for target, value in (
                    (row_x[conj_bx[y]], row_bx[by]),
                    (table[y][conj[by][x]], table[by][bx]),
                ):
                    seen = images[target]
                    if seen is None:
                        images[target] = value
                        assigned.append(target)
                        queue.append(target)
                    elif seen != value:
                        return False
        return True

    def extend() -> None:
        free = next((a for a in range(n) if images[a] is None), None)
        if free is None:
            candidate = GroupMap(tuple(images))  # type: ignore[arg-type]
            if not check_rb_group(group, candidate):
                raise AssertionError("propagation admitted a non-Rota-Baxter map")
            results.append(candidate)
            return
        depth = len(assigned)
        for value in range(n):
            images[free] = value
            assigned.append(free)
            if propagate(free):
                extend()
            for touched in assigned[depth:]:
                images[touched] = None
            del assigned[depth:]

    extend()
    return results
