"""Post-groups on finite groups, and Rota-Baxter operators on groups.

The induced product a > b = B(a) b B(a)^-1 (conjugation rows indexed by B)
and the sub-adjacent table a o b = a (a > b) are built here once and shared:
B is Rota-Baxter exactly when it is a homomorphism (G, o) -> G.

Equivalently, B is Rota-Baxter exactly when its graph
H_B = {h_x = (B(x), x B(x))} is a subgroup of G x G (Guo-Lang-Sheng, Adv.
Math. 387, 2021; Bardakov-Gubarev, J. Algebra 596, 2022): h_x h_y is
(B(x) B(y), x B(x) y B(y)), which is h_(x o y) exactly when
B(x o y) = B(x) B(y).  ``check_rb_group`` decides the identity on the
generators it picks while it walks, n |T| steps for a Rota-Baxter map, and
the enumeration of all Rota-Baxter maps closes each branch on its chosen
generators Dimino-style, n |T| products for |T| <= log2 n generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from operator import index, itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import NotRotaBaxterError
from .groups import (
    FiniteGroup,
    GroupMap,
    _differing_entries,
    group_violations,
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
        return PostGroup(base, tuple(tuple(map(index, row)) for row in table))


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
    from the sub-adjacent table of its induced product to the group, which
    must be a group (``check_group``).

    Walks the right o-products x o t = x B(x) t B(x)^-1 from the identity,
    checking B(x o t) = B(x) B(t) at every step, and picks the generator
    list T Dimino-style: when the walk stalls, the least unreached t joins
    T, every element reached so far is multiplied by t, and each newly
    reached element by every generator in T.  Accepts when B(e) = e and
    every step passes.

    Soundness, in G x G with H = {h_x = (B(x), x B(x))}: the check at
    (x, t) says h_x h_t = h_(x o t), since both are
    (B(x) B(t), x B(x) t B(t)).  Let Y = {y : H h_y is in H}.
    * Y is closed under o: for y, z in Y, h_y h_z lies in H, say h_w, and
      comparing coordinates gives B(w) = B(y) B(z) and then w = y o z; so
      H h_(y o z) = (H h_y) h_z is in H h_z, inside H.  This uses only the
      associativity of G x G and nothing about B.
    * e is in Y, as h_e = (e, e) when B(e) = e.
    * T is in Y: at the end h_x h_t is in H for all x and each t in T.
    Every element is e, a generator, or x o t for a t in T and an element x
    reached before it, so every element lies in Y; that is H H in H, which is
    B(y o z) = B(y) B(z) for all y, z.  Conversely, for a Rota-Baxter B
    every step passes, and T is the greedy generating set (``generating_set``)
    of the group (G, o), |T| <= log2 n.
    """
    n = group.order
    if operator.size != n:
        raise ValueError("operator size does not match the group order")
    if n == 0:  # an empty table (only non-strict construction builds one)
        return True
    table, conj, e = group.table, group.conjugation, group.identity
    images = operator.images
    if images[e] != e:
        return False
    steps: list[tuple[int, int]] = []  # (t, B(t)) for t in T
    reached = [False] * n
    reached[e] = True
    walk = [e]
    for t in range(n):
        if reached[t]:
            continue
        bt = images[t]
        old = len(walk)
        for x in walk[:old]:  # the old elements times t
            bx = images[x]
            y = table[x][conj[bx][t]]
            if images[y] != table[bx][bt]:
                return False
            if not reached[y]:
                reached[y] = True
                walk.append(y)
        steps.append((t, bt))
        for x in islice(walk, old, None):  # the new ones times every generator
            bx = images[x]
            row_x, conj_bx, row_bx = table[x], conj[bx], table[bx]
            for s, bs in steps:
                y = row_x[conj_bx[s]]
                if images[y] != row_bx[bs]:
                    return False
                if not reached[y]:
                    reached[y] = True
                    walk.append(y)
    return True


def from_rb_group(group: FiniteGroup, operator: GroupMap) -> PostGroup:
    """The induced product a > b = B(a) b B(a)^-1; rejects non-Rota-Baxter maps."""
    if not check_rb_group(group, operator):
        raise NotRotaBaxterError("map fails the group Rota-Baxter identity")
    return PostGroup(group, induced_triangle(group, operator))


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


def tilde_operator(group: FiniteGroup, operator: GroupMap) -> GroupMap:
    """B~(a) = a^-1 B(a^-1), Rota-Baxter of weight 1 whenever B is
    (Guo-Lang-Sheng 2021); B~~ = B."""
    table, images = group.table, operator.images
    return GroupMap(tuple(table[b][images[b]] for b in group.inverse))


def assert_tilde_closed(group: FiniteGroup, operators: Iterable[GroupMap]) -> None:
    """Raise AssertionError unless B -> B~ maps the set of operators into
    itself: a complete enumeration is closed, so a gap means operators were
    dropped, which no per-operator check can see."""
    found = {op.images for op in operators}
    for images in found:
        tilde = tilde_operator(group, GroupMap(images)).images
        if tilde not in found:
            raise AssertionError(
                f"enumeration is not closed under B -> B~: {tilde} is missing"
            )


def enumerate_rb_operators(group: FiniteGroup, cap: int = 8**8) -> list[GroupMap]:
    """All Rota-Baxter maps on the group, in lexicographic order of their
    image tuples.  The table must be a group (``check_group``; the CLI
    checks it on parsing): the pruning, the leaf check and the B -> B~
    self-check all rest on the group axioms.

    Refuses when the raw search space |G|^|G| exceeds ``cap``; the actual
    search is incremental with constraint propagation, so the bound is a
    guard, not a cost estimate.

    The search keeps a partial map K whose graph {h_x = (B(x), x B(x))} is a
    subgroup of G x G, starting from B(e) = e (forced: x = y = e gives
    B(e)^2 = B(e)).  At each node it branches on the smallest free element t
    and each value B(t) in turn, and appends t to the generator list T.  The
    forcing rule B(x o y) = B(x) B(y) is multiplication in G x G
    (h_x h_y = h_(x o y); see ``check_rb_group``), so the map
    that a branch forces is the subgroup generated by the graph of T.  It is
    closed Dimino-style: every old element times the new generator, then
    every newly forced element times every generator in T.  The result
    contains e and is closed under right products with T, so it is the
    whole subgroup; a clash (one x forced to two values) means that subgroup
    is no graph, and prunes.  Propagating over all pairs reaches the same
    subgroup, so the results and their order are those of the pairwise
    fixpoint.

    The old elements times t give x o t = x B(x) t B(x)^-1, which does not
    depend on B(t), with values B(x) B(t); so this coset is computed once
    per node.  When it meets K or repeats an element, every value of B(t)
    clashes and the node is dropped: a consistent x o t = y in K would give
    h_t = h_x^-1 h_y in the graph of K, so t in K; and x o t = x' o t with
    B(x) B(t) = B(x') B(t) forces B(x) = B(x') and then x = x'.  So each
    successful branch at least doubles |K|, |T| <= log2 n, and T at a leaf
    is the greedy generating set (``generating_set``) of the sub-adjacent
    group of the operator.

    Branching on the smallest free element in ascending value order yields
    the leaves in lexicographic order.  Each leaf is verified from its image
    tuple (``check_rb_group``, whose walk picks the same T in n |T| steps),
    and the finished set is checked to be closed under B -> B~
    (``assert_tilde_closed``).
    """
    n = group.order
    if n**n > cap:
        raise ValueError(
            f"search space {n}^{n} exceeds the cap {cap}; raise it explicitly"
        )
    if n == 0:  # an empty table (only non-strict construction builds one)
        return [GroupMap(())]
    table = group.table
    conj = group.conjugation
    e = group.identity
    images: list[int | None] = [None] * n
    images[e] = e
    assigned: list[int] = [e]  # the elements with an image, in assignment order
    generators: list[int] = []  # T: the elements chosen at branch points
    results: list[GroupMap] = []

    def close(depth: int) -> bool:
        """Multiply every element assigned from ``depth`` on by every
        generator in T, reading them while they are appended; False on a
        clash."""
        steps = [(s, images[s]) for s in generators]
        for x in islice(assigned, depth, None):
            bx = images[x]
            row_x, conj_bx, row_bx = table[x], conj[bx], table[bx]
            for s, bs in steps:
                target = row_x[conj_bx[s]]
                seen = images[target]
                if seen is None:
                    images[target] = row_bx[bs]
                    assigned.append(target)
                elif seen != row_bx[bs]:
                    return False
        return True

    def extend(start: int) -> None:
        free = next((a for a in range(start, n) if images[a] is None), None)
        if free is None:
            candidate = GroupMap(tuple(images))  # type: ignore[arg-type]
            if not check_rb_group(group, candidate):
                raise AssertionError("propagation admitted a non-Rota-Baxter map")
            results.append(candidate)
            return
        depth = len(assigned)
        # x o t for the old x, whatever B(t) is; B(x o t) = B(x) B(t) below.
        coset = [table[x][conj[images[x]][free]] for x in assigned]
        if len(set(coset)) < depth or any(images[y] is not None for y in coset):
            return
        old_images = [images[x] for x in assigned]
        generators.append(free)
        for value in range(n):
            for y, bx in zip(coset, old_images):
                images[y] = table[bx][value]
            assigned.extend(coset)
            if close(depth):
                extend(free + 1)
            for touched in assigned[depth:]:
                images[touched] = None
            del assigned[depth:]
        generators.pop()

    extend(0)
    assert_tilde_closed(group, results)
    return results
