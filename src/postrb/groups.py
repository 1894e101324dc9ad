"""Finite groups as Cayley tables with 0-based element indices.

Desk scale throughout (order <= ~64): exhaustive scans are the norm and all
results are deterministic in the input element order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from math import prod
from operator import index, itemgetter
from typing import Iterable, Iterator, Sequence

from .scalars import _diagonalize


@dataclass(frozen=True)
class FiniteGroup:
    """A Cayley table.  ``generators``, ``conjugation`` and ``is_group`` are
    derived from it on first use and kept; equality, hash and repr are those
    of the fields."""

    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.table)
        for row in self.table:
            if len(row) != n:
                raise ValueError("Cayley table is not square")
            for x in row:
                if not (0 <= x < n):
                    raise ValueError("Cayley table entry out of range")
        # The empty table that ``from_table(strict=False)`` builds keeps
        # identity 0.
        if not (0 <= self.identity < max(n, 1)):
            raise ValueError("identity element out of range")
        if len(self.inverse) != n:
            raise ValueError("inverse table length does not match the order")
        if not all(0 <= x < n for x in self.inverse):
            raise ValueError("inverse table entry out of range")
        if self.names is not None and len(self.names) != n:
            raise ValueError("name list length does not match the order")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugate(self, c: int, b: int) -> int:
        return self.table[self.table[c][b]][self.inverse[c]]

    def name_of(self, a: int) -> str:
        return self.names[a] if self.names is not None else str(a)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """``generating_set`` of the table from ``identity``."""
        return generating_set(self.table, self.identity)

    @cached_property
    def conjugation(self) -> tuple[tuple[int, ...], ...]:
        """Row c holds c b c^-1 for each b: the table of every Ad_c at once."""
        columns = tuple(zip(*self.table))  # columns[d][x] = x d
        pairs = zip(self.table, self.inverse)
        return tuple(tuple(map(columns[d].__getitem__, row)) for row, d in pairs)

    @cached_property
    def is_group(self) -> bool:
        """True when the table is a group with identity ``identity``, in
        n^2 |S| steps.

        Checks that ``identity`` is a two-sided identity, then associativity
        by Light's test (Clifford-Preston, The Algebraic Theory of Semigroups
        I, 1961, 1.2): (x s) y = x (s y) for s in S = ``generators`` and all
        x, y.  The elements s passing it contain the identity and are closed
        under the product: for passing s, t,
        (x (s t)) y = ((x s) t) y = (x s)(t y) = x (s (t y)) = x ((s t) y).
        The greedy closure reaches every element as a product ((e s1) s2)...
        of generators, so all of them pass.  An associative table with an
        identity in every row is a monoid where every element has a right
        inverse, which is a group.  ``inverse`` is not read.
        """
        rows, e = self.table, self.identity
        elements = tuple(range(len(rows)))
        if tuple(map(itemgetter(e), rows)) != elements or (
            rows and rows[e] != elements
        ):
            return False
        failures = _associativity_failures(rows, self.generators, elements)
        return next(failures, None) is None and all(e in row for row in rows)

    @staticmethod
    def from_table(
        table: Sequence[Sequence[int]],
        names: Sequence[str] | None = None,
        strict: bool = True,
    ) -> "FiniteGroup":
        """Build from a Cayley table, deriving identity and inverses.

        The identity is the first element whose row and column are the
        identity map.  With ``strict=False`` a missing identity or inverse
        falls back to element 0 / the element itself so that the axiom
        checker can report the violation instead of construction failing.
        """
        cooked = tuple(tuple(map(index, row)) for row in table)
        elements = tuple(range(len(cooked)))
        for identity, row in enumerate(cooked):
            if row == elements and tuple(map(itemgetter(identity), cooked)) == elements:
                break
        else:
            if strict:
                raise ValueError("table has no identity element")
            identity = 0
        inverse = []
        for a, row in enumerate(cooked):
            # The first b with a b = e is the answer when also b a = e;
            # otherwise scan for the first two-sided inverse.
            inv = row.index(identity) if identity in row else None
            if inv is None or cooked[inv][a] != identity:
                inv = next(
                    (b for b in elements if row[b] == identity == cooked[b][a]), None
                )
            if inv is None:
                if strict:
                    raise ValueError(f"element {a} has no inverse")
                inv = a
            inverse.append(inv)
        return FiniteGroup(
            cooked,
            identity,
            tuple(inverse),
            tuple(str(s) for s in names) if names is not None else None,
        )


@dataclass(frozen=True)
class GroupMap:
    """A total map from element indices to element indices of the same group
    (not assumed to be a homomorphism)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        for image in self.images:
            if not 0 <= image < n:
                raise ValueError(f"image {image} outside the elements 0..{n - 1}")

    def __call__(self, a: int) -> int:
        return self.images[a]

    @property
    def size(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> "GroupMap":
        return GroupMap(tuple(range(n)))

    @staticmethod
    def constant(n: int, value: int) -> "GroupMap":
        return GroupMap((value,) * n)


def generating_set(
    composition: Sequence[Sequence[int]], identity: int
) -> tuple[int, ...]:
    """Greedy generators of the group with Cayley table ``composition``.

    Scans the elements in index order and keeps each one that lies outside
    the subgroup generated by those kept so far.  Each kept element at least
    doubles that subgroup, whose order divides n, so at most log2 n are kept.
    Every other element lies in the subgroup generated by the kept ones
    smaller than it; ``coboundary_solve_group`` relies on this.
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


_Path = tuple[int, ...]


def _cayley_tree(
    table: Sequence[Sequence[int]], generators: Sequence[int], identity: int
) -> tuple[list[_Path | None], list[tuple[int, int, int, _Path | None]]]:
    """A breadth-first spanning tree, from ``identity``, of the Cayley graph
    whose edges a -> b = a s_j are the right products by s_j =
    ``generators[j]``.

    Returns the path vector k_a of each element a (k_a[j] counts the steps
    along s_j on the tree path from the identity to a; None when a is not
    reached) and every edge (a, j, b, row) in walk order.  A tree edge, the
    first edge into some b other than the identity, has row None, as
    k_b = k_a + e_j there; an edge off the tree carries its relation row
    k_a + e_j - k_b.

    When the group is abelian, the rows present it: it is Z^S modulo the
    span of the rows, by x -> the sum of x_j s_j written additively.  Every
    row is a closed walk (the tree path to a, the edge, the tree path back
    from b), so it maps to zero.  Conversely, read x as a word of steps
    along the s_j and their inverses, in any order, and follow it from e;
    as the group is abelian, it ends at the image c of x.  A step along an
    edge (a, j, b) adds e_j = k_b - k_a + row (row 0 on a tree edge) and a
    step against one subtracts it, so the sum telescopes to
    x = k_c + (a sum of rows).  A word that maps to zero returns to e, where
    k_e = 0: it is a sum of the relations along its walk.
    """
    paths: list[_Path | None] = [None] * len(table)
    paths[identity] = (0,) * len(generators)
    edges = []
    reached = [identity]
    for a in reached:  # grows while it is walked: breadth first
        k_a = paths[a]
        for j, s in enumerate(generators):
            b = table[a][s]
            k_via = k_a[:j] + (k_a[j] + 1,) + k_a[j + 1 :]
            k_b = paths[b]
            if k_b is None:
                paths[b] = k_via
                reached.append(b)
                edges.append((a, j, b, None))
            else:
                edges.append((a, j, b, tuple(p - q for p, q in zip(k_via, k_b))))
    return paths, edges


def _associativity_failures(
    rows: Sequence[tuple[int, ...]], middles: Iterable[int], firsts: Sequence[int]
) -> Iterator[tuple[int, int, int]]:
    """The triples (x, s, y) with (x s) y != x (s y), for s in ``middles``
    and x in ``firsts``, ordered by s, then x, then y.

    Each s costs one bulk comparison of the rows x; single triples are
    worked out only where two rows differ.  (At order 1 ``itemgetter``
    returns a bare entry, but the one table of order 1 is a group.)
    """
    first_rows = [rows[x] for x in firsts]
    for s in middles:
        # Row x of each side: y -> (x s) y and y -> x (s y).
        left = [rows[row[s]] for row in first_rows]
        right = list(map(itemgetter(*rows[s]), first_rows))
        if left != right:
            yield from ((firsts[k], s, y) for k, y in _differing_entries(left, right))


def _differing_entries(
    left: Sequence[Sequence[int]], right: Sequence[Sequence[int]]
) -> Iterator[tuple[int, int]]:
    """The positions (k, y), in order, with left[k][y] != right[k][y]."""
    for k, (left_row, right_row) in enumerate(zip(left, right)):
        if left_row != right_row:
            yield from (
                (k, y) for y, (p, q) in enumerate(zip(left_row, right_row)) if p != q
            )


def group_violations(group: FiniteGroup, limit: int = 10) -> tuple[str, ...]:
    """Human-readable axiom violations, at most ``limit`` of them.

    A group is recognized in n^2 |S| steps by Light's associativity test
    (Clifford-Preston, The Algebraic Theory of Semigroups I, 1961, 1.2; see
    ``FiniteGroup.is_group``): the s with (x s) y = x (s y) for all x, y
    contain the identity and are closed under the product, so testing s in
    a generating set S proves associativity.  It returns ``()``.  On any
    other table it lists every identity and inverse failure, then the
    failing triples in lexicographic order until ``limit`` violations are
    collected: the same test at every s, run for one first element at a
    time.
    """
    n, table, e = group.order, group.table, group.identity
    if group.is_group and all(table[a][b] == e for a, b in enumerate(group.inverse)):
        return ()
    out = [
        f"identity fails at element {b}"
        for b in range(n)
        if table[e][b] != b or table[b][e] != b
    ]
    out += [
        f"inverse fails at element {a}"
        for a, b in enumerate(group.inverse)
        if table[a][b] != e or table[b][a] != e
    ]
    elements = range(n)
    triples = chain.from_iterable(
        _associativity_failures(table, elements, (x,)) for x in elements
    )
    out += (
        f"associativity fails at triple ({a},{b},{c})"
        for a, b, c in islice(triples, max(0, limit - len(out)))
    )
    return tuple(out)


def check_group(group: FiniteGroup) -> bool:
    return not group_violations(group, limit=1)


def center_group(group: FiniteGroup) -> tuple[int, ...]:
    n = group.order
    return tuple(
        z
        for z in range(n)
        if all(group.table[z][g] == group.table[g][z] for g in range(n))
    )


def inner_automorphism(group: FiniteGroup, c: int) -> GroupMap:
    return GroupMap(group.conjugation[c])


def is_group_homomorphism(
    mapping: GroupMap, source_table: Sequence[Sequence[int]], target: FiniteGroup
) -> bool:
    """True when f(source_table[a][b]) = f(a) f(b) in ``target`` on all pairs."""
    images = mapping.images
    table = target.table
    for a, row in enumerate(source_table):
        image_row = table[images[a]]
        for b, ab in enumerate(row):
            if images[ab] != image_row[images[b]]:
                return False
    return True


def cyclic_group(n: int) -> FiniteGroup:
    if n <= 0:
        raise ValueError("cyclic group order must be positive")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup.from_table(table)


@dataclass(frozen=True)
class AbelianDecomposition:
    """Invariant-factor coordinates on a finite abelian subgroup.

    ``elements`` are the ambient element indices of the subgroup;
    ``invariant_factors`` is d1 | d2 | ... (entries > 1 only) and the two
    mappings translate between elements and exponent tuples.
    """

    elements: tuple[int, ...]
    invariant_factors: tuple[int, ...]
    coords: dict[int, tuple[int, ...]]
    elements_by_coords: dict[tuple[int, ...], int]

    def from_coords(self, coordinates: Sequence[int]) -> int:
        key = tuple(
            index(c) % d for c, d in zip(coordinates, self.invariant_factors, strict=True)
        )
        return self.elements_by_coords[key]


def abelian_decomposition(
    group: FiniteGroup, subset: Sequence[int]
) -> AbelianDecomposition:
    """Decompose an abelian subgroup given by element indices.

    Presents the subgroup by its greedy generating set S
    (``generating_set``) and the distinct relation rows of its Cayley tree
    (``_cayley_tree``), at most m |S| - m + 1 rows of |S| <= log2 m columns,
    and reads the invariant factors off their Smith normal form
    u @ R @ v = d.  The element with path vector k has coordinates
    (k v)_i mod d_i: x -> x v maps the row span of R onto that of d.
    """
    elements = tuple(dict.fromkeys(map(index, subset)))
    m = len(elements)
    position = {g: k for k, g in enumerate(elements)}
    if group.identity not in position:
        raise ValueError("subset does not contain the identity")
    local = []  # the subgroup's Cayley table on positions in ``elements``
    for a in elements:
        if group.inverse[a] not in position:
            raise ValueError("subset is not closed under inverses")
        row = group.table[a]
        for b in elements:
            if row[b] not in position:
                raise ValueError("subset is not closed under the product")
            if row[b] != group.table[b][a]:
                raise ValueError("subset is not abelian")
        local.append(tuple(position[row[b]] for b in elements))

    if m == 1:
        e = elements[0]
        return AbelianDecomposition((e,), (), {e: ()}, {(): e})

    generators = generating_set(local, position[group.identity])
    width = len(generators)
    paths, edges = _cayley_tree(local, generators, position[group.identity])
    relations = dict.fromkeys(  # up to sign, in walk order
        max(row, tuple(-x for x in row))
        for *_, row in edges
        if row is not None and any(row)
    )
    diag, _, v = _diagonalize(list(relations), (), (), width)
    if 0 in diag:
        raise AssertionError("finite subgroup produced an infinite presentation")
    factors = tuple(x for x in diag if x > 1)

    columns = v.transpose()  # columns.apply(k) is k v
    coords = {
        g: tuple(y % x for y, x in zip(columns.apply(k), diag) if x > 1)
        for g, k in zip(elements, paths)
    }
    elements_by_coords = {c: g for g, c in coords.items()}
    if prod(factors) != m or len(elements_by_coords) != m:
        raise AssertionError("coordinates are not a bijection onto the invariant factors")
    for a in elements:
        for b in elements:
            added = tuple(
                (x + y) % dfac for x, y, dfac in zip(coords[a], coords[b], factors)
            )
            if coords[group.table[a][b]] != added:
                raise AssertionError("coordinates are not additive")
    return AbelianDecomposition(elements, factors, coords, elements_by_coords)
