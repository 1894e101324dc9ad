"""Finite groups as Cayley tables with 0-based element indices.

Desk scale throughout (order <= ~64): exhaustive scans are the norm and all
results are deterministic in the input element order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from math import prod
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .scalars import IntMatrix, smith_normal_form


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
        if len(self.inverse) != n:
            raise ValueError("inverse table length does not match the order")
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
        cooked = tuple(tuple(map(int, row)) for row in table)
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

    @staticmethod
    def of(images: Iterable[int]) -> "GroupMap":
        return GroupMap(tuple(int(x) for x in images))

    def is_permutation(self) -> bool:
        return sorted(self.images) == list(range(len(self.images)))


def generating_set(
    composition: Sequence[Sequence[int]], identity: int
) -> tuple[int, ...]:
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

    def to_coords(self, element: int) -> tuple[int, ...]:
        return self.coords[element]

    def from_coords(self, coordinates: Sequence[int]) -> int:
        key = tuple(
            int(c) % d for c, d in zip(coordinates, self.invariant_factors, strict=True)
        )
        return self.elements_by_coords[key]


def abelian_decomposition(
    group: FiniteGroup, subset: Sequence[int]
) -> AbelianDecomposition:
    """Decompose an abelian subgroup given by element indices.

    Presents the subgroup by one generator e_a per element and the relations
    e_a + e_s - e_(a s) for a in the subgroup and s in its greedy generating
    set S (``generating_set``), |S| <= log2 m of them per element, and reads
    the invariant factors off the Smith normal form of the relation matrix.
    These relations span all of e_a + e_b - e_(a b): the one at b = e is
    e_e, and for b = c s
    e_a + e_b - e_(a b) = (e_a + e_c - e_(a c)) + (e_(a c) + e_s - e_(a b))
    - (e_c + e_s - e_b),
    so induction along products of generators reaches every b.
    """
    elements = tuple(dict.fromkeys(int(x) for x in subset))
    m = len(elements)
    index = {g: k for k, g in enumerate(elements)}
    if group.identity not in index:
        raise ValueError("subset does not contain the identity")
    local = []  # the subgroup's Cayley table on positions in ``elements``
    for a in elements:
        if group.inverse[a] not in index:
            raise ValueError("subset is not closed under inverses")
        row = group.table[a]
        for b in elements:
            if row[b] not in index:
                raise ValueError("subset is not closed under the product")
            if row[b] != group.table[b][a]:
                raise ValueError("subset is not abelian")
        local.append(tuple(index[row[b]] for b in elements))

    if m == 1:
        e = elements[0]
        return AbelianDecomposition((e,), (), {e: ()}, {(): e})

    # Relations e_a + e_s - e_(a s) = 0 as columns; subgroup = Z^m / column span.
    relations = []
    for s in generating_set(local, index[group.identity]):
        for a, row in enumerate(local):
            relation = [0] * m
            relation[a] += 1
            relation[s] += 1
            relation[row[s]] -= 1
            relations.append(relation)
    presentation = IntMatrix.from_rows(relations, width=m).transpose()
    u, d, _ = smith_normal_form(presentation)
    diag = list(d.diagonal()) + [0] * (m - min(d.rows, d.cols))
    if any(x == 0 for x in diag):
        raise AssertionError("finite subgroup produced an infinite presentation")
    keep = [k for k, x in enumerate(diag) if x > 1]
    factors = tuple(diag[k] for k in keep)

    coords = {
        g: tuple(u.entries[k][index[g]] % diag[k] for k in keep) for g in elements
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
