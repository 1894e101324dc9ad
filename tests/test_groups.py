"""Finite group core: axioms, center, inner automorphisms, abelian coordinates."""

import random
from itertools import product
from math import log2, prod
from pathlib import Path

import pytest

from postrb.groups import (
    FiniteGroup,
    GroupMap,
    abelian_decomposition,
    center_group,
    check_group,
    cyclic_group,
    group_violations,
    inner_automorphism,
)
from postrb.documents import expand_permutation_generators, parse_document
from postrb.postgroup import PostGroup, sub_adjacent_group
from postrb.scalars import IntMatrix, smith_normal_form, solve_linear_congruences

from conftest import (
    inner_postgroups,
    int_diagonal,
    make_d4,
    make_q8,
    make_s3,
    relabel_group,
    seeded_relabellings,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def abelian_product(moduli, seed):
    """Z/m1 x Z/m2 x ... with its elements in a seeded order."""
    elements = list(product(*(range(m) for m in moduli)))
    random.Random(seed).shuffle(elements)
    index = {x: k for k, x in enumerate(elements)}
    return FiniteGroup.from_table(
        [
            [index[tuple((p + q) % m for p, q, m in zip(x, y, moduli))] for y in elements]
            for x in elements
        ]
    )


def prime_power_factors(moduli):
    """Invariant factors of Z/m1 x Z/m2 x ..., without a Smith normal form:
    the k-th largest is the product of each prime's k-th largest power
    among the m_i."""
    powers = {}
    for m in moduli:
        p = 2
        while m > 1:
            q = 1
            while m % p == 0:
                m, q = m // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    ranked = [sorted(qs, reverse=True) for qs in powers.values()]
    depth = max(map(len, ranked), default=0)
    return tuple(
        prod(qs[k] for qs in ranked if k < len(qs)) for k in reversed(range(depth))
    )


def full_presentation_factors(group):
    """Invariant factors from all |G|^2 relations e_a + e_b - e_(a b)."""
    n = group.order
    relations = []
    for a, b in product(range(n), repeat=2):
        row = [0] * n
        row[a] += 1
        row[b] += 1
        row[group.mul(a, b)] -= 1
        relations.append(row)
    d = int_diagonal(smith_normal_form(IntMatrix.from_rows(relations, width=n)).d)
    return tuple(x for x in d if x > 1)


class TestCheckGroup:
    def test_z2(self, z2):
        assert check_group(z2)

    def test_s3(self, s3):
        assert s3.order == 6
        assert check_group(s3)

    def test_swapped_cell_fails(self, s3):
        table = [list(row) for row in s3.table]
        table[3][4], table[3][5] = table[3][5], table[3][4]
        broken = FiniteGroup(
            tuple(tuple(r) for r in table), s3.identity, s3.inverse
        )
        assert not check_group(broken)
        assert group_violations(broken)

    def test_missing_identity_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroup.from_table([[1, 0], [1, 0]])


def scanned_identity_and_inverses(table):
    """The first element whose row and column are the identity map, and
    per element the first two-sided inverse, by exhaustive scan; 0 and the
    element itself where none exists."""
    n = len(table)
    identity = next(
        (
            e
            for e in range(n)
            if all(table[e][b] == b == table[b][e] for b in range(n))
        ),
        0,
    )
    inverse = tuple(
        next(
            (b for b in range(n) if table[a][b] == identity == table[b][a]),
            a,
        )
        for a in range(n)
    )
    return identity, inverse


class TestFromTable:
    def test_groups_in_shuffled_labels(self):
        identities = set()
        for seed in range(6):
            group = abelian_product((2, 6), seed)
            expected = scanned_identity_and_inverses(group.table)
            assert (group.identity, group.inverse) == expected
            assert check_group(group)
            identities.add(group.identity)
        assert identities - {0}

    def test_non_strict_matches_the_scan(self):
        # Random tables with a planted identity and one-sided inverses: the
        # first a b = e in a row is often not a two-sided inverse.
        rng = random.Random(71)
        for _ in range(400):
            n = rng.randint(1, 6)
            table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.7:
                e = rng.randrange(n)
                table[e] = list(range(n))
                for b in range(n):
                    table[b][e] = b
            group = FiniteGroup.from_table(table, strict=False)
            assert (group.identity, group.inverse) == scanned_identity_and_inverses(
                table
            )
            assert group.table == tuple(tuple(row) for row in table)

    def test_entries_are_coerced_to_int(self):
        group = FiniteGroup.from_table([[True, False], [False, True]])
        assert group.table == ((1, 0), (0, 1))
        assert all(type(x) is int for row in group.table for x in row)

    def test_strict_refuses_missing_inverse(self):
        # 0 is the identity; 1 1 = 1, so 1 has no inverse.
        with pytest.raises(ValueError, match="no inverse"):
            FiniteGroup.from_table([[0, 1], [1, 1]])


class TestFloatsRefused:
    """Group-side integers are taken with ``operator.index``: a float is
    refused with ``TypeError``, as ``GaussianRational`` refuses one, where
    ``int`` would truncate it (1.9 read as 1, 2.7 as 2)."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FiniteGroup.from_table([[0.0, 1.9], [1, 0]]),
            lambda: PostGroup.from_table(cyclic_group(2), [[0, 1.0], [1, 0]]),
            lambda: expand_permutation_generators(2, [[1.0, 0]]),
            lambda: abelian_decomposition(cyclic_group(4), [0, 2.0]),
            lambda: abelian_decomposition(cyclic_group(4), range(4)).from_coords([1.0]),
            lambda: IntMatrix.from_rows([[1.5, 2]]),
            lambda: solve_linear_congruences(IntMatrix.from_rows([[1]]), [2.7], 5),
        ],
        ids=[
            "FiniteGroup.from_table",
            "PostGroup.from_table",
            "expand_permutation_generators",
            "abelian_decomposition",
            "AbelianDecomposition.from_coords",
            "IntMatrix.from_rows",
            "solve_linear_congruences",
        ],
    )
    def test_float_refused(self, build):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build()


class TestFields:
    Z2 = ((0, 1), (1, 0))

    @pytest.mark.parametrize("identity", [2, 5, -1])
    def test_identity_out_of_range(self, identity):
        with pytest.raises(ValueError, match="identity element out of range"):
            FiniteGroup(self.Z2, identity, (0, 1))

    @pytest.mark.parametrize("inverse", [(0, 2), (-1, 1), (5, 1)])
    def test_inverse_entry_out_of_range(self, inverse):
        with pytest.raises(ValueError, match="inverse table entry out of range"):
            FiniteGroup(self.Z2, 0, inverse)

    def test_empty_table_keeps_identity_zero(self):
        empty = FiniteGroup((), 0, ())
        assert empty == FiniteGroup.from_table([], strict=False)
        with pytest.raises(ValueError, match="identity element out of range"):
            FiniteGroup((), 1, ())


class TestCenter:
    def test_abelian_full(self, z4):
        assert center_group(z4) == (0, 1, 2, 3)

    def test_s3_trivial(self, s3):
        assert center_group(s3) == (s3.identity,)

    def test_d4_order_two(self, d4):
        z = center_group(d4)
        assert len(z) == 2
        assert d4.identity in z
        other = next(c for c in z if c != d4.identity)
        assert d4.mul(other, other) == d4.identity


class TestInnerAutomorphism:
    def test_identity_element(self, s3):
        assert inner_automorphism(s3, s3.identity) == GroupMap.identity(6)

    def test_abelian_always_identity(self, z4):
        for c in range(4):
            assert inner_automorphism(z4, c) == GroupMap.identity(4)

    def test_s3_transposition_conjugation(self, s3):
        # Discovery order puts the swap (01) at index 1, the 3-cycles at 2
        # and 5, and the swaps (12), (02) at 3 and 4.  Conjugating by (01)
        # exchanges the two 3-cycles and the swaps (12) <-> (02), by hand:
        # (01)(012)(01) = (021) and (01)(12)(01) = (02).
        assert inner_automorphism(s3, 1).images == (0, 1, 5, 4, 3, 2)

    def test_is_automorphism(self, s3, d4):
        for group in (s3, d4):
            n = group.order
            for c in range(n):
                auto = inner_automorphism(group, c)
                assert sorted(auto.images) == list(range(n))
                for a in range(n):
                    for b in range(n):
                        assert auto(group.mul(a, b)) == group.mul(auto(a), auto(b))

    def test_kernel_is_center(self, s3, d4):
        for group in (s3, d4):
            identity = GroupMap.identity(group.order)
            kernel = tuple(
                c
                for c in range(group.order)
                if inner_automorphism(group, c) == identity
            )
            assert kernel == center_group(group)


class TestGroupMap:
    def test_images_must_be_elements(self):
        from postrb.postgroup import check_rb_group

        # An image past the last element used to raise IndexError inside
        # the check, and a negative one to index from the end of the table.
        for images in ((0, 5, 2, 3), (0, -1, 2, 3)):
            with pytest.raises(ValueError, match="outside the elements 0..3"):
                check_rb_group(cyclic_group(4), GroupMap(images))

    def test_every_element_is_a_valid_image(self):
        assert GroupMap((3, 0, 1, 2)).images == (3, 0, 1, 2)
        assert GroupMap(()).size == 0


class TestAbelianDecomposition:
    def test_trivial_subgroup(self, s3):
        decomp = abelian_decomposition(s3, [s3.identity])
        assert decomp.invariant_factors == ()
        assert decomp.from_coords(()) == s3.identity

    def test_cyclic_four(self, z4):
        decomp = abelian_decomposition(z4, [0, 1, 2, 3])
        assert decomp.invariant_factors == (4,)

    def test_d4_center(self, d4):
        z = center_group(d4)
        decomp = abelian_decomposition(d4, z)
        assert decomp.invariant_factors == (2,)

    def test_klein_four(self):
        # Z/2 x Z/2 direct product table.
        table = [
            [(a1 ^ b1) * 2 + (a2 ^ b2) for b1, b2 in [(0, 0), (0, 1), (1, 0), (1, 1)]]
            for a1, a2 in [(0, 0), (0, 1), (1, 0), (1, 1)]
        ]
        group = FiniteGroup.from_table(table)
        decomp = abelian_decomposition(group, range(4))
        assert decomp.invariant_factors == (2, 2)

    def test_cyclic_six_roundtrip(self):
        z6 = cyclic_group(6)
        decomp = abelian_decomposition(z6, range(6))
        assert decomp.invariant_factors == (6,)
        for g in range(6):
            assert decomp.from_coords(decomp.coords[g]) == g

    def test_coordinates_respect_product(self, d4):
        z = center_group(d4)
        decomp = abelian_decomposition(d4, z)
        for a in z:
            for b in z:
                expected = tuple(
                    (x + y) % d
                    for x, y, d in zip(
                        decomp.coords[a],
                        decomp.coords[b],
                        decomp.invariant_factors,
                    )
                )
                assert decomp.coords[d4.mul(a, b)] == expected

    @pytest.mark.parametrize(
        "moduli", [(2, 4), (2, 2, 2), (3, 6), (12,), (2, 6), (4, 4)]
    )
    def test_generator_relations_match_the_full_presentation(self, moduli, monkeypatch):
        # The relation rows of the Cayley tree of the greedy generating set
        # S give the invariant factors of all |Z|^2 relations, from |S| <=
        # log2 |Z| columns and at most |Z| |S| - |Z| + 1 rows, one per edge
        # off the tree.  Each moduli tuple is already d1 | d2 | ...
        # The spy sits on the Smith-form kernel that every caller runs.
        from postrb import scalars

        shapes = []
        kernel = scalars._smith

        def counted(rows, riders, width):
            shapes.append((len(rows), width))
            return kernel(rows, riders, width)

        for seed in range(3):
            group = abelian_product(moduli, seed)
            expected = full_presentation_factors(group)
            monkeypatch.setattr(scalars, "_smith", counted)
            decomp = abelian_decomposition(group, range(group.order))
            monkeypatch.undo()
            assert decomp.invariant_factors == expected == moduli
            m = group.order
            assert len(shapes) == seed + 1  # one Smith form per decomposition
            rows, cols = shapes[-1]
            assert cols <= log2(m) and rows <= m * cols - m + 1

    @pytest.mark.parametrize(
        "moduli", [(2,) * 6, (4, 4, 4), (2, 4, 8), (2, 6, 6), (64,), (3, 3, 3)]
    )
    def test_centers_up_to_order_64(self, moduli):
        expected = prime_power_factors(moduli)
        base = abelian_product(moduli, 0)
        for perm in seeded_relabellings(base.order, seed=len(moduli)):
            group = relabel_group(base, perm)
            decomp = abelian_decomposition(group, range(group.order))
            assert decomp.invariant_factors == expected
            assert sorted(decomp.coords.values()) == list(
                product(*(range(d) for d in expected))
            )
            for a, b in product(range(group.order), repeat=2):
                added = tuple(
                    (x + y) % d
                    for x, y, d in zip(decomp.coords[a], decomp.coords[b], expected)
                )
                assert decomp.coords[group.mul(a, b)] == added

    def test_rejects_nonabelian(self, s3):
        with pytest.raises(ValueError):
            abelian_decomposition(s3, range(6))

    def test_rejects_non_closed(self, z4):
        with pytest.raises(ValueError):
            abelian_decomposition(z4, [0, 1])


def generated_subgroup(group, elements):
    """The subgroup generated by ``elements``, closed by right products."""
    reached = {group.identity}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        for s in elements:
            y = group.mul(x, s)
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def generating_set_groups():
    """Named groups: the sub-adjacent groups of the sample post-groups and of
    the D4 and Q8 censuses, and S3."""
    for sample in sorted(SAMPLES.glob("*.postgrp")):
        doc = parse_document(sample.read_text(encoding="utf-8"))
        yield sample.name, sub_adjacent_group(doc.post_group)
    for name, make in (("d4", make_d4), ("q8", make_q8)):
        for k, pg in enumerate(inner_postgroups(make())):
            yield f"{name} census {k}", sub_adjacent_group(pg)
    yield "s3", make_s3()


class TestGeneratingSet:
    def test_other_elements_lie_below_their_index(self):
        # The canonical group correction fixes values only at the
        # generators: every other element a lies in the subgroup generated
        # by the generators smaller than a, so its value is fixed by theirs.
        # A smaller generating set for other uses needs its own function.
        groups = list(generating_set_groups())
        assert len(groups) == 1 + 16 + 16 + 1
        for name, group in groups:
            generators = group.generators
            assert list(generators) == sorted(set(generators)), name
            for a in range(group.order):
                below = generated_subgroup(group, [s for s in generators if s < a])
                assert (a in below) == (a not in generators), (name, a)
