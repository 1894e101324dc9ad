"""Post-group axioms, sub-adjacent groups, Rota-Baxter maps and enumeration.

The enumeration oracle here is a naive scan over all |G|^|G| maps checking
the defining identity directly; it is compared against the pruned search on
groups small enough to afford it.  On abelian groups the Rota-Baxter maps
are exactly the endomorphisms, which gives a second independent count.
"""

import random
from itertools import product

import pytest

from postrb.errors import NotRotaBaxterError
from postrb.groups import (
    FiniteGroup,
    GroupMap,
    center_group,
    check_group,
    cyclic_group,
    generating_set,
)
from postrb.postgroup import (
    PostGroup,
    assert_tilde_closed,
    check_postgroup_axioms,
    check_rb_group,
    enumerate_rb_operators,
    from_rb_group,
    induced_triangle,
    innerness_witness_group,
    sub_adjacent_group,
    sub_adjacent_table,
    tilde_operator,
)

from conftest import (
    make_d4,
    make_s3,
    rb_group_by_definition,
    relabel_group,
    seeded_relabellings,
)


def trivial_postgroup(group: FiniteGroup) -> PostGroup:
    n = group.order
    return PostGroup(group, tuple(tuple(range(n)) for _ in range(n)))


def conjugation_postgroup(group: FiniteGroup) -> PostGroup:
    return from_rb_group(group, GroupMap(group.inverse))


def naive_rb_enumeration(group: FiniteGroup) -> list[GroupMap]:
    n = group.order
    found = []
    for images in product(range(n), repeat=n):
        candidate = GroupMap(images)
        if rb_group_by_definition(group, candidate):
            found.append(candidate)
    return found


def endomorphisms(group: FiniteGroup) -> list[GroupMap]:
    n = group.order
    found = []
    for images in product(range(n), repeat=n):
        if all(
            images[group.mul(a, b)] == group.mul(images[a], images[b])
            for a in range(n)
            for b in range(n)
        ):
            found.append(GroupMap(images))
    return found


class TestAxioms:
    def test_trivial_product_valid(self, s3):
        assert check_postgroup_axioms(trivial_postgroup(s3)).ok

    def test_conjugation_valid(self, s3):
        assert check_postgroup_axioms(conjugation_postgroup(s3)).ok

    def test_perturbed_cell_reported(self, s3):
        table = [list(row) for row in trivial_postgroup(s3).triangle]
        table[1][2], table[1][3] = table[1][3], table[1][2]
        report = check_postgroup_axioms(PostGroup.from_table(s3, table))
        assert not report.ok


class TestSubAdjacent:
    def test_trivial_product_returns_base(self, s3):
        assert sub_adjacent_group(trivial_postgroup(s3)).table == s3.table

    def test_conjugation_gives_opposite_group(self, s3):
        # a o b = a a^-1 b a = b a.
        sub = sub_adjacent_group(conjugation_postgroup(s3))
        expected = tuple(
            tuple(s3.mul(b, a) for b in range(6)) for a in range(6)
        )
        assert sub.table == expected

    def test_rb_induced_always_group(self, d4):
        for op in enumerate_rb_operators(d4):
            sub = sub_adjacent_group(from_rb_group(d4, op))
            assert check_group(sub)


class TestCheckRb:
    def test_constant_identity(self, s3):
        assert check_rb_group(s3, GroupMap.constant(6, s3.identity))

    def test_inverse_map(self, s3):
        assert check_rb_group(s3, GroupMap(s3.inverse))

    def test_identity_map_only_on_abelian(self, s3, z4):
        assert check_rb_group(z4, GroupMap.identity(4))
        assert not check_rb_group(s3, GroupMap.identity(6))

    def test_random_non_example(self, s3):
        assert not check_rb_group(s3, GroupMap((1, 2, 3, 4, 5, 0)))


class TestFromRb:
    def test_constant_gives_trivial_product(self, s3):
        pg = from_rb_group(s3, GroupMap.constant(6, s3.identity))
        assert pg.triangle == trivial_postgroup(s3).triangle

    def test_rejects_non_rb(self, s3):
        with pytest.raises(NotRotaBaxterError):
            from_rb_group(s3, GroupMap.identity(6))

    def test_induced_postgroups_valid(self, s3):
        for op in enumerate_rb_operators(s3):
            assert check_postgroup_axioms(from_rb_group(s3, op)).ok


class TestWitness:
    def test_trivial_product(self, s3):
        w = innerness_witness_group(trivial_postgroup(s3))
        assert w == GroupMap.constant(6, s3.identity)

    def test_conjugation_on_s3_unique(self, s3):
        w = innerness_witness_group(conjugation_postgroup(s3))
        assert w == GroupMap(s3.inverse)

    def test_identity_normalized(self, d4):
        for op in enumerate_rb_operators(d4):
            pg = from_rb_group(d4, op)
            w = innerness_witness_group(pg)
            assert w is not None
            assert w(d4.identity) == d4.identity
            for a in range(8):
                assert tuple(
                    d4.conjugate(w(a), b) for b in range(8)
                ) == pg.triangle[a]

    def test_outer_automorphism_not_witnessed(self):
        # On Z/3 inversion is a (non-inner) automorphism; a > b = b^-1 for
        # every a fails the axioms, and no conjugation realizes inversion.
        z3 = cyclic_group(3)
        inversion_rows = tuple(tuple(z3.inverse) for _ in range(3))
        pg = PostGroup(z3, inversion_rows)
        assert not check_postgroup_axioms(pg).ok
        assert innerness_witness_group(pg) is None


def klein_four() -> FiniteGroup:
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return FiniteGroup.from_table(
        [[(a1 ^ b1) * 2 + (a2 ^ b2) for b1, b2 in pairs] for a1, a2 in pairs]
    )


def search_generators(group: FiniteGroup, op: GroupMap) -> tuple[int, ...]:
    """The generator list T the search holds at the leaf of ``op``: the
    greedy generating set of its sub-adjacent group."""
    composition = sub_adjacent_table(group, induced_triangle(group, op))
    return generating_set(composition, group.identity)


class TestEnumeration:
    def test_z2_exactly_endomorphisms(self, z2):
        ops = enumerate_rb_operators(z2)
        assert [op.images for op in ops] == [(0, 0), (0, 1)]
        assert {op.images for op in ops} == {
            e.images for e in endomorphisms(z2)
        }

    def test_z4_matches_naive_and_endomorphisms(self, z4):
        ops = {op.images for op in enumerate_rb_operators(z4)}
        assert ops == {op.images for op in naive_rb_enumeration(z4)}
        assert ops == {e.images for e in endomorphisms(z4)}

    def test_klein_four_matches_naive(self):
        group = klein_four()
        ops = {op.images for op in enumerate_rb_operators(group)}
        assert ops == {op.images for op in naive_rb_enumeration(group)}
        assert len(ops) == 16  # all F_2 2x2 matrices

    def test_s3_matches_naive(self, s3):
        pruned = enumerate_rb_operators(s3)
        naive = naive_rb_enumeration(s3)
        assert {op.images for op in pruned} == {op.images for op in naive}
        images = {op.images for op in pruned}
        assert tuple(s3.identity for _ in range(6)) in images
        assert s3.inverse in images

    def test_deterministic_order(self, s3):
        first = enumerate_rb_operators(s3)
        second = enumerate_rb_operators(s3)
        assert first == second
        assert all(a.images <= b.images for a, b in zip(first, first[1:]))

    @pytest.mark.parametrize(
        "make, seed",
        [
            (lambda: cyclic_group(4), 41),
            (klein_four, 43),
            (lambda: cyclic_group(6), 47),
            (make_s3, 53),
        ],
        ids=["Z4", "Klein", "Z6", "S3"],
    )
    def test_matches_naive_when_relabelled(self, make, seed):
        # The identity is moved off element 0, so B(e) = e is pre-assigned
        # away from the first branch point.
        base = make()
        perms = [
            p
            for p in seeded_relabellings(base.order, seed, count=12)
            if p[base.identity] != 0
        ][:3]
        assert len(perms) == 3
        for perm in perms:
            group = relabel_group(base, perm)
            assert group.identity != 0
            found = [op.images for op in enumerate_rb_operators(group)]
            assert all(a < b for a, b in zip(found, found[1:]))
            assert set(found) == {op.images for op in naive_rb_enumeration(group)}

    def test_trivial_and_empty_tables(self):
        assert [op.images for op in enumerate_rb_operators(cyclic_group(1))] == [(0,)]
        empty = FiniteGroup.from_table([], strict=False)
        assert [op.images for op in enumerate_rb_operators(empty)] == [()]

    def test_cap_guard(self, s3):
        with pytest.raises(ValueError):
            enumerate_rb_operators(s3, cap=100)

    def test_every_operator_is_sub_adjacent_homomorphism(self, s3):
        for op in enumerate_rb_operators(s3):
            sub = sub_adjacent_group(from_rb_group(s3, op))
            for a in range(6):
                for b in range(6):
                    assert op(sub.mul(a, b)) == s3.mul(op(a), op(b))


class TestTildeSelfCheck:
    def test_tilde_is_an_involution_on_operators(self, d4):
        ops = enumerate_rb_operators(d4)
        images = {op.images for op in ops}
        for op in ops:
            tilde = tilde_operator(d4, op)
            assert check_rb_group(d4, tilde)
            assert tilde.images in images
            assert tilde_operator(d4, tilde) == op

    def test_full_sets_pass(self, s3, d4):
        for group in (s3, d4):
            assert_tilde_closed(group, enumerate_rb_operators(group))

    def test_dropping_one_operator_raises(self, s3):
        ops = enumerate_rb_operators(s3)
        constant = GroupMap.constant(6, s3.identity)
        # Its partner B~(a) = a^-1 is still there and now has no image.
        assert tilde_operator(s3, constant) == GroupMap(s3.inverse)
        rest = [op for op in ops if op != constant]
        assert len(rest) == len(ops) - 1
        with pytest.raises(AssertionError, match="not closed"):
            assert_tilde_closed(s3, rest)


class TestGeneratorCheck:
    """``check_rb_group``'s generator walk against the definition."""

    def test_agrees_with_the_definition_on_random_maps(self):
        groups = [make_s3(), make_d4(), cyclic_group(6), klein_four()]
        rng = random.Random(61)
        accepted = refused = 0
        for group in groups:
            n, e = group.order, group.identity
            ops = [op.images for op in enumerate_rb_operators(group)]
            for _ in range(1500):
                if rng.random() < 0.5:
                    images = [rng.randrange(n) for _ in range(n)]
                    images[e] = e
                else:  # an operator with a few images moved
                    images = list(rng.choice(ops))
                    for a in rng.sample(range(n), rng.randint(1, 3)):
                        images[a] = rng.randrange(n)
                candidate = GroupMap(tuple(images))
                verdict = rb_group_by_definition(group, candidate)
                assert check_rb_group(group, candidate) == verdict, (group, images)
                if verdict:
                    accepted += 1
                else:
                    refused += 1
        # Both outcomes occur, so the comparison is not vacuous.
        assert accepted > 100 and refused > 100

    def test_accepts_every_operator(self, s3, d4):
        for group in (s3, d4):
            for op in enumerate_rb_operators(group):
                assert len(search_generators(group, op)) <= 3  # |T| <= log2 n
                assert rb_group_by_definition(group, op)
                assert check_rb_group(group, op)

    def test_refuses_each_operator_with_one_image_changed(self, s3, d4):
        for group in (s3, d4):
            n = group.order
            for op in enumerate_rb_operators(group):
                for a in range(n):
                    for value in range(n):
                        if value == op(a):
                            continue
                        images = list(op.images)
                        images[a] = value
                        changed = GroupMap(tuple(images))
                        assert not rb_group_by_definition(group, changed)
                        assert not check_rb_group(group, changed)

    def test_empty_table_and_wrong_size(self, s3):
        empty = FiniteGroup.from_table((), strict=False)
        assert check_rb_group(empty, GroupMap(()))
        with pytest.raises(ValueError, match="size does not match"):
            check_rb_group(s3, GroupMap.identity(4))


class TestLargerGroups:
    def test_d5_enumeration(self):
        from conftest import group_from_perms

        d5 = group_from_perms([(1, 2, 3, 4, 0), (4, 3, 2, 1, 0)])
        assert d5.order == 10
        ops = enumerate_rb_operators(d5, cap=10**10)
        images = {op.images for op in ops}
        assert tuple(d5.identity for _ in range(10)) in images
        assert d5.inverse in images
        assert len(ops) == 12  # all verified against the definition in-search

    def test_a4_enumeration_and_pipeline(self):
        from conftest import group_from_perms
        from postrb.group_obstruction import construct_rb_from_obstruction_group

        a4 = group_from_perms([(1, 2, 0, 3), (0, 2, 3, 1)])
        assert a4.order == 12
        ops = enumerate_rb_operators(a4, cap=10**13)
        assert len(ops) == 18
        for op in ops:
            pg = from_rb_group(a4, op)
            assert check_postgroup_axioms(pg).ok
            result = construct_rb_from_obstruction_group(pg)
            # Trivial center: the witness is unique, so B is recovered exactly.
            assert result.operator == op


class TestCenterAction:
    def test_center_stable_and_trivial_for_rb(self, d4):
        z = set(center_group(d4))
        for op in enumerate_rb_operators(d4):
            pg = from_rb_group(d4, op)
            for a in range(8):
                for c in z:
                    assert pg.triangle[a][c] in z
                    assert pg.triangle[a][c] == c
