"""Group obstruction pipeline, pullback, difference cocycles and the tower.

The exhaustive coboundary oracle scans all center-valued maps fixing the
identity, and the least-solution search finds the least such map by depth
first; they are the independent routes against the congruence solver.
"""

import random
from itertools import product
from math import log2
from pathlib import Path

import pytest

from postrb.documents import parse_document
from postrb.errors import NontrivialObstructionError, NotRotaBaxterError
from postrb.groups import (
    FiniteGroup,
    GroupMap,
    abelian_decomposition,
    center_group,
    check_group,
    cyclic_group,
    is_group_homomorphism,
)
from postrb.group_obstruction import (
    GroupTwoCocycle,
    coboundary_solve_group,
    construct_rb_from_obstruction_group,
    group_tower_certificates,
    obstruction_cocycle_group,
    pullback_group,
    rb_difference_cocycle_group,
    verify_group_2cocycle,
)
from postrb.postgroup import (
    PostGroup,
    check_rb_group,
    enumerate_rb_operators,
    from_rb_group,
    innerness_witness_group,
    sub_adjacent_group,
)
from postrb.scalars import IntMatrix, solve_linear_congruences

from conftest import (
    inner_postgroups,
    make_d4,
    make_q8,
    make_s3,
    relabel_group,
    relabel_values,
    seeded_relabellings,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def trivial_postgroup(group: FiniteGroup) -> PostGroup:
    n = group.order
    return PostGroup(group, tuple(tuple(range(n)) for _ in range(n)))


def exhaustive_coboundary_oracle(
    cocycle: GroupTwoCocycle, composition
) -> GroupMap | None:
    """Scan all center-valued maps with z(e) = e; guard the search size."""
    g = cocycle.value_group
    n = g.order
    e = g.identity
    candidates = cocycle.center.elements
    assert len(candidates) ** (n - 1) <= 2**20
    slots = [a for a in range(n) if a != e]
    for images in product(candidates, repeat=len(slots)):
        z = [e] * n
        for a, img in zip(slots, images):
            z[a] = img
        ok = True
        for a in range(n):
            for b in range(n):
                expected = g.mul(g.mul(z[a], z[b]), g.inv(z[composition[a][b]]))
                if cocycle.values[a][b] != expected:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return GroupMap(tuple(z))
    return None


def least_coboundary_oracle(
    cocycle: GroupTwoCocycle, composition
) -> GroupMap | None:
    """The center-valued z with z(e) = e and w = dz whose image tuple is
    lexicographically least, by a depth-first search that assigns z(0),
    z(1), ... in index order, tries the central values in increasing order
    and backtracks when a pair with all three slots assigned fails."""
    g = cocycle.value_group
    n, e = g.order, g.identity
    candidates = sorted(cocycle.center.elements)
    z: list[int | None] = [None] * n
    z[e] = e
    order = [a for a in range(n) if a != e]

    def fits(a: int) -> bool:
        for x in range(n):
            for y in range(n):
                xy = composition[x][y]
                if a in (x, y, xy) and None not in (z[x], z[y], z[xy]):
                    if cocycle.values[x][y] != g.mul(g.mul(z[x], z[y]), g.inv(z[xy])):
                        return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return True
        for value in candidates:
            z[order[i]] = value
            if fits(order[i]) and search(i + 1):
                return True
        z[order[i]] = None
        return False

    return GroupMap(tuple(z)) if search(0) else None


def make_cocycle(group, values):
    decomp = abelian_decomposition(group, center_group(group))
    return GroupTwoCocycle(group, tuple(tuple(r) for r in values), decomp)


def full_system_solvable(cocycle: GroupTwoCocycle, composition) -> bool:
    """Reference verdict from every pair: one congruence row per (a, b) with
    a, b != e, (n-1)^2 rows, solved for each invariant factor."""
    g = cocycle.value_group
    e = g.identity
    factors = cocycle.center.invariant_factors
    if not factors:
        return all(v == e for row in cocycle.values for v in row)
    unknowns = [a for a in range(g.order) if a != e]
    slot = {a: k for k, a in enumerate(unknowns)}
    rows, coords = [], []
    for a in unknowns:
        for b in unknowns:
            row = [0] * len(unknowns)
            row[slot[a]] += 1
            row[slot[b]] += 1
            if composition[a][b] != e:
                row[slot[composition[a][b]]] -= 1
            rows.append(row)
            coords.append(cocycle.center.coords[cocycle.values[a][b]])
    system = IntMatrix.from_rows(rows, width=len(unknowns))
    return all(
        solve_linear_congruences(system, [c[k] for c in coords], modulus) is not None
        for k, modulus in enumerate(factors)
    )


def assert_generates(composition, identity, generators):
    n = len(composition)
    assert len(generators) <= int(log2(n))
    reached = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for s in generators:
            if composition[x][s] not in reached:
                reached.add(composition[x][s])
                frontier.append(composition[x][s])
    assert reached == set(range(n))


def solve_checked(cocycle: GroupTwoCocycle, domain: FiniteGroup) -> GroupMap | None:
    """``coboundary_solve_group``, with its verdict checked against the
    full system and its generating set checked to generate."""
    assert verify_group_2cocycle(cocycle, domain)
    assert_generates(domain.table, domain.identity, domain.generators)
    solved = coboundary_solve_group(cocycle, domain)
    assert (solved is not None) == full_system_solvable(cocycle, domain.table)
    return solved


def klein_four() -> FiniteGroup:
    """Z/2 x Z/2 with (a1, a2) at index 2 a1 + a2."""
    return FiniteGroup.from_table(
        [[a ^ b for b in range(4)] for a in range(4)]
    )


# beta(a, b) = (a1 b2, 0) on V4: bilinear, so a 2-cocycle, and not symmetric,
# so no coboundary (on an abelian group every coboundary is symmetric).
V4_BETA = [[2 if a & 2 and b & 1 else 0 for b in range(4)] for a in range(4)]


# carry(a, b) = 1 when a + b wraps past 4 on Z/4: the cocycle of the
# extension Z/16 of Z/4 by Z/4, not a coboundary.
Z4_CARRY = [[1 if a + b >= 4 else 0 for b in range(4)] for a in range(4)]


def coboundary_values(group: FiniteGroup, z, composition):
    """dz(a, b) = z(a) z(b) z(a o b)^-1 for central values z."""
    n = group.order
    return [
        [group.mul(group.mul(z[a], z[b]), group.inv(z[composition[a][b]])) for b in range(n)]
        for a in range(n)
    ]


def random_central_map(rng: random.Random, group: FiniteGroup) -> list[int]:
    center = center_group(group)
    return [
        group.identity if a == group.identity else rng.choice(center)
        for a in range(group.order)
    ]


class TestCocycleComputation:
    def test_trivial_product_gives_trivial_cocycle(self, s3):
        pg = trivial_postgroup(s3)
        w = innerness_witness_group(pg)
        cocycle = obstruction_cocycle_group(pg, w)
        e = s3.identity
        assert all(v == e for row in cocycle.values for v in row)

    def test_s3_conjugation_forced_trivial(self, s3):
        pg = from_rb_group(s3, GroupMap(s3.inverse))
        w = innerness_witness_group(pg)
        cocycle = obstruction_cocycle_group(pg, w)
        e = s3.identity
        assert all(v == e for row in cocycle.values for v in row)

    def test_d4_cocycles_verify_and_solve(self, d4):
        for op in enumerate_rb_operators(d4):
            pg = from_rb_group(d4, op)
            w = innerness_witness_group(pg)
            cocycle = obstruction_cocycle_group(pg, w)
            sub = sub_adjacent_group(pg)
            assert verify_group_2cocycle(cocycle, sub)
            assert coboundary_solve_group(cocycle, sub) is not None

    def test_invalid_witness_rejected(self, s3):
        pg = trivial_postgroup(s3)
        with pytest.raises(ValueError):
            obstruction_cocycle_group(pg, GroupMap(s3.inverse))


class TestRefusals:
    """Malformed cocycles, witnesses and domains are refused by message."""

    def test_cocycle_shape(self, z2):
        with pytest.raises(ValueError, match="shape does not match the group"):
            make_cocycle(z2, [[0, 0]])

    def test_cocycle_value_not_central(self, s3):
        # The center of S3 is trivial, so any other value escapes it.
        e = s3.identity
        values = [[e] * 6 for _ in range(6)]
        a = next(x for x in range(6) if x != e)
        values[a][a] = a
        with pytest.raises(ValueError, match=rf"value at \({a},{a}\) is not central"):
            make_cocycle(s3, values)

    def test_cocycle_not_normalized(self, z2):
        with pytest.raises(ValueError, match="not normalized at the identity"):
            make_cocycle(z2, [[0, 1], [0, 0]])

    def test_witness_size(self, s3):
        pg = trivial_postgroup(s3)
        with pytest.raises(ValueError, match="witness size does not match"):
            obstruction_cocycle_group(pg, GroupMap.constant(5, s3.identity))

    def test_witness_not_normalized(self, s3):
        pg = trivial_postgroup(s3)
        other = next(x for x in range(6) if x != s3.identity)
        with pytest.raises(ValueError, match="witness is not normalized at the identity"):
            obstruction_cocycle_group(pg, GroupMap.constant(6, other))

    def test_domain_order_mismatch(self, z2, z4):
        cocycle = make_cocycle(z2, [[0, 0], [0, 0]])
        with pytest.raises(ValueError, match="domain group order mismatch"):
            verify_group_2cocycle(cocycle, z4)

    @pytest.mark.parametrize("order", [2, 8])
    def test_solve_domain_order_mismatch(self, z4, order):
        # Neither a short map for a smaller domain nor an IndexError for a larger one.
        cocycle = make_cocycle(z4, [[0] * 4 for _ in range(4)])
        with pytest.raises(ValueError, match="domain group order mismatch"):
            coboundary_solve_group(cocycle, cyclic_group(order))


class TestVerify2Cocycle:
    def test_perturbed_cell_fails(self, d4):
        ops = enumerate_rb_operators(d4)
        nontrivial_center = next(
            c for c in center_group(d4) if c != d4.identity
        )
        pg = from_rb_group(d4, ops[0])
        w = innerness_witness_group(pg)
        cocycle = obstruction_cocycle_group(pg, w)
        sub = sub_adjacent_group(pg)
        values = [list(row) for row in cocycle.values]
        a = next(x for x in range(8) if x != d4.identity)
        b = next(x for x in range(8) if x not in (d4.identity, a))
        values[a][b] = d4.mul(values[a][b], nontrivial_center)
        perturbed = make_cocycle(d4, values)
        assert not verify_group_2cocycle(perturbed, sub)


class TestCoboundarySolve:
    def test_extension_cocycle_not_coboundary(self, z2):
        # The 2-cocycle classifying Z/4 as an extension of Z/2 by Z/2:
        # w(1,1) = 1, all other values identity.
        values = [[0, 0], [0, 1]]
        cocycle = make_cocycle(z2, values)
        assert verify_group_2cocycle(cocycle, z2)
        assert coboundary_solve_group(cocycle, z2) is None
        assert exhaustive_coboundary_oracle(cocycle, z2.table) is None

    def test_non_cocycle_is_rejected(self, z4):
        # The generator rows of Z/4 read only w(a, 1); a value off them that
        # breaks the cocycle identity is caught by the cocycle check the
        # solve runs first.
        assert z4.generators == (1,)
        values = [[0] * 4 for _ in range(4)]
        values[2][2] = 2
        cochain = make_cocycle(z4, values)
        assert not verify_group_2cocycle(cochain, z4)
        with pytest.raises(ValueError, match="not a 2-cocycle"):
            coboundary_solve_group(cochain, z4)

    def test_non_cocycle_on_a_generator_row_is_rejected(self):
        # w(2, 1) = 1 on Z/3 sits on the generator row of 1, where the tree
        # congruences already have no solution: the answer must be a
        # refusal, not "class nontrivial".
        z3 = cyclic_group(3)
        assert z3.generators == (1,)
        values = [[0] * 3 for _ in range(3)]
        values[2][1] = 1
        cochain = make_cocycle(z3, values)
        assert not verify_group_2cocycle(cochain, z3)
        with pytest.raises(ValueError, match="not a 2-cocycle"):
            coboundary_solve_group(cochain, z3)

    def test_solver_matches_oracle_on_d4(self, d4):
        for op in enumerate_rb_operators(d4)[:12]:
            pg = from_rb_group(d4, op)
            w = innerness_witness_group(pg)
            cocycle = obstruction_cocycle_group(pg, w)
            sub = sub_adjacent_group(pg)
            solved = coboundary_solve_group(cocycle, sub)
            oracle = exhaustive_coboundary_oracle(cocycle, sub.table)
            assert (solved is None) == (oracle is None)

    def test_solver_matches_oracle_on_klein_four(self):
        # Two invariant factors at once: center of V4 is V4 itself, so the
        # congruence solve serves one right-hand side per Z/2 factor.  The
        # cocycles are dz and dz + beta for random z.
        v4 = klein_four()
        assert abelian_decomposition(v4, center_group(v4)).invariant_factors == (2, 2)
        rng = random.Random(47)
        verdicts = {True: 0, False: 0}
        for _ in range(5):
            dz = coboundary_values(v4, random_central_map(rng, v4), v4.table)
            shifted = [[v4.mul(x, y) for x, y in zip(r, s)] for r, s in zip(dz, V4_BETA)]
            for values, solvable in ((dz, True), (shifted, False)):
                cocycle = make_cocycle(v4, values)
                assert verify_group_2cocycle(cocycle, v4)
                solved = coboundary_solve_group(cocycle, v4)
                oracle = exhaustive_coboundary_oracle(cocycle, v4.table)
                assert (solved is not None) == (oracle is not None) == solvable
                verdicts[solvable] += 1
        assert verdicts[True] >= 4 and verdicts[False] >= 4

    def test_solver_matches_oracle_on_random_z4_cocycles(self, z4):
        # One invariant factor of order 4.  The cocycles are dz and dz + carry
        # for random z; the carry class generates H^2(Z/4, Z/4) = Z/4.
        rng = random.Random(31)
        verdicts = {True: 0, False: 0}
        for _ in range(4):
            dz = coboundary_values(z4, random_central_map(rng, z4), z4.table)
            shifted = [[z4.mul(x, y) for x, y in zip(r, s)] for r, s in zip(dz, Z4_CARRY)]
            for values, solvable in ((dz, True), (shifted, False)):
                cocycle = make_cocycle(z4, values)
                assert verify_group_2cocycle(cocycle, z4)
                solved = coboundary_solve_group(cocycle, z4)
                oracle = exhaustive_coboundary_oracle(cocycle, z4.table)
                assert (solved is not None) == (oracle is not None) == solvable
                verdicts[solvable] += 1
        assert verdicts == {True: 4, False: 4}


class TestGeneratingSetSystem:
    """The tree system on a generating set against the full (n-1)^2 system."""

    @pytest.mark.parametrize("name", ["s3", "d4", "z2", "z4"])
    def test_group_fixtures(self, name, request):
        group = request.getfixturevalue(name)
        for op in enumerate_rb_operators(group):
            pg = from_rb_group(group, op)
            cocycle = obstruction_cocycle_group(pg, innerness_witness_group(pg))
            sub = sub_adjacent_group(pg)
            assert solve_checked(cocycle, sub) is not None

    @pytest.mark.parametrize("name", ["z4", "v4", "q8"])
    def test_random_coboundaries_with_homomorphisms(self, name):
        # On the trivial post-group G o = G; for these groups
        # Hom(G, Z(G)) != 0, so the solution is not unique.
        group = {"z4": lambda: cyclic_group(4), "v4": klein_four, "q8": make_q8}[name]()
        rng = random.Random(3)
        for _ in range(6):
            z = random_central_map(rng, group)
            cocycle = make_cocycle(group, coboundary_values(group, z, group.table))
            assert solve_checked(cocycle, group) is not None

    def test_obstructed_cocycles(self, z2):
        assert solve_checked(make_cocycle(z2, [[0, 0], [0, 1]]), z2) is None
        v4 = klein_four()
        assert solve_checked(make_cocycle(v4, V4_BETA), v4) is None


def elementary_abelian_8() -> FiniteGroup:
    """(Z/2)^3 with (a1, a2, a3) at index 4 a1 + 2 a2 + a3."""
    return FiniteGroup.from_table([[a ^ b for b in range(8)] for a in range(8)])


# Bilinear and not symmetric on (Z/2)^3, so no coboundary, as V4_BETA.
E8_BETA = [[4 if a & 2 and b & 1 else 0 for b in range(8)] for a in range(8)]

# The carry cocycle of the extension Z/36 of Z/6 by Z/6, as Z4_CARRY.
Z6_CARRY = [[1 if a + b >= 6 else 0 for b in range(6)] for a in range(6)]


def z4_times_z2() -> FiniteGroup:
    """Z/4 x Z/2 with (a1, a2) at index 2 a1 + a2."""
    return FiniteGroup.from_table(
        [[(a // 2 + b // 2) % 4 * 2 + (a + b) % 2 for b in range(8)] for a in range(8)]
    )


ABELIAN = {
    "z4": (lambda: cyclic_group(4), Z4_CARRY),
    "v4": (klein_four, V4_BETA),
    "z2^3": (elementary_abelian_8, E8_BETA),
    "z6": (lambda: cyclic_group(6), Z6_CARRY),
}


@pytest.fixture(scope="module")
def censuses():
    from conftest import make_d4, make_q8

    return {"d4": inner_postgroups(make_d4()), "q8": inner_postgroups(make_q8())}


def relabelled_corrections_differ(
    cocycle: GroupTwoCocycle, domain: FiniteGroup, perms
) -> int:
    """Check the canonical correction against the least one found by search,
    in the given labelling and after each relabelling in ``perms``, and that
    the transported correction stays in its coset.  Returns the number of
    relabellings whose canonical correction is not the transported one."""
    solved = solve_checked(cocycle, domain)
    assert solved == least_coboundary_oracle(cocycle, domain.table)
    differ = 0
    for perm in perms:
        group = relabel_group(cocycle.value_group, perm)
        moved = make_cocycle(group, relabel_values(cocycle.values, perm))
        moved_domain = relabel_group(domain, perm)
        canonical = solve_checked(moved, moved_domain)
        assert canonical == least_coboundary_oracle(moved, moved_domain.table)
        if solved is None:
            assert canonical is None
            continue
        transported = [0] * group.order
        for a in range(group.order):
            transported[perm[a]] = perm[solved(a)]
        # Both solve the same equations, so they differ by a homomorphism
        # from the relabelled domain into the center.
        difference = GroupMap(
            tuple(group.mul(canonical(x), group.inv(t)) for x, t in enumerate(transported))
        )
        assert set(difference.images) <= set(center_group(group))
        assert is_group_homomorphism(difference, moved_domain.table, group)
        differ += canonical.images != tuple(transported)
    return differ


class TestCanonicalCorrection:
    """The correction is the least solution by image tuple in every labelling."""

    @pytest.mark.parametrize("name", list(ABELIAN))
    def test_least_on_abelian_groups(self, name):
        # On the trivial post-group G o = G and Hom(G, Z(G)) = Hom(G, G) != 0.
        make, nontrivial = ABELIAN[name]
        group = make()
        rng = random.Random(5)
        perms = seeded_relabellings(group.order, seed=17)
        differ = 0
        for _ in range(3):
            dz = coboundary_values(group, random_central_map(rng, group), group.table)
            differ += relabelled_corrections_differ(make_cocycle(group, dz), group, perms)
        shifted = [[group.mul(x, y) for x, y in zip(r, c)] for r, c in zip(dz, nontrivial)]
        cocycle = make_cocycle(group, shifted)
        assert relabelled_corrections_differ(cocycle, group, perms) == 0
        assert coboundary_solve_group(cocycle, group) is None
        assert differ > 0

    @pytest.mark.parametrize("name, solvable", [("d4", 12), ("q8", 2)])
    def test_least_on_census(self, name, solvable, censuses):
        perms = seeded_relabellings(8, seed=23)
        solved = differ = 0
        for pg in censuses[name]:
            cocycle = obstruction_cocycle_group(pg, innerness_witness_group(pg))
            sub = sub_adjacent_group(pg)
            differ += relabelled_corrections_differ(cocycle, sub, perms)
            solved += coboundary_solve_group(cocycle, sub) is not None
        assert solved == solvable
        assert differ > 0

    def test_every_bilinear_cocycle_on_klein_four(self):
        # A bilinear map V4 x V4 -> V4 is a 2-cocycle, and 4 of the 256 are
        # coboundaries.  The others are refused in both ways: by the tree
        # rows alone (a repeated row with another right-hand side) and by
        # the Smith normal form.  Each is checked against the
        # search in the given labelling and in one relabelling.
        v4 = klein_four()
        perms = seeded_relabellings(4, seed=29, count=1)
        verdicts = {True: 0, False: 0}
        for images in product(range(4), repeat=4):
            m = dict(zip(product((0, 1), repeat=2), images))
            values = [[0] * 4 for _ in range(4)]
            for a, b in product(range(4), repeat=2):
                for (i, j), image in m.items():
                    if a >> i & 1 and b >> j & 1:
                        values[a][b] ^= image
            cocycle = make_cocycle(v4, values)
            relabelled_corrections_differ(cocycle, v4, perms)
            verdicts[coboundary_solve_group(cocycle, v4) is not None] += 1
        assert verdicts == {True: 4, False: 252}

    @pytest.mark.parametrize(
        "make, beta", [(klein_four, V4_BETA), (elementary_abelian_8, E8_BETA)]
    )
    def test_tree_rows_decide_without_smith_form(self, monkeypatch, make, beta):
        # On an abelian group some edges off the tree close walks with as
        # many steps along each generator forwards as backwards: zero rows,
        # and rows that repeat.  Summed around such a commutator walk, a
        # nonsymmetric bilinear cocycle is nonzero, so the class is refused
        # by a repeat with another right-hand side, before any Smith normal
        # form.  This pins the repeat test: without it the conflicting
        # right-hand side would be dropped and the Smith form reached.  The
        # spy sits on the one Smith-form kernel, which every caller runs.
        from postrb import scalars

        def refused(rows, riders, width):
            raise AssertionError("the tree rows should decide the class")

        group = make()
        cocycle = make_cocycle(group, beta)  # decomposes the center by SNF
        monkeypatch.setattr(scalars, "_smith", refused)
        assert coboundary_solve_group(cocycle, group) is None

    @pytest.mark.parametrize("make", [elementary_abelian_8, z4_times_z2])
    def test_walk_fixes_several_values(self, monkeypatch, make):
        # On the trivial post-group G o = G, Hom(G, Z(G)) = Hom(G, G) has
        # rank above one, so the walk fixes several values, and each one
        # diagonalizes the system left by the one before, with that value.
        from postrb import group_obstruction
        from postrb.scalars import _diagonalize

        calls = []

        def counted(rows, rhs, moduli, width):
            calls[-1] += 1
            return _diagonalize(rows, rhs, moduli, width)

        monkeypatch.setattr(group_obstruction, "_diagonalize", counted)
        group = make()
        rng = random.Random(61)
        for _ in range(4):
            dz = coboundary_values(group, random_central_map(rng, group), group.table)
            cocycle = make_cocycle(group, dz)
            calls.append(0)
            solved = coboundary_solve_group(cocycle, group)
            assert solved == least_coboundary_oracle(cocycle, group.table)
        assert max(calls) >= 3

    @pytest.mark.parametrize("make", [elementary_abelian_8, z4_times_z2])
    def test_walk_systems_have_at_most_s_plus_one_rows(self, monkeypatch, make):
        # After the tree rows, each step of the walk diagonalizes the
        # diagonal system it holds, one row D_i y_i per nonzero D_i, plus the
        # one row that fixes the next value: at most |S| + 1 rows, however
        # many tree rows there were.
        from postrb import group_obstruction
        from postrb.scalars import _diagonalize

        shapes = []

        def counted(rows, rhs, moduli, width):
            shapes[-1].append((len(rows), width))
            return _diagonalize(rows, rhs, moduli, width)

        monkeypatch.setattr(group_obstruction, "_diagonalize", counted)
        group = make()
        rng = random.Random(67)
        for _ in range(4):
            dz = coboundary_values(group, random_central_map(rng, group), group.table)
            cocycle = make_cocycle(group, dz)
            shapes.append([])
            solved = coboundary_solve_group(cocycle, group)
            assert solved == least_coboundary_oracle(cocycle, group.table)
            width = shapes[-1][0][1]
            assert len(shapes[-1]) >= 3
            assert all(rows <= width + 1 for rows, _ in shapes[-1][1:])

    def test_smith_forms_have_at_most_s_columns(self, monkeypatch, capsys, censuses):
        # Every Smith normal form of the coboundary solve works on the |S|
        # unknowns z(s), s in the sub-adjacent group's generating set S.
        # The spy sits on the solve's own calls, not on the center's.
        from postrb import group_obstruction
        from postrb.cli import main
        from postrb.scalars import _diagonalize

        widths = []

        def counted(rows, rhs, moduli, width):
            widths.append(width)
            return _diagonalize(rows, rhs, moduli, width)

        monkeypatch.setattr(group_obstruction, "_diagonalize", counted)
        for sample in sorted(SAMPLES.glob("*.postgrp")):
            doc = parse_document(sample.read_text(encoding="utf-8"))
            widths.clear()
            assert main(["group-obstruction", "--input", str(sample)]) == 0
            capsys.readouterr()
            sub = sub_adjacent_group(doc.post_group)
            assert max(widths, default=0) <= len(sub.generators)
        calls = 0
        for pgs in censuses.values():
            for pg in pgs:
                widths.clear()
                try:
                    construct_rb_from_obstruction_group(pg)
                except NontrivialObstructionError:
                    pass
                assert max(widths, default=0) <= len(sub_adjacent_group(pg).generators)
                calls += len(widths)
        assert calls > 0


class TestReconstruction:
    def test_trivial_product_recovers_constant(self, s3):
        result = construct_rb_from_obstruction_group(trivial_postgroup(s3))
        assert result.operator == GroupMap.constant(6, s3.identity)

    def test_conjugation_recovers_inverse(self, s3):
        pg = from_rb_group(s3, GroupMap(s3.inverse))
        result = construct_rb_from_obstruction_group(pg)
        assert result.operator == GroupMap(s3.inverse)

    def test_builds_the_sub_adjacent_group_once(self, monkeypatch):
        from postrb import group_obstruction

        calls = []

        def counted(pg):
            calls.append(pg)
            return sub_adjacent_group(pg)

        monkeypatch.setattr(group_obstruction, "sub_adjacent_group", counted)
        doc = parse_document(
            (SAMPLES / "s3_conjugation.postgrp").read_text(encoding="utf-8")
        )
        result = construct_rb_from_obstruction_group(doc.post_group)
        assert check_rb_group(doc.group, result.operator)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "command, generating_sets, light_tests, conjugation_tables",
        [("group-obstruction", 2, 2, 1), ("check-postgroup", 1, 1, 0)],
    )
    def test_derives_each_groups_data_once(
        self, monkeypatch, capsys, command, generating_sets, light_tests,
        conjugation_tables,
    ):
        # One base group and, for the obstruction, one sub-adjacent group:
        # each finds its generators, runs Light's test and builds its
        # conjugation table at most once.
        from collections import Counter
        from functools import cached_property

        from postrb import group_obstruction, groups, postgroup
        from postrb.cli import main

        calls = Counter()

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        generating_set = counted("generating_set", groups.generating_set)
        for module in (groups, postgroup, group_obstruction):
            if hasattr(module, "generating_set"):
                monkeypatch.setattr(module, "generating_set", generating_set)
        light = counted("light", groups._associativity_failures)
        monkeypatch.setattr(groups, "_associativity_failures", light)
        conjugation = cached_property(
            counted("conjugation", groups.FiniteGroup.conjugation.func)
        )
        conjugation.__set_name__(groups.FiniteGroup, "conjugation")
        monkeypatch.setattr(groups.FiniteGroup, "conjugation", conjugation)

        sample = SAMPLES / "s3_conjugation.postgrp"
        assert main([command, "--input", str(sample)]) == 0
        capsys.readouterr()
        assert calls == Counter(
            generating_set=generating_sets,
            light=light_tests,
            conjugation=conjugation_tables,
        )

    def test_full_d4_roundtrip(self, d4):
        for op in enumerate_rb_operators(d4):
            pg = from_rb_group(d4, op)
            result = construct_rb_from_obstruction_group(pg)
            assert from_rb_group(d4, result.operator).triangle == pg.triangle
            diff = rb_difference_cocycle_group(d4, op, result.operator)
            assert diff is not None

    def test_nontrivial_class_signal(self, d4):
        # Found by scanning all conjugator assignments on D4 (4 of the 16
        # valid inner structures have nonzero class); the oracle below
        # reconfirms unsolvability independently of the congruence solver.
        conjugation = tuple(d4.conjugate(1, b) for b in range(8))
        identity_row = tuple(range(8))
        rows = [identity_row] * 8
        for a in (2, 4, 5, 7):
            rows[a] = conjugation
        pg = PostGroup(d4, tuple(rows))
        from postrb.postgroup import check_postgroup_axioms

        assert check_postgroup_axioms(pg).ok
        w = innerness_witness_group(pg)
        assert w is not None
        cocycle = obstruction_cocycle_group(pg, w)
        sub = sub_adjacent_group(pg)
        assert verify_group_2cocycle(cocycle, sub)
        assert exhaustive_coboundary_oracle(cocycle, sub.table) is None
        with pytest.raises(NontrivialObstructionError):
            construct_rb_from_obstruction_group(pg)


class TestWitnessIndependence:
    def test_two_witnesses_on_d4(self, d4):
        # Multiply a witness by central values: the cocycle ratio must solve.
        nontrivial = next(c for c in center_group(d4) if c != d4.identity)
        op = enumerate_rb_operators(d4)[5]
        pg = from_rb_group(d4, op)
        w1 = innerness_witness_group(pg)
        images = list(w1.images)
        for a in range(8):
            if a != d4.identity and a % 2 == 0:
                images[a] = d4.mul(images[a], nontrivial)
        w2 = GroupMap(tuple(images))
        c1 = obstruction_cocycle_group(pg, w1)
        c2 = obstruction_cocycle_group(pg, w2)
        sub = sub_adjacent_group(pg)
        ratio_values = [
            [d4.mul(c1.values[a][b], d4.inv(c2.values[a][b])) for b in range(8)]
            for a in range(8)
        ]
        ratio = make_cocycle(d4, ratio_values)
        assert verify_group_2cocycle(ratio, sub)
        assert coboundary_solve_group(ratio, sub) is not None


class TestPullback:
    def test_trivial_product_on_abelian(self, z4):
        pg = trivial_postgroup(z4)
        g2 = pullback_group(pg)
        assert g2.order == 16

    def test_conjugation_on_s3(self, s3):
        pg = from_rb_group(s3, GroupMap(s3.inverse))
        assert pullback_group(pg).order == 6

    def test_d4_orders(self, d4):
        for op in enumerate_rb_operators(d4)[:8]:
            pg = from_rb_group(d4, op)
            g2 = pullback_group(pg)
            assert g2.order == 16
            assert check_group(g2)

    def test_embedded_center_stays_central(self, d4):
        # Pairs (e, z) with z central commute with everything, so the
        # pullback's center has at least |Z(G)| elements.
        pg = from_rb_group(d4, enumerate_rb_operators(d4)[3])
        g2 = pullback_group(pg)
        assert len(center_group(g2)) >= len(center_group(d4))


class TestDifferenceCocycle:
    def test_equal_operators(self, s3):
        op = GroupMap(s3.inverse)
        diff = rb_difference_cocycle_group(s3, op, op)
        assert diff == GroupMap.constant(6, s3.identity)

    def test_constructed_pair_on_d4(self, d4):
        # Shift an operator by a sub-adjacent homomorphism into the center.
        base_op = enumerate_rb_operators(d4)[3]
        pg = from_rb_group(d4, base_op)
        sub = sub_adjacent_group(pg)
        z = center_group(d4)
        decomp = abelian_decomposition(d4, z)
        found = None
        for images in product(z, repeat=8):
            candidate = GroupMap(images)
            if candidate(sub.identity) != d4.identity:
                continue
            if any(
                candidate(sub.mul(a, b))
                != d4.mul(candidate(a), candidate(b))
                for a in range(8)
                for b in range(8)
            ):
                continue
            if any(x != d4.identity for x in images):
                found = candidate
                break
        if found is None:
            pytest.skip("no nontrivial central 1-cocycle on this sub-adjacent group")
        shifted = GroupMap(
            tuple(d4.mul(base_op(a), found(a)) for a in range(8))
        )
        assert check_rb_group(d4, shifted)
        diff = rb_difference_cocycle_group(d4, base_op, shifted)
        assert diff == found

    @pytest.mark.parametrize(
        "make, pairs, nontrivial",
        [(make_s3, 8, 0), (make_d4, 288, 232), (make_q8, 32, 24)],
        ids=["s3", "d4", "q8"],
    )
    def test_same_product_operators_differ_by_a_central_cocycle(
        self, make, pairs, nontrivial
    ):
        # Equal triangles make B1(a)^-1 B2(a) central, and then multiplicative
        # for the shared sub-adjacent law; ``rb_difference_cocycle_group``
        # checks neither.
        group = make()
        n = group.order
        by_triangle = {}
        for op in enumerate_rb_operators(group):
            by_triangle.setdefault(from_rb_group(group, op).triangle, []).append(op)
        seen = shifted = 0
        for ops in by_triangle.values():
            sub = sub_adjacent_group(from_rb_group(group, ops[0]))
            for first, second in product(ops, repeat=2):
                z = rb_difference_cocycle_group(group, first, second)
                assert all(
                    group.mul(z(a), b) == group.mul(b, z(a))
                    for a in range(n)
                    for b in range(n)
                )
                assert all(
                    z(sub.mul(a, b)) == group.mul(z(a), z(b))
                    for a in range(n)
                    for b in range(n)
                )
                seen += 1
                shifted += z != GroupMap.constant(n, group.identity)
        assert (seen, shifted) == (pairs, nontrivial)

    def test_different_products_absent(self, s3):
        diff = rb_difference_cocycle_group(
            s3, GroupMap.constant(6, s3.identity), GroupMap(s3.inverse)
        )
        assert diff is None


class TestInnerCensus:
    def _classify(self, group):
        trivial = nontrivial = 0
        for pg in inner_postgroups(group):
            from postrb.postgroup import check_postgroup_axioms

            assert check_postgroup_axioms(pg).ok
            w = innerness_witness_group(pg)
            assert w is not None
            cocycle = obstruction_cocycle_group(pg, w)
            sub = sub_adjacent_group(pg)
            assert verify_group_2cocycle(cocycle, sub)
            solved = solve_checked(cocycle, sub)
            oracle = exhaustive_coboundary_oracle(cocycle, sub.table)
            assert (solved is None) == (oracle is None)
            if solved is None:
                nontrivial += 1
            else:
                trivial += 1
        return trivial, nontrivial

    def test_d4_census(self, d4):
        # 4^8 conjugator assignments leave 16 valid inner structures, 4 of
        # them obstructed; every verdict is double-checked by the oracle.
        assert self._classify(d4) == (12, 4)

    def test_q8_census(self):
        q8 = make_q8()
        assert check_group(q8)
        assert center_group(q8) == (0, 1)
        assert self._classify(q8) == (2, 14)


class TestPipelineTheorems:
    """What the obstruction pipeline takes from the theorem instead of
    rechecking: the canonical witness is normalized and induces the product,
    its defect is a 2-cocycle, and every correction the solve returns
    satisfies w(a,b) = z(a) z(b) z(a o b)^-1 on all n^2 pairs.  The
    pullback is a group of order |G| |Z(G)|."""

    @staticmethod
    def _postgroups(source, request) -> list[PostGroup]:
        if source == "samples":
            return [
                parse_document(path.read_text(encoding="utf-8")).post_group
                for path in sorted(SAMPLES.glob("*.postgrp"))
            ]
        return request.getfixturevalue("censuses")[source]

    @pytest.mark.parametrize("source", ["d4", "q8", "samples"])
    def test_defect_is_a_cocycle_and_corrections_substitute(self, source, request):
        solved = 0
        for pg in self._postgroups(source, request):
            witness = innerness_witness_group(pg)
            # The public entry point refuses a witness that is not normalized
            # or does not induce the product.
            cocycle = obstruction_cocycle_group(pg, witness)
            sub = sub_adjacent_group(pg)
            assert verify_group_2cocycle(cocycle, sub)
            correction = coboundary_solve_group(cocycle, sub)
            if correction is not None:
                solved += 1
                assert coboundary_values(pg.base, correction.images, sub.table) == [
                    list(row) for row in cocycle.values
                ]
        assert solved

    @pytest.mark.parametrize("source", ["d4", "q8", "samples"])
    def test_pullback_is_a_group_of_order_g_times_center(self, source, request):
        # The pairs are closed under the product of the group G o x G, so
        # they form a subgroup, and the conjugators of each a are one coset
        # of Z(G); ``pullback_group`` checks neither.
        for pg in self._postgroups(source, request):
            pullback = pullback_group(pg)
            assert check_group(pullback)
            assert pullback.order == pg.base.order * len(center_group(pg.base))


class TestGroupTower:
    def test_constant_operator_fixes_group(self, s3):
        levels = group_tower_certificates(s3, GroupMap.constant(6, s3.identity), 3)
        assert all(level.table == s3.table for level in levels)

    def test_inverse_operator_alternates(self, s3):
        levels = group_tower_certificates(s3, GroupMap(s3.inverse), 2)
        opposite = tuple(tuple(s3.mul(b, a) for b in range(6)) for a in range(6))
        assert levels[1].table == opposite
        assert levels[2].table == s3.table

    def test_d4_towers_valid(self, d4):
        for op in enumerate_rb_operators(d4)[:6]:
            # Returning at all means the operator is Rota-Baxter on every
            # level and it and the tilde map are homomorphisms one level down.
            levels = group_tower_certificates(d4, op, 3)
            assert len(levels) == 4
            for level in levels:
                assert check_group(level)

    def test_literal_tilde_reading_coincides(self, d4):
        # The two readings of the tilde map are the same function: by
        # induction a o_j B(a) = a o_{j-1} (B(a) o_{j-1} B(a) o_{j-1}
        # B(a)^-1) = a o_{j-1} B(a), down to a * B(a).  So the literal map
        # a -> a * B(a) is the tilde map that every step already requires
        # to be a homomorphism, and needs no check of its own.
        for op in enumerate_rb_operators(d4):
            for level in group_tower_certificates(d4, op, 3):
                for a in range(8):
                    assert level.mul(a, op(a)) == d4.mul(a, op(a))

    def test_rejects_non_rb(self, s3):
        with pytest.raises(NotRotaBaxterError):
            group_tower_certificates(s3, GroupMap.identity(6), 2)
