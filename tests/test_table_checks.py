"""The group-side table checks that test a generating set, against triple loops.

``group_violations``, ``check_postgroup_axioms`` and ``verify_group_2cocycle``
decide a valid input by testing each identity at the elements of a
generating set, and run the same test at every element only to report a
failure.  The oracles here are independent brute-force loops over all n^3
triples.
"""

import random
import time
from itertools import islice, product
from pathlib import Path

import pytest

from postrb import group_obstruction, groups, postgroup
from postrb.cli import main
from postrb.errors import NontrivialObstructionError
from postrb.groups import (
    AbelianDecomposition,
    FiniteGroup,
    abelian_decomposition,
    center_group,
    cyclic_group,
    group_violations,
)
from postrb.group_obstruction import (
    GroupTwoCocycle,
    construct_rb_from_obstruction_group,
    obstruction_cocycle_group,
    verify_group_2cocycle,
)
from postrb.postgroup import (
    PostGroup,
    PostGroupReport,
    check_postgroup_axioms,
    innerness_witness_group,
    sub_adjacent_group,
)

from conftest import group_from_perms, inner_postgroups, make_d4, make_q8, make_s3

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# A loop of order 5: 0 is a two-sided identity and every element is its own
# inverse, but the product is not associative.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    m = h.order
    size = g.order * m
    return FiniteGroup.from_table(
        [
            [g.mul(a // m, b // m) * m + h.mul(a % m, b % m) for b in range(size)]
            for a in range(size)
        ]
    )


def catalog() -> dict[str, FiniteGroup]:
    return {
        "Z1": cyclic_group(1),
        "Z2": cyclic_group(2),
        "Z8": cyclic_group(8),
        "S3": make_s3(),
        "D4": make_d4(),
        "Q8": make_q8(),
        "D6": group_from_perms([(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)]),
        "A4": group_from_perms([(1, 2, 0, 3), (0, 2, 3, 1)]),
        "S4": group_from_perms([(1, 0, 2, 3), (1, 2, 3, 0)]),
        "Z2xZ4": direct_product(cyclic_group(2), cyclic_group(4)),
        "S3xZ2": direct_product(make_s3(), cyclic_group(2)),
    }


CATALOG = catalog()


def swapped(group: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """The table with two entries of one row exchanged, other fields kept."""
    n = group.order
    table = [list(row) for row in group.table]
    row = rng.randrange(n)
    j, k = rng.sample(range(n), 2)
    table[row][j], table[row][k] = table[row][k], table[row][j]
    return FiniteGroup(tuple(map(tuple, table)), group.identity, group.inverse)


def violations_oracle(group: FiniteGroup, limit: int) -> tuple[str, ...]:
    n, t, e = group.order, group.table, group.identity
    out = [f"identity fails at element {b}" for b in range(n) if t[e][b] != b or t[b][e] != b]
    out += [
        f"inverse fails at element {a}"
        for a, b in enumerate(group.inverse)
        if t[a][b] != e or t[b][a] != e
    ]
    triples = (
        f"associativity fails at triple ({a},{b},{c})"
        for a, b, c in product(range(n), repeat=3)
        if t[t[a][b]][c] != t[a][t[b][c]]
    )
    return tuple(out + list(islice(triples, max(0, limit - len(out)))))


def postgroup_oracle(pg: PostGroup) -> PostGroupReport:
    n, t, tri = pg.order, pg.base.table, pg.triangle
    triples = list(product(range(n), repeat=3))
    return PostGroupReport(
        tuple(a for a in range(n) if sorted(tri[a]) != list(range(n))),
        tuple(
            (a, b, c)
            for a, b, c in triples
            if tri[a][t[b][c]] != t[tri[a][b]][tri[a][c]]
        ),
        tuple(
            (a, b, c)
            for a, b, c in triples
            if tri[t[a][tri[a][b]]][c] != tri[a][tri[b][c]]
        ),
    )


def cocycle_oracle(cocycle: GroupTwoCocycle, composition) -> bool:
    t, w = cocycle.value_group.table, cocycle.values
    return all(
        t[w[b][c]][w[a][composition[b][c]]] == t[w[a][b]][w[composition[a][b]][c]]
        for a, b, c in product(range(cocycle.order), repeat=3)
    )


@pytest.fixture(scope="module")
def census() -> list[PostGroup]:
    """The 16 inner post-groups on D4 and the 16 on Q8."""
    return inner_postgroups(make_d4()) + inner_postgroups(make_q8())


def perturbed(pg: PostGroup, rng: random.Random) -> PostGroup:
    n = pg.order
    rows = [list(row) for row in pg.triangle]
    a, b = rng.randrange(n), rng.randrange(n)
    rows[a][b] = rng.choice([x for x in range(n) if x != rows[a][b]])
    return PostGroup.from_table(pg.base, rows)


def make_cocycle(group: FiniteGroup, values) -> GroupTwoCocycle:
    decomposition = abelian_decomposition(group, center_group(group))
    return GroupTwoCocycle(group, tuple(map(tuple, values)), decomposition)


class TestGroupViolations:
    @pytest.mark.parametrize("limit", [1, 10])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_and_swapped_tables(self, name, limit):
        group = CATALOG[name]
        assert group_violations(group, limit=limit) == ()
        rng = random.Random(name)
        for _ in range(4 if group.order > 1 else 0):
            broken = swapped(group, rng)
            expected = violations_oracle(broken, limit)
            assert expected
            assert group_violations(broken, limit=limit) == expected

    @pytest.mark.parametrize("limit", [1, 10])
    def test_loop_with_identity_and_inverses(self, limit):
        loop = FiniteGroup.from_table(LOOP5)
        problems = group_violations(loop, limit=limit)
        assert problems == violations_oracle(loop, limit)
        assert len(problems) == limit
        assert problems[0] == "associativity fails at triple (1,1,2)"

    def test_loop_whose_first_generator_associates(self):
        # In LOOP5 x Z2 the first generator (e, 1) passes Light's test; the
        # second does not.
        product_loop = direct_product(FiniteGroup.from_table(LOOP5), cyclic_group(2))
        for limit in (1, 10):
            problems = group_violations(product_loop, limit=limit)
            assert problems
            assert problems == violations_oracle(product_loop, limit)

    def test_wrong_inverse_field(self, d4):
        shifted = d4.inverse[1:] + d4.inverse[:1]
        broken = FiniteGroup(d4.table, d4.identity, shifted)
        assert group_violations(broken) == violations_oracle(broken, 10)


class TestPostGroupAxioms:
    def test_census(self, census):
        assert len(census) == 32
        for pg in census:
            report = check_postgroup_axioms(pg)
            assert report.ok
            assert report == postgroup_oracle(pg)

    def test_perturbed_census(self, census):
        rng = random.Random(5)
        for pg in census:
            broken = perturbed(pg, rng)
            report = check_postgroup_axioms(broken)
            assert not report.ok
            assert report == postgroup_oracle(broken)

    def test_loop_base(self):
        loop = FiniteGroup.from_table(LOOP5)
        rng = random.Random(7)
        triangles = [
            [list(range(5))] * 5,
            [[0, 2, 1, 4, 3]] * 5,
            [rng.sample(range(5), 5) for _ in range(5)],
            [[rng.randrange(5) for _ in range(5)] for _ in range(5)],
        ]
        for rows in triangles:
            pg = PostGroup.from_table(loop, rows)
            assert check_postgroup_axioms(pg) == postgroup_oracle(pg)

    def test_every_generator_is_tested(self, s3):
        # L respects products with the first generator 1 of S3 and passes the
        # weighted identity at both generators 1, 2, but is no endomorphism.
        pg = PostGroup.from_table(s3, [[0, 1, 2, 0, 4, 1]] * 6)
        report = check_postgroup_axioms(pg)
        assert not report.ok
        assert report == postgroup_oracle(pg)

    @pytest.mark.parametrize(
        "table",
        [[[0, 1, 2], [1, 1, 1], [2, 1, 1]], [[0, 1, 2], [1, 1, 1], [2, 2, 1]]],
        ids=["monoid", "non-associative"],
    )
    def test_non_group_base_with_identity(self, table):
        # The triangle passes both identities at the generators 1, 2; the
        # closure argument fails because the base is not a group.
        base = FiniteGroup.from_table(table, strict=False)
        pg = PostGroup.from_table(base, [[0, 1, 1], [0, 1, 1], [1, 1, 1]])
        report = check_postgroup_axioms(pg)
        assert not report.ok
        assert report == postgroup_oracle(pg)

    def test_base_without_identity(self, s3):
        table = [row[1:] + row[:1] for row in s3.table]
        base = FiniteGroup.from_table(table, strict=False)
        pg = PostGroup.from_table(base, [list(range(6))] * 6)
        assert check_postgroup_axioms(pg) == postgroup_oracle(pg)


class TestVerifyCocycle:
    def test_census_defects(self, census):
        for pg in census:
            cocycle = obstruction_cocycle_group(pg, innerness_witness_group(pg))
            sub = sub_adjacent_group(pg)
            assert verify_group_2cocycle(cocycle, sub)
            assert cocycle_oracle(cocycle, sub.table)

    def test_perturbed_defects(self, census):
        rng = random.Random(11)
        for pg in census:
            g = pg.base
            cocycle = obstruction_cocycle_group(pg, innerness_witness_group(pg))
            sub = sub_adjacent_group(pg)
            central = [z for z in center_group(g) if z != g.identity]
            values = [list(row) for row in cocycle.values]
            a, b = rng.sample([x for x in range(g.order) if x != g.identity], 2)
            values[a][b] = g.mul(values[a][b], rng.choice(central))
            broken = make_cocycle(g, values)
            assert verify_group_2cocycle(broken, sub) == cocycle_oracle(
                broken, sub.table
            )

    @pytest.mark.parametrize(
        "composition",
        [
            LOOP5,
            [[(a - b) % 5 for b in range(5)] for a in range(5)],  # no left identity
            [[0] * 5 for _ in range(5)],  # no identity at all
        ],
        ids=["loop", "subtraction", "constant"],
    )
    def test_non_group_compositions(self, composition):
        z5 = cyclic_group(5)
        rng = random.Random(3)
        value_tables = [
            [[0] * 5 for _ in range(5)],
            [[(a * b) % 5 for b in range(5)] for a in range(5)],
        ]
        for _ in range(20):
            value_tables.append(
                [[0] * 5]
                + [[0] + [rng.randrange(5) for _ in range(4)] for _ in range(4)]
            )
        for values in value_tables:
            cocycle = make_cocycle(z5, values)
            domain = FiniteGroup.from_table(composition, strict=False)
            assert verify_group_2cocycle(cocycle, domain) == cocycle_oracle(
                cocycle, composition
            )


    def test_every_generator_is_tested(self):
        # On V4 = <1, 2> this cochain satisfies the identity at c = 1 only.
        v4 = FiniteGroup.from_table([[a ^ b for b in range(4)] for a in range(4)])
        cocycle = make_cocycle(v4, [[0] * 4, [0] * 4, [0] * 4, [0, 0, 1, 1]])
        assert not cocycle_oracle(cocycle, v4.table)
        assert not verify_group_2cocycle(cocycle, v4)

    @pytest.mark.parametrize(
        "value_table, values",
        [
            (
                make_s3().table,
                [
                    [0, 0, 0, 0, 0, 0],
                    [0, 0, 0, 1, 2, 3],
                    [0, 0, 1, 3, 1, 3],
                    [0, 1, 3, 0, 1, 3],
                    [0, 2, 1, 1, 0, 5],
                    [0, 3, 3, 3, 2, 1],
                ],
            ),
            (
                [
                    [0, 1, 2, 3, 4, 5],
                    [1, 0, 3, 2, 5, 4],
                    [2, 3, 4, 5, 0, 1],
                    [3, 2, 5, 4, 1, 0],
                    [4, 5, 0, 1, 3, 2],
                    [5, 4, 1, 0, 2, 3],
                ],
                [
                    [0, 0, 0, 0, 0, 0],
                    [0, 0, 0, 0, 2, 4],
                    [0, 0, 0, 2, 0, 4],
                    [0, 0, 2, 0, 0, 4],
                    [0, 2, 0, 0, 0, 4],
                    [0, 4, 4, 4, 4, 2],
                ],
            ),
        ],
        ids=["non-commuting-values", "commutative-loop-values"],
    )
    def test_values_outside_an_abelian_group(self, value_table, values):
        # Both satisfy the identity at the generator 1 of Z6 but not at every
        # c: the closure argument needs values in an abelian group.  The
        # decomposition is taken on trust, so nothing else rejects them.
        everything = AbelianDecomposition(
            tuple(range(6)), (6,), {a: (a,) for a in range(6)}, {(a,): a for a in range(6)}
        )
        cocycle = GroupTwoCocycle(
            FiniteGroup.from_table(value_table), tuple(map(tuple, values)), everything
        )
        z6 = cyclic_group(6)
        assert not cocycle_oracle(cocycle, z6.table)
        assert not verify_group_2cocycle(cocycle, z6)


class TestQuickPathOnValidInput:
    """Valid inputs are decided on a generating set: a kernel is handed every
    element only to report a failure."""

    @pytest.fixture
    def full_sets(self, monkeypatch):
        """The kernels' calls whose tested elements are all elements, by name."""
        full = []

        def spy(module, name, position, order):
            kernel = getattr(module, name)

            def wrapper(*args):
                args = list(args)
                args[position] = tested = tuple(args[position])
                if tested == tuple(range(order(args[0]))):
                    full.append(name)
                return kernel(*args)

            monkeypatch.setattr(module, name, wrapper)

        spy(groups, "_associativity_failures", 1, len)
        spy(postgroup, "_automorphism_failures", 1, lambda pg: pg.order)
        spy(postgroup, "_weighted_failures", 1, lambda pg: pg.order)
        spy(group_obstruction, "_cocycle_identity_holds_at", 2, lambda w: w.order)
        return full

    @pytest.mark.parametrize(
        "command, sample",
        [
            ("check-group", "d4.grp"),
            ("check-postgroup", "s3_conjugation.postgrp"),
            ("group-obstruction", "s3_conjugation.postgrp"),
            ("group-tower", "s3_inverse.rbgrp"),
            ("group-tower", "s3_trivial.rbgrp"),
            ("enumerate-rb", "s3.grp"),
        ],
    )
    def test_samples(self, full_sets, capsys, command, sample):
        assert main([command, "--input", str(SAMPLES / sample)]) == 0
        capsys.readouterr()
        assert full_sets == []

    def test_census_pipeline(self, full_sets, census):
        obstructed = 0
        for pg in census:
            assert check_postgroup_axioms(pg).ok
            try:
                construct_rb_from_obstruction_group(pg)
            except NontrivialObstructionError:
                obstructed += 1
        assert obstructed == 4 + 14
        assert full_sets == []

    def test_failures_reach_every_element(self, full_sets, d4, census):
        group_violations(swapped(d4, random.Random(1)))
        assert set(full_sets) == {"_associativity_failures"}
        full_sets.clear()
        check_postgroup_axioms(perturbed(census[0], random.Random(1)))
        assert set(full_sets) == {"_automorphism_failures", "_weighted_failures"}
        full_sets.clear()
        loop = FiniteGroup.from_table(LOOP5)
        verify_group_2cocycle(make_cocycle(cyclic_group(5), [[0] * 5] * 5), loop)
        assert full_sets == ["_cocycle_identity_holds_at"]


def test_first_violation_of_a_large_loop_is_found_lazily():
    # LOOP5 x Z40 (order 200) first fails at (40,40,80); the report stops
    # there instead of testing all 200^3 triples.
    loop = direct_product(FiniteGroup.from_table(LOOP5), cyclic_group(40))
    start = time.perf_counter()
    problems = group_violations(loop, limit=1)
    elapsed = time.perf_counter() - start
    assert problems == ("associativity fails at triple (40,40,80)",)
    assert elapsed < 0.5
