"""Randomized property suites over generated Rota-Baxter instances.

Instances come from structured families (splittings, central maps, the
worked solvable operator) pushed through random central 1-cocycle shifts
and random basis changes; every instance is re-verified against the
Rota-Baxter identity at generation time.  Seeds are fixed, so runs are
reproducible.
"""

import random

import pytest

from postrb.lie import center, change_basis
from postrb.lie_obstruction import (
    construct_rb_from_obstruction,
    obstruction_cocycle,
    rb_difference_cocycle,
    verify_lie_2cocycle,
)
from postrb.postlie import (
    LinearMap,
    check_postlie_axioms,
    check_rota_baxter,
    from_rota_baxter,
    innerness_witness,
    is_witness,
    sub_adjacent,
)
from postrb.scalars import (
    ExactMatrix,
    gaussian,
    is_zero_vector,
    unit_vector,
    vec_add,
    vec_scale,
    zero_vector,
)
from postrb.tower import next_bracket

from conftest import random_rb_instance


def make_instances(count: int, seed: int):
    rng = random.Random(seed)
    return [random_rb_instance(rng) for _ in range(count)]


INSTANCES = make_instances(120, seed=2024)


class TestRbInducedStructures:
    def test_axioms_always_hold(self):
        for algebra, operator in INSTANCES:
            post = from_rota_baxter(algebra, operator)
            report = check_postlie_axioms(post)
            assert report.ok

    def test_obstruction_pipeline_always_succeeds(self):
        for algebra, operator in INSTANCES:
            post = from_rota_baxter(algebra, operator)
            result = construct_rb_from_obstruction(post)
            assert from_rota_baxter(algebra, result.operator).tc == post.tc

    def test_reconstruction_differs_by_central_cocycle(self):
        for algebra, operator in INSTANCES[:60]:
            post = from_rota_baxter(algebra, operator)
            result = construct_rb_from_obstruction(post)
            difference = rb_difference_cocycle(algebra, operator, result.operator)
            assert difference is not None

    def test_center_subrepresentation_and_trivial_action(self):
        for algebra, operator in INSTANCES:
            post = from_rota_baxter(algebra, operator)
            z = center(algebra)
            n = algebra.dim
            for i in range(n):
                for b in z.basis:
                    image = post.triangle(unit_vector(n, i), b)
                    assert z.contains(image)
                    assert is_zero_vector(image)  # trivial action for induced products

    def test_next_bracket_matches_sub_adjacent_route(self):
        for algebra, operator in INSTANCES:
            direct = next_bracket(algebra, operator)
            via_post = sub_adjacent(from_rota_baxter(algebra, operator))
            assert direct.sc == via_post.sc

    def test_defect_cocycle_always_verifies(self):
        for algebra, operator in INSTANCES[:60]:
            post = from_rota_baxter(algebra, operator)
            witness = innerness_witness(post)
            assert witness is not None
            cochain = obstruction_cocycle(post, witness)
            assert verify_lie_2cocycle(cochain, sub_adjacent(post))


def _oracle_is_witness(post, candidate):
    """[candidate(e_i), e_j] = e_i > e_j on every pair, one bracket per pair."""
    n = post.dim
    return all(
        post.base.bracket(candidate.column(i), unit_vector(n, j)) == post.tc[i][j]
        for i in range(n)
        for j in range(n)
    )


def _oracle_next_entry(algebra, operator, i, j):
    """[Re_i, e_j] + [e_i, Re_j] + [e_i, e_j], bracket by bracket."""
    n = algebra.dim
    return vec_add(
        vec_add(
            algebra.bracket(operator.column(i), unit_vector(n, j)),
            algebra.bracket(unit_vector(n, i), operator.column(j)),
        ),
        algebra.sc[i][j],
    )


def _oracle_next(algebra, operator):
    n = algebra.dim
    return tuple(
        tuple(_oracle_next_entry(algebra, operator, i, j) for j in range(n))
        for i in range(n)
    )


def _oracle_rota_baxter(algebra, operator):
    """[Re_i, Re_j] = R([Re_i, e_j] + [e_i, Re_j] + [e_i, e_j]) for i < j."""
    n = algebra.dim
    return all(
        algebra.bracket(operator.column(i), operator.column(j))
        == operator.apply(_oracle_next_entry(algebra, operator, i, j))
        for i in range(n)
        for j in range(i + 1, n)
    )


def _gaussian_unimodular(n):
    """i * (unit lower) @ (unit upper) with Gaussian-integer entries; det i^n."""
    lower = [
        [1 if r == c else gaussian(1, 1) if r == c + 1 else 0 for c in range(n)]
        for r in range(n)
    ]
    upper = [
        [1 if r == c else gaussian(0, 1) if c == r + 1 else 0 for c in range(n)]
        for r in range(n)
    ]
    product = ExactMatrix.from_rows(lower) @ ExactMatrix.from_rows(upper)
    return product.scale(gaussian(0, 1))


def _elementary(n, a, b):
    return LinearMap.from_rows(
        [[1 if (r, c) == (a, b) else 0 for c in range(n)] for r in range(n)]
    )


class TestRotaBaxterOracle:
    """The table-based checks against the bracket-by-bracket formulas, on the
    seeded instances and on every R + E_ab, in the given basis and after a
    Gaussian-integer change of basis."""

    @pytest.mark.parametrize("complex_basis", [False, True])
    def test_checks_match_bracket_formulas(self, complex_basis):
        verdicts = {True: 0, False: 0}
        witnesses = {True: 0, False: 0}
        for algebra, operator in INSTANCES:
            n = algebra.dim
            if complex_basis:
                transform = _gaussian_unimodular(n)
                algebra = change_basis(algebra, transform)
                operator = LinearMap(transform.inverse() @ operator.matrix @ transform)
            assert _oracle_rota_baxter(algebra, operator)
            assert check_rota_baxter(algebra, operator)
            post = from_rota_baxter(algebra, operator)
            assert _oracle_is_witness(post, operator)
            assert is_witness(post, operator)
            assert next_bracket(algebra, operator).sc == _oracle_next(algebra, operator)
            for a in range(n):
                for b in range(n):
                    shifted = operator + _elementary(n, a, b)
                    verdict = _oracle_rota_baxter(algebra, shifted)
                    verdicts[verdict] += 1
                    assert check_rota_baxter(algebra, shifted) == verdict
                    if verdict:
                        assert next_bracket(algebra, shifted).sc == _oracle_next(
                            algebra, shifted
                        )
                    witness = _oracle_is_witness(post, shifted)
                    witnesses[witness] += 1
                    assert is_witness(post, shifted) == witness
        # Both verdicts occur, so neither comparison is vacuous.
        assert min(verdicts.values()) > 0 and min(witnesses.values()) > 0


class TestSectionIndependence:
    def test_verdict_stable_under_central_perturbation(self):
        rng = random.Random(99)
        for algebra, operator in INSTANCES[:60]:
            post = from_rota_baxter(algebra, operator)
            witness = innerness_witness(post)
            z = center(algebra)
            if z.dim == 0:
                continue
            n = algebra.dim
            columns = []
            for i in range(n):
                col = zero_vector(n)
                for b in z.basis:
                    col = vec_add(col, vec_scale(rng.randint(-2, 2), b))
                columns.append(vec_add(witness.column(i), col))
            shifted = LinearMap.from_columns(columns)
            assert is_witness(post, shifted)
            result = construct_rb_from_obstruction(post, witness=shifted)
            assert from_rota_baxter(algebra, result.operator).tc == post.tc


class TestGroupProperties:
    def test_enumerated_operators_well_behaved(self, s3, z4):
        from postrb.groups import center_group
        from postrb.postgroup import (
            check_postgroup_axioms,
            enumerate_rb_operators,
            from_rb_group,
            sub_adjacent_group,
        )

        for group in (s3, z4):
            z = set(center_group(group))
            for op in enumerate_rb_operators(group):
                pg = from_rb_group(group, op)
                assert check_postgroup_axioms(pg).ok
                sub = sub_adjacent_group(pg)
                for a in range(group.order):
                    for b in range(group.order):
                        assert op(sub.mul(a, b)) == group.mul(op(a), op(b))
                    for c in z:
                        assert pg.triangle[a][c] == c


# The inline group-side formulas the table layer replaced, kept verbatim as
# references: the twisted Rota-Baxter loop, the tower's descended table, the
# witness test and the multiplicativity loop of the difference cocycle.


def _oracle_check_rb_group(group, operator):
    n = group.order
    for a in range(n):
        ba = operator(a)
        for b in range(n):
            twisted = group.mul(a, group.conjugate(ba, b))
            if group.mul(ba, operator(b)) != operator(twisted):
                return False
    return True


def _oracle_descend_table(level, operator):
    n = level.order
    return tuple(
        tuple(level.mul(a, level.conjugate(operator(a), b)) for b in range(n))
        for a in range(n)
    )


def _oracle_induces(pg, mapping):
    g = pg.base
    return all(
        g.conjugate(mapping(a), b) == pg.triangle[a][b]
        for a in range(g.order)
        for b in range(g.order)
    )


def _oracle_multiplicative(group, images, sub):
    n = group.order
    for a in range(n):
        for b in range(n):
            if images[sub.mul(a, b)] != group.mul(images[a], images[b]):
                return False
    return True


class TestGroupTableOracle:
    """The group-side table layer against the inline formulas, on every
    enumerated operator of four groups and on each with one image shifted."""

    def test_table_layer_matches_inline_formulas(self, s3, d4, z2, z4):
        from postrb.groups import GroupMap, is_group_homomorphism
        from postrb.group_obstruction import rb_difference_cocycle_group
        from postrb.postgroup import (
            check_rb_group,
            enumerate_rb_operators,
            from_rb_group,
            induced_triangle,
            sub_adjacent_group,
            sub_adjacent_table,
        )

        counts = {
            kind: {True: 0, False: 0}
            for kind in ("rota-baxter", "induces", "multiplicative")
        }
        for group in (s3, d4, z2, z4):
            n = group.order
            first_with_product = {}
            for op in enumerate_rb_operators(group):
                pg = from_rb_group(group, op)
                sub = sub_adjacent_group(pg)
                first = first_with_product.setdefault(pg.triangle, op)
                diff = rb_difference_cocycle_group(group, first, op)
                assert diff is not None
                assert _oracle_multiplicative(group, diff.images, sub)
                for a in range(-1, n):
                    images = list(op.images)
                    if a >= 0:
                        images[a] = (images[a] + 1) % n
                    candidate = GroupMap(tuple(images))
                    triangle = induced_triangle(group, candidate)
                    table = sub_adjacent_table(group, triangle)
                    assert table == _oracle_descend_table(group, candidate)
                    verdict = _oracle_check_rb_group(group, candidate)
                    assert check_rb_group(group, candidate) == verdict
                    counts["rota-baxter"][verdict] += 1
                    verdict = _oracle_induces(pg, candidate)
                    assert (triangle == pg.triangle) == verdict
                    counts["induces"][verdict] += 1
                    verdict = _oracle_multiplicative(group, images, sub)
                    pg_table = sub_adjacent_table(group, pg.triangle)
                    assert is_group_homomorphism(candidate, pg_table, group) == verdict
                    counts["multiplicative"][verdict] += 1
        # Both verdicts occur, so no comparison is vacuous.
        assert all(min(c.values()) > 0 for c in counts.values()), counts
