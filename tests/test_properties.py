"""Randomized property suites over generated Rota-Baxter instances.

Instances come from structured families (splittings, central maps, the
worked solvable operator) pushed through random central 1-cocycle shifts
and random basis changes; every instance is re-verified against the
Rota-Baxter identity at generation time.  Seeds are fixed, so runs are
reproducible.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from postrb import lie
from postrb.documents import parse_document, render_rb_lie_document
from postrb.lie import (
    Fingerprint,
    LieAlgebra,
    Subspace,
    ad_matrix,
    center,
    change_basis,
    check_jacobi,
    derivations,
    inner_derivations,
    invariant_fingerprint,
    killing_semisimple,
)
from postrb.errors import NotInnerError
from postrb.lie_obstruction import (
    LieTwoCochain,
    coboundary_solve,
    construct_rb_from_obstruction,
    obstruction_cocycle,
    pullback_algebra,
    rb_difference_cocycle,
    verify_lie_2cocycle,
)
from postrb.postlie import (
    LinearMap,
    PostLieAlgebra,
    check_postlie_axioms,
    check_rota_baxter,
    from_rota_baxter,
    induced_table,
    innerness_witness,
    is_homomorphism,
    is_witness,
    sub_adjacent,
)
from postrb.scalars import (
    ONE,
    ZERO,
    ExactMatrix,
    gaussian,
    is_zero_vector,
    nullspace,
    solve_affine,
    unit_vector,
    vec_add,
    zero_vector,
)
from postrb.search import default_catalog, scan_algebra
from postrb.tower import build_tower, next_bracket, tower_report

from conftest import (
    bilinear,
    dense_rref,
    left_columns,
    make_sl2,
    make_sl2_operator,
    matrix_apply,
    random_rb_instance,
    sub_adjacent_reference,
    vec_scale,
    vec_sub,
)


def make_instances(count: int, seed: int):
    rng = random.Random(seed)
    return [random_rb_instance(rng) for _ in range(count)]


INSTANCES = make_instances(120, seed=2024)
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


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
        # Two operators inducing one product differ by a map t into the
        # center that vanishes on the sub-adjacent brackets;
        # ``rb_difference_cocycle`` returns t without checking either.
        nonzero = 0
        for algebra, operator in INSTANCES:
            post = from_rota_baxter(algebra, operator)
            result = construct_rb_from_obstruction(post)
            difference = rb_difference_cocycle(algebra, operator, result.operator)
            n = algebra.dim
            columns = [difference.column(i) for i in range(n)]
            assert all(
                is_zero_vector(algebra.bracket(column, unit_vector(n, j)))
                for column in columns
                for j in range(n)
            )
            sub = sub_adjacent(post).sc
            assert all(
                is_zero_vector(difference.apply(sub[i][j]))
                for i in range(n)
                for j in range(i + 1, n)
            )
            nonzero += any(map(any, columns))
        assert nonzero == 110

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
        # The defect is read off integer rows; each value is also
        # [w(e_i), w(e_j)] - w([e_i, e_j]_sub), bracket by bracket.
        nonzero = 0
        for algebra, operator in INSTANCES[:60]:
            post = from_rota_baxter(algebra, operator)
            witness = innerness_witness(post)
            assert witness is not None
            cochain = obstruction_cocycle(post, witness)
            sub = sub_adjacent(post)
            assert verify_lie_2cocycle(cochain, sub)
            n = algebra.dim
            for i in range(n):
                for j in range(i + 1, n):
                    value = cochain.value(i, j)
                    assert value == tuple(
                        x - y
                        for x, y in zip(
                            algebra.bracket(witness.column(i), witness.column(j)),
                            witness.apply(sub.sc[i][j]),
                        )
                    )
                    nonzero += any(value)
        assert nonzero > 20

    def test_canonical_witness_is_a_witness(self):
        # The witness solve reads [w(e_i), e_j] = e_i > e_j row by row, so
        # ``innerness_witness`` does not recheck its answer.
        for post in _inner_post_lie_algebras():
            witness = innerness_witness(post)
            assert witness is not None
            assert is_witness(post, witness)

    def test_sub_adjacent_bracket_is_lie(self):
        # The post-Lie axioms imply Jacobi for x>y - y>x + [x,y], so
        # ``construct_rb_from_obstruction`` builds it without a check.
        for post in _inner_post_lie_algebras():
            assert check_jacobi(LieAlgebra(sub_adjacent_reference(post.base.sc, post.tc)))

    def test_pullback_has_dimension_dim_plus_dim_center(self):
        # ``pullback_algebra`` reads innerness off its null space N and so
        # does not recheck dim N: the canonical basis vectors of N leading
        # off the first n columns span {0} x Z.
        for post in _inner_post_lie_algebras():
            pullback = pullback_algebra(post)
            assert pullback.dim == post.dim + center(post.base).dim
            assert check_jacobi(pullback)


def _inner_post_lie_algebras() -> list[PostLieAlgebra]:
    """The samples' post-Lie algebras, the first 8 nontrivial Heisenberg
    scan findings and the products of ``INSTANCES``: all inner."""
    posts = [
        parse_document(path.read_text(encoding="utf-8")).post_lie
        for path in sorted(SAMPLES.glob("*.post"))
    ]
    heisenberg = dict(default_catalog())["heisenberg"]
    scan = scan_algebra("heisenberg", heisenberg, max_examples=8)
    assert len(scan.nontrivial_examples) == 8
    posts += [
        PostLieAlgebra(heisenberg, induced_table(heisenberg, finding.witness))
        for finding in scan.nontrivial_examples
    ]
    return posts + [from_rota_baxter(algebra, operator) for algebra, operator in INSTANCES]


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
    i = gaussian(0, 1)
    return ExactMatrix.from_rows([[i * x for x in row] for row in product.entries])


def _elementary(n, a, b, value=1):
    return LinearMap.from_rows(
        [[value if (r, c) == (a, b) else 0 for c in range(n)] for r in range(n)]
    )


def _oracle_homomorphism(mapping, upper, lower):
    """[f(e_i), f(e_j)] = f(upper[i][j]) for i < j, bracket by bracket."""
    n = lower.dim
    return all(
        lower.bracket(mapping.column(i), mapping.column(j)) == mapping.apply(upper[i][j])
        for i in range(n)
        for j in range(i + 1, n)
    )


def _moved(algebra, operator, complex_basis):
    """The pair in the basis of ``_gaussian_unimodular`` when asked."""
    if not complex_basis:
        return algebra, operator
    transform = _gaussian_unimodular(algebra.dim)
    return (
        change_basis(algebra, transform),
        LinearMap(transform.inverse() @ operator.matrix @ transform),
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

    @pytest.mark.parametrize("complex_basis", [False, True])
    def test_checks_match_with_other_denominators(self, complex_basis):
        # The integer checks multiply each side by a product of scales: R/2
        # and R + (i/3) E_ab have denominators the table lacks, and the sl2
        # operator has halves over an integer table.  The homomorphism laws
        # compare L_upper [f e_i, f e_j] with L_f L_lower f(upper_ij): the
        # tower's R + id from each level to the one below, and a transform T
        # of determinant n! from the bracket moved to its basis, where
        # L_upper carries the denominators of T^-1.
        third = gaussian(0, Fraction(1, 3))
        verdicts, laws, factors = Counter(), Counter(), Counter()
        for algebra, operator in [(make_sl2(), make_sl2_operator()), *INSTANCES]:
            algebra, operator = _moved(algebra, operator, complex_basis)
            n = algebra.dim
            halved = LinearMap(
                ExactMatrix.from_rows([[x / 2 for x in row] for row in operator.matrix.entries])
            )
            candidates = [operator, halved] + [
                operator + _elementary(n, a, b, third) for a in range(n) for b in range(n)
            ]
            for candidate in candidates:
                verdict = _oracle_rota_baxter(algebra, candidate)
                verdicts[verdict] += 1
                assert check_rota_baxter(algebra, candidate) == verdict
                if verdict:
                    assert next_bracket(algebra, candidate).sc == _oracle_next(
                        algebra, candidate
                    )
            levels = build_tower(algebra, operator, 3).levels
            shifted = operator.plus_identity()
            laws_to_check = [(shifted, upper, lower) for lower, upper in zip(levels, levels[1:])]
            diagonal = ExactMatrix.from_rows(
                [[r + 1 if r == c else 0 for c in range(n)] for r in range(n)]
            )
            transform = _gaussian_unimodular(n) @ diagonal
            laws_to_check.append(
                (LinearMap(transform), change_basis(algebra, transform), algebra)
            )
            for mapping, upper, lower in laws_to_check:
                for candidate in (mapping, mapping + _elementary(n, 0, n - 1, third)):
                    law = _oracle_homomorphism(candidate, upper.sc, lower)
                    laws[law] += 1
                    assert is_homomorphism(candidate, upper.sc, lower) == law
                    scales = (
                        upper._integer.scale,
                        candidate._integer.scale * lower._integer.scale,
                    )
                    g = gcd(*scales)
                    factors.update(side for side, x in zip("uf", scales) if x != g)
        assert min(verdicts.values()) > 0 and min(laws.values()) > 0
        # Both factors of the law differ from 1 in some cases.
        assert min(factors["u"], factors["f"]) > 100


def _reference_derivation_system(algebra):
    """The derivation equations built entry by entry from the scalars."""
    n = algebra.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = [ZERO] * (n * n)
                for q in range(n):
                    row[k * n + q] = row[k * n + q] + algebra.sc[i][j][q]
                for p in range(n):
                    row[p * n + i] = row[p * n + i] - algebra.sc[p][j][k]
                for p in range(n):
                    row[p * n + j] = row[p * n + j] - algebra.sc[i][p][k]
                rows.append(tuple(row))
    return ExactMatrix(tuple(rows), n * n)


def _reference_killing_form(algebra):
    """K(e_i, e_j) = sum_{k,l} c_il^k c_jk^l from the scalars."""
    sc, n = algebra.sc, algebra.dim
    return ExactMatrix(
        tuple(
            tuple(
                sum((sc[i][l][k] * sc[j][k][l] for k in range(n) for l in range(n)), ZERO)
                for j in range(n)
            )
            for i in range(n)
        ),
        n,
    )


def _reference_series_dims(algebra):
    """The derived and lower central series as ``Subspace`` objects."""
    n, sc = algebra.dim, algebra.sc
    commutator = Subspace.from_spanning(n, [sc[i][j] for i in range(n) for j in range(i + 1, n)])
    steps = (
        lambda basis: [bilinear(sc, u, v) for k, u in enumerate(basis) for v in basis[k + 1 :]],
        lambda basis: [
            bilinear(sc, v, unit_vector(n, q)) for v in basis for q in range(n)
        ],
    )
    found = []
    for step in steps:
        dims, term = [commutator.dim], commutator
        while dims[-1]:
            term = Subspace.from_spanning(n, step(term.basis))
            if term.dim == dims[-1]:
                break
            dims.append(term.dim)
        found.append(tuple(dims))
    return found


def _reference_coefficient_matrix(table):
    """Row k*n + j, column c: table[c][j][k], read off a table of scalars."""
    n = len(table)
    return ExactMatrix(
        tuple(tuple(table[c][j][k] for c in range(n)) for k in range(n) for j in range(n)), n
    )


def _reference_span(vectors, width):
    """The span of vectors of scalars in its canonical basis, the rows of
    their ``dense_rref`` (the scalar reference, which shares no code with
    the integer solve)."""
    if not vectors:
        return Subspace(width, (), ())
    red, pivots = dense_rref(ExactMatrix(tuple(vectors), width))
    return Subspace(width, red.entries[: len(pivots)], pivots)


def _reference_null_space(matrix):
    """The null space of a matrix of scalars in its canonical basis: one
    vector per free column of its ``dense_rref``, spanned again."""
    red, pivots = dense_rref(matrix)
    basis = []
    for f in range(matrix.cols):
        if f not in pivots:
            v = [ZERO] * matrix.cols
            v[f] = ONE
            for r, p in enumerate(pivots):
                v[p] = -red.entries[r][f]
            basis.append(tuple(v))
    return _reference_span(basis, matrix.cols)


def _reference_solution(matrix, rhs):
    """The canonical solution of matrix @ x = rhs (free unknowns zero) off
    the ``dense_rref`` of [matrix | rhs], or None."""
    n = matrix.cols
    augmented = ExactMatrix(tuple(r + (x,) for r, x in zip(matrix.entries, rhs)), n + 1)
    red, pivots = dense_rref(augmented)
    if pivots and pivots[-1] == n:
        return None
    x = [ZERO] * n
    for r, p in enumerate(pivots):
        x[p] = red.entries[r][n]
    return tuple(x)


def _reference_witness(post):
    """Column i of the canonical witness solves C(sc) w_i = column i of
    C(tc), the coefficient matrices read off the tables of scalars."""
    system = _reference_coefficient_matrix(post.base.sc)
    target = _reference_coefficient_matrix(post.tc)
    columns = [_reference_solution(system, target.column(i)) for i in range(post.dim)]
    return None if None in columns else LinearMap.from_columns(columns)


def _reference_pullback(post):
    """The pullback on the scalars: the null space N of [C(tc) | -C(sc)]
    by ``dense_rref``, None unless n of its basis vectors lead in the first
    n columns, else the table of the bracket of sub (+) base on N's basis."""
    n = post.dim
    left = _reference_coefficient_matrix(post.tc).entries
    right = _reference_coefficient_matrix(post.base.sc).entries
    rows = tuple(a + tuple(-x for x in b) for a, b in zip(left, right))
    basis = _reference_null_space(ExactMatrix(rows, 2 * n))
    if sum(lead < n for lead in basis.pivots) < n:
        return None
    sub = sub_adjacent_reference(post.base.sc, post.tc)
    upper = {}
    for a in range(basis.dim):
        for b in range(a + 1, basis.dim):
            va, vb = basis.basis[a], basis.basis[b]
            product = bilinear(sub, va[:n], vb[:n]) + bilinear(post.base.sc, va[n:], vb[n:])
            upper[a, b] = basis.coordinates_of(product)
    return LieAlgebra(lie._alternating(basis.dim, upper))


def _reference_fingerprint(algebra):
    n = algebra.dim
    derived, lower_central = _reference_series_dims(algebra)
    return Fingerprint(
        dim=n,
        center_dim=n - _reference_coefficient_matrix(algebra.sc).rank(),
        killing_rank=_reference_killing_form(algebra).rank(),
        derived_dims=derived,
        lower_central_dims=lower_central,
        derivation_dim=n * n - _reference_derivation_system(algebra).rank(),
    )


class TestFingerprintOracle:
    """The fingerprint's integer ranks against the scalar formulas they
    replaced, on every level of the depth-3 towers of ``INSTANCES`` and of
    the sl2 operator, in the given basis and after a Gaussian-integer change
    of basis."""

    def test_fingerprint_matches_scalar_formulas(self):
        seen = Counter()
        for algebra, operator in [(make_sl2(), make_sl2_operator()), *INSTANCES]:
            for level in build_tower(algebra, operator, 3).levels:
                fingerprint = invariant_fingerprint(level)
                moved = change_basis(level, _gaussian_unimodular(level.dim))
                for each in (level, moved):
                    assert invariant_fingerprint(each) == fingerprint
                    assert _reference_fingerprint(each) == fingerprint
                    assert killing_semisimple(each)[0] == _reference_killing_form(each)
                    assert derivations(each) == _reference_null_space(
                        _reference_derivation_system(each)
                    )
                    coefficients = _reference_coefficient_matrix(each.sc)
                    assert center(each) == _reference_null_space(coefficients)
                seen.update(
                    {
                        ("center", fingerprint.center_dim),
                        ("killing", fingerprint.killing_rank),
                        ("derived", fingerprint.derived_dims),
                        ("lower", fingerprint.lower_central_dims),
                    }
                )
        # No comparison is vacuous: each entry takes several values.
        values = Counter(name for name, _ in seen)
        assert values == {"center": 5, "killing": 3, "derived": 4, "lower": 6}


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


# The formulations that one coefficient matrix and one elimination per
# system replaced, kept as references: the center as the nullspace of the
# stacked ad matrices, the inner derivations from flattened ad matrices,
# the witness solved column by column, the coboundary as one block-diagonal
# (r*C(n,2)) x (r*n) system, the Killing form as traces of matrix products
# and the tower's span certificate as a sum of image subspaces.


def _flat(matrix):
    return tuple(x for row in matrix.entries for x in row)


def _oracle_adjoints(algebra):
    n = algebra.dim
    return [ad_matrix(algebra, unit_vector(n, i)) for i in range(n)]


def _oracle_center(algebra):
    n = algebra.dim
    rows = tuple(row for ad in _oracle_adjoints(algebra) for row in ad.entries)
    return Subspace.from_spanning(n, nullspace(ExactMatrix(rows, n)))


def _oracle_inner_derivations(algebra):
    n = algebra.dim
    return Subspace.from_spanning(n * n, [_flat(ad) for ad in _oracle_adjoints(algebra)])


def _oracle_witness(post):
    n = post.dim
    system = ExactMatrix.from_columns([_flat(ad) for ad in _oracle_adjoints(post.base)])
    columns = []
    for i in range(n):
        target = [post.tc[i][j][k] for k in range(n) for j in range(n)]
        solution = solve_affine(system, target)
        if solution is None:
            return None
        columns.append(solution.particular)
    return LinearMap.from_columns(columns)


def _oracle_coboundary(cochain, sub):
    n = sub.dim
    z = cochain.center_basis
    r = z.dim
    if r == 0:
        zero = not any(any(v) for row in cochain.values for v in row)
        return LinearMap.zero(n) if zero else None
    rows = []
    rhs = []
    for i in range(n):
        for j in range(i + 1, n):
            coords = z.coordinates_of(cochain.value(i, j))
            bracket = sub.sc[i][j]
            for m in range(r):
                row = [0] * (r * n)
                for l in range(n):
                    row[m * n + l] = -bracket[l]
                rows.append(row)
                rhs.append(coords[m])
    system = ExactMatrix.from_rows(rows, width=r * n)
    solution = solve_affine(system, rhs)
    if solution is None:
        return None
    flat = solution.particular
    columns = []
    for l in range(n):
        col = zero_vector(n)
        for m in range(r):
            col = vec_add(col, vec_scale(flat[m * n + l], z.basis[m]))
        columns.append(col)
    return LinearMap.from_columns(columns)


def _oracle_killing(algebra):
    n = algebra.dim
    ads = _oracle_adjoints(algebra)
    form = ExactMatrix.from_rows(
        [
            [sum(((ads[i] @ ads[j]).entries[k][k] for k in range(n)), ZERO) for j in range(n)]
            for i in range(n)
        ],
        width=n,
    )
    return form, form.rank() == n


def _oracle_images_span(operator):
    def image(matrix):
        return Subspace.from_spanning(
            matrix.rows, [matrix.column(j) for j in range(matrix.cols)]
        )

    op = operator.matrix
    left, right = image(op), image(operator.plus_identity().matrix)
    return Subspace.from_spanning(op.rows, left.basis + right.basis).dim == op.rows


def _seeded_basis(rng, n, complex_entries):
    """A unit lower times a unit upper triangular matrix, seeded; det 1."""

    def entry():
        if complex_entries:
            return gaussian(rng.randint(-1, 1), rng.randint(-1, 1))
        return rng.randint(-2, 2)

    lower = [[1 if r == c else entry() if r > c else 0 for c in range(n)] for r in range(n)]
    upper = [[1 if r == c else entry() if c > r else 0 for c in range(n)] for r in range(n)]
    return ExactMatrix.from_rows(lower, width=n) @ ExactMatrix.from_rows(upper, width=n)


def _transport(table, transform, inverse):
    """The table of a bilinear product in the basis given by the columns of
    ``transform``."""
    n = len(table)
    columns = [transform.column(i) for i in range(n)]
    return tuple(
        tuple(matrix_apply(inverse, bilinear(table, columns[i], columns[j])) for j in range(n))
        for i in range(n)
    )


def _heisenberg_plus_line():
    """[e1,e2] = e3 on K^4: the center span{e3, e4} has dimension 2."""
    return LieAlgebra.from_brackets(4, {(0, 1): [0, 0, 1, 0]})


def _linear_system_cases():
    """Lie algebras, post-Lie algebras and Rota-Baxter pairs from the
    catalog, the samples and a few seeded instances, in the given basis."""
    samples = {
        name: parse_document((SAMPLES / name).read_text(encoding="utf-8"))
        for name in ("sl2.lie", "sl2.post", "sl2.rb", "solvable_beta1.post")
    }
    algebras = [algebra for _, algebra in default_catalog()]
    algebras += [samples["sl2.lie"].lie_algebra, _heisenberg_plus_line()]
    pairs = [
        (algebra, operator)
        for algebra in algebras
        for operator in (LinearMap.zero(algebra.dim), -LinearMap.identity(algebra.dim))
    ]
    rb = samples["sl2.rb"]
    pairs.append((rb.lie_algebra, rb.linear_maps["operator"]))
    pairs += INSTANCES[:16]
    posts = [samples["sl2.post"].post_lie, samples["solvable_beta1.post"].post_lie]
    posts += [from_rota_baxter(algebra, operator) for algebra, operator in pairs]
    heisenberg = dict(default_catalog())["heisenberg"]
    scan = scan_algebra("heisenberg", heisenberg, max_examples=4)
    for finding in scan.nontrivial_examples:
        posts.append(PostLieAlgebra(heisenberg, induced_table(heisenberg, finding.witness)))
    # The pre-Lie product e1 > e1 = e1 on the abelian line: its left
    # multiplication is not an inner derivation.
    posts.append(PostLieAlgebra(LieAlgebra.abelian(1), (((gaussian(1),),),)))
    return algebras, pairs, posts


class TestLinearSystemOracle:
    """Center, inner derivations, witness, coboundary, Killing form and the
    span certificate against the formulations they replaced, in the given
    basis, a seeded real basis and a seeded Gaussian basis."""

    @pytest.mark.parametrize("basis", ["given", "real", "gaussian"])
    def test_solves_match_replaced_formulations(self, basis):
        rng = random.Random(31)
        algebras, pairs, posts = _linear_system_cases()

        def transform(n):
            if basis == "given":
                return None
            matrix = _seeded_basis(rng, n, complex_entries=basis == "gaussian")
            return matrix, matrix.inverse()

        def move_algebra(algebra, t):
            return algebra if t is None else change_basis(algebra, t[0])

        def move_map(operator, t):
            return operator if t is None else LinearMap(t[1] @ operator.matrix @ t[0])

        moved_algebras = [move_algebra(a, transform(a.dim)) for a in algebras]
        moved_pairs = []
        for algebra, operator in pairs:
            t = transform(algebra.dim)
            moved_pairs.append((move_algebra(algebra, t), move_map(operator, t)))
        moved_posts = []
        for post in posts:
            t = transform(post.dim)
            base = move_algebra(post.base, t)
            moved_posts.append(
                post if t is None else PostLieAlgebra(base, _transport(post.tc, *t))
            )

        centers = set()
        for algebra in moved_algebras + [post.base for post in moved_posts]:
            assert center(algebra) == _oracle_center(algebra)
            assert inner_derivations(algebra) == _oracle_inner_derivations(algebra)
            assert killing_semisimple(algebra) == _oracle_killing(algebra)
            centers.add(center(algebra).dim)
        assert max(centers) >= 2

        assert check_postlie_axioms(moved_posts[-1]).ok
        inner = {True: 0, False: 0}
        solvable = {True: 0, False: 0}
        ranks = set()

        def compare_coboundary(cochain, sub):
            correction = coboundary_solve(cochain, sub)
            assert correction == _oracle_coboundary(cochain, sub)
            solvable[correction is not None] += 1
            ranks.add(cochain.center_basis.dim)
            return correction

        for post in moved_posts:
            witness = innerness_witness(post)
            assert witness == _oracle_witness(post)
            inner[witness is not None] += 1
            expected = _reference_pullback(post)
            if expected is None:
                with pytest.raises(NotInnerError):
                    pullback_algebra(post)
            else:
                assert pullback_algebra(post) == expected
            if witness is not None:
                compare_coboundary(obstruction_cocycle(post, witness), sub_adjacent(post))

        # Cochains drawn directly: coboundaries -t([x, y]) of a seeded t and
        # seeded alternating cochains, valued in the center of the algebra
        # and in the whole space (r = n).
        for algebra in moved_algebras:
            n = algebra.dim
            for z in (center(algebra), Subspace.full(n)):
                if z.dim == 0:
                    continue

                def central():
                    return reduce(
                        vec_add,
                        (vec_scale(rng.randint(-2, 2), b) for b in z.basis),
                        zero_vector(n),
                    )

                t = LinearMap.from_columns([central() for _ in range(n)])
                coboundary = {
                    (i, j): tuple(-x for x in t.apply(algebra.sc[i][j]))
                    for i in range(n)
                    for j in range(i + 1, n)
                }
                drawn = {(i, j): central() for i in range(n) for j in range(i + 1, n)}
                for values in (coboundary, drawn):
                    cochain = LieTwoCochain.from_pairs(n, z, values)
                    compare_coboundary(cochain, algebra)

        # An obstructed Heisenberg cocycle: [e1, e3] = 0 while the cochain
        # is e3 there, and on (e1, e2, e3) the cyclic sum is zero.
        heisenberg = dict(default_catalog())["heisenberg"]
        cocycle = LieTwoCochain.from_pairs(3, center(heisenberg), {(0, 2): [0, 0, 1]})
        t = transform(3)
        if t is not None:
            heisenberg = change_basis(heisenberg, t[0])
            cocycle = LieTwoCochain(3, center(heisenberg), _transport(cocycle.values, *t))
        assert verify_lie_2cocycle(cocycle, heisenberg)
        assert compare_coboundary(cocycle, heisenberg) is None

        # The tower: its semisimple flags.  The images of R and R+id span
        # the space for every linear map R, so the oracle says so always.
        for algebra, operator in moved_pairs:
            tower = build_tower(algebra, operator, 2)
            report = tower_report(tower)
            assert report.semisimple == tuple(
                _oracle_killing(level)[1] for level in tower.levels
            )
            assert _oracle_images_span(operator)

        assert min(inner.values()) > 0 and min(solvable.values()) > 0
        assert max(ranks) >= 2


# --- The held integer form against the scalar oracles ---------------------

_rationals = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
_scalars = st.builds(gaussian, _rationals, _rationals)


@st.composite
def _antisymmetric_tables(draw, n=None):
    """An antisymmetric table of scalars on K^n, n <= 4, sparse, with mixed
    denominators and complex entries."""
    n = draw(st.integers(min_value=1, max_value=4)) if n is None else n
    entry = st.one_of(st.just(ZERO), _scalars)
    upper = {
        (i, j): tuple(draw(entry) for _ in range(n))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return lie._alternating(n, upper)


@st.composite
def _vectors(draw, n):
    return tuple(draw(st.one_of(st.just(ZERO), _scalars)) for _ in range(n))


@st.composite
def _square_matrices(draw, n=None):
    """An n x n matrix of scalars, n <= 4, sparse, with mixed denominators
    and complex entries."""
    n = draw(st.integers(min_value=0, max_value=4)) if n is None else n
    entry = st.one_of(st.just(ZERO), _scalars)
    return ExactMatrix(tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)), n)


@st.composite
def _invertible(draw, n):
    """A unit lower times a unit upper triangular matrix: determinant 1."""
    lower = [[ONE if r == c else draw(_scalars) if r > c else ZERO for c in range(n)]
             for r in range(n)]
    upper = [[ONE if r == c else draw(_scalars) if c > r else ZERO for c in range(n)]
             for r in range(n)]
    return ExactMatrix.from_rows(lower, width=n) @ ExactMatrix.from_rows(upper, width=n)


def _first_asymmetry(table):
    """The lexicographically first (i, j, k), i <= j, with
    table[i][j][k] != -table[j][i][k], read off the scalars."""
    n = len(table)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if table[i][j][k] != -table[j][i][k]:
                    return i, j, k
    return None


HELD = settings(database=None, derandomize=True, max_examples=40, deadline=None)


class TestHeldIntegerForm:
    """A ``LieAlgebra`` holds integer rows and builds ``sc`` from them; a
    ``PostLieAlgebra`` holds ``tc`` the same way.  Every view, comparison
    and evaluation agrees with the scalar tables and the scalar oracles
    ``bilinear`` and ``left_columns``."""

    @HELD
    @given(_antisymmetric_tables())
    def test_the_view_is_the_table(self, table):
        algebra = LieAlgebra(table)
        assert algebra.sc == table
        # An algebra built from rows builds its view from them.
        assert lie._lie_algebra(algebra._integer).sc == table
        assert lie._scalar_table(algebra._integer) == table

    @HELD
    @given(st.data())
    def test_equality_and_hash_follow_the_scalar_tables(self, data):
        first = data.draw(_antisymmetric_tables())
        n = len(first)
        second = data.draw(st.one_of(st.just(first), _antisymmetric_tables(n)))
        a, b = LieAlgebra(first), LieAlgebra(second)
        assert (a == b) == (first == second)
        if first == second:
            assert hash(a) == hash(b)
        # The same table on a larger scale is the same algebra.
        factor = data.draw(st.integers(min_value=2, max_value=6))
        scaled = lie._IntegerForm(
            factor * a._integer.scale,
            tuple(tuple(lie._times(v, factor) for v in row) for row in a._integer.rows),
        )
        again = lie._lie_algebra(scaled)
        assert again == a and hash(again) == hash(a)

    @HELD
    @given(st.data())
    def test_evaluations_match_the_oracles(self, data):
        table = data.draw(_antisymmetric_tables())
        n = len(table)
        algebra = LieAlgebra(table)
        x, y = data.draw(_vectors(n)), data.draw(_vectors(n))
        assert algebra.bracket(x, y) == bilinear(table, x, y)
        assert ad_matrix(algebra, x) == ExactMatrix.from_columns(left_columns(table, x))
        # The coefficient matrix C(sc), read off the rows inside the solves.
        coefficients = _reference_coefficient_matrix(table)
        assert center(algebra) == _reference_null_space(coefficients)
        columns = [coefficients.column(c) for c in range(n)]
        assert inner_derivations(algebra) == _reference_span(columns, n * n)
        products = tuple(tuple(data.draw(_vectors(n)) for _ in range(n)) for _ in range(n))
        post = PostLieAlgebra(algebra, products)
        assert post.triangle(x, y) == bilinear(products, x, y)
        assert lie._scalar_table(post._integer) == products
        assert innerness_witness(post) == _reference_witness(post)
        # An induced product has a witness, so its solution is compared too.
        w = LinearMap.from_columns([data.draw(_vectors(n)) for _ in range(n)])
        inner = PostLieAlgebra(algebra, induced_table(algebra, w))
        witness = innerness_witness(inner)
        assert witness is not None and witness == _reference_witness(inner)
        transform = data.draw(_invertible(n))
        moved = change_basis(algebra, transform)
        assert moved.sc == _transport(table, transform, transform.inverse())

    @HELD
    @given(st.data())
    def test_a_table_that_is_not_antisymmetric_is_refused(self, data):
        table = [[list(v) for v in row] for row in data.draw(_antisymmetric_tables())]
        n = len(table)
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        j = data.draw(st.integers(min_value=i, max_value=n - 1))
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        table[i][j][k] = table[i][j][k] + data.draw(_scalars.filter(bool))
        table = tuple(tuple(tuple(v) for v in row) for row in table)
        message = r"^structure constants not antisymmetric at \(%d,%d,%d\)$" % (
            _first_asymmetry(table)
        )
        with pytest.raises(ValueError, match=message):
            LieAlgebra(table)

    @HELD
    @given(st.data())
    def test_linear_maps_hold_integer_columns(self, data):
        # A map built from scalars and one built from integer columns (a
        # parsed 'row' block, or the same columns on a larger scale) are the
        # same map; the arithmetic on columns agrees with the entrywise
        # arithmetic of the matrices of scalars.
        matrix = data.draw(_square_matrices())
        n = matrix.rows
        first = LinearMap(matrix)
        factor = data.draw(st.integers(min_value=2, max_value=6))
        scale, columns = first._integer
        larger = lie._IntegerForm(factor * scale, tuple(lie._times(c, factor) for c in columns))
        same = [
            LinearMap.from_columns([matrix.column(j) for j in range(n)]),
            lie._held(LinearMap, _integer=lie._least_vectors(larger)),
        ]
        if n:
            same.append(LinearMap.from_rows(matrix.entries))
            text = render_rb_lie_document(LieAlgebra.abelian(n), first)
            same.append(parse_document(text).linear_maps["operator"])
        for other in same:
            assert other == first and hash(other) == hash(first)
            assert other.matrix == matrix
        second_matrix = data.draw(st.one_of(st.just(matrix), _square_matrices(n)))
        second = LinearMap(second_matrix)
        assert (first == second) == (matrix == second_matrix)

        def entrywise(rows):
            return ExactMatrix(tuple(map(tuple, rows)), n)

        pairs = list(zip(matrix.entries, second_matrix.entries))
        assert (first + second).matrix == entrywise(vec_add(r, s) for r, s in pairs)
        assert (first - second).matrix == entrywise(vec_sub(r, s) for r, s in pairs)
        assert (-first).matrix == entrywise(tuple(-x for x in r) for r in matrix.entries)
        assert first.plus_identity().matrix == entrywise(
            vec_add(r, unit_vector(n, i)) for i, r in enumerate(matrix.entries)
        )
        x = data.draw(_vectors(n))
        assert first.apply(x) == matrix_apply(matrix, x)
        assert [first.column(j) for j in range(n)] == [matrix.column(j) for j in range(n)]
