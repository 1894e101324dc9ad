"""Lie algebra core: axioms, center, derivations, Killing form, fingerprints.

Expected dimensions are hand-derived: the simple example has zero center
and three inner derivations, the solvable one ([e1,e2]=e2) has center
span{e3} and degenerate Killing form.
"""

import random
from itertools import combinations

import pytest

from postrb.lie import (
    LieAlgebra,
    Subspace,
    _alternating,
    ad_matrix,
    center,
    change_basis,
    check_jacobi,
    derivations,
    inner_derivations,
    invariant_fingerprint,
    is_complete,
    jacobi_violations,
    killing_semisimple,
)
from postrb.scalars import I, ExactMatrix, gaussian, unit_vector, vector

from conftest import (
    bilinear,
    make_half_solvable,
    make_sl2,
    make_solvable,
    reference_cyclic_failures,
    zero_matrix,
)


class TestConstruction:
    def test_antisymmetry_enforced(self):
        with pytest.raises(ValueError):
            LieAlgebra.from_table(
                [
                    [[0, 0], [1, 0]],
                    [[1, 0], [0, 0]],
                ]
            )

    @pytest.mark.parametrize(
        "bad, named",
        [
            # The lexicographically first bad triple is named, whichever of
            # the pair (i, j) or (j, i) was written wrong.
            ({(1, 1, 0): 1, (0, 2, 1): 2}, (0, 2, 1)),
            ({(2, 0, 1): 1, (1, 2, 0): 1}, (0, 2, 1)),
            ({(1, 1, 2): 1, (1, 2, 0): 1}, (1, 1, 2)),
        ],
    )
    def test_antisymmetry_error_names_first_bad_triple(self, bad, named):
        table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        for (i, j, k), x in bad.items():
            table[i][j][k] = x
        message = r"not antisymmetric at \(%d,%d,%d\)$" % named
        with pytest.raises(ValueError, match=message):
            LieAlgebra.from_table(table)

    def test_from_brackets_fills_mirror(self):
        algebra = make_solvable()
        assert algebra.sc[1][0] == vector([0, -1, 0])

    def test_bracket_bilinear(self):
        algebra = make_sl2()
        x = vector([1, 2, 0])
        y = vector([0, 1, 3])
        # [e1 + 2e2, e2 + 3e3] = e3 + 3[e1,e3] + 2*3 [e2,e3] = 6e1 - 3e2 + e3
        assert algebra.bracket(x, y) == vector([6, -3, 1])

    @pytest.mark.parametrize(
        "x, y", [([1, 0, 0, 7], [0, 1, 0, 9]), ([1, 0], [0, 1, 0]), ([1, 0, 0], [0, 1])]
    )
    def test_bracket_refuses_wrong_length(self, x, y):
        # Extra coordinates are not dropped, missing ones are not an IndexError.
        with pytest.raises(ValueError, match="vector has wrong length"):
            make_sl2().bracket(x, y)

    def test_alternating_mirrors_given_pairs(self):
        a, b = vector([1, I, 0]), vector([0, gaussian("1/2"), -3])
        table = _alternating(3, {(0, 1): a, (1, 2): b})
        assert table[0][1] == a and table[1][2] == b
        assert table[1][0] == vector([-1, -I, 0])
        assert table[2][1] == vector([0, gaussian("-1/2"), 3])
        zero = vector([0, 0, 0])
        assert [table[i][i] for i in range(3)] == [zero] * 3
        assert table[0][2] == table[2][0] == zero
        assert _alternating(0, {}) == ()


class TestJacobi:
    def test_abelian(self):
        assert check_jacobi(LieAlgebra.abelian(3))

    def test_sl2(self, sl2):
        assert check_jacobi(sl2)

    def test_affine_plane(self):
        # [e1,e2] = e1 satisfies Jacobi: the cyclic sum telescopes to zero.
        algebra = LieAlgebra.from_brackets(3, {(0, 1): [1, 0, 0]})
        assert check_jacobi(algebra)

    def test_violating_table_reported(self):
        # [e1,e2]=e3, [e1,e3]=e1 breaks the (1,2,3) triple:
        # [[e1,e2],e3]+[[e2,e3],e1]+[[e3,e1],e2] = [e3,e3]+0-[e1,e2] = -e3.
        algebra = LieAlgebra.from_brackets(
            3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]}
        )
        assert jacobi_violations(algebra) == ((0, 1, 2),)

    @pytest.mark.parametrize("delta", [gaussian("1/3"), gaussian("1/3", "2/3")])
    def test_mixed_denominators_match_bilinear(self, delta):
        # Brackets with 1/2 entries, each pair entry moved by a third.
        algebra = make_half_solvable()
        assert {x.d for row in algebra.sc for v in row for x in v} == {1, 2}
        assert jacobi_violations(algebra) == () == reference_cyclic_failures(
            algebra.sc, algebra.sc
        )
        failing = 0
        for i, j in combinations(range(4), 2):
            for k in range(4):
                table = [[list(v) for v in row] for row in algebra.sc]
                table[i][j][k] = table[i][j][k] + delta
                table[j][i][k] = table[j][i][k] - delta
                perturbed = LieAlgebra.from_table(table)
                violations = jacobi_violations(perturbed)
                reference = reference_cyclic_failures(perturbed.sc, perturbed.sc)
                assert violations == reference, (i, j, k)
                failing += bool(violations)
        assert failing > 12


class TestAdjoint:
    def test_zero_vector(self, sl2):
        assert ad_matrix(sl2, [0, 0, 0]) == zero_matrix(3, 3)

    def test_sl2_e1(self, sl2):
        # e2 -> e3, e3 -> -e2, e1 -> 0.
        expected = ExactMatrix.from_columns([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
        assert ad_matrix(sl2, unit_vector(3, 0)) == expected

    def test_solvable_e1(self, solvable):
        expected = ExactMatrix.from_columns([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert ad_matrix(solvable, unit_vector(3, 0)) == expected


class TestCenter:
    def test_abelian_full(self):
        assert center(LieAlgebra.abelian(3)).dim == 3

    def test_sl2_trivial(self, sl2):
        assert center(sl2).dim == 0

    def test_solvable_span_e3(self, solvable):
        z = center(solvable)
        assert z.dim == 1
        assert z.basis == (vector([0, 0, 1]),)


class TestDerivations:
    def test_abelian_all_matrices(self):
        assert derivations(LieAlgebra.abelian(2)).dim == 4

    def test_sl2_all_inner(self, sl2):
        assert derivations(sl2).dim == 3
        assert inner_derivations(sl2).dim == 3

    def test_solvable_contains_ad(self, solvable):
        der = derivations(solvable)
        for i in range(3):
            ad = ad_matrix(solvable, unit_vector(3, i))
            assert der.contains([x for row in ad.entries for x in row])

    def test_inner_contained_in_derivations(self, sl2, solvable, heisenberg):
        for algebra in (sl2, solvable, heisenberg):
            der = derivations(algebra)
            assert all(der.contains(b) for b in inner_derivations(algebra).basis)

    def test_abelian_inner_trivial(self):
        assert inner_derivations(LieAlgebra.abelian(3)).dim == 0

    def test_inner_dimension_formula(self, sl2, solvable, heisenberg):
        for algebra in (sl2, solvable, heisenberg, LieAlgebra.abelian(2)):
            assert (
                inner_derivations(algebra).dim
                == algebra.dim - center(algebra).dim
            )


class TestKilling:
    def test_abelian_zero_form(self):
        form, flag = killing_semisimple(LieAlgebra.abelian(2))
        assert form == zero_matrix(2, 2)
        assert not flag

    def test_sl2_nondegenerate(self, sl2):
        # tr(ad e_i ad e_j) = -2 delta_ij on this basis.
        form, flag = killing_semisimple(sl2)
        assert form == ExactMatrix.from_rows([[-2, 0, 0], [0, -2, 0], [0, 0, -2]])
        assert flag

    def test_solvable_degenerate(self, solvable):
        form, flag = killing_semisimple(solvable)
        assert not flag
        # e3 is in the radical of the form.
        assert form.column(2) == vector([0, 0, 0])


class TestCompleteness:
    def test_sl2_complete(self, sl2):
        assert is_complete(sl2)

    def test_abelian_incomplete(self):
        assert not is_complete(LieAlgebra.abelian(1))

    def test_solvable_incomplete(self, solvable):
        assert not is_complete(solvable)


class TestFingerprint:
    def test_abelian(self):
        fp = invariant_fingerprint(LieAlgebra.abelian(3))
        assert (fp.dim, fp.center_dim, fp.killing_rank) == (3, 3, 0)
        assert fp.derived_dims == (0,)
        assert fp.lower_central_dims == (0,)
        assert fp.derivation_dim == 9

    def test_sl2(self, sl2):
        fp = invariant_fingerprint(sl2)
        assert (fp.dim, fp.center_dim, fp.killing_rank) == (3, 0, 3)
        assert fp.derived_dims == (3,)
        assert fp.lower_central_dims == (3,)
        assert fp.derivation_dim == 3

    def test_solvable(self, solvable):
        fp = invariant_fingerprint(solvable)
        # Derived: [g,g] = span{e2}, then zero; lower central stabilizes at span{e2}.
        assert fp.derived_dims == (1, 0)
        assert fp.lower_central_dims == (1,)
        assert fp.center_dim == 1

    def test_invariant_under_basis_permutation(self, sl2, solvable, heisenberg):
        rng = random.Random(23)
        for algebra in (sl2, solvable, heisenberg):
            n = algebra.dim
            perm = list(range(n))
            rng.shuffle(perm)
            transform = ExactMatrix.from_columns(
                [unit_vector(n, p) for p in perm]
            )
            permuted = change_basis(algebra, transform)
            assert invariant_fingerprint(permuted) == invariant_fingerprint(algebra)

    def test_invariant_under_random_basis_change(self, sl2, solvable):
        rng = random.Random(29)
        for algebra in (sl2, solvable):
            n = algebra.dim
            while True:
                m = ExactMatrix.from_rows(
                    [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                )
                if m.rank() == n:
                    break
            assert invariant_fingerprint(change_basis(algebra, m)) == invariant_fingerprint(algebra)


def reference_series(algebra: LieAlgebra) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The derived and the lower central series dimensions by the definition:
    each term is spanned by the brackets of all ordered pairs of basis vectors
    of its two factors, from [g, g] on, up to the first zero or repeat."""
    n = algebra.dim
    whole = Subspace.full(n).basis
    found = []
    for lower_central in (False, True):
        dims, term = [], whole
        while True:
            left = whole if lower_central else term
            nxt = Subspace.from_spanning(
                n, [bilinear(algebra.sc, u, v) for u in left for v in term]
            )
            if dims and nxt.dim == dims[-1]:
                break
            dims.append(nxt.dim)
            if not nxt.dim:
                break
            term = nxt.basis
        found.append(tuple(dims))
    return tuple(found)


def _filiform_5() -> LieAlgebra:
    """L5: [e1, e_k] = e_{k+1} for k = 2, 3, 4, the longest lower central
    series in dimension 5."""
    brackets = {(0, k): [int(m == k + 1) for m in range(5)] for k in (1, 2, 3)}
    return LieAlgebra.from_brackets(5, brackets)


def _upper_triangular_3() -> LieAlgebra:
    """b(3), the upper triangular 3x3 matrices under the commutator, in the
    basis E11, E22, E33, E12, E13, E23 of matrix units."""
    units = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    where = {unit: k for k, unit in enumerate(units)}
    brackets = {}
    for i, (a, b) in enumerate(units):
        for j, (c, d) in enumerate(units[i + 1 :], start=i + 1):
            # [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb
            value = [0] * len(units)
            if b == c:
                value[where[(a, d)]] += 1
            if d == a:
                value[where[(c, b)]] -= 1
            if any(value):
                brackets[(i, j)] = value
    return LieAlgebra.from_brackets(len(units), brackets)


def _gaussian_unimodular(n: int) -> ExactMatrix:
    """A lower times an upper unitriangular matrix with Gaussian-integer
    entries: determinant 1, so the inverse is Gaussian-integral too."""
    lower = [[1 if r == c else 1 + I if c < r else 0 for c in range(n)] for r in range(n)]
    upper = [[1 if r == c else -I if c > r else 0 for c in range(n)] for r in range(n)]
    return ExactMatrix.from_rows(lower) @ ExactMatrix.from_rows(upper)


class TestSeries:
    @pytest.mark.parametrize(
        "make, derived, lower_central",
        [
            (_filiform_5, (3, 0), (3, 2, 1, 0)),
            (_upper_triangular_3, (3, 1, 0), (3,)),
        ],
        ids=["filiform-5", "b3"],
    )
    @pytest.mark.parametrize("basis_change", [False, True], ids=["own", "gaussian"])
    def test_series_match_definition(self, make, derived, lower_central, basis_change):
        algebra = make()
        assert not jacobi_violations(algebra)
        if basis_change:
            algebra = change_basis(algebra, _gaussian_unimodular(algebra.dim))
            # The new basis is complex: the table has entries off the reals.
            assert any(x.im for row in algebra.sc for v in row for x in v)
        fp = invariant_fingerprint(algebra)
        assert (fp.derived_dims, fp.lower_central_dims) == (derived, lower_central)
        assert (fp.derived_dims, fp.lower_central_dims) == reference_series(algebra)


class TestSubspace:
    def test_canonical_equality(self):
        a = Subspace.from_spanning(3, [vector([1, 1, 0]), vector([0, 0, 1])])
        b = Subspace.from_spanning(3, [vector([1, 1, 1]), vector([0, 0, 2])])
        assert a == b

    def test_membership(self):
        s = Subspace.from_spanning(3, [vector([1, 0, 1])])
        assert s.contains(vector([2, 0, 2]))
        assert not s.contains(vector([1, 0, 0]))

    def test_coordinates(self):
        s = Subspace.from_spanning(2, [vector([1, 0]), vector([0, 1])])
        assert s.coordinates_of(vector([3, 4])) == vector([3, 4])

    def test_semisimple_implies_complete(self, sl2, solvable):
        for algebra in (sl2, solvable, LieAlgebra.abelian(2)):
            _, semisimple = killing_semisimple(algebra)
            if semisimple:
                assert is_complete(algebra)
