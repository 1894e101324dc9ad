"""Grid scan harness: counts cross-checked against hand formulas, against
products built bracket by bracket, and across changes of basis."""

from itertools import product

import pytest

from postrb.lie import LieAlgebra, center, change_basis
from postrb.postlie import PostLieAlgebra, check_postlie_axioms
from postrb.scalars import I, ExactMatrix, unit_vector
from postrb.search import ScanSummary, default_catalog, scan_algebra

from conftest import make_heisenberg


def _oracle_valid_count(algebra: LieAlgebra, coefficients) -> int:
    """Grid witnesses whose product, built from ``bracket`` one basis pair at
    a time, passes every post-Lie axiom.  Every column of the grid is a
    witness column, so this needs an algebra with zero center."""
    n = algebra.dim
    columns = list(product(coefficients, repeat=n))
    count = 0
    for witness in product(columns, repeat=n):
        products = {
            (i, j): algebra.bracket(witness[i], unit_vector(n, j))
            for i in range(n)
            for j in range(n)
        }
        if check_postlie_axioms(PostLieAlgebra.from_products(algebra, products)).ok:
            count += 1
    return count


def _signed_permutation(perm, signs) -> ExactMatrix:
    """Columns are the new basis: e_j goes to signs[j] * e_perm[j]."""
    n = len(perm)
    return ExactMatrix.from_rows(
        [[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]
    )


class TestScan:
    def test_heisenberg_nontrivial_count(self):
        # Inner products on the Heisenberg algebra are e_i > e_j = c_ij e3
        # (i, j in {1,2}); the class is nontrivial iff c21 - c12 = 1 and
        # det(c) != 0.  Over {-1,0,1}: (c12,c21) in {(0,1),(-1,0)} and
        # c11*c22 != 0 gives 2 * 4 = 8 structures.
        summary = scan_algebra("heisenberg", make_heisenberg())
        assert summary.nontrivial_class == 8
        assert summary.valid_post_lie == summary.trivial_class + 8

    def test_abelian_only_zero_product(self):
        summary = scan_algebra("abelian-2", LieAlgebra.abelian(2))
        # The whole space is central, so the only inner witness on the grid
        # is zero, giving the zero product with trivial class.
        assert summary.candidates == 1
        assert summary.valid_post_lie == 1
        assert summary.nontrivial_class == 0

    def test_affine_2_all_trivial(self):
        algebra = LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})
        summary = scan_algebra("affine-2", algebra)
        assert summary.valid_post_lie > 0
        assert summary.nontrivial_class == 0  # zero center leaves no room

    def test_zero_dimensional_algebra(self):
        # The empty witness is the one candidate: its product is zero, it is
        # post-Lie, and its obstruction class is trivial.
        summary = scan_algebra("z", LieAlgebra.abelian(0))
        assert summary == ScanSummary(1, 1, 1, 0, ())

    def test_catalog_names_unique(self):
        names = [name for name, _ in default_catalog()]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize(
        "coefficients, valid", [((-1, 0, 1), 22), ((0, 1, I), 9)]
    )
    def test_affine_2_matches_axiom_oracle(self, coefficients, valid):
        algebra = LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})
        assert center(algebra).dim == 0
        summary = scan_algebra("affine-2", algebra, coefficients)
        assert summary.candidates == 81
        assert summary.valid_post_lie == _oracle_valid_count(algebra, coefficients)
        assert summary.valid_post_lie == valid

    @pytest.mark.parametrize(
        "name, counts",
        [("heisenberg", (729, 81, 8)), ("affine-3", (729, 66, 0))],
    )
    @pytest.mark.parametrize(
        "perm, signs", [((2, 0, 1), (-1, 1, -1)), ((1, 0, 2), (1, -1, -1))]
    )
    def test_counts_survive_signed_permutation(self, name, counts, perm, signs):
        # A signed permutation maps the center onto a coordinate subspace and
        # the grid {-1, 0, 1} onto itself, so the counts cannot move.
        algebra = change_basis(
            dict(default_catalog())[name], _signed_permutation(perm, signs)
        )
        summary = scan_algebra(name, algebra)
        assert (
            summary.candidates,
            summary.valid_post_lie,
            summary.nontrivial_class,
        ) == counts

    def test_heisenberg_examples_keep_enumeration_order(self):
        summary = scan_algebra("heisenberg", make_heisenberg())
        expected = [
            [[-1, -1, 0], [-1, 0, 0], [0, 0, 0]],
            [[-1, 1, 0], [-1, 0, 0], [0, 0, 0]],
            [[-1, -1, 0], [1, 0, 0], [0, 0, 0]],
        ]
        assert [f.witness.matrix for f in summary.nontrivial_examples] == [
            ExactMatrix.from_rows(rows) for rows in expected
        ]
