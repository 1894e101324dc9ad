"""Post-Lie axioms, sub-adjacent bracket, Rota-Baxter constructions, witnesses."""

import pytest

from postrb.errors import NotRotaBaxterError
from postrb.lie import LieAlgebra, center, check_jacobi
from postrb.postlie import (
    LinearMap,
    PostLieAlgebra,
    check_postlie_axioms,
    check_rota_baxter,
    from_rota_baxter,
    innerness_witness,
    is_witness,
    sub_adjacent,
)
from postrb.scalars import gaussian, is_zero_vector, vector

from conftest import (
    make_sl2,
    make_sl2_operator,
    sl2_triangle_table,
    solvable_witness,
)


def zero_product(algebra: LieAlgebra) -> PostLieAlgebra:
    n = algebra.dim
    return PostLieAlgebra.from_products(algebra, {})


class TestAxioms:
    def test_zero_product_valid(self, sl2):
        assert check_postlie_axioms(zero_product(sl2)).ok

    def test_paper_sl2_table_valid(self, sl2):
        p = PostLieAlgebra(sl2, sl2_triangle_table())
        assert check_postlie_axioms(p).ok

    def test_perturbed_table_reported(self, sl2):
        table = [list(map(list, row)) for row in sl2_triangle_table()]
        table[0][0][0] = gaussian(1)  # e1 > e1 = e1 breaks both axioms
        p = PostLieAlgebra.from_table(sl2, table)
        report = check_postlie_axioms(p)
        assert not report.ok
        assert report.derivation_failures or report.weighted_failures

    def test_rb_induced_products_valid(self, sl2, solvable):
        cases = [
            (sl2, make_sl2_operator()),
            (solvable, solvable_witness(alpha=1, beta=0, gamma=2)),
            (sl2, LinearMap.zero(3)),
            (sl2, -LinearMap.identity(3)),
        ]
        for algebra, op in cases:
            p = from_rota_baxter(algebra, op)
            assert check_postlie_axioms(p).ok


class TestSubAdjacent:
    def test_zero_product_returns_base(self, sl2):
        assert sub_adjacent(zero_product(sl2)).sc == sl2.sc

    def test_rb_zero_returns_base(self, sl2):
        p = from_rota_baxter(sl2, LinearMap.zero(3))
        assert sub_adjacent(p).sc == sl2.sc

    def test_sl2_sub_adjacent_bracket_table(self, sl2):
        # Hand assembly: [e1,e2]' = e3 - (i/2 e2 + 1/2 e3) + e3 = -i/2 e2 + 3/2 e3,
        # [e1,e3]' = -e2 - (-1/2 e2 + i/2 e3) - e2 = -3/2 e2 - i/2 e3,
        # [e2,e3]' = -1/2 e1 - 1/2 e1 + e1 = 0.
        from fractions import Fraction

        from postrb.lie import killing_semisimple

        half = Fraction(1, 2)
        p = PostLieAlgebra(sl2, sl2_triangle_table())
        sub = sub_adjacent(p)
        assert check_jacobi(sub)
        assert sub.sc[0][1] == (gaussian(0), gaussian(0, -half), gaussian(Fraction(3, 2)))
        assert sub.sc[0][2] == (gaussian(0), gaussian(Fraction(-3, 2)), gaussian(0, -half))
        assert is_zero_vector(sub.sc[1][2])
        # span{e2,e3} is an abelian ideal, so the Killing form degenerates
        # (rank 1); the semisimplicity hypothesis of the tower theorem fails
        # for this operator even though the base algebra is simple.
        form, semisimple = killing_semisimple(sub)
        assert not semisimple
        assert form.rank() == 1


class TestRotaBaxter:
    def test_zero_operator(self, sl2):
        assert check_rota_baxter(sl2, LinearMap.zero(3))

    def test_minus_identity(self, sl2):
        assert check_rota_baxter(sl2, -LinearMap.identity(3))

    def test_paper_operator(self, sl2):
        assert check_rota_baxter(sl2, make_sl2_operator())

    def test_identity_not_rb_on_sl2(self, sl2):
        assert not check_rota_baxter(sl2, LinearMap.identity(3))

    def test_solvable_witness_rb_iff_beta_zero(self, solvable):
        assert check_rota_baxter(solvable, solvable_witness(alpha=2, beta=0, gamma=-1))
        assert not check_rota_baxter(solvable, solvable_witness(alpha=0, beta=1, gamma=0))


class TestFromRotaBaxter:
    def test_zero_gives_zero_product(self, sl2):
        p = from_rota_baxter(sl2, LinearMap.zero(3))
        assert all(
            is_zero_vector(p.tc[i][j]) for i in range(3) for j in range(3)
        )

    def test_reproduces_paper_table(self, sl2):
        p = from_rota_baxter(sl2, make_sl2_operator())
        assert p.tc == sl2_triangle_table()

    def test_rejects_non_rb(self, sl2):
        with pytest.raises(NotRotaBaxterError):
            from_rota_baxter(sl2, LinearMap.identity(3))

    def test_solvable_beta_zero(self, solvable):
        op = solvable_witness(alpha=1, beta=0, gamma=0)
        p = from_rota_baxter(solvable, op)
        assert check_postlie_axioms(p).ok
        # e1 > e2 = [e1 + e3, e2] = e2
        assert p.tc[0][1] == vector([0, 1, 0])


class TestInnernessWitness:
    def test_zero_product_zero_witness(self, sl2):
        w = innerness_witness(zero_product(sl2))
        assert w == LinearMap.zero(3)

    def test_abelian_zero_product(self):
        w = innerness_witness(zero_product(LieAlgebra.abelian(2)))
        assert w == LinearMap.zero(2)

    def test_zero_dimensional_algebra(self):
        w = innerness_witness(PostLieAlgebra(LieAlgebra.abelian(0), ()))
        assert w == LinearMap.zero(0)

    def test_sl2_witness_unique_equals_operator(self, sl2):
        p = PostLieAlgebra(sl2, sl2_triangle_table())
        w = innerness_witness(p)
        assert w == make_sl2_operator()

    def test_solvable_witness_congruent_mod_center(self, solvable):
        given = solvable_witness(alpha=2, beta=1, gamma=-1)
        p = PostLieAlgebra.from_products(
            solvable,
            {
                (i, j): solvable.bracket(given.column(i), [1 if q == j else 0 for q in range(3)])
                for i in range(3)
                for j in range(3)
            },
        )
        w = innerness_witness(p)
        assert w is not None
        assert is_witness(p, w)
        z = center(solvable)
        for i in range(3):
            diff = tuple(a - b for a, b in zip(w.column(i), given.column(i)))
            assert z.contains(diff)

    def test_not_inner_detected(self):
        # One-dimensional abelian algebra with e1 > e1 = e1: the only inner
        # derivation is zero, so the left multiplication is not inner.
        algebra = LieAlgebra.abelian(1)
        p = PostLieAlgebra.from_products(algebra, {(0, 0): [1]})
        assert check_postlie_axioms(p).ok
        assert innerness_witness(p) is None


class TestCenterRepresentation:
    def test_center_is_subrepresentation(self, solvable, heisenberg):
        # x > z stays central for every valid product.
        cases = [
            PostLieAlgebra(make_sl2(), sl2_triangle_table()),
            from_rota_baxter(solvable, solvable_witness(alpha=1, beta=0, gamma=1)),
            PostLieAlgebra.from_products(
                heisenberg,
                {(0, 0): [0, 0, 1], (1, 0): [0, 0, 1], (1, 1): [0, 0, 1]},
            ),
        ]
        for p in cases:
            assert check_postlie_axioms(p).ok
            z = center(p.base)
            for i in range(p.dim):
                for b in z.basis:
                    assert z.contains(p.triangle([1 if q == i else 0 for q in range(p.dim)], b))

    def test_rb_induced_center_action_trivial(self, solvable):
        p = from_rota_baxter(solvable, solvable_witness(alpha=1, beta=0, gamma=1))
        z = center(p.base)
        for i in range(p.dim):
            for b in z.basis:
                image = p.triangle([1 if q == i else 0 for q in range(p.dim)], b)
                assert is_zero_vector(image)

    def test_rb_operator_is_homomorphism_from_sub_adjacent(self, sl2):
        op = make_sl2_operator()
        p = from_rota_baxter(sl2, op)
        sub = sub_adjacent(p)
        for i in range(3):
            for j in range(3):
                lhs = sl2.bracket(op.column(i), op.column(j))
                assert lhs == op.apply(sub.sc[i][j])
