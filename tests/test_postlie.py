"""Post-Lie axioms, sub-adjacent bracket, Rota-Baxter constructions, witnesses."""

import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from postrb.documents import parse_document
from postrb.errors import NotRotaBaxterError
from postrb.lie import LieAlgebra, _scalar_table, center, change_basis, check_jacobi
from postrb.postlie import (
    LinearMap,
    PostLieAlgebra,
    PostLieReport,
    _rota_baxter_tables,
    _sub_adjacent_rows,
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
    ExactMatrix,
    I,
    ONE,
    ZERO,
    gaussian,
    is_zero_vector,
    vec_add,
    vector,
)

from conftest import (
    make_heisenberg,
    make_sl2,
    make_sl2_operator,
    make_solvable,
    random_rb_instance,
    sl2_triangle_table,
    solvable_witness,
    sub_adjacent_reference,
    vec_sub,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def sample_post_lie() -> list[PostLieAlgebra]:
    return [
        parse_document(path.read_text()).post_lie
        for path in sorted(SAMPLES.glob("*.post"))
    ]


def seeded_rota_baxter(seed: int, count: int = 10) -> list[tuple[LieAlgebra, LinearMap]]:
    rng = random.Random(seed)
    return [random_rb_instance(rng) for _ in range(count)]


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

    def test_triangle_refuses_wrong_length(self, sl2):
        p = PostLieAlgebra(sl2, sl2_triangle_table())
        with pytest.raises(ValueError, match="vector has wrong length"):
            p.triangle([1, 0, 0, 7], [0, 1, 0, 9])


def _product(table, x, y):
    """sum_{i,j} x_i y_j table[i][j], written out for the reference."""
    n = len(table)
    out = [ZERO] * n
    for i in range(n):
        for j in range(n):
            if x[i] and y[j]:
                for k in range(n):
                    out[k] = out[k] + x[i] * y[j] * table[i][j][k]
    return tuple(out)


def _plus(*vectors):
    return tuple(sum(parts, ZERO) for parts in zip(*vectors))


def _minus(v):
    return tuple(-x for x in v)


def reference_report(p: PostLieAlgebra) -> PostLieReport:
    """Both axioms on every basis triple (i, j, k), in lexicographic order."""
    n = p.dim
    sc, tc = p.base.sc, p.tc
    units = [tuple(ONE if q == k else ZERO for q in range(n)) for k in range(n)]

    def tri(x, y):
        return _product(tc, x, y)

    def br(x, y):
        return _product(sc, x, y)

    derivation, weighted = [], []
    for i, j, k in product(range(n), repeat=3):
        ei, ej, ek = units[i], units[j], units[k]
        # e_i > [e_j, e_k] = [e_i > e_j, e_k] + [e_j, e_i > e_k]
        lhs = tri(ei, br(ej, ek))
        rhs = _plus(br(tri(ei, ej), ek), br(ej, tri(ei, ek)))
        if lhs != rhs:
            derivation.append((i, j, k))
        # (e_i > e_j - e_j > e_i + [e_i, e_j]) > e_k
        #     = e_i > (e_j > e_k) - e_j > (e_i > e_k)
        sub = _plus(tri(ei, ej), _minus(tri(ej, ei)), br(ei, ej))
        lhs = tri(sub, ek)
        rhs = _plus(tri(ei, tri(ej, ek)), _minus(tri(ej, tri(ei, ek))))
        if lhs != rhs:
            weighted.append((i, j, k))
    return PostLieReport(tuple(derivation), tuple(weighted))


def _perturbed(p: PostLieAlgebra, i, j, k, delta) -> PostLieAlgebra:
    table = [[list(v) for v in row] for row in p.tc]
    table[i][j][k] = table[i][j][k] + delta
    return PostLieAlgebra.from_table(p.base, table)


def _complex_basis_case() -> PostLieAlgebra:
    """The paper's sl2 operator moved to the Gaussian basis with columns
    (1, i, 0), (0, 1, 1+i), (i, 0, 1)."""
    transform = ExactMatrix.from_columns(
        [[1, gaussian(0, 1), 0], [0, 1, gaussian(1, 1)], [gaussian(0, 1), 0, 1]]
    )
    algebra = change_basis(make_sl2(), transform)
    operator = LinearMap(transform.inverse() @ make_sl2_operator().matrix @ transform)
    return from_rota_baxter(algebra, operator)


def _half_bracket_case() -> PostLieAlgebra:
    """The paper's sl2 operator moved to the basis e1, e2, 2e3, where the
    bracket has the entry [e1,e2] = 1/2 e3."""
    transform = ExactMatrix.from_columns([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    algebra = change_basis(make_sl2(), transform)
    operator = LinearMap(transform.inverse() @ make_sl2_operator().matrix @ transform)
    return from_rota_baxter(algebra, operator)


PERTURBATION_BASES = {
    "sl2": lambda: PostLieAlgebra(make_sl2(), sl2_triangle_table()),
    "solvable": lambda: from_rota_baxter(
        make_solvable(), solvable_witness(alpha=1, beta=0, gamma=2)
    ),
}


class TestAxiomReportMatchesReference:
    """``check_postlie_axioms`` reports exactly the failing triples of the
    n^3 reference, in the same order."""

    @pytest.mark.parametrize("name", sorted(PERTURBATION_BASES))
    @pytest.mark.parametrize("delta", [gaussian(1), gaussian(-2, 1)])
    def test_one_entry_perturbations(self, name, delta):
        p = PERTURBATION_BASES[name]()
        assert check_postlie_axioms(p) == reference_report(p)
        failing = 0
        for i, j, k in product(range(3), repeat=3):
            q = _perturbed(p, i, j, k, delta)
            report = check_postlie_axioms(q)
            assert report == reference_report(q), (i, j, k)
            failing += not report.ok
        assert failing > 20

    def test_complex_basis(self):
        p = _complex_basis_case()
        assert check_postlie_axioms(p).ok
        assert reference_report(p).ok
        for i, j, k in product(range(3), repeat=3):
            q = _perturbed(p, i, j, k, gaussian(0, 1))
            assert check_postlie_axioms(q) == reference_report(q), (i, j, k)

    @pytest.mark.parametrize("delta", [gaussian("1/3"), gaussian("1/3", "2/3")])
    def test_mixed_denominators(self, delta):
        # Thirds in the product table over halves in the bracket: the weighted
        # identity compares products of two tables, so they share one scale.
        p = _half_bracket_case()
        assert 2 in {x.d for row in p.base.sc for v in row for x in v}
        assert check_postlie_axioms(p).ok
        failing = 0
        for i, j, k in product(range(3), repeat=3):
            q = _perturbed(p, i, j, k, delta)
            report = check_postlie_axioms(q)
            assert report == reference_report(q), (i, j, k)
            failing += not report.ok
        assert failing > 20

    def test_only_derivation_identity_fails(self):
        p = PostLieAlgebra.from_products(
            make_heisenberg(), {(0, 2): [0, 0, -1], (1, 1): [1, 1, 0]}
        )
        report = check_postlie_axioms(p)
        assert report == reference_report(p)
        assert report.derivation_failures == ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0))
        assert report.weighted_failures == ()

    def test_only_weighted_identity_fails(self):
        p = PostLieAlgebra.from_products(
            make_heisenberg(), {(0, 1): [-1, 0, 1], (1, 0): [0, -1, 0]}
        )
        report = check_postlie_axioms(p)
        assert report == reference_report(p)
        assert report.derivation_failures == ()
        assert report.weighted_failures == ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))


class TestConstructors:
    def test_from_rows_of_no_rows_is_the_map_on_the_zero_space(self):
        assert LinearMap.from_rows([]) == LinearMap.from_columns([]) == LinearMap.zero(0)

    def test_a_product_entry_that_is_not_a_scalar_is_refused(self):
        # The constructor takes scalars; ``from_table`` coerces plain numbers.
        base = LieAlgebra.abelian(1)
        with pytest.raises(TypeError, match=r"^entry 1 is not a GaussianRational$"):
            PostLieAlgebra(base, (((1,),),))
        assert PostLieAlgebra.from_table(base, (((1,),),)).tc == (((ONE,),),)

    @pytest.mark.parametrize("value", [[0, 0, 0, 1], [0, 0, 0, 0], [1, 0], []])
    def test_from_products_refuses_a_value_of_another_length(self, sl2, value):
        with pytest.raises(
            ValueError, match="^triangle table shape does not match the base algebra$"
        ):
            PostLieAlgebra.from_products(sl2, {(0, 1): [0, 0, 1], (1, 2): value})

    @pytest.mark.parametrize("pair", [(3, 0), (0, -1)])
    def test_from_products_refuses_an_index_out_of_range(self, sl2, pair):
        with pytest.raises(ValueError, match=r"^product index \(%d,%d\) out of range$" % pair):
            PostLieAlgebra.from_products(sl2, {pair: [0, 0, 1]})

    def test_from_products_is_the_table_constructor(self, sl2):
        products = {(1, 0): [0, gaussian("1/2"), 0], (2, 2): [I, 0, Fraction(-1, 3)]}
        p = PostLieAlgebra.from_products(sl2, products)
        table = [[vector([0, 0, 0])] * 3 for _ in range(3)]
        for (i, j), value in products.items():
            table[i][j] = vector(value)
        assert p == PostLieAlgebra(sl2, tuple(map(tuple, table)))
        assert p.tc == tuple(map(tuple, table))


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


class TestSubAdjacentTable:
    """``_sub_adjacent_rows`` computes the pairs i < j and mirrors them; the
    reference reads every one of the n^2 entries off the tables."""

    @staticmethod
    def assert_matches_reference(p):
        table = _scalar_table(_sub_adjacent_rows(p.base._integer, p._integer))
        sc, tc = p.base.sc, p.tc
        n = len(sc)
        for i, j in product(range(n), repeat=2):
            assert table[i][j] == vec_add(vec_sub(tc[i][j], tc[j][i]), sc[i][j]), (i, j)

    def test_sample_tables(self):
        samples = sample_post_lie()
        assert len(samples) == 2
        for p in samples:
            self.assert_matches_reference(p)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_rota_baxter_tables(self, seed):
        for algebra, operator in seeded_rota_baxter(seed):
            self.assert_matches_reference(from_rota_baxter(algebra, operator))


class TestRotaBaxterTables:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rota_baxter_gives_induced_and_sub_adjacent(self, sl2, seed):
        instances = [(sl2, make_sl2_operator()), *seeded_rota_baxter(seed)]
        for algebra, operator in instances:
            induced = induced_table(algebra, operator)
            expected = (induced, sub_adjacent_reference(algebra.sc, induced))
            tables = _rota_baxter_tables(algebra, operator)
            assert tuple(map(_scalar_table, tables)) == expected

    def test_other_operators_give_none(self, sl2, solvable):
        for algebra, operator in [
            (sl2, LinearMap.identity(3)),
            (solvable, solvable_witness(alpha=0, beta=1, gamma=0)),
        ]:
            assert _rota_baxter_tables(algebra, operator) is None


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

    def test_check_builds_no_scalar_table(self, sl2, solvable, monkeypatch):
        # The identity is decided on integer rows, so neither a failing nor
        # a passing operator builds an induced or sub-adjacent table of
        # scalars, nor evaluates a product into scalars.  Every table of
        # scalars, a view included, comes from ``_scalar_table``, and every
        # product of vectors from ``_product``.
        from postrb import lie, postlie

        built = []
        builders = {
            lie: ("_scalar_table", "_product"),
            postlie: ("_scalar_table", "_product", "induced_table"),
        }
        for module, names in builders.items():
            for name in names:
                monkeypatch.setattr(
                    module, name, lambda *args, name=name: built.append(name)
                )
        cases = [
            (sl2, LinearMap.identity(3), False),
            (sl2, make_sl2_operator(), True),
            (sl2, -LinearMap.identity(3), True),
            (solvable, solvable_witness(alpha=0, beta=1, gamma=0), False),
            (solvable, solvable_witness(alpha=2, beta=0, gamma=-1), True),
        ]
        for algebra, operator, expected in cases:
            assert check_rota_baxter(algebra, operator) is expected
        assert built == []

    def test_check_stops_at_the_first_bad_pair(self, sl2, monkeypatch):
        # On sl2 the identity fails on the first pair (0, 1), so one of the
        # three pairs is compared.
        from postrb import postlie

        compared = []
        accumulate, combine = postlie._accumulate, postlie._combine

        def counted(re, im, coefficients, rows, factor=1):
            compared.append(factor)
            return accumulate(re, im, coefficients, rows, factor)

        def counted_entry(coefficients, rows, n, factor=1):
            compared.append(factor)
            return combine(coefficients, rows, n, factor)

        monkeypatch.setattr(postlie, "_accumulate", counted)
        monkeypatch.setattr(postlie, "_combine", counted_entry)
        assert not check_rota_baxter(sl2, LinearMap.identity(3))
        # Three sub-adjacent entries, then two sums for the one pair.
        assert len(compared) == 3 + 2

    def test_is_homomorphism_refuses_a_bracket_it_does_not_carry(self, sl2):
        # The identity carries sl2 onto itself, not the zero bracket.
        identity = LinearMap.identity(3)
        assert is_homomorphism(identity, sl2.sc, sl2)
        assert not is_homomorphism(identity, LieAlgebra.abelian(3).sc, sl2)


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
