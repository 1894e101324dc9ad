"""Obstruction pipeline: cocycle, coboundary solve, reconstruction, pullback.

Hand-worked oracle for the solvable example (witness columns (1,0,a),
(0,-1,b), (0,0,c)): the defect is b*(k2 l1 - k1 l2) e3, the canonical
correction sends e2 to b*e3, and the reconstructed operator has columns
(1,0,a), (0,-1,0), (0,0,c).  The Heisenberg family e_i > e_j = c_ij e3
(i,j in {1,2}) gives defect det(c) e3 on (e1,e2) while [e1,e2]_sub =
(1 + c12 - c21) e3, so c21 - c12 = 1 with det(c) != 0 is a genuinely
nontrivial class.
"""

from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from postrb.documents import parse_document
from postrb.errors import NontrivialObstructionError, NotInnerError
from postrb.lie import LieAlgebra, Subspace, center, check_jacobi, is_complete
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
    sub_adjacent,
)
from postrb.scalars import gaussian, is_zero_vector, vec_add, vector
from postrb.search import default_catalog

from conftest import (
    make_half_solvable,
    make_heisenberg,
    make_sl2_operator,
    make_solvable,
    reference_cyclic_failures,
    sl2_triangle_table,
    solvable_witness,
    vec_scale,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def solvable_postlie(alpha=0, beta=1, gamma=0):
    algebra = make_solvable()
    w = solvable_witness(alpha, beta, gamma)
    products = {
        (i, j): algebra.bracket(w.column(i), [1 if q == j else 0 for q in range(3)])
        for i in range(3)
        for j in range(3)
    }
    return PostLieAlgebra.from_products(algebra, products), w


def heisenberg_postlie(c11, c12, c21, c22):
    algebra = make_heisenberg()
    return PostLieAlgebra.from_products(
        algebra,
        {
            (0, 0): [0, 0, c11],
            (0, 1): [0, 0, c12],
            (1, 0): [0, 0, c21],
            (1, 1): [0, 0, c22],
        },
    )


class TestObstructionCocycle:
    def test_zero_product(self, sl2):
        p = PostLieAlgebra.from_products(sl2, {})
        cochain = obstruction_cocycle(p, LinearMap.zero(3))
        assert not any(any(v) for row in cochain.values for v in row)

    def test_sl2_forced_zero(self, sl2):
        p = PostLieAlgebra(sl2, sl2_triangle_table())
        cochain = obstruction_cocycle(p, make_sl2_operator())
        # zero center leaves no room
        assert not any(any(v) for row in cochain.values for v in row)

    def test_solvable_beta_one(self):
        p, w = solvable_postlie(alpha=0, beta=1, gamma=0)
        cochain = obstruction_cocycle(p, w)
        assert cochain.value(0, 1) == vector([0, 0, -1])
        assert is_zero_vector(cochain.value(0, 2))
        assert is_zero_vector(cochain.value(1, 2))

    def test_invalid_witness_rejected(self):
        p, _ = solvable_postlie()
        with pytest.raises(ValueError):
            obstruction_cocycle(p, LinearMap.identity(3))


class TestVerifyCocycle:
    def test_zero(self, solvable):
        p, w = solvable_postlie()
        sub = sub_adjacent(p)
        zero = LieTwoCochain.from_pairs(3, center(solvable), {})
        assert verify_lie_2cocycle(zero, sub)

    def test_solvable_defect_is_cocycle(self):
        p, w = solvable_postlie()
        assert verify_lie_2cocycle(obstruction_cocycle(p, w), sub_adjacent(p))

    def test_perturbed_value_fails(self, solvable):
        # The single triple (1,2,3) forces the (e2,e3) value to vanish:
        # kappa([e1,e2]',e3) = kappa(e2,e3) while the other two terms are 0.
        p, _ = solvable_postlie()
        sub = sub_adjacent(p)
        bad = LieTwoCochain.from_pairs(
            3, center(solvable), {(1, 2): [0, 0, 1]}
        )
        assert not verify_lie_2cocycle(bad, sub)


class TestVerifyCocycleMixedDenominators:
    """A cochain in thirds over a bracket in halves: one common scale
    decides the identity, in agreement with the ``bilinear`` reference."""

    def test_coboundary_accepted_and_each_perturbation_refused(self):
        sub = make_half_solvable()
        z = vector([0, 0, 1, gaussian(0, 1)])
        line = Subspace.from_spanning(4, [z])
        # The coboundary c(x, y) = t([x, y]_sub) z with t = (2/3, 1/3, 0, 0).
        t = (Fraction(2, 3), Fraction(1, 3))
        pairs = {
            (i, j): vec_scale(sub.sc[i][j][0] * t[0] + sub.sc[i][j][1] * t[1], z)
            for i, j in combinations(range(4), 2)
        }
        valid = LieTwoCochain.from_pairs(4, line, pairs)
        assert {x.d for v in pairs.values() for x in v} == {1, 3}
        assert {x.d for row in sub.sc for v in row for x in v} == {1, 2}
        assert verify_lie_2cocycle(valid, sub)
        assert reference_cyclic_failures(sub.sc, valid.values) == ()
        third = vec_scale(Fraction(1, 3), z)
        for pair in pairs:
            moved = dict(pairs)
            moved[pair] = vec_add(pairs[pair], third)
            bad = LieTwoCochain.from_pairs(4, line, moved)
            assert not verify_lie_2cocycle(bad, sub), pair
            assert reference_cyclic_failures(sub.sc, bad.values), pair


class TestCoboundarySolve:
    def test_zero_cochain(self, solvable):
        p, _ = solvable_postlie()
        sub = sub_adjacent(p)
        zero = LieTwoCochain.from_pairs(3, center(solvable), {})
        t = coboundary_solve(zero, sub)
        assert t == LinearMap.zero(3)

    def test_solvable_canonical_correction(self):
        p, w = solvable_postlie(alpha=0, beta=1, gamma=0)
        sub = sub_adjacent(p)
        t = coboundary_solve(obstruction_cocycle(p, w), sub)
        assert t is not None
        # Canonical member of the family: t(e2) = e3, other columns zero.
        assert t == LinearMap.from_columns([[0, 0, 0], [0, 0, 1], [0, 0, 0]])

    def test_nontrivial_class_absent(self):
        p = heisenberg_postlie(1, 0, 1, 1)
        assert check_postlie_axioms(p).ok
        w = innerness_witness(p)
        assert w is not None
        cochain = obstruction_cocycle(p, w)
        sub = sub_adjacent(p)
        assert verify_lie_2cocycle(cochain, sub)
        assert coboundary_solve(cochain, sub) is None

    def test_heisenberg_trivial_when_determinant_zero(self):
        p = heisenberg_postlie(1, 0, 1, 0)  # det = 0, class trivial
        assert check_postlie_axioms(p).ok
        w = innerness_witness(p)
        cochain = obstruction_cocycle(p, w)
        sub = sub_adjacent(p)
        assert coboundary_solve(cochain, sub) is not None

    def test_solver_matches_hand_classification_on_grid(self):
        # Cochains on the solvable sub-adjacent algebra with values a*e3 on
        # (e1,e2), b*e3 on (e1,e3), c*e3 on (e2,e3).  Hand classification:
        # the single cocycle triple forces c = 0; coboundaries are exactly
        # -t([x,y]') with [e1,e2]' = e2 and the other brackets zero, so they
        # fill the a-axis and pin b = 0.  Hence a cocycle is a coboundary
        # iff b = 0.
        p, _ = solvable_postlie(alpha=0, beta=0, gamma=0)
        sub = sub_adjacent(p)
        z = center(p.base)
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                for c in (-1, 0, 1):
                    cochain = LieTwoCochain.from_pairs(
                        3,
                        z,
                        {(0, 1): [0, 0, a], (0, 2): [0, 0, b], (1, 2): [0, 0, c]},
                    )
                    is_cocycle = verify_lie_2cocycle(cochain, sub)
                    assert is_cocycle == (c == 0)
                    if is_cocycle:
                        solved = coboundary_solve(cochain, sub)
                        assert (solved is not None) == (b == 0)
                        if solved is not None:
                            for i in range(3):
                                for j in range(i + 1, 3):
                                    expected = tuple(
                                        -x for x in solved.apply(sub.sc[i][j])
                                    )
                                    assert cochain.value(i, j) == expected


class TestRefusals:
    """Malformed cochains and mismatched inputs are refused by message."""

    def test_cochain_shape(self, solvable):
        zero = vector([0, 0, 0])
        with pytest.raises(ValueError, match="cochain table shape mismatch"):
            LieTwoCochain(3, center(solvable), ((zero,) * 3,) * 2)

    def test_cochain_diagonal(self, solvable):
        zero, e3 = vector([0, 0, 0]), vector([0, 0, 1])
        values = ((e3, zero, zero), (zero,) * 3, (zero,) * 3)
        with pytest.raises(ValueError, match="not alternating on the diagonal"):
            LieTwoCochain(3, center(solvable), values)

    def test_cochain_antisymmetry(self, solvable):
        zero, e3 = vector([0, 0, 0]), vector([0, 0, 1])
        values = ((zero, e3, zero), (e3, zero, zero), (zero,) * 3)
        with pytest.raises(ValueError, match="cochain table not antisymmetric"):
            LieTwoCochain(3, center(solvable), values)

    def test_cochain_value_outside_the_center(self, solvable):
        with pytest.raises(ValueError, match=r"value at \(0,2\) lies outside the center"):
            LieTwoCochain.from_pairs(3, center(solvable), {(0, 2): [1, 0, 0]})

    @pytest.mark.parametrize("pair", [(1, 0), (1, 1), (0, 3)])
    def test_from_pairs_needs_i_below_j(self, solvable, pair):
        with pytest.raises(ValueError, match="cochain pairs must satisfy i < j"):
            LieTwoCochain.from_pairs(3, center(solvable), {pair: [0, 0, 1]})

    @pytest.mark.parametrize("solve", [verify_lie_2cocycle, coboundary_solve])
    def test_dimension_mismatch(self, solvable, solve):
        cochain = LieTwoCochain.from_pairs(3, center(solvable), {})
        with pytest.raises(ValueError, match="cochain and algebra dimensions differ"):
            solve(cochain, LieAlgebra.abelian(2))

    def test_reconstruction_refuses_a_supplied_non_witness(self):
        p, _ = solvable_postlie()
        with pytest.raises(ValueError, match="not an innerness witness"):
            construct_rb_from_obstruction(p, witness=LinearMap.identity(3))

    @pytest.mark.parametrize(
        "name, last, message",
        [
            # Columns 0, 0, e2: the sub-adjacent bracket fails Jacobi.
            ("simple-3", [0, 1, 0], "fails Jacobi: input is not post-Lie"),
            # Columns 0, 0, e3: the bracket is Lie, the defect is not central.
            ("simple-3", [0, 0, 1], r"value at \(0,1\) lies outside the center"),
            # Columns 0, 0, e2 against the center e3.
            ("heisenberg", [0, 1, 0], r"value at \(0,1\) lies outside the center"),
        ],
        ids=["simple-3-jacobi", "simple-3-center", "heisenberg-center"],
    )
    def test_defect_of_a_product_that_is_not_post_lie(self, name, last, message):
        algebra = dict(default_catalog())[name]
        witness = LinearMap.from_columns([[0, 0, 0], [0, 0, 0], last])
        p = PostLieAlgebra(algebra, induced_table(algebra, witness))
        with pytest.raises(ValueError, match=message):
            obstruction_cocycle(p, witness)


class TestReconstruction:
    def test_sl2_recovers_operator(self, sl2):
        p = PostLieAlgebra(sl2, sl2_triangle_table())
        result = construct_rb_from_obstruction(p)
        assert result.operator == make_sl2_operator()
        assert result.correction == LinearMap.zero(3)

    def test_solvable_family(self):
        p, w = solvable_postlie(alpha=0, beta=1, gamma=0)
        result = construct_rb_from_obstruction(p, witness=w)
        assert result.operator == LinearMap.from_columns(
            [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
        )
        assert check_rota_baxter(p.base, result.operator)
        assert from_rota_baxter(p.base, result.operator).tc == p.tc

    def test_solvable_general_parameters(self):
        p, w = solvable_postlie(alpha=3, beta=2, gamma=-1)
        result = construct_rb_from_obstruction(p, witness=w)
        # R = witness - correction: columns (1,0,3), (0,-1,0), (0,0,-1).
        assert result.operator == LinearMap.from_columns(
            [[1, 0, 3], [0, -1, 0], [0, 0, -1]]
        )

    def test_not_inner_signal(self):
        p = PostLieAlgebra.from_products(LieAlgebra.abelian(1), {(0, 0): [1]})
        assert check_postlie_axioms(p).ok
        with pytest.raises(NotInnerError):
            construct_rb_from_obstruction(p)

    def test_nontrivial_class_signal(self):
        p = heisenberg_postlie(1, 0, 1, 1)
        with pytest.raises(NontrivialObstructionError):
            construct_rb_from_obstruction(p)

    def test_complete_base_forces_zero_correction(self, sl2):
        assert is_complete(sl2)
        p = PostLieAlgebra(sl2, sl2_triangle_table())
        result = construct_rb_from_obstruction(p)
        assert result.correction == LinearMap.zero(3)

    def test_builds_the_sub_adjacent_algebra_once(self, monkeypatch):
        # Counted in both modules that build the table, so a call of
        # ``sub_adjacent`` would count too.
        from postrb import lie_obstruction, postlie

        calls = []
        build = postlie._sub_adjacent_rows

        def counted(brackets, products):
            calls.append(products)
            return build(brackets, products)

        for module in (lie_obstruction, postlie):
            monkeypatch.setattr(module, "_sub_adjacent_rows", counted)
        doc = parse_document((SAMPLES / "sl2.post").read_text(encoding="utf-8"))
        result = construct_rb_from_obstruction(doc.post_lie)
        assert result.operator == make_sl2_operator()
        assert len(calls) == 1

    def test_each_linear_system_is_one_elimination(self, monkeypatch):
        # Every elimination is a forward pass of ``scalars._echelon``: the
        # witness's through ``rref``, the coboundary's through the class
        # decision in ``lie_obstruction``.
        from postrb import lie_obstruction, scalars

        calls = []
        echelon = scalars._echelon

        def counted(rows):
            calls.append(rows)
            return echelon(rows)

        def count(on):
            for module in (scalars, lie_obstruction):
                monkeypatch.setattr(module, "_echelon", counted if on else echelon)

        doc = parse_document((SAMPLES / "sl2.post").read_text(encoding="utf-8"))
        p = doc.post_lie
        sub = sub_adjacent(p)
        count(True)
        witness = innerness_witness(p)
        assert witness is not None
        assert len(calls) == 1
        count(False)
        cochain = obstruction_cocycle(p, witness)
        count(True)
        assert coboundary_solve(cochain, sub) == LinearMap.zero(3)
        assert len(calls) == 2

    def test_roundtrip_from_rb(self, solvable):
        op = solvable_witness(alpha=1, beta=0, gamma=2)
        p = from_rota_baxter(solvable, op)
        result = construct_rb_from_obstruction(p)
        diff = rb_difference_cocycle(solvable, op, result.operator)
        assert diff is not None


class TestSectionIndependence:
    def test_two_witnesses_differ_by_coboundary(self):
        p, w1 = solvable_postlie(alpha=0, beta=1, gamma=0)
        w2 = solvable_witness(alpha=5, beta=-2, gamma=7)  # same product, shifted
        from postrb.postlie import is_witness

        assert is_witness(p, w2)
        c1 = obstruction_cocycle(p, w1)
        c2 = obstruction_cocycle(p, w2)
        sub = sub_adjacent(p)
        difference = LieTwoCochain.from_pairs(
            3,
            c1.center_basis,
            {
                (i, j): tuple(
                    a - b for a, b in zip(c1.value(i, j), c2.value(i, j))
                )
                for i in range(3)
                for j in range(i + 1, 3)
            },
        )
        assert verify_lie_2cocycle(difference, sub)
        assert coboundary_solve(difference, sub) is not None

    def test_verdict_stable_under_witness_choice(self):
        # Nontrivial stays nontrivial for any witness.
        p = heisenberg_postlie(1, 0, 1, 1)
        w = innerness_witness(p)
        shifted = w + LinearMap.from_columns(
            [[0, 0, 3], [0, 0, -2], [0, 0, 1]]
        )  # add a map into the center
        from postrb.postlie import is_witness

        assert is_witness(p, shifted)
        cochain = obstruction_cocycle(p, shifted)
        assert coboundary_solve(cochain, sub_adjacent(p)) is None


class TestPullback:
    def test_zero_product_on_abelian(self):
        algebra = LieAlgebra.abelian(2)
        p = PostLieAlgebra.from_products(algebra, {})
        g2 = pullback_algebra(p)
        assert g2.dim == 4
        assert check_jacobi(g2)

    def test_sl2_dimension(self, sl2):
        p = PostLieAlgebra(sl2, sl2_triangle_table())
        assert pullback_algebra(p).dim == 3

    def test_solvable_dimension(self):
        p, _ = solvable_postlie()
        assert pullback_algebra(p).dim == 4

    def test_rejects_not_inner(self):
        p = PostLieAlgebra.from_products(LieAlgebra.abelian(1), {(0, 0): [1]})
        with pytest.raises(NotInnerError):
            pullback_algebra(p)

    def test_embedded_center_stays_central(self):
        # The second-slot copy of the center is central in the pullback, so
        # the pullback's own center is at least that large.
        from postrb.lie import invariant_fingerprint

        cases = [solvable_postlie()[0], heisenberg_postlie(1, 0, 1, 0)]
        for p in cases:
            g2 = pullback_algebra(p)
            assert (
                invariant_fingerprint(g2).center_dim >= center(p.base).dim
            )


class TestDifferenceCocycle:
    def test_equal_operators(self, solvable):
        op = solvable_witness(alpha=1, beta=0, gamma=0)
        diff = rb_difference_cocycle(solvable, op, op)
        assert diff == LinearMap.zero(3)

    def test_family_members_differ_by_central_cocycle(self, solvable):
        # Both columns-(1,0,a),(0,-1,0),(0,0,c) maps are Rota-Baxter and
        # induce the same product; the difference maps into span{e3}.
        op1 = LinearMap.from_columns([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        op2 = LinearMap.from_columns([[1, 0, 1], [0, -1, 0], [0, 0, 2]])
        diff = rb_difference_cocycle(solvable, op1, op2)
        assert diff is not None
        z = center(solvable)
        for i in range(3):
            assert z.contains(diff.column(i))

    def test_different_products_absent(self, sl2):
        diff = rb_difference_cocycle(sl2, LinearMap.zero(3), -LinearMap.identity(3))
        assert diff is None

    def test_non_rb_rejected(self, sl2):
        with pytest.raises(ValueError):
            rb_difference_cocycle(sl2, LinearMap.identity(3), LinearMap.zero(3))
