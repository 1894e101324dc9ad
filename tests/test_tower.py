"""Bracket tower construction and reports.

The level-1 bracket of the (sl2, P) tower is solvable (see the sub-adjacent
test for the hand computation), so that tower exercises the hypothesis-failed
branch; R = 0 and R = -id provide towers where every level is semisimple.
"""

import pytest

from postrb.errors import NotRotaBaxterError
from postrb.lie import check_jacobi, invariant_fingerprint, killing_semisimple
from postrb.postlie import LinearMap, from_rota_baxter, sub_adjacent
from postrb.tower import build_tower, next_bracket, tower_report
from postrb.scalars import vector

from conftest import make_sl2_operator, solvable_witness


class TestNextBracket:
    def test_zero_operator_fixes_bracket(self, sl2):
        assert next_bracket(sl2, LinearMap.zero(3)).sc == sl2.sc

    def test_minus_identity_negates_bracket(self, sl2):
        # [x,y]' = [-x,y] + [x,-y] + [x,y] = -[x,y].
        result = next_bracket(sl2, -LinearMap.identity(3))
        for i in range(3):
            for j in range(3):
                assert result.sc[i][j] == tuple(-x for x in sl2.sc[i][j])

    def test_rejects_non_rb(self, sl2):
        with pytest.raises(NotRotaBaxterError):
            next_bracket(sl2, LinearMap.identity(3))

    def test_agrees_with_sub_adjacent_route(self, sl2, solvable):
        cases = [
            (sl2, make_sl2_operator()),
            (sl2, LinearMap.zero(3)),
            (sl2, -LinearMap.identity(3)),
            (solvable, solvable_witness(alpha=1, beta=0, gamma=2)),
        ]
        for algebra, op in cases:
            direct = next_bracket(algebra, op)
            via_post = sub_adjacent(from_rota_baxter(algebra, op))
            assert direct.sc == via_post.sc

    def test_sl2_level_one_known_table(self, sl2):
        # Hand-assembled in the sub-adjacent test: the level-1 bracket has
        # [e2,e3] = 0 and span{e2,e3} abelian.
        from fractions import Fraction
        from postrb.scalars import gaussian

        level1 = next_bracket(sl2, make_sl2_operator())
        half = Fraction(1, 2)
        assert level1.sc[0][1] == (
            gaussian(0),
            gaussian(0, -half),
            gaussian(Fraction(3, 2)),
        )
        assert level1.sc[1][2] == vector([0, 0, 0])


class TestBuildTower:
    def test_zero_operator_constant_tower(self, sl2):
        t = build_tower(sl2, LinearMap.zero(3), 5)
        assert len(t.levels) == 6
        assert all(level.sc == sl2.sc for level in t.levels)

    def test_sl2_paper_operator_levels_valid(self, sl2):
        t = build_tower(sl2, make_sl2_operator(), 3)
        assert len(t.levels) == 4
        for level in t.levels:
            assert check_jacobi(level)

    def test_solvable_tower(self, solvable):
        op = solvable_witness(alpha=1, beta=0, gamma=0)
        t = build_tower(solvable, op, 3)
        report = tower_report(t)
        assert not any(report.semisimple)

    def test_negative_depth_rejected(self, sl2):
        with pytest.raises(ValueError):
            build_tower(sl2, LinearMap.zero(3), -1)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_rejects_non_rb_at_every_depth(self, sl2, depth):
        with pytest.raises(NotRotaBaxterError):
            build_tower(sl2, LinearMap.identity(3), depth)


class TestTowerReport:
    def test_constant_tower_fingerprints(self, sl2):
        t = build_tower(sl2, LinearMap.zero(3), 3)
        report = tower_report(t)
        assert report.fingerprints_equal
        assert all(report.semisimple)

    def test_minus_identity_tower_semisimple(self, sl2):
        # The hypothesis of the semisimplicity theorem holds here: every
        # level is (anti-)isomorphic to sl2.
        t = build_tower(sl2, -LinearMap.identity(3), 3)
        report = tower_report(t)
        assert report.fingerprints_equal
        assert all(report.semisimple)
        # -id is invertible at every step and -id + id = 0 is not.
        assert report.operator_power_ranks[0] == 3
        assert report.shifted_power_ranks[0] == 0

    def test_sl2_paper_operator_report(self, sl2):
        t = build_tower(sl2, make_sl2_operator(), 3)
        report = tower_report(t)
        assert report.semisimple[0] is True
        assert report.semisimple[1] is False  # level 1 is solvable
        assert not report.fingerprints_equal
        # Neither P nor P+id is invertible, so no step has an explicit
        # isomorphism certificate.
        assert report.operator_power_ranks[0] < 3
        assert report.shifted_power_ranks[0] < 3

    def test_report_ranks_each_killing_form_once(self, sl2, monkeypatch):
        # Every rank of the report is one of its fingerprints' or a rank of
        # a power of P or P+id: one Killing-form rank per level and nothing
        # for properties that hold for every linear map.  Ranks are counted
        # at the one entry point every integer rank goes through, the
        # echelon form behind ``_rank`` and ``_row_basis``.
        from postrb import lie, scalars

        calls = []
        echelon = scalars._echelon

        def counted(rows):
            rows = tuple(rows)
            calls.append(rows)
            return echelon(rows)

        t = build_tower(sl2, make_sl2_operator(), 3)
        forms = [lie._killing_rows(level._integer.rows) for level in t.levels]
        monkeypatch.setattr(scalars, "_echelon", counted)
        for level in t.levels:
            invariant_fingerprint(level)
        fingerprint_calls = len(calls)
        calls.clear()
        tower_report(t)
        assert len(calls) == fingerprint_calls + 2 * t.depth
        for form in forms:
            assert sum(rows == form for rows in calls) == forms.count(form)

    @pytest.mark.parametrize("depth", [0, 1, 3, 5])
    def test_power_ranks_form_no_power_past_the_depth(self, sl2, monkeypatch, depth):
        # R^k and (R+id)^k for k <= depth take depth - 1 products each.
        from postrb import tower

        products = []
        compose = tower._compose
        monkeypatch.setattr(
            tower, "_compose", lambda a, b: products.append(1) or compose(a, b)
        )
        report = tower_report(build_tower(sl2, make_sl2_operator(), depth))
        assert len(products) == 2 * max(depth - 1, 0)
        assert len(report.operator_power_ranks) == depth

    def test_power_ranks_match_scalar_powers(self, sl2, solvable):
        # The ranks of the integer powers are those of the scalar powers.
        cases = [
            (sl2, make_sl2_operator()),
            (sl2, -LinearMap.identity(3)),
            (solvable, solvable_witness(alpha=1, beta=0, gamma=2)),
            (solvable, solvable_witness(alpha=1, beta=0, gamma=0)),
        ]
        for algebra, op in cases:
            report = tower_report(build_tower(algebra, op, 4))
            for matrix, ranks in (
                (op.matrix, report.operator_power_ranks),
                (op.plus_identity().matrix, report.shifted_power_ranks),
            ):
                power, expected = matrix, []
                for _ in range(4):
                    expected.append(power.rank())
                    power = power @ matrix
                assert ranks == tuple(expected)

    @pytest.mark.parametrize(
        "case", ["sl2-minus-identity", "sl2-zero", "solvable-invertible"]
    )
    def test_isomorphic_levels_reuse_level_zero_fingerprint(
        self, sl2, solvable, monkeypatch, case
    ):
        # -id and the solvable witness with gamma = 2 are invertible; for
        # R = 0, R + id = id is.  The reused fingerprint is each level's own.
        algebra, op = {
            "sl2-minus-identity": (sl2, -LinearMap.identity(3)),
            "sl2-zero": (sl2, LinearMap.zero(3)),
            "solvable-invertible": (solvable, solvable_witness(alpha=1, beta=0, gamma=2)),
        }[case]
        t = build_tower(algebra, op, 3)
        own = tuple(invariant_fingerprint(level) for level in t.levels)
        from postrb import tower

        calls = []
        monkeypatch.setattr(
            tower, "invariant_fingerprint", lambda a: calls.append(a) or invariant_fingerprint(a)
        )
        report = tower_report(t)
        assert calls == [t.levels[0]]
        assert report.fingerprints == own
        assert 3 in (report.operator_power_ranks[0], report.shifted_power_ranks[0])

    def test_power_ranks_shape(self, sl2):
        t = build_tower(sl2, make_sl2_operator(), 3)
        report = tower_report(t)
        assert len(report.operator_power_ranks) == 3
        assert len(report.shifted_power_ranks) == 3


class TestProofInvariants:
    def test_decomposition_identity(self, sl2, solvable):
        # x = R(-x) + (R+id)(x): images of R and R+id span the space.
        from postrb.lie import Subspace

        for algebra, op in [
            (sl2, make_sl2_operator()),
            (solvable, solvable_witness(alpha=1, beta=0, gamma=0)),
        ]:
            m, shifted = op.matrix, op.plus_identity().matrix
            n = algebra.dim
            image = Subspace.from_spanning(
                n,
                [m.column(j) for j in range(n)]
                + [shifted.column(j) for j in range(n)],
            )
            assert image.dim == n

    def test_image_intersection_identity(self, sl2, solvable):
        # Im(R) meet Im(R+id) equals Im(R(R+id)) for the towers at hand:
        # R(R+id) = (R+id)R puts the product's image in both, and
        # dim(L meet R) = dim L + dim R - dim(L + R) matches its dimension.
        from postrb.lie import Subspace

        for algebra, op in [
            (sl2, make_sl2_operator()),
            (solvable, solvable_witness(alpha=1, beta=0, gamma=-1)),
        ]:
            n = algebra.dim
            m, shifted = op.matrix, op.plus_identity().matrix
            product = m @ shifted
            left = Subspace.from_spanning(n, [m.column(j) for j in range(n)])
            right = Subspace.from_spanning(n, [shifted.column(j) for j in range(n)])
            expected = Subspace.from_spanning(n, [product.column(j) for j in range(n)])
            assert all(left.contains(b) and right.contains(b) for b in expected.basis)
            total = Subspace.from_spanning(n, left.basis + right.basis)
            assert left.dim + right.dim - total.dim == expected.dim

    def test_level_one_semisimple_implies_level_zero(self, sl2):
        # Where the cited result applies: R = 0 and R = -id towers.
        for op in (LinearMap.zero(3), -LinearMap.identity(3)):
            t = build_tower(sl2, op, 1)
            if killing_semisimple(t.levels[1])[1]:
                assert killing_semisimple(t.levels[0])[1]

    def test_fingerprints_match_between_routes(self, sl2):
        op = make_sl2_operator()
        direct = next_bracket(sl2, op)
        via = sub_adjacent(from_rota_baxter(sl2, op))
        assert invariant_fingerprint(direct) == invariant_fingerprint(via)
