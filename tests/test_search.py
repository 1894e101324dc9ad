"""Grid scan harness: counts cross-checked against hand formulas, against
products built bracket by bracket, and across changes of basis."""

import sys
from fractions import Fraction
from itertools import product

import pytest

from postrb import lie, lie_obstruction, scalars, search
from postrb.errors import NontrivialObstructionError
from postrb.lie import LieAlgebra, center, change_basis
from postrb.lie_obstruction import (
    coboundary_solve,
    construct_rb_from_obstruction,
    obstruction_cocycle,
)
from postrb.postlie import (
    LinearMap,
    PostLieAlgebra,
    check_postlie_axioms,
    check_rota_baxter,
    induced_table,
    sub_adjacent,
)
from postrb.scalars import (
    I,
    ZERO,
    ExactMatrix,
    from_triple,
    is_zero_vector,
    unit_vector,
    vector,
)
from postrb.search import ScanFinding, ScanSummary, default_catalog, scan_algebra

from conftest import dense_rref, make_heisenberg


def _grid(algebra: LieAlgebra, coefficients) -> list[list]:
    """The scan's grid columns: entries in ``coefficients`` on the
    coordinates off the pivots of the center's canonical basis, zero on
    them, in ``product`` order."""
    n = algebra.dim
    off = [k for k in range(n) if k not in center(algebra).pivots]
    columns = []
    for choice in product(coefficients, repeat=len(off)):
        column = [0] * n
        for k, value in zip(off, choice):
            column[k] = value
        columns.append(column)
    return columns


def _scalars(row, n: int, scale: int) -> tuple:
    """The n-vector whose k-th entry is (a + b*i)/scale for each (k, a, b)
    in the sparse integer ``row``, zero elsewhere."""
    out = [ZERO] * n
    for k, a, b in row:
        out[k] = from_triple(a, b, scale)
    return tuple(out)


def _oracle(name: str, algebra: LieAlgebra, coefficients, max_examples=3) -> ScanSummary:
    """The scan's summary, found the slow way.  For each grid witness, in
    ``product`` order, the product is built from ``bracket`` one basis pair
    at a time; it counts as valid when it passes every post-Lie axiom, and
    as nontrivial when ``construct_rb_from_obstruction`` refuses it."""
    n = algebra.dim
    columns = _grid(algebra, coefficients)
    valid = trivial = 0
    examples = []
    for witness in product(columns, repeat=n):
        products = {
            (i, j): algebra.bracket(witness[i], unit_vector(n, j))
            for i in range(n)
            for j in range(n)
        }
        post = PostLieAlgebra.from_products(algebra, products)
        if not check_postlie_axioms(post).ok:
            continue
        valid += 1
        witness_map = LinearMap.from_columns(witness)
        try:
            construct_rb_from_obstruction(post, witness_map)
        except NontrivialObstructionError:
            if len(examples) < max_examples:
                examples.append(ScanFinding(name, witness_map, trivial_class=False))
        else:
            trivial += 1
    return ScanSummary(
        len(columns) ** n, valid, trivial, valid - trivial, tuple(examples)
    )


_ORACLE_ALGEBRAS = {
    **dict(default_catalog()),
    "heisenberg+line": LieAlgebra.from_brackets(4, {(0, 1): [0, 0, 1, 0]}),
    "heisenberg+line-skew": LieAlgebra.from_brackets(4, {(0, 1): [0, 0, 1, 1]}),
}

HALF = Fraction(1, 2)
# A change of basis of determinant 6: the brackets get denominators 3 and 6.
NON_UNIMODULAR = ExactMatrix.from_rows([[2, 0, 1], [0, 1, 1], [0, 0, 3]])
# f3 = e3 - 2 e1, so the Heisenberg center e3 = 2 f1 + f3 has the canonical
# row (1, 0, 1/2): the centrality test needs the center's denominator.
HALF_PIVOT = ExactMatrix.from_rows([[1, 0, -2], [0, 1, 0], [0, 0, 1]])
SKEW = ExactMatrix.from_rows([[1, 0, -1], [0, 1, 1], [0, 0, 1]])
# Grids whose candidates carry denominators, complex entries or both.
SCALAR_GRIDS = [
    (make_heisenberg(), (0, HALF, -1)),
    (change_basis(make_heisenberg(), HALF_PIVOT), (0, HALF, -1)),
    (change_basis(make_heisenberg(), NON_UNIMODULAR), (0, I, -1)),
    (LieAlgebra.from_brackets(3, {(0, 1): [0, 0, HALF]}), (0, HALF, 1 + I)),
]


def _counts(summary: ScanSummary) -> tuple[int, int, int, int]:
    return (
        summary.candidates,
        summary.valid_post_lie,
        summary.trivial_class,
        summary.nontrivial_class,
    )


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

    @pytest.mark.parametrize("coefficients", [(1, -1), (-1, 0, 1)])
    def test_rejects_bracket_failing_jacobi(self, coefficients):
        # Antisymmetric, but the cyclic Jacobi sum of (e1, e2, e3) is nonzero.
        # Products [w(x), y] on it can pass the centrality test without being
        # post-Lie, so the scan refuses before building any candidate.
        algebra = LieAlgebra.from_brackets(
            3, {(0, 1): [0, -1, -1], (0, 2): [-1, -1, -1], (1, 2): [0, -1, 0]}
        )
        with pytest.raises(ValueError, match=r"Jacobi at basis triple \(1, 2, 3\)"):
            scan_algebra("not-lie", algebra, coefficients)

    def test_catalog_names_unique(self):
        names = [name for name, _ in default_catalog()]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize(
        "name, coefficients, counts",
        [
            ("affine-2", (-1, 0, 1), (81, 22, 22, 0)),
            ("affine-2", (0, 1, I), (81, 9, 9, 0)),
            # The last column is solved by dividing by sub_01[2] =
            # 1 + w_0[0] + w_1[1], which is complex on most prefixes.
            ("simple-3", (0, I), (512, 1, 1, 0)),
            # sub_01[3] = 0: each prefix keeps every last column or none, as
            # its residual less the prefix column 2 vanishes or not.
            ("heisenberg+line", (0, 1), (256, 64, 29, 35)),
            # sub_01[2] = sub_01[3]: the residual less the prefix column 2
            # is divided by a nonzero s to find the last column.
            ("heisenberg+line-skew", (-1, 1), (256, 64, 16, 48)),
        ],
    )
    def test_counts_match_axiom_oracle(self, name, coefficients, counts):
        algebra = _ORACLE_ALGEBRAS[name]
        summary = scan_algebra(name, algebra, coefficients)
        assert (
            summary.candidates,
            summary.valid_post_lie,
            summary.trivial_class,
            summary.nontrivial_class,
        ) == counts
        assert summary == _oracle(name, algebra, coefficients)

    def test_repeated_coefficients_repeat_candidates(self):
        # Over the values {-1, 0} two witnesses are valid: zero, and one with
        # three entries -1.  Listing -1 twice spells that one 2^3 = 8 ways,
        # and each spelling is its own candidate, so 1 + 8 = 9 are valid.
        # Keeping one grid index per column value would find 1 + 4 = 5.
        summary = scan_algebra(
            "simple-3", dict(default_catalog())["simple-3"], (-1, -1, 0)
        )
        assert (
            summary.candidates,
            summary.valid_post_lie,
            summary.trivial_class,
            summary.nontrivial_class,
        ) == (19683, 9, 9, 0)

    @pytest.mark.parametrize(
        "name, counts",
        [
            ("heisenberg", (729, 81, 8)),
            ("affine-3", (729, 66, 0)),
            ("simple-3", (19683, 2, 0)),
        ],
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

    @pytest.mark.parametrize(
        "name, counts", [("heisenberg", (729, 49, 4)), ("affine-3", (729, 64, 0))]
    )
    def test_counts_match_oracle_with_skew_center(self, name, counts):
        # In the basis f1 = e1, f2 = e2, f3 = -e1 + e2 + e3 the center e3 is
        # the row (1, -1, 1), not a coordinate subspace, so a defect is
        # central only after the correction by the pivot coordinate.
        algebra = change_basis(dict(default_catalog())[name], SKEW)
        assert center(algebra).basis == (tuple(vector([1, -1, 1])),)
        summary = scan_algebra(name, algebra)
        assert (
            summary.candidates,
            summary.valid_post_lie,
            summary.nontrivial_class,
        ) == counts
        assert summary == _oracle(name, algebra, (-1, 0, 1))

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


class TestScanMatchesOracle:
    """The scan runs on Gaussian integers scaled by the grid's, the table's
    and the center's denominators; on each input the whole summary, counts
    and examples in order, must be the oracle's."""

    @pytest.mark.parametrize(
        "name, algebra, coefficients, counts",
        [
            ("heisenberg", make_heisenberg(), (0, HALF, -1), (729, 81, 73, 8)),
            ("affine-3", dict(default_catalog())["affine-3"], (0, HALF, -1), (729, 60, 60, 0)),
            ("affine-2", dict(default_catalog())["affine-2"], (0, HALF, -1), (81, 22, 22, 0)),
            (
                "heisenberg-half",
                LieAlgebra.from_brackets(3, {(0, 1): [0, 0, HALF]}),
                (-1, 0, 1),
                (729, 81, 73, 8),
            ),
            (
                "heisenberg-half",
                LieAlgebra.from_brackets(3, {(0, 1): [0, 0, HALF]}),
                (0, HALF, -1),
                (729, 81, 73, 8),
            ),
            (
                "heisenberg-non-unimodular",
                change_basis(make_heisenberg(), NON_UNIMODULAR),
                (-1, 0, 1),
                (729, 9, 9, 0),
            ),
            (
                "heisenberg-non-unimodular",
                change_basis(make_heisenberg(), NON_UNIMODULAR),
                (0, HALF, -1),
                (729, 16, 15, 1),
            ),
            (
                "affine-3-non-unimodular",
                change_basis(dict(default_catalog())["affine-3"], NON_UNIMODULAR),
                (0, 1, I),
                (729, 31, 31, 0),
            ),
            # Some prefixes have s = 0 and a purely imaginary residual.
            ("affine-3", dict(default_catalog())["affine-3"], (0, I), (64, 10, 10, 0)),
            # The skew center (1, -1, 1) with complex divisors s.
            (
                "heisenberg-skew",
                change_basis(make_heisenberg(), SKEW),
                (0, I),
                (64, 9, 9, 0),
            ),
            (
                "heisenberg-half-pivot",
                change_basis(make_heisenberg(), HALF_PIVOT),
                (0, HALF, -1),
                (729, 36, 32, 4),
            ),
        ],
    )
    def test_scaled_input(self, name, algebra, coefficients, counts):
        summary = scan_algebra(name, algebra, coefficients)
        assert _counts(summary) == counts
        assert summary == _oracle(name, algebra, coefficients)

    def test_examples_are_held_on_their_least_scale(self):
        # On the grid (0, 1/2, -1) some Heisenberg witnesses have integer
        # columns only: held on the grid's scale 2, such a map would not
        # equal the same map built from its scalars.
        algebra = make_heisenberg()
        summary = scan_algebra("heisenberg", algebra, (0, HALF, -1), max_examples=8)
        assert summary == _oracle("heisenberg", algebra, (0, HALF, -1), max_examples=8)

    def test_half_pivot_center_has_a_denominator(self):
        algebra = change_basis(make_heisenberg(), HALF_PIVOT)
        assert center(algebra).basis == (vector([1, 0, HALF]),)

    def test_complex_divisor_without_exact_quotient(self, monkeypatch):
        # On simple-3 the last column is solved by dividing by sub_01[2] =
        # 1 + w_0[0] + w_1[1], which is complex on most prefixes of the grid
        # (0, i); on some of them it does not divide the residual in Z[i],
        # so no last column can match.
        refused = []
        exact_quotient = search._exact_quotient

        def spy(re, im, x, y):
            key = exact_quotient(re, im, x, y)
            if key is None and y:
                refused.append((x, y))
            return key

        monkeypatch.setattr(search, "_exact_quotient", spy)
        algebra = dict(default_catalog())["simple-3"]
        summary = scan_algebra("simple-3", algebra, (0, I))
        assert refused
        assert _counts(summary) == (512, 1, 1, 0)
        assert summary == _oracle("simple-3", algebra, (0, I))

    @pytest.mark.parametrize(
        "re, im, x, y, key",
        [
            ((6, 0), (3, 0), 3, 0, ((0, 2, 1),)),
            ((-4, 2), (2, 0), -2, 0, ((0, 2, -1), (1, -1, 0))),
            # (2 + i)/2 has an integral real part but is not in Z[i].
            ((2,), (1,), 2, 0, None),
            ((1,), (3,), 1, 1, ((0, 2, 1),)),
            ((5,), (0,), 2, 1, ((0, 2, -1),)),
            ((1,), (0,), 2, 1, None),
            ((0, 3), (0, -2), 0, 1, ((1, -2, -3),)),
            ((0, 0), (0, 0), 1, 1, ()),
        ],
    )
    def test_exact_quotient(self, re, im, x, y, key):
        assert search._exact_quotient(re, im, x, y) == key

    @pytest.mark.parametrize("algebra, coefficients", SCALAR_GRIDS)
    def test_candidates_read_the_scalar_tables(self, monkeypatch, algebra, coefficients):
        # Each valid candidate's sub-adjacent bracket and defect, read off
        # the integer rows and converted at their scales G T and G^2 T, are
        # the ones the scalar pipeline builds, and the verdict on those rows
        # is the coboundary solve's.
        seen = []
        classify = search._classify

        def spy(rows, idx):
            found = classify(rows, idx)
            seen.append((idx, rows.g * rows.t, rows.g, found))
            return found

        monkeypatch.setattr(search, "_classify", spy)
        summary = scan_algebra("x", algebra, coefficients)
        assert len(seen) == summary.valid_post_lie > 0
        assert sum(found.nontrivial for *_, found in seen) == summary.nontrivial_class
        columns = _grid(algebra, coefficients)
        n = algebra.dim
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for idx, scale, g, found in seen:
            witness = LinearMap.from_columns([columns[c] for c in idx])
            post = PostLieAlgebra(algebra, induced_table(algebra, witness))
            sub = sub_adjacent(post)
            cochain = obstruction_cocycle(post, witness)
            for (i, j), bracket, value in zip(pairs, found.sub, found.kappa, strict=True):
                assert _scalars(bracket, n, scale) == sub.sc[i][j]
                assert _scalars(value, n, scale * g) == cochain.value(i, j)
            assert found.nontrivial == (coboundary_solve(cochain, sub) is None)


class TestClassOracle:
    def test_verdicts_match_a_dense_elimination(self, monkeypatch):
        # h3 (+) k over the grid (0, 1): 64 valid candidates, 35 of them
        # nontrivial, and 19 of those have no pair where the sub-adjacent
        # bracket vanishes and the defect does not, so their refutation
        # combines rows.  Each verdict of the one class decision, reached
        # through the scan and through ``coboundary_solve``, is checked
        # against the dense elimination of the scalar system
        # [-sub_ij | kappa_ij], and each trivial one against the operator
        # that the reconstruction builds.
        algebra = _ORACLE_ALGEBRAS["heisenberg+line"]
        seen = []
        classify = search._classify

        def spy(rows, idx):
            found = classify(rows, idx)
            seen.append((idx, found.nontrivial))
            return found

        monkeypatch.setattr(search, "_classify", spy)
        assert _counts(scan_algebra("h3+k", algebra, (0, 1))) == (256, 64, 29, 35)
        columns = _grid(algebra, (0, 1))
        n = algebra.dim
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        combined = 0
        for idx, nontrivial in seen:
            witness = LinearMap.from_columns([columns[c] for c in idx])
            post = PostLieAlgebra(algebra, induced_table(algebra, witness))
            sub = sub_adjacent(post)
            cochain = obstruction_cocycle(post, witness)
            system = ExactMatrix(
                tuple(tuple(-x for x in sub.sc[i][j]) + cochain.value(i, j) for i, j in pairs),
                2 * n,
            )
            dense = any(p >= n for p in dense_rref(system)[1])
            assert nontrivial == (coboundary_solve(cochain, sub) is None) == dense
            if nontrivial:
                combined += not any(
                    is_zero_vector(sub.sc[i][j]) and not is_zero_vector(cochain.value(i, j))
                    for i, j in pairs
                )
            else:
                operator = construct_rb_from_obstruction(post, witness).operator
                assert check_rota_baxter(algebra, operator)
                assert induced_table(algebra, operator) == post.tc
        assert len(seen) == 64 and combined == 19


def _count_rref(monkeypatch) -> list:
    """Count every ``rref`` call, through whichever module names it."""
    calls = []
    rref = scalars.rref

    def counted(matrix):
        calls.append(matrix)
        return rref(matrix)

    for name, module in list(sys.modules.items()):
        if name.startswith("postrb") and getattr(module, "rref", None) is rref:
            monkeypatch.setattr(module, "rref", counted)
    return calls


class TestScanDesign:
    def test_scan_solves_on_integer_rows(self, monkeypatch):
        # No elimination runs over scalars, not even the center's, which
        # the scan reads as integer rows; no candidate builds a Lie algebra
        # or a cochain, or reaches the coboundary solve.
        catalog = default_catalog()
        calls = _count_rref(monkeypatch)

        def refused(*args, **kwargs):
            raise AssertionError("the scan reached the scalar pipeline")

        monkeypatch.setattr(lie_obstruction, "coboundary_solve", refused)
        # Both are built from scalars by ``__init__`` and from rows by
        # ``_held``.
        monkeypatch.setattr(lie_obstruction.LieTwoCochain, "__init__", refused)
        monkeypatch.setattr(lie.LieAlgebra, "__init__", refused)
        for module in (lie, lie_obstruction):
            monkeypatch.setattr(module, "_held", refused)
        for name, algebra in catalog:
            summary = scan_algebra(name, algebra)
            assert summary.valid_post_lie > 0
        assert calls == []


class TestWalkTheorems:
    """What ``_classify`` takes from the walk instead of rechecking: every
    tuple that ``_central_witnesses`` yields has each kappa_ij central, so
    its product is post-Lie and the sub-adjacent bracket satisfies Jacobi."""

    @pytest.mark.parametrize(
        "algebra, coefficients",
        [
            *((algebra, (-1, 0, 1)) for _, algebra in default_catalog()),
            (_ORACLE_ALGEBRAS["heisenberg+line"], (0, 1)),
            *SCALAR_GRIDS,
        ],
    )
    def test_yielded_candidates_are_post_lie(self, monkeypatch, algebra, coefficients):
        seen = []
        classify = search._classify

        def spy(rows, idx):
            found = classify(rows, idx)
            seen.append((rows, found))
            return found

        monkeypatch.setattr(search, "_classify", spy)
        summary = scan_algebra("x", algebra, coefficients)
        assert len(seen) == summary.valid_post_lie > 0
        n = algebra.dim
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for rows, found in seen:
            # ``found.sub`` is the sub-adjacent bracket at scale G T; Jacobi
            # is homogeneous, so the scale does not matter.
            upper = {
                pair: _scalars(bracket, n, 1)
                for pair, bracket in zip(pairs, found.sub, strict=True)
            }
            assert lie.check_jacobi(LieAlgebra(lie._alternating(n, upper)))
            for value in found.kappa:
                re, im = [0] * rows.width, [0] * rows.width
                lie._accumulate(re, im, value, rows.phi)
                assert not any(re) and not any(im)
