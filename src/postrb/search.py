"""Grid scan for inner post-Lie structures with nonzero obstruction class.

Every inner product has the shape x > y = [w(x), y] for a linear w, and two
such w induce the same product exactly when they differ by a map into the
center.  The scan therefore enumerates w with columns in a complement of the
center over a small coefficient grid, keeps the post-Lie ones and classifies
each by whether its defect is a coboundary.  Findings are reported, not
asserted: this is an exploration harness.

By Jacobi, which the bracket is checked for first, such a product satisfies
the derivation identity, and the weighted associativity exactly when the
obstruction defect kappa_ij = [w_i, w_j] - w(sub_ij) is central for i < j,
with sub_ij = [e_i, e_j] + [w_i, e_j] - [w_j, e_i].  v is central iff
v_q = sum_r v_{p_r} z_r[q] off the pivots p_r of the center rows z_r.  The
complement is spanned by the coordinates off those pivots, so every grid
column vanishes on them, and only the part [w_i, w_j] - sub_ij[i] w_i -
sub_ij[j] w_j needs that correction.  It depends on (i, j, idx[i], idx[j])
only: each grid column c gets its ad table ads[c][k] = [c, e_k] once, and a
candidate is an index tuple idx.

The whole scan runs on Gaussian integers, each held as two ``int``s, in the
sparse rows of ``lie._accumulate``; a scalar is built only for the witness
of a reported example.  Three scales put every quantity on a common
denominator (the integer-preserving idea of Bareiss, Math. Comp. 22, 1968):
G, the lcm of the grid's denominators; T, that of the structure
constants; Z, that of the center rows.  The grid columns are held as G c,
the ad tables as G T [c, e_k], and the table as T [e_i, e_j]; in sub_ij the
table entry [e_i, e_j] has degree 0 in the grid where [w_i, e_j] has
degree 1, so it takes the extra G, and every term of sub_ij is at scale
G T.  Every term of [w_i, w_j] and of sub_ij[m] w_m is then at G^2 T.
The centrality test is the integer functional Z v_q - sum_r (Z z_r[q])
v_{p_r} per coordinate q off the pivots, so every term of a defect
coordinate, as tested, is at G^2 T Z.
Since every term of a quantity carries the same scale, the scaled quantity
is the true one times one nonzero integer: every zero and every nonzero is
kept, and the scan decides what it decided on scalars.

From n = 3 on the scan walks the pairs (idx[0], idx[1]) outermost, builds
the part of the pair (0, 1) once for each, then walks the middle columns
and solves for the last one instead of trying each.  The pair (0, 1)
leaves out column n-1, so its tested defect is R - s W with s = sub_01[n-1]
at scale G T, R fixed by the prefix at G^2 T Z, and W the last column, as
tested, at G Z.  If s = x + y i != 0, only W = R/s can pass, and it is a
Gaussian integer: with N = x^2 + y^2, N must divide both parts of R
conj(s) in every coordinate, or no column matches.  The quotient is looked
up in a map from the tested columns to the grid indices that carry them.
If s = 0 the prefix passes with every last column when R = 0 and with none
otherwise.  Each survivor is then checked on every other pair, paying only
for the terms sub_ij[m] w_m of the other columns.  The parts of those pairs
are kept in one dict per scan, keyed by (i, j, idx[i], idx[j]); the pair
(0, 1) needs none, as each of its parts serves one contiguous run of
prefixes.

A valid candidate reads sub_ij at G T and kappa_ij at G^2 T off the same
integer rows and stays on them.  Only the pairs i < j are held, so both
tables are alternating by construction.  Neither is checked again: the
walk tested the centrality functionals of every kappa_ij, so the product
is post-Lie (see above), and so its sub-adjacent bracket is Lie.  The class
is decided on the rows [sub_ij | kappa_ij], i < j, by the one decision that
``coboundary_solve`` makes too, ``lie_obstruction._coboundary_echelon``;
the scan never back-substitutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, NamedTuple, Sequence

from .lie import (
    LieAlgebra,
    Subspace,
    _accumulate,
    _integer_vectors,
    _left_products,
    _sparse,
    center,
    jacobi_violations,
)
from .lie_obstruction import _coboundary_echelon
from .postlie import LinearMap
from .scalars import (
    IntegerRow,
    ScalarLike,
    Vector,
    _integer_row,
    vector,
    zero_vector,
)


@dataclass(frozen=True)
class ScanFinding:
    algebra_name: str
    witness: LinearMap
    trivial_class: bool


@dataclass(frozen=True)
class ScanSummary:
    candidates: int
    valid_post_lie: int
    trivial_class: int
    nontrivial_class: int
    nontrivial_examples: tuple[ScanFinding, ...]

    def describe(self) -> str:
        lines = [
            f"candidates scanned: {self.candidates}",
            f"valid inner post-Lie structures: {self.valid_post_lie}",
            f"trivial obstruction class: {self.trivial_class}",
            f"nontrivial obstruction class: {self.nontrivial_class}",
        ]
        for finding in self.nontrivial_examples:
            lines.append(
                f"nontrivial example on {finding.algebra_name}: witness rows "
                + "; ".join(
                    " ".join(str(x) for x in row)
                    for row in finding.witness.matrix.entries
                )
            )
        return "\n".join(lines)


def default_catalog() -> list[tuple[str, LieAlgebra]]:
    """Small named Lie algebras of dimension at most three."""
    return [
        ("abelian-1", LieAlgebra.abelian(1)),
        ("abelian-2", LieAlgebra.abelian(2)),
        ("affine-2", LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})),
        ("abelian-3", LieAlgebra.abelian(3)),
        ("affine-3", LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0]})),
        ("heisenberg", LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1]})),
        (
            "simple-3",
            LieAlgebra.from_brackets(
                3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (2, 0): [0, 1, 0]}
            ),
        ),
    ]


class _Scaled(NamedTuple):
    """The scan's integer rows, each at its scale (see the module docstring).

    ``sc[i][j]`` is T [e_i, e_j]; ``grid[c]`` is G c and ``ads[c][k]`` is
    G T [c, e_k] for grid column c.  There are ``width`` coordinates off the
    pivots; the t-th of them, q, has the centrality functional
    Z v_q - sum_r Z z_r[q] v_{p_r}.  ``phi[p]`` holds the (t, a, b) with
    a + b*i the coefficient of v_p in the t-th functional, and ``tested[c]``
    the (t, a, b) with a + b*i the t-th functional on G c, which is G Z c_q
    as c vanishes on the pivots.  ``g`` and ``t`` are G and T.
    """

    sc: Sequence[Sequence[IntegerRow]]
    grid: Sequence[IntegerRow]
    ads: Sequence[Sequence[IntegerRow]]
    phi: Sequence[IntegerRow]
    tested: Sequence[IntegerRow]
    width: int
    g: int
    t: int


def _scaled(
    algebra: LieAlgebra, z: Subspace, off: Sequence[int], grid: Sequence[Vector]
) -> _Scaled:
    """The integer rows of a scan of ``algebra`` over ``grid``, whose
    columns vanish on the pivots of the center ``z``; ``off`` lists the
    other coordinates."""
    n = algebra.dim
    g, columns = _integer_vectors(grid)
    # T is the least scale of the table, on which the algebra holds it.
    t, table = algebra._integer
    zs, center_rows = _integer_vectors(z.basis)
    position = {q: k for k, q in enumerate(off)}
    phi = [[(position[q], zs, 0)] if q in position else [] for q in range(n)]
    for row, p in zip(center_rows, z.pivots):
        phi[p] += [(position[q], -x, -y) for q, x, y in row if q != p]
    return _Scaled(
        table,
        columns,
        _left_products(columns, table),
        tuple(map(tuple, phi)),
        [_integer_row([col[q] for q in off], g * zs) for col in grid],
        len(off),
        g,
        t,
    )


def _pair_rows(
    rows: _Scaled, i: int, j: int, a: int, b: int
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The real and imaginary parts of sub = [e_i, e_j] + [w_i, e_j] -
    [w_j, e_i] at scale G T and of the part [w_i, w_j] - sub[i] w_i -
    sub[j] w_j at G^2 T, for idx[i] = a and idx[j] = b."""
    sc, grid, ads = rows.sc, rows.grid, rows.ads
    n = len(sc)
    ta = ads[a]
    sre, sim = [0] * n, [0] * n
    # [e_i, e_j] has degree 0 in the grid, so it takes the extra G.
    terms = (sc[i][j], ta[j], ads[b][i])
    _accumulate(sre, sim, ((0, rows.g, 0), (1, 1, 0), (2, -1, 0)), terms)
    pre, pim = [0] * n, [0] * n
    # [w_i, w_j] = sum_k w_j[k] [w_i, e_k].
    _accumulate(pre, pim, grid[b], ta)
    ends = tuple(
        (e, sre[m], sim[m]) for e, m in ((0, i), (1, j)) if sre[m] or sim[m]
    )
    _accumulate(pre, pim, ends, (grid[a], grid[b]), -1)
    return sre, sim, pre, pim


def _others(sre: list[int], sim: list[int], i: int, j: int) -> IntegerRow:
    """The nonzero sub[m], m not in (i, j), as (m, re, im)."""
    return tuple(
        (m, x, y)
        for m, (x, y) in enumerate(zip(sre, sim))
        if (x or y) and m not in (i, j)
    )


def _pair_part(
    rows: _Scaled, i: int, j: int, a: int, b: int
) -> tuple[IntegerRow, list[int], list[int]]:
    """What the defect at (i, j) needs from idx[i] = a, idx[j] = b.

    With sub and the part as in ``_pair_rows`` the defect is the part less
    sum_m sub[m] w_m over the other columns m.  Returns those sub[m] as
    (m, re, im) at scale G T, and the real and imaginary parts of the
    centrality functionals of the part, at G^2 T Z: all zero exactly when
    the part is central.
    """
    sre, sim, pre, pim = _pair_rows(rows, i, j, a, b)
    cre, cim = [0] * rows.width, [0] * rows.width
    _accumulate(cre, cim, _sparse(pre, pim), rows.phi)
    return _others(sre, sim, i, j), cre, cim


def _residual(
    columns: Sequence[IntegerRow], others: IntegerRow, re: list[int], im: list[int]
) -> tuple[list[int], list[int]]:
    """Copies of ``re`` and ``im`` less sum s columns[m] over (m, s) in
    ``others``."""
    re, im = re[:], im[:]
    _accumulate(re, im, others, columns, -1)
    return re, im


def _exact_quotient(
    re: Sequence[int], im: Sequence[int], x: int, y: int
) -> IntegerRow | None:
    """(re + im*i)/(x + y*i) per coordinate t in Z[i], as the sparse row of
    its nonzero (t, real part, imaginary part), or None when some
    coordinate is not divisible."""
    norm = x * x + y * y
    quotient = []
    for t, (u, v) in enumerate(zip(re, im)):
        # (u + v*i) conj(x + y*i) = (u x + v y) + (v x - u y) i.
        u, v = u * x + v * y, v * x - u * y
        if u % norm or v % norm:
            return None
        if u or v:
            quotient.append((t, u // norm, v // norm))
    return tuple(quotient)


def _central_witnesses(rows: _Scaled) -> Iterator[tuple[int, ...]]:
    """The index tuples, in ``product`` order, whose defect is central at
    every pair i < j.

    From n = 3 on the part of the pair (0, 1) is built once per (idx[0],
    idx[1]), the outermost loop, and the last column is solved from it; the
    part of every other pair is built once and kept in ``parts``, which the
    generator drops when it finishes.
    """
    n = len(rows.sc)
    everything = range(len(rows.grid))
    tested = rows.tested
    parts: dict[tuple[int, int, int, int], tuple] = {}

    def central(idx: tuple[int, ...], pairs: Sequence[tuple[int, int]]) -> bool:
        columns = [tested[c] for c in idx]
        for i, j in pairs:
            key = (i, j, idx[i], idx[j])
            part = parts.get(key)
            if part is None:
                part = parts[key] = _pair_part(rows, *key)
            re, im = _residual(columns, *part)
            if any(re) or any(im):
                return False
        return True

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if n < 3:
        for idx in product(everything, repeat=n):
            if central(idx, pairs):
                yield idx
        return
    del pairs[0]  # solved for below
    last = n - 1
    by_values: dict[IntegerRow, tuple[int, ...]] = {}
    for c, col in enumerate(tested):
        by_values[col] = by_values.get(col, ()) + (c,)
    for a, b in product(everything, repeat=2):
        others, cre, cim = _pair_part(rows, 0, 1, a, b)
        s = next(((x, y) for m, x, y in others if m == last), None)
        fixed = tuple(t for t in others if t[0] != last)
        for middle in product(everything, repeat=n - 3):
            prefix = (a, b, *middle)
            re, im = _residual([tested[c] for c in prefix], fixed, cre, cim)
            if s:
                key = _exact_quotient(re, im, *s)
                lasts = () if key is None else by_values.get(key, ())
            elif any(re) or any(im):
                continue
            else:
                lasts = everything
            for c in lasts:
                idx = prefix + (c,)
                if central(idx, pairs):
                    yield idx


class _Classified(NamedTuple):
    """A valid candidate's sub_ij at scale G T and kappa_ij at G^2 T, each
    for the pairs i < j in order, and whether its class is nontrivial."""

    sub: tuple[IntegerRow, ...]
    kappa: tuple[IntegerRow, ...]
    nontrivial: bool


def _classify(rows: _Scaled, idx: tuple[int, ...]) -> _Classified:
    """Read sub_ij and kappa_ij off the integer rows and decide the class.

    The walk yields only tuples whose every kappa_ij is central, so the
    product is post-Lie and its sub-adjacent bracket is Lie: neither needs
    checking here.  The class is decided by ``_coboundary_echelon`` on the
    rows [sub_ij | kappa_ij], whose blocks are at the scales G T and G^2 T:
    scaling a block moves no pivot.
    """
    n = len(idx)
    columns = [rows.grid[c] for c in idx]
    sub, kappa = [], []
    for i in range(n):
        for j in range(i + 1, n):
            sre, sim, kre, kim = _pair_rows(rows, i, j, idx[i], idx[j])
            _accumulate(kre, kim, _others(sre, sim, i, j), columns, -1)
            sub.append(_sparse(sre, sim))
            kappa.append(_sparse(kre, kim))
    return _Classified(tuple(sub), tuple(kappa), _coboundary_echelon(sub, kappa, n) is None)


def scan_algebra(
    name: str,
    algebra: LieAlgebra,
    coefficients: Sequence[ScalarLike] = (-1, 0, 1),
    max_examples: int = 3,
) -> ScanSummary:
    """Scan one algebra; inner products are parametrized by the witness grid.

    Every witness with columns on the grid counts as a candidate, so a
    coefficient listed twice repeats the grid columns, and with them the
    candidates and the structures found.

    Raises ``ValueError`` naming the first basis triple where the bracket
    fails Jacobi, before any candidate is built.
    """
    bad = jacobi_violations(algebra)
    if bad:
        raise ValueError(
            f"bracket fails Jacobi at basis triple {tuple(x + 1 for x in bad[0])}:"
            " input is not a Lie algebra"
        )
    n = algebra.dim
    z = center(algebra)
    off = [q for q in range(n) if q not in z.pivots]
    grid = []
    for choice in product(vector(coefficients), repeat=len(off)):
        col = list(zero_vector(n))
        for value, slot in zip(choice, off):
            col[slot] = value
        grid.append(tuple(col))
    rows = _scaled(algebra, z, off, grid)
    valid = 0
    trivial = 0
    nontrivial = 0
    examples: list[ScanFinding] = []
    for idx in _central_witnesses(rows):
        valid += 1
        if _classify(rows, idx).nontrivial:
            nontrivial += 1
            if len(examples) < max_examples:
                witness = LinearMap.from_columns([grid[c] for c in idx])
                examples.append(ScanFinding(name, witness, trivial_class=False))
        else:
            trivial += 1
    return ScanSummary(len(grid) ** n, valid, trivial, nontrivial, tuple(examples))


def scan_catalog(
    catalog: Sequence[tuple[str, LieAlgebra]] | None = None,
    coefficients: Sequence[ScalarLike] = (-1, 0, 1),
) -> dict[str, ScanSummary]:
    """Scan every catalog entry; returns a name-keyed summary map."""
    results: dict[str, ScanSummary] = {}
    for name, algebra in catalog if catalog is not None else default_catalog():
        results[name] = scan_algebra(name, algebra, coefficients)
    return results
