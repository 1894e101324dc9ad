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
tested, at G Z.  If s = x + y i != 0, only W = R/s can pass: with
N = x^2 + y^2, the columns that pass are those with R conj(s) = N W.  If
s = 0 the prefix passes with every last column when R = 0 and with none
otherwise.  Each survivor is then checked on every other pair, paying only
for the terms sub_ij[m] w_m of the other columns.  The parts of those pairs
are kept in one dict per scan, keyed by (i, j, idx[i], idx[j]); the pair
(0, 1) needs none, as each of its parts serves one contiguous run of
prefixes.

The walk only tests the width-vectors of functionals for zero or looks
them up, so it holds each as two ``int``s, pack(Re v) and pack(Im v), with
pack(u) = sum_t u_t 2^(B t): Kronecker substitution (Harvey, J. Symbolic
Comput. 44, 2009), whose arithmetic runs in C.  Once per scan the tested
columns t_c = phi(G c) at G Z are packed, phi being the centrality
functionals, and so are the phi_p, the coefficients of v_p in them.  pack
is Z-linear, so the tables phi(G T [e_k, c]) = -sum_p G T [c, e_k]_p phi_p
at G T Z are sums of packed ints.  So is the defect at (i, j),
phi(kappa_ij) = -sum_k w_j[k] phi([e_k, w_i]) - sum_m sub_ij[m] t_{idx[m]}:
a few multiply-adds, central when both of its ints are 0.  The last
column is solved on the packed parts of R: U = x pack(Re R) + y pack(Im R)
and V = x pack(Im R) - y pack(Re R) are, by linearity, pack(Re R conj(s))
and pack(Im R conj(s)), and the columns that can pass are the c with
N | U, N | V and (U/N, V/N) = (pack(Re t_c), pack(Im t_c)).

Why that is exact.  Write |z| for max(|Re z|, |Im z|), so that
|z w| <= 2 |z| |w|, and |.| of a table for the largest |.| of its entries.
Let gamma = |G c| and tau = |t_c| over the grid, pi = 2n |G T [c, e_k]|
|phi|, which bounds every lane of every phi(G T [e_k, c]), and
sigma = G |T [e_i, e_j]| + 2 |G T [c, e_k]|, which bounds every entry of
every sub_ij.  A tested defect is a sum of 2n terms, each of |.|
at most 2 gamma pi or 2 sigma tau, so every lane of it, and of each
partial sum the walk keeps (the part of a pair, a residual, R), is at most
D = 2n (gamma pi + sigma tau).  The lanes of U and V are at most
2 sigma D, and those of N t_c at most 2 sigma^2 tau <= 2 sigma D.  B is one
more than the bit length of max(tau, D, 2 sigma D), so every lane of every
packed quantity is below 2^(B-1) in absolute value.  On such vectors pack
is injective: a difference of two has lanes below 2^B, and its lowest
nonzero lane would be a nonzero multiple of 2^B.  So a packed zero test
holds exactly when every lane is zero, and two keys are equal exactly when
their vectors are.  If N | U, N | V and U/N = pack(Re t_c), then
pack(Re R conj(s)) = U = pack(N Re t_c), and as both vectors are within the
bound, Re R conj(s) = N Re t_c; with V likewise, R conj(s) = N t_c, that
is R = s t_c.  Conversely R = s t_c makes U/N and V/N the key of t_c.  So
the lookup names exactly the columns that the quotient R/s in Z[i], taken
coordinate by coordinate, names, and every yielded tuple is the one the
unpacked test yields.

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
from itertools import chain, product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .lie import (
    LieAlgebra,
    _accumulate,
    _coefficient_rows,
    _held,
    _integer_vectors,
    _left_products,
    _null_basis,
    _sparse,
    jacobi_violations,
)
from .lie_obstruction import _coboundary_echelon
from .postlie import LinearMap
from .scalars import (
    IntegerRow,
    ScalarLike,
    Vector,
    _integer_row,
    _IntegerForm,
    _least_vectors,
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

    ``table[i][j]`` is T [e_i, e_j]; ``grid[c]`` is G c and ``ads[c][k]`` is
    G T [c, e_k] for grid column c.  There are ``width`` coordinates off the
    pivots; the t-th of them, q, has the centrality functional
    Z v_q - sum_r Z z_r[q] v_{p_r}.  ``phi[p]`` holds the (t, a, b) with
    a + b*i the coefficient of v_p in the t-th functional, and ``tested[c]``
    the (t, a, b) with a + b*i the t-th functional on G c, which is G Z c_q
    as c vanishes on the pivots.  ``g`` and ``t`` are G and T.
    """

    table: Sequence[Sequence[IntegerRow]]
    grid: Sequence[IntegerRow]
    ads: Sequence[Sequence[IntegerRow]]
    phi: Sequence[IntegerRow]
    tested: Sequence[IntegerRow]
    width: int
    g: int
    t: int


def _scaled(algebra: LieAlgebra, z: tuple, off: Sequence[int], grid: Sequence[Vector]) -> _Scaled:
    """The integer rows of a scan of ``algebra`` over ``grid``, whose
    columns vanish on the pivots of the center ``z`` (its canonical basis
    on its least scale Z, and the pivots); ``off`` lists the other
    coordinates."""
    n = algebra.dim
    g, columns = _integer_vectors(grid)
    # T is the least scale of the table, on which the algebra holds it.
    t, table = algebra._integer
    (zs, center_rows), pivots = z
    position = {q: k for k, q in enumerate(off)}
    phi = [[(position[q], zs, 0)] if q in position else [] for q in range(n)]
    for row, p in zip(center_rows, pivots):
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


def _sub(rows: _Scaled, i: int, j: int, a: int, b: int) -> tuple[list[int], list[int]]:
    """The real and imaginary parts of sub = [e_i, e_j] + [w_i, e_j] -
    [w_j, e_i] at scale G T, for idx[i] = a and idx[j] = b."""
    table, ads = rows.table, rows.ads
    sre, sim = [0] * len(table), [0] * len(table)
    # [e_i, e_j] has degree 0 in the grid, so it takes the extra G.
    terms = (table[i][j], ads[a][j], ads[b][i])
    _accumulate(sre, sim, ((0, rows.g, 0), (1, 1, 0), (2, -1, 0)), terms)
    return sre, sim


Packed = tuple[int, int]


def _pack(row: IntegerRow, bits: int) -> Packed:
    """The sparse width-vector ``row`` as pack(Re row) and pack(Im row),
    lane t at bit ``bits`` * t."""
    return sum(a << bits * t for t, a, _ in row), sum(b << bits * t for t, _, b in row)


def _largest(rows: Iterable[IntegerRow]) -> int:
    """The largest |a| and |b| over the (k, a, b) of ``rows``."""
    return max((max(abs(a), abs(b)) for row in rows for _, a, b in row), default=0)


def _less(re: int, im: int, terms: IntegerRow, columns: Sequence[Packed]) -> Packed:
    """re + im*i less sum (x + y*i) columns[m] over (m, x, y) in ``terms``,
    lane by lane."""
    for m, x, y in terms:
        u, v = columns[m]
        re -= x * u - y * v
        im -= x * v + y * u
    return re, im


def _quotient(re: int, im: int, x: int, y: int) -> Packed | None:
    """(U/N, V/N) for U + V*i = (re + im*i)(x - y*i) and N = x^2 + y^2,
    or None when N does not divide U and V: the key of R/s (see the module
    docstring)."""
    norm = x * x + y * y
    u, v = re * x + im * y, im * x - re * y
    if u % norm or v % norm:
        return None
    return u // norm, v // norm


class _Lanes(NamedTuple):
    """The walk's packed vectors, on ``bits`` = B bits per lane (see the
    module docstring): ``tested[c]`` is t_c and ``products[c][k]`` is
    phi(G T [e_k, c]), for grid column c."""

    tested: tuple[Packed, ...]
    products: tuple[tuple[Packed, ...], ...]
    bits: int


def _lanes(rows: _Scaled) -> _Lanes:
    """Pack t_c and phi(G T [e_k, c]) on the lane width B that the module
    docstring derives from the maxima of the scaled tables."""
    n = len(rows.table)
    ads = _largest(chain(*rows.ads))
    sigma = rows.g * _largest(chain(*rows.table)) + 2 * ads
    tau = _largest(rows.tested)
    pi = 2 * n * ads * _largest(rows.phi)
    d = 2 * n * (_largest(rows.grid) * pi + sigma * tau)
    bits = max(tau, d, 2 * sigma * d).bit_length() + 1
    phi = [_pack(row, bits) for row in rows.phi]
    return _Lanes(
        tuple(_pack(t, bits) for t in rows.tested),
        # phi([e_k, c]) = -phi([c, e_k]) = -sum_p [c, e_k]_p phi_p.
        tuple(tuple(_less(0, 0, v, phi) for v in row) for row in rows.ads),
        bits,
    )


def _part(
    rows: _Scaled, lanes: _Lanes, i: int, j: int, a: int, b: int
) -> tuple[int, int, IntegerRow]:
    """What the defect at (i, j) needs from idx[i] = a, idx[j] = b.

    The defect is the part [w_i, w_j] - sub[i] w_i - sub[j] w_j less
    sum_m sub[m] w_m over the other columns m.  Returns the packed
    centrality functionals of the part, at G^2 T Z, and every sub[m], m not
    in (i, j), as (m, re, im) in order of m.
    """
    sre, sim = _sub(rows, i, j, a, b)
    tested = lanes.tested
    # phi([w_i, w_j]) = sum_k w_j[k] phi([w_i, e_k]) = -sum_k w_j[k] phi([e_k, w_i]).
    re, im = _less(0, 0, rows.grid[b], lanes.products[a])
    ends = ((0, sre[i], sim[i]), (1, sre[j], sim[j]))
    others = [(m, sre[m], sim[m]) for m in range(len(sre)) if m != i and m != j]
    return (*_less(re, im, ends, (tested[a], tested[b])), tuple(others))


def _central_witnesses(rows: _Scaled) -> Iterator[tuple[int, ...]]:
    """The index tuples, in ``product`` order, whose defect is central at
    every pair i < j.

    With no functional to test (width 0) every tuple is.  From n = 3 on the
    part of the pair (0, 1) is built once per (idx[0], idx[1]), the
    outermost loop, and the last column is solved from it; the part of
    every other pair is built once and kept in ``parts``, which the
    generator drops when it finishes.
    """
    n = len(rows.table)
    everything = range(len(rows.grid))
    if not rows.width:
        yield from product(everything, repeat=n)
        return
    lanes = _lanes(rows)
    tested = lanes.tested
    parts: dict[tuple[int, int, int, int], tuple] = {}

    def central(idx: tuple[int, ...], pairs: Sequence[tuple[int, int]]) -> bool:
        columns = [tested[c] for c in idx]
        for i, j in pairs:
            key = (i, j, idx[i], idx[j])
            part = parts.get(key)
            if part is None:
                part = parts[key] = _part(rows, lanes, *key)
            re, im = _less(*part, columns)
            if re or im:
                return False
        return True

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if n < 3:
        for idx in product(everything, repeat=n):
            if central(idx, pairs):
                yield idx
        return
    del pairs[0]  # solved for below
    by_values: dict[Packed, tuple[int, ...]] = {}
    for c, col in enumerate(tested):
        by_values[col] = by_values.get(col, ()) + (c,)
    for a, b in product(everything, repeat=2):
        cre, cim, others = _part(rows, lanes, 0, 1, a, b)
        # others runs over m = 2, ..., n-1: s = x + y*i comes last.
        *fixed, (_, x, y) = others
        for middle in product(everything, repeat=n - 3):
            prefix = (a, b, *middle)
            re, im = _less(cre, cim, fixed, [tested[c] for c in prefix])
            if x or y:
                key = _quotient(re, im, x, y)
                lasts = () if key is None else by_values.get(key, ())
            elif re or im:
                continue
            else:
                lasts = everything
            for c in lasts:
                idx = prefix + (c,)
                if central(idx, pairs):
                    yield idx


def _pair_rows(
    rows: _Scaled, idx: tuple[int, ...], i: int, j: int
) -> tuple[IntegerRow, IntegerRow]:
    """The sparse rows of sub_ij at scale G T and of kappa_ij = [w_i, w_j] -
    sum_m sub_ij[m] w_m at G^2 T, for the witness idx."""
    sre, sim = _sub(rows, i, j, idx[i], idx[j])
    sub = _sparse(sre, sim)
    n = len(idx)
    columns = [rows.grid[c] for c in idx]
    kre, kim = [0] * n, [0] * n
    # [w_i, w_j] = sum_k w_j[k] [w_i, e_k].
    _accumulate(kre, kim, columns[j], rows.ads[idx[i]])
    _accumulate(kre, kim, sub, columns, -1)
    return sub, _sparse(kre, kim)


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
    pairs = [_pair_rows(rows, idx, i, j) for i in range(n) for j in range(i + 1, n)]
    sub = tuple(row for row, _ in pairs)
    kappa = tuple(row for _, row in pairs)
    return _Classified(sub, kappa, _coboundary_echelon(sub, kappa, n) is None)


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
    z = _null_basis(_coefficient_rows((algebra._integer, 1)), n)
    off = [q for q in range(n) if q not in z[1]]
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
                witness = _IntegerForm(rows.g, tuple(rows.grid[c] for c in idx))
                witness = _held(LinearMap, _integer=_least_vectors(witness))
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
