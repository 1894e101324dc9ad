"""Grid scan for inner post-Lie structures with nonzero obstruction class.

Every inner product has the shape x > y = [w(x), y] for a linear w, and two
such w induce the same product exactly when they differ by a map into the
center.  The scan therefore enumerates w with columns in a complement of the
center over a small coefficient grid, keeps the post-Lie ones and classifies
each by the coboundary solve.  Findings are reported, not asserted: this is
an exploration harness.

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

From n = 3 on the scan walks the pairs (idx[0], idx[1]) outermost, builds
the part of the pair (0, 1) once for each, then walks the middle columns
and solves for the last one instead of trying each.  The pair (0, 1)
leaves out column n-1, so its defect off the pivots is r - s w_{n-1} with
s = sub_01[n-1] and r fixed by the prefix.  If s != 0 only the columns
equal to r/s off the pivots can pass, found by one lookup in a map from
those values to the grid indices that carry them; if s = 0 the prefix
passes with every last column when r = 0 and with none otherwise.  Each
survivor is then checked on every other pair, paying only for the terms
sub_ij[m] w_m of the other columns.  The parts of those pairs are kept in
one dict per scan, keyed by (i, j, idx[i], idx[j]); the pair (0, 1) needs
none, as each of its parts serves one contiguous run of prefixes.  Only a
valid candidate gets its ``PostLieAlgebra``, witness and sub-adjacent
algebra built, once each.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .lie import LieAlgebra, center, jacobi_violations, left_columns
from .lie_obstruction import _defect, coboundary_solve
from .postlie import LinearMap, PostLieAlgebra, sub_adjacent
from .scalars import ScalarLike, Vector, ZERO, vector, zero_vector


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


def _pair_part(
    algebra: LieAlgebra,
    grid: Sequence[Vector],
    ads: Sequence[Sequence[Vector]],
    off: Sequence[tuple[int, tuple]],
    i: int,
    j: int,
    a: int,
    b: int,
) -> tuple[tuple, tuple]:
    """What the defect at (i, j) needs from idx[i] = a, idx[j] = b.

    With sub = [e_i, e_j] + [w_i, e_j] - [w_j, e_i] the defect is
    [w_i, w_j] - sum_m sub[m] w_m.  Returns the nonzero sub[m] of the other
    columns m, and per (q, terms) in ``off`` the coordinate q of the part
    [w_i, w_j] - sub[i] w_i - sub[j] w_j less sum part[p] c over (p, c) in
    terms: zero on every q exactly when that part is central.
    """
    n = algebra.dim
    wa, wb, ta = grid[a], grid[b], ads[a]
    row, left, right = algebra.sc[i][j], ta[j], ads[b][i]
    sub = [row[m] + left[m] - right[m] for m in range(n)]
    part = [ZERO] * n
    for k in range(n):
        if wb[k]:
            for q, x in enumerate(ta[k]):
                if x:
                    part[q] = part[q] + wb[k] * x
    for s, w in ((sub[i], wa), (sub[j], wb)):
        if s:
            for q, x in enumerate(w):
                if x:
                    part[q] = part[q] - s * x
    corrected = []
    for q, terms in off:
        value = part[q]
        for p, c in terms:
            if part[p]:
                value = value - part[p] * c
        corrected.append((q, value))
    others = tuple((m, sub[m]) for m in range(n) if m not in (i, j) and sub[m])
    return others, tuple(corrected)


def _residual(
    grid: Sequence[Vector],
    idx: Sequence[int],
    others: tuple,
    corrected: tuple,
) -> list:
    """The corrected part of a pair less sum s w_m over (m, s) in
    ``others``, w_m = grid[idx[m]], on the coordinates off the pivots."""
    columns = [(s, grid[idx[m]]) for m, s in others]
    residual = []
    for q, value in corrected:
        for s, col in columns:
            if col[q]:
                value = value - s * col[q]
        residual.append(value)
    return residual


def _central_witnesses(
    algebra: LieAlgebra,
    grid: Sequence[Vector],
    ads: Sequence[Sequence[Vector]],
    off: Sequence[tuple[int, tuple]],
) -> Iterator[tuple[int, ...]]:
    """The index tuples, in ``product`` order, whose defect is central at
    every pair i < j.

    From n = 3 on the part of the pair (0, 1) is built once per (idx[0],
    idx[1]), the outermost loop, and the last column is solved from it; the
    part of every other pair is built once and kept in ``parts``, which the
    generator drops when it finishes.
    """
    n = algebra.dim
    everything = range(len(grid))
    parts: dict[tuple[int, int, int, int], tuple] = {}

    def central(idx: tuple[int, ...], pairs: Sequence[tuple[int, int]]) -> bool:
        for i, j in pairs:
            key = (i, j, idx[i], idx[j])
            part = parts.get(key)
            if part is None:
                part = parts[key] = _pair_part(algebra, grid, ads, off, *key)
            if any(_residual(grid, idx, *part)):
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
    by_values: dict[tuple, tuple[int, ...]] = {}
    for c, col in enumerate(grid):
        key = tuple(col[q] for q, _ in off)
        by_values[key] = by_values.get(key, ()) + (c,)
    for a, b in product(everything, repeat=2):
        others, corrected = _pair_part(algebra, grid, ads, off, 0, 1, a, b)
        s = dict(others).get(last, ZERO)
        fixed = tuple((m, t) for m, t in others if m != last)
        for middle in product(everything, repeat=n - 3):
            prefix = (a, b, *middle)
            residual = _residual(grid, prefix, fixed, corrected)
            if s:
                lasts = by_values.get(tuple(r / s for r in residual), ())
            elif any(residual):
                continue
            else:
                lasts = everything
            for c in lasts:
                idx = prefix + (c,)
                if central(idx, pairs):
                    yield idx


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
    # Per coordinate q off the pivots p_r, the nonzero z_r[q] of the center rows.
    off = [
        (q, tuple((p, row[q]) for row, p in zip(z.basis, z.pivots) if row[q]))
        for q in range(n)
        if q not in z.pivots
    ]
    grid = []
    for choice in product(vector(coefficients), repeat=len(off)):
        col = list(zero_vector(n))
        for value, (slot, _) in zip(choice, off):
            col[slot] = value
        grid.append(tuple(col))
    ads = [left_columns(algebra.sc, col) for col in grid]
    valid = 0
    trivial = 0
    nontrivial = 0
    examples: list[ScanFinding] = []
    for idx in _central_witnesses(algebra, grid, ads, off):
        valid += 1
        # The triangle table is the induced table of these columns, so the
        # witness holds by construction and needs no check.
        witness = LinearMap.from_columns([grid[c] for c in idx])
        post = PostLieAlgebra(algebra, tuple(ads[c] for c in idx))
        sub = sub_adjacent(post)
        if coboundary_solve(_defect(post, witness, sub, z), sub) is None:
            nontrivial += 1
            if len(examples) < max_examples:
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
