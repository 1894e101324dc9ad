"""Grid scan for inner post-Lie structures with nonzero obstruction class.

Every inner product has the shape x > y = [w(x), y] for a linear w, and two
such w induce the same product exactly when they differ by a map into the
center.  The scan therefore enumerates w with columns in a complement of the
center over a small coefficient grid, keeps those where the weighted
associativity holds (the derivation identity is automatic for this shape),
and classifies each structure by the coboundary solve.  Findings are
reported, not asserted: this is an exploration harness.

The product is linear in w, so no candidate rebuilds it.  Each of the G grid
columns c gets its ad table once, ads[c][j] = [c, e_j], and a candidate is an
index tuple idx in product(range(G), repeat=n): its triangle table is
(ads[idx[0]], ..., ads[idx[n-1]]).  For a pair i < j the weighted
associativity is read straight off those rows.  Its sub-adjacent bracket
sub = [e_i, e_j] + e_i > e_j - e_j > e_i, the commutator side and the terms of
sub > e_k for the columns i and j depend on (idx[i], idx[j]) only.  They are
computed once and reused while that pair of indices stays fixed, which
``product`` order repeats, so a candidate pays only for the terms of the
other columns m.  The cache holds the last index pair of each column pair,
O(n^2) entries.  Only a candidate that passes gets its ``PostLieAlgebra``,
witness and sub-adjacent algebra built, once each, and goes through the
Jacobi check of that algebra and the coboundary solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .lie import LieAlgebra, center, left_columns
from .lie_obstruction import _defect, coboundary_solve
from .postlie import LinearMap, PostLieAlgebra, sub_adjacent
from .scalars import (
    GaussianRational,
    ScalarLike,
    Vector,
    ZERO,
    vec_add,
    vec_sub,
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


def _center_complement(algebra: LieAlgebra) -> list[int]:
    """Indices of standard basis vectors spanning a complement of the center."""
    pivots = set(center(algebra).pivots)
    return [k for k in range(algebra.dim) if k not in pivots]


def _add_scaled(acc: list[GaussianRational], s: GaussianRational, row: Vector) -> None:
    """acc += s * row in place, skipping the zero entries of row."""
    for q, x in enumerate(row):
        if x:
            acc[q] = acc[q] + s * x if acc[q] else s * x


def _pair_sides(
    algebra: LieAlgebra, ads: Sequence[Sequence[Vector]], i: int, j: int, a: int, b: int
) -> tuple[tuple, tuple]:
    """What the (i, j) weighted associativity needs from idx[i] = a, idx[j] = b.

    With sub = [e_i, e_j] + e_i > e_j - e_j > e_i the identity reads, for
    each k, sub > e_k + e_j > (e_i > e_k) = e_i > (e_j > e_k).  Returns the
    nonzero coefficients sub[m] of the other columns m, and per k the
    left-hand side without those columns' terms together with the right-hand
    side.
    """
    n = algebra.dim
    ta, tb = ads[a], ads[b]
    sub = vec_sub(vec_add(algebra.sc[i][j], ta[j]), tb[i])
    others = tuple((m, sub[m]) for m in range(n) if m not in (i, j) and sub[m])
    sides = []
    for k in range(n):
        lhs = [ZERO] * n
        rhs = [ZERO] * n
        if sub[i]:
            _add_scaled(lhs, sub[i], ta[k])
        if sub[j]:
            _add_scaled(lhs, sub[j], tb[k])
        for m in range(n):
            if ta[k][m]:
                _add_scaled(lhs, ta[k][m], tb[m])
            if tb[k][m]:
                _add_scaled(rhs, tb[k][m], ta[m])
        sides.append((lhs, rhs))
    return others, tuple(sides)


def _associativity_from_ads(
    algebra: LieAlgebra,
    ads: Sequence[Sequence[Vector]],
    idx: tuple[int, ...],
    cache: dict[tuple[int, int], tuple],
) -> bool:
    """The weighted associativity of the product with triangle table
    (ads[c] for c in idx), with early exit; the derivation identity holds
    automatically for products of the shape [w(x), y].

    ``cache`` keeps, per pair i < j, the sides of the last (idx[i], idx[j]).
    """
    n = len(idx)
    for i in range(n):
        for j in range(i + 1, n):
            key = (idx[i], idx[j])
            hit = cache.get((i, j))
            if hit is None or hit[0] != key:
                hit = (key, *_pair_sides(algebra, ads, i, j, *key))
                cache[(i, j)] = hit
            _, others, sides = hit
            for k, (lhs, rhs) in enumerate(sides):
                acc = list(lhs)
                for m, s in others:
                    _add_scaled(acc, s, ads[idx[m]][k])
                if acc != rhs:
                    return False
    return True


def scan_algebra(
    name: str,
    algebra: LieAlgebra,
    coefficients: Sequence[ScalarLike] = (-1, 0, 1),
    max_examples: int = 3,
) -> ScanSummary:
    """Scan one algebra; inner products are parametrized by the witness grid."""
    n = algebra.dim
    complement = _center_complement(algebra)
    grid = []
    for choice in product(vector(coefficients), repeat=len(complement)):
        col = list(zero_vector(n))
        for value, slot in zip(choice, complement):
            col[slot] = value
        grid.append(tuple(col))
    ads = [left_columns(algebra.sc, col) for col in grid]
    cache: dict[tuple[int, int], tuple] = {}
    candidates = 0
    valid = 0
    trivial = 0
    nontrivial = 0
    examples: list[ScanFinding] = []
    for idx in product(range(len(grid)), repeat=n):
        candidates += 1
        if not _associativity_from_ads(algebra, ads, idx, cache):
            continue
        valid += 1
        # The triangle table is the induced table of these columns, so the
        # witness holds by construction and needs no check.
        witness = LinearMap.from_columns([grid[c] for c in idx])
        post = PostLieAlgebra(algebra, tuple(ads[c] for c in idx))
        sub = sub_adjacent(post)
        if coboundary_solve(_defect(post, witness, sub), sub) is None:
            nontrivial += 1
            if len(examples) < max_examples:
                examples.append(ScanFinding(name, witness, trivial_class=False))
        else:
            trivial += 1
    return ScanSummary(candidates, valid, trivial, nontrivial, tuple(examples))


def scan_catalog(
    catalog: Sequence[tuple[str, LieAlgebra]] | None = None,
    coefficients: Sequence[ScalarLike] = (-1, 0, 1),
) -> dict[str, ScanSummary]:
    """Scan every catalog entry; returns a name-keyed summary map."""
    results: dict[str, ScanSummary] = {}
    for name, algebra in catalog if catalog is not None else default_catalog():
        results[name] = scan_algebra(name, algebra, coefficients)
    return results
