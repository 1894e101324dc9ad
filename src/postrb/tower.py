"""Iterated Rota-Baxter bracket towers and their per-level invariants.

Starting from a Rota-Baxter operator R on a Lie algebra, each next bracket
is [x,y]' = [Rx,y] + [x,Ry] + [x,y] on the same space.  R stays Rota-Baxter
on every level and R, R+id are homomorphisms from each level to the one
below; the builder re-verifies all of that instead of trusting the theory,
once each: the Rota-Baxter identity on a level says that R is a
homomorphism from the next level to it.  The report adds each level's
fingerprint and the ranks of the powers of R and R+id, which depend on R
only and are computed once.

Every check and every rank runs on integer rows.  A level holds its table
as integer rows (``LieAlgebra._integer``), and each step builds the next
level's rows from them and hands them on (``lie._lie_algebra``), so the
Jacobi check, the homomorphism laws, the next step and the fingerprint all
read them without converting the scalars back.  The powers of R and R+id
are products of integer columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NotRotaBaxterError
from .lie import (
    Fingerprint,
    LieAlgebra,
    _combine,
    _lie_algebra,
    check_jacobi,
    invariant_fingerprint,
)
from .postlie import (
    LinearMap,
    _is_homomorphism,
    _rota_baxter_tables,
    check_rota_baxter,
)
from .scalars import IntegerRow, _rank


@dataclass(frozen=True)
class LieTower:
    levels: tuple[LieAlgebra, ...]
    operator: LinearMap

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


@dataclass(frozen=True)
class TowerReport:
    fingerprints: tuple[Fingerprint, ...]
    semisimple: tuple[bool, ...]
    operator_power_ranks: tuple[int, ...]
    shifted_power_ranks: tuple[int, ...]
    fingerprints_equal: bool


def next_bracket(algebra: LieAlgebra, operator: LinearMap) -> LieAlgebra:
    """One tower step: [Rx,y] + [x,Ry] + [x,y], the sub-adjacent bracket of
    the induced product [Rx, y]; the result holds its integer rows."""
    tables = _rota_baxter_tables(algebra, operator)
    if tables is None:
        raise NotRotaBaxterError("operator fails the Rota-Baxter identity on this level")
    return _lie_algebra(tables[1])


def build_tower(algebra: LieAlgebra, operator: LinearMap, depth: int) -> LieTower:
    """Build depth+1 levels, hard-checking Jacobi and the homomorphism laws.

    Raises ``NotRotaBaxterError`` when the operator fails the identity on
    level 0, at every nonnegative depth.
    """
    if depth < 0:
        raise ValueError("tower depth must be nonnegative")
    # With depth >= 1 the first next_bracket checks level 0.
    if depth == 0 and not check_rota_baxter(algebra, operator):
        raise NotRotaBaxterError("operator fails the Rota-Baxter identity")
    levels = [algebra]
    shifted = operator.plus_identity()._integer
    for step in range(depth):
        current = levels[-1]
        nxt = next_bracket(current, operator)
        if not check_jacobi(nxt):
            raise AssertionError(f"level {step + 1} fails Jacobi")
        if not _is_homomorphism(shifted, nxt._integer, current._integer):
            raise AssertionError(
                f"operator+id is not a homomorphism from level {step + 1} to {step}"
            )
        levels.append(nxt)
    return LieTower(tuple(levels), operator)


def _power_ranks(columns: Sequence[IntegerRow], depth: int) -> tuple[int, ...]:
    """The ranks of M, M^2, ..., M^depth for the integer columns of M, the
    ranks of R^k when M is L R; depth - 1 products, none past M^depth."""
    ranks = []
    power = columns
    for k in range(depth):
        if k:
            power = _compose(columns, power)
        ranks.append(_rank(power))
    return tuple(ranks)


def _compose(left: Sequence[IntegerRow], right: Sequence[IntegerRow]) -> list[IntegerRow]:
    """The integer columns of the product of two maps given by their
    columns: column i is ``left`` applied to column i of ``right``."""
    return [_combine(column, left, len(left)) for column in right]


def tower_report(t: LieTower) -> TowerReport:
    """Per-level invariants and the ranks of the powers of R and R+id.

    Fingerprint equality across levels is the isomorphism evidence.  When
    ``operator_power_ranks[0]`` (or ``shifted_power_ranks[0]``) equals the
    dimension, R (or R+id) is invertible.  It is a homomorphism from each
    level to the one below, which ``build_tower`` hard-checked: for R, the
    Rota-Baxter identity on each level below the top; for R+id, the law
    itself.  A bijective homomorphism is an isomorphism, so then every level
    is isomorphic to level 0 and shares its fingerprint, which is computed
    once.
    """
    n = t.levels[0].dim
    operator_ranks = _power_ranks(t.operator._integer.rows, t.depth)
    shifted_ranks = _power_ranks(t.operator.plus_identity()._integer.rows, t.depth)
    if t.depth and n in (operator_ranks[0], shifted_ranks[0]):
        fingerprints = (invariant_fingerprint(t.levels[0]),) * len(t.levels)
    else:
        fingerprints = tuple(invariant_fingerprint(level) for level in t.levels)
    return TowerReport(
        fingerprints=fingerprints,
        semisimple=tuple(f.killing_rank == f.dim for f in fingerprints),
        operator_power_ranks=operator_ranks,
        shifted_power_ranks=shifted_ranks,
        fingerprints_equal=all(f == fingerprints[0] for f in fingerprints),
    )
