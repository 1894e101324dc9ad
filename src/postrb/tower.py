"""Iterated Rota-Baxter bracket towers with per-level certificates.

Starting from a Rota-Baxter operator R on a Lie algebra, each next bracket
is [x,y]' = [Rx,y] + [x,Ry] + [x,y] on the same space.  R stays Rota-Baxter
on every level and R, R+id are homomorphisms from each level to the one
below; the builder re-verifies all of that instead of trusting the theory,
once each: the Rota-Baxter identity on a level says that R is a
homomorphism from the next level to it.  The step certificates depend on R
only and are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotRotaBaxterError
from .lie import Fingerprint, LieAlgebra, check_jacobi, invariant_fingerprint
from .postlie import (
    LinearMap,
    check_rota_baxter,
    induced_table,
    is_homomorphism,
    sub_adjacent_table,
)
from .scalars import ExactMatrix, hstack


@dataclass(frozen=True)
class LieTower:
    levels: tuple[LieAlgebra, ...]
    operator: LinearMap

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


@dataclass(frozen=True)
class StepCertificate:
    """Evidence for one step level -> level-1 of the tower."""

    level: int
    operator_invertible: bool
    shifted_invertible: bool
    images_span: bool
    kernels_independent: bool


@dataclass(frozen=True)
class TowerReport:
    fingerprints: tuple[Fingerprint, ...]
    semisimple: tuple[bool, ...]
    operator_power_ranks: tuple[int, ...]
    shifted_power_ranks: tuple[int, ...]
    fingerprints_equal: bool
    steps: tuple[StepCertificate, ...]


def next_bracket(algebra: LieAlgebra, operator: LinearMap) -> LieAlgebra:
    """One tower step: [Rx,y] + [x,Ry] + [x,y], the sub-adjacent bracket of
    the induced product [Rx, y]."""
    sub = sub_adjacent_table(algebra.sc, induced_table(algebra, operator))
    if not is_homomorphism(operator, sub, algebra):
        raise NotRotaBaxterError("operator fails the Rota-Baxter identity on this level")
    return LieAlgebra(sub)


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
    shifted = operator.plus_identity()
    for step in range(depth):
        current = levels[-1]
        nxt = next_bracket(current, operator)
        if not check_jacobi(nxt):
            raise AssertionError(f"level {step + 1} fails Jacobi")
        if not is_homomorphism(shifted, nxt.sc, current):
            raise AssertionError(
                f"operator+id is not a homomorphism from level {step + 1} to {step}"
            )
        levels.append(nxt)
    return LieTower(tuple(levels), operator)


def _power_ranks(matrix: ExactMatrix, depth: int) -> tuple[int, ...]:
    ranks = []
    power = matrix
    for _ in range(depth):
        ranks.append(power.rank())
        power = power @ matrix
    return tuple(ranks)


def tower_report(t: LieTower) -> TowerReport:
    """Per-level invariants plus step certificates.

    Fingerprint equality across levels is the isomorphism evidence; when the
    operator or operator+id is invertible at a step it is itself an explicit
    isomorphism certificate (the homomorphism law was already hard-checked
    during construction).
    """
    n = t.levels[0].dim
    fingerprints = tuple(invariant_fingerprint(level) for level in t.levels)
    semisimple = tuple(f.killing_rank == f.dim for f in fingerprints)
    depth = t.depth
    op = t.operator.matrix
    shifted = t.operator.plus_identity().matrix
    op_ranks = _power_ranks(op, depth)
    shifted_ranks = _power_ranks(shifted, depth)
    steps: tuple[StepCertificate, ...] = ()
    if depth:
        # im R + im(R+id) is the column space of [R | R+id].
        span = hstack(op, shifted).rank() == n
        # ker R and ker(R+id) meet trivially iff stacking both kills nothing.
        stacked = ExactMatrix(op.entries + shifted.entries, n)
        kernels_ok = stacked.rank() == n
        steps = tuple(
            StepCertificate(
                level=level,
                operator_invertible=op_ranks[0] == n,
                shifted_invertible=shifted_ranks[0] == n,
                images_span=span,
                kernels_independent=kernels_ok,
            )
            for level in range(1, depth + 1)
        )
    return TowerReport(
        fingerprints=fingerprints,
        semisimple=semisimple,
        operator_power_ranks=op_ranks,
        shifted_power_ranks=shifted_ranks,
        fingerprints_equal=all(f == fingerprints[0] for f in fingerprints),
        steps=steps,
    )
