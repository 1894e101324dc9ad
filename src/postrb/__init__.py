"""Exact-arithmetic tools for post-Lie algebras, post-groups and Rota-Baxter operators."""

from .errors import (
    NontrivialObstructionError,
    NotInnerError,
    NotRotaBaxterError,
    ParseError,
)
from .groups import (
    AbelianDecomposition,
    FiniteGroup,
    GroupMap,
    abelian_decomposition,
    center_group,
    check_group,
    cyclic_group,
    inner_automorphism,
)
from .group_obstruction import (
    GroupRbReconstruction,
    GroupTwoCocycle,
    coboundary_solve_group,
    construct_rb_from_obstruction_group,
    group_tower_certificates,
    obstruction_cocycle_group,
    pullback_group,
    rb_difference_cocycle_group,
    verify_group_2cocycle,
)
from .lie import (
    Fingerprint,
    LieAlgebra,
    Subspace,
    ad_matrix,
    center,
    change_basis,
    check_jacobi,
    derivations,
    inner_derivations,
    invariant_fingerprint,
    is_complete,
    jacobi_violations,
    killing_semisimple,
)
from .lie_obstruction import (
    LieTwoCochain,
    RbReconstruction,
    coboundary_solve,
    construct_rb_from_obstruction,
    obstruction_cocycle,
    pullback_algebra,
    rb_difference_cocycle,
    verify_lie_2cocycle,
)
from .postgroup import (
    PostGroup,
    PostGroupReport,
    check_postgroup_axioms,
    check_rb_group,
    enumerate_rb_operators,
    from_rb_group,
    innerness_witness_group,
    sub_adjacent_group,
)
from .postlie import (
    LinearMap,
    PostLieAlgebra,
    PostLieReport,
    check_postlie_axioms,
    check_rota_baxter,
    from_rota_baxter,
    innerness_witness,
    sub_adjacent,
)
from .scalars import (
    ExactMatrix,
    GaussianRational,
    IntMatrix,
    gaussian,
    rref,
    smith_normal_form,
    solve_affine,
    solve_linear_congruences,
)
from .tower import LieTower, TowerReport, build_tower, next_bracket, tower_report

__version__ = "0.1.0"
