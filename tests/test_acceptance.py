"""Acceptance criteria, one test per criterion, one printed verdict line each.

Everything here is exact arithmetic: "tolerance" means literal equality.
Criterion 6 certifies bracket towers on two examples.  On (sl2, P) every
level k >= 1 is solvable: level 1 has [e2,e3]_1 = 0 (hand computation in
test_postlie.py::TestSubAdjacent::test_sl2_sub_adjacent_bracket_table), and
an induction keeps span{e2,e3} an abelian ideal at every later level, so the
semisimplicity/fingerprint clause is asserted false there and checked true
on the (sl2, -id) tower, where its hypothesis holds.  Run with
``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

from postrb.groups import abelian_decomposition, center_group, cyclic_group
from postrb.group_obstruction import (
    GroupTwoCocycle,
    coboundary_solve_group,
    construct_rb_from_obstruction_group,
    obstruction_cocycle_group,
    rb_difference_cocycle_group,
    verify_group_2cocycle,
)
from postrb.lie import check_jacobi, is_complete
from postrb.lie_obstruction import (
    coboundary_solve,
    construct_rb_from_obstruction,
    obstruction_cocycle,
    verify_lie_2cocycle,
)
from postrb.postgroup import (
    check_postgroup_axioms,
    enumerate_rb_operators,
    from_rb_group,
    innerness_witness_group,
    sub_adjacent_group,
)
from postrb.postlie import (
    LinearMap,
    PostLieAlgebra,
    check_postlie_axioms,
    check_rota_baxter,
    from_rota_baxter,
    is_witness,
    sub_adjacent,
)
from postrb.scalars import (
    ExactMatrix,
    is_zero_vector,
    unit_vector,
    vec_add,
    vector,
    zero_vector,
)
from postrb.search import scan_catalog
from postrb.tower import build_tower, tower_report

from conftest import (
    make_d4,
    make_s3,
    make_sl2,
    make_sl2_operator,
    make_solvable,
    random_rb_instance,
    sl2_triangle_table,
    solvable_witness,
    vec_scale,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_sl2_reproduction():
    start = time.perf_counter()
    sl2 = make_sl2()
    operator = make_sl2_operator()
    rb_ok = check_rota_baxter(sl2, operator)
    # Also spell the identity out on all nine ordered basis pairs.
    for i in range(3):
        for j in range(3):
            lhs = sl2.bracket(operator.column(i), operator.column(j))
            inner = vec_add(
                vec_add(
                    sl2.bracket(operator.column(i), unit_vector(3, j)),
                    sl2.bracket(unit_vector(3, i), operator.column(j)),
                ),
                sl2.sc[i][j],
            )
            rb_ok = rb_ok and lhs == operator.apply(inner)
    induced = from_rota_baxter(sl2, operator)
    table_ok = induced.tc == sl2_triangle_table()
    result = construct_rb_from_obstruction(induced)
    recovered_ok = (
        result.operator == operator and result.correction == LinearMap.zero(3)
    )
    elapsed = time.perf_counter() - start
    ok = rb_ok and table_ok and recovered_ok and elapsed < 1.0
    _report(
        "criterion 1 (sl2 reproduction)",
        ok,
        f"rb={rb_ok} table={table_ok} recovered={recovered_ok} time={elapsed:.3f}s",
    )
    assert rb_ok
    assert table_ok
    assert recovered_ok
    assert elapsed < 1.0


def test_criterion_2_solvable_reproduction():
    start = time.perf_counter()
    solvable = make_solvable()
    witness = solvable_witness(alpha=0, beta=1, gamma=0)
    products = {
        (i, j): solvable.bracket(witness.column(i), unit_vector(3, j))
        for i in range(3)
        for j in range(3)
    }
    post = PostLieAlgebra.from_products(solvable, products)
    cochain = obstruction_cocycle(post, witness)
    kappa_ok = (
        cochain.value(0, 1) == vector([0, 0, -1])
        and is_zero_vector(cochain.value(0, 2))
        and is_zero_vector(cochain.value(1, 2))
    )
    sub = sub_adjacent(post)
    correction = coboundary_solve(cochain, sub)
    correction_ok = correction == LinearMap.from_columns(
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
    )
    reconstructed = witness - correction
    rb_ok = check_rota_baxter(solvable, reconstructed)
    beta_zero_ok = check_rota_baxter(solvable, solvable_witness(alpha=0, beta=0, gamma=0))
    beta_one_not_rb = not check_rota_baxter(solvable, witness)
    elapsed = time.perf_counter() - start
    ok = kappa_ok and correction_ok and rb_ok and beta_zero_ok and beta_one_not_rb and elapsed < 1.0
    _report(
        "criterion 2 (solvable reproduction)",
        ok,
        f"kappa={kappa_ok} correction={correction_ok} rb={rb_ok} "
        f"beta0={beta_zero_ok} time={elapsed:.3f}s",
    )
    assert kappa_ok
    assert correction_ok
    assert rb_ok
    assert beta_zero_ok
    assert beta_one_not_rb
    assert elapsed < 1.0


def test_criterion_3_completeness_corollary():
    start = time.perf_counter()
    sl2 = make_sl2()
    complete_ok = is_complete(sl2)
    post = PostLieAlgebra(sl2, sl2_triangle_table())
    result = construct_rb_from_obstruction(post)
    correction_zero = result.correction == LinearMap.zero(3)
    elapsed = time.perf_counter() - start
    ok = complete_ok and correction_zero and elapsed < 1.0
    _report(
        "criterion 3 (completeness corollary)",
        ok,
        f"complete={complete_ok} correction_zero={correction_zero} time={elapsed:.3f}s",
    )
    assert complete_ok
    assert correction_zero
    assert elapsed < 1.0


def _roundtrip_all_operators(group) -> int:
    count = 0
    for op in enumerate_rb_operators(group):
        pg = from_rb_group(group, op)
        assert check_postgroup_axioms(pg).ok
        witness = innerness_witness_group(pg)
        assert witness is not None
        cocycle = obstruction_cocycle_group(pg, witness)
        sub = sub_adjacent_group(pg)
        assert verify_group_2cocycle(cocycle, sub)
        result = construct_rb_from_obstruction_group(pg)
        assert from_rb_group(group, result.operator).triangle == pg.triangle
        assert rb_difference_cocycle_group(group, op, result.operator) is not None
        count += 1
    return count


def test_criterion_4_group_roundtrip_desk_scale():
    start_s3 = time.perf_counter()
    s3_count = _roundtrip_all_operators(make_s3())
    s3_elapsed = time.perf_counter() - start_s3
    start_d4 = time.perf_counter()
    d4_count = _roundtrip_all_operators(make_d4())
    d4_elapsed = time.perf_counter() - start_d4
    ok = s3_elapsed < 5.0 and d4_elapsed < 300.0 and s3_count > 0 and d4_count > 0
    _report(
        "criterion 4 (group round-trip)",
        ok,
        f"S3: {s3_count} operators in {s3_elapsed:.2f}s; "
        f"D4: {d4_count} operators in {d4_elapsed:.2f}s",
    )
    assert s3_count == 8  # dual-checked against the naive 6^6 oracle in test_postgroup
    assert s3_elapsed < 5.0
    assert d4_elapsed < 300.0


def test_criterion_5_negative_cohomology_control():
    start = time.perf_counter()
    z2 = cyclic_group(2)
    decomp = abelian_decomposition(z2, center_group(z2))
    cocycle = GroupTwoCocycle(z2, ((0, 0), (0, 1)), decomp)
    is_cocycle = verify_group_2cocycle(cocycle, z2)
    solver_says_no = coboundary_solve_group(cocycle, z2) is None

    # Exhaustive oracle: both candidate maps z with z(e) = e.
    oracle_says_no = True
    for image in range(2):
        z = (0, image)
        if all(
            cocycle.values[a][b]
            == z2.mul(z2.mul(z[a], z[b]), z2.inv(z[z2.mul(a, b)]))
            for a in range(2)
            for b in range(2)
        ):
            oracle_says_no = False
    elapsed = time.perf_counter() - start
    ok = is_cocycle and solver_says_no and oracle_says_no and elapsed < 1.0
    _report(
        "criterion 5 (negative control)",
        ok,
        f"cocycle={is_cocycle} solver_absent={solver_says_no} "
        f"oracle_absent={oracle_says_no} time={elapsed:.3f}s",
    )
    assert is_cocycle
    assert solver_says_no
    assert oracle_says_no
    assert elapsed < 1.0


def test_criterion_6_tower_certification():
    start = time.perf_counter()
    sl2 = make_sl2()

    # (sl2, P): build_tower hard-checks Jacobi and that P and P+id are
    # homomorphisms from each level to the one below.
    tower = build_tower(sl2, make_sl2_operator(), 3)
    jacobi_ok = all(check_jacobi(level) for level in tower.levels)
    report = tower_report(tower)
    # Proof invariants x = P(-x) + (P+id)x and ker P meet ker(P+id) = 0,
    # which hold for every linear map: the images of P and P+id span the
    # space, and stacking both matrices kills nothing.
    op, shifted = tower.operator.matrix, tower.operator.plus_identity().matrix
    certificates_ok = (
        ExactMatrix(tuple(a + b for a, b in zip(op.entries, shifted.entries)), 6).rank() == 3
        and ExactMatrix(op.entries + shifted.entries, 3).rank() == 3
    )
    # [e2,e3]_1 = [Pe2,e3] + [e2,Pe3] + [e2,e3] = -1/2 e1 - 1/2 e1 + e1 = 0.
    level1_abelian = is_zero_vector(tower.levels[1].sc[1][2])
    # P maps V = span{e2,e3} into itself.  At level 1, V is abelian (above)
    # and an ideal ([e1,e2]_1 = -i/2 e2 + 3/2 e3, [e1,e3]_1 = -3/2 e2 - i/2 e3).
    # If V is an abelian ideal at level k, each of the three terms of the
    # level k+1 bracket keeps it one, so every level k >= 1 is solvable and
    # not semisimple, while level 0 is sl2.  A semisimple level has full
    # Killing rank and a solvable one does not, so the fingerprints (which
    # record the Killing rank) cannot all agree.  These values come from the
    # proof; an independent Q(i) computation gives Killing ranks 3, 1, 1, 1.
    expected_semisimple = (True, False, False, False)
    semisimple_ok = report.semisimple == expected_semisimple
    fingerprints_differ = report.fingerprints_equal is False

    # (sl2, -id): [x,y]' = -[x,y], so every level is sl2 up to sign and the
    # semisimple clause holds; -id is invertible, so R itself is an explicit
    # isomorphism certificate at every step.
    minus_id_tower = build_tower(sl2, -LinearMap.identity(3), 3)
    minus_id_report = tower_report(minus_id_tower)
    minus_id_jacobi = all(check_jacobi(level) for level in minus_id_tower.levels)
    minus_id_semisimple = all(minus_id_report.semisimple)
    minus_id_fingerprints = minus_id_report.fingerprints_equal is True
    minus_id_invertible = minus_id_report.operator_power_ranks[0] == 3
    elapsed = time.perf_counter() - start
    ok = (
        jacobi_ok
        and certificates_ok
        and level1_abelian
        and semisimple_ok
        and fingerprints_differ
        and minus_id_jacobi
        and minus_id_semisimple
        and minus_id_fingerprints
        and minus_id_invertible
        and elapsed < 1.0
    )
    _report(
        "criterion 6 (tower certification)",
        ok,
        f"P: jacobi={jacobi_ok} homomorphisms=True certificates={certificates_ok} "
        f"[e2,e3]_1=0:{level1_abelian} semisimple={list(report.semisimple)} "
        f"fingerprints_equal={report.fingerprints_equal}; "
        f"-id: jacobi={minus_id_jacobi} semisimple={list(minus_id_report.semisimple)} "
        f"fingerprints_equal={minus_id_report.fingerprints_equal} "
        f"invertible={minus_id_invertible}; time={elapsed:.3f}s",
    )
    assert jacobi_ok
    assert certificates_ok
    assert level1_abelian
    assert report.semisimple == expected_semisimple
    assert fingerprints_differ
    assert minus_id_jacobi
    assert minus_id_semisimple
    assert minus_id_fingerprints
    assert minus_id_invertible
    assert elapsed < 1.0


def test_criterion_7_property_suites():
    start = time.perf_counter()
    rng = random.Random(777)
    instances = [random_rb_instance(rng) for _ in range(500)]
    section_checked = 0
    for algebra, operator in instances:
        post = from_rota_baxter(algebra, operator)
        # (a) axioms and pipeline success
        assert check_postlie_axioms(post).ok
        result = construct_rb_from_obstruction(post)
        assert from_rota_baxter(algebra, result.operator).tc == post.tc
        # (b) center sub-representation and trivial action
        from postrb.lie import center

        z = center(algebra)
        n = algebra.dim
        for i in range(n):
            for b in z.basis:
                image = post.triangle(unit_vector(n, i), b)
                assert z.contains(image)
                assert is_zero_vector(image)
        # (c) the two bracket routes agree
        from postrb.tower import next_bracket

        assert next_bracket(algebra, operator).sc == sub_adjacent(post).sc
        # (d) section independence of the verdict
        if z.dim > 0 and section_checked < 150:
            section_checked += 1
            witness = result.witness
            columns = []
            for i in range(n):
                shift = zero_vector(n)
                for b in z.basis:
                    shift = vec_add(shift, vec_scale(rng.randint(-2, 2), b))
                columns.append(vec_add(witness.column(i), shift))
            shifted = LinearMap.from_columns(columns)
            assert is_witness(post, shifted)
            cochain = obstruction_cocycle(post, shifted)
            assert verify_lie_2cocycle(cochain, sub_adjacent(post))
            assert coboundary_solve(cochain, sub_adjacent(post)) is not None
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _report(
        "criterion 7 (property suites)",
        ok,
        f"500 instances, {section_checked} section-perturbation checks, "
        f"time={elapsed:.1f}s",
    )
    assert elapsed < 120.0


def test_criterion_8_search_harness():
    start = time.perf_counter()
    results = scan_catalog()
    elapsed = time.perf_counter() - start
    total_candidates = sum(s.candidates for s in results.values())
    total_nontrivial = sum(s.nontrivial_class for s in results.values())
    _report(
        "criterion 8 (search harness)",
        True,
        f"{total_candidates} candidates over {len(results)} algebras, "
        f"{total_nontrivial} nontrivial classes found, time={elapsed:.1f}s",
    )
    for name, summary in results.items():
        print(f"[search] {name}: {summary.describe()}")
    # Non-asserting by design: the harness reports findings either way.
    assert total_candidates > 0
    assert all(
        s.valid_post_lie == s.trivial_class + s.nontrivial_class
        for s in results.values()
    )
