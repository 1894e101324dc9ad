"""Seeded inputs for the three workloads.

Every input is derived from ``random.Random(seed)`` and written as a document
in the program's own grammar; the program sees nothing else.  The seed
changes the inputs only by transformations that preserve every checksum:

* ``lie-scan`` applies a random signed permutation to each catalog algebra's
  basis.  It maps the center to a coordinate subspace and the witness grid
  {-1, 0, 1} onto itself, so the scan's candidate, valid and nontrivial
  counts do not move, while the structure constants change sign and place.
* ``lie-cli`` draws Rota-Baxter pairs from families with known operators and
  moves them to a new basis: a fixed unimodular integer or Gaussian-integer
  matrix times a random permutation with unit entries (the Gaussian one makes
  every scalar complex), or a signed permutation for the sparse
  higher-dimensional algebras, so they stay sparse.  Operator entries have
  fixed sizes and random signs.  So the seed moves positions, signs and
  phases, not sizes, and every seed's batch costs about the same.  Broken
  documents are checked to break their axiom before they are used.
* ``group-cli`` renames the elements of the group in every document by a
  random permutation, which preserves operator counts and the D4 and Q8
  inner censuses, and samples the operators sent to ``group-tower`` and
  ``group-obstruction``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from pathlib import Path
from typing import Callable

import checker
import qi
from cayley import GROUPS, Group, group_document, permutation, postgroup_document, rb_group_document, rename, rename_rows

# Batch sizes: how many documents of each sort one batch sends.
LIE_HEISENBERG = 8  # Heisenberg structures sent to `obstruction`
LIE_BROKEN = 6  # documents that break an axiom (exit 3)
GROUP_TOWERS = 2  # `group-tower` requests per group
GROUP_OBSTRUCTIONS = 8  # `group-obstruction` requests per group
TOWER_DEPTH = 3


@dataclass
class Request:
    """One command line, the exit codes it may end with, and its check."""

    command: str
    argv: list[str]
    expect: frozenset[int]
    check: Callable[[dict], str | None] | None = None
    tally: tuple[str, str] | None = None  # checksum this request counts towards


@dataclass
class Batch:
    requests: list[Request] = field(default_factory=list)
    sorts: dict[str, int] = field(default_factory=dict)

    def add(self, sort: str, request: Request) -> None:
        self.requests.append(request)
        self.sorts[sort] = self.sorts.get(sort, 0) + 1


class Writer:
    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def __call__(self, text: str) -> str:
        self.count += 1
        path = self.directory / f"doc{self.count:04d}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)


# --- documents -----------------------------------------------------------------


def lie_body(sc: qi.Table) -> list[str]:
    n = len(sc)
    lines = [f"dim {n}"]
    for i in range(n):
        for j in range(i + 1, n):
            if any(qi.nonzero(c) for c in sc[i][j]):
                lines.append(f"[{i + 1},{j + 1}] = {qi.fmt_combination(sc[i][j])}")
    return lines


def lie_document(sc: qi.Table) -> str:
    return "\n".join(["kind lie", *lie_body(sc)]) + "\n"


def postlie_document(sc: qi.Table, tc: qi.Table) -> str:
    n = len(sc)
    lines = ["kind postlie", *lie_body(sc)]
    for i in range(n):
        for j in range(n):
            if any(qi.nonzero(c) for c in tc[i][j]):
                lines.append(f"{i + 1}>{j + 1} = {qi.fmt_combination(tc[i][j])}")
    return "\n".join(lines) + "\n"


def rb_lie_document(sc: qi.Table, r: qi.Mat) -> str:
    rows = ["row " + " ".join(qi.fmt(x) for x in row) for row in r]
    return "\n".join(["kind rb-lie", *lie_body(sc), "map operator", *rows]) + "\n"


# --- Lie-side families ------------------------------------------------------------


def _heisenberg(k: int) -> qi.Table:
    """[e_i, e_(k+i)] = e_(2k+1), dimension 2k+1."""
    n = 2 * k + 1
    return qi.table_from_brackets(n, {(i, k + i): qi.unit(n, n - 1) for i in range(k)})


def _filiform(n: int) -> qi.Table:
    """[e_1, e_i] = e_(i+1) for 2 <= i < n."""
    return qi.table_from_brackets(n, {(0, i): qi.unit(n, i + 1) for i in range(1, n - 1)})


def _central_operator(rng: random.Random, n: int, free: int) -> qi.Mat:
    """Maps the first ``free`` basis vectors into span(e_n) and the rest to 0;
    Rota-Baxter when e_n is central and R vanishes on [g, g]."""
    r = [[0] * n for _ in range(n)]
    r[n - 1][:free] = [_signed(rng, 1 + k % 2) for k in range(free)]
    return qi.from_ints(r)


def _minus_projection(n: int, onto: list[int]) -> qi.Mat:
    """-P onto span(e_k, k in onto) along the other basis vectors; Rota-Baxter
    of weight 1 when both spans are subalgebras."""
    return qi.from_ints([[-1 if i == j and i in onto else 0 for j in range(n)] for i in range(n)])


LIE_FAMILIES = (
    "abelian", "affine", "heisenberg", "filiform", "solvable-4", "trivial", "sl2",
    "heisenberg-sparse", "filiform-sparse",
)
SPARSE = ("heisenberg-sparse", "filiform-sparse")


def rb_pair(rng: random.Random, family: str, slot: int) -> tuple[qi.Table, qi.Mat]:
    """A Rota-Baxter pair of the family; ``slot`` picks the variant (size or
    operator shape), so every batch holds the same mix of costs."""
    if family == "abelian":
        n = 2 + slot
        return qi.zero_table(n), qi.from_ints([[_signed(rng, 1 + (i + j) % 2) for j in range(n)] for i in range(n)])
    if family == "affine":
        a, c = _signed(rng, 1), _signed(rng, 2)
        sc = qi.table_from_brackets(3, {(0, 1): [0, 1, 0]})
        return sc, qi.from_ints([[1, 0, 0], [0, -1, 0], [a, 0, c]])
    if family == "heisenberg":
        return _heisenberg(1), _central_operator(rng, 3, 2)
    if family in ("filiform", "filiform-sparse"):
        n = 4 if family == "filiform" else 5 + slot
        if (slot + (family == "filiform")) % 2:
            return _filiform(n), _central_operator(rng, n, 2)
        return _filiform(n), _minus_projection(n, list(range(1, n)))
    if family == "solvable-4":
        c = _signed(rng, 2)
        sc = qi.table_from_brackets(4, {(0, 1): [0, 1, 0, 0], (0, 2): [0, 0, c, 0]})
        return sc, _minus_projection(4, [1, 2])
    if family == "trivial":
        sc = qi.table_from_brackets(3, {(0, 1): [0, 1, 0]})
        return sc, _minus_projection(3, [0, 1, 2] if slot else [])
    if family == "sl2":
        sc = qi.table_from_brackets(3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (2, 0): [0, 1, 0]})
        h = Fraction(1, 2)
        return sc, [[qi.ONE, qi.ZERO, qi.ZERO], [qi.ZERO, qi.q(-h), qi.q(0, -h)], [qi.ZERO, qi.q(0, h), qi.q(-h)]]
    if family == "heisenberg-sparse":
        k = 2 + slot
        return _heisenberg(k), _central_operator(rng, 2 * k + 1, 2 * k)
    raise ValueError(family)


def lie_scan_inputs(rng: random.Random, write: Writer, catalog) -> list[tuple[str, str, qi.Mat]]:
    """Each catalog algebra under a random signed permutation of its basis:
    (name, document path, basis)."""
    inputs = []
    for name, sc in catalog:
        basis = signed_permutation(rng, len(sc))
        inputs.append((name, write(lie_document(qi.transform(sc, basis))), basis))
    return inputs


def _signed(rng: random.Random, magnitude: int) -> int:
    """A fixed magnitude with a random sign: seeds change signs, not sizes,
    so every seed's batch costs about the same."""
    return rng.choice((-magnitude, magnitude))


def signed_permutation(rng: random.Random, n: int, units=((1, 0), (-1, 0))) -> qi.Mat:
    """A permutation matrix whose entries are random ``units``."""
    perm = list(range(n))
    rng.shuffle(perm)
    scales = [qi.q(*rng.choice(units)) for _ in range(n)]
    return [[scales[j] if perm[j] == i else qi.ZERO for j in range(n)] for i in range(n)]


def unimodular(rng: random.Random, n: int, gaussian: bool) -> qi.Mat:
    """L @ U @ S: L and U unit triangular with every entry below (above) the
    diagonal 1 (for U, i when ``gaussian``), and S a random permutation with
    entries +-1 (+-1, +-i when ``gaussian``).  The determinant is a unit, so
    moved structure constants stay integral; the new basis is a fixed one
    reordered and rescaled by units, so the seed changes positions, signs and
    phases of the structure constants but not their sizes, and every seed's
    batch costs about the same."""
    above = qi.q(0, 1) if gaussian else qi.ONE
    lower = [[qi.ONE if j <= i else qi.ZERO for j in range(n)] for i in range(n)]
    upper = [[above if j > i else (qi.ONE if i == j else qi.ZERO) for j in range(n)] for i in range(n)]
    units = ((1, 0), (-1, 0), (0, 1), (0, -1)) if gaussian else ((1, 0), (-1, 0))
    return qi.matmul(qi.matmul(lower, upper), signed_permutation(rng, n, units))


def moved_pair(rng: random.Random, family: str, slot: int) -> tuple[qi.Table, qi.Mat]:
    """The pair in a random basis: integer on slot 0, Gaussian-integer on
    slot 1, a signed permutation for the sparse families."""
    sc, r = rb_pair(rng, family, slot)
    n = len(sc)
    basis = signed_permutation(rng, n) if family in SPARSE else unimodular(rng, n, gaussian=slot == 1)
    sc, r = qi.transform(sc, basis), qi.conjugate_map(r, basis)
    if not qi.is_rota_baxter(sc, r):
        raise AssertionError(f"generator produced a non-Rota-Baxter {family} pair")
    return sc, r


def _perturb(rng: random.Random, table: qi.Table) -> qi.Table:
    n = len(table)
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    out = [list(row) for row in table]
    out[i][j] = qi.vadd(out[i][j], qi.unit(n, k))
    return out


def lie_cli_batch(rng: random.Random, write: Writer) -> Batch:
    batch = Batch()
    # One Rota-Baxter pair per family, four requests each; the variant
    # alternates, so Gaussian basis changes and both sparse sizes appear.
    for slot, family in enumerate(LIE_FAMILIES):
        sc, r = moved_pair(rng, family, slot % 2)
        tc = qi.induced_products(sc, r)
        rb_doc, post_doc = write(rb_lie_document(sc, r)), write(postlie_document(sc, tc))
        ok = frozenset({0})
        batch.add(family, Request("tower", ["tower", "--input", rb_doc, "--depth", str(TOWER_DEPTH)], ok,
                                  lambda rep, r=r: checker.lie_tower(r, TOWER_DEPTH, rep)))
        batch.add(family, Request("check-postlie", ["check-postlie", "--input", post_doc], ok, checker.all_passed))
        batch.add(family, Request("innerness", ["innerness", "--input", post_doc], ok,
                                  lambda rep, sc=sc, tc=tc: checker.lie_witness(sc, tc, rep)))
        batch.add(family, Request("obstruction", ["obstruction", "--input", post_doc], ok,
                                  lambda rep, sc=sc, tc=tc: checker.lie_operator(sc, tc, rep)))

    for k in range(LIE_HEISENBERG):
        # Odd k: nonzero class (exit 5); even k: trivial class (exit 0).
        while True:
            c = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            if k % 2:
                c[1][0] = c[0][1] + 1
            if checker.heisenberg_class_nonzero(c) == bool(k % 2):
                break
        sc = _heisenberg(1)
        tc = qi.zero_table(3)
        for i in range(2):
            for j in range(2):
                tc[i][j] = tuple(qi.q(c[i][j]) if m == 2 else qi.ZERO for m in range(3))
        if k % 4 >= 2:
            basis = unimodular(rng, 3, gaussian=False)
            sc, tc = qi.transform(sc, basis), qi.transform(tc, basis)
        nonzero = checker.heisenberg_class_nonzero(c)
        doc = write(postlie_document(sc, tc))
        batch.add("heisenberg-class", Request(
            "obstruction", ["obstruction", "--input", doc], frozenset({5 if nonzero else 0}),
            None if nonzero else (lambda rep, sc=sc, tc=tc: checker.lie_operator(sc, tc, rep))))

    for k in range(LIE_BROKEN):
        fail = frozenset({3})
        if k % 3 == 0:
            for attempt in count():
                sc, r = moved_pair(rng, LIE_FAMILIES[(k + attempt) % 7], k % 2)
                tc = _perturb(rng, qi.induced_products(sc, r))
                if not qi.is_post_lie(sc, tc):
                    break
            doc = write(postlie_document(sc, tc))
            if k % 2:
                batch.add("broken-product", Request("obstruction", ["obstruction", "--input", doc], fail))
            else:
                batch.add("broken-product", Request("check-postlie", ["check-postlie", "--input", doc], fail,
                                                    checker.some_failed))
        elif k % 3 == 1:
            while True:
                sc = qi.table_from_brackets(3, {(i, j): [rng.randint(-1, 1) for _ in range(3)]
                                                for i, j in ((0, 1), (0, 2), (1, 2))})
                if not qi.is_jacobi(sc):
                    break
            doc = write(postlie_document(sc, qi.zero_table(3)))
            batch.add("broken-jacobi", Request("innerness", ["innerness", "--input", doc], fail))
        else:
            for attempt in count():
                sc, r = moved_pair(rng, ("affine", "heisenberg", "filiform", "solvable-4", "sl2")[(k + attempt) % 5], k % 2)
                i, j = rng.randrange(len(r)), rng.randrange(len(r))
                r = [list(row) for row in r]
                r[i][j] = qi.add(r[i][j], qi.ONE)
                if not qi.is_rota_baxter(sc, r):
                    break
            doc = write(rb_lie_document(sc, r))
            batch.add("broken-operator", Request("tower", ["tower", "--input", doc, "--depth", str(TOWER_DEPTH)], fail))
    return batch


# --- group side ---------------------------------------------------------------------

CENSUS_GROUPS = ("D4", "Q8")


def group_cli_batch(rng: random.Random, write: Writer) -> Batch:
    """Every document renames the group's elements by its own random
    permutation: the cost of the Smith normal form depends on the labeling,
    and independent labelings average that dependence out over the batch."""
    batch = Batch()
    ok = frozenset({0})
    for name, make in GROUPS.items():
        base = Group(make())
        n = base.n
        operators = base.rota_baxter_operators()

        def relabeled() -> tuple[Group, list[int]]:
            sigma = permutation(rng, n)
            return Group(rename_rows(sigma, base.table)), sigma

        group, sigma = relabeled()
        argv = ["enumerate-rb", "--input", write(group_document(group.table))]
        if n > 8:
            argv += ["--cap", str(n**n)]
        expected = sorted(rename(sigma, op) for op in operators)
        batch.add(name, Request("enumerate-rb", argv, ok,
                                lambda rep, g=group, ops=expected: checker.group_operators(g, ops, rep),
                                tally=("enumerate", name)))
        for op in rng.sample(operators, GROUP_TOWERS):
            group, sigma = relabeled()
            doc = write(rb_group_document(group.table, rename(sigma, op)))
            batch.add(name, Request("group-tower", ["group-tower", "--input", doc, "--depth", str(TOWER_DEPTH)], ok,
                                    lambda rep, n=n: checker.group_tower(n, TOWER_DEPTH, rep)))
        sample = rng.sample(operators, GROUP_OBSTRUCTIONS)
        for op in sample:
            group, sigma = relabeled()
            tri = group.induced(rename(sigma, op))
            doc = write(postgroup_document(group.table, tri))
            batch.add(name, Request("group-obstruction", ["group-obstruction", "--input", doc], ok,
                                    lambda rep, g=group, tri=tri: checker.group_operator(g, tri, rep)))
        group, sigma = relabeled()
        tri = group.induced(rename(sigma, sample[0]))
        batch.add(name, Request("check-postgroup", ["check-postgroup", "--input",
                                                    write(postgroup_document(group.table, tri))], ok, checker.all_passed))
        while True:
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            broken = [list(row) for row in tri]
            broken[a][b], broken[a][c] = broken[a][c], broken[a][b]
            if not group.is_post_group(broken):
                break
        batch.add(name, Request("check-postgroup", ["check-postgroup", "--input",
                                                    write(postgroup_document(group.table, broken))],
                                frozenset({3}), checker.some_failed))
        if name in CENSUS_GROUPS:
            for census_tri in base.inner_post_groups():
                group, sigma = relabeled()
                tri = rename_rows(sigma, census_tri)
                doc = write(postgroup_document(group.table, tri))
                batch.add(f"{name}-census", Request(
                    "group-obstruction", ["group-obstruction", "--input", doc], frozenset({0, 5}),
                    lambda rep, g=group, tri=tri: checker.group_operator(g, tri, rep), tally=("census", name)))
    return batch
