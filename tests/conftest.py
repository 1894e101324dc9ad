"""Shared constructions: the dense ``rref`` oracle, the vector and matrix
arithmetic of scalars that the integer rows replaced, the scalar table
evaluators that the integer rows replaced, the scalar reader of linear
combinations that the one-pass parser replaced, the two worked Lie
examples, desk-scale groups, and a seeded generator of random Rota-Baxter
instances for property suites.
"""

from __future__ import annotations

import random
import re
import shutil
import tempfile
from fractions import Fraction
from itertools import combinations, product

import pytest

from postrb.errors import ParseError
from postrb.groups import FiniteGroup, cyclic_group
from postrb.lie import LieAlgebra, center, change_basis
from postrb.postgroup import PostGroup
from postrb.postlie import LinearMap, check_rota_baxter
from postrb.scalars import (
    ONE,
    ZERO,
    ExactMatrix,
    GaussianRational,
    from_triple,
    gaussian,
    is_zero_vector,
    unit_vector,
    vec_add,
    vector,
)
from postrb import sub_adjacent, from_rota_baxter


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(s, v):
    c = GaussianRational.of(s)
    return tuple(c * a for a in v)


def zero_matrix(rows, cols):
    return ExactMatrix(((ZERO,) * cols,) * rows, cols)


def matrix_apply(matrix, vec):
    """``matrix`` (an ``ExactMatrix``) applied to the vector ``vec``."""
    v = vector(vec)
    assert len(v) == matrix.cols
    return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in matrix.entries)


def pytest_configure(config):
    # Even with database=None, Hypothesis caches the constants it reads from
    # local source files under its home directory, ./.hypothesis by default.
    from hypothesis.configuration import set_hypothesis_home_dir

    home = tempfile.mkdtemp(prefix="postrb-hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


def dense_rref(matrix):
    """The dense elimination that ``rref`` replaced, kept as its oracle."""
    rows = [list(r) for r in matrix.entries]
    nrows, ncols = matrix.rows, matrix.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return ExactMatrix(tuple(tuple(row) for row in rows), ncols), tuple(pivots)


def bilinear(table, x, y):
    """The product x.y = sum_{i,j} x_i y_j table[i][j] on scalars: the
    evaluator that the integer rows replaced, kept as their oracle."""
    n = len(table)
    u, v = vector(x), vector(y)
    if len(u) != n or len(v) != n:
        raise ValueError("vector has wrong length")
    out = [ZERO] * n
    for i in range(n):
        if not u[i]:
            continue
        for j in range(n):
            if not v[j]:
                continue
            c = u[i] * v[j]
            row = table[i][j]
            for k in range(n):
                if row[k]:
                    out[k] = out[k] + c * row[k]
    return tuple(out)


def left_columns(table, x):
    """The products x.e_j for j = 0, ..., n-1 on scalars, the columns of
    y -> x.y: the oracle of ``ad_matrix``."""
    n = len(table)
    v = vector(x)
    if len(v) != n:
        raise ValueError("vector has wrong length")
    cols = []
    for j in range(n):
        col = [ZERO] * n
        for i in range(n):
            if v[i]:
                row = table[i][j]
                for k in range(n):
                    if row[k]:
                        col[k] = col[k] + v[i] * row[k]
        cols.append(tuple(col))
    return tuple(cols)


def sub_adjacent_reference(sc, tc):
    """The table of x>y - y>x + [x,y] on scalars, every one of the n^2
    entries read off the bracket table sc and the product table tc."""
    n = len(sc)
    return tuple(
        tuple(vec_add(vec_sub(tc[i][j], tc[j][i]), sc[i][j]) for j in range(n))
        for i in range(n)
    )


_RATIONAL = r"[0-9]+(?:/[0-9]+)?"
_SCALAR_RE = re.compile(
    rf"^(?P<sign>[+-])?"
    rf"(?:(?P<imag_only>(?:{_RATIONAL}\*)?i)"
    rf"|(?P<re>{_RATIONAL})"
    rf"(?:(?P<isign>[+-])(?P<im>(?:{_RATIONAL}\*)?i))?)$"
)
_TERM_RE = re.compile(r"^(?:(?P<coef>.+)\*)?e(?P<idx>[0-9]+)$")


def _rational(text):
    n, _, d = text.partition("/")
    return int(n), int(d) if d else 1


def reference_parse_scalar(token, line=0):
    """The scalar literal reader of ``parse_scalar`` before the term regex:
    one match of the whole literal, then its parts as scalars."""
    token = token.strip()
    m = _SCALAR_RE.match(token)
    if not m:
        raise ParseError(line, f"bad scalar literal {token!r}")
    sign = -1 if m.group("sign") == "-" else 1
    real, imag = m.group("re"), m.group("imag_only") or m.group("im")
    a, c = _rational(real) if real else (0, 1)
    b, e = ((1, 1) if imag == "i" else _rational(imag[:-2])) if imag else (0, 1)
    if real:
        a *= sign
        if m.group("isign") == "-":
            b = -b
    else:
        b *= sign
    try:
        return from_triple(a * e, b * c, c * e)
    except ZeroDivisionError:
        raise ParseError(line, f"zero denominator in {token!r}") from None


def _split_terms(text, line):
    terms = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(line, "unbalanced parentheses")
        if ch in "+-" and depth == 0 and current.strip():
            terms.append(current.strip())
            current = ch
            continue
        current += ch
    if depth:
        raise ParseError(line, "unbalanced parentheses")
    if current.strip():
        terms.append(current.strip())
    return terms


def reference_parse_combination(text, dim, line=0):
    """The reader of linear combinations that the one-pass parser replaced,
    kept as its oracle: a split at each sign outside parentheses, one match
    per term, and a sum of ``reference_parse_scalar`` scalars."""
    text = text.strip()
    if text == "0":
        return (ZERO,) * dim
    out = [ZERO] * dim
    for term in _split_terms(text, line):
        sign = ONE
        if term.startswith("-"):
            sign = -ONE
            term = term[1:].strip()
        elif term.startswith("+"):
            term = term[1:].strip()
        term = term.replace(" ", "")
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(line, f"bad term {term!r}")
        idx = int(m.group("idx"))
        if not (1 <= idx <= dim):
            raise ParseError(line, f"basis index e{idx} out of range 1..{dim}")
        coef_text = m.group("coef")
        if coef_text and coef_text.startswith("(") and coef_text.endswith(")"):
            coef_text = coef_text[1:-1]
        coef = reference_parse_scalar(coef_text, line) if m.group("coef") else ONE
        out[idx - 1] = out[idx - 1] + sign * coef
    return tuple(out)


def make_sl2() -> LieAlgebra:
    """[e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2 (0-based indices in code)."""
    return LieAlgebra.from_brackets(
        3,
        {
            (0, 1): [0, 0, 1],
            (1, 2): [1, 0, 0],
            (2, 0): [0, 1, 0],
        },
    )


def make_sl2_operator() -> LinearMap:
    """P(e1)=e1, P(e2)=-e2/2+i e3/2, P(e3)=-i e2/2 - e3/2."""
    half = Fraction(1, 2)
    return LinearMap.from_columns(
        [
            [1, 0, 0],
            [0, gaussian(-half), gaussian(0, half)],
            [0, gaussian(0, -half), gaussian(-half)],
        ]
    )


def sl2_triangle_table():
    """The nine products of the worked three-dimensional simple example."""
    half = Fraction(1, 2)
    z = gaussian(0)
    return (
        (
            (z, z, z),
            (z, z, gaussian(1)),
            (z, gaussian(-1), z),
        ),
        (
            (z, gaussian(0, half), gaussian(half)),
            (gaussian(0, -half), z, z),
            (gaussian(-half), z, z),
        ),
        (
            (z, gaussian(-half), gaussian(0, half)),
            (gaussian(half), z, z),
            (gaussian(0, -half), z, z),
        ),
    )


def make_solvable() -> LieAlgebra:
    """Three-dimensional algebra with the single product [e1,e2] = e2."""
    return LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0]})


def solvable_witness(alpha=0, beta=0, gamma=0) -> LinearMap:
    """Columns (1,0,alpha), (0,-1,beta), (0,0,gamma)."""
    return LinearMap.from_columns(
        [[1, 0, alpha], [0, -1, beta], [0, 0, gamma]]
    )


def make_heisenberg() -> LieAlgebra:
    """[e1,e2] = e3, everything else zero."""
    return LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1]})


def reference_cyclic_failures(sc, values) -> tuple[tuple[int, int, int], ...]:
    """The triples i<j<k where v([e_i,e_j], e_k) + v([e_j,e_k], e_i) +
    v([e_k,e_i], e_j) is nonzero, v being the bilinear map of the table
    ``values`` and the brackets read from ``sc``, evaluated by ``bilinear``:
    Jacobi when ``values`` is ``sc``, the cocycle identity for a cochain."""
    n = len(sc)
    units = [unit_vector(n, k) for k in range(n)]
    bad = []
    for i, j, k in combinations(range(n), 3):
        total = vec_add(
            vec_add(
                bilinear(values, sc[i][j], units[k]),
                bilinear(values, sc[j][k], units[i]),
            ),
            bilinear(values, sc[k][i], units[j]),
        )
        if not is_zero_vector(total):
            bad.append((i, j, k))
    return tuple(bad)


def make_half_solvable() -> LieAlgebra:
    """[e1,e2] = e2, [e1,e3] = -e3, [e2,e3] = e4 in the basis 2e1, e2, e3,
    e1+e2+e3+e4, where the brackets have 1/2 entries: [f2,f3] =
    -1/2 f1 - f2 - f3 + f4, and every bracket pair is nonzero."""
    algebra = LieAlgebra.from_brackets(
        4, {(0, 1): [0, 1, 0, 0], (0, 2): [0, 0, -1, 0], (1, 2): [0, 0, 0, 1]}
    )
    transform = ExactMatrix.from_columns(
        [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]]
    )
    return change_basis(algebra, transform)


def compose_perms(p, q):
    """Apply q first, then p."""
    return tuple(p[q[k]] for k in range(len(p)))


def group_from_perms(generators) -> FiniteGroup:
    degree = len(generators[0])
    identity = tuple(range(degree))
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for elem in frontier:
            for gen in generators:
                product = compose_perms(elem, tuple(gen))
                if product not in seen:
                    seen.add(product)
                    elements.append(product)
                    nxt.append(product)
        frontier = nxt
    index = {p: k for k, p in enumerate(elements)}
    table = tuple(
        tuple(index[compose_perms(a, b)] for b in elements) for a in elements
    )
    return FiniteGroup.from_table(table)


def make_s3() -> FiniteGroup:
    return group_from_perms([(1, 0, 2), (1, 2, 0)])


def make_d4() -> FiniteGroup:
    return group_from_perms([(1, 2, 3, 0), (2, 1, 0, 3)])


def make_q8() -> FiniteGroup:
    """Quaternion group; indices 2k, 2k+1 are +/- of (1, i, j, k)."""
    signs = {
        (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def mul(a: int, b: int) -> int:
        sa, xa = (1 if a % 2 == 0 else -1), a // 2
        sb, xb = (1 if b % 2 == 0 else -1), b // 2
        if xa == 0:
            s, ax = 1, xb
        elif xb == 0:
            s, ax = 1, xa
        else:
            s, ax = signs[(xa, xb)]
        sign = sa * sb * s
        return ax * 2 + (0 if sign == 1 else 1)

    return FiniteGroup.from_table(
        [[mul(a, b) for b in range(8)] for a in range(8)]
    )


def rb_group_by_definition(group: FiniteGroup, operator) -> bool:
    """B(a) B(b) = B(a B(a) b B(a)^-1) for every a, b, on raw Cayley-table
    lookups: the oracle for the library's group Rota-Baxter predicate."""
    table, inverse, images = group.table, group.inverse, operator.images
    for a, ba in enumerate(images):
        for b, bb in enumerate(images):
            twisted = table[table[table[a][ba]][b]][inverse[ba]]
            if table[ba][bb] != images[twisted]:
                return False
    return True


def relabel_values(values, perm):
    """A table of element values with element a renamed perm[a]."""
    n = len(values)
    moved = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            moved[perm[a]][perm[b]] = perm[values[a][b]]
    return moved


def relabel_group(group: FiniteGroup, perm) -> FiniteGroup:
    return FiniteGroup.from_table(relabel_values(group.table, perm))


def seeded_relabellings(n: int, seed: int, count: int = 3):
    rng = random.Random(seed)
    perms = []
    for _ in range(count):
        perm = list(range(n))
        rng.shuffle(perm)
        perms.append(perm)
    return perms


def inner_postgroups(group: FiniteGroup) -> list[PostGroup]:
    """All inner post-group structures: one conjugator representative per
    inner automorphism and element, filtered by the weighted associativity
    with early exit (the automorphism axiom holds for conjugations)."""
    n = group.order
    reps = []
    seen = set()
    for c in range(n):
        key = tuple(group.conjugate(c, b) for b in range(n))
        if key not in seen:
            seen.add(key)
            reps.append(c)
    conj = {c: tuple(group.conjugate(c, b) for b in range(n)) for c in reps}
    valid = []
    for images in product(reps, repeat=n):
        tri = [conj[images[a]] for a in range(n)]
        ok = True
        for a in range(n):
            ta = tri[a]
            for b in range(n):
                tl = tri[group.mul(a, ta[b])]
                tb = tri[b]
                for c in range(n):
                    if tl[c] != ta[tb[c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            valid.append(PostGroup(group, tuple(tri)))
    return valid


@pytest.fixture
def sl2():
    return make_sl2()


@pytest.fixture
def sl2_operator():
    return make_sl2_operator()


@pytest.fixture
def solvable():
    return make_solvable()


@pytest.fixture
def heisenberg():
    return make_heisenberg()


@pytest.fixture
def s3():
    return make_s3()


@pytest.fixture
def d4():
    return make_d4()


@pytest.fixture
def z2():
    return cyclic_group(2)


@pytest.fixture
def z4():
    return cyclic_group(4)


# --- random Rota-Baxter instance generation -------------------------------

def _random_invertible(rng: random.Random, n: int) -> ExactMatrix:
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        m = ExactMatrix.from_rows(rows, width=n)
        if m.rank() == n:
            return m


def _central_cocycle_tweak(
    rng: random.Random, algebra: LieAlgebra, operator: LinearMap
) -> LinearMap:
    """Add a random central-valued map killing sub-adjacent brackets."""
    from postrb.scalars import ExactMatrix as EM, nullspace, zero_vector, ZERO

    n = algebra.dim
    z = center(algebra)
    if z.dim == 0:
        return operator
    sub = sub_adjacent(from_rota_baxter(algebra, operator))
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            bracket = sub.sc[i][j]
            for m in range(z.dim):
                row = [ZERO] * (z.dim * n)
                for l in range(n):
                    if bracket[l]:
                        row[m * n + l] = bracket[l]
                rows.append(row)
    if rows:
        kernel = nullspace(EM.from_rows(rows, width=z.dim * n))
    else:
        kernel = tuple(
            tuple(gaussian(1) if q == k else gaussian(0) for q in range(z.dim * n))
            for k in range(z.dim * n)
        )
    if not kernel:
        return operator
    flat = [gaussian(0)] * (z.dim * n)
    for basis_vec in kernel:
        c = gaussian(rng.randint(-2, 2))
        if c:
            flat = [a + c * b for a, b in zip(flat, basis_vec)]
    columns = []
    for l in range(n):
        col = zero_vector(n)
        for m in range(z.dim):
            if flat[m * n + l]:
                col = vec_add(col, vec_scale(flat[m * n + l], z.basis[m]))
        columns.append(col)
    tweak = LinearMap.from_columns(columns)
    return operator + tweak


def _seed_instance(rng: random.Random) -> tuple[LieAlgebra, LinearMap]:
    kind = rng.choice(
        ["abelian", "affine", "heisenberg", "filiform", "solvable4", "trivial"]
    )
    if kind == "abelian":
        n = rng.randint(1, 4)
        algebra = LieAlgebra.abelian(n)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        return algebra, LinearMap.from_rows(rows)
    if kind == "affine":
        algebra = make_solvable()
        op = solvable_witness(alpha=rng.randint(-2, 2), beta=0, gamma=rng.randint(-2, 2))
        return algebra, op
    if kind == "heisenberg":
        algebra = make_heisenberg()
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        op = LinearMap.from_rows([[0, 0, 0], [0, 0, 0], [a, b, 0]])
        return algebra, op
    if kind == "filiform":
        algebra = LieAlgebra.from_brackets(
            4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]}
        )
        if rng.random() < 0.5:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            op = LinearMap.from_rows(
                [[0] * 4, [0] * 4, [0] * 4, [a, b, 0, 0]]
            )
        else:
            op = LinearMap.from_rows(
                [[0, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
            )
        return algebra, op
    if kind == "solvable4":
        c = rng.choice([1, 2, -1])
        algebra = LieAlgebra.from_brackets(
            4, {(0, 1): [0, 1, 0, 0], (0, 2): [0, 0, c, 0]}
        )
        op = LinearMap.from_rows(
            [[0, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
        )
        return algebra, op
    n = rng.randint(2, 4)
    algebra = make_solvable() if n == 3 else LieAlgebra.abelian(n)
    op = LinearMap.zero(algebra.dim) if rng.random() < 0.5 else -LinearMap.identity(algebra.dim)
    return algebra, op


def random_rb_instance(rng: random.Random) -> tuple[LieAlgebra, LinearMap]:
    """A random Rota-Baxter pair: structured seed, central tweak, basis change."""
    algebra, operator = _seed_instance(rng)
    if rng.random() < 0.5:
        operator = _central_cocycle_tweak(rng, algebra, operator)
    if rng.random() < 0.8:
        transform = _random_invertible(rng, algebra.dim)
        algebra = change_basis(algebra, transform)
        inv = transform.inverse()
        operator = LinearMap(inv @ operator.matrix @ transform)
    assert check_rota_baxter(algebra, operator)
    return algebra, operator
