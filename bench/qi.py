"""Gaussian rationals as plain ``(Fraction, Fraction)`` pairs.

This is the benchmark's own arithmetic.  The input generators and the output
checker use it, and never ``postrb.scalars``, so a defect in the library
cannot hide itself behind the checker.  Everything is dense and small: the
benchmark's algebras have dimension at most seven.
"""

from __future__ import annotations

import re
from fractions import Fraction

Q = tuple[Fraction, Fraction]
Vec = tuple[Q, ...]
Mat = list[list[Q]]  # row-major; column j is the image of e_j
Table = list[list[Vec]]  # table[i][j] = e_i * e_j, for brackets and products

ZERO: Q = (Fraction(0), Fraction(0))
ONE: Q = (Fraction(1), Fraction(0))


def q(re_part, im_part=0) -> Q:
    return (Fraction(re_part), Fraction(im_part))


def add(a: Q, b: Q) -> Q:
    return (a[0] + b[0], a[1] + b[1])


def sub(a: Q, b: Q) -> Q:
    return (a[0] - b[0], a[1] - b[1])


def mul(a: Q, b: Q) -> Q:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def neg(a: Q) -> Q:
    return (-a[0], -a[1])


def inv(a: Q) -> Q:
    norm = a[0] * a[0] + a[1] * a[1]
    if not norm:
        raise ZeroDivisionError("inverse of zero")
    return (a[0] / norm, -a[1] / norm)


def nonzero(a: Q) -> bool:
    return bool(a[0]) or bool(a[1])


# --- text in the document grammar --------------------------------------------

_RAT = r"\d+(?:/\d+)?"
_SCALAR = re.compile(
    rf"^(?P<sign>[+-])?(?:(?P<imag>(?:{_RAT}\*)?i)"
    rf"|(?P<re>{_RAT})(?:(?P<isign>[+-])(?P<im>(?:{_RAT}\*)?i))?)$"
)


def _imag(text: str) -> Fraction:
    return Fraction(1) if text == "i" else Fraction(text[:-2])


def parse(text: str) -> Q:
    """Read one scalar such as ``3``, ``-1/2``, ``i`` or ``1/2-3/4*i``."""
    m = _SCALAR.match(text.strip())
    if not m:
        raise ValueError(f"bad scalar {text!r}")
    sign = -1 if m.group("sign") == "-" else 1
    if m.group("imag") is not None:
        return (Fraction(0), sign * _imag(m.group("imag")))
    re_part = sign * Fraction(m.group("re"))
    if m.group("im") is None:
        return (re_part, Fraction(0))
    isign = -1 if m.group("isign") == "-" else 1
    return (re_part, isign * _imag(m.group("im")))


def fmt(a: Q) -> str:
    """Write one scalar without spaces, in a form ``parse`` reads back."""
    re_part, im_part = a
    if not im_part:
        return str(re_part)
    mag = abs(im_part)
    imag = "i" if mag == 1 else f"{mag}*i"
    if not re_part:
        return imag if im_part > 0 else "-" + imag
    return f"{re_part}{'+' if im_part > 0 else '-'}{imag}"


def fmt_combination(v: Vec) -> str:
    terms = [f"({fmt(c)})*e{k + 1}" for k, c in enumerate(v) if nonzero(c)]
    return " + ".join(terms) if terms else "0"


# --- vectors and matrices ------------------------------------------------------


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def unit(n: int, k: int) -> Vec:
    return tuple(ONE if j == k else ZERO for j in range(n))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(add(a, b) for a, b in zip(u, v))


def identity(n: int) -> Mat:
    return [list(unit(n, i)) for i in range(n)]


def from_ints(rows) -> Mat:
    return [[c if isinstance(c, tuple) else q(c) for c in row] for row in rows]


def column(m: Mat, j: int) -> Vec:
    return tuple(row[j] for row in m)


def apply(m: Mat, v: Vec) -> Vec:
    out = []
    for row in m:
        acc = ZERO
        for a, b in zip(row, v):
            if nonzero(a) and nonzero(b):
                acc = add(acc, mul(a, b))
        out.append(acc)
    return tuple(out)


def matmul(a: Mat, b: Mat) -> Mat:
    cols = [apply(a, column(b, j)) for j in range(len(b[0]))]
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(a))]


def madd(a: Mat, b: Mat) -> Mat:
    return [[add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _echelon(rows: Mat) -> tuple[Mat, list[int]]:
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if nonzero(rows[i][c])), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        f = inv(rows[r][c])
        rows[r] = [mul(x, f) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and nonzero(rows[i][c]):
                g = rows[i][c]
                rows[i] = [sub(x, mul(g, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(m: Mat) -> int:
    return len(_echelon(m)[1])


def inverse(m: Mat) -> Mat:
    n = len(m)
    red, pivots = _echelon([list(row) + list(unit(n, i)) for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


# --- bilinear tables: Lie brackets and post-Lie products -------------------------


def zero_table(n: int) -> Table:
    return [[zeros(n) for _ in range(n)] for _ in range(n)]


def table_from_brackets(n: int, brackets: dict) -> Table:
    """Antisymmetric table from {(i, j): vector} on 0-based pairs i != j."""
    t = zero_table(n)
    for (i, j), value in brackets.items():
        v = tuple(c if isinstance(c, tuple) else q(c) for c in value)
        t[i][j] = v
        t[j][i] = tuple(neg(c) for c in v)
    return t


def evaluate(t: Table, x: Vec, y: Vec) -> Vec:
    n = len(t)
    out = [ZERO] * n
    for i in range(n):
        if not nonzero(x[i]):
            continue
        for j in range(n):
            if not nonzero(y[j]):
                continue
            c = mul(x[i], y[j])
            for k, a in enumerate(t[i][j]):
                if nonzero(a):
                    out[k] = add(out[k], mul(c, a))
    return tuple(out)


def transform(t: Table, basis: Mat) -> Table:
    """The table in the basis given by the columns of ``basis``."""
    n = len(t)
    back = inverse(basis)
    cols = [column(basis, j) for j in range(n)]
    return [[apply(back, evaluate(t, cols[i], cols[j])) for j in range(n)] for i in range(n)]


def conjugate_map(m: Mat, basis: Mat) -> Mat:
    """The matrix of the map ``m`` in the basis given by the columns of ``basis``."""
    return matmul(inverse(basis), matmul(m, basis))


def induced_products(sc: Table, r: Mat) -> Table:
    """x > y = [R(x), y] on basis pairs."""
    n = len(sc)
    return [[evaluate(sc, column(r, i), unit(n, j)) for j in range(n)] for i in range(n)]


def is_rota_baxter(sc: Table, r: Mat) -> bool:
    """[Rx,Ry] = R([Rx,y] + [x,Ry] + [x,y]) on all basis pairs (weight 1)."""
    n = len(sc)
    for i in range(n):
        ri, ei = column(r, i), unit(n, i)
        for j in range(n):
            rj, ej = column(r, j), unit(n, j)
            inner = vadd(vadd(evaluate(sc, ri, ej), evaluate(sc, ei, rj)), sc[i][j])
            if evaluate(sc, ri, rj) != apply(r, inner):
                return False
    return True


def is_jacobi(sc: Table) -> bool:
    n = len(sc)
    units = [unit(n, k) for k in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = vadd(
                    vadd(evaluate(sc, units[i], sc[j][k]), evaluate(sc, units[j], sc[k][i])),
                    evaluate(sc, units[k], sc[i][j]),
                )
                if any(nonzero(c) for c in total):
                    return False
    return True


def is_post_lie(sc: Table, tc: Table) -> bool:
    """The derivation identity and the weighted associativity on basis triples."""
    n = len(sc)
    units = [unit(n, k) for k in range(n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = evaluate(tc, units[x], sc[y][z])
                rhs = vadd(evaluate(sc, tc[x][y], units[z]), evaluate(sc, units[y], tc[x][z]))
                if lhs != rhs:
                    return False
                mixed = vadd(vadd(sc[x][y], tc[x][y]), tuple(neg(c) for c in tc[y][x]))
                lhs = evaluate(tc, mixed, units[z])
                rhs = tuple(
                    sub(a, b)
                    for a, b in zip(evaluate(tc, units[x], tc[y][z]), evaluate(tc, units[y], tc[x][z]))
                )
                if lhs != rhs:
                    return False
    return True
