"""Line-oriented document formats for algebras, groups and operators.

One document describes one object.  Lie-side documents use 1-based basis
indices and exact scalar literals (``a/b`` or ``a/b+c/d*i``); group-side
documents use 0-based element indices.  See the README for the grammar.
Parse errors carry the offending 1-based line number.

A bracket or product line is read in one pass, one regex match per signed
term (``_SIGNED_TERM_RE``), into an integer row (``_combination_row``), and
recorded in the entry builder of ``postrb.lie``, whose tables
``LieAlgebra`` and ``PostLieAlgebra`` hold: no table of scalars is built.
A line that pass does not read is handed to ``_refuse_combination``, which
names its first fault.  The lines of a map or of a Cayley or triangle
table are read by one block reader, ``_Lines.block``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import gcd, lcm
from operator import index
from typing import Callable, NoReturn, Sequence

from .errors import ParseError
from .groups import FiniteGroup, GroupMap, group_violations
from .lie import LieAlgebra, _EntryBuilder, _held, _IntegerForm, _sparse
from .postgroup import PostGroup
from .postlie import LinearMap, PostLieAlgebra
from .scalars import (
    ONE, GaussianRational, IntegerRow, Vector, _least_vectors, _scalar_row, from_triple
)

KINDS = ("lie", "postlie", "group", "postgroup", "rb-lie", "rb-group")

OPERATOR_MAP = "operator"
WITNESS_MAP = "witness"

# ASCII digits only: ``\d`` would also match the digits of other scripts.
_NUMBER = "[0-9]+"
# A scalar literal after its leading sign: a/c, (b/e)*i or a/c+(b/e)*i.  The
# imaginary part takes a sign of its own only inside parentheses (the group
# ``open``): outside them, a sign starts the next term.
_VALUE = (
    rf"(?=[0-9i])(?:(?P<rn>{_NUMBER})(?:/(?P<rd>{_NUMBER}))?)?"
    rf"(?:(?(rn)(?(open)(?P<isign>[+-])|(?!)))"
    rf"(?:(?P<inum>{_NUMBER})(?:/(?P<iden>{_NUMBER}))?\*)?(?P<i>i))?"
)
_SCALAR_RE = re.compile(rf"(?P<open>)(?P<csign>[+-])?{_VALUE}")
# One signed term of a combination whose spaces are dropped: an optional
# coefficient, bare or in parentheses, then ``e`` and the basis index.
# Other whitespace than a newline may end a bare coefficient or pad one in
# parentheses, where the literal is read stripped.
_SIGNED_TERM_RE = re.compile(
    rf"\s*(?P<sign>[+-])?\s*"
    rf"(?:(?P<open>\([^\S\n]*(?P<csign>[+-])?)?{_VALUE}[^\S\n]*(?(open)\))\*)?"
    rf"e(?P<idx>{_NUMBER})\s*"
)
_BRACKET_RE = re.compile(r"^\[([0-9]+),([0-9]+)\]\s*=\s*(.+)$")
_TRIANGLE_RE = re.compile(r"^([0-9]+)>([0-9]+)\s*=\s*(.+)$")
_MAP_RE = re.compile(r"^map\s+([A-Za-z_][A-Za-z0-9_-]*)$")
_ARROW_RE = re.compile(r"^([0-9]+)\s*->\s*([0-9]+)$")
_INTEGERS_RE = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")
# The longest integer literal read: Python's default limit on ``int(str)``.
_MAX_DIGITS = 4300
_LONG_NUMBER = re.compile(rf"[0-9]{{{_MAX_DIGITS + 1}}}")
_MINUS_ONE = -ONE


def _check_length(text: str, line: int) -> None:
    """Refuse ``text`` if it holds an integer literal of more than
    ``_MAX_DIGITS`` digits; a shorter text cannot."""
    if len(text) > _MAX_DIGITS and _LONG_NUMBER.search(text):
        raise ParseError(line, f"integer literal longer than {_MAX_DIGITS} digits")


def _int(digits: str, line: int) -> int:
    """The ASCII ``digits`` as an int, refused past ``_MAX_DIGITS``."""
    if len(digits) > _MAX_DIGITS:
        _check_length(digits, line)
    return int(digits)


def _triple(parts: Sequence[str | None]) -> tuple[int, int, int]:
    """(a*e, b*c, c*e) for the literal a/c + (b/e)*i whose leading sign and
    ``_VALUE`` groups are ``parts``; the leading sign is the real part's,
    or the imaginary part's when it stands alone.  c*e is zero when a
    denominator is."""
    csign, rn, rd, isign, inum, iden, i = parts
    a, c = int(rn) if rn else 0, int(rd) if rd else 1
    b, e = (int(inum) if inum else 1) if i else 0, int(iden) if iden else 1
    if csign == "-":
        a = -a
    if (isign if rn else csign) == "-":
        b = -b
    return a * e, b * c, c * e


def _scalar_triple(token: str, line: int) -> tuple[int, int, int]:
    """(a, b, d), d > 0, with the scalar literal ``token`` equal to
    (a + b*i)/d, not necessarily reduced."""
    token = token.strip()
    m = _SCALAR_RE.fullmatch(token)
    if not m:
        raise ParseError(line, f"bad scalar literal {token!r}")
    _check_length(token, line)
    a, b, d = _triple(m.groups()[1:])
    if not d:
        raise ParseError(line, f"zero denominator in {token!r}")
    return a, b, d


def parse_scalar(token: str, line: int = 0) -> GaussianRational:
    return from_triple(*_scalar_triple(token, line))


def _combination_row(text: str, dim: int, line: int) -> tuple[int, IntegerRow]:
    """A linear combination like ``1/2*e1 + (1+i)*e2 - e3`` as (D, row): D
    times its value as an integer row of width ``dim``, D being the lcm of
    the denominators of its terms.  Spaces may stand anywhere in a term, so
    they are dropped first."""
    text = text.replace(" ", "").strip()
    if text == "0":
        return 1, ()
    if len(text) > _MAX_DIGITS and _LONG_NUMBER.search(text):
        _refuse_combination(text, dim, line)
    re_parts, im_parts, scale, pos = [0] * dim, [0] * dim, 1, 0
    while pos < len(text):
        m = _SIGNED_TERM_RE.match(text, pos)
        if m is None:
            _refuse_combination(text, dim, line)
        sign, _, csign, rn, rd, isign, inum, iden, i, idx = m.groups()
        k = int(idx) - 1
        # A term without a coefficient, with neither part, has coefficient 1.
        a, b, d = _triple((csign, rn, rd, isign, inum, iden, i)) if rn or i else (1, 0, 1)
        if (pos and not sign) or not (0 <= k < dim and d):
            _refuse_combination(text, dim, line)
        if scale % d:
            lift = d // gcd(scale, d)
            scale, re_parts, im_parts = (
                scale * lift, [x * lift for x in re_parts], [x * lift for x in im_parts]
            )
        factor = -(scale // d) if sign == "-" else scale // d
        re_parts[k] += a * factor
        im_parts[k] += b * factor
        pos = m.end()
    return scale, _sparse(re_parts, im_parts)


def _refuse_combination(text: str, dim: int, line: int) -> NoReturn:
    """Raise the ParseError of a spaceless, stripped combination that
    ``_combination_row`` does not read: unbalanced parentheses, or else the
    first bad term, basis index or coefficient.  A term starts at each sign
    outside parentheses but the first character; with its own sign
    dropped, it is ``e<index>`` or ``<coefficient>*e<index>``."""
    depth, cuts = 0, [0]
    for k, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
        if ch in "+-" and k and not depth:
            cuts.append(k)
    if depth:
        raise ParseError(line, "unbalanced parentheses")
    for start, end in zip(cuts, [*cuts[1:], None]):
        term = text[start:end].strip()
        term = term[1:].strip() if term[0] in "+-" else term
        head, star, tail = term.rpartition("*")
        if not re.fullmatch("e[0-9]+", tail) or (star and not head) or "\n" in head:
            raise ParseError(line, f"bad term {term!r}")
        index = _int(tail[1:], line)
        if not 1 <= index <= dim:
            raise ParseError(line, f"basis index e{index} out of range 1..{dim}")
        if star:
            parse_scalar(head[1:-1] if head.startswith("(") and head.endswith(")") else head, line)
    raise AssertionError(f"no fault found in {text!r}")


def parse_combination(text: str, dim: int, line: int = 0) -> Vector:
    """Parse a linear combination like ``1/2*e1 + (1+i)*e2 - e3``."""
    scale, row = _combination_row(text, dim, line)
    return _scalar_row(row, dim, scale)


def render_combination(value: Sequence[GaussianRational]) -> str:
    parts = []
    for k, c in enumerate(value):
        if not c:
            continue
        if c == ONE:
            term = f"e{k + 1}"
        elif c == _MINUS_ONE:
            term = f"-e{k + 1}"
        elif c.a and c.b:
            term = f"({c})*e{k + 1}"
        else:
            term = f"{c}*e{k + 1}"
        parts.append(term)
    if not parts:
        return "0"
    text = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text


@dataclass
class AlgebraDocument:
    kind: str
    lie_algebra: LieAlgebra | None = None
    post_lie: PostLieAlgebra | None = None
    group: FiniteGroup | None = None
    post_group: PostGroup | None = None
    linear_maps: dict[str, LinearMap] = field(default_factory=dict)
    group_maps: dict[str, GroupMap] = field(default_factory=dict)


class _Lines:
    def __init__(self, text: str):
        self.rows: list[tuple[int, str]] = []
        for no, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.rows.append((no, stripped))
        self.pos = 0

    def peek(self) -> tuple[int, str] | None:
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def take(self) -> tuple[int, str]:
        row = self.rows[self.pos]
        self.pos += 1
        return row

    @property
    def last_line(self) -> int:
        return self.rows[-1][0] if self.rows else 0

    def block(self, count: int, read: Callable[[int, str], object], message: str) -> list:
        """``read(no, text)`` of each of the next ``count`` lines, in order,
        so that a line's own fault is raised before a later one's; when the
        document ends first, ``message`` is raised at its last line."""
        start = self.pos
        self.pos += count
        block = [read(no, text) for no, text in self.rows[start : self.pos]]
        if len(block) < count:
            raise ParseError(self.last_line, message)
        return block


def _integers(tokens: Sequence[str], line: int) -> list[int] | None:
    """Whitespace-free tokens read as an optional '-' and ASCII digits each;
    None otherwise.  One match per line is cheaper than one per token.  A
    literal past ``_MAX_DIGITS`` is refused at ``line``."""
    text = " ".join(tokens)
    if not _INTEGERS_RE.fullmatch(text):
        return None
    _check_length(text, line)
    return list(map(int, tokens))


def _header_integer(no: int, text: str, letter: str) -> int:
    """The integer of a header line 'keyword n' that has exactly two tokens."""
    keyword, *values = text.split()
    values = _integers(values, no)
    if values is None or len(values) != 1:
        raise ParseError(no, f"expected '{keyword} {letter}' with integer {letter}")
    return values[0]


def _parse_lie_side(lines: _Lines, kind: str) -> AlgebraDocument:
    row = lines.peek()
    if row is None or row[1].split()[0] != "dim":
        raise ParseError(row[0] if row else lines.last_line, "expected 'dim n'")
    no, text = lines.take()
    dim = _header_integer(no, text, "n")
    if dim <= 0:
        raise ParseError(no, "dimension must be positive")

    brackets, products = _EntryBuilder(dim), _EntryBuilder(dim, alternating=False)
    maps: dict[str, LinearMap] = {}
    while lines.peek() is not None:
        no, text = lines.take()
        if m := _BRACKET_RE.match(text) or _TRIANGLE_RE.match(text):
            bracket = m.re is _BRACKET_RE
            if not bracket and kind != "postlie":
                raise ParseError(no, f"triangle products not allowed in kind {kind!r}")
            i, j = _int(m[1], no), _int(m[2], no)
            if not (1 <= i <= dim and 1 <= j <= dim) or (bracket and i == j):
                raise ParseError(
                    no, f"bad bracket pair [{i},{j}]" if bracket else f"bad product pair {i}>{j}"
                )
            table = brackets if bracket else products
            if not table.add(i - 1, j - 1, _combination_row(m[3], dim, no)):
                raise ParseError(no, f"conflicting bracket for pair [{i},{j}]" if bracket else (
                    f"conflicting product for pair {i}>{j}"
                ))
        elif m := _MAP_RE.match(text):
            name = m.group(1)
            if name in maps:
                raise ParseError(no, f"duplicate map {name!r}")
            maps[name] = _parse_map(lines, name, dim)
        else:
            raise ParseError(no, f"unexpected line {text!r}")

    algebra = _held(LieAlgebra, _integer=brackets.form())
    doc = AlgebraDocument(kind=kind, lie_algebra=algebra, linear_maps=maps)
    if kind == "postlie":
        doc.post_lie = _held(PostLieAlgebra, base=algebra, _integer=products.form())
    if kind == "rb-lie" and OPERATOR_MAP not in maps:
        raise ParseError(lines.last_line, "rb-lie documents need a 'map operator'")
    return doc


def _parse_map(lines: _Lines, name: str, dim: int) -> LinearMap:
    """The ``dim`` 'row' lines of the map ``name``, read straight into its
    integer columns: entry (r, c) is (a + b*i)/d (``_scalar_triple``), and
    the columns are put on the lcm of the d, then on their least scale."""
    needs = f"map {name!r} needs {dim} 'row' lines"

    def row(no: int, text: str) -> list[tuple[int, int, int]]:
        keyword, *tokens = text.split()
        if keyword != "row":
            raise ParseError(no, needs)
        if len(tokens) != dim:
            raise ParseError(no, f"expected {dim} entries in map row")
        return [_scalar_triple(token, no) for token in tokens]

    rows = lines.block(dim, row, needs)
    scale = lcm(*(d for row in rows for _, _, d in row))
    columns = tuple(
        tuple((r, a * scale // d, b * scale // d) for r, (a, b, d) in enumerate(column) if a or b)
        for column in zip(*rows)
    )
    return _held(LinearMap, _integer=_least_vectors(_IntegerForm(scale, columns)))


def _parse_table_rows(lines: _Lines, size: int, what: str) -> list[list[int]]:
    """The ``size`` rows of a Cayley or triangle table on ``size`` elements."""

    def row(no: int, text: str) -> list[int]:
        entries = _integers(text.split(), no)
        if entries is None:
            raise ParseError(no, f"non-integer entry in {what} row")
        if len(entries) != size:
            raise ParseError(no, f"expected {size} entries in {what} row")
        for x in entries:
            if not (0 <= x < size):
                raise ParseError(no, f"{what} entry {x} out of range 0..{size - 1}")
        return entries

    return lines.block(size, row, f"{what} needs {size} rows")


def _parse_group_map(lines: _Lines, name: str, size: int) -> GroupMap:
    """The ``size`` 'a -> b' lines of the group map ``name``."""
    needs = f"map {name!r} needs {size} 'a -> b' lines"
    arrows: dict[int, int] = {}  # sized by the lines read, not by ``size``

    def arrow(no: int, text: str) -> None:
        if not (m := _ARROW_RE.match(text)):
            raise ParseError(no, needs)
        src, dst = (_int(x, no) for x in m.groups())
        if not (0 <= src < size and 0 <= dst < size):
            raise ParseError(no, "map indices out of range")
        if src in arrows:
            raise ParseError(no, f"duplicate image for element {src}")
        arrows[src] = dst

    lines.block(size, arrow, needs)
    return GroupMap(tuple(map(arrows.__getitem__, range(size))))


def _parse_group_side(
    lines: _Lines, kind: str, validate_group_axioms: bool
) -> AlgebraDocument:
    row = lines.peek()
    if row is None:
        raise ParseError(lines.last_line, "expected 'order n' or 'generators d'")
    no, text = lines.take()
    group: FiniteGroup | None = None
    order: int | None = None
    table_rows: list[list[int]] | None = None
    table_line = 0
    generators: list[tuple[int, ...]] = []
    names: tuple[str, ...] | None = None
    names_line = 0
    degree: int | None = None

    keyword = text.split()[0]
    if keyword == "order":
        order = _header_integer(no, text, "n")
        if order <= 0:
            raise ParseError(no, "order must be positive")
    elif keyword == "generators":
        degree = _header_integer(no, text, "d")
        if degree <= 0:
            raise ParseError(no, "degree must be positive")
    else:
        raise ParseError(no, "expected 'order n' or 'generators d'")

    triangle_rows: list[list[int]] | None = None
    group_maps: dict[str, GroupMap] = {}

    def closure(no: int) -> FiniteGroup:
        """The group the 'gen' lines generate, closed once: no 'gen' may follow."""
        nonlocal group
        if group is None:
            try:
                group = expand_permutation_generators(degree, generators)
            except ValueError as exc:
                raise ParseError(no, str(exc)) from None
        return group

    while lines.peek() is not None:
        no, text = lines.take()
        if text == "table":
            if order is None:
                raise ParseError(no, "'table' requires an 'order n' header")
            if table_rows is not None:
                raise ParseError(no, "duplicate 'table' section")
            table_rows = _parse_table_rows(lines, order, "Cayley table")
            table_line = no
        elif text.startswith("gen "):
            if degree is None:
                raise ParseError(no, "'gen' requires a 'generators d' header")
            if group is not None:
                raise ParseError(no, "'gen' line after a 'triangle' or 'map' block")
            perm = _integers(text.split()[1:], no)
            if perm is None:
                raise ParseError(no, "non-integer entry in generator")
            perm = tuple(perm)
            if len(perm) != degree or sorted(perm) != list(range(degree)):
                raise ParseError(no, f"generator is not a permutation of 0..{degree - 1}")
            generators.append(perm)
        elif text.split()[0] == "names":
            if names is not None:
                raise ParseError(no, "duplicate 'names' line")
            names, names_line = tuple(text.split()[1:]), no
        elif text == "triangle":
            if kind != "postgroup":
                raise ParseError(no, f"triangle table not allowed in kind {kind!r}")
            if order is None and not generators:
                raise ParseError(no, "triangle table must follow the group data")
            if triangle_rows is not None:
                raise ParseError(no, "duplicate 'triangle' section")
            size = order if order is not None else closure(no).order
            triangle_rows = _parse_table_rows(lines, size, "triangle table")
        elif m := _MAP_RE.match(text):
            name = m.group(1)
            if name in group_maps:
                raise ParseError(no, f"duplicate map {name!r}")
            size = order if order is not None else closure(no).order
            group_maps[name] = _parse_group_map(lines, name, size)
        else:
            raise ParseError(no, f"unexpected line {text!r}")

    if degree is not None:
        if not generators:
            raise ParseError(lines.last_line, "generator form needs 'gen' lines")
        order = closure(lines.last_line).order
    elif table_rows is None:
        raise ParseError(lines.last_line, "group documents need a 'table' section")
    if names is not None and len(names) != order:
        raise ParseError(names_line, "names length does not match order")
    if degree is None:
        try:
            group = FiniteGroup.from_table(
                table_rows, names=names, strict=validate_group_axioms
            )
        except ValueError as exc:
            raise ParseError(table_line, str(exc)) from None
        if validate_group_axioms:
            problems = group_violations(group, limit=1)
            if problems:
                raise ParseError(table_line, problems[0])
    elif names is not None:
        group = FiniteGroup(group.table, group.identity, group.inverse, names)

    doc = AlgebraDocument(kind=kind, group=group, group_maps=group_maps)
    if kind == "postgroup":
        if triangle_rows is None:
            raise ParseError(lines.last_line, "postgroup documents need a 'triangle' section")
        doc.post_group = PostGroup(group, tuple(map(tuple, triangle_rows)))
    if kind == "rb-group" and OPERATOR_MAP not in group_maps:
        raise ParseError(lines.last_line, "rb-group documents need a 'map operator'")
    return doc


def parse_document(text: str, *, validate_group_axioms: bool = True) -> AlgebraDocument:
    """Parse one document; raises ParseError with a 1-based line number.

    ``validate_group_axioms=False`` defers the associativity check so that
    explicit check commands can report violations instead of refusing input.
    """
    lines = _Lines(text)
    row = lines.peek()
    if row is None:
        raise ParseError(1, "empty document")
    no, text0 = lines.take()
    parts = text0.split()
    if len(parts) != 2 or parts[0] != "kind":
        raise ParseError(no, "first line must be 'kind <kind>'")
    kind = parts[1]
    if kind not in KINDS:
        raise ParseError(no, f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    if kind in ("lie", "postlie", "rb-lie"):
        return _parse_lie_side(lines, kind)
    return _parse_group_side(lines, kind, validate_group_axioms)


def expand_permutation_generators(
    degree: int, generators: Sequence[Sequence[int]], cap: int = 4096
) -> FiniteGroup:
    """Close permutation generators under composition, breadth-first.

    Elements are indexed in discovery order starting from the identity;
    raises ValueError when the closure exceeds ``cap``.
    """
    if degree <= 0:
        raise ValueError("degree must be positive")
    gens = [tuple(map(index, g)) for g in generators]
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValueError(f"generator {g} is not a permutation of 0..{degree - 1}")
    identity = tuple(range(degree))
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for elem in frontier:
            for g in gens:
                product = tuple(elem[g[k]] for k in range(degree))
                if product not in seen:
                    if len(seen) >= cap:
                        raise ValueError(f"closure exceeds the cap of {cap} elements")
                    seen.add(product)
                    elements.append(product)
                    nxt.append(product)
        frontier = nxt
    position = {p: k for k, p in enumerate(elements)}
    table = tuple(
        tuple(position[tuple(a[b[k]] for k in range(degree))] for b in elements)
        for a in elements
    )
    return FiniteGroup.from_table(table)


# --- renderers -------------------------------------------------------------


def render_map_rows(mp: LinearMap) -> list[str]:
    """The 'row ...' lines of a linear map, as documents and reports print it."""
    return ["row " + " ".join(str(x) for x in row) for row in mp.matrix.entries]


def render_group_map_rows(mp: GroupMap) -> list[str]:
    """The 'a -> b' lines of a group map, as documents and reports print it."""
    return [f"{a} -> {b}" for a, b in enumerate(mp.images)]


def _render_lie_body(algebra: LieAlgebra) -> list[str]:
    n = algebra.dim
    lines = [f"dim {n}"]
    for i in range(n):
        for j in range(i + 1, n):
            value = algebra.sc[i][j]
            if any(value):
                lines.append(f"[{i + 1},{j + 1}] = {render_combination(value)}")
    return lines


def render_lie_document(algebra: LieAlgebra) -> str:
    return "\n".join(["kind lie", *_render_lie_body(algebra)]) + "\n"


def render_postlie_document(
    post: PostLieAlgebra, witness: LinearMap | None = None
) -> str:
    lines = ["kind postlie", *_render_lie_body(post.base)]
    n = post.dim
    for i in range(n):
        for j in range(n):
            value = post.tc[i][j]
            if any(value):
                lines.append(f"{i + 1}>{j + 1} = {render_combination(value)}")
    if witness is not None:
        lines.append(f"map {WITNESS_MAP}")
        lines.extend(render_map_rows(witness))
    return "\n".join(lines) + "\n"


def render_rb_lie_document(algebra: LieAlgebra, operator: LinearMap) -> str:
    lines = ["kind rb-lie", *_render_lie_body(algebra)]
    lines.append(f"map {OPERATOR_MAP}")
    lines.extend(render_map_rows(operator))
    return "\n".join(lines) + "\n"


def _render_group_body(group: FiniteGroup) -> list[str]:
    lines = [f"order {group.order}", "table"]
    for row in group.table:
        lines.append(" ".join(str(x) for x in row))
    if group.names is not None:
        lines.append("names " + " ".join(group.names))
    return lines


def render_group_document(group: FiniteGroup) -> str:
    return "\n".join(["kind group", *_render_group_body(group)]) + "\n"


def render_postgroup_document(pg: PostGroup) -> str:
    lines = ["kind postgroup", *_render_group_body(pg.base), "triangle"]
    for row in pg.triangle:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def render_rb_group_document(group: FiniteGroup, operator: GroupMap) -> str:
    lines = ["kind rb-group", *_render_group_body(group)]
    lines.append(f"map {OPERATOR_MAP}")
    lines.extend(render_group_map_rows(operator))
    return "\n".join(lines) + "\n"
