"""Line-oriented document formats for algebras, groups and operators.

One document describes one object.  Lie-side documents use 1-based basis
indices and exact scalar literals (``a/b`` or ``a/b+c/d*i``); group-side
documents use 0-based element indices.  See the README for the grammar.
Parse errors carry the offending 1-based line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ParseError
from .groups import FiniteGroup, GroupMap, group_violations
from .lie import LieAlgebra
from .postgroup import PostGroup
from .postlie import LinearMap, PostLieAlgebra
from .scalars import ONE, GaussianRational, Vector, from_triple, zero_vector

KINDS = ("lie", "postlie", "group", "postgroup", "rb-lie", "rb-group")

OPERATOR_MAP = "operator"
WITNESS_MAP = "witness"

# ASCII digits only: ``\d`` would also match the digits of other scripts.
_RATIONAL = r"[0-9]+(?:/[0-9]+)?"
_SCALAR_RE = re.compile(
    rf"^(?P<sign>[+-])?"
    rf"(?:(?P<imag_only>(?:{_RATIONAL}\*)?i)"
    rf"|(?P<re>{_RATIONAL})"
    rf"(?:(?P<isign>[+-])(?P<im>(?:{_RATIONAL}\*)?i))?)$"
)
_BRACKET_RE = re.compile(r"^\[([0-9]+),([0-9]+)\]\s*=\s*(.+)$")
_TRIANGLE_RE = re.compile(r"^([0-9]+)>([0-9]+)\s*=\s*(.+)$")
_MAP_RE = re.compile(r"^map\s+([A-Za-z_][A-Za-z0-9_-]*)$")
_ARROW_RE = re.compile(r"^([0-9]+)\s*->\s*([0-9]+)$")
_TERM_RE = re.compile(r"^(?:(?P<coef>.+)\*)?e(?P<idx>[0-9]+)$")
_INTEGERS_RE = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")
_MINUS_ONE = -ONE


def _rational(text: str) -> tuple[int, int]:
    """The numerator and denominator of a ``_RATIONAL`` literal, as written."""
    n, _, d = text.partition("/")
    return int(n), int(d) if d else 1


def _imag_rational(text: str) -> tuple[int, int]:
    """The coefficient of an imaginary literal ``i`` or ``<rational>*i``."""
    return (1, 1) if text == "i" else _rational(text[:-2])  # strip "*i"


def parse_scalar(token: str, line: int = 0) -> GaussianRational:
    token = token.strip()
    m = _SCALAR_RE.match(token)
    if not m:
        raise ParseError(line, f"bad scalar literal {token!r}")
    sign = -1 if m.group("sign") == "-" else 1
    real, imag = m.group("re"), m.group("imag_only") or m.group("im")
    a, c = _rational(real) if real else (0, 1)
    b, e = _imag_rational(imag) if imag else (0, 1)
    # The leading sign is the first part's; "isign" is the imaginary part's.
    if real:
        a *= sign
        if m.group("isign") == "-":
            b = -b
    else:
        b *= sign
    # a/c + (b/e)*i = (a*e + b*c*i) / (c*e)
    try:
        return from_triple(a * e, b * c, c * e)
    except ZeroDivisionError:
        raise ParseError(line, f"zero denominator in {token!r}") from None


def _split_terms(text: str, line: int) -> list[str]:
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


def parse_combination(text: str, dim: int, line: int = 0) -> Vector:
    """Parse a linear combination like ``1/2*e1 + (1+i)*e2 - e3``."""
    text = text.strip()
    if text == "0":
        return zero_vector(dim)
    out = list(zero_vector(dim))
    for term in _split_terms(text, line):
        sign = ONE
        if term.startswith("-"):
            sign = _MINUS_ONE
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
        coef_text = m.group("coef")  # None or nonempty; "()" is no scalar
        if coef_text and coef_text.startswith("(") and coef_text.endswith(")"):
            coef_text = coef_text[1:-1]
        coef = parse_scalar(coef_text, line) if m.group("coef") else ONE
        out[idx - 1] = out[idx - 1] + sign * coef
    return tuple(out)


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


def _integers(tokens: Sequence[str]) -> list[int]:
    """Whitespace-free tokens read as an optional '-' and ASCII digits each;
    ValueError otherwise.  One match per line is cheaper than one per token."""
    if not _INTEGERS_RE.fullmatch(" ".join(tokens)):
        raise ValueError(f"not integers: {tokens!r}")
    return list(map(int, tokens))


def _header_integer(no: int, text: str, letter: str) -> int:
    """The integer of a header line 'keyword n' that has exactly two tokens."""
    keyword, *values = text.split()
    try:
        (value,) = _integers(values)
        return value
    except ValueError:
        raise ParseError(no, f"expected '{keyword} {letter}' with integer {letter}") from None


def _parse_lie_side(lines: _Lines, kind: str) -> AlgebraDocument:
    row = lines.peek()
    if row is None or row[1].split()[0] != "dim":
        raise ParseError(row[0] if row else lines.last_line, "expected 'dim n'")
    no, text = lines.take()
    dim = _header_integer(no, text, "n")
    if dim <= 0:
        raise ParseError(no, "dimension must be positive")

    brackets: dict[tuple[int, int], Vector] = {}
    triangle: dict[tuple[int, int], Vector] = {}
    maps: dict[str, LinearMap] = {}
    while lines.peek() is not None:
        no, text = lines.take()
        if m := _BRACKET_RE.match(text):
            i, j = int(m.group(1)), int(m.group(2))
            if not (1 <= i <= dim and 1 <= j <= dim) or i == j:
                raise ParseError(no, f"bad bracket pair [{i},{j}]")
            value = parse_combination(m.group(3), dim, no)
            key, mirror = (i - 1, j - 1), (j - 1, i - 1)
            if key in brackets or mirror in brackets:
                prior = brackets.get(key, tuple(-x for x in brackets.get(mirror, ())))
                if prior != value:
                    raise ParseError(no, f"conflicting bracket for pair [{i},{j}]")
                continue
            brackets[key] = value
        elif m := _TRIANGLE_RE.match(text):
            if kind != "postlie":
                raise ParseError(no, f"triangle products not allowed in kind {kind!r}")
            i, j = int(m.group(1)), int(m.group(2))
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ParseError(no, f"bad product pair {i}>{j}")
            key = (i - 1, j - 1)
            value = parse_combination(m.group(3), dim, no)
            if key in triangle and triangle[key] != value:
                raise ParseError(no, f"conflicting product for pair {i}>{j}")
            triangle[key] = value
        elif m := _MAP_RE.match(text):
            name = m.group(1)
            if name in maps:
                raise ParseError(no, f"duplicate map {name!r}")
            rows = []
            for _ in range(dim):
                nxt = lines.peek()
                if nxt is None or nxt[1].split()[0] != "row":
                    raise ParseError(
                        nxt[0] if nxt else lines.last_line,
                        f"map {name!r} needs {dim} 'row' lines",
                    )
                rno, rtext = lines.take()
                tokens = rtext.split()[1:]
                if len(tokens) != dim:
                    raise ParseError(rno, f"expected {dim} entries in map row")
                rows.append([parse_scalar(tok, rno) for tok in tokens])
            maps[name] = LinearMap.from_rows(rows)
        else:
            raise ParseError(no, f"unexpected line {text!r}")

    try:
        algebra = LieAlgebra.from_brackets(dim, brackets)
    except ValueError as exc:
        raise ParseError(lines.last_line, str(exc)) from None
    doc = AlgebraDocument(kind=kind, lie_algebra=algebra, linear_maps=maps)
    if kind == "postlie":
        doc.post_lie = PostLieAlgebra.from_products(algebra, triangle)
    if kind == "rb-lie" and OPERATOR_MAP not in maps:
        raise ParseError(lines.last_line, "rb-lie documents need a 'map operator'")
    return doc


def _parse_table_rows(lines: _Lines, count: int, width: int, what: str) -> list[list[int]]:
    rows = []
    for _ in range(count):
        nxt = lines.peek()
        if nxt is None:
            raise ParseError(lines.last_line, f"{what} needs {count} rows")
        no, text = lines.take()
        tokens = text.split()
        try:
            row = _integers(tokens)
        except ValueError:
            raise ParseError(no, f"non-integer entry in {what} row") from None
        if len(row) != width:
            raise ParseError(no, f"expected {width} entries in {what} row")
        for x in row:
            if not (0 <= x < width):
                raise ParseError(no, f"{what} entry {x} out of range 0..{width - 1}")
        rows.append(row)
    return rows


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
            table_rows = _parse_table_rows(lines, order, order, "Cayley table")
            table_line = no
        elif text.startswith("gen "):
            if degree is None:
                raise ParseError(no, "'gen' requires a 'generators d' header")
            if group is not None:
                raise ParseError(no, "'gen' line after a 'triangle' or 'map' block")
            tokens = text.split()[1:]
            try:
                perm = tuple(_integers(tokens))
            except ValueError:
                raise ParseError(no, "non-integer entry in generator") from None
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
            triangle_rows = _parse_table_rows(lines, size, size, "triangle table")
        elif m := _MAP_RE.match(text):
            name = m.group(1)
            if name in group_maps:
                raise ParseError(no, f"duplicate map {name!r}")
            size = order if order is not None else closure(no).order
            arrows: dict[int, int] = {}  # sized by the lines read, not by ``size``
            for _ in range(size):
                nxt = lines.peek()
                if nxt is None or not _ARROW_RE.match(nxt[1]):
                    raise ParseError(
                        nxt[0] if nxt else lines.last_line,
                        f"map {name!r} needs {size} 'a -> b' lines",
                    )
                ano, atext = lines.take()
                src, dst = map(int, _ARROW_RE.match(atext).groups())
                if not (0 <= src < size and 0 <= dst < size):
                    raise ParseError(ano, "map indices out of range")
                if src in arrows:
                    raise ParseError(ano, f"duplicate image for element {src}")
                arrows[src] = dst
            group_maps[name] = GroupMap(tuple(map(arrows.__getitem__, range(size))))
        else:
            raise ParseError(no, f"unexpected line {text!r}")

    if degree is not None:
        if not generators:
            raise ParseError(lines.last_line, "generator form needs 'gen' lines")
        group = closure(lines.last_line)
        if names is not None:
            if len(names) != group.order:
                raise ParseError(names_line, "names length does not match order")
            group = FiniteGroup(group.table, group.identity, group.inverse, names)
    else:
        if table_rows is None:
            raise ParseError(lines.last_line, "group documents need a 'table' section")
        if names is not None and len(names) != order:
            raise ParseError(names_line, "names length does not match order")
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
    gens = [tuple(int(x) for x in g) for g in generators]
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
    index = {p: k for k, p in enumerate(elements)}
    table = tuple(
        tuple(index[tuple(a[b[k]] for k in range(degree))] for b in elements)
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
