"""Cayley tables for the group-side workload, built from scratch.

Like ``qi``, this module shares no code with ``postrb``: it builds the
groups, relabels them, lists their Rota-Baxter operators and inner
post-groups, and re-checks operators on the integer table for the checker.
"""

from __future__ import annotations

import random

Table = tuple[tuple[int, ...], ...]


def closure(degree: int, gens: list[tuple[int, ...]]) -> Table:
    """Permutation group generated by ``gens``, elements in discovery order."""
    identity = tuple(range(degree))
    elements, seen, frontier = [identity], {identity}, [identity]
    while frontier:
        nxt = []
        for elem in frontier:
            for g in gens:
                p = tuple(elem[g[k]] for k in range(degree))
                if p not in seen:
                    seen.add(p)
                    elements.append(p)
                    nxt.append(p)
        frontier = nxt
    index = {p: k for k, p in enumerate(elements)}
    return tuple(
        tuple(index[tuple(a[b[k]] for k in range(degree))] for b in elements)
        for a in elements
    )


def cyclic(n: int) -> Table:
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def dihedral(k: int) -> Table:
    """Symmetries of the regular k-gon, of order 2k."""
    return closure(k, [tuple((i + 1) % k for i in range(k)), tuple((-i) % k for i in range(k))])


def direct_product(g: Table, h: Table) -> Table:
    m = len(h)
    return tuple(
        tuple(g[a // m][b // m] * m + h[a % m][b % m] for b in range(len(g) * m))
        for a in range(len(g) * m)
    )


def quaternion() -> Table:
    """Elements 2k and 2k+1 are +/- of (1, i, j, k)."""
    units = {(1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2), (2, 1): (-1, 3),
             (2, 2): (-1, 0), (2, 3): (1, 1), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0)}

    def mul(a: int, b: int) -> int:
        xa, xb = a // 2, b // 2
        s, x = (1, xa + xb) if xa == 0 or xb == 0 else units[(xa, xb)]
        sign = s * (-1) ** (a % 2) * (-1) ** (b % 2)
        return 2 * x + (sign < 0)

    return tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))


GROUPS = {
    "S3": lambda: closure(3, [(1, 0, 2), (1, 2, 0)]),
    "D4": lambda: dihedral(4),
    "Q8": quaternion,
    "Z8": lambda: cyclic(8),
    "Z2xZ4": lambda: direct_product(cyclic(2), cyclic(4)),
    "A4": lambda: closure(4, [(1, 2, 0, 3), (1, 0, 3, 2)]),
    "D6": lambda: dihedral(6),
    "S3xZ2": lambda: direct_product(closure(3, [(1, 0, 2), (1, 2, 0)]), cyclic(2)),
    "S4": lambda: closure(4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
    "D12": lambda: dihedral(12),
}


def permutation(rng: random.Random, n: int) -> list[int]:
    sigma = list(range(n))
    rng.shuffle(sigma)
    return sigma


def rename(sigma: list[int], images) -> tuple[int, ...]:
    """The map a -> images[a], with every element x renamed sigma(x)."""
    out = [0] * len(sigma)
    for a, b in enumerate(images):
        out[sigma[a]] = sigma[b]
    return tuple(out)


def rename_rows(sigma: list[int], rows) -> Table:
    """A Cayley or triangle table with every element x renamed sigma(x)."""
    n = len(sigma)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[rows[a][b]]
    return tuple(tuple(r) for r in out)


class Group:
    def __init__(self, table: Table):
        n = len(table)
        self.table = table
        self.n = n
        self.e = next(a for a in range(n) if all(table[a][b] == b for b in range(n)))
        self.inv = tuple(next(b for b in range(n) if table[a][b] == self.e) for a in range(n))
        self.conj = tuple(tuple(table[table[c][b]][self.inv[c]] for b in range(n)) for c in range(n))

    def is_rota_baxter(self, images) -> bool:
        """B(a) B(b) = B(a B(a) b B(a)^-1) on all pairs."""
        t = self.table
        for a in range(self.n):
            ba = images[a]
            for b in range(self.n):
                if t[ba][images[b]] != images[t[a][self.conj[ba][b]]]:
                    return False
        return True

    def induced(self, images) -> Table:
        """a > b = B(a) b B(a)^-1."""
        return tuple(self.conj[images[a]] for a in range(self.n))

    def is_post_group(self, tri) -> bool:
        t, n = self.table, self.n
        for a in range(n):
            if sorted(tri[a]) != list(range(n)):
                return False
            for b in range(n):
                for c in range(n):
                    if tri[a][t[b][c]] != t[tri[a][b]][tri[a][c]]:
                        return False
                    if tri[t[a][tri[a][b]]][c] != tri[a][tri[b][c]]:
                        return False
        return True

    def rota_baxter_operators(self) -> list[tuple[int, ...]]:
        """Every Rota-Baxter operator, sorted; depth-first with propagation."""
        n, t, conj = self.n, self.table, self.conj
        images: list[int | None] = [None] * n
        found: list[tuple[int, ...]] = []

        def propagate(queue: list[int], trail: list[int]) -> bool:
            while queue:
                x = queue.pop()
                for y in range(n):
                    if images[y] is None:
                        continue
                    for a, b in ((x, y), (y, x)):
                        target = t[a][conj[images[a]][b]]
                        value = t[images[a]][images[b]]
                        if images[target] is None:
                            images[target] = value
                            trail.append(target)
                            queue.append(target)
                        elif images[target] != value:
                            return False
            return True

        def extend() -> None:
            free = next((a for a in range(n) if images[a] is None), None)
            if free is None:
                found.append(tuple(images))
                return
            for value in range(n):
                images[free] = value
                trail = [free]
                if propagate([free], trail):
                    extend()
                for x in trail:
                    images[x] = None

        extend()
        return sorted(found)

    def inner_post_groups(self) -> list[Table]:
        """Every inner post-group: a > b = c(a) b c(a)^-1 for a map c into
        conjugator representatives, kept when the weighted associativity holds
        (left multiplications are then automorphisms by construction)."""
        n, t = self.n, self.table
        rows = sorted(set(self.conj))
        tri: list[tuple[int, ...] | None] = [None] * n
        valid: list[Table] = []

        def consistent(last: int) -> bool:
            # Every triple whose three rows a, b and a(a>b) are all assigned.
            for a in range(last + 1):
                for b in range(last + 1):
                    d = t[a][tri[a][b]]
                    if d <= last and any(
                        tri[d][c] != tri[a][tri[b][c]] for c in range(n)
                    ):
                        return False
            return True

        def extend(a: int) -> None:
            if a == n:
                valid.append(tuple(tri))
                return
            for row in rows:
                tri[a] = row
                if consistent(a):
                    extend(a + 1)
            tri[a] = None

        extend(0)
        return valid


def render_table(rows) -> list[str]:
    return [" ".join(str(x) for x in row) for row in rows]


def group_document(table: Table) -> str:
    return "\n".join(["kind group", f"order {len(table)}", "table", *render_table(table)]) + "\n"


def postgroup_document(table: Table, tri) -> str:
    return "\n".join(
        ["kind postgroup", f"order {len(table)}", "table", *render_table(table),
         "triangle", *render_table(tri)]
    ) + "\n"


def rb_group_document(table: Table, images) -> str:
    return "\n".join(
        ["kind rb-group", f"order {len(table)}", "table", *render_table(table),
         "map operator", *(f"{a} -> {b}" for a, b in enumerate(images))]
    ) + "\n"
