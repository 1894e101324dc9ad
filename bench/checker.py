"""Independent checks of the program's outputs.

Each check reads the ``--format machine`` report of one request and returns
``None`` when the output is right, or a one-line reason.  The checks use only
``qi`` and ``cayley``; none of them calls ``postrb``.
"""

from __future__ import annotations

import qi
from cayley import Group


def _matrix(lines: list[str]) -> qi.Mat:
    return [[qi.parse(tok) for tok in line.split()[1:]] for line in lines]


def all_passed(report: dict) -> str | None:
    failed = [v["name"] for v in report["verdicts"] if not v["passed"]]
    return f"verdicts failed: {failed}" if failed else None


def some_failed(report: dict) -> str | None:
    if all(v["passed"] for v in report["verdicts"]):
        return "every verdict passed on a document that breaks an axiom"
    return None


def lie_operator(sc: qi.Table, tc: qi.Table, report: dict) -> str | None:
    """The reconstructed R is weight-1 Rota-Baxter and [R(x), y] = x > y."""
    r = _matrix(report["data"]["operator"])
    if not qi.is_rota_baxter(sc, r):
        return "operator fails the weight-1 Rota-Baxter identity"
    if qi.induced_products(sc, r) != tc:
        return "operator does not induce the input products"
    return all_passed(report)


def lie_witness(sc: qi.Table, tc: qi.Table, report: dict) -> str | None:
    """[w(x), y] = x > y for the reported witness."""
    w = _matrix(report["data"]["witness"])
    if qi.induced_products(sc, w) != tc:
        return "witness does not induce the input products"
    return all_passed(report)


def _power_ranks(m: qi.Mat, depth: int) -> list[str]:
    ranks, power = [], m
    for _ in range(depth):
        ranks.append(str(qi.rank(power)))
        power = qi.matmul(power, m)
    return ranks


def lie_tower(r: qi.Mat, depth: int, report: dict) -> str | None:
    """Depth+1 levels, and the rank sequences of R^k and (R+id)^k."""
    data = report["data"]
    shifted = qi.madd(r, qi.identity(len(r)))
    if data["operator-power-ranks"] != _power_ranks(r, depth):
        return "wrong operator power ranks"
    if data["shifted-power-ranks"] != _power_ranks(shifted, depth):
        return "wrong shifted power ranks"
    if len(data["fingerprints"]) != depth + 1:
        return "wrong number of tower levels"
    return all_passed(report)


def heisenberg_class_nonzero(c: list[list[int]]) -> bool:
    """Closed form for e_i > e_j = c_ij e3 on the Heisenberg algebra."""
    return c[1][0] - c[0][1] == 1 and c[0][0] * c[1][1] - c[0][1] * c[1][0] != 0


def group_operators(group: Group, expected: list[tuple[int, ...]], report: dict) -> str | None:
    """The listed operators are exactly the benchmark's own enumeration."""
    listed = [tuple(int(x) for x in line.split()) for line in report["data"]["operators"]]
    if report["data"]["count"] != str(len(listed)):
        return "count does not match the listed operators"
    if not all(group.is_rota_baxter(op) for op in listed):
        return "a listed operator fails the group Rota-Baxter identity"
    if sorted(listed) != expected:
        return "listed operators differ from the reference enumeration"
    return all_passed(report)


def group_operator(group: Group, tri, report: dict) -> str | None:
    """The reconstructed B is Rota-Baxter and B(a) b B(a)^-1 = a > b."""
    images = [0] * group.n
    for line in report["data"]["operator"]:
        a, b = line.split("->")
        images[int(a)] = int(b)
    if not group.is_rota_baxter(images):
        return "operator fails the group Rota-Baxter identity"
    if group.induced(images) != tuple(tuple(row) for row in tri):
        return "operator does not induce the input product"
    return all_passed(report)


def group_tower(order: int, depth: int, report: dict) -> str | None:
    if report["data"]["orders"] != [str(order)] * (depth + 1):
        return "wrong tower level orders"
    return all_passed(report)
