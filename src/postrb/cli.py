"""Command-line interface.

Exit codes key the failure taxonomy: 0 all-pass, 2 parse/usage error,
3 axiom failure, 4 not inner, 5 obstruction class nontrivial.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .documents import (
    OPERATOR_MAP,
    WITNESS_MAP,
    AlgebraDocument,
    parse_document,
    render_combination,
    render_group_map_rows,
    render_map_rows,
)
from .errors import (
    NontrivialObstructionError,
    NotInnerError,
    NotRotaBaxterError,
    ParseError,
)
from .groups import group_violations
from .group_obstruction import (
    construct_rb_from_obstruction_group,
    group_tower_certificates,
    rb_difference_cocycle_group,
)
from .lie import jacobi_violations
from .lie_obstruction import construct_rb_from_obstruction, rb_difference_cocycle
from .postgroup import (
    check_postgroup_axioms,
    check_rb_group,
    enumerate_rb_operators,
    induced_triangle,
)
from .postlie import check_postlie_axioms, check_rota_baxter, induced_table
from .tower import build_tower, tower_report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_AXIOM = 3
EXIT_NOT_INNER = 4
EXIT_NONTRIVIAL = 5


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str


@dataclass
class Report:
    verdicts: list[Verdict]
    data: dict

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.verdicts.append(Verdict(name, passed, detail))

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def render(self, fmt: str, command: str) -> str:
        if fmt == "machine":
            payload = {
                "command": command,
                "verdicts": [
                    {"name": v.name, "passed": v.passed, "detail": v.detail}
                    for v in self.verdicts
                ],
                "data": self.data,
            }
            return json.dumps(payload, sort_keys=True)
        lines = [
            f"{'PASS' if v.passed else 'FAIL'} {v.name}: {v.detail}"
            for v in self.verdicts
        ]
        for key in sorted(self.data):
            value = self.data[key]
            if isinstance(value, list):
                lines.append(f"{key}:")
                lines.extend(f"  {item}" for item in value)
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines)


def _read_document(path: str, *, validate_group_axioms: bool = True) -> AlgebraDocument:
    text = Path(path).read_text(encoding="utf-8")
    return parse_document(text, validate_group_axioms=validate_group_axioms)


def _require_kind(doc: AlgebraDocument, *kinds: str) -> None:
    if doc.kind not in kinds:
        raise ParseError(1, f"expected a document of kind {' or '.join(kinds)}, got {doc.kind!r}")


def _cmd_check_lie(args) -> tuple[Report, int]:
    doc = _read_document(args.input)
    _require_kind(doc, "lie")
    report = Report([], {})
    bad = jacobi_violations(doc.lie_algebra)
    report.add(
        "antisymmetry", True, "enforced structurally at parse time"
    )
    report.add(
        "jacobi",
        not bad,
        "all basis triples satisfy the cyclic identity"
        if not bad
        else f"{len(bad)} violating triples; first {tuple(x + 1 for x in bad[0])}",
    )
    return report, EXIT_OK if report.all_passed else EXIT_AXIOM


def _cmd_check_postlie(args) -> tuple[Report, int]:
    doc = _read_document(args.input)
    _require_kind(doc, "postlie")
    report = Report([], {})
    jac = jacobi_violations(doc.lie_algebra)
    report.add(
        "base-jacobi",
        not jac,
        "base bracket is a Lie algebra" if not jac else f"{len(jac)} violating triples",
    )
    axioms = check_postlie_axioms(doc.post_lie)
    report.add(
        "derivation-identity",
        not axioms.derivation_failures,
        "x>[y,z] = [x>y,z] + [y,x>z] on all triples"
        if not axioms.derivation_failures
        else f"{len(axioms.derivation_failures)} violating triples; first "
        f"{tuple(x + 1 for x in axioms.derivation_failures[0])}",
    )
    report.add(
        "weighted-associativity",
        not axioms.weighted_failures,
        "([x,y]+x>y-y>x)>z = x>(y>z) - y>(x>z) on all triples"
        if not axioms.weighted_failures
        else f"{len(axioms.weighted_failures)} violating triples; first "
        f"{tuple(x + 1 for x in axioms.weighted_failures[0])}",
    )
    return report, EXIT_OK if report.all_passed else EXIT_AXIOM


def _validated_postlie(args) -> AlgebraDocument:
    doc = _read_document(args.input)
    _require_kind(doc, "postlie")
    if jacobi_violations(doc.lie_algebra):
        raise _AxiomFailure("base bracket fails the Jacobi identity")
    axioms = check_postlie_axioms(doc.post_lie)
    if not axioms.ok:
        raise _AxiomFailure("post-Lie axioms fail; run check-postlie for details")
    return doc


class _AxiomFailure(Exception):
    pass


def _cmd_innerness(args) -> tuple[Report, int]:
    from .postlie import innerness_witness

    doc = _validated_postlie(args)
    report = Report([], {})
    witness = innerness_witness(doc.post_lie)
    if witness is None:
        report.add("inner", False, "some left multiplication is not an inner derivation")
        return report, EXIT_NOT_INNER
    report.add("inner", True, "every left multiplication is an inner derivation")
    report.data["witness"] = render_map_rows(witness)
    return report, EXIT_OK


def _cmd_obstruction(args) -> tuple[Report, int]:
    doc = _validated_postlie(args)
    report = Report([], {})
    witness = doc.linear_maps.get(WITNESS_MAP)
    result = construct_rb_from_obstruction(doc.post_lie, witness=witness)
    report.add("inner", True, "witness found")
    report.add("cocycle", True, "defect verified as a 2-cocycle on the sub-adjacent algebra")
    report.add("coboundary", True, "obstruction class is trivial")
    report.add("rota-baxter", True, "reconstructed operator induces the product exactly")
    n = doc.post_lie.dim
    cocycle_lines = []
    for i in range(n):
        for j in range(i + 1, n):
            value = result.cocycle.value(i, j)
            if any(value):
                cocycle_lines.append(
                    f"kappa(e{i + 1},e{j + 1}) = {render_combination(value)}"
                )
    report.data["witness"] = render_map_rows(result.witness)
    report.data["cocycle"] = cocycle_lines or ["0"]
    report.data["correction"] = render_map_rows(result.correction)
    report.data["operator"] = render_map_rows(result.operator)
    return report, EXIT_OK


def _usage_checked(function, *args):
    """Call ``function``; a ValueError other than a failed Rota-Baxter
    identity refuses a flag value (--depth, --cap) and becomes exit 2."""
    try:
        return function(*args)
    except NotRotaBaxterError:
        raise
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None


def _cmd_tower(args) -> tuple[Report, int]:
    doc = _read_document(args.input)
    _require_kind(doc, "rb-lie")
    report = Report([], {})
    operator = doc.linear_maps[OPERATOR_MAP]
    if jacobi_violations(doc.lie_algebra):
        raise _AxiomFailure("base bracket fails the Jacobi identity")
    depth = args.depth if args.depth is not None else doc.lie_algebra.dim
    try:
        t = _usage_checked(build_tower, doc.lie_algebra, operator, depth)
    except NotRotaBaxterError:
        raise _AxiomFailure("map fails the Rota-Baxter identity") from None
    info = tower_report(t)
    report.add("levels", True, f"{len(t.levels)} levels pass Jacobi")
    report.add(
        "homomorphisms",
        True,
        "operator and operator+id are homomorphisms level-to-level",
    )
    report.data["fingerprints-equal"] = str(info.fingerprints_equal)
    report.data["semisimple"] = [str(flag) for flag in info.semisimple]
    report.data["fingerprints"] = [str(fp) for fp in info.fingerprints]
    report.data["operator-power-ranks"] = [str(r) for r in info.operator_power_ranks]
    report.data["shifted-power-ranks"] = [str(r) for r in info.shifted_power_ranks]
    return report, EXIT_OK


def _cmd_check_group(args) -> tuple[Report, int]:
    doc = _read_document(args.input, validate_group_axioms=False)
    _require_kind(doc, "group")
    report = Report([], {})
    problems = group_violations(doc.group)
    report.add(
        "group-axioms",
        not problems,
        "associativity, identity and inverses verified"
        if not problems
        else problems[0],
    )
    report.data["order"] = str(doc.group.order)
    return report, EXIT_OK if report.all_passed else EXIT_AXIOM


def _cmd_check_postgroup(args) -> tuple[Report, int]:
    doc = _read_document(args.input, validate_group_axioms=False)
    _require_kind(doc, "postgroup")
    report = Report([], {})
    problems = group_violations(doc.group)
    report.add(
        "group-axioms",
        not problems,
        "base group verified" if not problems else problems[0],
    )
    axioms = check_postgroup_axioms(doc.post_group)
    report.add(
        "left-multiplications",
        not axioms.non_bijective and not axioms.automorphism_failures,
        "every a>(.) is an automorphism"
        if not axioms.non_bijective and not axioms.automorphism_failures
        else "non-automorphism left multiplications found",
    )
    report.add(
        "weighted-associativity",
        not axioms.weighted_failures,
        "(a(a>b))>c = a>(b>c) on all triples"
        if not axioms.weighted_failures
        else f"{len(axioms.weighted_failures)} violating triples; first "
        f"{axioms.weighted_failures[0]}",
    )
    return report, EXIT_OK if report.all_passed else EXIT_AXIOM


def _validated_postgroup(args) -> AlgebraDocument:
    doc = _read_document(args.input)
    _require_kind(doc, "postgroup")
    axioms = check_postgroup_axioms(doc.post_group)
    if not axioms.ok:
        raise _AxiomFailure("post-group axioms fail; run check-postgroup for details")
    return doc


def _cmd_group_obstruction(args) -> tuple[Report, int]:
    doc = _validated_postgroup(args)
    report = Report([], {})
    result = construct_rb_from_obstruction_group(doc.post_group)
    report.add("inner", True, "witness found")
    report.add("cocycle", True, "defect verified as a normalized 2-cocycle")
    report.add("coboundary", True, "obstruction class is trivial")
    report.add("rota-baxter", True, "reconstructed operator induces the product exactly")
    g = doc.group
    nontrivial = [
        f"omega({a},{b}) = {result.cocycle.values[a][b]}"
        for a in range(g.order)
        for b in range(g.order)
        if result.cocycle.values[a][b] != g.identity
    ]
    report.data["cocycle"] = nontrivial or ["identity"]
    report.data["witness"] = render_group_map_rows(result.witness)
    report.data["correction"] = render_group_map_rows(result.correction)
    report.data["operator"] = render_group_map_rows(result.operator)
    return report, EXIT_OK


def _cmd_group_tower(args) -> tuple[Report, int]:
    doc = _read_document(args.input)
    _require_kind(doc, "rb-group")
    operator = doc.group_maps[OPERATOR_MAP]
    depth = args.depth if args.depth is not None else 3
    levels = _usage_checked(group_tower_certificates, doc.group, operator, depth)
    report = Report([], {})
    report.add("levels", True, f"{len(levels)} levels pass the group axioms")
    report.add(
        "rota-baxter", True, "operator satisfies the identity on every level"
    )
    report.add(
        "homomorphisms",
        True,
        "operator and level-indexed tilde map are homomorphisms level-to-level",
    )
    report.data["orders"] = [str(level.order) for level in levels]
    return report, EXIT_OK


def _cmd_enumerate_rb(args) -> tuple[Report, int]:
    doc = _read_document(args.input)
    _require_kind(doc, "group")
    operators = _usage_checked(enumerate_rb_operators, doc.group, args.cap)
    report = Report([], {})
    report.add("enumeration", True, f"{len(operators)} Rota-Baxter operators")
    report.data["count"] = str(len(operators))
    report.data["operators"] = [
        " ".join(str(x) for x in op.images) for op in operators
    ]
    return report, EXIT_OK


def _first_product_difference_lie(algebra, first, second) -> str:
    # Both operators were checked by the caller; read the products unchecked.
    t1 = induced_table(algebra, first)
    t2 = induced_table(algebra, second)
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            if t1[i][j] != t2[i][j]:
                return (
                    f"products differ at e{i + 1}>e{j + 1}: "
                    f"{render_combination(t1[i][j])} vs "
                    f"{render_combination(t2[i][j])}"
                )
    return "operators induce different products"


def _first_product_difference_group(group, first, second) -> str:
    # Both operators were checked by the caller; read the products unchecked.
    t1 = induced_triangle(group, first)
    t2 = induced_triangle(group, second)
    for a in range(group.order):
        for b in range(group.order):
            if t1[a][b] != t2[a][b]:
                return f"products differ at {a}>{b}: {t1[a][b]} vs {t2[a][b]}"
    return "operators induce different products"


def _cmd_diff_cocycle(args) -> tuple[Report, int]:
    doc_a = _read_document(args.a)
    doc_b = _read_document(args.b)
    report = Report([], {})
    if doc_a.kind == "rb-lie" and doc_b.kind == "rb-lie":
        if doc_a.lie_algebra.sc != doc_b.lie_algebra.sc:
            raise _AxiomFailure("the two documents carry different Lie algebras")
        first = doc_a.linear_maps[OPERATOR_MAP]
        second = doc_b.linear_maps[OPERATOR_MAP]
        for name, op in (("first", first), ("second", second)):
            if not check_rota_baxter(doc_a.lie_algebra, op):
                raise _AxiomFailure(f"{name} map fails the Rota-Baxter identity")
        diff = rb_difference_cocycle(doc_a.lie_algebra, first, second)
        if diff is None:
            report.add(
                "same-product",
                False,
                _first_product_difference_lie(doc_a.lie_algebra, first, second),
            )
            return report, EXIT_AXIOM
        report.add("same-product", True, "operators induce the same product")
        report.add("difference", True, "central 1-cocycle verified")
        report.data["difference"] = render_map_rows(diff)
        return report, EXIT_OK
    if doc_a.kind == "rb-group" and doc_b.kind == "rb-group":
        if doc_a.group.table != doc_b.group.table:
            raise _AxiomFailure("the two documents carry different groups")
        first = doc_a.group_maps[OPERATOR_MAP]
        second = doc_b.group_maps[OPERATOR_MAP]
        for name, op in (("first", first), ("second", second)):
            if not check_rb_group(doc_a.group, op):
                raise _AxiomFailure(f"{name} map fails the group Rota-Baxter identity")
        diff = rb_difference_cocycle_group(doc_a.group, first, second)
        if diff is None:
            report.add(
                "same-product",
                False,
                _first_product_difference_group(doc_a.group, first, second),
            )
            return report, EXIT_AXIOM
        report.add("same-product", True, "operators induce the same product")
        report.add("difference", True, "central 1-cocycle verified")
        report.data["difference"] = render_group_map_rows(diff)
        return report, EXIT_OK
    raise ParseError(1, "diff-cocycle needs two rb-lie or two rb-group documents")


_COMMANDS = {
    "check-lie": (_cmd_check_lie, "Validate a Lie algebra document"),
    "check-postlie": (_cmd_check_postlie, "Validate post-Lie axioms"),
    "innerness": (_cmd_innerness, "Decide innerness and emit the witness"),
    "obstruction": (
        _cmd_obstruction,
        "Run the full obstruction pipeline and reconstruct the operator",
    ),
    "tower": (_cmd_tower, "Build and certify the bracket tower"),
    "check-group": (_cmd_check_group, "Validate a Cayley table"),
    "check-postgroup": (_cmd_check_postgroup, "Validate post-group axioms"),
    "group-obstruction": (
        _cmd_group_obstruction,
        "Run the group obstruction pipeline and reconstruct the operator",
    ),
    "group-tower": (_cmd_group_tower, "Build and certify the group tower"),
    "enumerate-rb": (_cmd_enumerate_rb, "List all Rota-Baxter operators"),
    "diff-cocycle": (_cmd_diff_cocycle, "Difference 1-cocycle of two operators"),
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every request."""
    parser = argparse.ArgumentParser(
        prog="postrb",
        description="Exact decision procedures for post-Lie algebras, post-groups "
        "and Rota-Baxter operators.",
    )

    def add_common(target, suppress: bool) -> None:
        # Registered on the main parser and again on every subparser so the
        # flag is accepted on either side of the subcommand.
        target.add_argument(
            "--format",
            choices=("text", "machine"),
            default=argparse.SUPPRESS if suppress else "text",
            help="output format",
        )

    add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_common(p, suppress=True)
        if name == "diff-cocycle":
            p.add_argument("--a", required=True, help="first operator document")
            p.add_argument("--b", required=True, help="second operator document")
        else:
            p.add_argument("--input", required=True, help="input document path")
        if name in ("tower", "group-tower"):
            p.add_argument(
                "--depth",
                type=int,
                default=None,
                help="levels to build (default: the algebra dimension, 3 for groups)",
            )
        if name == "enumerate-rb":
            p.add_argument(
                "--cap",
                type=int,
                default=8**8,
                help="refuse when |G|^|G| exceeds this bound",
            )
    return parser


# The failures a handler may raise and their exit codes; none of these
# classes derives from another, so at most one matches.
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    FileNotFoundError: EXIT_PARSE,
    _AxiomFailure: EXIT_AXIOM,
    NotRotaBaxterError: EXIT_AXIOM,
    NotInnerError: EXIT_NOT_INNER,
    NontrivialObstructionError: EXIT_NONTRIVIAL,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        report, code = handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(v for kind, v in _EXIT_CODES.items() if isinstance(exc, kind))
    print(report.render(args.format, args.command))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
