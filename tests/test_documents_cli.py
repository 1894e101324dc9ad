"""Document grammar round-trips and the command-line surface."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from postrb import cli
from postrb.cli import main
from postrb.documents import (
    KINDS,
    expand_permutation_generators,
    parse_combination,
    parse_document,
    parse_scalar,
    render_combination,
    render_group_document,
    render_lie_document,
    render_postgroup_document,
    render_postlie_document,
    render_rb_group_document,
    render_rb_lie_document,
)
from postrb.errors import ParseError
from postrb.groups import GroupMap, check_group
from postrb.postlie import PostLieAlgebra
from postrb.postgroup import from_rb_group
from postrb.scalars import gaussian, vector

from conftest import make_sl2, make_sl2_operator, sl2_triangle_table

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
# One digit past Python's default limit on int(str), and its refusal.
_HUGE = "9" * 4301
_TOO_LONG = "integer literal longer than 4300 digits"


class TestScalarLiterals:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", gaussian(0)),
            ("3", gaussian(3)),
            ("-3", gaussian(-3)),
            ("1/2", gaussian("1/2")),
            ("-1/2", gaussian("-1/2")),
            ("i", gaussian(0, 1)),
            ("-i", gaussian(0, -1)),
            ("2*i", gaussian(0, 2)),
            ("-2/3*i", gaussian(0, "-2/3")),
            ("1+i", gaussian(1, 1)),
            ("1-i", gaussian(1, -1)),
            ("1/2+1/2*i", gaussian("1/2", "1/2")),
            ("1/2-3/4*i", gaussian("1/2", "-3/4")),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_scalar(text) == expected

    def test_roundtrip_via_str(self):
        values = [
            gaussian(0),
            gaussian("5/7"),
            gaussian(0, "-5/7"),
            gaussian("1/2", "1/2"),
            gaussian(-2, 3),
        ]
        for v in values:
            assert parse_scalar(str(v)) == v

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_scalar("1.5")
        with pytest.raises(ParseError):
            parse_scalar("x")
        with pytest.raises(ParseError):
            parse_scalar("1/0")


class TestCombinations:
    def test_parse_mixed(self):
        got = parse_combination("1/2*i*e2 + 1/2*e3", 3)
        assert got == vector([0, gaussian(0, "1/2"), gaussian("1/2")])

    def test_parse_parenthesized(self):
        got = parse_combination("(1/2+1/2*i)*e1 - e2", 2)
        assert got == (gaussian("1/2", "1/2"), gaussian(-1))

    def test_zero(self):
        assert parse_combination("0", 2) == vector([0, 0])

    def test_roundtrip(self):
        vectors = [
            vector([1, 0, 0]),
            vector([0, gaussian(0, "-1/2"), gaussian("3/2")]),
            (gaussian("1/2", "1/2"), gaussian(-1), gaussian(0)),
        ]
        for v in vectors:
            assert parse_combination(render_combination(v), 3) == v

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            parse_combination("e5", 3)


class TestDocumentRoundtrips:
    def test_lie(self, sl2):
        doc = parse_document(render_lie_document(sl2))
        assert doc.kind == "lie"
        assert doc.lie_algebra.sc == sl2.sc

    def test_postlie_with_witness(self, sl2):
        post = PostLieAlgebra(sl2, sl2_triangle_table())
        text = render_postlie_document(post, witness=make_sl2_operator())
        doc = parse_document(text)
        assert doc.post_lie.tc == post.tc
        assert doc.linear_maps["witness"] == make_sl2_operator()
        assert parse_document(render_postlie_document(doc.post_lie)).post_lie.tc == post.tc

    def test_rb_lie(self, sl2):
        text = render_rb_lie_document(sl2, make_sl2_operator())
        doc = parse_document(text)
        assert doc.linear_maps["operator"] == make_sl2_operator()

    def test_group(self, s3):
        doc = parse_document(render_group_document(s3))
        assert doc.group.table == s3.table

    def test_group_names_roundtrip(self, s3):
        from postrb.groups import FiniteGroup

        labelled = FiniteGroup(
            s3.table, s3.identity, s3.inverse, ("e", "s", "r", "sr", "rs", "rr")
        )
        doc = parse_document(render_group_document(labelled))
        assert doc.group.names == labelled.names

    def test_postgroup(self, s3):
        pg = from_rb_group(s3, GroupMap(s3.inverse))
        doc = parse_document(render_postgroup_document(pg))
        assert doc.post_group.triangle == pg.triangle

    def test_rb_group(self, d4):
        op = GroupMap(d4.inverse)
        doc = parse_document(render_rb_group_document(d4, op))
        assert doc.group_maps["operator"] == op

    def test_render_is_deterministic(self, s3, sl2):
        assert render_group_document(s3) == render_group_document(s3)
        assert render_lie_document(sl2) == render_lie_document(sl2)

    def test_random_instances_roundtrip(self):
        import random

        from conftest import random_rb_instance

        rng = random.Random(404)
        for _ in range(20):
            algebra, operator = random_rb_instance(rng)
            text = render_rb_lie_document(algebra, operator)
            doc = parse_document(text)
            assert doc.lie_algebra.sc == algebra.sc
            assert doc.linear_maps["operator"] == operator
            again = render_rb_lie_document(doc.lie_algebra, doc.linear_maps["operator"])
            assert again == text


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(ParseError):
            parse_document("")

    def test_unknown_kind(self):
        with pytest.raises(ParseError) as err:
            parse_document("kind banana\n")
        assert err.value.line == 1

    def test_inconsistent_brackets(self):
        text = "kind lie\ndim 2\n[1,2] = e1\n[2,1] = e1\n"
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == 4

    def test_non_associative_table_positioned(self):
        text = "kind group\norder 2\ntable\n0 1\n1 1\n"
        with pytest.raises(ParseError):
            parse_document(text)
        doc = parse_document(text, validate_group_axioms=False)
        assert doc.group.order == 2

    def test_bad_scalar_line_number(self):
        text = "kind lie\ndim 2\n[1,2] = 1.5*e1\n"
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == 3

    def test_missing_operator_map(self):
        text = "kind rb-lie\ndim 2\n[1,2] = e1\n"
        with pytest.raises(ParseError):
            parse_document(text)

    @pytest.mark.parametrize("value", ["e1 +", "e1 + + e2", "(1+i)*e2 +", "e1 + -e2", "e1 -"])
    def test_sign_without_a_term_is_refused(self, value):
        with pytest.raises(ParseError, match="bad term ''") as err:
            parse_document(f"kind lie\ndim 2\n[1,2] = {value}\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("value", ["()*e1", "( )*e1", "e2 - ()*e1"])
    def test_empty_parenthesized_coefficient_is_refused(self, tmp_path, capsys, value):
        # An empty coefficient is no scalar; it does not fall back to 1.
        text = f"kind lie\ndim 2\n[1,2] = {value}\n"
        with pytest.raises(ParseError, match="bad scalar literal ''") as err:
            parse_document(text)
        assert err.value.line == 3
        path = tmp_path / "doc.lie"
        path.write_text(text)
        assert main(["check-lie", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 3: bad scalar literal ''\n"

    @pytest.mark.parametrize(
        "value, expected",
        [("+ e1", [1, 0]), ("e1+e2", [1, 1]), ("-e1 + 1/2*e2", [-1, gaussian("1/2")])],
    )
    def test_signed_terms_still_parse(self, value, expected):
        assert parse_combination(value, 2) == vector(expected)
        doc = parse_document(f"kind lie\ndim 2\n[1,2] = {value}\n")
        assert doc.lie_algebra.sc[0][1] == vector(expected)

    @pytest.mark.parametrize("degree", [0, -4])
    def test_nonpositive_generator_degree_is_refused_at_the_header(self, degree):
        text = f"kind group\ngenerators {degree}\ngen 0 1 2 3\n"
        with pytest.raises(ParseError, match="degree must be positive") as err:
            parse_document(text)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("kind lie\ndimension 2 7\n", 2, "expected 'dim n'"),
            ("kind lie\ndim 2 7\n", 2, "expected 'dim n' with integer n"),
            ("kind group\norders 2 9\n", 2, "expected 'order n' or 'generators d'"),
            ("kind group\norder 2 9\n", 2, "expected 'order n' with integer n"),
            ("kind group\ngenerators 3 1\n", 2, "expected 'generators d' with integer d"),
            ("kind rb-lie\ndim 1\nmap operator\nrows 0\n", 4, "needs 1 'row' lines"),
            ("kind rb-lie\ndim 1\nmap operator\nrowdy 0\n", 4, "needs 1 'row' lines"),
            ("kind group\norder 1\ntable\n0\nnamesake a\n", 5, "unexpected line"),
            ("kind lie\ndim 0\n", 2, "dimension must be positive"),
            ("kind group\norder 0\n", 2, "order must be positive"),
            ("kind group\n", 1, "expected 'order n' or 'generators d'"),
            ("kinds lie\ndim 1\n", 1, "first line must be 'kind <kind>'"),
            ("# comment\nkind lie 2\ndim 1\n", 2, "first line must be 'kind <kind>'"),
        ],
    )
    def test_header_keywords_match_exactly(self, text, line, message):
        with pytest.raises(ParseError, match=message) as err:
            parse_document(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("kind lie\ndim 2\n[1,2] = )e1(\n", 3, "unbalanced parentheses"),
            ("kind lie\ndim 2\n[1,2] = (1+i*e1\n", 3, "unbalanced parentheses"),
            ("kind postlie\ndim 2\n1>3 = e1\n", 3, "bad product pair 1>3"),
            (
                "kind rb-lie\ndim 2\nmap operator\nrow 1 0\nrow 1\n",
                5,
                "expected 2 entries in map row",
            ),
            ("kind group\norder 2\ntable\n0 1\n", 4, "Cayley table needs 2 rows"),
            (
                "kind group\ngenerators 3\ngen 0 1 1\n",
                3,
                "generator is not a permutation of 0..2",
            ),
            (
                "kind postgroup\ngenerators 3\ntriangle\n0\n",
                3,
                "triangle table must follow the group data",
            ),
            (
                "kind rb-group\norder 2\ntable\n0 1\n1 0\nmap operator\n0 -> 2\n1 -> 1\n",
                7,
                "map indices out of range",
            ),
        ],
        ids=[
            "close-before-open",
            "open-left-open",
            "product-pair",
            "map-row-length",
            "cayley-rows",
            "not-a-permutation",
            "triangle-before-group",
            "map-index",
        ],
    )
    def test_body_refusal_names_its_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert str(err.value) == f"line {line}: {message}"

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("kind lie\ndim 1_0\n", 2, "expected 'dim n' with integer n"),
            ("kind group\norder +1\ntable\n0\n", 2, "expected 'order n' with integer n"),
            ("kind group\norder 2\ntable\n0 1\n1 0_0\n", 5, "non-integer entry"),
            ("kind lie\ndim ٣\n", 2, "expected 'dim n' with integer n"),
            ("kind lie\ndim 3\n[١,2] = e3\n", 3, "unexpected line"),
            ("kind lie\ndim 3\n[1,2] = e٣\n", 3, "bad term"),
            ("kind lie\ndim 3\n[1,2] = ١/2*e3\n", 3, "bad scalar literal"),
            ("kind group\ngenerators 2\ngen ١ 0\n", 3, "non-integer entry in generator"),
            (
                "kind rb-group\norder 1\ntable\n0\nmap operator\n٠ -> 0\n",
                6,
                "needs 1 'a -> b' lines",
            ),
            ("kind group\ngenerators -4\ngen 0 1 2 3\n", 2, "degree must be positive"),
            ("kind group\norder 2\ntable\n0 1\n1 -1\n", 5, "entry -1 out of range"),
        ],
        ids=[
            "underscore-header",
            "plus-header",
            "underscore-entry",
            "arabic-indic-header",
            "arabic-indic-bracket",
            "arabic-indic-basis-index",
            "arabic-indic-scalar",
            "arabic-indic-gen",
            "arabic-indic-arrow",
            "negative-degree",
            "negative-entry",
        ],
    )
    def test_integers_are_ascii_digits_only(self, tmp_path, text, line, message):
        with pytest.raises(ParseError, match=message) as err:
            parse_document(text)
        assert err.value.line == line
        path = tmp_path / "doc.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["check-group", "--input", str(path)]) == 2

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (
                "kind group\norder 2\ntable\n0 1\n1 0\ntable\n1 0\n0 1\n",
                6,
                "duplicate 'table' section",
            ),
            (
                "kind postgroup\norder 1\ntable\n0\ntriangle\n0\ntriangle\n0\n",
                7,
                "duplicate 'triangle' section",
            ),
            (
                "kind group\norder 2\ntable\n0 1\n1 0\nnames e s\nnames e t\n",
                7,
                "duplicate 'names' line",
            ),
            (
                "kind postlie\ndim 2\n1>2 = e1\n1>2 = e2\n",
                4,
                "conflicting product for pair 1>2",
            ),
            (
                "kind rb-lie\ndim 1\nmap operator\nrow 0\nmap operator\nrow 0\n",
                5,
                "duplicate map 'operator'",
            ),
            (
                "kind rb-group\norder 1\ntable\n0\nmap operator\n0 -> 0\n"
                "map operator\n0 -> 0\n",
                7,
                "duplicate map 'operator'",
            ),
            (
                "kind rb-group\norder 2\ntable\n0 1\n1 0\nmap operator\n0 -> 1\n0 -> 0\n",
                8,
                "duplicate image for element 0",
            ),
        ],
        ids=[
            "table",
            "triangle",
            "names",
            "conflicting-product",
            "lie-map",
            "group-map",
            "image",
        ],
    )
    def test_repeated_section_is_refused(self, tmp_path, capsys, text, line, message):
        path = tmp_path / "doc.txt"
        path.write_text(text)
        assert main(["check-group", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: line {line}: {message}\n"

    @pytest.mark.parametrize(
        "text",
        [
            "kind group\norder 2\nnames e\ntable\n0 1\n1 0\n",
            "kind group\ngenerators 3\nnames e a\ngen 1 2 0\n",
            "kind postgroup\ngenerators 3\nnames e a\ngen 1 2 0\ntriangle\n0 1 2\n1 2 0\n2 0 1\n",
        ],
        ids=["table", "generators", "generators-closed-early"],
    )
    def test_names_length_is_reported_on_the_names_line(self, tmp_path, capsys, text):
        path = tmp_path / "doc.txt"
        path.write_text(text)
        assert main(["check-group", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 3: names length does not match order\n"

    @pytest.mark.parametrize(
        "table, message",
        [
            ("1 1 1\n1 1 1\n1 1 1\n", "table has no identity element"),
            ("0 1 2\n1 1 1\n2 1 2\n", "element 1 has no inverse"),
            ("0 1 2\n1 0 2\n2 2 0\n", "associativity fails at triple (1,2,2)"),
        ],
        ids=["no-identity", "no-inverse", "non-associative"],
    )
    @pytest.mark.parametrize(
        "kind, command, trailer",
        [
            ("group", "enumerate-rb", "names e a b\n"),
            ("postgroup", "group-obstruction", "triangle\n0 1 2\n1 2 0\n2 0 1\n"),
        ],
        ids=["group", "postgroup"],
    )
    def test_failing_group_table_is_reported_at_its_table_line(
        self, tmp_path, capsys, table, message, kind, command, trailer
    ):
        # The block after the table moves the document's last line, not the
        # line the failure is reported at.
        path = tmp_path / "doc.txt"
        path.write_text(f"kind {kind}\norder 3\ntable\n{table}{trailer}")
        assert main([command, "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: line 3: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("kind group\norder 2\nnames e a\n", "group documents need a 'table' section"),
            (
                "kind postgroup\norder 1\ntable\n0\nnames e\n",
                "postgroup documents need a 'triangle' section",
            ),
        ],
        ids=["table", "triangle"],
    )
    def test_missing_section_is_reported_at_the_last_line(self, text, message):
        # The document ended without the section, so no earlier line is at fault.
        with pytest.raises(ParseError, match=message) as err:
            parse_document(text)
        assert err.value.line == text.count("\n")

    @pytest.mark.parametrize(
        "text, line, command",
        [
            (f"kind lie\ndim 2\n[1,2] = {_HUGE}*e1\n", 3, "check-lie"),
            (f"kind lie\ndim 2\n[1,2] = e{_HUGE}\n", 3, "check-lie"),
            (f"kind lie\ndim 2\n[{_HUGE},1] = e1\n", 3, "check-lie"),
            (f"kind rb-lie\ndim 1\nmap operator\nrow {_HUGE}\n", 4, "tower"),
            (f"kind rb-group\norder 1\ntable\n0\nmap operator\n{_HUGE} -> 0\n", 6, "group-tower"),
            (f"kind lie\ndim {_HUGE}\n", 2, "check-lie"),
            (f"kind group\norder {_HUGE}\n", 2, "check-group"),
            (f"kind group\ngenerators {_HUGE}\n", 2, "check-group"),
            (f"kind group\norder 2\ntable\n0 1\n1 {_HUGE}\n", 5, "check-group"),
            (f"kind postgroup\norder 1\ntable\n0\ntriangle\n{_HUGE}\n", 6, "check-postgroup"),
            (f"kind group\ngenerators 2\ngen 1 {_HUGE}\n", 3, "check-group"),
        ],
        ids=[
            "scalar",
            "basis-index",
            "bracket-pair",
            "map-row",
            "group-arrow",
            "dim",
            "order",
            "generators",
            "cayley-row",
            "triangle-row",
            "gen",
        ],
    )
    def test_oversized_integer_literal_is_refused(self, tmp_path, capsys, text, line, command):
        # Past Python's default limit on int(str), a literal is refused at
        # its line instead of escaping as a ValueError.
        path = tmp_path / "doc.txt"
        path.write_text(text)
        assert main([command, "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: line {line}: {_TOO_LONG}\n"

    def test_oversized_integer_literal_is_refused_by_the_entry_point(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_text(f"kind rb-group\norder 1\ntable\n0\nmap operator\n{_HUGE} -> 0\n")
        source = str(Path(__file__).resolve().parent.parent / "src")
        search = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "postrb.cli", "group-tower", "--input", str(path)],
            env={**os.environ, "PYTHONPATH": search},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (2, f"error: line 6: {_TOO_LONG}\n")

    def test_literal_of_the_longest_length_is_read(self):
        longest = "1" * 4300
        doc = parse_document(f"kind lie\ndim 2\n[1,2] = {longest}/{longest}*e1 + e1\n")
        assert doc.lie_algebra.sc[0][1] == vector([2, 0])


def _grammar_documents():
    """Documents of at most 12 lines shaped like the grammar, well-formed or
    not: a kind line and a header line of one side, then lines of that side
    mixed with lines of any kind."""
    index = st.integers(-1, 3)
    size = st.integers(1, 3)
    scalars = st.sampled_from(["0", "1", "-1", "1/2", "i", "1+i", "2/0", "x"])
    combinations = st.sampled_from(["0", "e1", "-e2", "e1 + 1/2*e3", "(1+i)*e2", "e4", "e1 +"])
    pair = st.tuples(index, index)
    line = st.one_of(
        st.sampled_from([f"kind {k}" for k in KINDS]),
        st.builds("{} {}".format, st.sampled_from(["dim", "order", "generators"]), index),
        st.sampled_from(["table", "triangle", "names e a", "map operator", "map witness"]),
        st.lists(st.integers(0, 2), min_size=1, max_size=3).map(
            lambda row: " ".join(map(str, row))
        ),
    )
    lie_line = st.one_of(
        line,
        st.lists(scalars, min_size=1, max_size=3).map(lambda row: "row " + " ".join(row)),
        st.builds(lambda ab, c: f"[{ab[0]},{ab[1]}] = {c}", pair, combinations),
        st.builds(lambda ab, c: f"{ab[0]}>{ab[1]} = {c}", pair, combinations),
    )
    group_line = st.one_of(
        line,
        st.permutations([0, 1, 2]).map(lambda p: "gen " + " ".join(map(str, p))),
        pair.map(lambda ab: f"{ab[0]} -> {ab[1]}"),
    )
    # A keyword with the n rows of n entries an order-n table needs, so that
    # the parser often gets past a table instead of stopping inside it.
    block = st.builds(
        lambda keyword, n, entries: [keyword]
        + [" ".join(str(x % n) for x in entries[r * n : r * n + n]) for r in range(n)],
        st.sampled_from(["table", "triangle"]),
        size,
        st.lists(st.integers(0, 5), min_size=9, max_size=9),
    )

    def document(head, body):
        return "\n".join([*head, *body][:12]) + "\n"

    lie = st.builds(
        document,
        st.tuples(
            st.sampled_from(["kind lie", "kind postlie", "kind rb-lie"]),
            size.map("dim {}".format),
        ),
        st.lists(lie_line, max_size=10),
    )
    group = st.builds(
        document,
        st.tuples(
            st.sampled_from(["kind group", "kind postgroup", "kind rb-group"]),
            st.one_of(size.map("order {}".format), st.just("generators 3")),
        ),
        st.lists(st.one_of(group_line.map(lambda x: [x]), block), max_size=10).map(
            lambda chunks: sum(chunks, [])
        ),
    )
    return st.one_of(lie, group)


class TestParserProperty:
    @settings(database=None, derandomize=True, max_examples=200)
    @given(_grammar_documents())
    def test_only_parse_errors_escape(self, text):
        for validate in (True, False):
            try:
                parse_document(text, validate_group_axioms=validate)
            except ParseError:
                pass


class TestGeneratorExpansion:
    def test_transposition(self):
        group = expand_permutation_generators(2, [(1, 0)])
        assert group.order == 2

    def test_s3(self):
        group = expand_permutation_generators(3, [(1, 0, 2), (1, 2, 0)])
        assert group.order == 6
        assert check_group(group)

    def test_d4(self):
        group = expand_permutation_generators(4, [(1, 2, 3, 0), (2, 1, 0, 3)])
        assert group.order == 8

    def test_cap(self):
        with pytest.raises(ValueError):
            expand_permutation_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], cap=10)

    def test_generator_document(self):
        text = "kind group\ngenerators 3\ngen 1 0 2\ngen 1 2 0\n"
        doc = parse_document(text)
        assert doc.group.order == 6

    def test_generator_document_takes_names(self):
        plain = parse_document("kind group\ngenerators 3\ngen 1 2 0\n").group
        named = parse_document("kind group\ngenerators 3\nnames e a b\ngen 1 2 0\n").group
        assert named.names == ("e", "a", "b")
        assert (named.table, named.identity, named.inverse) == (
            plain.table,
            plain.identity,
            plain.inverse,
        )

    def test_generator_document_is_closed_once(self, monkeypatch):
        # The triangle, the map and the group all need the closure.
        from postrb import documents

        calls = []
        original = documents.expand_permutation_generators

        def counted(degree, generators, cap=4096):
            calls.append(tuple(generators))
            return original(degree, generators, cap)

        monkeypatch.setattr(documents, "expand_permutation_generators", counted)
        rows = "".join(" ".join(str(b) for b in range(6)) + "\n" for _ in range(6))
        arrows = "".join(f"{a} -> 0\n" for a in range(6))
        text = (
            "kind postgroup\ngenerators 3\ngen 1 0 2\ngen 1 2 0\n"
            f"triangle\n{rows}map witness\n{arrows}"
        )
        doc = parse_document(text)
        assert doc.post_group.order == 6
        assert doc.group_maps["witness"] == GroupMap.constant(6, 0)
        assert calls == [((1, 0, 2), (1, 2, 0))]

    def test_gen_line_after_a_map_closes_again(self):
        # The map is sized by the transposition alone, so a later generator
        # would change the group under it.
        text = (
            "kind rb-group\ngenerators 3\ngen 1 0 2\n"
            "map operator\n0 -> 0\n1 -> 0\ngen 1 2 0\n"
        )
        with pytest.raises(ParseError, match="after a 'triangle' or 'map' block") as err:
            parse_document(text)
        assert err.value.line == 7

    @pytest.mark.parametrize("command", ["check-postgroup", "group-obstruction"])
    def test_gen_line_after_a_triangle_is_refused(self, tmp_path, capsys, command):
        path = tmp_path / "doc.txt"
        path.write_text(
            "kind postgroup\ngenerators 3\ngen 1 0 2\ntriangle\n0 1\n0 1\ngen 1 2 0\n"
        )
        assert main([command, "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: line 7: 'gen' line after a 'triangle' or 'map' block\n"
        )

    @pytest.mark.parametrize(
        "kind, tail, line", [("group", "", 4), ("postgroup", "triangle\n", 5)]
    )
    def test_closure_past_the_cap_is_a_parse_error(self, tmp_path, capsys, kind, tail, line):
        # S_8 has 40320 elements, past the closure cap of 4096.
        path = tmp_path / "doc.txt"
        path.write_text(
            f"kind {kind}\ngenerators 8\ngen 1 2 3 4 5 6 7 0\ngen 1 0 2 3 4 5 6 7\n{tail}"
        )
        assert main(["check-group", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: line {line}: closure exceeds the cap of 4096 elements\n"
        )


class TestDeclaredSizeIsNotAllocated:
    """A short document that declares a large degree or order is refused
    with memory in proportion to its lines, not to the declared size."""

    SIZE = 10**6

    def refusal(self, call, error=ParseError) -> str:
        """The message ``call()`` is refused with, once the refusal has
        peaked under 1 MB of Python allocations."""
        tracemalloc.start()
        try:
            with pytest.raises(error) as err:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        return str(err.value)

    def test_short_gen_line(self):
        text = f"kind group\ngenerators {self.SIZE}\ngen 0 1\n"
        assert self.refusal(lambda: parse_document(text)) == (
            f"line 3: generator is not a permutation of 0..{self.SIZE - 1}"
        )

    def test_short_generator_in_the_expansion(self):
        message = self.refusal(
            lambda: expand_permutation_generators(self.SIZE, [(0, 1)]), ValueError
        )
        assert message == f"generator (0, 1) is not a permutation of 0..{self.SIZE - 1}"

    def test_short_map_block(self):
        text = f"kind rb-group\norder {self.SIZE}\nmap operator\n0 -> 0\n"
        assert self.refusal(lambda: parse_document(text)) == (
            f"line 4: map 'operator' needs {self.SIZE} 'a -> b' lines"
        )


class TestReadmeExample:
    def test_quick_start_snippet(self):
        from postrb import (
            LieAlgebra,
            LinearMap,
            construct_rb_from_obstruction,
            from_rota_baxter,
        )

        algebra = LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0]})
        operator = LinearMap.from_columns([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        post = from_rota_baxter(algebra, operator)
        result = construct_rb_from_obstruction(post)
        assert result.operator == operator


class TestCli:
    def test_check_lie_pass(self, capsys):
        code = main(["check-lie", "--input", str(SAMPLES / "sl2.lie")])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS jacobi" in out

    def test_check_lie_axiom_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.lie"
        bad.write_text("kind lie\ndim 3\n[1,2] = e3\n[1,3] = e1\n")
        code = main(["check-lie", "--input", str(bad)])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAIL jacobi" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.lie"
        bad.write_text("kind lie\ndim x\n")
        assert main(["check-lie", "--input", str(bad)]) == 2

    def test_missing_file(self):
        assert main(["check-lie", "--input", "no-such-file.lie"]) == 2

    def test_unreadable_input_exit_code(self, tmp_path, capsys):
        binary = tmp_path / "latin1.lie"
        binary.write_bytes(b"kind lie\ndim 1 # caf\xe9\n")
        for path in (tmp_path, binary):
            assert main(["check-lie", "--input", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert err.count("\n") == 1

    def test_exit_code_classes_are_disjoint(self):
        kinds = list(cli._EXIT_CODES)
        for kind in kinds:
            assert not any(issubclass(kind, other) for other in kinds if other is not kind)

    def test_check_postlie(self, capsys):
        code = main(["check-postlie", "--input", str(SAMPLES / "sl2.post")])
        assert code == 0

    def test_innerness_emits_witness(self, capsys):
        code = main(["innerness", "--input", str(SAMPLES / "sl2.post")])
        out = capsys.readouterr().out
        assert code == 0
        assert "witness" in out

    def test_innerness_not_inner_exit(self, tmp_path, capsys):
        doc = tmp_path / "notinner.post"
        doc.write_text("kind postlie\ndim 1\n1>1 = e1\n")
        code = main(["innerness", "--input", str(doc)])
        out = capsys.readouterr().out
        assert code == 4
        assert "FAIL inner" in out

    def test_tower_rejects_non_rb_operator(self, tmp_path):
        doc = tmp_path / "bad.rb"
        doc.write_text(
            "kind rb-lie\ndim 3\n[1,2] = e3\n[2,3] = e1\n[3,1] = e2\n"
            "map operator\nrow 1 0 0\nrow 0 1 0\nrow 0 0 1\n"
        )
        assert main(["tower", "--input", str(doc)]) == 3

    @pytest.mark.parametrize("depth", ["0", "1", "2"])
    def test_tower_non_rb_operator_message(self, tmp_path, capsys, depth):
        doc = tmp_path / "bad.rb"
        doc.write_text(
            "kind rb-lie\ndim 3\n[1,2] = e3\n[2,3] = e1\n[3,1] = e2\n"
            "map operator\nrow 1 0 0\nrow 0 1 0\nrow 0 0 1\n"
        )
        code = main(["tower", "--input", str(doc), "--depth", depth])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: map fails the Rota-Baxter identity\n"

    def test_tower_checks_the_operator_on_level_zero_once(self, monkeypatch, capsys):
        # The first tower step is the level-0 Rota-Baxter check; the handler
        # adds none of its own.
        from postrb import postlie, tower

        path = SAMPLES / "sl2.rb"
        doc = parse_document(path.read_text())
        seen = []
        original = postlie._rota_baxter_tables

        def counted(algebra, operator):
            seen.append(algebra == doc.lie_algebra)
            return original(algebra, operator)

        monkeypatch.setattr(postlie, "_rota_baxter_tables", counted)
        monkeypatch.setattr(tower, "_rota_baxter_tables", counted)
        assert main(["tower", "--input", str(path), "--depth", "1"]) == 0
        assert seen.count(True) == 1

    def test_seed_flag_is_refused(self, capsys):
        # No code path draws a random number, so there is no seed to set.
        for argv in (
            ["check-group", "--input", str(SAMPLES / "s3.grp"), "--seed", "7"],
            ["--seed", "7", "check-group", "--input", str(SAMPLES / "s3.grp")],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_obstruction_sl2(self, capsys):
        code = main(["obstruction", "--input", str(SAMPLES / "sl2.post")])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS coboundary" in out
        assert "row 1 0 0" in out

    def test_obstruction_solvable_beta1(self, capsys):
        code = main(["obstruction", "--input", str(SAMPLES / "solvable_beta1.post")])
        out = capsys.readouterr().out
        assert code == 0
        assert "kappa(e1,e2) = -e3" in out

    def test_obstruction_refuses_a_wrong_witness(self, tmp_path, capsys):
        text = (SAMPLES / "sl2.post").read_text()
        doc = tmp_path / "wrong_witness.post"
        doc.write_text(text.replace("row 1 0 0", "row 2 0 0"))
        assert main(["obstruction", "--input", str(doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: map witness does not induce the product\n"

    def test_obstruction_not_inner_exit(self, tmp_path, capsys):
        doc = tmp_path / "notinner.post"
        doc.write_text("kind postlie\ndim 1\n1>1 = e1\n")
        assert main(["obstruction", "--input", str(doc)]) == 4

    def test_obstruction_nontrivial_exit(self, tmp_path, capsys):
        doc = tmp_path / "heis.post"
        doc.write_text(
            "kind postlie\ndim 3\n[1,2] = e3\n"
            "1>1 = e3\n2>1 = e3\n2>2 = e3\n"
        )
        assert main(["obstruction", "--input", str(doc)]) == 5

    def test_obstruction_nontrivial_exit_with_a_witness(self, tmp_path, capsys):
        # The pipeline checks a supplied witness itself; the CLI maps that
        # refusal to exit 3 but must keep the nontrivial class at exit 5.
        doc = tmp_path / "heis.post"
        doc.write_text(
            "kind postlie\ndim 3\n[1,2] = e3\n"
            "1>1 = e3\n2>1 = e3\n2>2 = e3\n"
            "map witness\nrow 0 1 0\nrow -1 -1 0\nrow 0 0 0\n"
        )
        assert main(["obstruction", "--input", str(doc)]) == 5

    def test_tower(self, capsys):
        code = main(["tower", "--input", str(SAMPLES / "sl2.rb"), "--depth", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "levels" in out

    @pytest.mark.parametrize(
        "command,sample", [("tower", "sl2.rb"), ("group-tower", "s3_inverse.rbgrp")]
    )
    def test_negative_depth_is_a_usage_error(self, command, sample, capsys):
        code = main([command, "--input", str(SAMPLES / sample), "--depth", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: line 1: tower depth must be nonnegative\n"

    def test_parser_is_built_once(self, monkeypatch, capsys):
        import argparse

        from postrb import cli

        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        argv = ["check-group", "--input", str(SAMPLES / "s3.grp")]
        assert main(argv) == 0
        once = len(built)
        assert main(argv) == 0
        with pytest.raises(SystemExit) as usage:
            main(["bogus"])
        assert usage.value.code == 2
        assert len(built) == once > 0

    def test_check_group(self, capsys):
        assert main(["check-group", "--input", str(SAMPLES / "s3.grp")]) == 0

    def test_check_group_bad_table(self, tmp_path):
        bad = tmp_path / "bad.grp"
        bad.write_text("kind group\norder 2\ntable\n0 1\n1 1\n")
        assert main(["check-group", "--input", str(bad)]) == 3

    def test_check_postgroup(self, capsys):
        assert main(
            ["check-postgroup", "--input", str(SAMPLES / "s3_conjugation.postgrp")]
        ) == 0

    def test_group_obstruction(self, capsys):
        code = main(
            ["group-obstruction", "--input", str(SAMPLES / "s3_conjugation.postgrp")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS coboundary" in out

    def test_group_obstruction_nontrivial_exit(self, tmp_path, d4):
        # The D4 example with nonzero class (see test_group_obstruction).
        conjugation = tuple(d4.conjugate(1, b) for b in range(8))
        rows = [tuple(range(8))] * 8
        for a in (2, 4, 5, 7):
            rows[a] = conjugation
        from postrb.postgroup import PostGroup

        text = render_postgroup_document(PostGroup(d4, tuple(rows)))
        doc = tmp_path / "nontrivial.postgrp"
        doc.write_text(text)
        assert main(["group-obstruction", "--input", str(doc)]) == 5

    def test_group_tower(self, capsys):
        code = main(
            ["group-tower", "--input", str(SAMPLES / "s3_inverse.rbgrp"), "--depth", "2"]
        )
        assert code == 0

    def test_enumerate_rb(self, capsys):
        code = main(["enumerate-rb", "--input", str(SAMPLES / "s3.grp")])
        out = capsys.readouterr().out
        assert code == 0
        assert "count: 8" in out

    def test_enumerate_rb_cap(self, capsys):
        assert main(
            ["enumerate-rb", "--input", str(SAMPLES / "s3.grp"), "--cap", "10"]
        ) == 2

    def test_diff_cocycle_groups(self, capsys):
        code = main(
            [
                "diff-cocycle",
                "--a",
                str(SAMPLES / "s3_inverse.rbgrp"),
                "--b",
                str(SAMPLES / "s3_inverse.rbgrp"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS same-product" in out

    def test_diff_cocycle_different_products(self, capsys):
        code = main(
            [
                "diff-cocycle",
                "--a",
                str(SAMPLES / "s3_trivial.rbgrp"),
                "--b",
                str(SAMPLES / "s3_inverse.rbgrp"),
            ]
        )
        assert code == 3

    def test_diff_cocycle_checks_each_group_operator_once(self, monkeypatch, capsys):
        from collections import Counter

        from postrb import group_obstruction

        calls = Counter()
        original = group_obstruction.check_rb_group

        def counted(group, operator):
            calls[operator.images] += 1
            return original(group, operator)

        monkeypatch.setattr(group_obstruction, "check_rb_group", counted)
        code = main(
            [
                "diff-cocycle",
                "--a",
                str(SAMPLES / "s3_inverse.rbgrp"),
                "--b",
                str(SAMPLES / "s3_trivial.rbgrp"),
            ]
        )
        assert code == 3
        assert "products differ" in capsys.readouterr().out
        assert len(calls) == 2
        assert set(calls.values()) == {1}

    def test_diff_cocycle_checks_each_lie_operator_once(
        self, monkeypatch, tmp_path, capsys, solvable
    ):
        from postrb import lie_obstruction
        from postrb.postlie import LinearMap

        operators = [
            LinearMap.from_columns([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
            LinearMap.from_columns([[1, 0, 1], [0, -1, 0], [0, 0, 2]]),
        ]
        seen = []
        original = lie_obstruction._rota_baxter_tables

        def counted(algebra, operator):
            seen.append(operator)
            return original(algebra, operator)

        monkeypatch.setattr(lie_obstruction, "_rota_baxter_tables", counted)
        paths = [tmp_path / "a.rb", tmp_path / "b.rb"]
        for path, operator in zip(paths, operators):
            path.write_text(render_rb_lie_document(solvable, operator))
        code = main(["diff-cocycle", "--a", str(paths[0]), "--b", str(paths[1])])
        assert code == 0
        assert seen == operators

    def test_diff_cocycle_lie_different_products(self, tmp_path, capsys, solvable):
        from postrb.documents import render_rb_lie_document
        from postrb.postlie import LinearMap

        a = tmp_path / "a.rb"
        b = tmp_path / "b.rb"
        a.write_text(
            render_rb_lie_document(
                solvable, LinearMap.from_columns([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
            )
        )
        b.write_text(render_rb_lie_document(solvable, LinearMap.zero(3)))
        code = main(["diff-cocycle", "--a", str(a), "--b", str(b)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "FAIL same-product: products differ at e1>e2: e2 vs 0\n"

    def test_diff_cocycle_lie(self, tmp_path, capsys, solvable):
        from postrb.documents import render_rb_lie_document
        from postrb.postlie import LinearMap

        op1 = LinearMap.from_columns([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        op2 = LinearMap.from_columns([[1, 0, 1], [0, -1, 0], [0, 0, 2]])
        a = tmp_path / "a.rb"
        b = tmp_path / "b.rb"
        a.write_text(render_rb_lie_document(solvable, op1))
        b.write_text(render_rb_lie_document(solvable, op2))
        code = main(["diff-cocycle", "--a", str(a), "--b", str(b)])
        out = capsys.readouterr().out
        assert code == 0
        assert "difference" in out

    @pytest.mark.parametrize(
        "bad_first, bad_second, named",
        [(True, False, "first"), (True, True, "first"), (False, True, "second")],
    )
    def test_diff_cocycle_lie_names_the_failing_operator(
        self, tmp_path, capsys, sl2, bad_first, bad_second, named
    ):
        from postrb.postlie import LinearMap

        good = render_rb_lie_document(sl2, make_sl2_operator())
        bad = render_rb_lie_document(sl2, LinearMap.identity(3))
        a, b = tmp_path / "a.rb", tmp_path / "b.rb"
        a.write_text(bad if bad_first else good)
        b.write_text(bad if bad_second else good)
        code = main(["diff-cocycle", "--a", str(a), "--b", str(b)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: {named} map fails the Rota-Baxter identity\n"

    def test_diff_cocycle_lie_refuses_a_bracket_failing_jacobi(self, tmp_path, capsys):
        # The Jacobi identity fails at (e1, e2, e3): the cyclic sum is e1.
        from postrb.lie import LieAlgebra
        from postrb.postlie import LinearMap

        algebra = LieAlgebra.from_brackets(
            3, {(0, 1): [1, 0, 0], (0, 2): [1, 0, 0], (1, 2): [0, 1, 0]}
        )
        a, b = tmp_path / "a.rb", tmp_path / "b.rb"
        for path in (a, b):
            path.write_text(render_rb_lie_document(algebra, LinearMap.zero(3)))
        code = main(["diff-cocycle", "--a", str(a), "--b", str(b)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: base bracket fails the Jacobi identity\n"

    @pytest.mark.parametrize(
        "bad_first, bad_second, named",
        [(True, False, "first"), (True, True, "first"), (False, True, "second")],
    )
    def test_diff_cocycle_group_names_the_failing_operator(
        self, tmp_path, capsys, bad_first, bad_second, named
    ):
        group = parse_document((SAMPLES / "s3_inverse.rbgrp").read_text()).group
        good = render_rb_group_document(group, GroupMap(group.inverse))
        bad = render_rb_group_document(group, GroupMap.identity(group.order))
        a, b = tmp_path / "a.rbgrp", tmp_path / "b.rbgrp"
        a.write_text(bad if bad_first else good)
        b.write_text(bad if bad_second else good)
        code = main(["diff-cocycle", "--a", str(a), "--b", str(b)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: {named} map fails the group Rota-Baxter identity\n"
        )

    def test_tower_refuses_a_bracket_failing_jacobi(self, tmp_path, capsys):
        # The Jacobi identity fails at (e1, e2, e3): the cyclic sum is e1.
        from postrb.lie import LieAlgebra
        from postrb.postlie import LinearMap

        algebra = LieAlgebra.from_brackets(
            3, {(0, 1): [1, 0, 0], (0, 2): [1, 0, 0], (1, 2): [0, 1, 0]}
        )
        path = tmp_path / "doc.rb"
        path.write_text(render_rb_lie_document(algebra, LinearMap.zero(3)))
        code = main(["tower", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: base bracket fails the Jacobi identity\n"

    def test_group_obstruction_refuses_failing_postgroup_axioms(self, tmp_path, capsys):
        # Every left multiplication of a constant triangle sends all to 0.
        text = (SAMPLES / "s3_conjugation.postgrp").read_text()
        head = text[: text.index("triangle")]
        path = tmp_path / "doc.postgrp"
        path.write_text(head + "triangle\n" + "0 0 0 0 0 0\n" * 6)
        code = main(["group-obstruction", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: post-group axioms fail; run check-postgroup for details\n"
        )

    def test_diff_cocycle_refuses_different_lie_algebras(self, tmp_path, capsys, solvable):
        from postrb.postlie import LinearMap

        other = tmp_path / "solvable.rb"
        other.write_text(render_rb_lie_document(solvable, LinearMap.zero(3)))
        code = main(["diff-cocycle", "--a", str(SAMPLES / "sl2.rb"), "--b", str(other)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: the two documents carry different Lie algebras\n"

    def test_diff_cocycle_refuses_different_groups(self, tmp_path, capsys, z2):
        other = tmp_path / "z2.rbgrp"
        other.write_text(render_rb_group_document(z2, GroupMap.identity(2)))
        code = main(
            ["diff-cocycle", "--a", str(SAMPLES / "s3_inverse.rbgrp"), "--b", str(other)]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: the two documents carry different groups\n"

    def test_machine_format_json(self, capsys):
        code = main(
            ["--format", "machine", "check-group", "--input", str(SAMPLES / "s3.grp")]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "check-group"
        assert payload["verdicts"][0]["passed"] is True

    def test_machine_format_deterministic(self, capsys):
        main(["--format", "machine", "obstruction", "--input", str(SAMPLES / "sl2.post")])
        first = capsys.readouterr().out
        main(["--format", "machine", "obstruction", "--input", str(SAMPLES / "sl2.post")])
        second = capsys.readouterr().out
        assert first == second


class TestTableConversions:
    """A Lie-side table of scalars is converted to integer rows once, where
    it enters (``lie._integer_form``), and a parsed table enters as rows,
    with no conversion; the pipelines read the rows the objects hold, and no
    table of scalars is built for a table that no report prints
    (``lie._scalar_table``)."""

    @staticmethod
    def counted(monkeypatch, name):
        import sys
        from postrb import lie

        calls = []
        original = getattr(lie, name)

        def spy(*args):
            calls.append(args)
            return original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("postrb") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
        return calls

    def test_obstruction_converts_no_parsed_table(self, monkeypatch, capsys):
        conversions = self.counted(monkeypatch, "_integer_form")
        assert main(["obstruction", "--input", str(SAMPLES / "sl2.post")]) == 0
        # The bracket table and the product table are parsed as rows.
        assert conversions == []

    def test_coefficient_matrices_read_the_held_rows(self, monkeypatch):
        # The center, the inner derivations, the witness solve and the
        # pullback read the coefficient matrix off the held rows of a product
        # or bracket built from rows, so none of them builds its ``tc`` or
        # ``sc`` view.
        from postrb.lie import center, inner_derivations
        from postrb.lie_obstruction import pullback_algebra
        from postrb.postlie import from_rota_baxter, innerness_witness, sub_adjacent

        p = from_rota_baxter(make_sl2(), make_sl2_operator())
        sub = sub_adjacent(p)
        views = self.counted(monkeypatch, "_scalar_table")
        assert innerness_witness(p) is not None
        assert center(sub).dim == 0
        assert inner_derivations(sub).dim == 3
        assert pullback_algebra(p).dim == 3
        assert views == []

    def test_tower_builds_no_scalar_table_for_its_levels(self, monkeypatch, capsys):
        conversions = self.counted(monkeypatch, "_integer_form")
        views = self.counted(monkeypatch, "_scalar_table")
        assert main(["tower", "--input", str(SAMPLES / "sl2.rb"), "--depth", "3"]) == 0
        assert "4 levels pass Jacobi" in capsys.readouterr().out
        # The parsed bracket and the three levels above it are all rows.
        assert conversions == []
        assert views == []
