"""The one-pass reader of Lie-side documents against the scalar reader it
replaced (``conftest.reference_parse_combination``): the same values or the
same ``ParseError`` on generated combinations, valid and corrupted, and the
same objects as the scalar constructors on every sample and every document
of the ``lie-cli`` benchmark workload."""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from postrb.documents import _combination_row, parse_combination, parse_document, parse_scalar
from postrb.errors import ParseError
from postrb.lie import LieAlgebra
from postrb.postlie import PostLieAlgebra
from postrb.scalars import _scalar_row

from conftest import reference_parse_combination, reference_parse_scalar

ROOT = Path(__file__).resolve().parent.parent
DIM = 3

_GAPS = st.sampled_from(["", "", "", " ", "  ", "\t", " \t "])
_SPACES = st.sampled_from(["", "", " ", "  "])
# Coefficients and indices of the right shape (the last two have a zero
# denominator), then ones of a wrong shape.
_COEFFICIENTS = [
    "", "0", "1", "7", "3/4", "0/5", "i", "2*i", "1/2*i", "0*i", "(1+i)", "(-1/2-3/4*i)",
    "(i)", "(-i)", "(+2)", "(0)", "(2*i)", "(1-0*i)", "1/0", "(0/0*i)",
]
_BAD_COEFFICIENTS = [
    "0/0", "1/0*i", "(1/0+i)", "()", "((1))", "(1", "1)", "(1+)", "1+i", "-1", "*", "1*2",
    "x", "(1)(2)", "*i",
]
_INDICES = ["1", "2", "3", "01"]
_BAD_INDICES = ["0", "4", "10", "١", "²", ""]
_CORRUPTIONS = list("+-()*/ \tie0١")


@st.composite
def _term(draw, first: bool, corrupt: bool) -> str:
    signs = ["", "+", "-"] if first else ["+", "-"]
    coefficients, indices = _COEFFICIENTS, _INDICES
    if corrupt:
        signs = [*signs, "", "--", "+-", "-+"]
        coefficients, indices = coefficients + _BAD_COEFFICIENTS * 2, indices + _BAD_INDICES
    coefficient = draw(st.sampled_from(coefficients))
    stars = ["*", "*", "**", ""] if corrupt else ["*"]
    parts = [
        draw(st.sampled_from(signs)),
        coefficient,
        draw(st.sampled_from(stars)) if coefficient else "",
        "e",
        draw(st.sampled_from(indices)),
    ]
    # Whitespace between the parts and inside the index; a tab reads only
    # at the edges of a coefficient.
    gaps = [_GAPS, _GAPS] + [_GAPS if corrupt else _SPACES] * 2
    spaced = "".join(part + draw(gap) for part, gap in zip(parts, gaps))
    return spaced + draw(st.sampled_from(["", " "])).join(parts[-1])


@st.composite
def _combinations(draw) -> str:
    """Signed terms and whitespace, the first term perhaps repeated with the
    other sign so that a coordinate cancels.  A corrupted combination has
    one term drawn from more signs, coefficients and indices, or up to two
    characters inserted, deleted or doubled."""
    how = draw(st.sampled_from(["clean", "bad term", "edited"]))
    count = draw(st.integers(1, 4))
    bad = draw(st.integers(0, count - 1)) if how == "bad term" else -1
    terms = [draw(_term(k == 0, k == bad)) for k in range(count)]
    if draw(st.booleans()):
        body = terms[0].lstrip("+-")
        terms.append(("+" if terms[0].startswith("-") else "-") + body)
    text = "".join(draw(_GAPS) + term for term in terms)
    edits = st.tuples(st.integers(0, 200), st.sampled_from(_CORRUPTIONS), st.integers(0, 2))
    for position, char, edit in draw(st.lists(edits, min_size=1, max_size=2)) if how == "edited" else ():
        at = position % (len(text) + 1)
        if edit == 0:
            text = text[:at] + char + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + text[at : at + 1] * 2 + text[at + 1 :]
    return text


def _outcome(read, *args):
    try:
        return read(*args)
    except ParseError as exc:
        return str(exc), exc.line


# Texts whose reading turns on one rule: a lone zero, a sign that starts a
# term, parentheses that close before they open, whitespace around a
# coefficient.
_EDGES = [
    "0", " 0 ", "", "\t", "00", "+0", "0*e1", "e1-e1", "e1e2", "1+i*e1", "-1*e1", ")(*e1",
    "1)*e1+(2*e2", "e1)+(e2", "(1)\t*e1", "1\t*e1", "(\t1\t)*e1", "-\t(1)*e1", "e\t1", "2*\te1",
]


@settings(database=None, derandomize=True, max_examples=600)
@given(_combinations() | st.sampled_from(_EDGES))
def test_combinations_read_as_the_scalar_reader_reads_them(text):
    expected = _outcome(reference_parse_combination, text, DIM, 3)
    assert _outcome(parse_combination, text, DIM, 3) == expected
    refused = isinstance(expected[0], str)
    if not refused:
        scale, row = _combination_row(text, DIM, 3)
        assert _scalar_row(row, DIM, scale) == expected
    if text.strip():
        # The same line in a document: the same table, or the same refusal.
        document = f"kind lie\ndim {DIM}\n[1,2] = {text}\n"
        if refused:
            assert _outcome(parse_document, document) == expected
        else:
            algebra = LieAlgebra.from_brackets(DIM, {(0, 1): expected})
            assert parse_document(document).lie_algebra == algebra


@settings(database=None, derandomize=True, max_examples=500)
@given(
    st.one_of(
        st.text(alphabet="0123/+-*i \t()", max_size=12),
        st.builds(
            "{}{}{}{}{}".format,
            st.sampled_from(["", "+", "-", " "]),
            st.sampled_from(["", "0", "3", "2/3", "1/0"]),
            st.sampled_from(["", "+", "-", "*", " + "]),
            st.sampled_from(["", "i", "2*i", "5/7*i", "0/0*i", "1/0*i", "*i"]),
            st.sampled_from(["", " ", "\t", "x"]),
        ),
    )
)
def test_scalars_read_as_the_scalar_reader_reads_them(token):
    assert _outcome(parse_scalar, token, 5) == _outcome(reference_parse_scalar, token, 5)


_BRACKET = re.compile(r"^\[([0-9]+),([0-9]+)\]\s*=\s*(.+)$")
_PRODUCT = re.compile(r"^([0-9]+)>([0-9]+)\s*=\s*(.+)$")


def _reference_objects(text: str):
    """The algebra and the post-Lie product of a Lie-side document, built by
    ``from_brackets`` and ``from_products`` from the oracle's scalars."""
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    dim = int(next(line.split()[1] for line in lines if line.startswith("dim")))
    brackets, products = {}, {}
    for line in lines:
        for pattern, table in ((_BRACKET, brackets), (_PRODUCT, products)):
            if m := pattern.match(line):
                key = (int(m[1]) - 1, int(m[2]) - 1)
                table[key] = reference_parse_combination(m[3], dim)
    algebra = LieAlgebra.from_brackets(dim, brackets)
    return algebra, PostLieAlgebra.from_products(algebra, products)


def _lie_cli_documents(directory: Path) -> list[Path]:
    """The documents of a ``lie-cli`` batch of each of the seeds 1 to 3."""
    import workloads

    paths = []
    for seed in (1, 2, 3):
        (directory / str(seed)).mkdir()
        batch = workloads.lie_cli_batch(random.Random(seed), workloads.Writer(directory / str(seed)))
        paths += [Path(r.argv[r.argv.index("--input") + 1]) for r in batch.requests]
    return paths


@pytest.fixture(scope="module")
def lie_side_documents(tmp_path_factory) -> list[Path]:
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        generated = _lie_cli_documents(tmp_path_factory.mktemp("lie-cli"))
    samples = [p for p in sorted((ROOT / "samples").iterdir()) if p.suffix in (".lie", ".post", ".rb")]
    return samples + generated


def test_parsed_objects_equal_the_constructor_path(lie_side_documents):
    assert len(lie_side_documents) > 150
    for path in lie_side_documents:
        text = path.read_text(encoding="utf-8")
        doc = parse_document(text)
        algebra, post = _reference_objects(text)
        # Equality and hashing compare the held rows, so a row on a scale
        # other than the least one would differ here.
        assert doc.lie_algebra == algebra and hash(doc.lie_algebra) == hash(algebra), path
        if doc.post_lie is not None:
            assert doc.post_lie == post and hash(doc.post_lie) == hash(post), path
