"""Property tests driven by Hypothesis.

They cover the readers, the writer and ``validate``, check ``parse_scx``
against a reference reader, check every unchecked
internal construction of complexes, simplices and chains against the
checked public constructors, and check the flow rows against chain algebra.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from morseflow import (
    Chain,
    FlowOperator,
    MorseFunction,
    Simplex,
    SimplicialComplex,
    boundary,
    build_complex,
    critical_cells,
    emit_scx,
    gradient_field,
    lower_set,
    parse_off,
    parse_scx,
    random_morse,
    upper_set,
    validate,
)
from morseflow.errors import (
    MissingValue,
    MorseConditionViolated,
    MorseflowError,
    ParseError,
    SimplexNotInComplex,
)
from conftest import face_closure, flow_by_chain_algebra, reference_parse_scx

# Derandomized and without an example database, so every run checks the
# same inputs.
PROPERTY = settings(max_examples=100, deadline=None, database=None, derandomize=True)

# Vertex ids stay below 6 so the face closure of a fuzzed line stays small.
TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "4", "5", "-1", "x", ":", "#", "0.5", "1e999", "nan", "-inf", "", "\t"]
    + ["1_0", "\u0663", "\u00a0"]  # ``int`` and ``float`` read these; the readers must not
    + ["\r", "\x1c", "\u2028"]  # ``str.splitlines`` breaks at these; the readers must not
)
LINES = st.lists(TOKENS, max_size=8).map(" ".join)
SCX_LIKE = st.lists(LINES, max_size=8).map("\n".join)


@PROPERTY
@given(st.one_of(SCX_LIKE, st.text(max_size=30)))
def test_parse_scx_raises_only_library_errors(text):
    try:
        parse_scx(text)
    except MorseflowError:
        pass


SIMPLEX = st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True)


@PROPERTY
@given(
    st.lists(SIMPLEX, min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 1e3),
)
def test_emit_then_parse_round_trips(simplices, seed, scale):
    complex = build_complex(simplices)
    f = random_morse(complex, seed)
    f = validate(complex, {c: f(c) * scale for c in complex})
    assert parse_scx(emit_scx(complex, f)) == (complex, f)


OFF_TOKENS = st.sampled_from(
    ["OFF", "COFF", "0", "1", "2", "3", "4", "-1", "0.5", "nan", "1e999", "x", "#", ""]
    + ["1_0", "\u0663", "\u00a0", "\x1c"]
)
OFF_LIKE = st.lists(st.lists(OFF_TOKENS, max_size=6).map(" ".join), max_size=8).map("\n".join)


@PROPERTY
@given(st.one_of(OFF_LIKE, st.text(max_size=30)))
def test_parse_off_raises_only_library_errors(text):
    try:
        parse_off(text)
    except MorseflowError:
        pass


SMALL_SIMPLEX = st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True)


@PROPERTY
@given(st.lists(SMALL_SIMPLEX, min_size=1, max_size=4), st.data())
def test_validate_agrees_with_the_upper_and_lower_sets(simplices, data):
    complex = build_complex(simplices)
    values = {c: data.draw(st.integers(0, 6)) for c in complex}
    # An unvalidated function, so the per-cell queries can judge any values.
    raw = MorseFunction(complex, values, None)
    ups = {c: upper_set(raw, c) for c in complex}
    lows = {c: lower_set(raw, c) for c in complex}
    expected = [
        (c, len(ups[c]), len(lows[c]))
        for c in complex
        if len(ups[c]) > 1 or len(lows[c]) > 1
    ]
    try:
        f = validate(complex, values)
    except MorseConditionViolated as exc:
        assert exc.violations == expected
        return
    assert expected == []
    assert critical_cells(f) == {c for c in complex if not ups[c] and not lows[c]}
    assert gradient_field(f).pairs == {(c, u) for c in complex for u in ups[c]}
    assert list(gradient_field(f).up) == [c for c in complex if ups[c]]


def _outcome(read, text):
    try:
        return read(text)
    except Exception as exc:  # any type, so a non-library error shows as a mismatch
        return exc


def assert_parses_like_the_reference(text):
    """``parse_scx`` and the reference reader agree on ``text``: the same error
    (type, message, line), or the same complex and function."""
    expected = _outcome(reference_parse_scx, text)
    actual = _outcome(parse_scx, text)
    if isinstance(expected, Exception):
        assert type(actual) is type(expected), actual
        assert str(actual) == str(expected)
        assert getattr(actual, "line", None) == getattr(expected, "line", None)
        return expected
    assert not isinstance(actual, Exception), actual
    (complex, f), (ref_complex, ref_f) = actual, expected
    assert list(complex) == list(ref_complex)
    for cell in ref_complex:
        assert complex.faces_of(cell) == ref_complex.faces_of(cell)
        assert complex.cofaces_of(cell) == ref_complex.cofaces_of(cell)
    if ref_f is None:
        assert f is None
    else:
        assert list(f.values.items()) == list(ref_f.values.items())
        assert f.field.pairs == ref_f.field.pairs
        assert list(f.field.up) == list(ref_f.field.up)
        assert f.field.critical == ref_f.field.critical
    return expected


VERTEX_TOKENS = st.sampled_from(["0", "1", "2", "3", "-1", "x", "#", ""])
VALUE_TOKENS = st.sampled_from(["0", "1", "2", "3", "0.5", "x", "", "nan", "1e999"])
VALUED_SCX_LIKE = st.lists(
    st.tuples(st.lists(VERTEX_TOKENS, max_size=4), VALUE_TOKENS).map(
        lambda line: " ".join(line[0]) + " : " + line[1]
    ),
    max_size=8,
).map("\n".join)


@st.composite
def valued_complexes(draw):
    """The cells of a small complex in shuffled lines with small integer
    values, some lines maybe dropped: valid functions, violations and
    missing values."""
    cells = sorted(face_closure(draw(st.lists(SMALL_SIMPLEX, min_size=1, max_size=4))))
    lines = [f"{' '.join(map(str, c))} : {draw(st.integers(0, 6))}" for c in cells]
    lines = draw(st.permutations(lines))
    keep = draw(st.integers(max(1, len(lines) - 1), len(lines)))
    return "\n".join(lines[:keep])


@settings(PROPERTY, max_examples=300)
@given(st.one_of(SCX_LIKE, VALUED_SCX_LIKE, valued_complexes()))
def test_parse_scx_agrees_with_the_reference_reader(text):
    assert_parses_like_the_reference(text)


@pytest.mark.parametrize(
    "text, kind, line",
    [
        (" : 3\n", ParseError, 1),  # no vertex
        ("0\n-1 2\n", ParseError, 2),  # negative id
        ("0 : 1\n2 2 : 0\n", ParseError, 2),  # repeated id
        ("0 1\n0\n1 0\n", ParseError, 3),  # duplicate simplex
        ("2 : 2\n0 1 2 : 5\n0 : 0\n1 2 : 3\n", MissingValue, None),  # valued, lacks faces
        ("0 : 0\n1\n0 1 : 1\n", ParseError, None),  # values on some lines only
        ("# only a comment\n\n   # and another\n", ParseError, None),  # no simplices
        ("1 0\n0 2 1\n", None, None),  # bare: the closure is built
        ("0 : 0\n1 : 1\n0 1 : 0.5\n", None, None),  # a valid function
        ("0 : 0\u20281 : 1\n0 1 : 2\n", ParseError, 1),  # a line ends at LF only
        ("0 1\r\n1 # \x1c\u2028\r\n", None, None),  # CRLF; a comment holds anything
        ("0\n1\x1f2\n", ParseError, 2),  # a control character
    ],
)
def test_parse_scx_agrees_with_the_reference_reader_by_hand(text, kind, line):
    expected = assert_parses_like_the_reference(text)
    if kind is None:
        assert not isinstance(expected, Exception)
    else:
        assert type(expected) is kind
        assert getattr(expected, "line", None) == line


def _assert_same_complex(built, checked, ambient):
    # The incidence itself, from plain tuples, so the checked constructor is
    # not its own judge.
    cells = {tuple(c) for c in checked}
    assert list(built) == sorted(cells, key=lambda c: (len(c), c))
    for c in cells:
        faces = sorted(c[:i] + c[i + 1 :] for i in range(len(c))) if len(c) > 1 else []
        cofaces = sorted(t for t in cells if len(t) == len(c) + 1 and set(c) < set(t))
        assert list(built.faces_of(c)) == faces
        assert list(built.cofaces_of(c)) == cofaces
    assert list(built) == list(checked)
    assert all(type(c) is Simplex for c in built)
    assert built.dim == checked.dim
    assert len(built) == len(checked)
    for p in range(-1, checked.dim + 2):
        assert built.cells_of_dim(p) == checked.cells_of_dim(p)
    for c in ambient:
        if c in checked:
            assert built.faces_of(c) == checked.faces_of(c)
            assert built.cofaces_of(c) == checked.cofaces_of(c)
        else:
            with pytest.raises(SimplexNotInComplex):
                built.faces_of(c)
            with pytest.raises(SimplexNotInComplex):
                built.cofaces_of(c)
    assert built == checked
    assert hash(built) == hash(checked)


@PROPERTY
@given(st.lists(SIMPLEX, min_size=1, max_size=5), st.data())
def test_closure_of_agrees_with_the_checked_constructor(simplices, data):
    complex = build_complex(simplices)
    cells = data.draw(st.lists(st.sampled_from(list(complex)), max_size=6))
    _assert_same_complex(
        complex.closure_of(cells), SimplicialComplex(face_closure(cells)), complex
    )


@PROPERTY
@given(st.lists(SIMPLEX, min_size=1, max_size=5))
def test_build_complex_agrees_with_the_checked_constructor(simplices):
    checked = SimplicialComplex(face_closure(simplices))
    _assert_same_complex(build_complex(simplices), checked, checked)


@PROPERTY
@given(SIMPLEX)
def test_faces_are_checked_simplices(vertices):
    faces = Simplex(vertices).faces()
    for face in faces:
        assert type(face) is Simplex
        assert face == Simplex(tuple(face))
    v = tuple(sorted(vertices))
    assert list(faces) == sorted(v[:i] + v[i + 1 :] for i in range(len(v)) if len(v) > 1)


def _chains(dim):
    cells = st.lists(st.integers(0, 5), min_size=dim + 1, max_size=dim + 1, unique=True)
    return st.dictionaries(cells.map(tuple), st.integers(-3, 3), max_size=5).map(
        lambda coeffs: Chain(dim, coeffs)
    )


def _assert_canonical(chain, expected_dim, expected):
    """``chain`` is what the checked constructor makes of ``expected``."""
    assert all(type(s) is Simplex for s in chain.coeffs)
    assert chain == Chain(chain.dim, dict(chain.coeffs))
    assert chain == Chain(expected_dim, expected)


@PROPERTY
@given(st.integers(0, 3).flatmap(lambda d: st.tuples(_chains(d), _chains(d))), st.integers(-3, 3))
def test_chain_arithmetic_agrees_with_the_checked_constructor(pair, k):
    a, b = pair
    dim = max(a.dim, b.dim)
    total, difference = dict(a.coeffs), dict(a.coeffs)
    for s, c in b.coeffs.items():
        total[s] = total.get(s, 0) + c
        difference[s] = difference.get(s, 0) - c
    _assert_canonical(a + b, dim, total)
    _assert_canonical(a - b, dim, difference)
    _assert_canonical(a.scaled(k), a.dim, {s: k * c for s, c in a.coeffs.items()})
    faces = {}
    for s, c in a.coeffs.items():
        for i in range(len(s) if len(s) > 1 else 0):
            face = s[:i] + s[i + 1 :]
            faces[face] = faces.get(face, 0) + (-1) ** i * c
    _assert_canonical(boundary(a), a.dim - 1, faces)
    assert boundary(boundary(a)).is_zero


@PROPERTY
@given(st.lists(SIMPLEX, min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_flow_rows_agree_with_the_chain_algebra(simplices, seed):
    complex = build_complex(simplices)
    operator = FlowOperator(random_morse(complex, seed))
    for cell in complex:
        row = operator.flow_of(cell)
        assert all(type(s) is Simplex for s in row.coeffs)
        assert row == flow_by_chain_algebra(operator, cell)
