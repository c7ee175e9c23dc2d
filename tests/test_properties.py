"""Property tests of the readers, the writer and ``validate``, driven by Hypothesis."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from morseflow import (
    MorseFunction,
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
from morseflow.errors import MorseConditionViolated, MorseflowError

# Derandomized and without an example database, so every run checks the
# same inputs.
PROPERTY = settings(max_examples=100, deadline=None, database=None, derandomize=True)

# Vertex ids stay below 6 so the face closure of a fuzzed line stays small.
TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "4", "5", "-1", "x", ":", "#", "0.5", "1e999", "nan", "-inf", "", "\t"]
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
