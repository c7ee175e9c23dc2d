"""Property tests of the ``.scx`` reader and writer, driven by Hypothesis."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from morseflow import build_complex, emit_scx, parse_scx, random_morse, validate
from morseflow.errors import MorseflowError

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
