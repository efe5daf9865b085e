"""Hypothesis strategies for fuzzing the loaders of JSON documents."""

import json

from hypothesis import strategies as st

#: Any JSON value: wrong types, NaN and infinities, integers past float range.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=16),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


@st.composite
def json_documents(draw, payloads, nest_key):
    """Document texts around ``payloads``: valid, truncated, nesting the
    value of ``nest_key`` around and past the decoder's recursion limit, or
    arbitrary text (without NUL or lone surrogates, so it fits in an
    environment variable)."""
    encoded = json.dumps(draw(payloads | JSON_VALUES))
    kind = draw(st.sampled_from(["json", "truncated", "nested", "text"]))
    if kind == "truncated":
        return encoded[: draw(st.integers(0, max(len(encoded) - 1, 0)))]
    if kind == "nested":
        depth = draw(st.sampled_from([1, 100, 999, 1001, 5000, 100_000]))
        return f'{{"{nest_key}": ' + "[" * depth + "]" * depth + "}"
    if kind == "text":
        characters = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
        return draw(st.text(characters, max_size=64))
    return encoded
