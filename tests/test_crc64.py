"""crc64 against the pure-Python slice-by-8 loop in oracles.

crc64 runs isqrt(n // 8) lanes of whole words when there are at least two
(32 bytes and up), folds them, and feeds the tail, fewer than 8 bytes per
lane, through the scalar step. The examples sit on those boundaries.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import crc64_reference
from vse.vidx import crc64


def _pattern(n):
    return bytes(i % 251 for i in range(n))


def _agrees(data):
    want = crc64_reference(data)
    assert crc64(data) == want
    assert crc64(memoryview(data)) == want
    # A memoryview that starts off an 8-byte boundary.
    assert crc64(memoryview(b"\0" + data)[1:]) == want


LENGTHS = st.integers(0, 2048)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=2048),
        LENGTHS.map(lambda n: bytes(n)),
        LENGTHS.map(lambda n: b"\xff" * n),
    )
)
# One byte below, at and above the two-lane minimum.
@example(_pattern(31))
@example(_pattern(32))
@example(_pattern(33))
# Four lanes of four words, then tails of 0 to 7 bytes.
@example(_pattern(128))
@example(_pattern(129))
@example(_pattern(130))
@example(_pattern(131))
@example(_pattern(132))
@example(_pattern(133))
@example(_pattern(134))
@example(_pattern(135))
# Tails of 8 * lanes - 1 bytes: 4 lanes (19 words + 7 bytes), 10 lanes.
@example(_pattern(159))
@example(_pattern(879))
@example(b"\xff" * 879)
def test_crc64_matches_reference(data):
    _agrees(data)


def test_crc64_matches_reference_on_megabytes():
    data = np.random.default_rng(5).integers(0, 256, 3_000_007, dtype=np.uint8).tobytes()
    _agrees(data)
