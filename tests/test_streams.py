"""Batched stream seeds equal numpy's own seeding of each key, ``default_rng`` of its words (``seeded_rng``)."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from edgewatch.streams import reseed, stream_seeds

from reference_impls import seeded_rng

SCALARS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64]) | st.integers(0, 2**100)


def words(part) -> int:
    """The key words a part adds: one for an array, an int's 32-bit words otherwise."""
    return 1 if part == "array" else max(1, -(-part.bit_length() // 32))


@st.composite
def keys(draw):
    """(parts, the key of each row): each "array" part becomes an array of n 32-bit words."""
    n = draw(st.sampled_from([0, 1, 40]))
    shape = draw(st.lists(SCALARS | st.just("array"), min_size=1, max_size=7).filter(
        lambda parts: sum(map(words, parts)) <= 7))
    word = st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1)
    parts = [np.array(draw(st.lists(word, min_size=n, max_size=n)), np.int64) if p == "array" else p for p in shape]
    n_rows = n if "array" in shape else 1
    return parts, [[int(p[k]) if isinstance(p, np.ndarray) else p for p in parts] for k in range(n_rows)]


@given(keys())
@example(([2**100, 3, np.array([0, 2**32 - 1]), 7], [[2**100, 3, 0, 7], [2**100, 3, 2**32 - 1, 7]]))  # 7 words
@example(([5, np.array([], np.int64)], []))
@example(([2**64 - 1], [[2**64 - 1]]))
def test_states_equal_default_rng_of_each_key(case):
    parts, rows = case
    seeds = stream_seeds(*parts)
    assert seeds.shape == (len(rows), 4) and seeds.dtype == np.uint64
    generator = np.random.Generator(np.random.PCG64(0))
    for seed, key in zip(seeds, rows):
        assert reseed(generator, seed).bit_generator.state == seeded_rng(*key).bit_generator.state


@pytest.mark.parametrize("key", [(-1,), (0, -1), (2**40, 3, -(2**40))])
def test_negative_value_raises(key):
    with pytest.raises(ValueError, match="non-negative"):
        stream_seeds(*key)


def test_reseed_drops_a_buffered_half():
    # An odd number of 32-bit draws leaves half of PCG64's last 64-bit output buffered.
    generator = np.random.Generator(np.random.PCG64(0))
    generator.integers(0, 10, 3, dtype=np.int32)
    assert generator.bit_generator.state["has_uint32"] == 1
    key = [2**33 + 5, 3, 1, 4, 1]
    reseed(generator, stream_seeds(*key)[0])
    fresh = seeded_rng(*key)
    for draw in (
        lambda g: g.random(3, dtype=np.float32),  # 32-bit draws: a kept half would come first
        lambda g: g.random(5),
        lambda g: g.standard_normal((2, 3)),
        lambda g: g.lognormal(1.0, 0.5, 4),
        lambda g: g.integers(0, 1_000_000, 3),
        lambda g: g.multinomial(100, [0.2, 0.3, 0.5]),
        lambda g: g.exponential(1.0, 4),
    ):
        assert draw(generator).tobytes() == draw(fresh).tobytes()
    assert generator.bit_generator.state == fresh.bit_generator.state
