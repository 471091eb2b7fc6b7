"""The package's generator against numpy's default_rng, its oracle.

Every stochastic output of the package is drawn from `_streams.Generator`,
so these tests pin its streams to the ones `np.random.default_rng` gives for
the same entropy, bit for bit.
"""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attenattack import _streams
from attenattack._streams import Generator

# a uint64 seed below 2**32 is one word of entropy, a larger one two
UINT64_SEEDS = st.integers(0, 2**32 - 1) | st.integers(0, 2**64 - 1)
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
ENTROPIES = (
    UINT64_SEEDS  # a specimen's trial seed
    # a VDMC dip's: the seed, its point's key in milli-dB and a tag
    | st.tuples(UINT64_SEEDS, st.integers(0, 80000), st.just(0x5D)).map(list)
    # a master seed of 5 or 6 words, more than the pool holds
    | st.integers(2**128, 2**192 - 1)
)
DRAWS = [("random", ()), ("uniform", (-1.0, 1.0)), ("normal", (-5.34, 2.5)),
         ("uniform", (0.1, 0.3)), ("random", ()), ("normal", (1.37, 0.15))]


def pcg_state(rng: np.random.Generator) -> tuple[int, int]:
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


def assert_same_draws(ours: Generator, reference: np.random.Generator) -> None:
    for draw, args in DRAWS:
        assert getattr(ours, draw)(*args) == getattr(reference, draw)(*args), draw
    assert (ours.state, ours.inc) == pcg_state(reference)


@example(entropies=EDGE_SEEDS)
@example(entropies=[[seed, 0, 0x5D] for seed in EDGE_SEEDS])
@example(entropies=[[seed, 80000, 0x5D] for seed in EDGE_SEEDS])
@example(entropies=[2**128, 2**160 - 1, 2**160, 2**192 - 1])
@settings(max_examples=300, deadline=None)
@given(entropies=st.lists(ENTROPIES, min_size=1, max_size=6))
def test_streams_are_default_rngs(entropies):
    for entropy in entropies:
        ours, reference = Generator(entropy), np.random.default_rng(entropy)
        assert (ours.state, ours.inc) == pcg_state(reference)
        assert_same_draws(ours, reference)


# an entropy of at most four uint32 words, which a block of them hashes in lanes
SHORT_ENTROPIES = (
    st.integers(0, 2**128 - 1)
    | st.lists(st.integers(0, 2**32 - 1) | st.sampled_from([0, 2**32 - 1]), min_size=1, max_size=4)
    | st.tuples(st.integers(2**32, 2**64 - 1), st.integers(0, 2**64 - 1)).map(list)
    | st.tuples(UINT64_SEEDS, st.integers(0, 80000), st.just(0x5D)).map(list)
)


@example(entropies=[0, 2**64 - 1, [0], [2**64 - 1, 0], [1, 2, 3, 4], 2**128 - 1, [0, 0, 0x5D]])
@settings(max_examples=100, deadline=None)
@given(entropies=st.lists(SHORT_ENTROPIES, min_size=1, max_size=40))
def test_a_block_seeds_each_entropy_as_default_rng_does(entropies):
    for entropy, ours in zip(entropies, Generator.seeded(entropies), strict=True):
        reference = np.random.default_rng(entropy)
        alone = Generator(entropy)  # a block of one
        assert (ours.state, ours.inc) == (alone.state, alone.inc) == pcg_state(reference)
        assert_same_draws(ours, reference)


def test_a_longer_entropy_is_hashed_alone():
    (ours,) = Generator.seeded([2**200])
    assert (ours.state, ours.inc) == pcg_state(np.random.default_rng(2**200))
    with pytest.raises(ValueError, match="more than four words"):
        Generator.seeded([1, 2**200])


@example(entropy=2**200, start=0, count=20)
@settings(max_examples=200, deadline=None)
@given(
    entropy=ENTROPIES | st.integers(0, 2**256),
    start=st.integers(0, 600),
    count=st.integers(1, 40),
)
def test_state_words_from_an_offset_are_generate_states_tail(entropy, start, count):
    expected = np.random.SeedSequence(entropy).generate_state(start + count, np.uint64)
    assert _streams.state_words(entropy, start, count) == expected[start:].tolist()


def test_negative_entropy_is_rejected_like_numpy():
    for entropy in (-1, [3, -1]):
        with pytest.raises(ValueError):
            np.random.default_rng(entropy)
        with pytest.raises(ValueError):
            Generator(entropy)


def test_long_normal_stream_is_numpys():
    # about 0.7% of draws take the wedge path and 0.03% the tail
    ours, reference = Generator(7), np.random.default_rng(7)
    assert [ours.standard_normal() for _ in range(50_000)] == reference.standard_normal(
        50_000
    ).tolist()
    assert (ours.state, ours.inc) == pcg_state(reference)


# --- ziggurat paths ------------------------------------------------------------

MULT_INVERSE = pow(_streams._PCG64_MULT, -1, 2**128)
INC = 2 * 0x0123456789ABCDEF0123456789ABCDEF + 1


def crafted(word: int) -> int:
    """The PCG64 state, at increment INC, whose next output is `word`: the
    stepped state has rotation 0, its top 6 bits clear, so its output is
    its high half XOR its low half."""
    hi = 0x00F0E1D2C3B4A596
    return (((hi << 64 | hi ^ word) - INC) * MULT_INVERSE) % 2**128


def normal_word(idx: int, sign: int, rabs: int) -> int:
    """The uint64 from which the ziggurat takes layer idx, sign and rabs."""
    return idx | sign << 8 | rabs << 9


def at_state(state: int) -> tuple[Generator, np.random.Generator]:
    ours = Generator(0)
    ours.state, ours.inc = state, INC
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": INC},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return ours, np.random.Generator(bit_generator)


@pytest.mark.parametrize("sign", [0, 1])
def test_crafted_words_take_each_ziggurat_path(sign):
    for idx in range(256):
        ki = _streams._KI[idx]
        # below ki, numpy's draw takes one word: rabs * wi[idx]; from ki on,
        # it takes more, in the wedge for idx > 0 and beyond r for idx 0
        for rabs, one_word in ((1, ki > 1), (ki - 1, True), (ki, False), (2**52 - 1, False)):
            if rabs < 0:
                continue  # idx 1: every draw takes the wedge
            state = crafted(normal_word(idx, sign, rabs))
            ours, reference = at_state(state)
            assert ours.standard_normal() == reference.standard_normal()
            assert (ours.state, ours.inc) == pcg_state(reference)
            stepped = (state * _streams._PCG64_MULT + INC) % 2**128
            assert (ours.state == stepped) is one_word, (idx, rabs)
            assert_same_draws(ours, reference)


def test_tables_are_numpys():
    # wi, fi and ki lie in numpy's Generator extension as native doubles and
    # uint64s; ki is derived here from wi alone
    data = Path(np.random._generator.__file__).read_bytes()
    assert struct.pack("=256d", *_streams._WI) in data
    assert struct.pack("=256d", *_streams._FI) in data
    assert struct.pack("=256Q", *_streams._KI) in data
    assert _streams._FI[0] == 1.0
