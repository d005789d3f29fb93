"""Structured RNG-state serialization (the ``eval()`` removal).

Randomized sketches used to store ``repr(rng.getstate())`` and restore
it with ``eval`` — an arbitrary-code-execution hole for untrusted
blobs.  The state is now packed as serde-native values via
:func:`~repro.core.pack_rng_state` — the 625 Mersenne Twister words as
one ``uint32`` ndarray.  Blobs of the earlier tuple/list form and
legacy repr-strings (via a JSON translation of the tuple literal, no
evaluation) still load.

KLL and REQ draw their compaction coins from a splitmix64 stream whose
whole state is one int, and persist that int.  Their blobs written
before that carry an MT state, which still loads: it seeds the coin
state with its next ``getrandbits(64)`` (the committed v1 fixtures
below pin this).
"""

import os
import random

import numpy as np
import pytest

from repro.core import (
    DeserializationError,
    from_bytes_any,
    pack_rng_state,
    unpack_rng_state,
)
from repro.core.serde import dump_sketch, load_header
from repro.counting import MorrisCounter
from repro.quantiles import KLLSketch, ReqSketch
from repro.sampling import ReservoirSampler, WeightedReservoirSampler


def normalize(value):
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    return value


class TestPackUnpack:
    def test_round_trip_is_exact(self):
        rng = random.Random(1234)
        rng.gauss(0, 1)  # populate gauss_next
        state = rng.getstate()
        assert unpack_rng_state(pack_rng_state(state)) == (
            state[0],
            tuple(state[1]),
            state[2],
        )

    def test_packed_state_is_serde_native(self):
        packed = pack_rng_state(random.Random(7).getstate())
        version, internal, gauss_next = packed
        assert isinstance(version, int)
        assert isinstance(internal, np.ndarray)
        assert internal.ndim == 1 and internal.dtype.kind == "u"
        assert internal.shape == (625,)
        assert int(internal[-1]) <= 624
        assert gauss_next is None or isinstance(gauss_next, float)

    def test_restored_rng_continues_identically(self):
        a = random.Random(99)
        a.random()
        b = random.Random()
        b.setstate(unpack_rng_state(pack_rng_state(a.getstate())))
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_accepts_lists(self):
        state = random.Random(3).getstate()
        as_lists = [state[0], list(state[1]), state[2]]
        assert unpack_rng_state(as_lists) == (state[0], tuple(state[1]), state[2])

    def test_legacy_repr_string(self):
        state = random.Random(42).getstate()
        assert unpack_rng_state(repr(state)) == (state[0], tuple(state[1]), state[2])

    @pytest.mark.parametrize(
        "bad",
        ["not a tuple at all", "os.system('x')", "(1, 2)", (1, 2), None, 7],
    )
    def test_corrupt_states_raise(self, bad):
        with pytest.raises(DeserializationError):
            unpack_rng_state(bad)

    def test_accepts_old_tuple_form(self):
        state = random.Random(11).getstate()
        old = (state[0], tuple(state[1]), state[2])
        assert unpack_rng_state(old) == old


def _packed_words():
    return pack_rng_state(random.Random(7).getstate())[1]


CORRUPT_WORDS = {
    "short": lambda: _packed_words()[:-1],
    "long": lambda: np.concatenate([_packed_words(), _packed_words()[:1]]),
    "float-dtype": lambda: _packed_words().astype(np.float64),
    "signed-dtype": lambda: _packed_words().astype(np.int64),
    "2-d": lambda: _packed_words().reshape(25, 25),
    "position-625": lambda: np.concatenate(
        [_packed_words()[:-1], np.array([625], dtype=np.uint32)]
    ),
}


@pytest.mark.parametrize("corrupt", CORRUPT_WORDS, ids=list(CORRUPT_WORDS))
class TestCorruptArrayState:
    def test_unpack_raises_deserialization_error(self, corrupt):
        with pytest.raises(DeserializationError):
            unpack_rng_state((3, CORRUPT_WORDS[corrupt](), None))

    def test_blob_raises_deserialization_error(self, corrupt):
        state = KLLSketch(k=32, seed=1).state_dict()
        state["rng_state"] = (3, CORRUPT_WORDS[corrupt](), None)
        with pytest.raises(DeserializationError):
            from_bytes_any(dump_sketch("KLLSketch", state))

    @pytest.mark.parametrize("cls", [KLLSketch, ReqSketch], ids=["kll", "req"])
    def test_legacy_coin_state_raises(self, corrupt, cls):
        state = cls(k=32, seed=1).state_dict()
        state["rng_state"] = (3, CORRUPT_WORDS[corrupt](), None)
        with pytest.raises(DeserializationError):
            cls.from_state_dict(state)
        with pytest.raises(DeserializationError):
            from_bytes_any(dump_sketch(cls.__name__, state))


def _mt_triple(seed, version=3):
    state = random.Random(seed).getstate()
    return (version, tuple(state[1]), state[2])


CORRUPT_COIN_STATES = {
    "negative": -1,
    "two-to-64": 1 << 64,
    "huge": 1 << 200,
    "true": True,
    "false": False,
    "float": 0.5,
    "integral-float": 7.0,
    "none": None,
    "bytes": b"\x00" * 8,
    "string": "12345",
    "mt-version-99": _mt_triple(1, version=99),
    "mt-short-tuple": _mt_triple(1)[:2],
    "mt-bad-gauss": (3, _mt_triple(1)[1], "x"),
}


@pytest.mark.parametrize("cls", [KLLSketch, ReqSketch], ids=["kll", "req"])
@pytest.mark.parametrize(
    "corrupt", CORRUPT_COIN_STATES, ids=list(CORRUPT_COIN_STATES)
)
def test_corrupt_coin_state_raises(cls, corrupt):
    """A coin state must be an int in [0, 2**64) or a well-formed MT state."""
    sk = cls(k=16, seed=1)
    sk.update_many(np.arange(100, dtype=np.float64))
    state = sk.state_dict()
    state["rng_state"] = CORRUPT_COIN_STATES[corrupt]
    with pytest.raises(DeserializationError):
        cls.from_state_dict(state)
    with pytest.raises(DeserializationError):
        from_bytes_any(dump_sketch(cls.__name__, state))


@pytest.mark.parametrize("cls", [KLLSketch, ReqSketch], ids=["kll", "req"])
@pytest.mark.parametrize("coins", [0, 1, (1 << 64) - 1])
def test_coin_state_range_edges_load(cls, coins):
    state = cls(k=16, seed=1).state_dict()
    state["rng_state"] = coins
    assert from_bytes_any(dump_sketch(cls.__name__, state))._coins.state == coins


@pytest.mark.parametrize("cls", [KLLSketch, ReqSketch], ids=["kll", "req"])
def test_corrupt_compactor_level_raises(cls):
    sk = cls(k=16, seed=1)
    sk.update_many(np.arange(100, dtype=np.float64))
    state = sk.state_dict()
    state["compactors"][0] = np.zeros((2, 2))
    with pytest.raises(DeserializationError):
        from_bytes_any(dump_sketch(cls.__name__, state))


RNG = np.random.default_rng(5)

SKETCHES = [
    (
        "kll",
        lambda: KLLSketch(k=32, seed=8),
        lambda sk: sk.update_many(RNG.normal(size=2000)),
        lambda sk: sk.update_many(np.linspace(-2.0, 2.0, 200)),
    ),
    (
        "req",
        lambda: ReqSketch(k=8, seed=8),
        lambda sk: sk.update_many(RNG.normal(size=2000)),
        lambda sk: sk.update_many(np.linspace(-2.0, 2.0, 200)),
    ),
    (
        "morris",
        lambda: MorrisCounter(seed=8),
        lambda sk: sk.add(5000),
        lambda sk: sk.update(),
    ),
    (
        "reservoir",
        lambda: ReservoirSampler(k=16, seed=8),
        lambda sk: sk.update_many(range(2000)),
        lambda sk: sk.update(999_999),
    ),
    (
        "weighted-reservoir",
        lambda: WeightedReservoirSampler(k=16, seed=8),
        lambda sk: [sk.update(i, weight=1.0 + i % 7) for i in range(500)],
        lambda sk: sk.update(999_999, weight=2.0),
    ),
]


#: families whose persisted ``rng_state`` is the one-int coin state.
COIN_FAMILIES = {"kll", "req"}


@pytest.mark.parametrize(
    "name,factory,load,poke", SKETCHES, ids=[s[0] for s in SKETCHES]
)
class TestSketchRoundTrips:
    def test_state_dict_round_trip_preserves_rng(self, name, factory, load, poke):
        original = factory()
        load(original)
        clone = type(original).from_state_dict(original.state_dict())
        assert normalize(clone.state_dict()) == normalize(original.state_dict())
        # the restored RNG must continue from the same position
        poke(original)
        poke(clone)
        assert normalize(clone.state_dict()) == normalize(original.state_dict())

    def test_wire_format_round_trip(self, name, factory, load, poke):
        original = factory()
        load(original)
        clone = from_bytes_any(original.to_bytes())
        assert type(clone) is type(original)
        poke(original)
        poke(clone)
        assert normalize(clone.state_dict()) == normalize(original.state_dict())

    def test_no_string_rng_state_in_state_dict(self, name, factory, load, poke):
        sk = factory()
        load(sk)
        assert not isinstance(sk.state_dict()["rng_state"], str)

    def test_old_tuple_list_blob_decodes_bitwise(self, name, factory, load, poke):
        original = factory()
        load(original)
        # the state as the tuple/list encoding wrote it: the 625 words
        # as a tuple of ints, compactor levels as lists of floats.
        old = original.state_dict()
        if "compactors" in old:
            old["compactors"] = [level.tolist() for level in old["compactors"]]
        if name in COIN_FAMILIES:
            old["rng_state"] = _mt_triple(original.seed)
            blob = dump_sketch(type(original).__name__, old)
            _check_legacy_loads(original, lambda: from_bytes_any(blob), poke)
            return
        version, words, gauss_next = old["rng_state"]
        old["rng_state"] = (version, tuple(int(w) for w in words), gauss_next)
        clone = from_bytes_any(dump_sketch(type(original).__name__, old))
        assert normalize(clone.state_dict()) == normalize(original.state_dict())
        assert clone.to_bytes() == original.to_bytes()
        poke(original)
        poke(clone)
        assert normalize(clone.state_dict()) == normalize(original.state_dict())
        assert original._rng.random() == clone._rng.random()

    def test_legacy_string_state_still_loads(self, name, factory, load, poke):
        original = factory()
        load(original)
        state = original.state_dict()
        if name in COIN_FAMILIES:
            state["rng_state"] = repr(random.Random(original.seed).getstate())
            _check_legacy_loads(
                original, lambda: type(original).from_state_dict(dict(state)), poke
            )
            return
        state["rng_state"] = repr(unpack_rng_state(state["rng_state"]))
        clone = type(original).from_state_dict(state)
        poke(original)
        poke(clone)
        assert normalize(clone.state_dict()) == normalize(original.state_dict())


def _check_legacy_loads(original, load_legacy, poke):
    """A KLL/REQ state carrying an MT ``rng_state`` loads deterministically.

    The MT state seeds the coin stream, so the loaded sketch keeps the
    original's parameters and compactors, two loads agree byte for byte
    (also after the same further updates), and the sketch re-encodes
    with an int coin state.
    """
    first, second = load_legacy(), load_legacy()
    for clone in (first, second):
        assert (clone.k, clone.seed, clone.n) == (original.k, original.seed, original.n)
        assert clone._compactors == original._compactors
        assert type(clone.state_dict()["rng_state"]) is int
    assert first.to_bytes() == second.to_bytes()
    poke(first)
    poke(second)
    assert first.n == original.n + 200
    assert first.to_bytes() == second.to_bytes()
    assert type(load_header(first.to_bytes())[1]["rng_state"]) is int


FIXTURES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "fixtures")

#: quantiles of the v1 fixtures at q = 0.01, 0.1, 0.5, 0.9, 0.99, as the
#: code that wrote them (MT coins) answered.  Each fixture is the blob of
#: ``KLLSketch(k=64, seed=19)`` / ``ReqSketch(k=16, seed=19)`` after
#: ``update_many(np.random.default_rng(2023).lognormal(size=3000))``.
V1_FIXTURES = {
    "kll": (KLLSketch, 3000, [
        0.1531161330109911, 0.2886929131391449, 1.0370417955729097,
        4.184959438611263, 15.643067357278372,
    ]),
    "req": (ReqSketch, 3000, [
        0.10119017898667447, 0.2866018318298315, 1.0710826231750985,
        4.573491846017801, 8.821900142077798,
    ]),
}


@pytest.mark.parametrize("name", V1_FIXTURES)
class TestV1Fixtures:
    def _blob(self, name):
        with open(os.path.join(FIXTURES, f"{name}_v1.bin"), "rb") as fh:
            return fh.read()

    def test_decodes_with_recorded_quantiles(self, name):
        cls, n, expected = V1_FIXTURES[name]
        sk = from_bytes_any(self._blob(name))
        assert type(sk) is cls and sk.n == n and sk.seed == 19
        assert [sk.quantile(q) for q in (0.01, 0.1, 0.5, 0.9, 0.99)] == expected

    def test_mt_words_seed_the_coin_state(self, name):
        blob = self._blob(name)
        _, state = load_header(blob)
        mt = random.Random()
        mt.setstate(unpack_rng_state(state["rng_state"]))
        assert from_bytes_any(blob)._coins.state == mt.getrandbits(64)

    def test_reencodes_with_int_coin_state_and_keeps_compacting(self, name):
        sk = from_bytes_any(self._blob(name))
        sk.update_many(np.linspace(0.0, 5.0, 2000))
        again = from_bytes_any(sk.to_bytes())
        assert type(again.state_dict()["rng_state"]) is int
        assert again.to_bytes() == sk.to_bytes()
        assert again.n == 5000
