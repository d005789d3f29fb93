"""Structured RNG-state serialization (the ``eval()`` removal).

Randomized sketches used to store ``repr(rng.getstate())`` and restore
it with ``eval`` — an arbitrary-code-execution hole for untrusted
blobs.  The state is now packed as serde-native values via
:func:`~repro.core.pack_rng_state` — the 625 Mersenne Twister words as
one ``uint32`` ndarray.  Blobs of the earlier tuple/list form and
legacy repr-strings (via a JSON translation of the tuple literal, no
evaluation) still load.
"""

import random

import numpy as np
import pytest

from repro.core import (
    DeserializationError,
    from_bytes_any,
    pack_rng_state,
    unpack_rng_state,
)
from repro.core.serde import dump_sketch
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
        version, words, gauss_next = old["rng_state"]
        old["rng_state"] = (version, tuple(int(w) for w in words), gauss_next)
        if "compactors" in old:
            old["compactors"] = [level.tolist() for level in old["compactors"]]
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
        state["rng_state"] = repr(unpack_rng_state(state["rng_state"]))
        clone = type(original).from_state_dict(state)
        poke(original)
        poke(clone)
        assert normalize(clone.state_dict()) == normalize(original.state_dict())
