"""Fixed-layout partial codec: layout blobs decode to the generic state.

KLL, REQ and HLL partials are written as tag 11 plus one struct and raw
arrays.  This suite holds the layout to the generic path it replaces:

* a layout blob decodes to the same state dict, bitwise, as the generic
  encoding of the same state, and revives to the same answers;
* a state that does not fit the layout, and every family without one,
  is written generically — byte for byte what the encoder wrote before
  the layout existed (golden bytes and digests below);
* every corruption of a layout blob raises ``DeserializationError``;
* ``blob_nbytes`` equals ``len(dump_sketch(...))`` for every family.
"""

import hashlib
import io
import os
import struct

import numpy as np
import pytest

from repro import from_bytes_any
from repro.cardinality import (
    FlajoletMartin,
    HyperLogLog,
    HyperLogLogPlusPlus,
    KMVSketch,
    LinearCounter,
    LogLog,
)
from repro.core import DeserializationError, sketch_registry
from repro.core.serde import (
    LAYOUTS,
    MAGIC,
    blob_nbytes,
    dump_sketch,
    encode_value,
    load_header,
)
from repro.counting import MorrisCounter, ParallelMorris
from repro.frequency import (
    CountMinSketch,
    CountSketch,
    DyadicCountMin,
    ExactFrequency,
    MisraGries,
    SpaceSaving,
)
from repro.frequency.majority import MajorityVote
from repro.lsh import MinHash
from repro.membership import BloomFilter, CountingBloomFilter
from repro.membership.cuckoo import CuckooFilter
from repro.moments import AMSSketch
from repro.quantiles import (
    GKSketch,
    KLLSketch,
    MRLSketch,
    QDigest,
    ReqSketch,
    ReservoirQuantiles,
    TDigest,
)
from repro.sampling import ReservoirSampler, WeightedReservoirSampler
from repro.sampling.lp_samplers import L0Sampler, LpSampler
from repro.store.segment import _encode_record

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "fixtures")

# name -> (factory, item_fn); item_fn None means a bare update().
CATALOG = {
    "AMSSketch": (lambda: AMSSketch(buckets=8, groups=3, seed=5), int),
    "BloomFilter": (lambda: BloomFilter(m=512, k=3, seed=5), int),
    "CountMinSketch": (lambda: CountMinSketch(width=64, depth=3, seed=5), int),
    "CountSketch": (lambda: CountSketch(width=64, depth=3, seed=5), int),
    "CountingBloomFilter": (lambda: CountingBloomFilter(m=512, k=3, seed=5), int),
    "CuckooFilter": (lambda: CuckooFilter(capacity=256, seed=5), int),
    "DyadicCountMin": (
        lambda: DyadicCountMin(levels=8, width=32, depth=2, seed=5),
        lambda i: i % 256,
    ),
    "ExactFrequency": (lambda: ExactFrequency(), int),
    "FlajoletMartin": (lambda: FlajoletMartin(m=64, seed=5), int),
    "GKSketch": (lambda: GKSketch(epsilon=0.05), float),
    "HyperLogLog": (lambda: HyperLogLog(p=8, seed=5), int),
    "HyperLogLogPlusPlus": (lambda: HyperLogLogPlusPlus(p=8, seed=5), int),
    "KLLSketch": (lambda: KLLSketch(k=16, seed=5), float),
    "KMVSketch": (lambda: KMVSketch(k=64, seed=5), int),
    "L0Sampler": (lambda: L0Sampler(key_bits=16, s=4, seed=5), int),
    "LinearCounter": (lambda: LinearCounter(m=1024, seed=5), int),
    "LogLog": (lambda: LogLog(p=8, seed=5), int),
    "LpSampler": (lambda: LpSampler(key_bits=16, s=4, seed=5), int),
    "MRLSketch": (lambda: MRLSketch(k=16, b=4), float),
    "MajorityVote": (lambda: MajorityVote(), lambda i: i % 3),
    "MinHash": (lambda: MinHash(num_perm=16, seed=5), int),
    "MisraGries": (lambda: MisraGries(k=16), int),
    "MorrisCounter": (lambda: MorrisCounter(seed=5), None),
    "ParallelMorris": (lambda: ParallelMorris(k=4, seed=5), None),
    "QDigest": (lambda: QDigest(k=16, universe_bits=10), lambda i: i % 1024),
    "ReqSketch": (lambda: ReqSketch(k=16, seed=5), float),
    "ReservoirQuantiles": (lambda: ReservoirQuantiles(k=32, seed=5), float),
    "ReservoirSampler": (lambda: ReservoirSampler(k=16, seed=5), int),
    "SpaceSaving": (lambda: SpaceSaving(k=16), int),
    "TDigest": (lambda: TDigest(delta=25), float),
    "WeightedReservoirSampler": (lambda: WeightedReservoirSampler(k=16, seed=5), int),
}

#: sha256 of ``dump_sketch`` over each family's CATALOG state (200
#: updates), captured before the fixed layout existed.  Families with a
#: layout are pinned on their generic encoding in GENERIC_STATE_SHA256.
GOLDEN_BLOB_SHA256 = {
    "AMSSketch": "c195b8464c92a52418f2092c6342f1caad724f0b7174cf8ebe7d406e47aac6a7",
    "BloomFilter": "334c0c5c152415371d05f34947c27dc974d02668781cc7ca7791a5eb86946e0f",
    "CountMinSketch": "0fe397d93a125a91510835d380d6bd7ed458fe662d1d745387238c5a27f2a846",
    "CountSketch": "784c12e4c58333c1453f82f391cda9912ec3abfb8c8cd22e3dcde963a29362bd",
    "CountingBloomFilter": "f83904519f3df22fbacfa676231579ce72bff665b6d9f011fbf48f98c9770a4b",
    "CuckooFilter": "ae52d3e0be656e9d5b435b4406f8aabf19b241f84f0a2f27af062d546b102cb8",
    "DyadicCountMin": "cb0f5d37f662edd369cadc9cb531a1dad53976fc639ebacf839f25940a917f0c",
    "ExactFrequency": "01fc1cf10ab8857a7214d5f5dcddad3fb6ba40bb2ef7902c6833589fd329f60d",
    "FlajoletMartin": "bec3180137d6174be87da58ce57f9c9066d4ca5cb2e64949cca57ec616fa055e",
    "GKSketch": "21e6adf40717a0cd041edeac01f592cefb31d77db0e1734144e6c5d7d35c4ff5",
    "HyperLogLogPlusPlus": "914500feffb6cde0dd27eb90772d788ddca7b56dcaccfd0c534e21a6761ef829",
    "KMVSketch": "716dc63acbf5bf18e0b6f4ea4b509e5e0853253b41437a0aa45ba06a7c849dba",
    "L0Sampler": "f2c1badd808ffd8aa78bbc425605d77461c9d649b62855bc2fdb3d6bdd57a5a3",
    "LinearCounter": "55480ad786b7883337dbbb5a85d5526f11f0c7132e39f0a1e4b85bd1ed52640b",
    "LogLog": "6fb6bd0b2b82754b380e9bd2c19dbb79b5c92d31df3fe113d2945467430d9189",
    "LpSampler": "72cf686b0875f36f47cbb02915ad2a36c7d1adb8c3c3148cdb90c79285184291",
    "MRLSketch": "f7909743ffc79b2a758242d5e42b7cd471be57b56eee2e791655a5e6f46e37e5",
    "MajorityVote": "5683cbe2ac07b508be227e0504c116ec124d308606e9e9b1dacda5f04d30cd31",
    "MinHash": "b28aea7868d8311795bf9ce2fd8d8819037d97ca64d14928208874af453f088e",
    "MisraGries": "048003ec05ad9160e933de5d00a05cee8f8f6fafff74f749cd9351d483081c26",
    "MorrisCounter": "ef220cb7db4febc74b86f5a11b6bd97ed796a686f0ab52f0f6df49cc281b0d27",
    "ParallelMorris": "5be859d852e965d09dcd7ed217cc3864d099f6ead0f55a75679a1e36503ec319",
    "QDigest": "902190553fee88f6b8b43b69883ae36b8388228fcc65fcb1b51ab1c50db2c4c9",
    "ReservoirQuantiles": "ad3d2f5e5d8d43cbedece875c70431bb389fe64fcea15a6219adaf2d88583493",
    "ReservoirSampler": "3b2a4eb1af0867fb95261ad29222cab4441ecde0c5e1fde57dbc6e386ad882dd",
    "SpaceSaving": "f2bd92ff06dcf0e48682f744a99f9cf7e71adcaf1099f797e745d8ed971bf055",
    "TDigest": "fe5f84a3db47dee8bf516e4bebbba4932565ee70b332f71916c06ea5d5b5e378",
    "WeightedReservoirSampler": "146f7c3a771581d1c893ff8679cd9ddf67612b6456babcb5aed06ad078202e14",
}

#: sha256 of ``encode_value(state)`` for the layout families' CATALOG states.
GENERIC_STATE_SHA256 = {
    "HyperLogLog": "924f1c0c0d2201340f22536669ca0c049c34f5087dd63808b23546a2305f0f68",
    "KLLSketch": "5c9094e7e2342dcabd5f4fcbadfb646b285b845de15a6398974a07d19f21cf44",
    "ReqSketch": "c69b3440909eb7cd90e850cf82d0e70204b6d9ba8ba0fc56552b898e64f1e8fe",
}

#: a window record as the store writes it; its bytes are record_v1.bin.
RECORD = {
    "start": 1000.0,
    "end": 1001.0,
    "series": [
        {"name": "reqs", "labels": {"route": "/a", "code": "200"}, "kind": "counter",
         "value": 5.0},
        {"name": "temp", "labels": {}, "kind": "gauge", "value": -2.5},
        {"name": "lat", "labels": {"route": "/a"}, "kind": "histogram",
         "blob": bytes(range(24))},
    ],
}

#: every generic type and subclass path; its bytes are value_v1.bin.
VALUE = {
    "none": None, "t": True, "f": False, "ints": [0, -1, 255, 1 << 70, -(1 << 70)],
    "np_scalars": (np.int64(-7), np.float64(0.25), np.uint8(3)),
    "text": "héllo", "raw": bytearray(b"\x00\xff"),
    "arrays": [np.arange(5, dtype=np.int64), np.zeros((2, 3), dtype=np.float32),
               np.array([], dtype=np.uint8), np.array([1.5, -0.0])],
    "nested": {"a": [1, (2.5, b"b")], "b": {}},
}

LAYOUT_FAMILIES = ("KLLSketch", "ReqSketch", "HyperLogLog")


def filled(name, n=200):
    factory, item_fn = CATALOG[name]
    sketch = factory()
    for i in range(n):
        if item_fn is None:
            sketch.update()
        else:
            sketch.update(item_fn(i))
    return sketch


def header(name):
    out = io.BytesIO()
    out.write(MAGIC + struct.pack("<H", 1))
    encode_value(name, out)
    return out.getvalue()


def generic_blob(name, state):
    """The blob the generic path writes (what every reader wrote before the layout)."""
    out = io.BytesIO()
    out.write(header(name))
    encode_value(state, out)
    return out.getvalue()


def payload_tag(name, blob):
    return blob[len(header(name))]


def assert_same_state(a, b):
    """Equal keys in equal order; ints are ints; arrays equal bitwise."""
    assert list(a) == list(b)
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, list):
            assert isinstance(y, list) and len(x) == len(y)
            pairs = zip(x, y)
        else:
            pairs = [(x, y)]
        for u, v in pairs:
            assert type(u) is type(v), key
            if isinstance(u, np.ndarray):
                assert u.dtype == v.dtype and u.shape == v.shape
                assert u.tobytes() == v.tobytes()
                assert u.flags.writeable and v.flags.writeable
            else:
                assert u == v


def kll_family(cls, k, n, seed=3):
    sketch = cls(k=k, seed=seed)
    sketch.update_many(np.random.default_rng(seed).normal(size=n))
    return sketch


def hll(p, n=5000, seed=3):
    sketch = HyperLogLog(p=p, seed=seed)
    sketch.update_many(np.arange(n, dtype=np.int64))
    return sketch


LAYOUT_CASES = {
    "kll-empty": lambda: KLLSketch(k=200, seed=1),
    "kll-one-level": lambda: kll_family(KLLSketch, 200, 150),
    "kll-window": lambda: kll_family(KLLSketch, 200, 250),
    "kll-12-levels": lambda: kll_family(KLLSketch, 8, 20_000),
    "kll-15-levels": lambda: kll_family(KLLSketch, 8, 100_000),
    "req": lambda: kll_family(ReqSketch, 16, 3000),
    "req-empty": lambda: ReqSketch(k=16, seed=1),
    **{f"hll-p{p}": (lambda p=p: hll(p)) for p in range(4, 17)},
    "hll-empty": lambda: HyperLogLog(p=10, seed=0),
    "hll-negative-seed": lambda: hll(10, seed=-(1 << 63)),
}


class TestLayoutEqualsGeneric:
    def test_layouts_are_keyed_by_exact_class(self):
        assert set(LAYOUTS) == set(LAYOUT_FAMILIES)
        assert "HyperLogLogPlusPlus" not in LAYOUTS
        assert "wire_layout" not in vars(HyperLogLogPlusPlus)

    @pytest.mark.parametrize("case", LAYOUT_CASES)
    def test_decoded_state_and_answers_equal_generic(self, case):
        sketch = LAYOUT_CASES[case]()
        name, state = type(sketch).__name__, sketch.state_dict()
        blob, generic = dump_sketch(name, state), generic_blob(name, state)
        assert payload_tag(name, blob) == 11
        assert len(blob) < len(generic)
        assert load_header(blob)[0] == name
        assert_same_state(load_header(blob)[1], load_header(generic)[1])
        via_layout, via_generic = from_bytes_any(blob), from_bytes_any(generic)
        assert_same_state(via_layout.state_dict(), via_generic.state_dict())
        assert via_layout.to_bytes() == blob
        if isinstance(sketch, HyperLogLog):
            assert via_layout.estimate() == via_generic.estimate() == sketch.estimate()
        elif sketch.n:
            qs = (0.0, 0.01, 0.5, 0.99, 1.0)
            expected = [sketch.quantile(q) for q in qs]
            assert [via_layout.quantile(q) for q in qs] == expected
            assert [via_generic.quantile(q) for q in qs] == expected

    def test_level_counts_cover_the_cases(self):
        assert len(LAYOUT_CASES["kll-one-level"]().state_dict()["compactors"]) == 1
        assert len(LAYOUT_CASES["kll-12-levels"]().state_dict()["compactors"]) >= 12

    def test_kll_footprint_is_the_layout_blob(self):
        for case in ("kll-empty", "kll-window", "kll-15-levels", "req"):
            sketch = LAYOUT_CASES[case]()
            assert sketch.memory_footprint() == len(sketch.to_bytes())


def _kll_state():
    return kll_family(KLLSketch, 16, 500).state_dict()


MISFITS = {
    "seed-2**63": lambda s: s.update(seed=1 << 63),
    "seed-below-int64": lambda s: s.update(seed=-(1 << 63) - 1),
    "k-bool": lambda s: s.update(k=True),
    "n-numpy-int": lambda s: s.update(n=np.int64(s["n"])),
    "rng-mt-tuple": lambda s: s.update(rng_state=(3, np.zeros(625, np.uint32), None)),
    "missing-key": lambda s: s.pop("rng_state"),
    "extra-key": lambda s: s.update(extra=1),
    "float32-level": lambda s: s["compactors"].__setitem__(
        0, s["compactors"][0].astype(np.float32)),
    "2-d-level": lambda s: s["compactors"].__setitem__(0, np.zeros((2, 2))),
    "big-endian-level": lambda s: s["compactors"].__setitem__(
        0, s["compactors"][0].astype(">f8")),
    "tuple-of-levels": lambda s: s.update(compactors=tuple(s["compactors"])),
    "list-level": lambda s: s["compactors"].__setitem__(0, [1.0, 2.0]),
}


class TestMisfitsTakeTheGenericPath:
    @pytest.mark.parametrize("misfit", MISFITS)
    def test_kll_state_that_does_not_fit(self, misfit):
        state = _kll_state()
        MISFITS[misfit](state)
        blob = dump_sketch("KLLSketch", state)
        assert blob == generic_blob("KLLSketch", state)
        assert blob_nbytes("KLLSketch", state) == len(blob)

    def test_kll_seed_2_63_round_trips(self):
        sketch = kll_family(KLLSketch, 16, 500, seed=(1 << 63) + 5)
        blob = sketch.to_bytes()
        assert payload_tag("KLLSketch", blob) == 8  # a generic dict
        again = from_bytes_any(blob)
        assert again.seed == (1 << 63) + 5
        assert_same_state(again.state_dict(), sketch.state_dict())

    @pytest.mark.parametrize("seed", [1 << 63, -(1 << 63) - 1, 1 << 80])
    def test_hll_seed_outside_int64_round_trips(self, seed):
        sketch = hll(8, seed=seed)
        blob = sketch.to_bytes()
        assert payload_tag("HyperLogLog", blob) == 8
        assert_same_state(from_bytes_any(blob).state_dict(), sketch.state_dict())

    def test_hll_registers_of_another_dtype(self):
        state = hll(6).state_dict()
        state["registers"] = state["registers"].astype(np.int8)
        assert dump_sketch("HyperLogLog", state) == generic_blob("HyperLogLog", state)

    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_hll_plus_plus_stays_generic(self, sparse):
        sketch = HyperLogLogPlusPlus(p=8, seed=5)
        sketch.update_many(np.arange(10 if sparse else 5000, dtype=np.int64))
        assert sketch.is_sparse is sparse
        state = sketch.state_dict()
        blob = sketch.to_bytes()
        assert blob == generic_blob("HyperLogLogPlusPlus", state)
        again = from_bytes_any(blob)
        assert again.is_sparse is sparse
        assert_same_state(again.state_dict(), state)
        assert again.estimate() == sketch.estimate()


def _layout_blobs():
    return {
        "kll": LAYOUT_CASES["kll-window"]().to_bytes(),
        "req": LAYOUT_CASES["req"]().to_bytes(),
        "hll": LAYOUT_CASES["hll-p6"]().to_bytes(),
    }


BLOBS = _layout_blobs()
NAMES = {"kll": "KLLSketch", "req": "ReqSketch", "hll": "HyperLogLog"}


def _struct_end(family):
    name = NAMES[family]
    return len(header(name)) + 1 + LAYOUTS[name].struct.size


@pytest.mark.parametrize("family", BLOBS)
class TestCorruptLayoutBlobs:
    def test_every_truncation_point_raises(self, family):
        blob = BLOBS[family]
        for cut in range(len(blob)):
            with pytest.raises(DeserializationError):
                load_header(blob[:cut])
            with pytest.raises(DeserializationError):
                from_bytes_any(blob[:cut])

    def test_length_table_claiming_more_bytes_than_remain(self, family):
        blob = bytearray(BLOBS[family])
        first = _struct_end(family) + 4
        (length,) = struct.unpack_from("<I", blob, first)
        struct.pack_into("<I", blob, first, length + 1)
        with pytest.raises(DeserializationError, match="length table"):
            load_header(bytes(blob))

    def test_trailing_bytes(self, family):
        with pytest.raises(DeserializationError, match="length table"):
            load_header(BLOBS[family] + b"\x00")

    @pytest.mark.parametrize("count", [2**31, 2**32 - 1])
    def test_absurd_array_count(self, family, count):
        blob = bytearray(BLOBS[family])
        struct.pack_into("<I", blob, _struct_end(family), count)
        with pytest.raises(DeserializationError):
            load_header(bytes(blob))

    def test_every_single_byte_flip_raises_or_decodes(self, family):
        blob = BLOBS[family]
        for i in range(len(blob)):
            corrupt = bytearray(blob)
            corrupt[i] ^= 0xFF
            try:
                from_bytes_any(bytes(corrupt))
            except DeserializationError:
                pass


def test_hll_layout_rejects_more_than_one_array():
    blob = bytearray(BLOBS["hll"])
    struct.pack_into("<I", blob, _struct_end("hll"), 2)
    with pytest.raises(DeserializationError, match="arrays"):
        load_header(bytes(blob))


@pytest.mark.parametrize("name", ["TDigest", "HyperLogLogPlusPlus", "NoSuchSketch"])
def test_tag_11_under_a_class_without_layout(name):
    body = BLOBS["hll"][len(header("HyperLogLog")):]
    assert body[0] == 11
    with pytest.raises(DeserializationError, match="no fixed layout"):
        load_header(header(name) + body)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_generic_blob_with_trailing_bytes_raises(name):
    blob = generic_blob(name, filled(name).state_dict())
    assert type(from_bytes_any(blob)).__name__ == name
    with pytest.raises(DeserializationError, match="trailing"):
        from_bytes_any(blob + b"junk")
    with pytest.raises(DeserializationError, match="trailing"):
        load_header(blob + b"\x00")


def test_count_min_blob_with_junk_appended_raises():
    blob = CountMinSketch(width=8, depth=2).to_bytes()
    with pytest.raises(DeserializationError, match="4 trailing bytes"):
        from_bytes_any(blob + b"junk")


@pytest.mark.parametrize(
    "name,path",
    [("HyperLogLog", "generic"), ("HyperLogLog", "layout"), ("HyperLogLogPlusPlus", "generic")],
)
def test_hll_register_count_must_be_two_to_the_p(name, path):
    def blob(registers):
        state = {"p": 10, "seed": 0, "registers": registers}
        out = generic_blob(name, state) if path == "generic" else dump_sketch(name, state)
        assert (payload_tag(name, out) == 11) == (path == "layout")
        return out

    assert from_bytes_any(blob(np.full(1024, 3, dtype=np.uint8))).m == 1024
    for count in (0, 16, 1023, 1025, 2048):
        with pytest.raises(DeserializationError, match="registers"):
            from_bytes_any(blob(np.full(count, 3, dtype=np.uint8)))


#: (family, params, array key, a well-shaped array, wrong shapes) for the
#: families whose state carries one array sized by its parameters.
SHAPED_ARRAYS = [
    ("LogLog", {"p": 10, "seed": 0}, "registers",
     np.full(1024, 3, dtype=np.uint8), [(0,), (16,), (1023,), (1025,), (2, 512)]),
    ("FlajoletMartin", {"m": 64, "seed": 0}, "bitmaps",
     np.full(64, 7, dtype=np.int64), [(0,), (16,), (63,), (65,), (8, 8)]),
    ("CountMinSketch",
     {"width": 64, "depth": 3, "conservative": False, "seed": 0, "n": 0}, "table",
     np.zeros((3, 64), dtype=np.int64), [(192,), (16,), (64, 3), (3, 63), (4, 64)]),
]


@pytest.mark.parametrize(
    "name,params,key,array,wrong", SHAPED_ARRAYS, ids=[case[0] for case in SHAPED_ARRAYS]
)
def test_array_shape_must_match_the_parameters(name, params, key, array, wrong):
    def blob(values):
        out = generic_blob(name, {**params, key: values})
        assert payload_tag(name, out) != 11
        return out

    sketch = from_bytes_any(blob(array))
    assert type(sketch).__name__ == name
    assert sketch.state_dict()[key].shape == array.shape
    for shape in wrong:
        with pytest.raises(DeserializationError, match=key):
            from_bytes_any(blob(np.zeros(shape, dtype=array.dtype)))


def test_strided_array_packs_like_its_copy():
    state = hll(10).state_dict()
    strided = np.repeat(state["registers"], 2)[::2]
    assert not strided.flags.c_contiguous
    assert dump_sketch("HyperLogLog", {**state, "registers": strided}) == dump_sketch(
        "HyperLogLog", state
    )


class TestGenericBytesUnchanged:
    def test_window_record_matches_golden_bytes(self):
        with open(os.path.join(FIXTURES, "record_v1.bin"), "rb") as fh:
            assert _encode_record(RECORD) == fh.read()

    def test_every_value_type_matches_golden_bytes(self):
        out = io.BytesIO()
        encode_value(VALUE, out)
        with open(os.path.join(FIXTURES, "value_v1.bin"), "rb") as fh:
            assert out.getvalue() == fh.read()

    @pytest.mark.parametrize("name", sorted(GOLDEN_BLOB_SHA256))
    def test_family_without_layout_matches_golden_digest(self, name):
        blob = dump_sketch(name, filled(name).state_dict())
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_BLOB_SHA256[name]

    @pytest.mark.parametrize("name", sorted(GENERIC_STATE_SHA256))
    def test_layout_family_generic_encoding_matches_golden_digest(self, name):
        out = io.BytesIO()
        encode_value(filled(name).state_dict(), out)
        assert hashlib.sha256(out.getvalue()).hexdigest() == GENERIC_STATE_SHA256[name]

    def test_catalog_covers_every_shipped_family(self):
        shipped = {
            name for name, cls in sketch_registry.items()
            if cls.__module__.startswith("repro.")
        }
        assert shipped <= set(CATALOG)
        assert set(CATALOG) == set(GOLDEN_BLOB_SHA256) | set(LAYOUT_FAMILIES)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_blob_nbytes_equals_blob_length(name):
    state = filled(name).state_dict()
    assert blob_nbytes(name, state) == len(dump_sketch(name, state))
