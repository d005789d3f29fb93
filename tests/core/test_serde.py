"""Round-trip and corruption tests for the binary serialization layer."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import DeserializationError, dump_sketch, load_header
from repro.core.serde import decode_value, encode_value

json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(),
        st.binary(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def roundtrip(value):
    out = io.BytesIO()
    encode_value(value, out)
    return decode_value(io.BytesIO(out.getvalue()))


class TestEncodeDecode:
    @given(json_like)
    def test_roundtrip_json_like(self, value):
        assert roundtrip(value) == value

    def test_roundtrip_big_ints(self):
        for x in (0, -1, 1 << 200, -(1 << 200), 2**61 - 1):
            assert roundtrip(x) == x

    def test_roundtrip_tuple_preserves_type(self):
        assert roundtrip((1, "a")) == (1, "a")
        assert isinstance(roundtrip((1,)), tuple)
        assert isinstance(roundtrip([1]), list)

    @pytest.mark.parametrize(
        "dtype", ["uint8", "int32", "int64", "uint64", "float32", "float64"]
    )
    def test_roundtrip_ndarray_dtypes(self, dtype):
        arr = np.arange(24, dtype=dtype).reshape(2, 3, 4)
        out = roundtrip(arr)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_roundtrip_empty_array(self):
        arr = np.zeros((0, 5), dtype=np.float64)
        out = roundtrip(arr)
        assert out.shape == (0, 5)

    def test_numpy_scalars_coerced(self):
        assert roundtrip(np.int64(7)) == 7
        assert roundtrip(np.float64(2.5)) == 2.5

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(TypeError):
            roundtrip({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            roundtrip(object())


class TestHeader:
    def test_roundtrip(self):
        blob = dump_sketch("FooSketch", {"a": 1, "arr": np.ones(3)})
        name, state = load_header(blob)
        assert name == "FooSketch"
        assert state["a"] == 1
        assert np.array_equal(state["arr"], np.ones(3))

    def test_bad_magic(self):
        with pytest.raises(DeserializationError):
            load_header(b"XXXX" + b"\x00" * 20)

    def test_truncated(self):
        blob = dump_sketch("S", {"a": 1})
        with pytest.raises(DeserializationError):
            load_header(blob[: len(blob) // 2])

    def test_bad_version(self):
        blob = bytearray(dump_sketch("S", {}))
        blob[4] = 0xFF  # clobber version
        with pytest.raises(DeserializationError):
            load_header(bytes(blob))

    def test_empty_input(self):
        with pytest.raises(DeserializationError):
            load_header(b"")


class TestCorruptionHardening:
    """Corrupt blobs must raise DeserializationError, never bare ValueError
    or a multi-gigabyte allocation attempt."""

    def corrupt(self, value, mutate):
        out = io.BytesIO()
        encode_value(value, out)
        blob = bytearray(out.getvalue())
        mutate(blob)
        return io.BytesIO(bytes(blob))

    def test_bad_ndarray_dtype(self):
        def clobber(blob):
            # dtype string starts after tag (1) + length (8)
            blob[9:12] = b"zzz"

        with pytest.raises(DeserializationError):
            decode_value(self.corrupt(np.ones(3), clobber))

    def test_ndarray_nbytes_shape_mismatch(self):
        def clobber(blob):
            # shape dim is the second length field: tag(1) + dlen(8) +
            # dtype(4 for "<f8") + ndim(8) → dim at offset 21
            blob[21:29] = (7).to_bytes(8, "little")

        with pytest.raises(DeserializationError):
            decode_value(self.corrupt(np.ones(3), clobber))

    def test_absurd_str_length_rejected_before_allocation(self):
        def clobber(blob):
            blob[1:9] = (2**62).to_bytes(8, "little")

        with pytest.raises(DeserializationError):
            decode_value(self.corrupt("hello", clobber))

    def test_absurd_list_count_rejected(self):
        def clobber(blob):
            blob[1:9] = (2**61).to_bytes(8, "little")

        with pytest.raises(DeserializationError):
            decode_value(self.corrupt([1, 2, 3], clobber))

    def test_absurd_dict_count_rejected(self):
        def clobber(blob):
            blob[1:9] = (2**61).to_bytes(8, "little")

        with pytest.raises(DeserializationError):
            decode_value(self.corrupt({"a": 1}, clobber))

    def test_absurd_ndim_rejected(self):
        def clobber(blob):
            blob[13:21] = (2**50).to_bytes(8, "little")  # ndim field for "<f8"

        with pytest.raises(DeserializationError):
            decode_value(self.corrupt(np.ones(3), clobber))

    @pytest.mark.parametrize(
        "value,per_item",
        [("hello", 1), (b"bytes", 1), (12345, 1), ([1, 2, 3], 1), ({"a": 1}, 2)],
    )
    def test_length_one_past_the_end_fails_the_length_check(self, value, per_item):
        # A value after a leading one: the check must count the bytes
        # left from the current position to the end of the buffer.
        out = io.BytesIO()
        encode_value("lead", out)
        start = out.tell()
        encode_value(value, out)
        blob = bytearray(out.getvalue())
        fits = (len(blob) - start - 9) // per_item
        buf = io.BytesIO(bytes(blob))
        assert decode_value(buf) == "lead"
        blob[start + 1 : start + 9] = (fits + 1).to_bytes(8, "little")
        buf = io.BytesIO(bytes(blob))
        decode_value(buf)
        with pytest.raises(DeserializationError, match="corrupt length field"):
            decode_value(buf)

    def test_zero_dim_still_roundtrips(self):
        # Regression guard for the validator: a (0, huge) shape is legal.
        arr = np.zeros((0, 10**6), dtype=np.float64)
        restored = roundtrip(arr)
        assert restored.shape == arr.shape

    def test_every_truncation_point_raises_cleanly(self):
        out = io.BytesIO()
        encode_value({"x": np.arange(4), "y": "text", "z": [1, (2.5, b"b")]}, out)
        blob = out.getvalue()
        for cut in range(len(blob)):
            with pytest.raises(DeserializationError):
                decode_value(io.BytesIO(blob[:cut]))

    def test_corrupt_utf8_in_str_payload(self):
        def clobber(blob):
            blob[9] = 0xB2  # invalid UTF-8 start byte inside the payload

        with pytest.raises(DeserializationError):
            decode_value(self.corrupt("hello", clobber))
