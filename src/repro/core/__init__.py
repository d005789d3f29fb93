"""Core interfaces: sketch ABCs, estimates, exceptions, serialization."""

from .base import (
    MergeableSketch,
    Sketch,
    from_bytes_any,
    sketch_registry,
)
from .batch import canonical_keys, canonical_weights, hll_registers
from .estimate import Estimate, z_score
from .exceptions import (
    DeserializationError,
    EmptySketchError,
    IncompatibleSketchError,
    SketchError,
)
from .serde import (
    FORMAT_VERSION,
    MAGIC,
    blob_nbytes,
    dump_sketch,
    encoded_nbytes,
    load_header,
    pack_rng_state,
    unpack_rng_state,
)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "DeserializationError",
    "EmptySketchError",
    "Estimate",
    "IncompatibleSketchError",
    "MergeableSketch",
    "Sketch",
    "SketchError",
    "blob_nbytes",
    "canonical_keys",
    "canonical_weights",
    "dump_sketch",
    "encoded_nbytes",
    "from_bytes_any",
    "hll_registers",
    "load_header",
    "pack_rng_state",
    "sketch_registry",
    "unpack_rng_state",
    "z_score",
]
