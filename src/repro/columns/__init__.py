"""Columnar batch hot path.

``repro.columns`` stores a batch of packet descriptors as *columns* — one
contiguous buffer of packed keys plus parallel arrays for lengths,
timestamps and flags — so hashing, shard steering and ring lookup run over
whole columns at once instead of per object.  The per-object descriptor
path remains the reference implementation; the equivalence batteries in
``tests/test_columns.py`` pin the two paths to identical results.
"""

from repro.columns.backend import HAVE_NUMPY, using_numpy
from repro.columns.block import (
    ENGINE_KEY_WIDTH,
    STAGE_CODES,
    STAGES,
    DescriptorBlock,
    OutcomeBlock,
)
from repro.columns.hashing import (
    H3ColumnHasher,
    TabulationColumnHasher,
    crc32_column,
    crc32_partition,
)

__all__ = [
    "HAVE_NUMPY",
    "using_numpy",
    "ENGINE_KEY_WIDTH",
    "STAGES",
    "STAGE_CODES",
    "DescriptorBlock",
    "OutcomeBlock",
    "H3ColumnHasher",
    "TabulationColumnHasher",
    "crc32_column",
    "crc32_partition",
]
