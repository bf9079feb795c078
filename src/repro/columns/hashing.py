"""Vectorised column-level hashing (CRC-32 and H3) over packed key columns.

The per-object hot path hashes one key at a time; this module hashes a whole
*column* — ``count`` fixed-width keys packed contiguously — in one pass:

* :func:`crc32_column` runs the table-driven CRC byte recurrence over the
  key-length dimension (13 steps for a 5-tuple column, each a whole-column
  gather), instead of per key.
* :class:`H3ColumnHasher` folds an H3 matrix into per-byte-position gather
  tables (``T[p][b]`` = XOR of the rows selected by byte value ``b`` at byte
  position ``p``), so a column hash is ``width`` table gathers XOR-reduced.
* :class:`TabulationColumnHasher` hashes a column of integers through a
  tabulation hash's tables, one gather per byte position.

All reproduce the scalar functions (:data:`repro.hashing.crc.CRC32`,
:class:`repro.hashing.h3.H3Hash`,
:class:`repro.hashing.tabulation.TabulationHash`) bit-for-bit — the
property tests in ``tests/test_columns.py`` and
``tests/test_telemetry_eviction.py`` hold them to that across seeds and
geometries.
Without numpy (see :mod:`repro.columns.backend`) every function falls back
to a stdlib per-key loop with identical results.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.columns import backend
from repro.hashing.crc import CRC32, CRCHash
from repro.hashing.h3 import H3Hash

ByteColumn = Union[bytes, bytearray, memoryview]


def _numpy_crc_table(crc: CRCHash, np):
    table = getattr(crc, "_column_gather_table", None)
    if table is None:
        table = np.array(crc.remainder_table, dtype=np.uint32)
        crc._column_gather_table = table
    return table


def crc32_column(key_data: ByteColumn, count: int, width: int, crc: CRCHash = CRC32):
    """CRC of every fixed-width key in a packed column, in one pass.

    ``key_data`` holds ``count`` keys of ``width`` bytes back to back.
    Returns a sequence of ``count`` hash values equal to ``crc.hash`` of
    each key (a ``numpy.uint32`` array on the numpy backend, a list
    otherwise).  Only reflected 32-bit CRCs vectorise this way.
    """
    if not (crc.reflected and crc.width == 32):
        raise ValueError("column hashing supports reflected 32-bit CRCs only")
    if len(key_data) != count * width:
        raise ValueError(
            f"key column holds {len(key_data)} bytes, expected {count}x{width}"
        )
    np = backend.np
    if np is not None:
        arr = np.frombuffer(bytes(key_data), dtype=np.uint8).reshape(count, width)
        remainder = np.full(count, crc.initial & 0xFFFFFFFF, dtype=np.uint32)
        table = _numpy_crc_table(crc, np)
        for position in range(width):
            remainder = (remainder >> np.uint32(8)) ^ table[
                (remainder ^ arr[:, position]) & np.uint32(0xFF)
            ]
        return remainder ^ np.uint32(crc.final_xor & 0xFFFFFFFF)
    view = memoryview(key_data)
    hash_one = crc.hash
    return [hash_one(view[index * width : (index + 1) * width]) for index in range(count)]


class H3ColumnHasher:
    """One H3 function compiled into byte-position gather tables.

    The scalar :class:`~repro.hashing.h3.H3Hash` XORs one matrix row per set
    key *bit*; grouping rows eight at a time gives a 256-entry table per key
    *byte*, so hashing becomes ``width`` gathers regardless of how many bits
    are set.  Building the tables costs ``width x 256`` XORs once per hash
    function — amortised over every block the table serves.

    Parameters
    ----------
    h3: the hash function to compile (its ``key_bits`` must cover the keys).
    width: key width in bytes of the columns this hasher will see.
    """

    def __init__(self, h3: H3Hash, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        if 8 * width > h3.key_bits:
            raise ValueError(
                f"{width}-byte keys exceed the hash function's {h3.key_bits} key bits"
            )
        self.width = width
        self.output_bits = h3.output_bits
        rows = h3.matrix
        tables: List[List[int]] = []
        # Byte position p counts from the LSB end of the big-endian key, so
        # byte p of the key integer is key_bytes[width - 1 - p] and covers
        # matrix rows 8p .. 8p+7.  Each entry is built from two smaller
        # ones — the byte without its lowest set bit, and that bit alone —
        # so a table costs 256 XORs rather than 8 x 256.
        for position in range(width):
            table = [0] * 256
            for bit in range(8):
                table[1 << bit] = rows[8 * position + bit]
            for byte in range(3, 256):
                rest = byte & (byte - 1)
                if rest:
                    table[byte] = table[rest] ^ table[byte & -byte]
            tables.append(table)
        self._tables = tables
        self._np_tables = None

    def _numpy_tables(self, np):
        if self._np_tables is None:
            self._np_tables = [np.array(table, dtype=np.uint64) for table in self._tables]
        return self._np_tables

    def hash_column(self, key_data: ByteColumn, count: int):
        """Hash every key of a packed column; equals ``h3.hash`` per key."""
        width = self.width
        if len(key_data) != count * width:
            raise ValueError(
                f"key column holds {len(key_data)} bytes, expected {count}x{width}"
            )
        np = backend.np
        if np is not None and self.output_bits <= 64:
            arr = np.frombuffer(bytes(key_data), dtype=np.uint8).reshape(count, width)
            tables = self._numpy_tables(np)
            out = np.zeros(count, dtype=np.uint64)
            for position in range(width):
                out ^= tables[position][arr[:, width - 1 - position]]
            return out
        data = bytes(key_data)
        # Key byte i (big-endian) is byte position width - 1 - i.
        tables = self._tables[::-1]
        out_list: List[int] = []
        for start in range(0, count * width, width):
            value = 0
            for table, byte in zip(tables, data[start : start + width]):
                value ^= table[byte]
            out_list.append(value)
        return out_list

    def bucket_column(self, key_data: ByteColumn, count: int, buckets: int) -> List[int]:
        """``h3.hash(key) % buckets`` for every key of a packed column, as a list."""
        hashes = self.hash_column(key_data, count)
        np = backend.np
        if np is not None and self.output_bits <= 64:
            return (hashes % np.uint64(buckets)).tolist()
        return [value % buckets for value in hashes]


class TabulationColumnHasher:
    """A :class:`~repro.hashing.tabulation.TabulationHash` over integer columns.

    Takes the hash's per-byte-position tables (position 0 is the most
    significant byte of the big-endian key) and hashes a whole column of
    non-negative integers at once: one gather per byte position on the
    numpy backend, a per-value loop otherwise.  Only the low
    ``len(tables)`` bytes of each value are hashed.
    """

    def __init__(self, tables: Sequence[Sequence[int]]) -> None:
        if not tables:
            raise ValueError("tables must cover at least one byte position")
        self._tables = tables
        self._np_tables = None

    def bucket_column(self, values: Sequence[int], buckets: int) -> List[int]:
        """``hash(value) % buckets`` for every value, as a list."""
        tables = self._tables
        key_bytes = len(tables)
        np = backend.np
        if np is not None and len(values):
            if self._np_tables is None:
                self._np_tables = [np.array(table, dtype=np.uint64) for table in tables]
            column = np.asarray(values, dtype=np.uint64)
            out = np.zeros(len(column), dtype=np.uint64)
            for position, table in enumerate(self._np_tables):
                shift = np.uint64(8 * (key_bytes - 1 - position))
                out ^= table[(column >> shift) & np.uint64(0xFF)]
            return (out % np.uint64(buckets)).tolist()
        mask = (1 << (8 * key_bytes)) - 1
        out_list: List[int] = []
        for value in values:
            result = 0
            for table, byte in zip(tables, (value & mask).to_bytes(key_bytes, "big")):
                result ^= table[byte]
            out_list.append(result % buckets)
        return out_list


def crc32_partition(
    key_data: ByteColumn, count: int, width: int, buckets: int
) -> List[Sequence[int]]:
    """Row indices per bucket of ``CRC32(key) % buckets``, column-at-a-time.

    This is the sharded engine's steering function vectorised: bucket ``b``
    receives exactly the rows whose key satisfies
    ``ShardedFlowLUT.shard_of(key) == b``, with the original row order kept
    inside each bucket.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    if buckets == 1:
        return [range(count)]
    np = backend.np
    hashes = crc32_column(key_data, count, width)
    if np is not None:
        owners = hashes % np.uint32(buckets)
        return [np.nonzero(owners == np.uint32(bucket))[0] for bucket in range(buckets)]
    groups: List[List[int]] = [[] for _ in range(buckets)]
    for index, value in enumerate(hashes):
        groups[value % buckets].append(index)
    return groups
