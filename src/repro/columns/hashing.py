"""Vectorised column-level hashing (CRC-32 and H3) over packed key columns.

The per-object hot path hashes one key at a time; this module hashes a whole
*column* — ``count`` fixed-width keys packed contiguously — in one pass:

* :func:`crc32_column` runs the table-driven CRC byte recurrence over the
  key-length dimension (13 steps for a 5-tuple column, each a whole-column
  gather), instead of per key.
* :class:`H3ColumnHasher` folds one H3 matrix, or a family of them, into
  stacked per-byte-position gather tables (``T[p][b]`` = XOR of the rows
  selected by byte value ``b`` at byte position ``p``, one lane per
  function), so a column hash is ``width`` table gathers XOR-reduced for
  the whole family.
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
    """One H3 function, or a family of them, compiled into stacked gather tables.

    The scalar :class:`~repro.hashing.h3.H3Hash` XORs one matrix row per set
    key *bit*; grouping rows eight at a time gives a 256-entry table per key
    *byte*, so hashing becomes ``width`` gathers regardless of how many bits
    are set.  A family of ``k`` functions (a Count-Min sketch's rows, a hash
    table's two bucket functions) stacks its tables into one
    ``(width, 256, k)`` array, so a column costs one gather per key byte
    position for the whole family — XOR-accumulated into a ``(count, k)``
    result — instead of one per position per function.  That matters most
    for small blocks, where each gather's fixed call cost dominates.
    Building the tables costs ``k x width x 256`` XORs once — amortised
    over every block the hasher serves.

    Parameters
    ----------
    functions: the hash function to compile, or a sequence of them (every
        function's ``key_bits`` must cover the keys).
    width: key width in bytes of the columns this hasher will see.
    """

    def __init__(self, functions: Union[H3Hash, Sequence[H3Hash]], width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self._single = isinstance(functions, H3Hash)
        family = [functions] if self._single else list(functions)
        if not family:
            raise ValueError("at least one hash function is required")
        for h3 in family:
            if 8 * width > h3.key_bits:
                raise ValueError(
                    f"{width}-byte keys exceed the hash function's {h3.key_bits} key bits"
                )
        self.width = width
        self.functions = len(family)
        self.output_bits = max(h3.output_bits for h3 in family)
        # _tables[f][i][b]: function f's contribution of byte value b at key
        # byte i (big-endian, so key byte i is byte position width - 1 - i of
        # the key integer and covers matrix rows 8(width-1-i) .. +7).  Each
        # entry is built from two smaller ones — the byte without its lowest
        # set bit, and that bit alone — so a table costs 256 XORs rather
        # than 8 x 256.
        self._tables: List[List[List[int]]] = []
        for h3 in family:
            rows = h3.matrix
            tables = []
            for key_byte in range(width):
                position = width - 1 - key_byte
                table = [0] * 256
                for bit in range(8):
                    table[1 << bit] = rows[8 * position + bit]
                for byte in range(3, 256):
                    rest = byte & (byte - 1)
                    if rest:
                        table[byte] = table[rest] ^ table[byte & -byte]
                tables.append(table)
            self._tables.append(tables)
        self._np_table = None
        self._packed_tables = None

    def _numpy_table(self, np):
        """The ``(width, 256, k)`` stacked gather table (built on first use)."""
        if self._np_table is None:
            stacked = np.array(self._tables, dtype=np.uint64)  # (k, width, 256)
            self._np_table = np.ascontiguousarray(stacked.transpose(1, 2, 0))
        return self._np_table

    def _packed_hashes(self, data: bytes, count: int) -> List[int]:
        """Stdlib backend: per key, the family's hashes packed into one int.

        Function ``f`` occupies bits ``[f * output_bits, (f + 1) *
        output_bits)``.  XOR never carries between fields, so one lookup in
        a packed table per key byte computes every function at once.
        """
        if self._packed_tables is None:
            shift = self.output_bits
            self._packed_tables = [
                [
                    sum(tables[key_byte][byte] << (f * shift) for f, tables in enumerate(self._tables))
                    for byte in range(256)
                ]
                for key_byte in range(self.width)
            ]
        tables = self._packed_tables
        width = self.width
        out: List[int] = []
        for start in range(0, count * width, width):
            value = 0
            for table, byte in zip(tables, data[start : start + width]):
                value ^= table[byte]
            out.append(value)
        return out

    def _hashes(self, key_data: ByteColumn, count: int):
        """A ``(count, k)`` uint64 array on numpy, packed ints otherwise."""
        width = self.width
        if len(key_data) != count * width:
            raise ValueError(
                f"key column holds {len(key_data)} bytes, expected {count}x{width}"
            )
        np = backend.np
        if np is not None and self.output_bits <= 64:
            table = self._numpy_table(np)
            arr = np.frombuffer(bytes(key_data), dtype=np.uint8).reshape(count, width)
            out = np.zeros((count, self.functions), dtype=np.uint64)
            for key_byte in range(width):
                out ^= table[key_byte].take(arr[:, key_byte], axis=0)
            return out
        return self._packed_hashes(bytes(key_data), count)

    def _field_shifts(self) -> List[int]:
        return [f * self.output_bits for f in range(self.functions)]

    def hash_column(self, key_data: ByteColumn, count: int):
        """Hash every key of a packed column; equals ``h3.hash`` per key.

        For a single function the result has one value per key (a
        ``numpy.uint64`` array on the numpy backend, a list otherwise); for
        a family it is ``(count, k)``: an array, or one ``k``-list per key.
        """
        hashes = self._hashes(key_data, count)
        if not isinstance(hashes, list):
            return hashes[:, 0] if self._single else hashes
        if self._single:
            return hashes
        mask = (1 << self.output_bits) - 1
        shifts = self._field_shifts()
        return [[(value >> shift) & mask for shift in shifts] for value in hashes]

    def bucket_columns(self, key_data: ByteColumn, count: int, buckets: int) -> List[List[int]]:
        """``h3.hash(key) % buckets`` for every key: one list per function."""
        hashes = self._hashes(key_data, count)
        if not isinstance(hashes, list):
            return (hashes % backend.np.uint64(buckets)).T.tolist()
        mask = (1 << self.output_bits) - 1
        return [
            [((value >> shift) & mask) % buckets for value in hashes]
            for shift in self._field_shifts()
        ]


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
