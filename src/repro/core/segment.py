"""The ``RSG1`` segment: one binary format for every storage consumer.

A segment is a self-describing container of named numpy arrays — IVF-PQ
codes, codebooks, centroids, member constants, drift buffers, label codes
and (optionally) raw embedding vectors — laid out so the *same bytes* can
be consumed three ways:

* **mmap'd read-only from disk**: a segment file is parsed zero-copy off
  the page cache (:func:`open_segment`);
* **copied into POSIX shared memory**: the serving layer's
  :class:`~repro.serving.transport.SegmentPublisher` writes each shard's
  segment into a shm block and workers attach it zero-copy
  (:func:`write_segment` / :func:`read_segment`);
* **rsync'd as the deployment archive**: a segment file is a single flat
  blob with a leading magic and a trailing-stable layout, safe to copy
  between hosts (:func:`write_segment_file` — atomic via a temp file and
  ``os.replace``).

The byte-level layout (fixed 64-byte header, fixed 160-byte array-table
entries, page-aligned data region, 64-byte-aligned arrays, CRC-32 over
everything but the checksum field itself) is specified — and enforced by
``tests/test_docs.py`` — in ``docs/segment-format.md``.  There is no
pickle anywhere: object dtypes are rejected at write time, so a segment
can be parsed safely regardless of provenance.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Dict, Mapping, Union

import numpy as np

PathLike = Union[str, os.PathLike]

MAGIC = b"RSG1"
FORMAT_VERSION = 1

#: ``magic, version, flags, n_arrays, data_offset, total_size, checksum``
#: padded with zeros to exactly 64 bytes.
HEADER = struct.Struct("<4sBBHQQI36x")
#: ``name, dtype, offset, nbytes, ndim, shape[8]`` — one fixed-size entry
#: per array, packed back to back right after the header.
ENTRY = struct.Struct("<64s8sQQI4x8Q")

HEADER_SIZE = HEADER.size
ENTRY_SIZE = ENTRY.size
#: Byte offset of the checksum field inside the header (the CRC is
#: computed with these four bytes zeroed).
CHECKSUM_OFFSET = 24
#: The data region starts on a page boundary so arrays can be mmap'd with
#: page-granular protection and read straight off the page cache.
PAGE_ALIGNMENT = 4096
#: Every array starts on a 64-byte boundary (cache line / SIMD friendly).
ARRAY_ALIGNMENT = 64
MAX_NAME_BYTES = 64
MAX_DTYPE_BYTES = 8
MAX_NDIM = 8


class SegmentFormatError(ValueError):
    """A buffer or file is not a valid ``RSG1`` segment (bad magic,
    truncation, checksum mismatch, or an undecodable array table)."""


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def _validated_arrays(arrays: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Normalise and vet the arrays a segment is asked to hold."""
    out: Dict[str, np.ndarray] = {}
    for name, array in arrays.items():
        if not isinstance(name, str) or not name:
            raise SegmentFormatError(f"array names must be non-empty strings, got {name!r}")
        encoded = name.encode("utf-8")
        if len(encoded) > MAX_NAME_BYTES or b"\x00" in encoded:
            raise SegmentFormatError(
                f"array name {name!r} must encode to <= {MAX_NAME_BYTES} UTF-8 bytes "
                "and contain no NUL"
            )
        array = np.ascontiguousarray(array)
        if array.dtype.hasobject:
            raise SegmentFormatError(
                f"array {name!r} has an object dtype; segments are pickle-free"
            )
        token = array.dtype.str.encode("ascii")
        if len(token) > MAX_DTYPE_BYTES:
            raise SegmentFormatError(f"array {name!r} dtype token {array.dtype.str!r} too long")
        if array.ndim > MAX_NDIM:
            raise SegmentFormatError(
                f"array {name!r} has {array.ndim} dimensions; the format caps at {MAX_NDIM}"
            )
        out[name] = array
    return out


def _layout(arrays: Dict[str, np.ndarray]):
    """``(entries, data_offset, total_size)`` for a validated array dict."""
    data_offset = _align(HEADER_SIZE + len(arrays) * ENTRY_SIZE, PAGE_ALIGNMENT)
    entries = []
    cursor = data_offset
    for name, array in arrays.items():
        offset = _align(cursor, ARRAY_ALIGNMENT)
        entries.append((name, array, offset))
        cursor = offset + array.nbytes
    return entries, data_offset, cursor


def segment_size(arrays: Mapping[str, np.ndarray]) -> int:
    """Exact byte size of the segment :func:`write_segment` would produce
    (what a shared-memory block must be allocated at)."""
    _, _, total = _layout(_validated_arrays(arrays))
    return total


def _checksum(view: memoryview, total: int) -> int:
    """CRC-32 over the whole segment with the checksum field zeroed."""
    header = bytes(view[:HEADER_SIZE])
    zeroed = header[:CHECKSUM_OFFSET] + b"\x00\x00\x00\x00" + header[CHECKSUM_OFFSET + 4 :]
    return zlib.crc32(view[HEADER_SIZE:total], zlib.crc32(zeroed)) & 0xFFFFFFFF


def write_segment(buffer, arrays: Mapping[str, np.ndarray]) -> int:
    """Serialise ``arrays`` into ``buffer`` (a writable buffer of at least
    :func:`segment_size` bytes — a ``SharedMemory.buf``, an ``mmap`` or a
    ``bytearray``); returns the total bytes written.

    Every padding byte is zeroed, so two writes of the same arrays produce
    bit-identical segments regardless of the backing medium.
    """
    arrays = _validated_arrays(arrays)
    entries, data_offset, total = _layout(arrays)
    view = memoryview(buffer).cast("B")
    if view.readonly:
        raise SegmentFormatError("cannot write a segment into a read-only buffer")
    if len(view) < total:
        raise SegmentFormatError(
            f"buffer holds {len(view)} bytes but the segment needs {total}"
        )
    view[HEADER_SIZE:data_offset] = b"\x00" * (data_offset - HEADER_SIZE)
    position = HEADER_SIZE
    for name, array, offset in entries:
        shape = tuple(int(side) for side in array.shape) + (0,) * (MAX_NDIM - array.ndim)
        ENTRY.pack_into(
            view,
            position,
            name.encode("utf-8"),
            array.dtype.str.encode("ascii"),
            offset,
            array.nbytes,
            array.ndim,
            *shape,
        )
        position += ENTRY_SIZE
    cursor = data_offset
    for name, array, offset in entries:
        view[cursor:offset] = b"\x00" * (offset - cursor)
        if array.nbytes:
            target = np.ndarray(array.shape, dtype=array.dtype, buffer=view, offset=offset)
            target[...] = array
        cursor = offset + array.nbytes
    HEADER.pack_into(view, 0, MAGIC, FORMAT_VERSION, 0, len(arrays), data_offset, total, 0)
    HEADER.pack_into(
        view, 0, MAGIC, FORMAT_VERSION, 0, len(arrays), data_offset, total, _checksum(view, total)
    )
    return total


def pack_segment(arrays: Mapping[str, np.ndarray]) -> bytes:
    """The segment as a standalone ``bytes`` blob (in-memory consumer)."""
    buffer = bytearray(segment_size(arrays))
    write_segment(buffer, arrays)
    return bytes(buffer)


def read_segment(buffer, *, verify: bool = True, copy: bool = False) -> Dict[str, np.ndarray]:
    """Parse a segment out of any readable buffer into named arrays.

    By default the arrays are zero-copy read-only views into ``buffer``
    (each view keeps the buffer alive); pass ``copy=True`` for standalone
    arrays.  ``verify=False`` skips the CRC — only appropriate when the
    producer and consumer share a memory barrier, e.g. the same process.
    """
    view = memoryview(buffer).cast("B")
    if len(view) < HEADER_SIZE:
        raise SegmentFormatError(f"truncated segment: {len(view)} bytes, header needs {HEADER_SIZE}")
    magic, version, _flags, n_arrays, data_offset, total, checksum = HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise SegmentFormatError(f"bad magic {bytes(magic)!r}; expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise SegmentFormatError(f"unsupported segment version {version}")
    if total > len(view):
        raise SegmentFormatError(f"truncated segment: header claims {total} bytes, buffer holds {len(view)}")
    table_end = HEADER_SIZE + n_arrays * ENTRY_SIZE
    if table_end > data_offset or data_offset > total:
        raise SegmentFormatError("segment header layout offsets are inconsistent")
    if verify and _checksum(view, total) != checksum:
        raise SegmentFormatError("segment checksum mismatch: the bytes are corrupt")
    arrays: Dict[str, np.ndarray] = {}
    position = HEADER_SIZE
    for _ in range(n_arrays):
        fields = ENTRY.unpack_from(view, position)
        position += ENTRY_SIZE
        name_raw, dtype_raw, offset, nbytes, ndim = fields[:5]
        shape = fields[5:]
        try:
            name = name_raw.rstrip(b"\x00").decode("utf-8")
            dtype = np.dtype(dtype_raw.rstrip(b"\x00").decode("ascii"))
        except (UnicodeDecodeError, TypeError, ValueError) as error:
            raise SegmentFormatError(f"undecodable array-table entry: {error}") from error
        if not name or name in arrays or ndim > MAX_NDIM:
            raise SegmentFormatError(f"invalid array-table entry for {name!r}")
        shape = tuple(int(side) for side in shape[:ndim])
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize
        if expected != nbytes or offset < data_offset or offset + nbytes > total:
            raise SegmentFormatError(f"array {name!r} does not fit the declared segment layout")
        array = np.ndarray(shape, dtype=dtype, buffer=view, offset=offset)
        if copy:
            array = array.copy()
        elif not view.readonly:
            array.flags.writeable = False
        arrays[name] = array
    return arrays


class MappedSegment:
    """A segment file mmap'd read-only from disk.

    ``arrays`` are zero-copy views over the page cache.  Closing while
    views are still referenced is best-effort: the mapping is released when
    the last view is garbage collected.
    """

    def __init__(self, path: Path, mapped: mmap.mmap, arrays: Dict[str, np.ndarray]) -> None:
        self.path = path
        self.arrays = arrays
        self._mapped = mapped

    @property
    def nbytes(self) -> int:
        """Size of the mapped file in bytes."""
        return len(self._mapped)

    def close(self) -> None:
        """Release the mapping (deferred to GC if views are still alive)."""
        with contextlib.suppress(BufferError, ValueError):
            self._mapped.close()

    def __enter__(self) -> "MappedSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_segment(path: PathLike, *, verify: bool = True) -> MappedSegment:
    """mmap a segment file read-only and parse its arrays zero-copy."""
    path = Path(path)
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as error:  # zero-length file
            raise SegmentFormatError(f"truncated segment file {path}: {error}") from error
    try:
        arrays = read_segment(mapped, verify=verify)
    except BaseException:
        # The in-flight exception's traceback can still reference buffer
        # views of the mapping; GC releases it once the error is handled.
        with contextlib.suppress(BufferError):
            mapped.close()
        raise
    return MappedSegment(path, mapped, arrays)


def load_segment_file(path: PathLike, *, verify: bool = True) -> Dict[str, np.ndarray]:
    """Read a segment file into standalone (owned) arrays and release it."""
    segment = open_segment(path, verify=verify)
    try:
        return {name: array.copy() for name, array in segment.arrays.items()}
    finally:
        segment.close()


def write_segment_file(path: PathLike, arrays: Mapping[str, np.ndarray]) -> Path:
    """Atomically write a segment file: the bytes land in a temp file in
    the same directory and are renamed over ``path`` with ``os.replace``,
    so a crash mid-write never corrupts an existing archive."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = _validated_arrays(arrays)
    total = segment_size(arrays)
    descriptor, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(descriptor, "r+b") as handle:
            handle.truncate(total)
            with mmap.mmap(handle.fileno(), total) as mapped:
                write_segment(mapped, arrays)
                mapped.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def is_segment_file(path: PathLike) -> bool:
    """Whether ``path`` exists and starts with the ``RSG1`` magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False
