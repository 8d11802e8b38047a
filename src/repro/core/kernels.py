"""Optional fused C kernels for the IVF-PQ ADC scan and streaming top-k.

The IVF-PQ hot loop — gather per-candidate LUT entries, accumulate, select
the ``n_select`` best per query — is interpreter-bound in NumPy: the scan
materialises a flat candidate buffer (ids, gathered codes, int32 gather
indices, per-candidate sums) whose size is the total number of probed
candidates, then runs ``argpartition`` over each query's segment.  This
module fuses the whole pass into C, compiled on first use with the system
compiler and loaded through :mod:`ctypes` (the same discipline as
:mod:`repro.nn.kernels`):

* ``adc_scan_block_packed`` — blocked nibble scan over the per-subspace
  transposed code layout: unpacks two 4-bit codes per byte and gathers
  from the per-query uint8-quantized LUT in one pass, accumulating into
  uint32 partial sums.
* ``adc_scan_block_u8`` — the fused LUT-gather+accumulate for the 8-bit
  path (uint8 codes -> uint32 partial sums; the float32 scale/bias
  reconstruction that follows is byte-for-byte the NumPy math).
* ``ivfpq_search_topk`` — the streaming driver: walks each query's probed
  cells block by block through the scanners above and pushes every
  candidate into a bounded max-heap ordered by ``(distance, id)``, so peak
  scan memory is ``O(block + n_select)`` — independent of how many
  candidates the probes cover — and the full candidate buffer is never
  materialised.

Results are **bitwise identical** to the NumPy fallback in
:meth:`repro.core.index.IVFPQIndex._adc_select`: both paths gather from
the same uint8-quantized LUT (integer sums are order-independent), apply
the float32 scale/bias reconstruction in the same operation order
(``-ffp-contract=off`` keeps the compiler from fusing it into FMAs), and
select the ``n_select`` smallest ``(distance, id)`` pairs under the same
total order.

Calling convention, as in :mod:`repro.nn.kernels`: sizes as C longs, then
raw buffer addresses as plain Python integers (``c_void_p`` argtypes).  The
kernels index those addresses blind, so every buffer is checked for dtype
and C-contiguity before its address is taken.  The index's scan layout —
the four arrays that change only when the corpus does — is checked once
and keeps its addresses in a :class:`ScanLayout` that holds the arrays
they point into; a search call checks and addresses only its own
per-query inputs and outputs.  Nothing wraps an array in a ctypes pointer.

No new dependency: when no compiler is available or the build fails,
:func:`ivfpq_kernels` returns ``None`` and the index runs its NumPy scan.
Compiled objects are cached outside the source tree (see
:mod:`repro.kernel_cache`), keyed by a hash of the C source and the host
CPU.  There is no mode to pick: scans use the kernels if and only if they
built.  ``REPRO_DISABLE_KERNELS=1`` (the switch the LSTM kernels share,
inherited by serving worker processes) skips the build, which is the one
way to run the reference NumPy scan.
"""

from __future__ import annotations

import ctypes
import os
import shutil
from typing import Dict, Optional, Tuple

import numpy as np

from repro import kernel_cache

_C_SOURCE = r"""
/* Fused ADC scan + streaming top-k for the IVF-PQ engine.

   Code layout: codes_t is the (code_width, N) transpose of the stored
   code rows, reordered cell-major (column i holds the codes of the
   reference listed in members[i]), so one cell's candidates are a
   contiguous column range and each subspace row streams sequentially.
   lut is the per-query uint8-quantized table, (m, k_sub) row-major per
   query.  All float arithmetic must stay plain float32 adds/mults in
   source order: the Python side compiles with -ffp-contract=off so the
   results match the NumPy scan bit for bit. */

#include <stdlib.h>

#define BLOCK 512

void adc_scan_block_packed(long n_rows, long m, long k_sub, long stride,
                           const unsigned char *codes,
                           const unsigned char *lut,
                           unsigned int *sums)
{
    /* codes points at the block's first column inside the (cw, stride)
       transposed layout; subspace j lives in byte row j/2 — even j in the
       low nibble, odd j in the high nibble. */
    long cw = (m + 1) / 2;
    for (long i = 0; i < n_rows; ++i)
        sums[i] = 0u;
    for (long jj = 0; jj < cw; ++jj) {
        const unsigned char *row = codes + jj * stride;
        const unsigned char *lo = lut + (2 * jj) * k_sub;
        if (2 * jj + 1 < m) {
            const unsigned char *hi = lo + k_sub;
            for (long i = 0; i < n_rows; ++i) {
                unsigned char byte = row[i];
                sums[i] += (unsigned int)lo[byte & 0x0F] + (unsigned int)hi[byte >> 4];
            }
        } else {
            for (long i = 0; i < n_rows; ++i)
                sums[i] += (unsigned int)lo[row[i] & 0x0F];
        }
    }
}

void adc_scan_block_u8(long n_rows, long m, long k_sub, long stride,
                       const unsigned char *codes,
                       const unsigned char *lut,
                       unsigned int *sums)
{
    for (long i = 0; i < n_rows; ++i)
        sums[i] = 0u;
    for (long j = 0; j < m; ++j) {
        const unsigned char *row = codes + j * stride;
        const unsigned char *lutj = lut + j * k_sub;
        for (long i = 0; i < n_rows; ++i)
            sums[i] += (unsigned int)lutj[row[i]];
    }
}

typedef struct { float d; long id; } pair_t;

static int pair_gt(float da, long ia, float db, long ib)
{
    /* Total order by (distance, id): the heap root is the worst kept
       candidate, matching NumPy's lexsort((ids, distances)) order. */
    return da > db || (da == db && ia > ib);
}

static void sift_down(pair_t *heap, long size, long pos)
{
    for (;;) {
        long left = 2 * pos + 1;
        long right = left + 1;
        long largest = pos;
        if (left < size && pair_gt(heap[left].d, heap[left].id,
                                   heap[largest].d, heap[largest].id))
            largest = left;
        if (right < size && pair_gt(heap[right].d, heap[right].id,
                                    heap[largest].d, heap[largest].id))
            largest = right;
        if (largest == pos)
            return;
        pair_t tmp = heap[pos];
        heap[pos] = heap[largest];
        heap[largest] = tmp;
        pos = largest;
    }
}

int ivfpq_search_topk(long n_queries, long n_probe, long m, long k_sub,
                      long packed, long n_select, long n_rows,
                      const unsigned char *lut, const float *scale,
                      const float *bias, const float *coarse,
                      const long *probe, const long *cell_starts,
                      const long *members, const float *consts,
                      const unsigned char *codes_t,
                      long *out_ids, float *out_d, long *out_counts)
{
    pair_t *heap = (pair_t *)malloc((size_t)n_select * sizeof(pair_t));
    unsigned int sums[BLOCK];
    if (heap == NULL)
        return 1;
    float mf = (float)m;
    for (long q = 0; q < n_queries; ++q) {
        long size = 0;
        const unsigned char *lutq = lut + q * m * k_sub;
        float sq = scale[q];
        float bq = bias[q];
        for (long p = 0; p < n_probe; ++p) {
            long cell = probe[q * n_probe + p];
            float base = coarse[q * n_probe + p];
            long end = cell_starts[cell + 1];
            for (long bs = cell_starts[cell]; bs < end; bs += BLOCK) {
                long bn = (end - bs < BLOCK) ? end - bs : BLOCK;
                if (packed)
                    adc_scan_block_packed(bn, m, k_sub, n_rows, codes_t + bs, lutq, sums);
                else
                    adc_scan_block_u8(bn, m, k_sub, n_rows, codes_t + bs, lutq, sums);
                for (long i = 0; i < bn; ++i) {
                    /* adc = (coarse + const) - 2 (scale sum + m bias),
                       float32 in exactly NumPy's operation order. */
                    float a = base + consts[bs + i];
                    a -= 2.0f * (sq * (float)sums[i] + mf * bq);
                    long id = members[bs + i];
                    if (size < n_select) {
                        long pos = size++;
                        heap[pos].d = a;
                        heap[pos].id = id;
                        while (pos > 0) {
                            long parent = (pos - 1) / 2;
                            if (pair_gt(heap[pos].d, heap[pos].id,
                                        heap[parent].d, heap[parent].id)) {
                                pair_t tmp = heap[pos];
                                heap[pos] = heap[parent];
                                heap[parent] = tmp;
                                pos = parent;
                            } else {
                                break;
                            }
                        }
                    } else if (pair_gt(heap[0].d, heap[0].id, a, id)) {
                        heap[0].d = a;
                        heap[0].id = id;
                        sift_down(heap, n_select, 0);
                    }
                }
            }
        }
        /* Heap-sort the survivors ascending by (distance, id). */
        out_counts[q] = size;
        long *ids_row = out_ids + q * n_select;
        float *d_row = out_d + q * n_select;
        long remaining = size;
        while (remaining > 0) {
            pair_t worst = heap[0];
            heap[0] = heap[remaining - 1];
            --remaining;
            sift_down(heap, remaining, 0);
            d_row[remaining] = worst.d;
            ids_row[remaining] = worst.id;
        }
    }
    free(heap);
    return 0;
}
"""

#: -ffp-contract=off: the scale/bias reconstruction must round after every
#: float32 operation exactly like NumPy — a fused multiply-add would keep
#: the intermediate product exact and (rarely) flip the last ulp, breaking
#: the bitwise-identity contract with the fallback scan.
_CFLAGS = ["-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC"]

_cached: Optional["IVFPQKernels"] = None
_build_attempted = False


def source_key() -> str:
    """Hash of the C source + host CPU: the ``.so`` cache key, also
    recorded in benchmark provenance headers so artifacts from different
    kernel versions are distinguishable."""
    return kernel_cache.source_key(_C_SOURCE)


def _build_library() -> Optional[ctypes.CDLL]:
    library = kernel_cache.load_kernel_library("ivfpq_kernel", _C_SOURCE, _CFLAGS)
    if library is None:
        return None
    c_long, c_addr = ctypes.c_long, ctypes.c_void_p
    for name in ("adc_scan_block_packed", "adc_scan_block_u8"):
        fn = getattr(library, name)
        fn.argtypes = [c_long] * 4 + [c_addr] * 3
        fn.restype = None
    library.ivfpq_search_topk.argtypes = [c_long] * 7 + [c_addr] * 12
    library.ivfpq_search_topk.restype = ctypes.c_int
    return library


def _address(array: np.ndarray, dtype: type) -> int:
    """The raw data address of ``array`` once it is checked to be
    C-contiguous ``dtype`` — the kernels index it blind."""
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(
            f"native scan buffers must be C-contiguous {np.dtype(dtype).name}, "
            f"got {array.dtype.name} (contiguous={array.flags.c_contiguous})"
        )
    return array.ctypes.data


class ScanLayout:
    """An index's cell-major scan layout ``(cell_starts, members, consts,
    codes_t)`` — it unpacks like that tuple — checked once, with the raw
    addresses every :meth:`IVFPQKernels.search_topk` call passes.

    ``codes_t`` is the ``(code_width, N)`` transpose of the stored code rows
    whose columns follow ``members``; ``consts`` (float32) follows the same
    order; ``cell_starts`` and ``members`` are int64.  The layout holds the
    arrays, so the addresses stay valid for as long as it lives.
    """

    __slots__ = ("arrays", "addresses", "n_rows", "code_width")

    def __init__(
        self,
        cell_starts: np.ndarray,
        members: np.ndarray,
        consts: np.ndarray,
        codes_t: np.ndarray,
    ) -> None:
        n_rows = members.shape[0]
        if consts.shape != (n_rows,) or codes_t.ndim != 2 or codes_t.shape[1] != n_rows:
            raise ValueError("scan layout arrays disagree on the number of rows")
        self.arrays = (cell_starts, members, consts, codes_t)
        self.addresses = (
            _address(cell_starts, np.int64),
            _address(members, np.int64),
            _address(consts, np.float32),
            _address(codes_t, np.uint8),
        )
        self.n_rows = n_rows
        self.code_width = codes_t.shape[0]

    def __iter__(self):
        return iter(self.arrays)

    def __reduce__(self):
        # A copy (deepcopy of the index, pickling) must address its own
        # arrays, never the original's: rebuild from the copied arrays.
        return ScanLayout, self.arrays


class IVFPQKernels:
    """ctypes wrappers around the fused ADC scan + top-k kernels."""

    def __init__(self, library: ctypes.CDLL) -> None:
        self._lib = library

    def search_topk(
        self,
        *,
        lut_u8: np.ndarray,
        scale: np.ndarray,
        bias: np.ndarray,
        coarse: np.ndarray,
        probe: np.ndarray,
        layout: ScanLayout,
        packed: bool,
        n_select: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Streaming ADC scan + per-query top-``n_select`` over ``layout``.

        Per query: the ``(m, k_sub)`` uint8 LUT, float32 ``scale``/``bias``,
        and per probed cell its int64 ``probe`` id and float32 ``coarse``
        distance.  Returns ``(distances, ids, counts)`` — rows are
        ascending ``(distance, id)``, ``counts[q]`` entries valid.
        """
        n_queries, n_probe = probe.shape
        _, m, k_sub = lut_u8.shape
        if (
            lut_u8.shape[0] != n_queries
            or coarse.shape != probe.shape
            or scale.shape != (n_queries,)
            or bias.shape != (n_queries,)
            or layout.code_width != ((m + 1) // 2 if packed else m)
        ):
            raise ValueError("native scan inputs disagree on their shapes")
        out_ids = np.empty((n_queries, n_select), dtype=np.int64)
        out_d = np.empty((n_queries, n_select), dtype=np.float32)
        out_counts = np.empty(n_queries, dtype=np.int64)
        cell_starts, members, consts, codes_t = layout.addresses
        status = self._lib.ivfpq_search_topk(
            n_queries,
            n_probe,
            m,
            k_sub,
            1 if packed else 0,
            n_select,
            layout.n_rows,
            _address(lut_u8, np.uint8),
            _address(scale, np.float32),
            _address(bias, np.float32),
            _address(coarse, np.float32),
            _address(probe, np.int64),
            cell_starts,
            members,
            consts,
            codes_t,
            out_ids.ctypes.data,
            out_d.ctypes.data,
            out_counts.ctypes.data,
        )
        if status != 0:
            raise MemoryError("ivfpq_search_topk could not allocate its top-k heap")
        return out_d, out_ids, out_counts

    def scan_sums(
        self,
        codes_t: np.ndarray,
        lut_row: np.ndarray,
        *,
        packed: bool,
        start: int = 0,
        count: Optional[int] = None,
    ) -> np.ndarray:
        """Raw blocked scan over ``count`` columns of the transposed code
        layout for one query's ``(m, k_sub)`` LUT — the uint32 partial
        sums before scale/bias reconstruction.  Exposed for the kernel
        unit tests."""
        stride = codes_t.shape[1]
        count = stride - start if count is None else count
        m, k_sub = lut_row.shape
        if not 0 <= start <= start + count <= stride or codes_t.shape[0] != (
            (m + 1) // 2 if packed else m
        ):
            raise ValueError("scan columns or code rows fall outside the transposed layout")
        sums = np.empty(count, dtype=np.uint32)
        fn = self._lib.adc_scan_block_packed if packed else self._lib.adc_scan_block_u8
        fn(
            count,
            m,
            k_sub,
            stride,
            _address(codes_t, np.uint8) + start,
            _address(lut_row, np.uint8),
            sums.ctypes.data,
        )
        return sums


def ivfpq_kernels() -> Optional[IVFPQKernels]:
    """The compiled kernels, or ``None`` when unavailable (NumPy fallback).

    The first call compiles (or loads the cached ``.so``); failures of any
    kind — no compiler, unwritable cache, bad toolchain — latch to ``None``
    for the rest of the process.  ``REPRO_DISABLE_KERNELS`` disables the
    build entirely, mirroring :func:`repro.nn.kernels.lstm_kernels`.
    """
    global _cached, _build_attempted
    if _build_attempted:
        return _cached
    _build_attempted = True
    if os.environ.get("REPRO_DISABLE_KERNELS"):
        return None
    try:
        library = _build_library()
    except Exception:
        library = None
    _cached = IVFPQKernels(library) if library is not None else None
    return _cached


def kernel_status() -> Dict[str, object]:
    """Observable kernel state for ``info``/stats endpoints and benchmark
    provenance: whether a compiler is on PATH, whether scans run natively
    (``active`` is exactly ``ivfpq_kernels() is not None``), the source
    hash and the cache directory.
    """
    compiler = os.environ.get("CC", "cc")
    try:
        cache = str(kernel_cache.kernel_cache_dir())
    except OSError:
        cache = None
    return {
        "compiler": compiler,
        "compiler_available": shutil.which(compiler) is not None,
        "active": ivfpq_kernels() is not None,
        "source_hash": source_key(),
        "cache_dir": cache,
    }
