"""Optional C kernel for the sequence extraction walk.

:meth:`repro.traces.sequences.SequenceExtractor.extract_array` sums every
packet of a capture into its ``(row, event)`` cell.  ``sum_runs`` does that
walk in one native call over the capture's columns: it ranks remotes by
first appearance, starts a new event where the sender changes (or at every
packet without aggregation), clamps the tail onto the last column or stops
at it, and adds each size into a zeroed int64 ``(rows, length)`` buffer.
Integer sums are exact, so the result is bitwise the NumPy fallback's; the
float steps (quantization, ``log1p``) stay in NumPy.

Only the first ``rows - 2`` remotes own a row; every later remote shares
the last one, so the rank table — a scratch int64 buffer of ``rows - 2``
entries the caller passes in — holds at most that many addresses, however
many distinct remotes a capture has.

The library is built on the first :func:`extraction_kernels` call, not at
import, so a process that never extracts (the serving front-end) never
loads it.  It is compiled and cached through :mod:`repro.kernel_cache`
like the LSTM and index kernels; when the build fails, or
``REPRO_DISABLE_KERNELS`` is set, :func:`extraction_kernels` returns
``None`` and extraction runs the NumPy path.
"""

from __future__ import annotations

import ctypes
from typing import Optional

from repro.kernel_cache import KernelLatch, load_kernel_library

_C_SOURCE = r"""
#include <stdint.h>

/* The row of remote `ip`, ranking it first when the table has room:
   table[k] holds the remote of rank k + 1; a remote the table cannot take
   ranks past the budget and lands in the last row. */
static long rank_row(int64_t ip, int64_t *table, long *ranked, long budget,
                     long last_row)
{
    for (long k = 0; k < *ranked; ++k)
        if (table[k] == ip)
            return k + 1;
    if (*ranked < budget) {
        table[(*ranked)++] = ip;
        return *ranked;
    }
    return last_row;
}

/* Columns are n int64 values each, in timestamp order; counts is a zeroed
   (rows, length) int64 buffer and table a scratch buffer of rows - 2
   int64 entries. */
void sum_runs(long n, const int64_t *src, const int64_t *dst,
              const int64_t *sizes, int64_t client, long rows, long length,
              int aggregate, int tail, int64_t *table, int64_t *counts)
{
    long budget = rows - 2, ranked = 0, event = -1;
    for (long i = 0; i < n; ++i) {
        int64_t sender = src[i];
        if (!aggregate || i == 0 || sender != src[i - 1])
            ++event;
        if (event >= length && !tail)
            break;
        long row = 0;
        if (sender != client)
            row = rank_row(sender, table, &ranked, budget, rows - 1);
        else if (ranked < budget && dst[i] != client)
            rank_row(dst[i], table, &ranked, budget, rows - 1);
        counts[row * length + (event < length ? event : length - 1)] += sizes[i];
    }
}
"""

_CFLAGS = ["-O2", "-shared", "-fPIC"]


def _build_library() -> Optional[ctypes.CDLL]:
    library = load_kernel_library("extract_kernel", _C_SOURCE, _CFLAGS)
    if library is None:
        return None
    c_long, c_addr = ctypes.c_long, ctypes.c_void_p
    library.sum_runs.argtypes = [c_long, c_addr, c_addr, c_addr, ctypes.c_int64,
                                 c_long, c_long, ctypes.c_int, ctypes.c_int, c_addr, c_addr]
    library.sum_runs.restype = None
    return library


_latch = KernelLatch(_build_library)


def extraction_kernels() -> Optional[ctypes.CDLL]:
    """The compiled ``sum_runs`` kernel, or ``None`` when unavailable
    (NumPy fallback).  Built on the first call, once per process."""
    return _latch()
