"""Optional C kernels for the exact top-k pass, the IVF-PQ search and
quantizer training.

Both scan engines end in the same step — keep each query's ``k`` smallest
``(distance, id)`` pairs — and in NumPy both pay for it in whole-array
passes: the exact scan forms the ``(queries, N)`` float64 distance block in
three passes and ranks it in three more (plus an int64 and a boolean array
of the same size); the IVF-PQ scan quantises the LUT through full-size
float64 temporaries, materialises a flat candidate buffer (ids, gathered
codes, int32 gather indices, per-candidate sums) sized by every probed
candidate, runs ``argpartition`` over each query's segment and re-ranks
the pool through gathers and einsums.  This module does both in C,
compiled on first use with the system compiler and loaded through
:mod:`ctypes` (the same discipline as :mod:`repro.nn.kernels`):

* one **bounded select** the two drivers share: a buffer of ``2k + 16``
  pairs, a branch-free admission test against a bound at least ``k`` kept
  pairs beat, and a partition round that cuts the buffer back when it
  fills, so selection costs ``O(k)`` memory whatever the candidate count.
* ``exact_search_topk`` — the exact driver.  It takes the BLAS block
  ``queries @ vectors.T`` with the query norms and the index's row norms,
  forms each squared distance as ``((ip * -2) + |q|^2) + |v|^2`` (NumPy's
  operation order) in a small stack block and offers it to the select: the
  distance block is read once and never written.
* ``adc_scan_block_packed`` — blocked nibble scan over the per-subspace
  transposed code layout: unpacks two 4-bit codes per byte and gathers
  from the per-query uint8-quantized LUT in one pass, accumulating into
  uint32 partial sums.
* ``adc_scan_block_u8`` — the fused LUT-gather+accumulate for the 8-bit
  path (uint8 codes -> uint32 partial sums; the float32 scale/bias
  reconstruction that follows is byte-for-byte the NumPy math).
* ``ivfpq_search_topk`` — the IVF-PQ driver, one call per query chunk.
  It takes the float64 coarse distance block and LUT tables (NumPy/BLAS
  forms both) and, per query, picks the
  ``n_probe`` cells nearest by ``(distance, cell)`` through the select
  (every cell when they hold fewer than ``k`` rows), quantises the LUT
  row (``quantize_lut``: NumPy's float64 operation order, without its
  temporaries), walks the probed cells block by block through the
  scanners above into a select of ``n_select = max(k, rerank)`` pairs,
  re-scores that pool against the raw float32/float64 rows —
  ``((ip * -2) + |q|^2) + |v|^2`` with ``ip`` summed over the dimensions
  left to right and ``|v|^2`` the norms the index keeps — into a select
  of ``k``, and returns the square-rooted distances ordered by
  ``(distance, id)``.  Peak memory is ``O(block + n_select * dim)``.
* ``nearest_centroid_pass`` — quantizer training's assignment step (the
  coarse k-means, every PQ codebook's k-means and PQ encoding).  It takes
  one BLAS block ``rows @ centroids.T`` with both sides' squared norms,
  forms ``((ip * -2) + |x|^2) + |c|^2`` per entry and keeps each row's
  ``argmin`` and minimum — the first minimum, or the first NaN, as NumPy's
  ``argmin`` does — in vector lanes, so the block is read once.
* ``seed_cover`` / ``seed_pick`` — one k-means++ seeding step after its
  BLAS GEMV: ``closest = minimum(closest, maximum(d, 0))`` with NumPy's
  NaN and signed-zero rules, and the D^2 pick
  ``searchsorted(cumsum(closest), u)`` as one running sum that stops at
  ``u``.  The total and the random draw stay NumPy's, so the random
  stream is untouched.

Results are **bitwise identical** to the NumPy paths —
:func:`repro.core.index.top_k_by_distance` over
:func:`repro.core.index.squared_euclidean_distances` for the exact scan,
:meth:`repro.core.index.IVFPQIndex._search_chunk` over
:meth:`repro.core.index.IVFPQIndex._scan` for IVF-PQ, and
:func:`repro.core.index._nearest_centroids` /
:func:`repro.core.index._kmeans_pp_seed` for training, whose every trained
array (centroids, codebooks, codes, constants) is the NumPy training's
bit for bit: distances are
formed in the same operation order (``-ffp-contract=off`` keeps the
compiler from fusing them into FMAs; IVF-PQ's integer LUT sums are
order-independent) and the same ``(distance, id)`` pairs are kept under
the same total order.  A NaN distance (and, on the IVF-PQ pass, any
non-finite coarse distance, table entry or distance) is outside that
order: the driver reports it and the index answers that call from NumPy.
The training passes need no such escape: they follow NumPy's NaN rules.

Calling convention, as in :mod:`repro.nn.kernels`: sizes as C longs, then
raw buffer addresses as plain Python integers (``c_void_p`` argtypes).  The
kernels index those addresses blind, so every buffer is checked for dtype
and C-contiguity before its address is taken, and ``k`` is checked to be
at least 1.  The index's scan layout —
the four arrays that change only when the corpus does — is checked once
and keeps its addresses in a :class:`ScanLayout` that holds the arrays
they point into; a search call checks and addresses only its own
per-query inputs and outputs.  The training passes do the same per
k-means pass: their fixed buffers are checked once and each block or
seeding step passes only offsets.  Nothing wraps an array in a ctypes
pointer.

No new dependency: when no compiler is available or the build fails,
:func:`ivfpq_kernels` returns ``None`` and both engines run their NumPy
scans.  Compiled objects are cached outside the source tree (see
:mod:`repro.kernel_cache`), keyed by a hash of the C source and the host
CPU.  There is no mode to pick: scans use the kernels if and only if they
built.  ``REPRO_DISABLE_KERNELS=1`` (the switch every kernel latch shares,
inherited by serving worker processes) skips the build, which is the one
way to run the reference NumPy scans.
"""

from __future__ import annotations

import ctypes
import os
import shutil
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import kernel_cache

_C_SOURCE = r"""
/* Exact top-k, the IVF-PQ search pass (probe select, LUT
   quantisation, fused ADC scan + streaming top-k, exact re-rank and the
   final (distance, id) order) and the quantizer-training passes.

   Code layout: codes_t is the (code_width, N) transpose of the stored
   code rows, reordered cell-major (column i holds the codes of the
   reference listed in members[i]), so one cell's candidates are a
   contiguous column range and each subspace row streams sequentially.
   lut is the per-query uint8-quantized table, (m, k_sub) row-major per
   query.  The re-rank's inner products sum over the dimensions left to
   right, the order the NumPy fallback computes.  All float arithmetic
   must stay plain adds/mults/divides in source order: the Python side
   compiles with -ffp-contract=off so the results match the NumPy scans
   bit for bit. */

#include <math.h>
#include <stdlib.h>
#include <string.h>

#define BLOCK 512

/* The scanners are static inline so the search driver's calls inline
   (an exported function may be interposed, so is not); the exported
   adc_scan_block_* below serve the kernel tests. */
static inline void scan_packed(long n_rows, long m, long k_sub, long stride,
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

static inline void scan_u8(long n_rows, long m, long k_sub, long stride,
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

void adc_scan_block_packed(long n_rows, long m, long k_sub, long stride,
                           const unsigned char *codes, const unsigned char *lut,
                           unsigned int *sums)
{
    scan_packed(n_rows, m, k_sub, stride, codes, lut, sums);
}

void adc_scan_block_u8(long n_rows, long m, long k_sub, long stride,
                       const unsigned char *codes, const unsigned char *lut,
                       unsigned int *sums)
{
    scan_u8(n_rows, m, k_sub, stride, codes, lut, sums);
}

/* ------------------------------------------------------------------
   Bounded top-k selection, shared by both scan engines.

   A query's candidates stream through topk_offer in any order; the
   selector keeps the k smallest (distance, id) pairs in a buffer of
   cap = 2k + 16 entries.  A candidate is admitted (a branch-free store
   plus a compare) only if it beats tau, an admission bound that at least
   k kept pairs beat; when the buffer fills, it is cut to its m smallest
   pairs for some m in [k, (cap + k) / 2] -- usually one partition round
   -- and tau tightens.

   A pair is one unsigned 128-bit integer, the order-preserving bit
   pattern of its distance above its id, so (distance, id) order is plain
   integer order.  Distances are doubles (float32 ADC distances convert
   exactly) with -0.0 read as +0.0, the two being equal in NumPy's order;
   NaN sorts last. */

typedef unsigned __int128 pair_t;

static inline pair_t make_pair(double d, long id)
{
    unsigned long long u;
    /* -0.0 reads as +0.0 and every NaN as the one positive quiet NaN,
       whose pattern orders above +inf; every other value is unchanged. */
    d = (d == d) ? d + 0.0 : NAN;
    memcpy(&u, &d, sizeof u);
    /* Flip every bit of a negative double, only the sign of the rest. */
    u ^= (unsigned long long)((long long)u >> 63) | 0x8000000000000000ULL;
    return ((pair_t)u << 64) | (unsigned long long)id;
}

static inline double pair_distance(pair_t p)
{
    unsigned long long u = (unsigned long long)(p >> 64);
    u ^= (u >> 63) ? 0x8000000000000000ULL : ~0ULL;
    double d;
    memcpy(&d, &u, sizeof d);
    return d;
}

static inline long pair_id(pair_t p)
{
    return (long)(unsigned long long)p;
}

typedef struct {
    pair_t *buf, *scratch;  /* cap entries each, one allocation */
    long k, cap, size;
    pair_t tau;             /* admission bound; all ones before the */
                            /* first compaction */
} topk_t;

static void insertion_sort(pair_t *a, long n)
{
    for (long i = 1; i < n; ++i) {
        pair_t v = a[i];
        long j = i;
        while (j > 0 && v < a[j - 1]) {
            a[j] = a[j - 1];
            --j;
        }
        a[j] = v;
    }
}

static long partition_smallest(pair_t *a, long n, long lo_rank, long hi_rank,
                               pair_t *scratch, pair_t *bound)
{
    /* Quickselect down to any split in [lo_rank, hi_rank]: afterwards
       a[0..m) holds the m smallest pairs for the returned m, and *bound is
       the pivot that split them off or, failing that, the largest of them
       -- either way at least lo_rank kept pairs are <= *bound and no
       dropped one is below it.  Pairs are distinct (ids are unique).  Each
       round partitions around a median-of-three pivot out of place and
       without a data-dependent branch: every pair is stored both at the
       low end of a and into scratch, and only the two counts move. */
    long lo = 0, hi = n;
    while (hi - lo > 16) {
        pair_t x = a[lo], y = a[lo + (hi - lo) / 2], z = a[hi - 1], t;
        if (y < x) { t = x; x = y; y = t; }
        if (z < y) { t = y; y = z; z = t; }
        if (y < x) { t = x; x = y; y = t; }
        long n_low = lo, n_high = 0;
        for (long i = lo; i < hi; ++i) {
            pair_t v = a[i];
            long low = v < y;
            a[n_low] = v;
            scratch[n_high] = v;
            n_low += low;
            n_high += 1 - low;
        }
        memcpy(a + n_low, scratch, (size_t)n_high * sizeof(pair_t));
        /* x lands low, y and z high: both sides shrink. */
        if (n_low >= lo_rank && n_low <= hi_rank) {
            *bound = y;
            return n_low;
        }
        if (n_low > hi_rank)
            hi = n_low;
        else
            lo = n_low;
    }
    /* lo < lo_rank <= hi: sort what is left and split after lo_rank. */
    insertion_sort(a + lo, hi - lo);
    *bound = a[lo_rank - 1];
    return lo_rank;
}

static void sort_pairs(pair_t *a, long n, pair_t *scratch)
{
    /* Ascending: a median split and each half in turn, insertion sort on
       short runs. */
    pair_t bound;
    while (n > 16) {
        long half = n / 2;
        partition_smallest(a, n, half, half, scratch, &bound);
        sort_pairs(a, half, scratch);
        a += half;
        n -= half;
    }
    insertion_sort(a, n);
}

static int topk_init(topk_t *t, long k)
{
    t->k = k;
    t->cap = 2 * k + 16;
    t->buf = (pair_t *)malloc(2 * (size_t)t->cap * sizeof(pair_t));
    t->scratch = t->buf + t->cap;
    return t->buf == NULL;
}

static inline void topk_reset(topk_t *t)
{
    t->size = 0;
    t->tau = ~(pair_t)0;
}

static void topk_offer(topk_t *t, const double *d, long n, const long *ids, long first_id)
{
    /* Offer n candidates: d[i] with id ids[i] (or first_id + i when ids
       is NULL).  Per chunk of 64, one vectorised pass masks the
       candidates whose distance is not above tau's (NaN included); only
       those are pushed.  The hot state lives in locals. */
    pair_t *buf = t->buf, tau = t->tau;
    long size = t->size, cap = t->cap;
    double tau_d = pair_distance(tau);
    for (long cs = 0; cs < n; cs += 64) {
        long cn = (n - cs < 64) ? n - cs : 64;
        unsigned long long mask = 0;
        for (long i = 0; i < cn; ++i)
            mask |= (unsigned long long)!(d[cs + i] > tau_d) << i;
        while (mask) {
            long i = cs + __builtin_ctzll(mask);
            mask &= mask - 1;
            pair_t v = make_pair(d[i], ids ? ids[i] : first_id + i);
            buf[size] = v;  /* size < cap here: the slot is in bounds */
            size += v < tau;
            if (size == cap) {
                size = partition_smallest(buf, size, t->k, (cap + t->k) / 2,
                                          t->scratch, &tau);
                tau_d = pair_distance(tau);
            }
        }
    }
    t->size = size;
    t->tau = tau;
}

static long topk_select(topk_t *t)
{
    /* Leaves the kept pairs, in no order, in buf[0..n) and returns n. */
    pair_t bound;
    long n = t->size;
    if (n > t->k)
        n = partition_smallest(t->buf, n, t->k, t->k, t->scratch, &bound);
    return n;
}

static long topk_finish(topk_t *t)
{
    /* Leaves the kept pairs ascending in buf[0..n) and returns n. */
    long n = topk_select(t);
    sort_pairs(t->buf, n, t->scratch);
    return n;
}

/* ------------------------------------------------------------------ */

#define ROW_BLOCK 256

int exact_search_topk(long n_queries, long n_rows, long k,
                      const double *ip, const double *qsq, const double *vsq,
                      double *out_d, long *out_ids)
{
    /* Exact top-k over the GEMM block ip = queries @ vectors.T (row-major,
       n_queries x n_rows): each distance is ((ip * -2) + |q|^2) + |v|^2,
       NumPy's operation order, formed in a ROW_BLOCK scratch and offered
       to the selector, so the block is read once and never written.
       Returns 2 when a distance is NaN (which the (distance, column)
       order does not cover); the caller then runs the NumPy scan. */
    topk_t t;
    double dist[ROW_BLOCK];
    long nan_seen = 0;
    if (topk_init(&t, k))
        return 1;
    for (long q = 0; q < n_queries; ++q) {
        const double *row = ip + q * n_rows;
        double qs = qsq[q];
        topk_reset(&t);
        for (long bs = 0; bs < n_rows; bs += ROW_BLOCK) {
            long bn = (n_rows - bs < ROW_BLOCK) ? n_rows - bs : ROW_BLOCK;
            for (long i = 0; i < bn; ++i) {
                double d = ((row[bs + i] * -2.0) + qs) + vsq[bs + i];
                dist[i] = d;
                nan_seen |= d != d;
            }
            topk_offer(&t, dist, bn, NULL, bs);
        }
        long n = topk_finish(&t);
        for (long i = 0; i < n; ++i) {
            out_d[q * k + i] = pair_distance(t.buf[i]);
            out_ids[q * k + i] = pair_id(t.buf[i]);
        }
    }
    free(t.buf);
    return nan_seen ? 2 : 0;
}

/* x - x is 0 for a finite x and NaN for inf or NaN. */
#define NONFINITE(x) (!((x) - (x) == 0.0))

static int quantize_lut(long len, const double *table, unsigned char *lut,
                        float *scale_out, float *bias_out)
{
    /* One query's uint8 LUT, as ProductQuantizer.quantized_query_tables
       forms it in float64: bias = min + 0.0 (a zero minimum reads as
       +0.0, whichever zero a reduction keeps), scale = (max - bias) / 255
       (1 when zero), then rint((t - bias) / scale) clipped to [0, 255].
       The minimum and maximum do not depend on the order they are taken
       in, so 32 lanes of accumulators take them.  Returns 1 when the
       entries' sum is not finite: on any inf or NaN entry (and on a
       finite sum that overflows, which only costs a NumPy answer). */
    double lo[32], hi[32], sum[32];
    for (int l = 0; l < 32; ++l) {
        lo[l] = hi[l] = table[0];
        sum[l] = 0.0;
    }
    long i = 0;
    for (; i + 32 <= len; i += 32)
        for (int l = 0; l < 32; ++l) {
            double v = table[i + l];
            lo[l] = v < lo[l] ? v : lo[l];
            hi[l] = v > hi[l] ? v : hi[l];
            sum[l] += v;
        }
    for (; i < len; ++i) {
        double v = table[i];
        lo[0] = v < lo[0] ? v : lo[0];
        hi[0] = v > hi[0] ? v : hi[0];
        sum[0] += v;
    }
    for (int l = 1; l < 32; ++l) {
        lo[0] = lo[l] < lo[0] ? lo[l] : lo[0];
        hi[0] = hi[l] > hi[0] ? hi[l] : hi[0];
        sum[0] += sum[l];
    }
    if (NONFINITE(sum[0]))
        return 1;
    double bias = lo[0] + 0.0;
    double scale = (hi[0] - bias) / 255.0;
    if (scale == 0.0)
        scale = 1.0;
    /* Dividing is the cost, so multiply by 1 / scale first: that
       quotient is within ~1e-13 of the divided one (both < 256), so the
       two round to the same integer unless it lies within 1e-9 of a .5
       -- then (in practice only on hand-made tables) the row divides. */
    double inv = 1.0 / scale;
    int near_half = 0;
    for (i = 0; i < len; ++i) {
        double x = (table[i] - bias) * inv;
        double r = rint(x);
        near_half |= !(fabs(x - r) < 0.5 - 1e-9);
        r = r < 0.0 ? 0.0 : r;
        r = r > 255.0 ? 255.0 : r;
        lut[i] = (unsigned char)(int)r;
    }
    for (i = 0; near_half && i < len; ++i) {
        double r = rint((table[i] - bias) / scale);
        r = r < 0.0 ? 0.0 : r;
        r = r > 255.0 ? 255.0 : r;
        lut[i] = (unsigned char)(int)r;
    }
    *scale_out = (float)scale;
    *bias_out = (float)bias;
    return 0;
}

int quantize_tables(long n_queries, long len, const double *tables,
                    unsigned char *lut, float *scale, float *bias)
{
    /* quantize_lut over a block of queries (the kernel tests' view). */
    for (long q = 0; q < n_queries; ++q)
        if (quantize_lut(len, tables + q * len, lut + q * len, scale + q, bias + q))
            return 2;
    return 0;
}

int ivfpq_search_topk(long n_queries, long n_cells, long n_probe, long m, long k_sub,
                      long packed, long n_select, long k, long n_rows, long dim,
                      long vectors_f32,
                      const double *coarse, const double *tables,
                      const long *cell_starts, const long *members,
                      const float *consts, const unsigned char *codes_t,
                      const double *queries, const double *qsq,
                      const void *vectors, const double *vsq,
                      double *out_d, long *out_ids)
{
    /* The whole IVF-PQ search of a query chunk, per query:
       1. probes: the n_probe cells nearest by (coarse distance, cell), or
          every cell when those hold fewer than k members;
       2. the uint8 LUT of the query's float64 tables (quantize_lut);
       3. the ADC scan of the probed cells and its n_select best
          (distance, id) pairs;
       4. with vectors (rerank > 0), the exact distance of each of those,
          ((ip * -2) + |q|^2) + |v|^2 with ip summed over the dimensions
          left to right, and its k best (distance, id) pairs; without,
          the k best ADC pairs;
       5. square roots (clamped at 0), ordered by (distance, id).
       out_d/out_ids are (n_queries, k).  Returns 1 when a buffer cannot
       be allocated and 2 on a non-finite coarse distance, table entry
       (or table sum), ADC distance or exact distance, which the
       (distance, id) order does not cover; the caller then runs the
       NumPy scan. */
    topk_t probes = {0}, pool = {0}, best = {0};
    unsigned int sums[BLOCK];
    double adc[BLOCK];
    long adc_ids[BLOCK];
    long lut_len = m * k_sub;
    long probe_k = n_probe < n_cells ? n_probe : n_cells;
    unsigned char *lut = (unsigned char *)malloc((size_t)lut_len);
    long *probe = (long *)malloc((size_t)n_cells * sizeof(long));
    long *pool_ids = (long *)malloc((size_t)n_select * sizeof(long));
    double *exact = (double *)malloc((size_t)n_select * sizeof(double));
    double *block = vectors ? (double *)malloc((size_t)(n_select * dim) * sizeof(double)) : NULL;
    int status = 0;
    if (topk_init(&probes, probe_k) | topk_init(&pool, n_select) | topk_init(&best, k)
        || !lut || !probe || !pool_ids || !exact || (vectors && !block)) {
        status = 1;
        goto done;
    }
    float mf = (float)m;
    for (long q = 0; q < n_queries; ++q) {
        const double *crow = coarse + q * n_cells;
        int bad = 0;
        for (long c = 0; c < n_cells; ++c)
            bad |= NONFINITE(crow[c]);
        float sq, bq;
        if (bad || quantize_lut(lut_len, tables + q * lut_len, lut, &sq, &bq)) {
            status = 2;
            break;
        }

        long n_probed = n_cells;
        if (probe_k < n_cells) {
            topk_reset(&probes);
            topk_offer(&probes, crow, n_cells, NULL, 0);
            n_probed = topk_select(&probes);
            long covered = 0;
            for (long p = 0; p < n_probed; ++p) {
                probe[p] = pair_id(probes.buf[p]);
                covered += cell_starts[probe[p] + 1] - cell_starts[probe[p]];
            }
            if (covered < k)
                n_probed = n_cells;  /* a short probe: scan every cell */
        }
        if (n_probed == n_cells)
            for (long c = 0; c < n_cells; ++c)
                probe[c] = c;

        /* Small cells share one block of ADC distances, offered to the
           select when the next cell's rows would overflow it. */
        topk_reset(&pool);
        long filled = 0;
        for (long p = 0; p < n_probed; ++p) {
            long cell = probe[p];
            float base = (float)crow[cell];
            long end = cell_starts[cell + 1];
            for (long bs = cell_starts[cell]; bs < end; bs += BLOCK) {
                long bn = (end - bs < BLOCK) ? end - bs : BLOCK;
                if (filled + bn > BLOCK) {
                    topk_offer(&pool, adc, filled, adc_ids, 0);
                    filled = 0;
                }
                if (packed)
                    scan_packed(bn, m, k_sub, n_rows, codes_t + bs, lut, sums);
                else
                    scan_u8(bn, m, k_sub, n_rows, codes_t + bs, lut, sums);
                for (long i = 0; i < bn; ++i) {
                    /* adc = (coarse + const) - 2 (scale sum + m bias),
                       float32 in exactly NumPy's operation order. */
                    float a = base + consts[bs + i];
                    a -= 2.0f * (sq * (float)sums[i] + mf * bq);
                    adc[filled + i] = (double)a;
                    adc_ids[filled + i] = members[bs + i];
                    bad |= NONFINITE(a);
                }
                filled += bn;
            }
        }
        topk_offer(&pool, adc, filled, adc_ids, 0);
        long n = topk_select(&pool);

        pair_t *ranked = pool.buf;
        long n_ranked = n;
        if (vectors) {
            /* Gather the pool's rows transposed, (dim, n), so that the
               inner products accumulate across the pool one dimension at
               a time: each stays a left-to-right sum. */
            const double *qv = queries + q * dim;
            for (long i = 0; i < n; ++i) {
                long id = pair_id(pool.buf[i]);
                pool_ids[i] = id;
                if (vectors_f32) {
                    const float *row = (const float *)vectors + id * dim;
                    for (long d = 0; d < dim; ++d)
                        block[d * n + i] = (double)row[d];
                } else {
                    const double *row = (const double *)vectors + id * dim;
                    for (long d = 0; d < dim; ++d)
                        block[d * n + i] = row[d];
                }
            }
            for (long i = 0; i < n; ++i)
                exact[i] = qv[0] * block[i];
            for (long d = 1; d < dim; ++d) {
                double x = qv[d];
                const double *col = block + d * n;
                for (long i = 0; i < n; ++i)
                    exact[i] += x * col[i];
            }
            double qs = qsq[q];
            for (long i = 0; i < n; ++i) {
                exact[i] = ((exact[i] * -2.0) + qs) + vsq[pool_ids[i]];
                bad |= NONFINITE(exact[i]);
            }
            topk_reset(&best);
            topk_offer(&best, exact, n, pool_ids, 0);
            n_ranked = topk_select(&best);
            ranked = best.buf;
        } else if (n > k) {
            pair_t bound;
            n_ranked = partition_smallest(pool.buf, n, k, k, pool.scratch, &bound);
        }
        if (bad) {
            status = 2;
            break;
        }
        /* The k kept by squared distance are ordered by their square
           roots, which can merge neighbouring distances: ids decide. */
        for (long i = 0; i < n_ranked; ++i) {
            double d = pair_distance(ranked[i]);
            ranked[i] = make_pair(sqrt(d > 0.0 ? d : 0.0), pair_id(ranked[i]));
        }
        sort_pairs(ranked, n_ranked, vectors ? best.scratch : pool.scratch);
        for (long i = 0; i < n_ranked; ++i) {
            out_d[q * k + i] = pair_distance(ranked[i]);
            out_ids[q * k + i] = pair_id(ranked[i]);
        }
    }
done:
    free(probes.buf);
    free(pool.buf);
    free(best.buf);
    free(lut);
    free(probe);
    free(pool_ids);
    free(exact);
    free(block);
    return status;
}

/* ------------------------------------------------------------------
   Quantizer training: the passes that follow each k-means GEMM. */

/* Four doubles per vector, as GCC/Clang vector extensions: the compiler
   picks the instructions, the arithmetic stays IEEE in source order. */
typedef double vec_d __attribute__((vector_size(32)));
typedef long vec_l __attribute__((vector_size(32)));
#define VW 4
#define VACC 4

static inline vec_d load_vec(const double *p)
{
    vec_d v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline double assign_distance(double ip, double xs, double cs)
{
    return ((ip * -2.0) + xs) + cs;
}

void nearest_centroid_pass(long n_rows, long n_cells, const double *ip,
                           const double *xsq, const double *csq,
                           long *cells, double *nearest)
{
    /* Per row of the GEMM block ip = rows @ centroids.T, NumPy's argmin
       and minimum of d = ((ip * -2) + |x|^2) + |c|^2.  Each vector lane
       keeps its first strictly smallest d and that index; the smallest
       of those, ties to the lower index, is the first minimum -- unless a
       NaN came by (the first NaN wins) or nothing was below +inf (then
       index 0). */
    const vec_l lane = {0, 1, 2, 3};
    for (long r = 0; r < n_rows; ++r) {
        const double *row = ip + r * n_cells;
        double xs = xsq[r];
        vec_d lo[VACC];
        vec_l at[VACC], nan_seen = {0, 0, 0, 0};
        for (int a = 0; a < VACC; ++a) {
            lo[a] = (vec_d){INFINITY, INFINITY, INFINITY, INFINITY};
            at[a] = lane;
        }
        long c = 0;
        for (; c + VW * VACC <= n_cells; c += VW * VACC)
            for (int a = 0; a < VACC; ++a) {
                long first = c + a * VW;
                vec_d v = ((load_vec(row + first) * -2.0) + xs) + load_vec(csq + first);
                vec_l lt = v < lo[a];
                lo[a] = (vec_d)((lt & (vec_l)v) | (~lt & (vec_l)lo[a]));
                at[a] = (lt & (lane + first)) | (~lt & at[a]);
                nan_seen |= v != v;
            }
        double m = INFINITY;
        long best = -1, bad = 0;
        for (int l = 0; l < VW; ++l) {
            bad |= nan_seen[l];
            for (int a = 0; a < VACC; ++a)
                if (lo[a][l] < m || (lo[a][l] == m && at[a][l] < best)) {
                    m = lo[a][l];
                    best = at[a][l];
                }
        }
        for (; c < n_cells; ++c) {
            double v = assign_distance(row[c], xs, csq[c]);
            if (v < m) {
                m = v;
                best = c;
            }
            bad |= v != v;
        }
        if (bad) {
            best = 0;
            while (!isnan(assign_distance(row[best], xs, csq[best])))
                ++best;
        } else if (best < 0) {
            best = 0;
        }
        cells[r] = best;
        nearest[r] = assign_distance(row[best], xs, csq[best]);
    }
}

void seed_cover(long n, const double *ip, const double *xsq, double csq,
                double *closest)
{
    /* One k-means++ step's update, NumPy's closest = minimum(closest,
       maximum(d, 0)) with d = ((ip * -2) + |x|^2) + |c|^2: maximum keeps
       d when d > 0 or NaN, else +0.0; minimum keeps closest when it is
       smaller or NaN, else the new distance (ties included). */
    for (long i = 0; i < n; ++i) {
        double d = assign_distance(ip[i], xsq[i], csq);
        d = (d > 0.0 || d != d) ? d : 0.0;
        double c = closest[i];
        closest[i] = (c < d || c != c) ? c : d;
    }
}

long seed_pick(long n, const double *closest, double u)
{
    /* searchsorted(cumsum(closest), u): the first index whose running
       sum is not below u in NumPy's order (NaN last), else n. */
    double run = 0.0;
    for (long i = 0; i < n; ++i) {
        run = i ? run + closest[i] : closest[0];
        if (!(run < u || (u != u && run == run)))
            return i;
    }
    return n;
}
"""

#: -ffp-contract=off: the scale/bias reconstruction must round after every
#: float32 operation exactly like NumPy — a fused multiply-add would keep
#: the intermediate product exact and (rarely) flip the last ulp, breaking
#: the bitwise-identity contract with the fallback scan.
_CFLAGS = ["-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC"]


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
    library.ivfpq_search_topk.argtypes = [c_long] * 11 + [c_addr] * 12
    library.ivfpq_search_topk.restype = ctypes.c_int
    library.exact_search_topk.argtypes = [c_long] * 3 + [c_addr] * 5
    library.exact_search_topk.restype = ctypes.c_int
    library.quantize_tables.argtypes = [c_long] * 2 + [c_addr] * 4
    library.quantize_tables.restype = ctypes.c_int
    library.nearest_centroid_pass.argtypes = [c_long] * 2 + [c_addr] * 5
    library.nearest_centroid_pass.restype = None
    library.seed_cover.argtypes = [c_long, c_addr, c_addr, ctypes.c_double, c_addr]
    library.seed_cover.restype = None
    library.seed_pick.argtypes = [c_long, c_addr, ctypes.c_double]
    library.seed_pick.restype = c_long
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


def check_k(k: int) -> int:
    """``k`` as an int, or ``ValueError`` unless it is at least 1: every
    search checks it before any work, and the kernels size their buffers
    by it."""
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


class IVFPQKernels:
    """ctypes wrappers around the scan kernels: the exact top-k pass and
    the one-call IVF-PQ search pass."""

    def __init__(self, library: ctypes.CDLL) -> None:
        self._lib = library

    def exact_topk(
        self,
        inner: np.ndarray,
        queries_sq: np.ndarray,
        vectors_sq: np.ndarray,
        k: int,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Per row of the GEMM block ``inner = queries @ vectors.T``, the
        ``k`` smallest squared distances ``((inner * -2) + queries_sq) +
        vectors_sq`` as ``(distances, columns)``, ordered by ``(distance,
        column)`` — bitwise what :func:`repro.core.index.top_k_by_distance`
        returns over :func:`repro.core.index.squared_euclidean_distances`.
        ``None`` when a distance is NaN, which that order leaves to NumPy."""
        n_queries, n_rows = inner.shape
        k = check_k(k)
        if k > n_rows or queries_sq.shape != (n_queries,) or vectors_sq.shape != (n_rows,):
            raise ValueError("exact top-k inputs disagree on their shapes")
        out_d = np.empty((n_queries, k), dtype=np.float64)
        out_ids = np.empty((n_queries, k), dtype=np.int64)
        status = self._lib.exact_search_topk(
            n_queries,
            n_rows,
            k,
            _address(inner, np.float64),
            _address(queries_sq, np.float64),
            _address(vectors_sq, np.float64),
            out_d.ctypes.data,
            out_ids.ctypes.data,
        )
        if status == 1:
            raise MemoryError("exact_search_topk could not allocate its top-k buffer")
        return None if status == 2 else (out_d, out_ids)

    def nearest_centroid_pass(
        self,
        gemm: np.ndarray,
        rows_sq: np.ndarray,
        cells_sq: np.ndarray,
        cells: np.ndarray,
        nearest: np.ndarray,
    ) -> Callable[[int, int], None]:
        """The nearest-centroid pass over fixed buffers, checked and
        addressed once: ``assign(start, stop)`` takes the GEMM block of
        rows ``start:stop`` (``rows[start:stop] @ centroids.T``) from the
        head of ``gemm`` and writes each row's nearest centroid into
        ``cells[start:stop]`` (int64) and its squared distance into
        ``nearest[start:stop]``: the ``argmin`` (first minimum, or first
        NaN) and the minimum of ``((gemm * -2) + rows_sq) + cells_sq`` —
        bitwise what NumPy's ``argmin`` and ``take_along_axis`` return over
        :func:`repro.core.index.squared_euclidean_distances`."""
        block_rows, n_cells = gemm.shape
        n_rows = rows_sq.shape[0]
        if (
            n_cells < 1
            or cells_sq.shape != (n_cells,)
            or not rows_sq.shape == cells.shape == nearest.shape == (n_rows,)
        ):
            raise ValueError("nearest-centroid inputs disagree on their shapes")
        arrays = (gemm, rows_sq, cells_sq, cells, nearest)
        g, xs, cs, out_cells, out_nearest = (
            _address(array, dtype)
            for array, dtype in zip(arrays, (np.float64,) * 3 + (np.int64, np.float64))
        )
        run = self._lib.nearest_centroid_pass

        # Each step holds the arrays its addresses point into (``_keep``);
        # every per-row buffer has 8-byte entries.
        def assign(start: int, stop: int, _keep=arrays) -> None:
            if not 0 <= start <= stop <= min(n_rows, start + block_rows):
                raise ValueError(f"rows {start}:{stop} fall outside the pass's buffers")
            offset = 8 * start
            run(stop - start, n_cells, g, xs + offset, cs, out_cells + offset, out_nearest + offset)

        return assign

    def seeding(
        self, gemv: np.ndarray, rows_sq: np.ndarray, closest: np.ndarray
    ) -> Tuple[Callable[[float], None], Callable[[float], int]]:
        """The two k-means++ steps over fixed buffers, checked and addressed
        once.  ``cover(seed_sq)`` folds a new seed into ``closest`` in
        place — ``closest = minimum(closest, maximum(d, 0))`` with ``d =
        ((gemv * -2) + rows_sq) + seed_sq`` and ``gemv`` the rows' GEMV
        against the seed — bitwise NumPy's, NaN and signed zeros included.
        ``pick(u)`` is the D^2 pick ``searchsorted(cumsum(closest), u)``:
        one sequential running sum that stops where it reaches ``u``."""
        n = closest.shape[0]
        if gemv.shape != (n,) or rows_sq.shape != (n,):
            raise ValueError("k-means++ inputs disagree on their shapes")
        arrays = (gemv, rows_sq, closest)
        g, xs, cl = (_address(array, np.float64) for array in arrays)
        lib = self._lib

        # Each step holds the arrays its addresses point into (``_keep``).
        def cover(seed_sq: float, _keep=arrays) -> None:
            lib.seed_cover(n, g, xs, seed_sq, cl)

        def pick(u: float, _keep=arrays) -> int:
            return lib.seed_pick(n, cl, u)

        return cover, pick

    def search_topk(
        self,
        *,
        coarse: np.ndarray,
        tables: np.ndarray,
        layout: ScanLayout,
        n_probe: int,
        packed: bool,
        n_select: int,
        k: int,
        queries: Optional[np.ndarray] = None,
        queries_sq: Optional[np.ndarray] = None,
        vectors: Optional[np.ndarray] = None,
        vectors_sq: Optional[np.ndarray] = None,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The IVF-PQ search of one query chunk over ``layout``, in one call.

        Per query: the ``coarse`` row (float64 squared distances to every
        centroid) picks the ``n_probe`` nearest cells by ``(distance,
        cell)``, or every cell when those hold fewer than ``k`` members;
        the float64 ``(m, k_sub)`` ``tables`` row is quantised to uint8
        exactly as :meth:`repro.core.index.ProductQuantizer.quantized_query_tables`
        does; the ADC scan keeps the ``n_select`` best ``(distance, id)``
        pairs.  With ``vectors`` (float32 or float64 rows, their squared
        norms ``vectors_sq`` and the chunk's ``queries`` / ``queries_sq``)
        those are re-scored exactly and the ``k`` best kept; without, the
        ``k`` best ADC pairs are.  Returns ``(distances, ids)``, each
        ``(n_queries, k)``: square-rooted distances, rows ordered by
        ``(distance, id)``.  ``None`` when a coarse distance, table entry
        (or a table's sum) or distance is not finite, which that order
        leaves to NumPy.
        """
        n_queries, n_cells = coarse.shape
        _, m, k_sub = tables.shape
        k = check_k(k)
        n_select = check_k(n_select)
        rerank = vectors is not None
        if (
            tables.shape[0] != n_queries
            or n_select < k
            or n_probe < 1
            or not 1 <= k <= layout.n_rows
            or layout.arrays[0].shape != (n_cells + 1,)
            or layout.code_width != ((m + 1) // 2 if packed else m)
        ):
            raise ValueError("native scan inputs disagree on their shapes")
        dim, vectors_f32, rerank_addresses = 0, 0, (None, None, None, None)
        if rerank:
            dim = vectors.shape[1]
            vectors_f32 = int(vectors.dtype == np.float32)
            if (
                vectors.shape[0] != layout.n_rows
                or vectors_sq.shape != (layout.n_rows,)
                or queries.shape != (n_queries, dim)
                or queries_sq.shape != (n_queries,)
            ):
                raise ValueError("native re-rank inputs disagree on their shapes")
            rerank_addresses = (
                _address(queries, np.float64),
                _address(queries_sq, np.float64),
                _address(vectors, np.float32 if vectors_f32 else np.float64),
                _address(vectors_sq, np.float64),
            )
        out_d = np.empty((n_queries, k), dtype=np.float64)
        out_ids = np.empty((n_queries, k), dtype=np.int64)
        cell_starts, members, consts, codes_t = layout.addresses
        status = self._lib.ivfpq_search_topk(
            n_queries,
            n_cells,
            int(n_probe),
            m,
            k_sub,
            1 if packed else 0,
            n_select,
            k,
            layout.n_rows,
            dim,
            vectors_f32,
            _address(coarse, np.float64),
            _address(tables, np.float64),
            cell_starts,
            members,
            consts,
            codes_t,
            *rerank_addresses,
            out_d.ctypes.data,
            out_ids.ctypes.data,
        )
        if status == 1:
            raise MemoryError("ivfpq_search_topk could not allocate its scan buffers")
        return None if status == 2 else (out_d, out_ids)

    def quantized_tables(
        self, tables: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(lut_u8, scale, bias)`` of float64 ``(n, m, k_sub)`` tables as
        the search pass quantises them — byte for byte what
        :meth:`repro.core.index.ProductQuantizer.quantized_query_tables`
        returns — or ``None`` on a non-finite entry.  Exposed for the
        kernel unit tests."""
        n_queries, m, k_sub = tables.shape
        lut = np.empty((n_queries, m, k_sub), dtype=np.uint8)
        scale = np.empty(n_queries, dtype=np.float32)
        bias = np.empty(n_queries, dtype=np.float32)
        status = self._lib.quantize_tables(
            n_queries,
            m * k_sub,
            _address(tables, np.float64),
            lut.ctypes.data,
            scale.ctypes.data,
            bias.ctypes.data,
        )
        return None if status else (lut, scale, bias)

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


def _build_kernels() -> Optional["IVFPQKernels"]:
    library = _build_library()
    return IVFPQKernels(library) if library is not None else None


# Shards train on their own threads: the latch makes the first callers wait
# for one build rather than read a half-finished one as "no kernels".
_latch = kernel_cache.KernelLatch(_build_kernels)


def ivfpq_kernels() -> Optional[IVFPQKernels]:
    """The compiled kernels, or ``None`` when unavailable (NumPy fallback).

    The first call compiles (or loads the cached ``.so``); failures of any
    kind — no compiler, unwritable cache, bad toolchain — latch to ``None``
    for the rest of the process.  ``REPRO_DISABLE_KERNELS`` disables the
    build entirely, as it does for every :class:`~repro.kernel_cache.KernelLatch`.
    """
    return _latch()


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
