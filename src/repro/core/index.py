"""Nearest-neighbour query engines for the reference store.

The paper's scaling story (Table 2) depends on classification staying cheap
as the monitored set grows, and its adaptation story on page updates
costing O(changed rows).  This module is the pluggable index layer the
:class:`~repro.core.reference_store.ReferenceStore` queries through: two
engines, an exact oracle and an inverted file of product-quantized codes.

* **Exact oracle** — :class:`ExactIndex`: one distance GEMM against the
  row norms it keeps, then the native bounded top-k select of
  :mod:`repro.core.kernels` when it built, else :func:`top_k_by_distance`
  (``argpartition``); the default, bit-identical to a full sorted distance
  scan either way, and the reference every equivalence suite compares the
  other engine against.
* **IVF-PQ** — :class:`IVFPQIndex` (``ivfpq``): references are bucketed
  into k-means cells (k-means++ seeding) and a query scans only the
  ``n_probe`` cells with the nearest centroids, so query time grows
  sublinearly in the store size.  ``add`` assigns to the nearest
  *existing* cell and ``remove`` compacts — never k-means, so
  retraining-free adaptation keeps its cost profile.  A cell member is
  stored as the **product-quantized residual** ``x - centroid`` —
  ``n_subspaces`` codes into per-subspace codebooks
  (:class:`ProductQuantizer`; :class:`PackedPQ` packs 4-bit codes two per
  byte beside slim uint16/float16/float32 side structures) — and scored by
  asymmetric distance computation: uint8 gathers from a per-query lookup
  table, at ~16-64x less index memory per vector.  An optional exact
  re-rank of the ``rerank`` best ADC candidates restores exact
  ``(distance, id)`` rankings over that pool (full probe + the default 64
  at ``k <= 10`` matches :class:`ExactIndex`).  With the C kernels of
  :mod:`repro.core.kernels` built, the whole search of a query chunk past
  its two GEMMs is one native call; else the bitwise-identical NumPy scan
  runs.  Rows encoded after training feed a drift statistic
  (:meth:`IVFPQIndex.drift_ratio` / ``retrain_needed`` / ``retrain``)
  behind the serving layer's zero-downtime ``requantize()`` swap.

Indexes never copy the reference vectors: the store owns the (amortised)
embedding matrix and passes it to ``search``; an index only maintains its
own side structures (centroids, cell assignments, PQ codes).  Ids are row
numbers in the store's matrix, and ``remove`` renumbers them after the
store compacts.

All searches return neighbours ordered by ``(distance, id)`` ascending,
which is exactly the order of a stable argsort over the full distance row —
the property the classifier's tie-breaking relies on.  Every such order is
built the same way: a stable argsort by id (or columns already in id
order), then a stable argsort by distance (:func:`top_k_by_distance`,
:func:`sort_by_distance`), never a 2-D ``lexsort``.

Every distance here is euclidean, the distance the embedding model's
contrastive loss is trained under: searches rank on squared distances
(:func:`squared_euclidean_distances`, one BLAS GEMM) and square-root only
the selected top-k.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core import kernels as scan_kernels
from repro.obs import tracing as obs_tracing


def squared_euclidean_distances(
    queries: np.ndarray,
    vectors: np.ndarray,
    vectors_sq: Optional[np.ndarray] = None,
    queries_sq: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared euclidean distances (may be ulp-negative; rank-equivalent).

    Searches rank on these directly and only square-root the selected
    top-k, saving two full passes over the (queries, N) matrix.  Either
    side's squared row norms may be passed in by a caller that reuses them.
    """
    if vectors_sq is None:
        vectors_sq = np.einsum("ij,ij->i", vectors, vectors)
    if queries_sq is None:
        queries_sq = np.einsum("ij,ij->i", queries, queries)
    d2 = queries @ vectors.T
    d2 *= -2.0
    d2 += queries_sq[:, None]
    d2 += vectors_sq[None, :]
    return d2


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row as float64: the ``einsum``
    :func:`squared_euclidean_distances` runs, widened exactly (float32 rows
    give float32 norms, which NumPy widens the same way when it adds them)."""
    return np.einsum("ij,ij->i", rows, rows).astype(np.float64, copy=False)


def _kernels_built() -> bool:
    """Whether the native scan kernels built: scans dispatch to them
    exactly then."""
    return scan_kernels.ivfpq_kernels() is not None


def _sqrt_clamped(d2: np.ndarray) -> np.ndarray:
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2, out=d2)


#: Rows per block of a nearest-centroid pass: k-means, cell assignment and
#: PQ encoding never hold more than this many rows of the ``(rows,
#: n_cells)`` float64 distance matrix (512 x 637 coarse cells is 2.6 MB).
_ASSIGN_BLOCK_ROWS = 512


def _training_kernels(*arrays: np.ndarray) -> Optional[scan_kernels.IVFPQKernels]:
    """The native kernels when a training pass over ``arrays`` runs in
    float64 — the precision their passes are written in — else ``None``."""
    if all(array.dtype.kind == "f" for array in arrays) and np.result_type(*arrays) == np.float64:
        return scan_kernels.ivfpq_kernels()
    return None


def _nearest_centroids(
    vectors: np.ndarray,
    centroids: np.ndarray,
    centroids_sq: Optional[np.ndarray] = None,
    vectors_sq: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(cells, squared distances)``: each row's nearest centroid — the
    ``argmin`` and minimum of every row of
    :func:`squared_euclidean_distances`, computed :data:`_ASSIGN_BLOCK_ROWS`
    rows at a time with the row norms computed once per call (or passed
    in).  With the native kernels, BLAS writes each block's GEMM into one
    reused buffer and one C pass forms the distances and their minimum."""
    n = vectors.shape[0]
    if vectors_sq is None:
        vectors_sq = np.einsum("ij,ij->i", vectors, vectors)
    if centroids_sq is None:
        centroids_sq = np.einsum("ij,ij->i", centroids, centroids)
    cells = np.empty(n, dtype=np.int64)
    nearest = np.empty(n, dtype=np.float64)
    kernels = _training_kernels(vectors, centroids)
    if kernels is not None and n:
        # float32 norms widen exactly, as NumPy widens them when it adds.
        rows_sq = vectors_sq.astype(np.float64, copy=False)
        cells_sq = centroids_sq.astype(np.float64, copy=False)
        gemm = np.empty((min(n, _ASSIGN_BLOCK_ROWS), centroids.shape[0]))
        assign = kernels.nearest_centroid_pass(gemm, rows_sq, cells_sq, cells, nearest)
        for start in range(0, n, _ASSIGN_BLOCK_ROWS):
            stop = min(start + _ASSIGN_BLOCK_ROWS, n)
            np.matmul(vectors[start:stop], centroids.T, out=gemm[: stop - start])
            assign(start, stop)
        return cells, nearest
    for start in range(0, n, _ASSIGN_BLOCK_ROWS):
        rows = slice(start, start + _ASSIGN_BLOCK_ROWS)
        block = squared_euclidean_distances(
            vectors[rows], centroids, centroids_sq, vectors_sq[rows]
        )
        block_cells = block.argmin(axis=1)
        cells[rows] = block_cells
        nearest[rows] = np.take_along_axis(block, block_cells[:, None], axis=1)[:, 0]
    return cells, nearest


def _row_offsets(n_rows: int, n_cols: int) -> np.ndarray:
    """Flat index of each row's first entry in a C-contiguous ``(n_rows,
    n_cols)`` block, as a column: ``block.take(columns + offsets)`` gathers
    per-row columns (cheaper than 2-D fancy indexing)."""
    return np.arange(0, n_rows * n_cols, n_cols)[:, None]


def top_k_by_distance(distances: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k smallest entries per row as ``(distances, columns)``, ordered
    by ``(distance, column)`` — exactly the first ``k`` columns of a stable
    argsort of each row, at partition cost.

    The query path's one ordering primitive: ``argpartition`` picks each
    row's ``k`` candidates, they are sorted by column and then
    stable-argsorted by distance (the order ``lexsort((columns,
    distances))`` gives, without a 2-D lexsort), and both outputs are
    gathered with flat ``take``s.  ``argpartition`` may pick the wrong
    members of a tie set straddling the k-th position; those (rare) rows
    are redone with a full stable argsort.
    """
    distances = np.ascontiguousarray(distances)
    n_rows, n_cols = distances.shape
    if k >= n_cols:
        order = np.argsort(distances, axis=1, kind="stable")
        return distances.take(order + _row_offsets(n_rows, n_cols)), order

    cand = np.sort(np.argpartition(distances, k - 1, axis=1)[:, :k], axis=1)
    cand_d = distances.take(cand + _row_offsets(n_rows, n_cols))
    order = np.argsort(cand_d, axis=1, kind="stable") + _row_offsets(n_rows, k)
    idx = cand.take(order)
    dist = cand_d.take(order)

    # Every candidate is <= the k-th selected distance and every other
    # column >= it, so more than k values <= it means a tie at the boundary.
    tied = (distances <= dist[:, -1:]).sum(axis=1) > k
    for row in np.flatnonzero(tied):
        full = np.argsort(distances[row], kind="stable")[:k]
        idx[row] = full
        dist[row] = distances[row, full]
    return dist, idx


def sort_by_distance(
    distances: np.ndarray, ids: np.ndarray, k: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's first ``k`` (default: all) ``(distance, id)`` pairs in
    ascending order, as ``(distances, ids)`` — for blocks whose ids are not
    their column numbers (a cell scan's rows, a shard merge's global ids).

    A stable argsort by distance settles every row without equal
    distances, and costs little on the inputs it gets: sorted runs, which
    timsort merges.  Rows where equal distances meet are redone with the
    :func:`top_k_by_distance` idiom, a stable argsort by id and then a
    stable argsort by distance.
    """
    distances = np.ascontiguousarray(distances)
    ids = np.ascontiguousarray(ids)
    offsets = _row_offsets(*distances.shape)
    order = np.argsort(distances, axis=1, kind="stable") + offsets
    ordered = distances.take(order)
    tied = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if tied.size:
        by_id = np.argsort(ids[tied], axis=1, kind="stable") + offsets[tied]
        by_distance = np.argsort(distances.take(by_id), axis=1, kind="stable")
        order[tied] = by_id.take(by_distance + _row_offsets(*by_id.shape))
    order = order[:, :k]
    return distances.take(order), ids.take(order)


def _top_k_pairs(
    distances: np.ndarray, ids: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's ``k`` smallest ``(distance, id)`` pairs in ascending order,
    as ``(distances, ids)`` — :func:`top_k_by_distance` for blocks whose
    ids are not their column numbers, so a tie set straddling the k-th
    place keeps its smallest ids, never the leftmost columns.

    ``argpartition`` picks each row's ``k`` candidates; a row holding
    exactly ``k`` values at or below the k-th has one such set, which
    :func:`sort_by_distance` orders.  Rows with more (a tie at the
    boundary) are redone over the whole row.
    """
    distances = np.ascontiguousarray(distances)
    ids = np.ascontiguousarray(ids)
    n_rows, n_cols = distances.shape
    if k >= n_cols:
        return sort_by_distance(distances, ids)
    cand = np.argpartition(distances, k - 1, axis=1)[:, :k] + _row_offsets(n_rows, n_cols)
    dist, out_ids = sort_by_distance(distances.take(cand), ids.take(cand))
    tied = np.flatnonzero((distances <= dist[:, -1:]).sum(axis=1) > k)
    if tied.size:
        dist[tied], out_ids[tied] = sort_by_distance(distances[tied], ids[tied], k)
    return dist, out_ids


def _pool_distances(
    queries: np.ndarray, queries_sq: np.ndarray, pool: np.ndarray, pool_sq: np.ndarray
) -> np.ndarray:
    """Exact squared distances from each query to its own ``(queries, width,
    dim)`` pool of rows: ``((ip * -2) + |q|^2) + |v|^2``, the exact
    engine's formula, with each inner product ``ip`` summed over the
    dimensions left to right.  That is the order the native re-rank of
    :func:`repro.core.kernels.IVFPQKernels.search_topk` sums in (einsum's
    and BLAS's orders are unspecified), so the two agree bit for bit."""
    ip = queries[:, None, 0] * pool[:, :, 0]
    for j in range(1, queries.shape[1]):
        ip += queries[:, None, j] * pool[:, :, j]
    ip *= -2.0
    ip += queries_sq[:, None]
    ip += pool_sq
    return ip


def _smallest_pairs_subset(seg_d: np.ndarray, seg_i: np.ndarray, n_select: int) -> np.ndarray:
    """Positions of the ``n_select`` smallest ``(distance, id)`` pairs (unordered).

    ``argpartition`` alone picks an *arbitrary* subset of the values tied
    at the selection boundary; resolving the tie set by smallest id makes
    the selected set deterministic under the (distance, id) total order —
    exactly the set the native kernels' bounded select keeps, which is
    what lets kernels-on and kernels-off agree bit for bit.  NaN (a NaN
    query; the native scan hands such a chunk to NumPy) sorts last, its
    ties also resolved by smallest id.
    """
    part = np.argpartition(seg_d, n_select - 1)[:n_select]
    kth = seg_d[part].max()
    if np.isnan(kth):
        below = np.flatnonzero(~np.isnan(seg_d))
        tied = np.flatnonzero(np.isnan(seg_d))
    else:
        below = np.flatnonzero(seg_d < kth)
        tied = np.flatnonzero(seg_d == kth)
    need = n_select - below.size
    if need < tied.size:
        keep = np.argpartition(seg_i[tied], need - 1)[:need]
        tied = tied[keep]
    return np.concatenate([below, tied])


class NearestNeighbourIndex:
    """API every reference-store index implements.

    ``vectors`` is always the store's *current* embedding matrix (the first
    ``N`` rows of its buffer); the index must treat row numbers as ids.
    """

    def rebuild(self, vectors: np.ndarray) -> None:
        """(Re)build side structures from scratch for ``vectors``."""
        raise NotImplementedError

    def add(self, vectors: np.ndarray, n_new: int) -> None:
        """Account for ``n_new`` rows appended at the tail of ``vectors``."""
        raise NotImplementedError

    def remove(self, kept_mask: np.ndarray) -> None:
        """Account for row removal; ``kept_mask`` is over the *old* ids and
        surviving rows are renumbered in mask order (store compaction)."""
        raise NotImplementedError

    def search(self, vectors: np.ndarray, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, ids)`` of the k nearest rows, (distance, id)-ordered."""
        raise NotImplementedError

    def spec(self) -> Dict[str, object]:
        """JSON-serialisable description, for deployment persistence."""
        raise NotImplementedError

    def state(self) -> Dict[str, np.ndarray]:
        """Trained side structures as named arrays (empty if stateless).

        Together with :meth:`spec` this fully reconstructs the index without
        retraining: deployments persist the arrays next to the embeddings
        and shared-memory workers attach them instead of re-running k-means.
        """
        return {}

    def load_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`state` arrays into a fresh index built from spec."""
        if state:
            raise ValueError(f"{type(self).__name__} holds no trained state")

    def memory_bytes(self) -> int:
        """Resident bytes of the index's own side structures."""
        return 0

    @property
    def needs_vectors(self) -> bool:
        """Whether ``search`` must be handed the raw embedding matrix.

        ``False`` lets the serving layer publish only :meth:`state` (codes +
        codebooks) into shared memory instead of the raw float matrix.
        """
        return True

    def kernels_active(self) -> bool:
        """Whether searches dispatch to the fused native C kernels.

        :class:`ExactIndex` and :class:`IVFPQIndex` report whether their
        top-k and ADC scan run natively.  Telemetry (the per-shard ``native=yes|no`` scan
        histograms) reads this.
        """
        return False

    def drift_ratio(self) -> float:
        """How far rows added since training drifted from the training
        distribution (1.0 = no drift signal; quantizing indexes override)."""
        return 1.0

    def retrain_needed(self, *, threshold: float = 1.5, min_samples: int = 64) -> bool:
        """Whether accumulated drift warrants re-training the quantizer.

        Always ``False`` for indexes without trained structures; quantizing
        indexes flag once at least ``min_samples`` post-training rows have
        drifted the reconstruction error past ``threshold`` times the
        train-time baseline.
        """
        return False

    def retrain(self, vectors: np.ndarray, *, sample_size: Optional[int] = None) -> None:
        """Re-train quantizer structures on (a sample of) ``vectors`` and
        re-encode every row, resetting the drift statistics.

        Stateless indexes just :meth:`rebuild`.  ``sample_size`` caps the
        number of training points (the full matrix is still re-encoded).
        """
        self.rebuild(vectors)


class ExactIndex(NearestNeighbourIndex):
    """Brute-force search; linear in N but exact.

    The one side structure is the rows' squared norms, kept through
    ``rebuild``/``add``/``remove`` so a search computes only the query
    norms and one GEMM.  They are not :meth:`state`: an index restored from
    a segment rebuilds them over the published vectors.  An index never
    built (``ExactIndex().search(...)``) keeps nothing and takes the norms
    of whatever rows each search is handed.
    """

    def __init__(self) -> None:
        self._sq: Optional[np.ndarray] = None  # None until built

    def rebuild(self, vectors: np.ndarray) -> None:
        """Compute the squared norms of every row of ``vectors``."""
        self._sq = _row_norms(vectors)

    def add(self, vectors: np.ndarray, n_new: int) -> None:
        """Append the squared norms of the ``n_new`` tail rows (an index
        never built builds over all of ``vectors``)."""
        if self._sq is None:
            self.rebuild(vectors)
        else:
            tail = _row_norms(vectors[vectors.shape[0] - n_new :])
            self._sq = np.concatenate([self._sq, tail])

    def remove(self, kept_mask: np.ndarray) -> None:
        """Compact the norms like the store compacts its rows."""
        if self._sq is not None:
            self._sq = self._sq[kept_mask]

    def kernels_active(self) -> bool:
        """Whether the top-k pass runs natively — exactly when the scan
        kernels built (:func:`repro.core.kernels.ivfpq_kernels`)."""
        return _kernels_built()

    def search(self, vectors: np.ndarray, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k nearest rows by brute force, (distance, id)-ordered.

        One GEMM, then the native top-k pass over its block when the
        kernels built (:meth:`repro.core.kernels.IVFPQKernels.exact_topk`),
        else :func:`top_k_by_distance` over
        :func:`squared_euclidean_distances` — the bitwise reference the
        native pass reproduces.
        """
        k = scan_kernels.check_k(k)
        if vectors.shape[0] == 0:
            raise ValueError("cannot search an empty index")
        vectors_sq = self._sq if self._sq is not None else _row_norms(vectors)
        if vectors_sq.shape[0] != vectors.shape[0]:
            raise ValueError(
                f"index covers {vectors_sq.shape[0]} rows but was handed {vectors.shape[0]}"
            )
        k = min(k, vectors.shape[0])
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        queries_sq = _row_norms(queries)
        kernels = scan_kernels.ivfpq_kernels()
        found = None
        if kernels is not None:
            found = kernels.exact_topk(queries @ vectors.T, queries_sq, vectors_sq, k)
        if found is None:
            found = top_k_by_distance(
                squared_euclidean_distances(queries, vectors, vectors_sq, queries_sq), k
            )
        # Rank on squared distances, square-root only the k selected.
        dist, idx = found
        return _sqrt_clamped(dist), idx

    def spec(self) -> Dict[str, object]:
        """JSON-serialisable description (the kind)."""
        return {"kind": "exact"}


def _kmeans_pp_seed(vectors: np.ndarray, n_cells: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2 sampling keeps initial centres spread out.

    Random initialisation on clustered data routinely drops several seeds
    into one dense cluster, leaving skewed cells that IVF probing then pays
    for on every query.  Seeding runs on a subsample (classic practice — the
    seeds only need to cover the density, not every point), so its cost
    stays ~``n_cells`` small distance passes.  With the native kernels a
    step is one BLAS GEMV plus one C pass that folds it into the nearest-
    seed distances, and the D^2 pick is a C running sum; the total and the
    random draw stay NumPy's, so the seeds are bitwise the same.
    """
    n = vectors.shape[0]
    sample_size = min(n, max(n_cells * 32, 1024))
    sample = vectors if sample_size == n else vectors[rng.choice(n, size=sample_size, replace=False)]
    centroids = np.empty((n_cells, vectors.shape[1]), dtype=vectors.dtype)
    centroids[0] = sample[rng.integers(sample.shape[0])]
    sample_sq = np.einsum("ij,ij->i", sample, sample)
    # Squared distance to the nearest chosen seed.
    closest = np.full(sample.shape[0], np.inf)
    kernels = _training_kernels(sample)
    if kernels is not None:
        gemv = np.empty((sample.shape[0], 1))
        native_cover, pick = kernels.seeding(gemv[:, 0], sample_sq, closest)

        def cover(seed: np.ndarray) -> None:
            np.matmul(sample, seed.T, out=gemv)
            native_cover(np.einsum("ij,ij->i", seed, seed)[0])

    else:

        def cover(seed: np.ndarray) -> None:
            fresh = squared_euclidean_distances(sample, seed, queries_sq=sample_sq)[:, 0]
            np.maximum(fresh, 0.0, out=fresh)
            np.minimum(closest, fresh, out=closest)

        def pick(u: float) -> int:
            return int(np.searchsorted(np.cumsum(closest), u))

    cover(centroids[:1])
    for position in range(1, n_cells):
        total = float(closest.sum())
        if not total > 0.0:  # all mass covered; fall back to uniform picks
            centroids[position] = sample[rng.integers(sample.shape[0])]
            continue
        chosen = min(pick(rng.uniform(0.0, total)), sample.shape[0] - 1)
        centroids[position] = sample[chosen]
        cover(centroids[position : position + 1])
    return centroids


def _kmeans(
    vectors: np.ndarray,
    n_cells: int,
    *,
    n_iter: int = 10,
    seed: int = 0,
    init: str = "kmeans++",
) -> np.ndarray:
    """Plain Lloyd's k-means; returns the centroids.

    Deliberately small: the coarse quantizer only needs rough cells, not a
    converged clustering, and this keeps the index dependency-free.  Seeds
    come from k-means++ D^2 sampling (``init="random"`` restores uniform
    picks, kept for balance comparisons); empty cells are re-seeded on the
    point farthest from its centroid during Lloyd updates.
    """
    n = vectors.shape[0]
    rng = np.random.default_rng(seed)
    if init == "kmeans++":
        centroids = _kmeans_pp_seed(vectors, n_cells, rng).copy()
    elif init == "random":
        centroids = vectors[rng.choice(n, size=n_cells, replace=False)].copy()
    else:
        raise ValueError(f"unknown k-means init {init!r}; expected 'kmeans++' or 'random'")
    vectors_sq = np.einsum("ij,ij->i", vectors, vectors)
    for _ in range(n_iter):
        assignments, spread = _nearest_centroids(vectors, centroids, vectors_sq=vectors_sq)
        # Mean update without a per-cell loop: group rows by cell with one
        # stable sort and sum each contiguous run via reduceat, so the
        # update stays O(N log N) even at thousands of cells.
        order = np.argsort(assignments, kind="stable")
        sorted_cells = assignments[order]
        starts = np.searchsorted(sorted_cells, np.arange(n_cells))
        counts = np.diff(np.append(starts, n))
        occupied = counts > 0
        sums = np.add.reduceat(vectors[order], starts[occupied], axis=0)
        centroids[occupied] = sums / counts[occupied, None]
        empty = np.flatnonzero(~occupied)
        if empty.size:
            # Re-seed empty cells on the points farthest from their centroid.
            farthest = np.argsort(spread)[::-1]
            centroids[empty] = vectors[farthest[: empty.size]]
    return centroids


class ProductQuantizer:
    """Per-subspace k-means codebooks over residual vectors, uint8 codes.

    The embedding dimension is split into ``n_subspaces`` contiguous slices
    (sizes differ by at most one when it does not divide evenly) and each
    slice gets its own ``2**bits``-entry codebook trained with k-means++ on
    the residual sub-vectors.  A reference is then ``n_subspaces`` uint8
    codes — 8 bytes instead of 512 for a float64 64-dim embedding — and
    distances against a query decompose into per-subspace table lookups.
    """

    #: Whether stored codes pack two per byte (:class:`PackedPQ` overrides).
    packed = False

    def __init__(
        self,
        n_subspaces: int = 8,
        bits: int = 8,
        *,
        train_iters: int = 10,
        seed: int = 0,
        max_train_points: int = 32768,
    ) -> None:
        """``n_subspaces`` codes per vector, ``2**bits`` entries per codebook;
        ``max_train_points`` caps the training subsample (encoding always
        covers every row)."""
        if n_subspaces <= 0:
            raise ValueError("n_subspaces must be positive")
        if not 1 <= bits <= 8:
            raise ValueError("bits must be in [1, 8] (codes are stored as uint8)")
        self.n_subspaces = int(n_subspaces)
        self.bits = int(bits)
        self.train_iters = int(train_iters)
        self.seed = int(seed)
        self.max_train_points = int(max_train_points)
        self._codebooks: Optional[np.ndarray] = None  # (m, k_sub, max_sub_dim)
        self._sub_dims: Optional[np.ndarray] = None
        self._splits: Optional[np.ndarray] = None  # subspace boundaries, len m+1

    @property
    def trained(self) -> bool:
        """Whether :meth:`fit` (or a state adoption) has run."""
        return self._codebooks is not None

    @property
    def n_centroids(self) -> int:
        """Codebook entries per subspace (<= 2**bits for tiny train sets)."""
        if self._codebooks is None:
            raise RuntimeError("the product quantizer has not been trained")
        return self._codebooks.shape[1]

    @property
    def code_width(self) -> int:
        """Bytes per stored code row (``n_subspaces`` here; packed halves it)."""
        return self.n_subspaces

    def _boundaries(self, dim: int) -> np.ndarray:
        if self.n_subspaces > dim:
            raise ValueError(
                f"n_subspaces={self.n_subspaces} exceeds the embedding dimension {dim}"
            )
        sizes = np.full(self.n_subspaces, dim // self.n_subspaces, dtype=np.int64)
        sizes[: dim % self.n_subspaces] += 1
        return np.concatenate([[0], np.cumsum(sizes)])

    def fit(self, vectors: np.ndarray, *, rng: Optional[np.random.Generator] = None) -> None:
        """Train one k-means codebook per subspace on (a subsample of)
        ``vectors``."""
        vectors = np.asarray(vectors, dtype=np.float64)
        n, dim = vectors.shape
        if n == 0:
            raise ValueError("cannot train a product quantizer on no vectors")
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        if n > self.max_train_points:
            vectors = vectors[rng.choice(n, size=self.max_train_points, replace=False)]
            n = vectors.shape[0]
        self._splits = self._boundaries(dim)
        self._sub_dims = np.diff(self._splits)
        k_sub = min(2**self.bits, n)
        # One dense (m, k_sub, max_sub_dim) block; ragged tails stay zero so
        # the whole thing round-trips through a single npz array.
        self._codebooks = np.zeros(
            (self.n_subspaces, k_sub, int(self._sub_dims.max())), dtype=np.float64
        )
        for j in range(self.n_subspaces):
            sub = vectors[:, self._splits[j] : self._splits[j + 1]]
            centroids = _kmeans(sub, k_sub, n_iter=self.train_iters, seed=self.seed + j)
            self._codebooks[j, :, : self._sub_dims[j]] = centroids

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest-codebook-entry codes, shape ``(n, n_subspaces)`` uint8."""
        if self._codebooks is None:
            raise RuntimeError("the product quantizer has not been trained")
        vectors = np.asarray(vectors, dtype=np.float64)
        codes = np.empty((vectors.shape[0], self.n_subspaces), dtype=np.uint8)
        for j in range(self.n_subspaces):
            sub = vectors[:, self._splits[j] : self._splits[j + 1]]
            book = self._codebooks[j, :, : self._sub_dims[j]]
            codes[:, j] = _nearest_centroids(sub, book)[0]
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Approximate vectors back from codes: each slice's codebook entry."""
        if self._codebooks is None:
            raise RuntimeError("the product quantizer has not been trained")
        codes = np.asarray(codes)
        out = np.empty((codes.shape[0], int(self._splits[-1])), dtype=np.float64)
        for j in range(self.n_subspaces):
            book = self._codebooks[j, :, : self._sub_dims[j]]
            out[:, self._splits[j] : self._splits[j + 1]] = book[codes[:, j]]
        return out

    def query_tables(self, queries: np.ndarray) -> np.ndarray:
        """Per-query inner products with every codebook entry, ``(n, m, k_sub)``.

        This is the only per-query cost of ADC that touches the embedding
        dimension; everything cell-dependent is precomputed at train time.
        ``sum_j table[q, j, code_j] == q . decode(code)``.
        """
        if self._codebooks is None:
            raise RuntimeError("the product quantizer has not been trained")
        queries = np.asarray(queries, dtype=np.float64)
        tables = np.empty((queries.shape[0], self.n_subspaces, self.n_centroids))
        for j in range(self.n_subspaces):
            sub = queries[:, self._splits[j] : self._splits[j + 1]]
            tables[:, j, :] = sub @ self._codebooks[j, :, : self._sub_dims[j]].T
        return tables

    def quantized_query_tables(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lut_u8, scale, bias)``: the float LUT affinely quantized per query.

        ``lut_u8`` is ``(n, m, k_sub)`` uint8 with
        ``float_table ~= scale[q] * lut_u8[q] + bias[q]``, so an ADC sum
        over ``m`` gathers reconstructs as ``scale[q] * sum + m * bias[q]``.
        Both engines scan this table: the uint32 gather-sum is an
        order-independent integer reduction, which is what lets the native
        kernels and the NumPy scan agree bit for bit (a float32 gather-sum
        would pin the result to NumPy's pairwise-summation order).  The
        quantization error is bounded by ``n_subspaces * scale / 2`` per
        distance and only perturbs *candidate selection* — with ``rerank``
        on, final rankings are re-scored exactly.
        """
        tables = self.query_tables(queries)
        flat = tables.reshape(tables.shape[0], -1)
        # + 0.0 makes a zero minimum +0.0, whichever zero the reduction
        # kept; it changes no LUT entry and no distance.
        bias = flat.min(axis=1) + 0.0
        scale = (flat.max(axis=1) - bias) / 255.0
        scale[scale == 0.0] = 1.0  # constant table: any scale reconstructs
        lut = np.rint((tables - bias[:, None, None]) / scale[:, None, None])
        return (
            np.clip(lut, 0, 255).astype(np.uint8),
            scale.astype(np.float32),
            bias.astype(np.float32),
        )

    def memory_bytes(self) -> int:
        """Resident bytes of the codebooks."""
        return int(self._codebooks.nbytes) if self._codebooks is not None else 0


class PackedPQ(ProductQuantizer):
    """4-bit product quantizer: two codes per byte, uint8-quantized LUTs.

    The compression-v2 quantizer.  Codebooks hold at most 16 entries
    (``bits <= 4``), so a stored code row is ``ceil(n_subspaces / 2)``
    bytes: subspace ``j`` lives in byte ``j // 2`` — even ``j`` in the low
    nibble, odd ``j`` in the high nibble.  The ADC scan gathers from a
    **uint8-quantized** per-query lookup table (:meth:`quantized_query_tables`
    maps the float table affinely onto [0, 255] with one scale/bias pair
    per query), so the scan's working set shrinks 4x on top of the 2x from
    packing.  The quantization error this introduces is bounded by
    ``n_subspaces * scale / 2`` per distance and only perturbs *candidate
    selection* — with ``rerank`` on, final rankings are re-scored exactly.

    Everything else (training, the :meth:`encode`/:meth:`decode` contract
    in unpacked per-subspace codes) is inherited.
    """

    packed = True

    def __init__(
        self,
        n_subspaces: int = 8,
        bits: int = 4,
        *,
        train_iters: int = 10,
        seed: int = 0,
        max_train_points: int = 32768,
    ) -> None:
        """Same knobs as :class:`ProductQuantizer` with ``bits`` capped at 4
        (two codes must share a byte)."""
        if not 1 <= bits <= 4:
            raise ValueError("PackedPQ stores two codes per byte; bits must be in [1, 4]")
        super().__init__(
            n_subspaces,
            bits,
            train_iters=train_iters,
            seed=seed,
            max_train_points=max_train_points,
        )

    @property
    def code_width(self) -> int:
        """Bytes per stored code row: two 4-bit codes share one byte."""
        return (self.n_subspaces + 1) // 2

    def pack_codes(self, codes: np.ndarray) -> np.ndarray:
        """``(n, n_subspaces)`` nibble codes -> ``(n, code_width)`` packed."""
        codes = np.asarray(codes, dtype=np.uint8)
        packed = np.zeros((codes.shape[0], self.code_width), dtype=np.uint8)
        packed |= codes[:, 0::2]
        odd = codes[:, 1::2]
        packed[:, : odd.shape[1]] |= odd << 4
        return packed

    def unpack_codes(self, packed: np.ndarray) -> np.ndarray:
        """``(n, code_width)`` packed rows -> ``(n, n_subspaces)`` codes."""
        packed = np.asarray(packed, dtype=np.uint8)
        codes = np.empty((packed.shape[0], self.n_subspaces), dtype=np.uint8)
        codes[:, 0::2] = packed & 0x0F
        codes[:, 1::2] = (packed >> 4)[:, : self.n_subspaces // 2]
        return codes




class IVFPQIndex(NearestNeighbourIndex):
    """The inverted file of product-quantized residuals: references are
    bucketed into k-means cells, a query scans the ``n_probe`` cells with
    the nearest centroids, and a cell member is stored as the PQ codes of
    its residual against the cell centroid.

    Parameters
    ----------
    n_cells:
        Number of coarse cells; ``None`` picks ``ceil(9 * sqrt(N))`` when
        the quantizer is (re)trained.
    n_probe:
        How many cells each query scans.  ``n_probe >= n_cells`` scans
        every cell.
    n_subspaces, bits:
        PQ codes per vector and bits per code (:class:`ProductQuantizer`;
        ``bits <= 4`` selects :class:`PackedPQ`, see *Compression v2*).
    rerank:
        How many of the best ADC candidates the exact re-rank re-scores
        (``0`` = pure ADC).
    min_train_size:
        Below this store size the index answers exactly (brute force) and
        defers k-means until enough references exist — small stores gain
        nothing from quantization.

    **Mutation.**  ``add`` assigns new vectors to their nearest *existing*
    centroid and encodes them with the trained codebooks; ``remove``
    compacts the per-row buffers (amortised doubling, like the store's own
    matrix).  So adaptation (replace/remove/add of a class) never re-runs
    k-means and costs O(changed rows).  Rows encoded after training feed
    the drift statistics behind :meth:`drift_ratio` /
    :meth:`retrain_needed`; :meth:`retrain` re-fits once the corpus has
    drifted far from the original clustering.

    **Scoring.**  Asymmetric distance computation (ADC) over the probed
    cells' code lists.  With ``x ~ c + e`` (coarse centroid plus decoded
    residual) the squared distance decomposes as::

        d2(q, x) = |q - c|^2 + sum_j [ |e_j|^2 + 2 c_j.e_j ] - 2 sum_j q_j.e_j

    The middle term depends only on the *reference row* (its cell and codes
    are fixed), so it collapses to one precomputed float per reference
    (``member_const``); the last term is one small GEMM per query batch
    (:meth:`ProductQuantizer.query_tables`); scanning the probed candidates
    is then ``m`` uint8 table gathers per member instead of a float GEMM
    over raw vectors.  ``rerank > 0`` re-scores the ``max(k, rerank)`` best
    ADC candidates against the raw vectors and keeps the ``k`` smallest
    ``(distance, id)`` pairs of that pool — a tie set straddling the k-th
    place keeps its smallest ids, as :class:`ExactIndex` does.  A re-scored
    distance is the exact engine's formula, ``((ip * -2) + |q|^2) + |v|^2``,
    with ``ip`` summed over the dimensions left to right
    (:func:`_pool_distances`) and ``|v|^2`` the rows' squared norms, which
    the index keeps like :class:`ExactIndex` does (:meth:`_kept_norms`; not
    :meth:`state`).  The rankings match :class:`ExactIndex` whenever the
    true top-k sit inside the re-ranked pool — guaranteed by margin rather
    than by construction, so keep ``rerank`` several times ``k`` (with
    ``n_probe >= n_cells`` and the default ``rerank=64`` at ``k <= 10``,
    the agreement is exact on clustered corpora; see the tests), or by
    construction once ``rerank`` covers every row.  With ``rerank == 0``
    the index never touches raw vectors after training, which is what lets
    the serving layer publish only codes and codebooks (~16-32x smaller)
    into shared memory.

    **Search.**  With the native kernels built, each query chunk is one
    call (:meth:`_search_chunk`): NumPy/BLAS forms the coarse distance
    block and the float64 LUT tables, and
    :meth:`repro.core.kernels.IVFPQKernels.search_topk` does the rest —
    probes, LUT quantisation, ADC select, re-rank, short-probe rescan and
    the final ``(distance, id)`` order.  The NumPy scan (:meth:`_scan`,
    :meth:`_adc_select`) is the fallback and the bitwise reference.

    **Compression v2.**  ``bits <= 4`` selects the :class:`PackedPQ`
    quantizer: codes pack two per byte and the side structures slim down
    too (uint16 cell assignments — ``n_cells`` is capped at 65535 — float16
    ADC member constants and float32 coarse centroids; constants are
    clipped into float16 range, so embeddings with ADC magnitudes beyond
    ~6e4 — far outside any normalised or tanh-bounded embedding — degrade
    candidate selection gracefully, recoverable by a deeper ``rerank``,
    instead of corrupting it).
    """

    kind = "ivfpq"
    _QUERY_CHUNK = 1024  # queries per search block (bounds the candidate scratch)

    def __init__(
        self,
        n_cells: Optional[int] = None,
        n_probe: int = 16,
        *,
        n_subspaces: int = 8,
        bits: int = 8,
        rerank: int = 64,
        min_train_size: int = 256,
        train_iters: int = 10,
        seed: int = 0,
    ) -> None:
        if rerank < 0:
            raise ValueError("rerank must be >= 0 (0 disables exact re-ranking)")
        quantizer = PackedPQ if bits <= 4 else ProductQuantizer
        self.pq = quantizer(
            n_subspaces=n_subspaces, bits=bits, train_iters=train_iters, seed=seed
        )
        if n_cells is not None and n_cells <= 0:
            raise ValueError("n_cells must be positive")
        if n_probe <= 0:
            raise ValueError("n_probe must be positive")
        self.n_cells = None if n_cells is None else int(n_cells)
        self.n_probe = int(n_probe)
        self.rerank = int(rerank)
        self.min_train_size = int(min_train_size)
        self.train_iters = int(train_iters)
        self.seed = int(seed)
        # The packed engine slims every per-row side structure; the 8-bit
        # engine keeps the wider dtypes (and their bit-exact baselines).
        self._assign_dtype = np.dtype(np.uint16 if self.pq.packed else np.int32)
        self._const_dtype = np.dtype(np.float16 if self.pq.packed else np.float32)
        self._centroid_dtype = np.dtype(np.float32 if self.pq.packed else np.float64)
        self._reset()

    # ---------------------------------------------------------------- state
    @property
    def trained(self) -> bool:
        """Whether k-means cells exist (small stores defer training)."""
        return self._centroids is not None

    @property
    def _assignments(self) -> np.ndarray:
        """Cell of every live row (the valid head of the amortised buffer)."""
        return self._assign_buffer[: self._n]

    @property
    def codes(self) -> np.ndarray:
        """The live ``(N, code_width)`` uint8 code rows in storage layout
        (packed two-per-byte for the 4-bit engine); a read-only view."""
        view = self._code_buffer[: self._n]
        view.flags.writeable = False
        return view

    @property
    def needs_vectors(self) -> bool:
        """``False`` once trained with ``rerank == 0``: the whole search
        runs on codes, so serving ships codes + codebooks only."""
        return not self.trained or self.rerank > 0

    def _row_buffers(self) -> Dict[str, Tuple[np.dtype, Tuple[int, ...]]]:
        """Per-row buffers as ``attribute -> (dtype, trailing shape)``; they
        reserve, compact and reset together: the cell assignments, the
        codes, the per-reference ADC constant ``|e|^2 + 2 c.e`` and the
        per-row drift error (NaN marks train-time rows; per-row so that
        removal compacts it — departed rows stop exerting drift pressure)."""
        return {
            "_assign_buffer": (self._assign_dtype, ()),
            "_code_buffer": (np.dtype(np.uint8), (self.pq.code_width,)),
            "_const_buffer": (self._const_dtype, ()),
            "_drift_buffer": (np.dtype(np.float16), ()),
        }

    def _reset(self) -> None:
        """Back to untrained: no centroids, empty row buffers, no drift
        baseline."""
        self._centroids: Optional[np.ndarray] = None
        self._centroid_sq: Optional[np.ndarray] = None
        self._n = 0
        for name, (dtype, tail) in self._row_buffers().items():
            setattr(self, name, np.empty((0,) + tail, dtype=dtype))
        # The held-out train-time mean squared reconstruction error.
        self._train_distortion: Optional[float] = None
        # The rows' squared norms for the exact re-rank (see _kept_norms).
        self._sq: Optional[np.ndarray] = None
        self._recount_drift()
        self._invalidate()

    def _recount_drift(self) -> None:
        """Sum and count of the drift buffer's valid (post-training)
        entries, kept so drift_ratio() stays O(1) (the info op polls it)."""
        errors = self._drift_buffer[: self._n].astype(np.float64)
        valid = ~np.isnan(errors)
        self._drift_sum = float(errors[valid].sum())
        self._drift_count = int(np.count_nonzero(valid))

    def _invalidate(self) -> None:
        """Drop layouts derived from the row buffers (after any mutation)."""
        self._cells: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._scan_cache = None

    def _reserve(self, extra: int) -> None:
        needed = self._n + extra
        capacity = self._assign_buffer.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(32, capacity)
        while new_capacity < needed:
            new_capacity *= 2
        for name in self._row_buffers():
            old = getattr(self, name)
            grown = np.empty((new_capacity,) + old.shape[1:], dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def _resolve_n_cells(self, n: int) -> int:
        if self.n_cells is not None:
            resolved = min(self.n_cells, n)
        else:
            # Finer cells than a classic sqrt(N) inverted file: the uint8
            # scan makes probing cheap and the per-query LUT cost is
            # cell-independent, so smaller cells buy both smaller residuals
            # (better codes) and fewer candidates per probe.
            resolved = max(1, min(n, int(np.ceil(9.0 * np.sqrt(n)))))
        # A cell id must fit the assignment dtype (uint16 on the packed engine).
        return min(resolved, int(np.iinfo(self._assign_dtype).max))

    def _cell_lists(self) -> Tuple[np.ndarray, np.ndarray]:
        """The partition as CSR ``(cell_starts, members)``: cell ``c`` holds
        rows ``members[cell_starts[c] : cell_starts[c + 1]]`` (ascending
        ids).  Built lazily, dropped by :meth:`_invalidate`."""
        if self._cells is None:
            assignments = self._assignments
            members = np.argsort(assignments, kind="stable")
            edges = np.arange(self._centroids.shape[0] + 1)
            self._cells = (np.searchsorted(assignments[members], edges), members)
        return self._cells

    def _set_centroids(self, centroids: np.ndarray) -> None:
        """Adopt ``centroids`` with their squared norms, computed once here
        (the same ``einsum`` :func:`squared_euclidean_distances` would run)
        instead of on every coarse pass."""
        self._centroids = centroids
        self._centroid_sq = np.einsum("ij,ij->i", centroids, centroids)

    def _coarse_distances(self, queries: np.ndarray) -> np.ndarray:
        """Squared query-to-centroid distances."""
        return squared_euclidean_distances(queries, self._centroids, self._centroid_sq)

    def _assign_to_centroids(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest-centroid assignment (blocked, see :func:`_nearest_centroids`)."""
        return _nearest_centroids(vectors, self._centroids, self._centroid_sq)[0]

    def _scan_layout(self):
        """The native scan's view ``(cell_starts, members, consts, codes_t)``
        as a :class:`repro.core.kernels.ScanLayout`: the CSR partition of
        :meth:`_cell_lists`, the member constants gathered into float32 in
        the same cell-major order, and the code rows transposed to a
        contiguous ``(code_width, N)`` so the kernel streams one subspace
        byte-row at a time — checked and addressed once.  Built lazily,
        dropped by :meth:`_invalidate`, so it stays consistent through
        churn."""
        if self._scan_cache is None:
            cell_starts, members = self._cell_lists()
            consts = self._const_buffer[: self._n][members].astype(np.float32)
            codes_t = np.ascontiguousarray(self._code_buffer[: self._n][members].T)
            self._scan_cache = scan_kernels.ScanLayout(cell_starts, members, consts, codes_t)
        return self._scan_cache

    def kernels_active(self) -> bool:
        """Whether searches dispatch to the native C kernels — exactly
        when they built (:func:`repro.core.kernels.ivfpq_kernels`)."""
        return _kernels_built()

    def _kept_norms(self, vectors: np.ndarray) -> np.ndarray:
        """The rows' squared norms the exact re-rank adds, kept like
        :class:`ExactIndex` keeps them — always from the rows in their
        storage dtype: training computes them, ``add`` appends the new
        rows', ``remove`` compacts them.  An index that adopted its state
        (a worker, a loaded deployment) computes them from ``vectors`` on
        its first re-rank."""
        if self._sq is None:
            self._sq = _row_norms(vectors)
        return self._sq

    # ---------------------------------------------------------------- codec
    def _encode(self, residuals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(codes in storage layout, decoded residuals)`` for ``residuals``."""
        codes = self.pq.encode(residuals)
        decoded = self.pq.decode(codes)
        return (self.pq.pack_codes(codes) if self.pq.packed else codes), decoded

    def _member_consts(self, decoded: np.ndarray, assignments: np.ndarray) -> np.ndarray:
        """``|e|^2 + 2 c.e`` per row from decoded residuals ``e``."""
        consts = np.einsum("ij,ij->i", decoded, decoded)
        consts += 2.0 * np.einsum("ij,ij->i", decoded, self._centroids[assignments])
        if self._const_dtype == np.float16:
            # Clip into float16 range: an overflowed +/-inf constant would
            # permanently exclude (or falsely promote) its row in every ADC
            # scan; a clipped value keeps the row rankable and the exact
            # re-rank still scores it correctly.
            np.clip(consts, -6.0e4, 6.0e4, out=consts)
        return consts.astype(self._const_dtype)

    @staticmethod
    def _reconstruction_error(residuals: np.ndarray, decoded: np.ndarray) -> np.ndarray:
        """Per-row squared reconstruction error ``|x - c - e|^2`` (the drift
        statistic: rises as the corpus leaves the training distribution)."""
        diff = residuals - decoded
        return np.einsum("ij,ij->i", diff, diff)

    # ------------------------------------------------------------- mutation
    def _train(self, vectors: np.ndarray, sample_size: Optional[int] = None) -> None:
        """k-means the coarse cells on (a capped sample of) ``vectors`` and
        assign every row exactly; train the codebooks on the residuals and
        encode every row; reset the drift statistics to the held-out
        baseline; keep the rows' norms when a re-rank will add them.

        The drift baseline must be an *out-of-sample* error (cells and
        codebooks fit their own training rows tighter than anything encoded
        later, so an in-sample one would read ordinary churn as drift): a
        slice is held out of both training stages and measured there."""
        n = vectors.shape[0]
        if n < self.min_train_size:
            self._reset()
            return
        rows = np.asarray(vectors, dtype=np.float64)
        holdout_size = min(1024, n // 8)
        holdout = None
        if holdout_size >= 32:
            holdout = np.random.default_rng(self.seed + 2).choice(
                n, size=holdout_size, replace=False
            )
        train_rows = rows if holdout is None else np.delete(rows, holdout, axis=0)
        cap = 131072 if sample_size is None else min(131072, int(sample_size))
        if train_rows.shape[0] > cap:
            # Cells only need to cover the density; every reference still
            # gets an exact assignment below.
            rng = np.random.default_rng(self.seed)
            train_rows = train_rows[rng.choice(train_rows.shape[0], size=cap, replace=False)]
        # A holdout or a tight sample cap can leave fewer training rows than
        # resolved cells; k-means needs n_cells <= rows.
        n_cells = min(self._resolve_n_cells(n), train_rows.shape[0])
        centroids = _kmeans(train_rows, n_cells, n_iter=self.train_iters, seed=self.seed)
        # Shards train side by side, so each drops its sample before the
        # codebooks' own peak.
        del train_rows
        self._set_centroids(centroids.astype(self._centroid_dtype, copy=False))
        assignments = self._assign_to_centroids(rows)
        self._assign_buffer = assignments.astype(self._assign_dtype, copy=False)
        self._n = n

        residuals = rows - self._centroids[assignments]
        fit_rows = residuals if holdout is None else np.delete(residuals, holdout, axis=0)
        old_points = self.pq.max_train_points
        if sample_size is not None:
            self.pq.max_train_points = min(old_points, int(sample_size))
        try:
            self.pq.fit(fit_rows, rng=np.random.default_rng(self.seed + 1))
        finally:
            self.pq.max_train_points = old_points
        del fit_rows  # not held through encoding's peak
        self._code_buffer, decoded = self._encode(residuals)
        self._const_buffer = self._member_consts(decoded, assignments)
        baseline = slice(None) if holdout is None else holdout
        self._train_distortion = float(
            self._reconstruction_error(residuals[baseline], decoded[baseline]).mean()
        )
        self._drift_buffer = np.full(n, np.nan, dtype=np.float16)
        self._recount_drift()
        self._invalidate()
        self._sq = _row_norms(vectors) if self.rerank else None

    def rebuild(self, vectors: np.ndarray) -> None:
        """(Re)train cells and codebooks over ``vectors`` (or defer below
        ``min_train_size``)."""
        self._train(vectors)

    def retrain(self, vectors: np.ndarray, *, sample_size: Optional[int] = None) -> None:
        """:meth:`rebuild` with ``sample_size`` capping the training points
        (coarse k-means and the codebooks' fit); every row is still
        assigned and encoded exactly.  ``DeploymentManager.requantize()``
        runs this per shard behind its copy-on-write swap."""
        if sample_size is not None and sample_size <= 0:
            raise ValueError("sample_size must be positive")
        self._train(vectors, sample_size)

    def add(self, vectors: np.ndarray, n_new: int) -> None:
        """Assign the ``n_new`` appended rows to their nearest existing cell
        (no k-means), encode them with the trained codebooks, fold their
        reconstruction error into the drift statistics and append their
        norms to the kept ones."""
        n = vectors.shape[0]
        if not self.trained:
            if n >= self.min_train_size:
                self.rebuild(vectors)
            return
        new_rows = np.asarray(vectors[n - n_new :], dtype=np.float64)
        assignments = self._assign_to_centroids(new_rows)
        self._reserve(n_new)
        at = slice(self._n, self._n + n_new)
        self._assign_buffer[at] = assignments
        residuals = new_rows - self._centroids[assignments]
        self._code_buffer[at], decoded = self._encode(residuals)
        self._const_buffer[at] = self._member_consts(decoded, assignments)
        # Clipped into float16 range so extreme drift reads as a huge
        # finite ratio rather than inf; aggregated as stored.
        stored_errors = np.minimum(
            self._reconstruction_error(residuals, decoded), 6.0e4
        ).astype(np.float16)
        self._drift_buffer[at] = stored_errors
        self._drift_sum += float(stored_errors.astype(np.float64).sum())
        self._drift_count += n_new
        self._n += n_new
        self._invalidate()
        if self._sq is not None:
            self._sq = np.concatenate([self._sq, _row_norms(vectors[n - n_new :])])

    def remove(self, kept_mask: np.ndarray) -> None:
        """Compact every row buffer and the kept norms after store
        compaction; departed post-training rows leave the drift aggregates
        with them."""
        if not self.trained:
            return
        kept = int(np.count_nonzero(kept_mask))
        for name in self._row_buffers():
            buffer = getattr(self, name)
            buffer[:kept] = buffer[: self._n][kept_mask]
        self._n = kept
        self._invalidate()
        if self._sq is not None:
            self._sq = self._sq[kept_mask]
        self._recount_drift()

    # ------------------------------------------------------ drift / retrain
    def drift_ratio(self) -> float:
        """Mean reconstruction error of the post-training rows *still in
        the corpus* over the train-time baseline (1.0 when none remain)."""
        baseline = self._train_distortion
        if baseline is None or baseline <= 0.0 or self._drift_count <= 0:
            return 1.0
        return (self._drift_sum / self._drift_count) / baseline

    def retrain_needed(self, *, threshold: float = 1.5, min_samples: int = 64) -> bool:
        """``True`` once >= ``min_samples`` surviving post-training rows
        show a mean reconstruction error above ``threshold`` x the
        baseline (removed rows stop counting — drift can clear itself)."""
        return self._drift_count >= int(min_samples) and self.drift_ratio() > float(threshold)

    # --------------------------------------------------------------- search
    @staticmethod
    def _probe(coarse: np.ndarray, n_probe: int) -> np.ndarray:
        """Per query, the ``n_probe`` cells nearest by ``(coarse distance,
        cell)`` — a tie at the ``n_probe``-th place keeps the smaller cell,
        as the native scan does; every cell once ``n_probe`` covers them
        all."""
        n_cells = coarse.shape[1]
        if n_probe >= n_cells:
            return np.broadcast_to(np.arange(n_cells), coarse.shape).copy()
        return top_k_by_distance(coarse, n_probe)[1]

    def search(
        self, vectors: Optional[np.ndarray], queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest rows per query, ``(distance, id)``-ordered,
        from the ``n_probe`` nearest cells (:meth:`_search_chunk`, one
        query chunk at a time).  ``vectors`` may be ``None`` only when
        :attr:`needs_vectors` is ``False``."""
        k = scan_kernels.check_k(k)
        if vectors is None and self.needs_vectors:
            raise ValueError(f"{type(self).__name__}.search needs the raw vectors here; pass them")
        if not self.trained:
            return ExactIndex().search(vectors, queries, k)
        if self._n == 0:
            raise ValueError("cannot search an empty index")
        if vectors is not None and vectors.shape[0] != self._n:
            raise ValueError(f"index covers {self._n} rows but was handed {vectors.shape[0]}")
        k = min(k, self._n)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        out_d = np.empty((queries.shape[0], k))
        out_i = np.empty((queries.shape[0], k), dtype=np.int64)
        for start in range(0, queries.shape[0], self._QUERY_CHUNK):
            chunk = np.ascontiguousarray(queries[start : start + self._QUERY_CHUNK])
            stop = start + chunk.shape[0]
            out_d[start:stop], out_i[start:stop] = self._search_chunk(
                vectors, chunk, self._coarse_distances(chunk), k
            )
        return out_d, out_i

    def _adc_select(
        self,
        coarse_d2: np.ndarray,
        probe: np.ndarray,
        lut: Tuple[np.ndarray, np.ndarray, np.ndarray],
        n_select: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The NumPy ADC top-``n_select`` per query over the probed cells'
        code lists — the bitwise reference of the ADC select inside the
        native pass of :meth:`_search_chunk`.

        ``lut`` is the ``(lut_u8, scale, bias)`` triple of
        :meth:`ProductQuantizer.quantized_query_tables` for *both* bit
        widths: the gather runs over the uint8 table, sums in uint32 (an
        order-independent integer reduction) and reconstructs the float
        distance from the per-query affine pair.  Returns fixed-width
        ``(distances, ids, counts)``: float32 / int64 ``(n_chunk, n_select)``
        rows ordered by ``(adc, id)`` ascending, ``counts[q]`` entries valid
        and the rest unwritten.  Selection at the ``n_select`` boundary is
        deterministic under the same total order
        (:func:`_smallest_pairs_subset`), the set the native bounded select
        keeps.  One flat pass over every (query, probed cell) member — ids,
        ADC distances and per-query segments are whole-array operations, no
        per-cell loop or padded candidate matrix; only the final selection
        runs per query.
        """
        lut_u8, scale, bias = lut
        n_chunk = probe.shape[0]
        cell_starts, members = self._cell_lists()
        m = self.pq.n_subspaces
        k_sub = self.pq.n_centroids

        flat_queries = np.repeat(np.arange(n_chunk), probe.shape[1])
        flat_cells = probe.ravel()
        flat_sizes = np.diff(cell_starts)[flat_cells]
        # Candidates are query-major, so each query owns one contiguous
        # segment [bounds[q], bounds[q + 1]).
        flat_ends = np.cumsum(flat_sizes)
        bounds = np.concatenate([[0], flat_ends.reshape(n_chunk, -1)[:, -1]])
        total = int(bounds[-1])
        out_d = np.empty((n_chunk, n_select), dtype=np.float32)
        out_ids = np.empty((n_chunk, n_select), dtype=np.int64)
        counts = np.minimum(np.diff(bounds), n_select)
        if total == 0:
            return out_d, out_ids, counts
        # Every probed cell's CSR range, concatenated.
        within = np.arange(total) - np.repeat(flat_ends - flat_sizes, flat_sizes)
        cand_ids = members[np.repeat(cell_starts[flat_cells], flat_sizes) + within]
        rows = np.repeat(flat_queries, flat_sizes)

        # ADC: coarse |q-c|^2 + member const - 2 sum_j LUT[q, j, code_j].
        adc = np.repeat(coarse_d2[flat_queries, flat_cells].astype(np.float32), flat_sizes)
        adc += self._const_buffer[cand_ids]
        codes = self._code_buffer[cand_ids]
        if self.pq.packed:
            codes = self.pq.unpack_codes(codes)
        idx = codes.astype(np.int32)
        idx += np.arange(m, dtype=np.int32)[None, :] * k_sub
        idx += (rows * (m * k_sub)).astype(np.int32)[:, None]
        sums = lut_u8.ravel().take(idx).sum(axis=1, dtype=np.uint32)
        adc -= 2.0 * (scale[rows] * sums.astype(np.float32) + np.float32(m) * bias[rows])

        for q in range(n_chunk):
            seg_d = adc[bounds[q] : bounds[q + 1]]
            seg_i = cand_ids[bounds[q] : bounds[q + 1]]
            if seg_d.size > n_select:
                subset = _smallest_pairs_subset(seg_d, seg_i, n_select)
                seg_d = seg_d[subset]
                seg_i = seg_i[subset]
            order = np.lexsort((seg_i, seg_d))
            out_ids[q, : order.size] = seg_i[order]
            out_d[q, : order.size] = seg_d[order]
        return out_d, out_ids, counts

    def _scan(
        self,
        vectors: Optional[np.ndarray],
        chunk: np.ndarray,
        coarse: np.ndarray,
        probe: np.ndarray,
        k: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The NumPy scan: ADC select over the probed cells' codes, then
        (``rerank > 0``) exact re-scoring of the selected pool against
        ``vectors`` (:func:`_pool_distances` with the kept norms), keeping
        the ``k`` best by ``(distance, id)``."""
        # Span hooks are one thread-local read when no trace collector is
        # active (the common case); see repro.obs.tracing.
        trace_spans = obs_tracing.enabled()
        scan_start = time.perf_counter() if trace_spans else 0.0
        lut = self.pq.quantized_query_tables(chunk)
        adc, cand, counts = self._adc_select(coarse, probe, lut, max(k, self.rerank))
        if trace_spans:
            obs_tracing.record(
                "pq_scan",
                time.perf_counter() - scan_start,
                native=False,
                n_queries=chunk.shape[0],
            )
        # Columns past counts[q] are unwritten; make them rankable padding.
        pad = np.arange(adc.shape[1])[None, :] >= counts[:, None]
        adc[pad] = np.inf
        cand[pad] = 0
        if self.rerank == 0:
            return _sqrt_clamped(adc[:, :k].astype(np.float64)), cand[:, :k], counts

        # Exact re-rank: true squared distances for the ADC top candidates.
        rerank_start = time.perf_counter() if trace_spans else 0.0
        width = max(int(counts.max()), k)
        cand = np.ascontiguousarray(cand[:, :width])
        exact_d2 = _pool_distances(
            chunk, _row_norms(chunk), np.asarray(vectors)[cand], self._kept_norms(vectors)[cand]
        )
        exact_d2[pad[:, :width]] = np.inf
        chunk_d, chunk_i = _top_k_pairs(exact_d2, cand, k)
        if trace_spans:
            obs_tracing.record(
                "rerank",
                time.perf_counter() - rerank_start,
                n_queries=chunk.shape[0],
                rerank=self.rerank,
            )
        return _sqrt_clamped(chunk_d), chunk_i, counts

    def _search_chunk(
        self, vectors: Optional[np.ndarray], chunk: np.ndarray, coarse: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One query chunk's ``k`` nearest rows, ``(distance, id)``-ordered;
        ``coarse`` is the chunk's centroid distance block.

        One native call when the kernels built
        (:meth:`repro.core.kernels.IVFPQKernels.search_topk`): probe
        selection, LUT quantisation, the ADC select, the exact re-rank
        and the final ``(distance, id)`` order, short probes included.
        The coarse block and the float64 LUT tables stay NumPy/BLAS.
        Without the kernels, or when a non-finite value reaches the pass,
        the NumPy scan answers — the bitwise reference of the native pass:
        :meth:`_scan` over the probed cells, and a second scan with every
        cell probed for the (rare) queries whose probes hold fewer than
        ``k`` members."""
        kernels = scan_kernels.ivfpq_kernels()
        if kernels is not None:
            trace_spans = obs_tracing.enabled()
            scan_start = time.perf_counter() if trace_spans else 0.0
            rerank = {}
            if self.rerank:
                vectors = np.asarray(vectors)
                stored = np.float32 if vectors.dtype == np.float32 else np.float64
                rerank = dict(
                    queries=chunk,
                    queries_sq=_row_norms(chunk),
                    vectors=np.ascontiguousarray(vectors, dtype=stored),
                    vectors_sq=self._kept_norms(vectors),
                )
            found = kernels.search_topk(
                coarse=coarse,
                tables=self.pq.query_tables(chunk),
                layout=self._scan_layout(),
                n_probe=self.n_probe,
                packed=self.pq.packed,
                n_select=max(k, self.rerank),
                k=k,
                **rerank,
            )
            if trace_spans:
                obs_tracing.record(
                    "pq_scan",
                    time.perf_counter() - scan_start,
                    native=True,
                    n_queries=chunk.shape[0],
                )
            if found is not None:
                return found
        chunk_d, chunk_i, counts = self._scan(
            vectors, chunk, coarse, self._probe(coarse, self.n_probe), k
        )
        short = np.flatnonzero(counts < k)
        if short.size:
            chunk_d[short], chunk_i[short], _ = self._scan(
                vectors, chunk[short], coarse[short], self._probe(coarse[short], coarse.shape[1]), k
            )
        # _scan ranks squared distances; restore the documented
        # (distance, id) order over their square roots.
        return sort_by_distance(chunk_d, chunk_i)

    # ---------------------------------------------------------- persistence
    def spec(self) -> Dict[str, object]:
        """JSON-serialisable configuration (``bits <= 4`` implies the packed
        engine on reconstruction)."""
        return {
            "kind": self.kind,
            "n_cells": self.n_cells,
            "n_probe": self.n_probe,
            "min_train_size": self.min_train_size,
            "train_iters": self.train_iters,
            "seed": self.seed,
            "n_subspaces": self.pq.n_subspaces,
            "bits": self.pq.bits,
            "rerank": self.rerank,
        }

    def state(self) -> Dict[str, np.ndarray]:
        """Cells, codes and codebooks (empty until trained); see the base
        contract for how deployments and shm workers use this.  Codes are
        in storage layout (packed two-per-byte at 4 bits) and side
        structures keep their resident dtypes, so shared-memory publication
        and ``RSG1`` segment files ship the compressed representation
        byte-for-byte.  ``drift_baseline`` + per-row ``drift_errors`` carry
        the drift statistics so requantization pressure survives a warm
        restart."""
        if not self.trained:
            return {}
        return {
            "centroids": self._centroids,
            "assignments": self._assignments,
            "codes": self._code_buffer[: self._n],
            "member_consts": self._const_buffer[: self._n],
            "codebooks": self.pq._codebooks,
            "drift_baseline": np.array(
                [-1.0 if self._train_distortion is None else self._train_distortion]
            ),
            "drift_errors": self._drift_buffer[: self._n],
        }

    def load_state(self, state: Dict[str, np.ndarray]) -> None:
        """Adopt cells, codes and codebooks without re-running k-means.

        Arrays are adopted as-is (views into a shared-memory segment are
        fine: search never writes; a later ``add`` re-allocates through the
        amortised-doubling reserve before writing).  State that does not
        fit — another engine's keys, a wrong code width or codebook shape,
        row arrays that disagree on ``N``, an assignment outside
        ``[0, n_cells)`` — raises ``ValueError`` before anything is
        adopted, so the caller falls back to a clean rebuild.
        """
        if not state:
            self._reset()
            return
        required = {"centroids", "assignments", "codes", "member_consts", "codebooks"}
        if not required <= set(state) <= required | {"drift_baseline", "drift_errors"}:
            # Extra or missing arrays: this state belongs to another engine.
            raise ValueError(f"state keys {sorted(state)} do not match a {type(self).__name__}")
        codes = np.asarray(state["codes"], dtype=np.uint8)
        codebooks = np.asarray(state["codebooks"], dtype=np.float64)
        if codes.ndim != 2 or codes.shape[1] != self.pq.code_width:
            raise ValueError(
                f"state codes are {codes.shape[-1] if codes.ndim == 2 else '?'} bytes wide, "
                f"this index stores {self.pq.code_width}-byte rows"
            )
        if codebooks.shape[0] != self.pq.n_subspaces or codebooks.shape[1] > 2**self.pq.bits:
            raise ValueError(
                "state codebooks do not match this index's n_subspaces/bits configuration"
            )
        baseline, errors = -1.0, np.full(codes.shape[0], np.nan, dtype=np.float16)
        if "drift_baseline" in state and "drift_errors" in state:
            baseline = float(np.asarray(state["drift_baseline"], dtype=np.float64).ravel()[0])
            errors = np.asarray(state["drift_errors"], dtype=np.float16)
        centroids = np.asarray(state["centroids"], dtype=self._centroid_dtype)
        assignments = np.asarray(state["assignments"])
        consts = np.asarray(state["member_consts"], dtype=self._const_dtype)
        n = assignments.shape[0]
        if any(rows.shape[0] != n for rows in (codes, consts, errors)):
            raise ValueError(f"inconsistent {self.kind} state: row arrays disagree on N")
        if n and not 0 <= assignments.min() <= assignments.max() < centroids.shape[0]:
            raise ValueError(
                f"inconsistent {self.kind} state: assignments name cells outside "
                f"[0, {centroids.shape[0]})"
            )
        self._set_centroids(centroids)
        self._assign_buffer = assignments.astype(self._assign_dtype, copy=False)
        self._code_buffer = codes
        self._const_buffer = consts
        self._drift_buffer = errors
        self._n = n
        self._invalidate()
        pq = self.pq
        pq._codebooks = codebooks
        pq._splits = pq._boundaries(self._centroids.shape[1])
        pq._sub_dims = np.diff(pq._splits)
        self._train_distortion = None if baseline < 0 else baseline
        self._sq = None  # computed from the vectors on the first re-rank
        self._recount_drift()

    def memory_bytes(self) -> int:
        """Resident bytes of centroids, the live per-row buffers and the
        codebooks (the store's raw matrix is counted separately)."""
        if not self.trained:
            return 0
        rows = sum(getattr(self, name)[: self._n].nbytes for name in self._row_buffers())
        return int(self._centroids.nbytes + rows + self.pq.memory_bytes())


#: ``spec["kind"]`` -> (class, the spec keys its constructor takes).
_INDEX_KINDS = {
    "exact": (ExactIndex, ()),
    "ivfpq": (
        IVFPQIndex,
        (
            "n_cells", "n_probe", "min_train_size", "train_iters", "seed",
            "n_subspaces", "bits", "rerank",
        ),
    ),
}


def index_from_spec(spec: Optional[Dict[str, object]]) -> NearestNeighbourIndex:
    """Re-create an index from its :meth:`NearestNeighbourIndex.spec` dict.
    Keys the chosen engine does not take are ignored (one CLI flag set
    serves every ``--index``); absent keys take the constructor's defaults.
    A ``metric`` key (written by older deployments) must be ``"euclidean"``,
    the one distance every index measures; any other raises ``ValueError``
    rather than serve that deployment under a distance it was not built for.
    So does a setting of a removed engine or knob that an older deployment
    may carry (the checks below): built without it, the deployment's saved
    state would not load (its store would silently re-run k-means) or would
    answer differently.  The values every older ``ivfpq`` spec carries for
    those knobs (off, unset) are accepted."""
    if spec is None:
        return ExactIndex()
    metric = spec.get("metric", "euclidean")
    if metric != "euclidean":
        raise ValueError(f"unsupported metric {metric!r}: every index measures euclidean distance")
    kind = spec.get("kind", "exact")
    if kind == "ivf":
        raise ValueError("index kind 'ivf' (the raw inverted file) was removed; use 'ivfpq'")
    if spec.get("opq"):
        raise ValueError(
            "index key 'opq' was removed: rotated product quantizers are no longer built"
        )
    if spec.get("max_cell_fraction") is not None:
        raise ValueError(
            "index key 'max_cell_fraction' was removed: cell-size caps are no longer applied"
        )
    if kind not in _INDEX_KINDS:
        raise ValueError(f"unknown index kind {kind!r}")
    cls, keys = _INDEX_KINDS[kind]
    return cls(**{key: spec[key] for key in keys if key in spec})
