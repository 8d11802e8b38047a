"""Nearest-neighbour query engines for the reference store.

The paper's scaling story (Table 2) depends on classification staying cheap
as the monitored set grows, and its adaptation story on page updates
costing O(changed rows).  This module is the pluggable index layer the
:class:`~repro.core.reference_store.ReferenceStore` queries through: an
exact oracle, one cell index, and the codec that decides how a cell
member is stored.

* **Exact oracle** — :class:`ExactIndex`: brute-force distances +
  ``argpartition`` top-k; the default, bit-identical to a full sorted
  distance scan, and the reference every equivalence suite compares the
  other engines against.  Coded directly, not as a one-cell special case.
* **Cell index** — :class:`CoarseQuantizedIndex` (``ivf``): the inverted
  file, written once.  References are bucketed into k-means cells
  (k-means++ seeding; ``max_cell_fraction`` optionally caps cell size so a
  hot cell cannot blow up per-probe candidate counts) and a query scans
  only the ``n_probe`` cells with the nearest centroids, so query time
  grows sublinearly in the store size.  It owns the centroids, the
  amortised per-row buffers and their CSR cell layout, the mutation path
  (``add`` assigns to the nearest *existing* cell, ``remove`` compacts —
  never k-means, so retraining-free adaptation keeps its cost profile),
  probe selection, the search skeleton (untrained -> exact, query chunks,
  short probe -> full-probe rescan, ``(distance, id)`` order) and
  ``spec``/``state``/``load_state``.
* **Codec** — what a cell stores per member and how a probed cell is
  scored, supplied through a few row hooks and ``_scan``.  The *raw* codec
  (the cell index itself) stores only the row id and scores a cell with
  one distance GEMM over the members gathered from the store.  The *PQ*
  codec (:class:`IVFPQIndex`, ``ivfpq``) stores **product-quantized
  residuals** — ``n_subspaces`` codes into per-subspace codebooks trained
  on ``x - centroid``
  (:class:`ProductQuantizer`; :class:`PackedPQ` packs 4-bit codes two per
  byte beside slim uint16/float16/float32 side structures; ``opq`` learns
  an orthogonal rotation first) — and scores by asymmetric distance
  computation: uint8 gathers from a per-query lookup table, through the
  fused C kernels of :mod:`repro.core.kernels` when they built, else the
  bitwise-identical NumPy scan, at ~16-64x
  less index memory per vector.  An optional exact re-rank of the
  ``rerank`` best ADC candidates restores exact rankings over that pool
  (full probe + the default 64 at ``k <= 10`` matches :class:`ExactIndex`
  bit-for-bit).  Rows encoded after training feed a drift statistic
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
from typing import AbstractSet, Dict, Optional, Tuple

import numpy as np

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


def _sqrt_clamped(d2: np.ndarray) -> np.ndarray:
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2, out=d2)


#: Rows per block of a nearest-centroid pass: k-means, cell assignment and
#: PQ encoding never hold more than this many rows of the ``(rows,
#: n_cells)`` float64 distance matrix (512 x 637 coarse cells is 2.6 MB).
_ASSIGN_BLOCK_ROWS = 512


def _nearest_centroids(
    vectors: np.ndarray,
    centroids: np.ndarray,
    centroids_sq: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(cells, squared distances)``: each row's nearest centroid — the
    ``argmin`` and minimum of every row of
    :func:`squared_euclidean_distances`, computed :data:`_ASSIGN_BLOCK_ROWS`
    rows at a time with the row norms computed once per call."""
    n = vectors.shape[0]
    vectors_sq = np.einsum("ij,ij->i", vectors, vectors)
    if centroids_sq is None:
        centroids_sq = np.einsum("ij,ij->i", centroids, centroids)
    cells = np.empty(n, dtype=np.int64)
    nearest = np.empty(n, dtype=np.float64)
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


def _smallest_pairs_subset(seg_d: np.ndarray, seg_i: np.ndarray, n_select: int) -> np.ndarray:
    """Positions of the ``n_select`` smallest ``(distance, id)`` pairs (unordered).

    ``argpartition`` alone picks an *arbitrary* subset of the values tied
    at the selection boundary; resolving the tie set by smallest id makes
    the selected set deterministic under the (distance, id) total order —
    exactly the set the native streaming top-k's bounded max-heap keeps,
    which is what lets kernels-on and kernels-off agree bit for bit.
    """
    part = np.argpartition(seg_d, n_select - 1)[:n_select]
    kth = seg_d[part].max()
    below = np.flatnonzero(seg_d < kth)
    need = n_select - below.size
    tied = np.flatnonzero(seg_d == kth)
    if need < tied.size:
        keep = np.argpartition(seg_i[tied], need - 1)[:need]
        tied = tied[keep]
    return np.concatenate([below, tied])


def _cap_cell_assignments(
    vectors: np.ndarray,
    centroids: np.ndarray,
    assignments: np.ndarray,
    max_fraction: float,
) -> np.ndarray:
    """Rebalance ``assignments`` so no cell exceeds ``ceil(max_fraction * N)`` rows.

    Over-full cells keep their ``cap`` members nearest the centroid (ties
    by row id); spilled rows move to their nearest cell with room,
    processed in ascending row order, so the result is deterministic.  An
    infeasible cap (``cap * n_cells < N``) relaxes to the balanced floor
    ``ceil(N / n_cells)``.
    """
    n = assignments.shape[0]
    n_cells = centroids.shape[0]
    cap = max(1, int(np.ceil(max_fraction * n)))
    if cap * n_cells < n:
        cap = int(np.ceil(n / n_cells))
    assignments = assignments.astype(np.int64, copy=True)
    counts = np.bincount(assignments, minlength=n_cells)
    over = np.flatnonzero(counts > cap)
    if over.size == 0:
        return assignments
    spilled = []
    for cell in over:
        members = np.flatnonzero(assignments == cell)
        d = squared_euclidean_distances(vectors[members], centroids[cell : cell + 1])[:, 0]
        keep = np.lexsort((members, d))
        spilled.append(members[keep[cap:]])
        counts[cell] = cap
    spilled = np.sort(np.concatenate(spilled))
    for start in range(0, spilled.size, 4096):
        block = spilled[start : start + 4096]
        d_block = squared_euclidean_distances(vectors[block], centroids)
        order_block = np.argsort(d_block, axis=1, kind="stable")
        for row_pos, row in enumerate(block):
            for cell in order_block[row_pos]:
                if counts[cell] < cap:
                    assignments[row] = int(cell)
                    counts[cell] += 1
                    break
    return assignments


def _cap_added_assignments(
    new_rows: np.ndarray,
    centroids: np.ndarray,
    counts: np.ndarray,
    assignments: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Redirect appended rows whose nearest cell is at capacity to their
    nearest cell with room (sequential in row order, so deterministic).

    ``counts`` holds the pre-existing per-cell sizes and is updated in
    place.  When every cell is full the nearest assignment stands — the
    cap is best-effort at add time and restored at the next rebuild.
    """
    assignments = assignments.astype(np.int64, copy=True)
    for pos in range(assignments.shape[0]):
        cell = int(assignments[pos])
        if counts[cell] < cap:
            counts[cell] += 1
            continue
        d = squared_euclidean_distances(new_rows[pos : pos + 1], centroids)[0]
        for candidate in np.argsort(d, kind="stable"):
            if counts[candidate] < cap:
                assignments[pos] = int(candidate)
                counts[candidate] += 1
                break
        else:
            counts[cell] += 1
    return assignments


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

        ``False`` for every pure-NumPy engine; :class:`IVFPQIndex`
        reports whether its ADC scan runs natively.  Telemetry (the
        per-shard ``native=yes|no`` scan histograms) reads this.
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
    """Brute-force search; linear in N but exact."""

    def rebuild(self, vectors: np.ndarray) -> None:
        """Nothing cached: the exact scan reads the store directly."""

    def add(self, vectors: np.ndarray, n_new: int) -> None:
        """No side structures to update."""

    def remove(self, kept_mask: np.ndarray) -> None:
        """No side structures to compact."""

    def search(self, vectors: np.ndarray, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k nearest rows by brute force, (distance, id)-ordered."""
        if vectors.shape[0] == 0:
            raise ValueError("cannot search an empty index")
        k = min(int(k), vectors.shape[0])
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        # Rank on squared distances, square-root only the k selected.
        dist, idx = top_k_by_distance(squared_euclidean_distances(queries, vectors), k)
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
    stays ~``n_cells`` small distance passes.
    """
    n = vectors.shape[0]
    sample_size = min(n, max(n_cells * 32, 1024))
    sample = vectors if sample_size == n else vectors[rng.choice(n, size=sample_size, replace=False)]
    centroids = np.empty((n_cells, vectors.shape[1]), dtype=vectors.dtype)
    centroids[0] = sample[rng.integers(sample.shape[0])]
    sample_sq = np.einsum("ij,ij->i", sample, sample)
    # Squared distance to the nearest chosen seed.
    closest = squared_euclidean_distances(sample, centroids[:1], queries_sq=sample_sq)[:, 0]
    np.maximum(closest, 0.0, out=closest)
    for position in range(1, n_cells):
        total = float(closest.sum())
        if not total > 0.0:  # all mass covered; fall back to uniform picks
            centroids[position] = sample[rng.integers(sample.shape[0])]
            continue
        pick = int(np.searchsorted(np.cumsum(closest), rng.uniform(0.0, total)))
        pick = min(pick, sample.shape[0] - 1)
        centroids[position] = sample[pick]
        fresh = squared_euclidean_distances(
            sample, centroids[position : position + 1], queries_sq=sample_sq
        )[:, 0]
        np.maximum(fresh, 0.0, out=fresh)
        np.minimum(closest, fresh, out=closest)
    return centroids


def _kmeans(
    vectors: np.ndarray,
    n_cells: int,
    *,
    n_iter: int = 10,
    seed: int = 0,
    init: str = "kmeans++",
) -> Tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd's k-means; returns ``(centroids, assignments)``.

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
    for _ in range(n_iter):
        assignments, spread = _nearest_centroids(vectors, centroids)
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
        empty = np.flatnonzero(
            np.bincount(assignments, minlength=n_cells) == 0
        )
        if empty.size:
            # Re-seed empty cells on the points farthest from their centroid.
            farthest = np.argsort(spread)[::-1]
            centroids[empty] = vectors[farthest[: empty.size]]
    return centroids, _nearest_centroids(vectors, centroids)[0]


class CoarseQuantizedIndex(NearestNeighbourIndex):
    """The cell index: k-means cells, a query scans the ``n_probe`` nearest.

    This class *is* the inverted file — coarse partition, mutation path
    and search skeleton — with the raw codec built in: a cell member is
    stored as nothing but its row id, and :meth:`_scan` reads its vector
    straight from the store.  :class:`IVFPQIndex` swaps the codec.

    Parameters
    ----------
    n_cells:
        Number of coarse cells; ``None`` picks ``ceil(sqrt(N))`` when the
        quantizer is (re)trained.
    n_probe:
        How many cells each query scans.  ``n_probe >= n_cells`` degrades
        gracefully to an exact search over all cells.
    min_train_size:
        Below this store size the index answers exactly (brute force) and
        defers k-means until enough references exist — small stores gain
        nothing from quantization.
    max_cell_fraction:
        Optional cap on any one cell's share of the corpus: after k-means
        assignment (and on every ``add``) no cell keeps more than
        ``ceil(max_cell_fraction * N)`` members — overflow rows spill to
        their nearest cell with room — so a hot cluster cannot blow up
        per-probe candidate counts on skewed corpora.

    ``add`` assigns new vectors to their nearest *existing* centroid and
    ``remove`` compacts the per-row buffers (amortised doubling, like the
    store's own matrix), so adaptation (replace/remove/add of a class)
    never re-runs k-means and costs O(changed rows); call :meth:`retrain`
    if the corpus has drifted far from the original clustering.

    **Codec hooks.**  A subclass that stores more per member than its row
    id names the extra per-row buffers in :meth:`_row_buffers` (they then
    grow, compact and reset with the assignments), fills them in
    :meth:`_fit_rows` (after training) and :meth:`_add_rows` (on ``add``),
    scores probed members in :meth:`_scan`, and extends :meth:`state` /
    :meth:`load_state` (through :meth:`_adopt`) for persistence.
    """

    kind = "ivf"
    _QUERY_CHUNK = 512  # queries per search block (bounds the candidate scratch)
    _CELLS_PER_SQRT_N = 1.0  # default n_cells = ceil(this * sqrt(N))
    _COARSE_TRAIN_CAP: Optional[int] = None  # k-means sample cap; assignment stays exact
    _assign_dtype = np.dtype(np.int64)
    _centroid_dtype = np.dtype(np.float64)

    def __init__(
        self,
        n_cells: Optional[int] = None,
        n_probe: int = 8,
        *,
        min_train_size: int = 256,
        train_iters: int = 10,
        seed: int = 0,
        max_cell_fraction: Optional[float] = None,
    ) -> None:
        if n_cells is not None and n_cells <= 0:
            raise ValueError("n_cells must be positive")
        if n_probe <= 0:
            raise ValueError("n_probe must be positive")
        if max_cell_fraction is not None and not 0.0 < float(max_cell_fraction) <= 1.0:
            raise ValueError("max_cell_fraction must be in (0, 1]")
        self.n_cells = None if n_cells is None else int(n_cells)
        self.n_probe = int(n_probe)
        self.min_train_size = int(min_train_size)
        self.train_iters = int(train_iters)
        self.seed = int(seed)
        self.max_cell_fraction = None if max_cell_fraction is None else float(max_cell_fraction)
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

    def _row_buffers(self) -> Dict[str, Tuple[np.dtype, Tuple[int, ...]]]:
        """Per-row side buffers as ``attribute -> (dtype, trailing shape)``;
        they reserve, compact and reset together."""
        return {"_assign_buffer": (self._assign_dtype, ())}

    def _reset(self) -> None:
        """Back to untrained: no centroids, empty row buffers."""
        self._centroids: Optional[np.ndarray] = None
        self._centroid_sq: Optional[np.ndarray] = None
        self._n = 0
        for name, (dtype, tail) in self._row_buffers().items():
            setattr(self, name, np.empty((0,) + tail, dtype=dtype))
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop layouts derived from the row buffers (after any mutation)."""
        self._cells: Optional[Tuple[np.ndarray, np.ndarray]] = None

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
            resolved = max(1, min(n, int(np.ceil(self._CELLS_PER_SQRT_N * np.sqrt(n)))))
        # A cell id must fit the assignment dtype (uint16 on the packed codec).
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

    # ---------------------------------------------------------- codec hooks
    def _holdout(self, n: int) -> Optional[np.ndarray]:
        """Row ids to keep out of training (a codec's out-of-sample
        baseline); ``None`` trains on every row."""
        return None

    def _fit_rows(
        self,
        vectors: np.ndarray,
        assignments: np.ndarray,
        holdout: Optional[np.ndarray],
        sample_size: Optional[int],
    ) -> None:
        """Fit the codec to the freshly partitioned corpus and fill its row
        buffers for all ``N`` rows (the raw codec stores nothing)."""

    def _add_rows(self, rows: np.ndarray, assignments: np.ndarray, at: slice) -> None:
        """Fill the codec's (already reserved) row buffers at ``at`` for
        appended ``rows`` (the raw codec stores nothing)."""

    # ------------------------------------------------------------- mutation
    def _train(self, vectors: np.ndarray, sample_size: Optional[int] = None) -> None:
        """k-means the coarse cells on (a capped sample of) ``vectors``,
        assign every row exactly, then hand the partition to the codec."""
        n = vectors.shape[0]
        if n < self.min_train_size:
            self._reset()
            return
        vectors = np.asarray(vectors, dtype=np.float64)
        holdout = self._holdout(n)
        train_rows = vectors if holdout is None else np.delete(vectors, holdout, axis=0)
        limits = (self._COARSE_TRAIN_CAP, sample_size)
        cap = min((int(limit) for limit in limits if limit is not None), default=n)
        if train_rows.shape[0] > cap:
            # Cells only need to cover the density; every reference still
            # gets an exact assignment below.
            rng = np.random.default_rng(self.seed)
            train_rows = train_rows[rng.choice(train_rows.shape[0], size=cap, replace=False)]
        # A holdout or a tight sample cap can leave fewer training rows than
        # resolved cells; k-means needs n_cells <= rows.
        n_cells = min(self._resolve_n_cells(n), train_rows.shape[0])
        centroids, _ = _kmeans(train_rows, n_cells, n_iter=self.train_iters, seed=self.seed)
        self._set_centroids(centroids.astype(self._centroid_dtype, copy=False))
        assignments = self._assign_to_centroids(vectors)
        if self.max_cell_fraction is not None:
            # Before the codec sees them: residuals (and so codes) are
            # computed against the *capped* assignment.
            assignments = _cap_cell_assignments(
                vectors, self._centroids, assignments, self.max_cell_fraction
            )
        self._assign_buffer = assignments.astype(self._assign_dtype, copy=False)
        self._n = n
        self._fit_rows(vectors, assignments, holdout, sample_size)
        self._invalidate()

    def rebuild(self, vectors: np.ndarray) -> None:
        """(Re)train cells and codec over ``vectors`` (or defer below
        ``min_train_size``)."""
        self._train(vectors)

    def retrain(self, vectors: np.ndarray, *, sample_size: Optional[int] = None) -> None:
        """:meth:`rebuild` with ``sample_size`` capping the training points
        (coarse k-means and the codec's own fit); every row is still
        assigned and encoded exactly.  ``DeploymentManager.requantize()``
        runs this per shard behind its copy-on-write swap."""
        if sample_size is not None and sample_size <= 0:
            raise ValueError("sample_size must be positive")
        self._train(vectors, sample_size)

    def add(self, vectors: np.ndarray, n_new: int) -> None:
        """Assign the ``n_new`` appended rows to their nearest existing cell
        (no k-means; honouring ``max_cell_fraction`` when set) and encode
        them with the trained codec."""
        n = vectors.shape[0]
        if not self.trained:
            if n >= self.min_train_size:
                self.rebuild(vectors)
            return
        new_rows = np.asarray(vectors[n - n_new :], dtype=np.float64)
        assignments = self._assign_to_centroids(new_rows)
        if self.max_cell_fraction is not None:
            cap = max(1, int(np.ceil(self.max_cell_fraction * n)))
            counts = np.bincount(self._assignments, minlength=self._centroids.shape[0])
            assignments = _cap_added_assignments(
                new_rows, self._centroids, counts, assignments, cap
            )
        self._reserve(n_new)
        at = slice(self._n, self._n + n_new)
        self._assign_buffer[at] = assignments
        self._add_rows(new_rows, assignments, at)
        self._n += n_new
        self._invalidate()

    def remove(self, kept_mask: np.ndarray) -> None:
        """Compact every row buffer after store compaction."""
        if not self.trained:
            return
        kept = int(np.count_nonzero(kept_mask))
        for name in self._row_buffers():
            buffer = getattr(self, name)
            buffer[:kept] = buffer[: self._n][kept_mask]
        self._n = kept
        self._invalidate()

    # --------------------------------------------------------------- search
    @staticmethod
    def _probe(coarse: np.ndarray, n_probe: int) -> np.ndarray:
        """Per query, the ``n_probe`` cells with the nearest centroids
        (unordered); every cell once ``n_probe`` covers them all."""
        n_cells = coarse.shape[1]
        if n_probe >= n_cells:
            return np.broadcast_to(np.arange(n_cells), coarse.shape).copy()
        return np.argpartition(coarse, n_probe - 1, axis=1)[:, :n_probe]

    def search(
        self, vectors: Optional[np.ndarray], queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe the ``n_probe`` nearest cells per query and :meth:`_scan`
        their members; a query whose probes hold fewer than ``k`` members
        is re-scanned with every cell probed.  ``vectors`` may be ``None``
        only when the codec says so (:attr:`needs_vectors`)."""
        if vectors is None and self.needs_vectors:
            raise ValueError(f"{type(self).__name__}.search needs the raw vectors here; pass them")
        if not self.trained:
            return ExactIndex().search(vectors, queries, k)
        if self._n == 0:
            raise ValueError("cannot search an empty index")
        if vectors is not None and vectors.shape[0] != self._n:
            raise ValueError(f"index covers {self._n} rows but was handed {vectors.shape[0]}")
        k = min(int(k), self._n)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_cells = self._centroids.shape[0]
        n_probe = min(self.n_probe, n_cells)

        out_d = np.empty((queries.shape[0], k))
        out_i = np.empty((queries.shape[0], k), dtype=np.int64)
        for start in range(0, queries.shape[0], self._QUERY_CHUNK):
            chunk = queries[start : start + self._QUERY_CHUNK]
            coarse = self._coarse_distances(chunk)
            chunk_d, chunk_i, counts = self._scan(
                vectors, chunk, coarse, self._probe(coarse, n_probe), k
            )
            # Probed cells holding fewer than k members would surface
            # padding; those (rare) queries scan every cell instead.
            short = np.flatnonzero(counts < k)
            if short.size:
                chunk_d[short], chunk_i[short], _ = self._scan(
                    vectors, chunk[short], coarse[short], self._probe(coarse[short], n_cells), k
                )
            # _scan's order follows the probe layout; restore the
            # documented (distance, id) order over the selected k.
            stop = start + chunk.shape[0]
            out_d[start:stop], out_i[start:stop] = sort_by_distance(chunk_d, chunk_i)
        return out_d, out_i

    def _scan(
        self,
        vectors: np.ndarray,
        chunk: np.ndarray,
        coarse: np.ndarray,
        probe: np.ndarray,
        k: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``k`` best members of each query's probed cells, as
        fixed-width ``(distances, ids, counts)``: ``(n_chunk, k)`` rows of
        which only the first ``counts[q]`` columns are real candidates
        (``counts < k`` marks a short probe).  ``coarse`` is the distance
        block ``probe`` was picked from (a residual codec scores against it).

        The raw codec: each query's candidate row is the concatenation of
        its probed cells, filled cell-major so every probed cell costs one
        (queries-probing-it, cell-members) distance GEMM over the *gathered*
        member block — norms included, so a search touches only the probed
        rows of the store, never all ``N``.
        """
        cell_starts, members = self._cell_lists()
        n_chunk, n_probe = probe.shape
        sizes = np.diff(cell_starts)[probe]  # (n_chunk, n_probe)
        ends = np.cumsum(sizes, axis=1)
        counts = ends[:, -1]
        width = max(int(counts.max()), k)
        cand = np.full((n_chunk, width), -1, dtype=np.int64)
        distances = np.full((n_chunk, width), np.inf)

        flat_queries = np.repeat(np.arange(n_chunk), n_probe)
        flat_cells = probe.ravel()
        flat_offsets = (ends - sizes).ravel()
        grouping = np.argsort(flat_cells, kind="stable")
        boundaries = np.searchsorted(flat_cells[grouping], np.arange(cell_starts.size))
        for cell in np.unique(flat_cells):
            rows = members[cell_starts[cell] : cell_starts[cell + 1]]
            if rows.size == 0:
                continue
            group = grouping[boundaries[cell] : boundaries[cell + 1]]
            probing = flat_queries[group]
            cols = flat_offsets[group][:, None] + np.arange(rows.size)[None, :]
            cand[probing[:, None], cols] = rows
            block = np.asarray(vectors[rows], dtype=np.float64)
            distances[probing[:, None], cols] = squared_euclidean_distances(
                chunk[probing], block
            )
        chunk_d, columns = top_k_by_distance(distances, k)
        return _sqrt_clamped(chunk_d), cand.take(columns + _row_offsets(*cand.shape)), np.minimum(counts, k)

    # ---------------------------------------------------------- persistence
    def spec(self) -> Dict[str, object]:
        """JSON-serialisable configuration (cells, probes, seed)."""
        return {
            "kind": self.kind,
            "n_cells": self.n_cells,
            "n_probe": self.n_probe,
            "min_train_size": self.min_train_size,
            "train_iters": self.train_iters,
            "seed": self.seed,
            "max_cell_fraction": self.max_cell_fraction,
        }

    def state(self) -> Dict[str, np.ndarray]:
        """Centroids + assignments (empty until trained); see the base
        contract for how deployments and shm workers use this."""
        if not self.trained:
            return {}
        return {"centroids": self._centroids, "assignments": self._assignments}

    def load_state(self, state: Dict[str, np.ndarray]) -> None:
        """Adopt trained structures without re-running k-means.

        Arrays are adopted as-is (views into a shared-memory segment are
        fine: search never writes; a later ``add`` re-allocates through the
        amortised-doubling reserve before writing).  State that does not
        fit — another kind's keys, row arrays that disagree on ``N``, an
        assignment outside ``[0, n_cells)`` — raises ``ValueError`` before
        anything is adopted, so the caller falls back to a clean rebuild.
        """
        if not state:
            self._reset()
            return
        self._check_state_keys(state, {"centroids", "assignments"})
        self._adopt(state)

    def _check_state_keys(
        self,
        state: Dict[str, np.ndarray],
        required: AbstractSet[str],
        optional: AbstractSet[str] = frozenset(),
    ) -> None:
        if not required <= set(state) <= required | optional:
            # Extra or missing arrays: this state belongs to another kind.
            raise ValueError(f"state keys {sorted(state)} do not match a {type(self).__name__}")

    def _adopt(self, state: Dict[str, np.ndarray], **codec_rows: np.ndarray) -> None:
        """Adopt ``state``'s cells plus the codec's row buffers
        (``attribute=array``) once they agree with the cells and each other."""
        centroids = np.asarray(state["centroids"], dtype=self._centroid_dtype)
        assignments = np.asarray(state["assignments"])
        n = assignments.shape[0]
        if any(rows.shape[0] != n for rows in codec_rows.values()):
            raise ValueError(f"inconsistent {self.kind} state: row arrays disagree on N")
        if n and not 0 <= assignments.min() <= assignments.max() < centroids.shape[0]:
            raise ValueError(
                f"inconsistent {self.kind} state: assignments name cells outside "
                f"[0, {centroids.shape[0]})"
            )
        self._set_centroids(centroids)
        self._assign_buffer = assignments.astype(self._assign_dtype, copy=False)
        for name, rows in codec_rows.items():
            setattr(self, name, rows)
        self._n = n
        self._invalidate()

    def memory_bytes(self) -> int:
        """Resident bytes of centroids + the live per-row buffers."""
        if not self.trained:
            return 0
        rows = sum(getattr(self, name)[: self._n].nbytes for name in self._row_buffers())
        return int(self._centroids.nbytes + rows)


class ProductQuantizer:
    """Per-subspace k-means codebooks over residual vectors, uint8 codes.

    The embedding dimension is split into ``n_subspaces`` contiguous slices
    (sizes differ by at most one when it does not divide evenly) and each
    slice gets its own ``2**bits``-entry codebook trained with k-means++ on
    the residual sub-vectors.  A reference is then ``n_subspaces`` uint8
    codes — 8 bytes instead of 512 for a float64 64-dim embedding — and
    distances against a query decompose into per-subspace table lookups.

    ``opq=True`` additionally learns an **orthogonal rotation** of the
    input space (optimized product quantization): :meth:`fit` alternates
    codebook training with a Procrustes solve of ``min_R |XR - decode|``,
    so correlated dimensions stop straddling subspace boundaries.  The
    rotation is entirely internal — :meth:`encode` rotates on the way in,
    :meth:`decode` rotates back, and :meth:`query_tables` rotates the
    query — so callers (and the ADC decomposition) never see rotated
    coordinates.
    """

    #: Whether stored codes pack two per byte (:class:`PackedPQ` overrides).
    packed = False

    def __init__(
        self,
        n_subspaces: int = 8,
        bits: int = 8,
        *,
        opq: bool = False,
        opq_iters: int = 4,
        train_iters: int = 10,
        seed: int = 0,
        max_train_points: int = 32768,
    ) -> None:
        """``n_subspaces`` codes per vector, ``2**bits`` entries per codebook;
        see the class docstring for ``opq``.  ``max_train_points`` caps the
        training subsample (encoding always covers every row)."""
        if n_subspaces <= 0:
            raise ValueError("n_subspaces must be positive")
        if not 1 <= bits <= 8:
            raise ValueError("bits must be in [1, 8] (codes are stored as uint8)")
        if opq_iters <= 0:
            raise ValueError("opq_iters must be positive")
        self.n_subspaces = int(n_subspaces)
        self.bits = int(bits)
        self.opq = bool(opq)
        self.opq_iters = int(opq_iters)
        self.train_iters = int(train_iters)
        self.seed = int(seed)
        self.max_train_points = int(max_train_points)
        self._codebooks: Optional[np.ndarray] = None  # (m, k_sub, max_sub_dim)
        self._sub_dims: Optional[np.ndarray] = None
        self._splits: Optional[np.ndarray] = None  # subspace boundaries, len m+1
        self._rotation: Optional[np.ndarray] = None  # (dim, dim) orthogonal, opq only

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

    @property
    def rotation(self) -> Optional[np.ndarray]:
        """The learned OPQ rotation (``None`` unless ``opq`` and trained)."""
        return self._rotation

    def _boundaries(self, dim: int) -> np.ndarray:
        if self.n_subspaces > dim:
            raise ValueError(
                f"n_subspaces={self.n_subspaces} exceeds the embedding dimension {dim}"
            )
        sizes = np.full(self.n_subspaces, dim // self.n_subspaces, dtype=np.int64)
        sizes[: dim % self.n_subspaces] += 1
        return np.concatenate([[0], np.cumsum(sizes)])

    def _rotate(self, vectors: np.ndarray) -> np.ndarray:
        return vectors if self._rotation is None else vectors @ self._rotation

    def _train_codebooks(self, vectors: np.ndarray) -> None:
        """One k-means codebook per subspace of (already-rotated) vectors."""
        n = vectors.shape[0]
        k_sub = min(2**self.bits, n)
        max_sub = int(self._sub_dims.max())
        # One dense (m, k_sub, max_sub_dim) block; ragged tails stay zero so
        # the whole thing round-trips through a single npz array.
        self._codebooks = np.zeros((self.n_subspaces, k_sub, max_sub), dtype=np.float64)
        for j in range(self.n_subspaces):
            sub = vectors[:, self._splits[j] : self._splits[j + 1]]
            centroids, _ = _kmeans(sub, k_sub, n_iter=self.train_iters, seed=self.seed + j)
            self._codebooks[j, :, : self._sub_dims[j]] = centroids

    def _encode_rotated(self, rotated: np.ndarray) -> np.ndarray:
        codes = np.empty((rotated.shape[0], self.n_subspaces), dtype=np.uint8)
        for j in range(self.n_subspaces):
            sub = rotated[:, self._splits[j] : self._splits[j + 1]]
            book = self._codebooks[j, :, : self._sub_dims[j]]
            codes[:, j] = _nearest_centroids(sub, book)[0]
        return codes

    def _decode_rotated(self, codes: np.ndarray) -> np.ndarray:
        out = np.empty((codes.shape[0], int(self._splits[-1])), dtype=np.float64)
        for j in range(self.n_subspaces):
            book = self._codebooks[j, :, : self._sub_dims[j]]
            out[:, self._splits[j] : self._splits[j + 1]] = book[codes[:, j]]
        return out

    def fit(self, vectors: np.ndarray, *, rng: Optional[np.random.Generator] = None) -> None:
        """Train one codebook per subspace on (a subsample of) ``vectors``.

        With ``opq`` the training loop alternates codebook fitting with the
        orthogonal-Procrustes rotation update (``R = UV^T`` from the SVD of
        ``X^T decode``), ``opq_iters`` rounds, then fits final codebooks in
        the rotated space.
        """
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
        self._rotation = None
        if not self.opq:
            self._train_codebooks(vectors)
            return
        rotation = np.eye(dim)
        for _ in range(self.opq_iters):
            rotated = vectors @ rotation
            self._train_codebooks(rotated)
            decoded = self._decode_rotated(self._encode_rotated(rotated))
            # Procrustes: the orthogonal R minimising |XR - decoded|_F.
            u, _, vt = np.linalg.svd(vectors.T @ decoded)
            rotation = u @ vt
        self._train_codebooks(vectors @ rotation)
        self._rotation = rotation

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest-codebook-entry codes, shape ``(n, n_subspaces)`` uint8."""
        if self._codebooks is None:
            raise RuntimeError("the product quantizer has not been trained")
        return self._encode_rotated(self._rotate(np.asarray(vectors, dtype=np.float64)))

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Approximate vectors back from codes, in the *original* space
        (codebook entry per slice, un-rotated when OPQ is on)."""
        if self._codebooks is None:
            raise RuntimeError("the product quantizer has not been trained")
        out = self._decode_rotated(np.asarray(codes))
        return out if self._rotation is None else out @ self._rotation.T

    def query_tables(self, queries: np.ndarray) -> np.ndarray:
        """Per-query inner products with every codebook entry, ``(n, m, k_sub)``.

        This is the only per-query cost of ADC that touches the embedding
        dimension; everything cell-dependent is precomputed at train time.
        Queries are rotated first when OPQ is on, so
        ``sum_j table[q, j, code_j] == q . decode(code)`` holds either way.
        """
        if self._codebooks is None:
            raise RuntimeError("the product quantizer has not been trained")
        queries = self._rotate(np.asarray(queries, dtype=np.float64))
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
        bias = flat.min(axis=1)
        scale = (flat.max(axis=1) - bias) / 255.0
        scale[scale == 0.0] = 1.0  # constant table: any scale reconstructs
        lut = np.rint((tables - bias[:, None, None]) / scale[:, None, None])
        return (
            np.clip(lut, 0, 255).astype(np.uint8),
            scale.astype(np.float32),
            bias.astype(np.float32),
        )

    def memory_bytes(self) -> int:
        """Resident bytes of codebooks (and the OPQ rotation when learned)."""
        total = int(self._codebooks.nbytes) if self._codebooks is not None else 0
        if self._rotation is not None:
            total += int(self._rotation.nbytes)
        return total


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

    Everything else (training, OPQ, the :meth:`encode`/:meth:`decode`
    contract in unpacked per-subspace codes) is inherited.
    """

    packed = True

    def __init__(
        self,
        n_subspaces: int = 8,
        bits: int = 4,
        *,
        opq: bool = False,
        opq_iters: int = 4,
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
            opq=opq,
            opq_iters=opq_iters,
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


class IVFPQIndex(CoarseQuantizedIndex):
    """The cell index with a product-quantizing codec: a member is stored
    as the PQ codes of its residual against the cell centroid.

    Partition, mutation path and search skeleton are
    :class:`CoarseQuantizedIndex`'s; this class adds the codec.
    :meth:`_scan` is asymmetric distance computation (ADC) over the probed
    cells' code lists.  With ``x ~ c + e`` (coarse centroid plus decoded
    residual) the squared distance decomposes as::

        d2(q, x) = |q - c|^2 + sum_j [ |e_j|^2 + 2 c_j.e_j ] - 2 sum_j q_j.e_j

    The middle term depends only on the *reference row* (its cell and codes
    are fixed), so it collapses to one precomputed float per reference
    (``member_const``); the last term is one small GEMM per query batch
    (:meth:`ProductQuantizer.query_tables`); scanning the probed candidates
    is then ``m`` uint8 table gathers per member — flat across every probed
    cell at once — instead of a float GEMM over raw vectors.  ``rerank > 0``
    re-scores the ``max(k, rerank)`` best ADC candidates against the raw
    vectors, which restores exact ``(distance, id)`` ranking *over that
    candidate set* (tie-break semantics included): results match
    :class:`ExactIndex` bit-for-bit exactly when the true top-k sit inside
    the re-ranked pool — guaranteed by margin rather than by construction,
    so keep ``rerank`` several times ``k`` (with ``n_probe >= n_cells`` and
    the default ``rerank=64`` at ``k <= 10``, the agreement is exact on
    clustered corpora; see the tests).  With ``rerank == 0`` the index never
    touches raw vectors after training, which is what lets the serving
    layer publish only codes and codebooks (~16-32x smaller) into shared
    memory.

    What else differs from the raw codec: finer default cells (``ceil(9 * sqrt(N))``, 16 probes);
    k-means trains on at most ``_COARSE_TRAIN_CAP`` rows; a slice of the
    corpus is held out of both training stages as the out-of-sample drift
    baseline, and rows encoded after training feed the drift statistics
    behind :meth:`drift_ratio` / :meth:`retrain_needed` / :meth:`retrain`.

    **Compression v2.**  ``bits <= 4`` selects the :class:`PackedPQ`
    quantizer: codes pack two per byte and the side structures slim down
    too (uint16 cell assignments — ``n_cells`` is capped at 65535 — float16
    ADC member constants and float32 coarse centroids; constants are
    clipped into float16 range, so embeddings with ADC magnitudes beyond
    ~6e4 — far outside any normalised or tanh-bounded embedding — degrade
    candidate selection gracefully, recoverable by a deeper ``rerank``,
    instead of corrupting it).  ``opq=True`` trains the quantizer behind an
    OPQ rotation (either bit width).
    """

    kind = "ivfpq"
    _QUERY_CHUNK = 1024
    # Finer cells than the raw codec: the uint8 scan makes probing cheap and
    # the per-query LUT cost is cell-independent, so smaller cells buy both
    # smaller residuals (better codes) and fewer candidates per probe.
    _CELLS_PER_SQRT_N = 9.0
    _COARSE_TRAIN_CAP = 131072

    def __init__(
        self,
        n_cells: Optional[int] = None,
        n_probe: int = 16,
        *,
        n_subspaces: int = 8,
        bits: int = 8,
        opq: bool = False,
        rerank: int = 64,
        min_train_size: int = 256,
        train_iters: int = 10,
        seed: int = 0,
        max_cell_fraction: Optional[float] = None,
    ) -> None:
        if rerank < 0:
            raise ValueError("rerank must be >= 0 (0 disables exact re-ranking)")
        self.rerank = int(rerank)
        self.opq = bool(opq)
        quantizer = PackedPQ if bits <= 4 else ProductQuantizer
        self.pq = quantizer(
            n_subspaces=n_subspaces, bits=bits, opq=opq, train_iters=train_iters, seed=seed
        )
        # The packed engine slims every per-row side structure; the 8-bit
        # engine keeps the wider dtypes (and their bit-exact baselines).
        self._assign_dtype = np.dtype(np.uint16 if self.pq.packed else np.int32)
        self._const_dtype = np.dtype(np.float16 if self.pq.packed else np.float32)
        self._centroid_dtype = np.dtype(np.float32 if self.pq.packed else np.float64)
        super().__init__(
            n_cells,
            n_probe,
            min_train_size=min_train_size,
            train_iters=train_iters,
            seed=seed,
            max_cell_fraction=max_cell_fraction,
        )

    # ---------------------------------------------------------------- state
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
        """Assignments plus codes, the per-reference ADC constant
        ``|e|^2 + 2 c.e`` and the per-row drift error (NaN marks train-time
        rows; per-row so that removal compacts it — departed rows stop
        exerting drift pressure)."""
        return {
            **super()._row_buffers(),
            "_code_buffer": (np.dtype(np.uint8), (self.pq.code_width,)),
            "_const_buffer": (self._const_dtype, ()),
            "_drift_buffer": (np.dtype(np.float16), ()),
        }

    def _reset(self) -> None:
        super()._reset()
        # The held-out train-time mean squared reconstruction error.
        self._train_distortion: Optional[float] = None
        self._recount_drift()

    def _recount_drift(self) -> None:
        """Sum and count of the drift buffer's valid (post-training)
        entries, kept so drift_ratio() stays O(1) (the info op polls it)."""
        errors = self._drift_buffer[: self._n].astype(np.float64)
        valid = ~np.isnan(errors)
        self._drift_sum = float(errors[valid].sum())
        self._drift_count = int(np.count_nonzero(valid))

    def _invalidate(self) -> None:
        super()._invalidate()
        self._scan_cache = None

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
            from repro.core.kernels import ScanLayout

            cell_starts, members = self._cell_lists()
            consts = self._const_buffer[: self._n][members].astype(np.float32)
            codes_t = np.ascontiguousarray(self._code_buffer[: self._n][members].T)
            self._scan_cache = ScanLayout(cell_starts, members, consts, codes_t)
        return self._scan_cache

    def kernels_active(self) -> bool:
        """Whether ADC scans dispatch to the native C kernels — exactly
        when they built (:func:`repro.core.kernels.ivfpq_kernels`)."""
        from repro.core.kernels import ivfpq_kernels

        return ivfpq_kernels() is not None

    # ---------------------------------------------------------- codec hooks
    def _holdout(self, n: int) -> Optional[np.ndarray]:
        """The drift baseline must be an *out-of-sample* error (cells and
        codebooks fit their own training rows tighter than anything encoded
        later, so an in-sample one would read ordinary churn as drift):
        hold a slice out of both training stages and measure it there."""
        holdout_size = min(1024, n // 8)
        if holdout_size < 32:
            return None
        return np.random.default_rng(self.seed + 2).choice(n, size=holdout_size, replace=False)

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

    def _fit_rows(
        self,
        vectors: np.ndarray,
        assignments: np.ndarray,
        holdout: Optional[np.ndarray],
        sample_size: Optional[int],
    ) -> None:
        """Train the codebooks on the (non-holdout) residuals, encode every
        row and reset the drift statistics to the held-out baseline."""
        residuals = vectors - self._centroids[assignments]
        fit_rows = residuals if holdout is None else np.delete(residuals, holdout, axis=0)
        old_points = self.pq.max_train_points
        if sample_size is not None:
            self.pq.max_train_points = min(old_points, int(sample_size))
        try:
            self.pq.fit(fit_rows, rng=np.random.default_rng(self.seed + 1))
        finally:
            self.pq.max_train_points = old_points
        self._code_buffer, decoded = self._encode(residuals)
        self._const_buffer = self._member_consts(decoded, assignments)
        baseline = slice(None) if holdout is None else holdout
        self._train_distortion = float(
            self._reconstruction_error(residuals[baseline], decoded[baseline]).mean()
        )
        self._drift_buffer = np.full(vectors.shape[0], np.nan, dtype=np.float16)
        self._recount_drift()

    def _add_rows(self, rows: np.ndarray, assignments: np.ndarray, at: slice) -> None:
        """Encode ``rows`` with the trained quantizer and fold their
        reconstruction error into the drift statistics."""
        residuals = rows - self._centroids[assignments]
        self._code_buffer[at], decoded = self._encode(residuals)
        self._const_buffer[at] = self._member_consts(decoded, assignments)
        # Clipped into float16 range so extreme drift reads as a huge
        # finite ratio rather than inf; aggregated as stored.
        stored_errors = np.minimum(
            self._reconstruction_error(residuals, decoded), 6.0e4
        ).astype(np.float16)
        self._drift_buffer[at] = stored_errors
        self._drift_sum += float(stored_errors.astype(np.float64).sum())
        self._drift_count += rows.shape[0]

    def remove(self, kept_mask: np.ndarray) -> None:
        """Compact the row buffers; departed post-training rows leave the
        drift aggregates with them."""
        super().remove(kept_mask)
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
    def _adc_select(
        self,
        coarse_d2: np.ndarray,
        probe: np.ndarray,
        lut: Tuple[np.ndarray, np.ndarray, np.ndarray],
        n_select: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ADC top-``n_select`` per query over the probed cells' code lists.

        ``lut`` is the ``(lut_u8, scale, bias)`` triple of
        :meth:`ProductQuantizer.quantized_query_tables` for *both* bit
        widths: the gather runs over the uint8 table, sums in uint32 (an
        order-independent integer reduction) and reconstructs the float
        distance from the per-query affine pair.  Returns fixed-width
        ``(distances, ids, counts)``: float32 / int64 ``(n_chunk, n_select)``
        rows ordered by ``(adc, id)`` ascending, ``counts[q]`` entries valid
        and the rest unwritten.  Selection at the ``n_select`` boundary is
        deterministic under the same total order
        (:func:`_smallest_pairs_subset`), which is what makes the native
        and NumPy paths bitwise interchangeable.

        With the fused C kernels built (:meth:`kernels_active`) this
        is :meth:`repro.core.kernels.IVFPQKernels.search_topk` over the
        scan layout: peak transient memory is the ``(n_chunk, n_probe)``
        coarse block plus the outputs, however many candidates the probes
        cover.  The NumPy fallback is one flat pass over every (query,
        probed cell) member — ids, ADC distances and per-query segments are
        whole-array operations, no per-cell loop or padded candidate
        matrix; only the final selection runs per query.
        """
        lut_u8, scale, bias = lut
        from repro.core.kernels import ivfpq_kernels

        kernels = ivfpq_kernels()
        if kernels is not None:
            probe = np.ascontiguousarray(probe, dtype=np.int64)
            return kernels.search_topk(
                lut_u8=lut_u8,
                scale=scale,
                bias=bias,
                coarse=coarse_d2.take(probe + _row_offsets(*coarse_d2.shape)).astype(np.float32),
                probe=probe,
                layout=self._scan_layout(),
                packed=self.pq.packed,
                n_select=int(n_select),
            )
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
        """ADC select over the probed cells' codes, then (``rerank > 0``)
        exact re-scoring of the selected pool against ``vectors``."""
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
                native=self.kernels_active(),
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
        cand = cand[:, :width]
        cand_vectors = np.asarray(vectors)[cand]
        inner = np.einsum("qd,qrd->qr", chunk, cand_vectors)
        # Candidate norms come from the gathered block — never an
        # O(N) pass over the full store per search call.
        cand_sq = np.einsum("qrd,qrd->qr", cand_vectors, cand_vectors)
        exact_d2 = np.einsum("ij,ij->i", chunk, chunk)[:, None] + cand_sq - 2.0 * inner
        exact_d2[pad[:, :width]] = np.inf
        chunk_d, columns = top_k_by_distance(exact_d2, k)
        if trace_spans:
            obs_tracing.record(
                "rerank",
                time.perf_counter() - rerank_start,
                n_queries=chunk.shape[0],
                rerank=self.rerank,
            )
        return _sqrt_clamped(chunk_d), cand.take(columns + _row_offsets(*cand.shape)), counts

    # ---------------------------------------------------------- persistence
    def spec(self) -> Dict[str, object]:
        """The cell index's spec plus the codec knobs (``bits <= 4``
        implies the packed engine on reconstruction)."""
        return {
            **super().spec(),
            "n_subspaces": self.pq.n_subspaces,
            "bits": self.pq.bits,
            "opq": self.opq,
            "rerank": self.rerank,
        }

    def state(self) -> Dict[str, np.ndarray]:
        """Cells plus the codec's arrays.  Codes are in storage layout
        (packed two-per-byte at 4 bits) and side structures keep their
        resident dtypes, so shared-memory publication and ``RSG1`` segment
        files ship the compressed representation byte-for-byte.
        ``rotation`` rides along when OPQ is on; ``drift_baseline`` +
        per-row ``drift_errors`` carry the drift statistics so
        requantization pressure survives a warm restart."""
        if not self.trained:
            return {}
        state = {
            **super().state(),
            "codes": self._code_buffer[: self._n],
            "member_consts": self._const_buffer[: self._n],
            "codebooks": self.pq._codebooks,
            "drift_baseline": np.array(
                [-1.0 if self._train_distortion is None else self._train_distortion]
            ),
            "drift_errors": self._drift_buffer[: self._n],
        }
        if self.pq.rotation is not None:
            state["rotation"] = self.pq.rotation
        return state

    def load_state(self, state: Dict[str, np.ndarray]) -> None:
        """Adopt cells, codes and codebooks without retraining (see
        :meth:`CoarseQuantizedIndex.load_state`); state from a
        differently-configured index — wrong code width, codebook shape,
        missing/unexpected ``rotation`` — raises ``ValueError`` too."""
        if not state:
            self._reset()
            return
        self._check_state_keys(
            state,
            {"centroids", "assignments", "codes", "member_consts", "codebooks"}
            | ({"rotation"} if self.opq else set()),
            {"drift_baseline", "drift_errors"},
        )
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
        self._adopt(
            state,
            _code_buffer=codes,
            _const_buffer=np.asarray(state["member_consts"], dtype=self._const_dtype),
            _drift_buffer=errors,
        )
        pq = self.pq
        pq._codebooks = codebooks
        pq._splits = pq._boundaries(self._centroids.shape[1])
        pq._sub_dims = np.diff(pq._splits)
        pq._rotation = (
            np.asarray(state["rotation"], dtype=np.float64) if "rotation" in state else None
        )
        self._train_distortion = None if baseline < 0 else baseline
        self._recount_drift()

    def memory_bytes(self) -> int:
        """Resident bytes of cells, row buffers and codebooks (the store's
        raw matrix is counted separately)."""
        return super().memory_bytes() + (self.pq.memory_bytes() if self.trained else 0)


_CELL_INDEX_KEYS = (
    "n_cells", "n_probe", "min_train_size", "train_iters", "seed", "max_cell_fraction",
)
#: ``spec["kind"]`` -> (class, the spec keys its constructor takes).
_INDEX_KINDS = {
    "exact": (ExactIndex, ()),
    "ivf": (CoarseQuantizedIndex, _CELL_INDEX_KEYS),
    "ivfpq": (
        IVFPQIndex,
        _CELL_INDEX_KEYS + ("n_subspaces", "bits", "opq", "rerank"),
    ),
}


def index_from_spec(spec: Optional[Dict[str, object]]) -> NearestNeighbourIndex:
    """Re-create an index from its :meth:`NearestNeighbourIndex.spec` dict.
    Keys the chosen engine does not take are ignored (one CLI flag set
    serves every ``--index``); absent keys take the constructor's defaults.
    A ``metric`` key (written by older deployments) must be ``"euclidean"``,
    the one distance every index measures; any other raises ``ValueError``
    rather than serve that deployment under a distance it was not built for."""
    if spec is None:
        return ExactIndex()
    metric = spec.get("metric", "euclidean")
    if metric != "euclidean":
        raise ValueError(f"unsupported metric {metric!r}: every index measures euclidean distance")
    kind = spec.get("kind", "exact")
    if kind not in _INDEX_KINDS:
        raise ValueError(f"unknown index kind {kind!r}")
    cls, keys = _INDEX_KINDS[kind]
    return cls(**{key: spec[key] for key in keys if key in spec})
