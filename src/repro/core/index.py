"""Nearest-neighbour query engines for the reference store.

The paper's scaling story (Table 2) depends on classification staying cheap
as the monitored set grows.  This module provides the pluggable index layer
the :class:`~repro.core.reference_store.ReferenceStore` queries through:

* :class:`ExactIndex` — brute-force ``cdist`` + ``argpartition`` top-k; the
  default, bit-identical to a full sorted distance scan.
* :class:`CoarseQuantizedIndex` — an IVF-style coarse quantizer: reference
  vectors are bucketed into k-means cells and a query only scans the
  ``n_probe`` cells whose centroids are nearest, making query time grow
  sublinearly in the store size.  The cell structure is **incrementally
  updatable** — ``add``/``remove`` keep assignments current without
  re-running k-means — so the paper's retraining-free adaptation loop keeps
  its cost profile.
* :class:`IVFPQIndex` — the same coarse cells, but cell members are stored
  as **product-quantized residuals**: each reference is ``n_subspaces``
  uint8 codes into per-subspace k-means codebooks trained on the residual
  ``x - centroid``.  Queries scan codes through asymmetric distance
  computation (per-query lookup tables), which replaces the float GEMM over
  raw vectors with uint8 table gathers and shrinks the per-vector index
  memory ~16-32x.  An optional exact re-rank of the ``rerank`` best ADC
  candidates against the raw vectors restores exact ``(distance, id)``
  rankings over that candidate set, so with a full probe and ``rerank``
  leaving enough margin over ``k`` to cover the ADC error band (the
  default 64 at ``k <= 10``) results match :class:`ExactIndex`
  bit-for-bit.

Compression v2 layers three things on top of the IVF-PQ engine:

* :class:`PackedPQ` — 4-bit codebooks whose codes pack **two per byte**;
  the ADC scan gathers from a per-query uint8-quantized lookup table
  (one scale/bias pair per query) so both the resident codes and the scan
  working set halve again (~64x smaller than float64 at scale).
  ``IVFPQIndex(bits=4)`` (or lower) selects it automatically and also
  slims the side structures (uint16 cell assignments, float16 ADC
  constants, float32 centroids).
* **OPQ** (``opq=True`` on :class:`IVFPQIndex` / the quantizers) — a
  learned orthogonal rotation of the residual space (alternating
  PQ-training and Procrustes steps) applied before subspace splitting, so
  correlated dimensions stop straddling subspace boundaries and the same
  code budget buys lower quantization error.
* **Drift-aware requantization** — the index compares the reconstruction
  error of rows encoded *after* training against the error at train time
  (:meth:`IVFPQIndex.drift_ratio`); :meth:`~IVFPQIndex.retrain_needed`
  flags when the corpus has churned away from the training distribution
  and :meth:`~IVFPQIndex.retrain` re-trains cells + codebooks on a sample
  and re-encodes every row (the serving layer wraps this in a
  zero-downtime ``DeploymentManager.requantize()`` swap).

The IVF-PQ scan dispatches to the fused C kernels of
:mod:`repro.core.kernels` when a system compiler is available (the
``native_kernels`` knob: ``auto``/``on``/``off``): a blocked scan over a
cell-major transposed code layout plus a streaming bounded-heap top-k,
bitwise identical to the NumPy path.  Coarse cells can optionally be
size-capped (``max_cell_fraction``) so one hot cell cannot blow up
per-probe candidate counts on skewed corpora.

Indexes never copy the reference vectors: the store owns the (amortised)
embedding matrix and passes it to ``search``; an index only maintains its
own side structures (centroids, cell assignments, PQ codes).  Ids are row
numbers in the store's matrix, and ``remove`` renumbers them after the
store compacts.

All searches return neighbours ordered by ``(distance, id)`` ascending,
which is exactly the order of a stable argsort over the full distance row —
the property the classifier's tie-breaking relies on.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.spatial.distance import cdist

from repro.obs import tracing as obs_tracing

SUPPORTED_METRICS = ("euclidean", "cosine", "cityblock")


def squared_euclidean_distances(
    queries: np.ndarray, vectors: np.ndarray, vectors_sq: Optional[np.ndarray] = None
) -> np.ndarray:
    """Squared euclidean distances (may be ulp-negative; rank-equivalent).

    Searches rank on these directly and only square-root the selected
    top-k, saving two full passes over the (queries, N) matrix.
    """
    if vectors_sq is None:
        vectors_sq = np.einsum("ij,ij->i", vectors, vectors)
    queries_sq = np.einsum("ij,ij->i", queries, queries)
    d2 = queries @ vectors.T
    d2 *= -2.0
    d2 += queries_sq[:, None]
    d2 += vectors_sq[None, :]
    return d2


def _sqrt_clamped(d2: np.ndarray) -> np.ndarray:
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2, out=d2)


def _metric_distances(
    queries: np.ndarray,
    vectors: np.ndarray,
    metric: str,
    vectors_sq: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pairwise distances under ``metric``.

    Euclidean rows come back *squared* (rank-equivalent; callers square-root
    only the selected top-k); other metrics are exact ``cdist`` distances.
    """
    if metric == "euclidean":
        return squared_euclidean_distances(queries, vectors, vectors_sq)
    return cdist(queries, vectors, metric=metric)


def top_k_by_distance(distances: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k smallest entries per row, ordered by ``(distance, column)``.

    Uses ``argpartition`` for the common case and falls back to a full
    lexicographic sort only for rows with a tie straddling the k-th
    position, so the result is *exactly* the first ``k`` columns of a
    stable argsort — at partition cost.
    """
    distances = np.asarray(distances)
    n_rows, n_cols = distances.shape
    if k >= n_cols:
        order = np.lexsort((np.broadcast_to(np.arange(n_cols), distances.shape), distances), axis=1)
        sorted_d = np.take_along_axis(distances, order, axis=1)
        return sorted_d, order

    part = np.argpartition(distances, k - 1, axis=1)
    cand = part[:, :k]
    cand_d = np.take_along_axis(distances, cand, axis=1)
    order = np.lexsort((cand, cand_d), axis=1)
    idx = np.take_along_axis(cand, order, axis=1)
    dist = np.take_along_axis(cand_d, order, axis=1)

    # A tie at the boundary means argpartition may have picked the wrong
    # member of the tie set: detected when values equal to the k-th selected
    # distance also exist outside the candidate set.  Those (rare) rows are
    # redone with the exact full sort.
    kth = dist[:, -1:]
    tied = (distances == kth).sum(axis=1) > (cand_d == kth).sum(axis=1)
    if np.any(tied):
        for row in np.flatnonzero(tied):
            full = np.lexsort((np.arange(n_cols), distances[row]))[:k]
            idx[row] = full
            dist[row] = distances[row, full]
    return dist, idx


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
    metric: str = "euclidean",
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
        d = _metric_distances(vectors[members], centroids[cell : cell + 1], metric)[:, 0]
        keep = np.lexsort((members, d))
        spilled.append(members[keep[cap:]])
        counts[cell] = cap
    spilled = np.sort(np.concatenate(spilled))
    for start in range(0, spilled.size, 4096):
        block = spilled[start : start + 4096]
        d_block = _metric_distances(vectors[block], centroids, metric)
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
    metric: str = "euclidean",
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
        d = _metric_distances(new_rows[pos : pos + 1], centroids, metric)[0]
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

    metric: str = "euclidean"

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
        reports its live dispatch decision.  Telemetry (the per-shard
        ``native=yes|no`` scan histograms) reads this rather than the
        process-global kernel mode, which an index-level knob can
        override.
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
    """Brute-force search; linear in N but exact and metric-agnostic."""

    def __init__(self, metric: str = "euclidean") -> None:
        if metric not in SUPPORTED_METRICS:
            raise ValueError(f"unsupported metric {metric!r}; expected one of {SUPPORTED_METRICS}")
        self.metric = metric

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
        if self.metric == "euclidean":
            # Rank on squared distances, square-root only the k selected.
            dist, idx = top_k_by_distance(squared_euclidean_distances(queries, vectors), k)
            return _sqrt_clamped(dist), idx
        distances = cdist(queries, vectors, metric=self.metric)
        return top_k_by_distance(distances, k)

    def spec(self) -> Dict[str, object]:
        """JSON-serialisable description (kind + metric)."""
        return {"kind": "exact", "metric": self.metric}


def _kmeans_pp_seed(
    vectors: np.ndarray, n_cells: int, metric: str, rng: np.random.Generator
) -> np.ndarray:
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
    # Squared distance to the nearest chosen seed (euclidean rows already
    # come back squared from the metric helper; square the others).
    closest = _metric_distances(sample, centroids[:1], metric)[:, 0]
    if metric != "euclidean":
        closest = closest**2
    np.maximum(closest, 0.0, out=closest)
    for position in range(1, n_cells):
        total = float(closest.sum())
        if not total > 0.0:  # all mass covered; fall back to uniform picks
            centroids[position] = sample[rng.integers(sample.shape[0])]
            continue
        pick = int(np.searchsorted(np.cumsum(closest), rng.uniform(0.0, total)))
        pick = min(pick, sample.shape[0] - 1)
        centroids[position] = sample[pick]
        fresh = _metric_distances(sample, centroids[position : position + 1], metric)[:, 0]
        if metric != "euclidean":
            fresh = fresh**2
        np.maximum(fresh, 0.0, out=fresh)
        np.minimum(closest, fresh, out=closest)
    return centroids


def _kmeans(
    vectors: np.ndarray,
    n_cells: int,
    *,
    metric: str = "euclidean",
    n_iter: int = 10,
    seed: int = 0,
    init: str = "kmeans++",
) -> Tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd's k-means under ``metric``; returns ``(centroids, assignments)``.

    Deliberately small: the coarse quantizer only needs rough cells, not a
    converged clustering, and this keeps the index dependency-free.  Seeds
    come from k-means++ D^2 sampling (``init="random"`` restores uniform
    picks, kept for balance comparisons); empty cells are re-seeded on the
    point farthest from its centroid during Lloyd updates.  Cell updates use
    the metric's natural centre: the mean for euclidean and cosine (the mean
    points in the mean direction, which is all cosine assignment looks at),
    the coordinate-wise median for cityblock (the L1 minimiser).
    """
    n = vectors.shape[0]
    rng = np.random.default_rng(seed)
    if init == "kmeans++":
        centroids = _kmeans_pp_seed(vectors, n_cells, metric, rng).copy()
    elif init == "random":
        centroids = vectors[rng.choice(n, size=n_cells, replace=False)].copy()
    else:
        raise ValueError(f"unknown k-means init {init!r}; expected 'kmeans++' or 'random'")
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        distances = _metric_distances(vectors, centroids, metric)
        assignments = np.argmin(distances, axis=1)
        if metric == "cityblock":
            # Coordinate-wise median (the L1 minimiser); per-cell loop is
            # fine at the small cell counts this metric is used with.
            for cell in range(n_cells):
                members = assignments == cell
                if members.any():
                    centroids[cell] = np.median(vectors[members], axis=0)
        else:
            # Mean update without a per-cell loop: group rows by cell with
            # one stable sort and sum each contiguous run via reduceat, so
            # the update stays O(N log N) even at thousands of cells.
            order = np.argsort(assignments, kind="stable")
            sorted_cells = assignments[order]
            starts = np.searchsorted(sorted_cells, np.arange(n_cells))
            counts = np.diff(np.append(starts, n))
            occupied = counts > 0
            sums = np.add.reduceat(vectors[order], starts[occupied], axis=0)
            centroids[occupied] = sums / counts[occupied, None]
            if metric == "cosine":
                # Cancelled-out means have no direction; keep a member.
                degenerate = occupied & ~(np.linalg.norm(centroids.T, axis=0) > 0.0)
                for cell in np.flatnonzero(degenerate):
                    centroids[cell] = vectors[assignments == cell][0]
        empty = np.flatnonzero(
            np.bincount(assignments, minlength=n_cells) == 0
        )
        if empty.size:
            # Re-seed empty cells on the points farthest from their centroid.
            spread = np.take_along_axis(distances, assignments[:, None], axis=1)[:, 0]
            farthest = np.argsort(spread)[::-1]
            centroids[empty] = vectors[farthest[: empty.size]]
    assignments = np.argmin(_metric_distances(vectors, centroids, metric), axis=1)
    return centroids, assignments


class CoarseQuantizedIndex(NearestNeighbourIndex):
    """IVF-style index: k-means cells, query probes the ``n_probe`` nearest.

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
    ``remove`` drops assignments, so adaptation (replace/remove/add of a
    class) never re-runs k-means; call :meth:`retrain` to re-train cells
    explicitly if the corpus has drifted far from the original clustering.

    All of :data:`SUPPORTED_METRICS` are accepted: coarse assignment, probe
    selection and the candidate scan all run under the configured metric
    (euclidean keeps its squared-distance BLAS fast path; cosine and
    cityblock go through ``cdist``), and k-means updates cells with the
    metric's natural centre.
    """

    def __init__(
        self,
        n_cells: Optional[int] = None,
        n_probe: int = 8,
        *,
        metric: str = "euclidean",
        min_train_size: int = 256,
        train_iters: int = 10,
        seed: int = 0,
        max_cell_fraction: Optional[float] = None,
    ) -> None:
        if metric not in SUPPORTED_METRICS:
            raise ValueError(f"unsupported metric {metric!r}; expected one of {SUPPORTED_METRICS}")
        if n_cells is not None and n_cells <= 0:
            raise ValueError("n_cells must be positive")
        if n_probe <= 0:
            raise ValueError("n_probe must be positive")
        if max_cell_fraction is not None and not 0.0 < float(max_cell_fraction) <= 1.0:
            raise ValueError("max_cell_fraction must be in (0, 1]")
        self.metric = metric
        self.n_cells = n_cells
        self.n_probe = int(n_probe)
        self.min_train_size = int(min_train_size)
        self.train_iters = int(train_iters)
        self.seed = int(seed)
        self.max_cell_fraction = None if max_cell_fraction is None else float(max_cell_fraction)
        self._centroids: Optional[np.ndarray] = None
        self._assignments: np.ndarray = np.empty(0, dtype=np.int64)
        self._cells: Optional[list] = None  # lazy id lists per cell

    # ---------------------------------------------------------------- state
    @property
    def trained(self) -> bool:
        """Whether k-means cells exist (small stores defer training)."""
        return self._centroids is not None

    def _resolve_n_cells(self, n: int) -> int:
        if self.n_cells is not None:
            return min(self.n_cells, n)
        return max(1, int(np.ceil(np.sqrt(n))))

    def _cell_lists(self) -> list:
        if self._cells is None:
            assignments = self._assignments
            order = np.argsort(assignments, kind="stable")
            sorted_cells = assignments[order]
            boundaries = np.searchsorted(sorted_cells, np.arange(self._centroids.shape[0] + 1))
            self._cells = [
                order[boundaries[c] : boundaries[c + 1]] for c in range(self._centroids.shape[0])
            ]
        return self._cells

    # ------------------------------------------------------------- mutation
    def rebuild(self, vectors: np.ndarray) -> None:
        """(Re)run k-means over ``vectors`` (or defer below min_train_size)."""
        n = vectors.shape[0]
        if n < self.min_train_size:
            self._centroids = None
            self._assignments = np.empty(0, dtype=np.int64)
            self._cells = None
            return
        n_cells = self._resolve_n_cells(n)
        vectors = np.asarray(vectors, dtype=np.float64)
        self._centroids, self._assignments = _kmeans(
            vectors,
            n_cells,
            metric=self.metric,
            n_iter=self.train_iters,
            seed=self.seed,
        )
        if self.max_cell_fraction is not None:
            self._assignments = _cap_cell_assignments(
                vectors, self._centroids, self._assignments, self.max_cell_fraction, self.metric
            )
        self._cells = None

    def retrain(self, vectors: np.ndarray, *, sample_size: Optional[int] = None) -> None:
        """Re-run k-means on (a sample of) ``vectors``; every row still
        gets an exact cell assignment (honouring the base contract's
        training cap, which plain :meth:`rebuild` does not have)."""
        n = vectors.shape[0]
        if sample_size is not None and sample_size <= 0:
            raise ValueError("sample_size must be positive")
        if sample_size is None or n <= sample_size or n < self.min_train_size:
            self.rebuild(vectors)
            return
        vectors = np.asarray(vectors, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        sample = vectors[rng.choice(n, size=int(sample_size), replace=False)]
        n_cells = min(self._resolve_n_cells(n), sample.shape[0])
        self._centroids, _ = _kmeans(
            sample, n_cells, metric=self.metric, n_iter=self.train_iters, seed=self.seed
        )
        self._assignments = np.argmin(
            _metric_distances(vectors, self._centroids, self.metric), axis=1
        )
        if self.max_cell_fraction is not None:
            self._assignments = _cap_cell_assignments(
                vectors, self._centroids, self._assignments, self.max_cell_fraction, self.metric
            )
        self._cells = None

    def add(self, vectors: np.ndarray, n_new: int) -> None:
        """Assign appended rows to their nearest existing cell (no k-means;
        honouring ``max_cell_fraction`` when set)."""
        n = vectors.shape[0]
        if not self.trained:
            if n >= self.min_train_size:
                self.rebuild(vectors)
            return
        new_rows = vectors[n - n_new :]
        assignments = np.argmin(_metric_distances(new_rows, self._centroids, self.metric), axis=1)
        if self.max_cell_fraction is not None:
            cap = max(1, int(np.ceil(self.max_cell_fraction * n)))
            counts = np.bincount(self._assignments, minlength=self._centroids.shape[0])
            assignments = _cap_added_assignments(
                np.asarray(new_rows, dtype=np.float64),
                self._centroids,
                counts,
                assignments,
                cap,
                self.metric,
            )
        self._assignments = np.concatenate([self._assignments, assignments])
        self._cells = None

    def remove(self, kept_mask: np.ndarray) -> None:
        """Drop removed rows' assignments (store compaction order)."""
        if not self.trained:
            return
        self._assignments = self._assignments[kept_mask]
        self._cells = None

    # --------------------------------------------------------------- search
    def search(
        self, vectors: np.ndarray, queries: np.ndarray, k: int, *, chunk_size: int = 512
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe the ``n_probe`` nearest cells per query and scan their
        members; short probes (fewer than k members) fall back to exact."""
        if vectors.shape[0] == 0:
            raise ValueError("cannot search an empty index")
        k = min(int(k), vectors.shape[0])
        if not self.trained:
            return ExactIndex(self.metric).search(vectors, queries, k)

        vectors = np.asarray(vectors, dtype=np.float64)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_cells = self._centroids.shape[0]
        n_probe = min(self.n_probe, n_cells)
        cells = self._cell_lists()
        cell_sizes = np.array([len(cell) for cell in cells], dtype=np.int64)
        euclidean = self.metric == "euclidean"
        vectors_sq = np.einsum("ij,ij->i", vectors, vectors) if euclidean else None

        out_d = np.empty((queries.shape[0], k))
        out_i = np.empty((queries.shape[0], k), dtype=np.int64)
        for start in range(0, queries.shape[0], chunk_size):
            chunk = queries[start : start + chunk_size]
            n_chunk = chunk.shape[0]
            centroid_d = _metric_distances(chunk, self._centroids, self.metric)
            if n_probe >= n_cells:
                probe = np.broadcast_to(np.arange(n_cells), centroid_d.shape).copy()
            else:
                probe = np.argpartition(centroid_d, n_probe - 1, axis=1)[:, :n_probe]

            # Each query's candidate row is the concatenation of its probed
            # cells; distances are filled cell-major so every probed cell
            # costs one (queries-probing-it, cell-members) cdist GEMM
            # instead of a per-query gather.
            sizes = cell_sizes[probe]  # (n_chunk, n_probe)
            offsets = np.concatenate(
                [np.zeros((n_chunk, 1), dtype=np.int64), np.cumsum(sizes, axis=1)[:, :-1]], axis=1
            )
            width = max(int(sizes.sum(axis=1).max()), k)
            cand = np.full((n_chunk, width), -1, dtype=np.int64)
            distances = np.full((n_chunk, width), np.inf)

            flat_queries = np.repeat(np.arange(n_chunk), n_probe)
            flat_cells = probe.ravel()
            flat_offsets = offsets.ravel()
            grouping = np.argsort(flat_cells, kind="stable")
            boundaries = np.searchsorted(flat_cells[grouping], np.arange(n_cells + 1))
            for cell in np.unique(flat_cells):
                members = cells[cell]
                if members.size == 0:
                    continue
                group = grouping[boundaries[cell] : boundaries[cell + 1]]
                probing = flat_queries[group]
                cols = flat_offsets[group][:, None] + np.arange(members.size)[None, :]
                cand[probing[:, None], cols] = members
                if euclidean:
                    block = squared_euclidean_distances(
                        chunk[probing], vectors[members], vectors_sq[members]
                    )
                else:
                    block = cdist(chunk[probing], vectors[members], metric=self.metric)
                distances[probing[:, None], cols] = block
            cd, ci = top_k_by_distance(distances, k)
            chunk_d = _sqrt_clamped(cd) if euclidean else cd
            chunk_i = np.take_along_axis(cand, ci, axis=1)
            # top_k broke ties by *candidate column*, which follows the
            # arbitrary probe layout; restore the documented (distance, id)
            # order over the selected k.
            tie_order = np.lexsort((chunk_i, chunk_d), axis=1)
            chunk_d = np.take_along_axis(chunk_d, tie_order, axis=1)
            chunk_i = np.take_along_axis(chunk_i, tie_order, axis=1)
            # A query whose probed cells hold fewer than k members would
            # surface padding ids; answer those rows exactly instead.
            short = np.flatnonzero((chunk_i < 0).any(axis=1))
            if short.size:
                fd, fi = ExactIndex(self.metric).search(vectors, chunk[short], k)
                chunk_d[short] = fd
                chunk_i[short] = fi
            out_d[start : start + chunk.shape[0]] = chunk_d
            out_i[start : start + chunk.shape[0]] = chunk_i
        return out_d, out_i

    def spec(self) -> Dict[str, object]:
        """JSON-serialisable configuration (cells, probes, metric, seed)."""
        return {
            "kind": "ivf",
            "metric": self.metric,
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
        """Adopt trained cells without re-running k-means (state from a
        different index kind raises ``ValueError`` -> caller rebuilds)."""
        if not state:
            self._centroids = None
            self._assignments = np.empty(0, dtype=np.int64)
            self._cells = None
            return
        if set(state) != {"centroids", "assignments"}:
            # e.g. an IVF-PQ archive loaded into an IVF index: the extra
            # (or missing) arrays mean this state belongs to another kind;
            # refuse so the caller falls back to a clean rebuild.
            raise ValueError(
                f"state keys {sorted(state)} do not match a CoarseQuantizedIndex"
            )
        self._centroids = np.asarray(state["centroids"], dtype=np.float64)
        self._assignments = np.asarray(state["assignments"], dtype=np.int64)
        self._cells = None

    def memory_bytes(self) -> int:
        """Resident bytes of centroids + per-row cell assignments."""
        if not self.trained:
            return 0
        return int(self._centroids.nbytes + self._assignments.nbytes)


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
            centroids, _ = _kmeans(
                sub, k_sub, metric="euclidean", n_iter=self.train_iters, seed=self.seed + j
            )
            self._codebooks[j, :, : self._sub_dims[j]] = centroids

    def _encode_rotated(self, rotated: np.ndarray) -> np.ndarray:
        codes = np.empty((rotated.shape[0], self.n_subspaces), dtype=np.uint8)
        for j in range(self.n_subspaces):
            sub = rotated[:, self._splits[j] : self._splits[j + 1]]
            book = self._codebooks[j, :, : self._sub_dims[j]]
            codes[:, j] = np.argmin(squared_euclidean_distances(sub, book), axis=1)
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


class IVFPQIndex(NearestNeighbourIndex):
    """IVF coarse cells whose members are product-quantized residuals.

    Search is asymmetric distance computation (ADC) over the probed cells'
    code lists.  With ``x ~ c + e`` (coarse centroid plus decoded residual)
    the squared distance decomposes as::

        d2(q, x) = |q - c|^2 + sum_j [ |e_j|^2 + 2 c_j.e_j ] - 2 sum_j q_j.e_j

    The middle term depends only on the *reference row* (its cell and codes
    are fixed), so it collapses to one precomputed float per reference
    (``member_const``); the last term is one small GEMM per query batch
    (:meth:`ProductQuantizer.query_tables`); scanning the probed candidates
    is then ``m`` uint8 table gathers per member — flat across every probed
    cell at once, no per-cell inner loop — instead of a float GEMM over raw
    vectors.  ``rerank > 0`` re-scores the
    ``max(k, rerank)`` best ADC candidates against the raw vectors, which
    restores exact ``(distance, id)`` ranking *over that candidate set*
    (tie-break semantics included): results match :class:`ExactIndex`
    bit-for-bit exactly when the true top-k sit inside the re-ranked pool
    — guaranteed by margin rather than by construction, so keep ``rerank``
    several times ``k`` (with ``n_probe >= n_cells`` and the default
    ``rerank=64`` at ``k <= 10``, the agreement is exact on clustered
    corpora; see the tests).  With ``rerank == 0`` the index never touches raw vectors
    after training, which is what lets the serving layer publish only codes
    and codebooks (~16-32x smaller) into shared memory.

    ``add`` assigns new vectors to their nearest existing centroid and
    encodes their residuals with the trained codebooks; ``remove`` compacts
    the code buffers.  Codes and assignments live in amortised-doubling
    buffers mirroring the reference store's growth scheme, so adaptation
    churn stays O(changed rows).

    **Compression v2.**  ``bits <= 4`` selects the :class:`PackedPQ`
    quantizer: codes pack two per byte, the ADC scan gathers from a
    per-query uint8-quantized LUT, and the side structures slim down too
    (uint16 cell assignments — ``n_cells`` is capped at 65535 — float16 ADC
    member constants and float32 coarse centroids; constants are clipped
    into float16 range, so embeddings with ADC magnitudes beyond ~6e4 —
    far outside any normalised or tanh-bounded embedding — degrade
    candidate selection gracefully, recoverable by a deeper ``rerank``,
    instead of corrupting it).  ``opq=True`` trains the
    quantizer behind an OPQ rotation (either bit width).  Rows encoded
    after training feed the drift statistics behind
    :meth:`drift_ratio` / :meth:`retrain_needed` / :meth:`retrain`.
    """

    _COARSE_TRAIN_CAP = 131072  # k-means sample cap; assignment stays exact

    def __init__(
        self,
        n_cells: Optional[int] = None,
        n_probe: int = 16,
        *,
        n_subspaces: int = 8,
        bits: int = 8,
        opq: bool = False,
        rerank: int = 64,
        metric: str = "euclidean",
        min_train_size: int = 256,
        train_iters: int = 10,
        seed: int = 0,
        native_kernels: str = "auto",
        max_cell_fraction: Optional[float] = None,
    ) -> None:
        """See the class docstring; ``bits <= 4`` switches to the packed
        quantizer and slim side-structure dtypes, ``opq`` adds the learned
        rotation, ``rerank`` trades ADC error for exact re-scoring,
        ``native_kernels`` picks the fused C scan (``auto``/``on``/``off``,
        bitwise identical either way) and ``max_cell_fraction`` caps any
        one coarse cell's share of the corpus."""
        if metric != "euclidean":
            raise ValueError("IVFPQIndex supports only the euclidean metric (ADC is an L2 construct)")
        if n_cells is not None and n_cells <= 0:
            raise ValueError("n_cells must be positive")
        if n_probe <= 0:
            raise ValueError("n_probe must be positive")
        if rerank < 0:
            raise ValueError("rerank must be >= 0 (0 disables exact re-ranking)")
        if native_kernels not in ("auto", "on", "off"):
            raise ValueError(
                f"unknown native_kernels mode {native_kernels!r}; expected 'auto', 'on' or 'off'"
            )
        if max_cell_fraction is not None and not 0.0 < float(max_cell_fraction) <= 1.0:
            raise ValueError("max_cell_fraction must be in (0, 1]")
        self.metric = metric
        self.n_cells = n_cells
        self.n_probe = int(n_probe)
        self.rerank = int(rerank)
        self.min_train_size = int(min_train_size)
        self.train_iters = int(train_iters)
        self.seed = int(seed)
        self.opq = bool(opq)
        self.native_kernels = native_kernels
        self.max_cell_fraction = None if max_cell_fraction is None else float(max_cell_fraction)
        quantizer = PackedPQ if bits <= 4 else ProductQuantizer
        self.pq = quantizer(
            n_subspaces=n_subspaces, bits=bits, opq=opq, train_iters=train_iters, seed=seed
        )
        # The packed engine slims every per-row side structure; the 8-bit
        # engine keeps the wider dtypes (and their bit-exact baselines).
        self._assign_dtype = np.dtype(np.uint16 if self.pq.packed else np.int32)
        self._const_dtype = np.dtype(np.float16 if self.pq.packed else np.float32)
        self._centroid_dtype = np.dtype(np.float32 if self.pq.packed else np.float64)
        self._coarse_train_cap = self._COARSE_TRAIN_CAP
        self._centroids: Optional[np.ndarray] = None
        self._assign_buffer: np.ndarray = np.empty(0, dtype=self._assign_dtype)
        self._code_buffer: np.ndarray = np.empty((0, self.pq.code_width), dtype=np.uint8)
        # Per-reference constant of the ADC decomposition: |e|^2 + 2 c.e.
        self._const_buffer: np.ndarray = np.empty(0, dtype=self._const_dtype)
        self._n = 0
        self._cells: Optional[list] = None
        # Native-scan layout (CSR cells + transposed codes), rebuilt lazily
        # alongside _cells whenever the buffers churn.
        self._scan_cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None
        # Drift statistics: the held-out train-time mean squared
        # reconstruction error vs a per-row error for rows encoded after
        # training (NaN marks train-time rows).  Per-row so that removal
        # compacts it — departed rows stop exerting drift pressure.
        self._train_distortion: Optional[float] = None
        self._drift_buffer: np.ndarray = np.empty(0, dtype=np.float16)
        # Aggregates over the buffer's valid entries, maintained on
        # add/remove so drift_ratio() stays O(1) (the info op polls it).
        self._drift_sum = 0.0
        self._drift_count = 0

    # ---------------------------------------------------------------- state
    @property
    def trained(self) -> bool:
        """Whether cells + codebooks exist (small stores defer training)."""
        return self._centroids is not None

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

    def _resolve_n_cells(self, n: int) -> int:
        if self.n_cells is not None:
            resolved = min(self.n_cells, n)
        else:
            # Finer cells than the IVF default (sqrt(N)): the uint8 scan makes
            # probing cheap per candidate and the per-query LUT cost is
            # cell-independent, so smaller cells buy both smaller residuals
            # (better codes) and fewer candidates per probe.
            resolved = max(1, min(n, int(np.ceil(9.0 * np.sqrt(n)))))
        if self.pq.packed:
            # Cell assignments are stored uint16 on the packed path.
            resolved = min(resolved, 65535)
        return resolved

    def _cell_lists(self) -> list:
        if self._cells is None:
            assignments = self._assign_buffer[: self._n]
            order = np.argsort(assignments, kind="stable")
            sorted_cells = assignments[order]
            boundaries = np.searchsorted(sorted_cells, np.arange(self._centroids.shape[0] + 1))
            self._cells = [
                order[boundaries[c] : boundaries[c + 1]] for c in range(self._centroids.shape[0])
            ]
        return self._cells

    def _scan_layout(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The native scan's cache-friendly view of the code buffers.

        ``(cell_starts, members, consts, codes_t)``: cells become CSR
        ranges (``cell_starts`` is ``(n_cells + 1,)`` int64) over a
        cell-major member order, the float16/float32 member constants are
        gathered into float32 alongside, and the code rows are transposed
        to a contiguous ``(code_width, N)`` so the kernel streams one
        subspace byte-row at a time.  Built lazily and invalidated
        together with ``_cells`` wherever add/remove/rebuild/load_state
        touch the underlying buffers, so the transpose stays consistent
        through churn.
        """
        if self._scan_cache is None:
            cells = self._cell_lists()
            sizes = np.array([cell.size for cell in cells], dtype=np.int64)
            cell_starts = np.zeros(sizes.size + 1, dtype=np.int64)
            np.cumsum(sizes, out=cell_starts[1:])
            members = (
                np.concatenate(cells).astype(np.int64, copy=False)
                if cells
                else np.empty(0, dtype=np.int64)
            )
            consts = self._const_buffer[: self._n][members].astype(np.float32)
            codes_t = np.ascontiguousarray(self._code_buffer[: self._n][members].T)
            self._scan_cache = (cell_starts, members, consts, codes_t)
        return self._scan_cache

    def kernels_active(self) -> bool:
        """Whether ADC scans currently dispatch to the native C kernels
        (the process-global mode combined with this index's knob)."""
        try:
            return self._active_kernels() is not None
        except RuntimeError:
            return False

    def _active_kernels(self):
        """The fused C kernels to dispatch the ADC scan to, or ``None``.

        Combines the process-global mode with this index's
        ``native_kernels`` knob (:func:`repro.core.kernels.resolve_mode`);
        ``on`` raises when the kernels cannot be built, so a hard
        requirement never silently degrades to the NumPy path.
        """
        from repro.core import kernels as native

        mode = native.resolve_mode(self.native_kernels)
        if mode == "off":
            return None
        library = native.ivfpq_kernels()
        if library is None and mode == "on":
            raise RuntimeError(
                "native_kernels='on' but the fused C kernels are unavailable "
                "(no working compiler, or the build failed); use 'auto' to "
                "fall back to the NumPy scan"
            )
        return library

    def _reserve(self, extra: int) -> None:
        needed = self._n + extra
        capacity = self._assign_buffer.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(32, capacity)
        while new_capacity < needed:
            new_capacity *= 2
        assignments = np.empty(new_capacity, dtype=self._assign_dtype)
        assignments[: self._n] = self._assign_buffer[: self._n]
        self._assign_buffer = assignments
        codes = np.empty((new_capacity, self._code_buffer.shape[1]), dtype=np.uint8)
        codes[: self._n] = self._code_buffer[: self._n]
        self._code_buffer = codes
        consts = np.empty(new_capacity, dtype=self._const_dtype)
        consts[: self._n] = self._const_buffer[: self._n]
        self._const_buffer = consts
        drift = np.empty(new_capacity, dtype=np.float16)
        drift[: self._n] = self._drift_buffer[: self._n]
        self._drift_buffer = drift

    def _assign_to_centroids(self, vectors: np.ndarray, chunk_rows: int = 4096) -> np.ndarray:
        """Nearest-centroid assignment, chunked so the (rows, n_cells)
        distance block stays cache-sized at large N."""
        out = np.empty(vectors.shape[0], dtype=np.int64)
        for start in range(0, vectors.shape[0], chunk_rows):
            block = vectors[start : start + chunk_rows]
            out[start : start + block.shape[0]] = np.argmin(
                squared_euclidean_distances(block, self._centroids), axis=1
            )
        return out

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

    def _reconstruction_error(
        self, rows: np.ndarray, assignments: np.ndarray, decoded: np.ndarray
    ) -> np.ndarray:
        """Per-row squared reconstruction error ``|x - c - e|^2`` (the drift
        statistic: rises as the corpus leaves the training distribution)."""
        diff = rows - self._centroids[assignments]
        diff -= decoded
        return np.einsum("ij,ij->i", diff, diff)

    # ------------------------------------------------------------- mutation
    def rebuild(self, vectors: np.ndarray) -> None:
        """Train coarse cells + codebooks on ``vectors`` and encode every
        row; also resets the train-time drift baseline."""
        n = vectors.shape[0]
        if n < self.min_train_size:
            self._centroids = None
            self._assign_buffer = np.empty(0, dtype=self._assign_dtype)
            self._code_buffer = np.empty((0, self.pq.code_width), dtype=np.uint8)
            self._const_buffer = np.empty(0, dtype=self._const_dtype)
            self._n = 0
            self._cells = None
            self._scan_cache = None
            self._train_distortion = None
            self._drift_buffer = np.empty(0, dtype=np.float16)
            self._drift_sum = 0.0
            self._drift_count = 0
            return
        vectors = np.asarray(vectors, dtype=np.float64)
        n_cells = self._resolve_n_cells(n)
        # The drift baseline must be an *out-of-sample* error: cells and
        # codebooks fit their own training rows tighter than anything
        # encoded later, so an in-sample baseline would read ordinary
        # in-distribution churn as drift.  Hold a slice out of both
        # training stages and measure the baseline there.
        holdout_size = min(1024, n // 8)
        holdout: Optional[np.ndarray] = None
        train_rows = vectors
        if holdout_size >= 32:
            holdout = np.random.default_rng(self.seed + 2).choice(
                n, size=holdout_size, replace=False
            )
            train_mask = np.ones(n, dtype=bool)
            train_mask[holdout] = False
            train_rows = vectors[train_mask]
            n_cells = min(n_cells, train_rows.shape[0])
        if train_rows.shape[0] > self._coarse_train_cap:
            # Train cells on a sample (they only need to cover the density);
            # every reference still gets an exact assignment below.
            rng = np.random.default_rng(self.seed)
            train_rows = train_rows[
                rng.choice(train_rows.shape[0], size=self._coarse_train_cap, replace=False)
            ]
        # A tight retrain(sample_size=...) cap can leave fewer training
        # rows than resolved cells; k-means needs n_cells <= rows.
        n_cells = min(n_cells, train_rows.shape[0])
        centroids, _ = _kmeans(
            train_rows, n_cells, metric="euclidean", n_iter=self.train_iters, seed=self.seed
        )
        self._centroids = centroids.astype(self._centroid_dtype)
        assignments = self._assign_to_centroids(vectors)
        if self.max_cell_fraction is not None:
            # Residuals (and so codes) are computed against the *capped*
            # assignment, keeping encode/decode consistent with the cells.
            assignments = _cap_cell_assignments(
                vectors, self._centroids, assignments, self.max_cell_fraction
            )
        residuals = vectors - self._centroids[assignments]
        if holdout is None:
            self.pq.fit(residuals, rng=np.random.default_rng(self.seed + 1))
        else:
            self.pq.fit(residuals[train_mask], rng=np.random.default_rng(self.seed + 1))
        codes = self.pq.encode(residuals)
        decoded = self.pq.decode(codes)
        self._assign_buffer = assignments.astype(self._assign_dtype)
        self._code_buffer = (
            self.pq.pack_codes(codes) if self.pq.packed else codes
        )
        self._const_buffer = self._member_consts(decoded, assignments)
        self._n = n
        self._cells = None
        self._scan_cache = None
        baseline_rows = slice(None) if holdout is None else holdout
        self._train_distortion = float(
            self._reconstruction_error(
                vectors[baseline_rows], assignments[baseline_rows], decoded[baseline_rows]
            ).mean()
        )
        self._drift_buffer = np.full(n, np.nan, dtype=np.float16)
        self._drift_sum = 0.0
        self._drift_count = 0

    def add(self, vectors: np.ndarray, n_new: int) -> None:
        """Encode the ``n_new`` appended rows with the trained quantizer and
        fold their reconstruction error into the drift statistics."""
        n = vectors.shape[0]
        if not self.trained:
            if n >= self.min_train_size:
                self.rebuild(vectors)
            return
        new_rows = np.asarray(vectors[n - n_new :], dtype=np.float64)
        assignments = np.argmin(
            squared_euclidean_distances(new_rows, self._centroids), axis=1
        )
        if self.max_cell_fraction is not None:
            cap = max(1, int(np.ceil(self.max_cell_fraction * n)))
            counts = np.bincount(
                self._assign_buffer[: self._n].astype(np.int64),
                minlength=self._centroids.shape[0],
            )
            assignments = _cap_added_assignments(
                new_rows, self._centroids, counts, assignments, cap
            )
        codes = self.pq.encode(new_rows - self._centroids[assignments])
        decoded = self.pq.decode(codes)
        self._reserve(n_new)
        self._assign_buffer[self._n : self._n + n_new] = assignments
        self._code_buffer[self._n : self._n + n_new] = (
            self.pq.pack_codes(codes) if self.pq.packed else codes
        )
        self._const_buffer[self._n : self._n + n_new] = self._member_consts(
            decoded, assignments
        )
        # Clipped into float16 range so extreme drift reads as a huge
        # finite ratio rather than inf.  Aggregates accumulate the values
        # as stored, so a later remove subtracts them exactly.
        stored_errors = np.minimum(
            self._reconstruction_error(new_rows, assignments, decoded), 6.0e4
        ).astype(np.float16)
        self._drift_buffer[self._n : self._n + n_new] = stored_errors
        self._drift_sum += float(stored_errors.astype(np.float64).sum())
        self._drift_count += n_new
        self._n += n_new
        self._cells = None
        self._scan_cache = None

    # ------------------------------------------------------ drift / retrain
    def drift_ratio(self) -> float:
        """Mean reconstruction error of the post-training rows *still in
        the corpus* over the train-time baseline (1.0 when none remain)."""
        if (
            self._train_distortion is None
            or self._train_distortion <= 0.0
            or self._drift_count <= 0
        ):
            return 1.0
        return (self._drift_sum / self._drift_count) / self._train_distortion

    def retrain_needed(self, *, threshold: float = 1.5, min_samples: int = 64) -> bool:
        """``True`` once >= ``min_samples`` surviving post-training rows
        show a mean reconstruction error above ``threshold`` x the
        baseline (removed rows stop counting — drift can clear itself)."""
        return self._drift_count >= int(min_samples) and self.drift_ratio() > float(threshold)

    def retrain(self, vectors: np.ndarray, *, sample_size: Optional[int] = None) -> None:
        """Re-train cells + codebooks on a sample of ``vectors``, re-encode
        every row and reset the drift statistics.

        ``sample_size`` tightens both training subsample caps for this call
        (coarse k-means and codebook fitting); every row is still assigned
        and encoded exactly.  This is what
        ``DeploymentManager.requantize()`` runs per shard behind its
        copy-on-write swap.
        """
        if sample_size is None:
            self.rebuild(vectors)
            return
        if sample_size <= 0:
            raise ValueError("sample_size must be positive")
        old_cap, old_points = self._coarse_train_cap, self.pq.max_train_points
        self._coarse_train_cap = min(old_cap, int(sample_size))
        self.pq.max_train_points = min(old_points, int(sample_size))
        try:
            self.rebuild(vectors)
        finally:
            self._coarse_train_cap = old_cap
            self.pq.max_train_points = old_points

    def remove(self, kept_mask: np.ndarray) -> None:
        """Compact code/assignment/const buffers after store compaction."""
        if not self.trained:
            return
        kept = int(np.asarray(kept_mask).sum())
        departed = self._drift_buffer[: self._n][~kept_mask].astype(np.float64)
        departed_valid = ~np.isnan(departed)
        self._drift_sum = max(0.0, self._drift_sum - float(departed[departed_valid].sum()))
        self._drift_count -= int(np.count_nonzero(departed_valid))
        self._assign_buffer[:kept] = self._assign_buffer[: self._n][kept_mask]
        self._code_buffer[:kept] = self._code_buffer[: self._n][kept_mask]
        self._const_buffer[:kept] = self._const_buffer[: self._n][kept_mask]
        self._drift_buffer[:kept] = self._drift_buffer[: self._n][kept_mask]
        self._n = kept
        self._cells = None
        self._scan_cache = None

    # --------------------------------------------------------------- search
    def _adc_select_native(
        self,
        kernels,
        coarse_d2: np.ndarray,
        probe: np.ndarray,
        lut: Tuple[np.ndarray, np.ndarray, np.ndarray],
        n_select: int,
    ) -> Tuple[list, list]:
        """Kernel dispatch: hand the scan layout and per-query LUTs to the
        fused C scan (:meth:`repro.core.kernels.IVFPQKernels.search_topk`)
        and unpack its fixed-width ``(distances, ids, counts)`` rows into
        the per-query lists the NumPy path returns.  Peak transient memory
        is the ``(n_chunk, n_probe)`` coarse block plus the
        ``(n_chunk, n_select)`` outputs — independent of how many
        candidates the probes cover."""
        lut_u8, scale, bias = lut
        cell_starts, members, consts, codes_t = self._scan_layout()
        n_chunk = probe.shape[0]
        probe = np.ascontiguousarray(probe, dtype=np.int64)
        coarse = np.ascontiguousarray(
            np.take_along_axis(coarse_d2, probe, axis=1).astype(np.float32)
        )
        out_d, out_ids, out_counts = kernels.search_topk(
            lut_u8=np.ascontiguousarray(lut_u8),
            scale=np.ascontiguousarray(scale, dtype=np.float32),
            bias=np.ascontiguousarray(bias, dtype=np.float32),
            coarse=coarse,
            probe=probe,
            cell_starts=cell_starts,
            members=members,
            consts=consts,
            codes_t=codes_t,
            packed=self.pq.packed,
            n_select=int(n_select),
        )
        ids_out = [out_ids[q, : out_counts[q]] for q in range(n_chunk)]
        adc_out = [out_d[q, : out_counts[q]] for q in range(n_chunk)]
        return ids_out, adc_out

    def _adc_select(
        self,
        coarse_d2: np.ndarray,
        probe: np.ndarray,
        lut: Tuple[np.ndarray, np.ndarray, np.ndarray],
        n_select: int,
    ) -> Tuple[list, list]:
        """ADC top-``n_select`` per query over the probed cells' code lists.

        ``lut`` is the ``(lut_u8, scale, bias)`` triple of
        :meth:`ProductQuantizer.quantized_query_tables` for *both*
        engines: the gather runs over the uint8 table, sums in uint32 (an
        order-independent integer reduction) and reconstructs the float
        distance from the per-query affine pair.  Returns per-query
        ``(ids, adc_distances)`` lists ordered by ``(adc, id)`` ascending;
        selection at the ``n_select`` boundary is deterministic under the
        same total order (:func:`_smallest_pairs_subset`), which is what
        makes the native and NumPy paths bitwise interchangeable.

        Dispatches to the fused C kernels when available (the
        ``native_kernels`` knob); the NumPy fallback below is one flat
        pass over every (query, probed cell) member: candidate ids, their
        ADC distances and the per-query segmentation all come from
        whole-array operations; only the final selection runs per query
        (on its own small candidate segment), so there is no per-cell
        inner loop and no padded candidate matrix.
        """
        kernels = self._active_kernels()
        if kernels is not None:
            return self._adc_select_native(kernels, coarse_d2, probe, lut, n_select)
        lut_u8, scale, bias = lut
        n_chunk = probe.shape[0]
        cells = self._cell_lists()
        cell_sizes = np.array([len(cell) for cell in cells], dtype=np.int64)
        m = self.pq.n_subspaces
        k_sub = self.pq.n_centroids

        flat_queries = np.repeat(np.arange(n_chunk), probe.shape[1])
        flat_cells = probe.ravel()
        flat_sizes = cell_sizes[flat_cells]
        total = int(flat_sizes.sum())
        if total == 0:
            return [np.empty(0, dtype=np.int64)] * n_chunk, [np.empty(0)] * n_chunk
        cand_ids = np.concatenate([cells[cell] for cell in flat_cells])
        rows = np.repeat(flat_queries, flat_sizes)

        # ADC: coarse |q-c|^2 + member const - 2 sum_j LUT[q, j, code_j].
        adc = np.repeat(
            coarse_d2[flat_queries, flat_cells].astype(np.float32), flat_sizes
        )
        adc += self._const_buffer[cand_ids]
        codes = self._code_buffer[cand_ids]
        if self.pq.packed:
            codes = self.pq.unpack_codes(codes)
        idx = codes.astype(np.int32)
        idx += np.arange(m, dtype=np.int32)[None, :] * k_sub
        idx += (rows * (m * k_sub)).astype(np.int32)[:, None]
        sums = lut_u8.ravel().take(idx).sum(axis=1, dtype=np.uint32)
        adc -= 2.0 * (
            scale[rows] * sums.astype(np.float32) + np.float32(m) * bias[rows]
        )

        # Candidates are query-major, so each query owns one contiguous
        # segment; select within it.
        per_query = flat_sizes.reshape(n_chunk, -1).sum(axis=1)
        bounds = np.concatenate([[0], np.cumsum(per_query)])
        ids_out: list = []
        adc_out: list = []
        for q in range(n_chunk):
            seg_d = adc[bounds[q] : bounds[q + 1]]
            seg_i = cand_ids[bounds[q] : bounds[q + 1]]
            if seg_d.size > n_select:
                subset = _smallest_pairs_subset(seg_d, seg_i, n_select)
                seg_d = seg_d[subset]
                seg_i = seg_i[subset]
            order = np.lexsort((seg_i, seg_d))
            ids_out.append(seg_i[order])
            adc_out.append(seg_d[order])
        return ids_out, adc_out

    def search(
        self,
        vectors: Optional[np.ndarray],
        queries: np.ndarray,
        k: int,
        *,
        chunk_size: int = 1024,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """ADC scan over the probed cells' codes, optionally re-ranked
        exactly against ``vectors`` (required when ``rerank > 0``)."""
        if not self.trained:
            if vectors is None:
                raise ValueError("an untrained IVFPQIndex cannot search without raw vectors")
            return ExactIndex(self.metric).search(vectors, queries, k)
        if self.rerank > 0 and vectors is None:
            raise ValueError("rerank > 0 requires the raw vectors; pass them or set rerank=0")
        n = self._n
        if n == 0:
            raise ValueError("cannot search an empty index")
        k = min(int(k), n)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_cells = self._centroids.shape[0]
        n_probe = min(self.n_probe, n_cells)
        n_select = max(k, self.rerank) if self.rerank > 0 else k

        out_d = np.empty((queries.shape[0], k))
        out_i = np.empty((queries.shape[0], k), dtype=np.int64)
        # Span hooks are one thread-local read when no trace collector is
        # active (the common case); see repro.obs.tracing.
        trace_spans = obs_tracing.enabled()
        for start in range(0, queries.shape[0], chunk_size):
            chunk = queries[start : start + chunk_size]
            scan_start = time.perf_counter() if trace_spans else 0.0
            coarse_d2 = squared_euclidean_distances(chunk, self._centroids)
            if n_probe >= n_cells:
                probe = np.broadcast_to(np.arange(n_cells), coarse_d2.shape).copy()
            else:
                probe = np.argpartition(coarse_d2, n_probe - 1, axis=1)[:, :n_probe]
            lut = self.pq.quantized_query_tables(chunk)
            cand_lists, adc_lists = self._adc_select(coarse_d2, probe, lut, n_select)

            # Queries whose probed cells hold fewer than k members re-scan
            # with every cell probed (no raw vectors needed), like the IVF
            # index's exact fallback but staying inside the codes.
            if n_probe < n_cells:
                short = [q for q in range(chunk.shape[0]) if cand_lists[q].size < k]
                if short:
                    full_probe = np.broadcast_to(
                        np.arange(n_cells), (len(short), n_cells)
                    ).copy()
                    lut_short = tuple(part[short] for part in lut)
                    f_cands, f_adcs = self._adc_select(
                        coarse_d2[short], full_probe, lut_short, n_select
                    )
                    for position, q in enumerate(short):
                        cand_lists[q] = f_cands[position]
                        adc_lists[q] = f_adcs[position]

            if trace_spans:
                obs_tracing.record(
                    "pq_scan",
                    time.perf_counter() - scan_start,
                    native=self.kernels_active(),
                    n_queries=chunk.shape[0],
                )
                rerank_start = time.perf_counter()

            if self.rerank > 0:
                # Exact re-rank: true squared distances for the ADC top
                # candidates, then (distance, id) order over them.
                widths = np.array([ids.size for ids in cand_lists], dtype=np.int64)
                width = int(widths.max())
                cand = np.zeros((chunk.shape[0], width), dtype=np.int64)
                valid = np.arange(width)[None, :] < widths[:, None]
                for q, ids in enumerate(cand_lists):
                    cand[q, : ids.size] = ids
                cand_vectors = np.asarray(vectors)[cand]
                inner = np.einsum("qd,qrd->qr", chunk, cand_vectors)
                # Candidate norms come from the gathered block — never an
                # O(N) pass over the full store per search call.
                cand_sq = np.einsum("qrd,qrd->qr", cand_vectors, cand_vectors)
                exact_d2 = (
                    np.einsum("ij,ij->i", chunk, chunk)[:, None] + cand_sq - 2.0 * inner
                )
                exact_d2[~valid] = np.inf
                rd, ri = top_k_by_distance(exact_d2, k)
                chunk_i = np.take_along_axis(cand, ri, axis=1)
                chunk_d = _sqrt_clamped(rd)
                # (distance, id) order over the selected k (top_k broke ties
                # by candidate column, not id).
                tie_order = np.lexsort((chunk_i, chunk_d), axis=1)
                chunk_d = np.take_along_axis(chunk_d, tie_order, axis=1)
                chunk_i = np.take_along_axis(chunk_i, tie_order, axis=1)
                if trace_spans:
                    obs_tracing.record(
                        "rerank",
                        time.perf_counter() - rerank_start,
                        n_queries=chunk.shape[0],
                        rerank=self.rerank,
                    )
            else:
                chunk_d = np.empty((chunk.shape[0], k))
                chunk_i = np.empty((chunk.shape[0], k), dtype=np.int64)
                for q in range(chunk.shape[0]):
                    chunk_i[q] = cand_lists[q][:k]
                    chunk_d[q] = adc_lists[q][:k]
                chunk_d = _sqrt_clamped(np.maximum(chunk_d, 0.0))
            out_d[start : start + chunk.shape[0]] = chunk_d
            out_i[start : start + chunk.shape[0]] = chunk_i
        return out_d, out_i

    # ---------------------------------------------------------- persistence
    def spec(self) -> Dict[str, object]:
        """JSON-serialisable configuration (see
        :meth:`NearestNeighbourIndex.spec`); ``bits <= 4`` implies the
        packed engine on reconstruction."""
        return {
            "kind": "ivfpq",
            "metric": self.metric,
            "n_cells": self.n_cells,
            "n_probe": self.n_probe,
            "n_subspaces": self.pq.n_subspaces,
            "bits": self.pq.bits,
            "opq": self.opq,
            "rerank": self.rerank,
            "min_train_size": self.min_train_size,
            "train_iters": self.train_iters,
            "seed": self.seed,
            "native_kernels": self.native_kernels,
            "max_cell_fraction": self.max_cell_fraction,
        }

    def state(self) -> Dict[str, np.ndarray]:
        """Trained structures as named arrays (see the base contract).

        Codes are in storage layout (packed two-per-byte for the 4-bit
        engine) and the side structures keep their resident dtypes, so
        shared-memory publication and npz persistence ship the compressed
        representation byte-for-byte.  ``rotation`` rides along when OPQ
        is on; ``drift_baseline`` + per-row ``drift_errors`` carry the
        drift statistics so requantization pressure survives a warm
        restart.
        """
        if not self.trained:
            return {}
        state = {
            "centroids": self._centroids,
            "assignments": self._assign_buffer[: self._n],
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
        """Adopt trained structures without re-running k-means.

        Arrays are adopted as-is (views into a shared-memory segment are
        fine: search never writes; a later ``add`` re-allocates through the
        amortised-doubling reserve before writing).  State from a
        differently-configured index — wrong code width, missing/unexpected
        ``rotation``, unknown keys — raises ``ValueError`` so the caller
        falls back to a clean rebuild.
        """
        if not state:
            self._centroids = None
            self._assign_buffer = np.empty(0, dtype=self._assign_dtype)
            self._code_buffer = np.empty((0, self.pq.code_width), dtype=np.uint8)
            self._const_buffer = np.empty(0, dtype=self._const_dtype)
            self._n = 0
            self._cells = None
            self._scan_cache = None
            self._train_distortion = None
            self._drift_buffer = np.empty(0, dtype=np.float16)
            self._drift_sum = 0.0
            self._drift_count = 0
            return
        required = {"centroids", "assignments", "codes", "member_consts", "codebooks"}
        if self.opq:
            required = required | {"rotation"}
        optional = {"drift_baseline", "drift_errors"} | (
            {"rotation"} if self.opq else set()
        )
        if not required <= set(state) or not set(state) <= required | optional:
            raise ValueError(f"state keys {sorted(state)} do not match an IVFPQIndex")
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
        self._centroids = np.asarray(state["centroids"], dtype=self._centroid_dtype)
        self._assign_buffer = np.asarray(state["assignments"], dtype=self._assign_dtype)
        self._code_buffer = codes
        self._const_buffer = np.asarray(state["member_consts"], dtype=self._const_dtype)
        self._n = self._code_buffer.shape[0]
        if self._assign_buffer.shape[0] != self._n or self._const_buffer.shape[0] != self._n:
            raise ValueError(
                "inconsistent IVFPQ state: codes, assignments and member_consts disagree on N"
            )
        self._cells = None
        self._scan_cache = None
        pq = self.pq
        pq._codebooks = codebooks
        pq._splits = pq._boundaries(self._centroids.shape[1])
        pq._sub_dims = np.diff(pq._splits)
        pq._rotation = (
            np.asarray(state["rotation"], dtype=np.float64) if "rotation" in state else None
        )
        if "drift_baseline" in state and "drift_errors" in state:
            baseline = float(
                np.asarray(state["drift_baseline"], dtype=np.float64).ravel()[0]
            )
            errors = np.asarray(state["drift_errors"], dtype=np.float16)
            if errors.shape[0] != self._n:
                raise ValueError("inconsistent IVFPQ state: drift_errors disagree on N")
            self._train_distortion = None if baseline < 0 else baseline
            self._drift_buffer = errors
        else:
            self._train_distortion = None
            self._drift_buffer = np.full(self._n, np.nan, dtype=np.float16)
        adopted = self._drift_buffer[: self._n].astype(np.float64)
        adopted_valid = ~np.isnan(adopted)
        self._drift_sum = float(adopted[adopted_valid].sum())
        self._drift_count = int(np.count_nonzero(adopted_valid))

    def memory_bytes(self) -> int:
        """Resident bytes of codes, assignments, ADC constants, centroids
        and codebooks (the store's raw matrix is counted separately)."""
        if not self.trained:
            return 0
        return int(
            self._code_buffer[: self._n].nbytes
            + self._assign_buffer[: self._n].nbytes
            + self._const_buffer[: self._n].nbytes
            + self._drift_buffer[: self._n].nbytes
            + self._centroids.nbytes
            + self.pq.memory_bytes()
        )


def index_from_spec(spec: Optional[Dict[str, object]]) -> NearestNeighbourIndex:
    """Re-create an index from its :meth:`NearestNeighbourIndex.spec` dict."""
    if spec is None:
        return ExactIndex()
    kind = spec.get("kind", "exact")
    if kind == "exact":
        return ExactIndex(metric=str(spec.get("metric", "euclidean")))
    max_cell_fraction = spec.get("max_cell_fraction")
    if kind == "ivf":
        n_cells = spec.get("n_cells")
        return CoarseQuantizedIndex(
            n_cells=int(n_cells) if n_cells is not None else None,
            n_probe=int(spec.get("n_probe", 8)),
            metric=str(spec.get("metric", "euclidean")),
            min_train_size=int(spec.get("min_train_size", 256)),
            train_iters=int(spec.get("train_iters", 10)),
            seed=int(spec.get("seed", 0)),
            max_cell_fraction=(
                float(max_cell_fraction) if max_cell_fraction is not None else None
            ),
        )
    if kind == "ivfpq":
        n_cells = spec.get("n_cells")
        return IVFPQIndex(
            n_cells=int(n_cells) if n_cells is not None else None,
            n_probe=int(spec.get("n_probe", 16)),
            n_subspaces=int(spec.get("n_subspaces", 8)),
            bits=int(spec.get("bits", 8)),
            opq=bool(spec.get("opq", False)),
            rerank=int(spec.get("rerank", 64)),
            metric=str(spec.get("metric", "euclidean")),
            min_train_size=int(spec.get("min_train_size", 256)),
            train_iters=int(spec.get("train_iters", 10)),
            seed=int(spec.get("seed", 0)),
            native_kernels=str(spec.get("native_kernels", "auto")),
            max_cell_fraction=(
                float(max_cell_fraction) if max_cell_fraction is not None else None
            ),
        )
    raise ValueError(f"unknown index kind {kind!r}")
