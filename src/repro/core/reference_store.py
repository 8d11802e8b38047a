"""The corpus of labelled reference embeddings.

The reference store is the component that makes the attack *adaptive*: to
track a changed page or add a new one, the adversary only swaps or appends
reference embeddings — the embedding model itself is never retrained
(Section IV-C).

Storage is an amortised-doubling buffer (appends are O(1) amortised rather
than an O(N) reallocation per ``add``) and labels are kept int-encoded:
``label_codes`` maps each row to a code, ``class_names`` maps codes back to
strings, and ``classes``/``n_classes``/``class_counts`` all derive from
that cached encoding.  The store owns a nearest-neighbour index (see
:mod:`repro.core.index`) and keeps it consistent across every mutation, so
classification cost can stay sublinear while adaptation remains
retraining-free.
"""

from __future__ import annotations

import copy
import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import segment as segment_format
from repro.core.index import ExactIndex, NearestNeighbourIndex, search_by_metric

PathLike = Union[str, os.PathLike]

#: Suffix of the RSG1 archives :meth:`ReferenceStore.save` writes.
SEGMENT_SUFFIX = ".rsg"


def _json_pack(payload: object) -> np.ndarray:
    """A JSON document as a uint8 array (segments hold arrays only)."""
    return np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8)


def _json_unpack(array: np.ndarray) -> object:
    return json.loads(np.asarray(array, dtype=np.uint8).tobytes().decode("utf-8"))

_INITIAL_CAPACITY = 32


class LabelEncoding:
    """Dense, first-occurrence int encoding of class labels with counts.

    Shared by :class:`ReferenceStore` and the serving layer's sharded store
    so the two can never drift: ``names[code]`` is the label, codes stay
    dense and first-occurrence ordered across removals, and per-code
    reference counts ride along, as do the codes' ranks in label order
    (the classifier's last tie-break).
    """

    __slots__ = ("names", "index", "counts", "_ranks")

    def __init__(self) -> None:
        self.names: List[str] = []
        self.index: Dict[str, int] = {}
        self.counts: np.ndarray = np.empty(0, dtype=np.int64)
        self._ranks: Optional[np.ndarray] = None

    def encode(self, labels: Sequence[str]) -> np.ndarray:
        """Codes for ``labels`` (allocating new ones) and count them in."""
        codes = np.empty(len(labels), dtype=np.int64)
        for position, label in enumerate(labels):
            code = self.index.get(label)
            if code is None:
                code = len(self.names)
                self.index[label] = code
                self.names.append(label)
            codes[position] = code
        if len(self.names) > self.counts.shape[0]:
            grown = np.zeros(len(self.names), dtype=np.int64)
            grown[: self.counts.shape[0]] = self.counts
            self.counts = grown
            self._ranks = None  # a name was added
        np.add.at(self.counts, codes, 1)
        return codes

    def code_of(self, label: str) -> Optional[int]:
        return self.index.get(label)

    def drop(self, code: int) -> None:
        """Remove a code entirely; later codes shift down by one."""
        del self.names[code]
        self.counts = np.delete(self.counts, code)
        self.index = {name: position for position, name in enumerate(self.names)}
        self._ranks = None

    def label_ranks(self) -> np.ndarray:
        """Read-only rank of each code under lexicographic label order,
        sorted once per change to the set of names."""
        if self._ranks is None:
            names = self.names
            ranks = np.empty(len(names), dtype=np.int64)
            ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
            ranks.flags.writeable = False
            self._ranks = ranks
        return self._ranks

    def clone(self) -> "LabelEncoding":
        fresh = LabelEncoding()
        fresh.names = list(self.names)
        fresh.index = dict(self.index)
        fresh.counts = self.counts.copy()
        fresh._ranks = self._ranks  # read-only, so shared
        return fresh


def validate_reference_batch(
    embeddings: np.ndarray, labels: Iterable[str], embedding_dim: int
) -> Tuple[np.ndarray, List[str]]:
    """The shared add-batch validation of the flat and sharded stores."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    labels = [str(label) for label in labels]
    if embeddings.shape[0] != len(labels):
        raise ValueError(f"got {embeddings.shape[0]} embeddings but {len(labels)} labels")
    if embeddings.shape[1] != embedding_dim:
        raise ValueError(
            f"embeddings have dimension {embeddings.shape[1]}, store expects {embedding_dim}"
        )
    if any(not label for label in labels):
        raise ValueError("labels must be non-empty strings")
    return embeddings, labels


STORAGE_DTYPES = ("float64", "float32")


class ReferenceStore:
    """Labelled embedding vectors used as k-NN reference points.

    ``storage_dtype`` picks the resident dtype of the embedding buffer:
    ``"float64"`` (the default, bit-compatible with the seed pipeline) or
    ``"float32"``, which halves resident memory and shared-memory segment
    size; distance computations still run in float64 (NumPy promotes), so
    float32 results agree with the float64 path to ~1e-7 relative error.
    """

    def __init__(
        self,
        embedding_dim: int,
        index: Optional[NearestNeighbourIndex] = None,
        *,
        storage_dtype: str = "float64",
    ) -> None:
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        storage_dtype = np.dtype(storage_dtype).name
        if storage_dtype not in STORAGE_DTYPES:
            raise ValueError(
                f"unsupported storage_dtype {storage_dtype!r}; expected one of {STORAGE_DTYPES}"
            )
        self.embedding_dim = int(embedding_dim)
        self.storage_dtype = storage_dtype
        self._buffer: np.ndarray = np.empty((0, embedding_dim), dtype=storage_dtype)
        self._size: int = 0
        self._codes: np.ndarray = np.empty(0, dtype=np.int64)
        self._encoding = LabelEncoding()
        self._index: NearestNeighbourIndex = index if index is not None else ExactIndex()

    # ------------------------------------------------------------------- state
    def __len__(self) -> int:
        return self._size

    @property
    def embeddings(self) -> np.ndarray:
        """The (N, dim) matrix of reference embeddings (a read-only view)."""
        view = self._buffer[: self._size]
        view.flags.writeable = False
        return view

    @property
    def labels(self) -> np.ndarray:
        """Per-row labels as an object array (decoded from the cached codes)."""
        names = np.array(self._encoding.names, dtype=object)
        return names[self._codes[: self._size]] if self._size else np.empty(0, dtype=object)

    @property
    def label_codes(self) -> np.ndarray:
        """Per-row integer class codes; ``class_names[code]`` is the label."""
        view = self._codes[: self._size]
        view.flags.writeable = False
        return view

    @property
    def class_names(self) -> List[str]:
        """Code -> label mapping (codes are first-occurrence ordered)."""
        return list(self._encoding.names)

    @property
    def classes(self) -> List[str]:
        """Distinct class labels in insertion order."""
        return list(self._encoding.names)

    @property
    def label_ranks(self) -> np.ndarray:
        """Read-only rank of each class code under lexicographic label order."""
        return self._encoding.label_ranks()

    @property
    def n_classes(self) -> int:
        return len(self._encoding.names)

    def class_counts(self) -> Dict[str, int]:
        return {
            name: int(self._encoding.counts[code])
            for code, name in enumerate(self._encoding.names)
        }

    def has_class(self, label: str) -> bool:
        return label in self._encoding.index

    def __contains__(self, label: str) -> bool:
        return self.has_class(label)

    @property
    def index(self) -> NearestNeighbourIndex:
        return self._index

    # --------------------------------------------------------------- mutation
    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = self._buffer.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(_INITIAL_CAPACITY, capacity)
        while new_capacity < needed:
            new_capacity *= 2
        buffer = np.empty((new_capacity, self.embedding_dim), dtype=self.storage_dtype)
        buffer[: self._size] = self._buffer[: self._size]
        self._buffer = buffer
        codes = np.empty(new_capacity, dtype=np.int64)
        codes[: self._size] = self._codes[: self._size]
        self._codes = codes

    def add(self, embeddings: np.ndarray, labels: Iterable[str]) -> None:
        """Append reference embeddings with their class labels."""
        embeddings, labels = validate_reference_batch(embeddings, labels, self.embedding_dim)
        n_new = embeddings.shape[0]
        self._reserve(n_new)
        self._buffer[self._size : self._size + n_new] = embeddings
        codes = self._encoding.encode(labels)
        self._codes[self._size : self._size + n_new] = codes
        self._size += n_new
        self._index.add(self._buffer[: self._size], n_new)

    def remove_class(self, label: str) -> int:
        """Drop every reference of ``label``; returns how many were removed."""
        code = self._encoding.code_of(label)
        if code is None:
            raise KeyError(f"no references with label {label!r}")
        codes = self._codes[: self._size]
        kept_mask = codes != code
        removed = self._size - int(kept_mask.sum())
        # Compact rows in order, then drop the code from the encoding so the
        # remaining codes stay dense and first-occurrence ordered.
        kept = int(kept_mask.sum())
        self._buffer[:kept] = self._buffer[: self._size][kept_mask]
        new_codes = codes[kept_mask]
        new_codes[new_codes > code] -= 1
        self._codes[:kept] = new_codes
        self._size = kept
        self._encoding.drop(code)
        self._index.remove(kept_mask)
        return removed

    def replace_class(self, label: str, embeddings: np.ndarray) -> None:
        """Swap the references of one class (the paper's adaptation step)."""
        if self.has_class(label):
            self.remove_class(label)
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        self.add(embeddings, [label] * embeddings.shape[0])

    def class_embeddings(self, label: str) -> np.ndarray:
        code = self._encoding.code_of(label)
        if code is None:
            raise KeyError(f"no references with label {label!r}")
        return self._buffer[: self._size][self._codes[: self._size] == code]

    def memory_bytes(self) -> int:
        """Resident bytes: live embedding rows plus index side structures."""
        return int(self._buffer[: self._size].nbytes) + int(self._index.memory_bytes())

    def clone(self) -> "ReferenceStore":
        """Deep copy, *including the trained index state*.

        An O(N) buffer copy with no index retraining — the serving layer's
        copy-on-write shard swap clones the touched shard this way, keeping
        adaptation retraining-free even for IVF-indexed shards.
        """
        fresh = ReferenceStore(
            self.embedding_dim, index=copy.deepcopy(self._index), storage_dtype=self.storage_dtype
        )
        fresh._buffer = self._buffer[: self._size].copy()
        fresh._codes = self._codes[: self._size].copy()
        fresh._size = self._size
        fresh._encoding = self._encoding.clone()
        return fresh

    # ------------------------------------------------------------------ search
    def search(
        self, queries: np.ndarray, k: int, *, metric: str = "euclidean"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """k nearest references per query, ordered by ``(distance, row id)``.

        Dispatches to the owned index when its metric matches; any other
        metric is answered by an exact brute-force scan so callers with a
        non-default metric keep working.
        """
        if self._size == 0:
            raise RuntimeError("the reference store is empty")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.embedding_dim:
            raise ValueError(
                f"query embeddings have dimension {queries.shape[1]}, "
                f"store holds dimension {self.embedding_dim}"
            )
        k = min(int(k), self._size)
        return search_by_metric(self._index, self.embeddings, queries, k, metric)

    def rebuild_index(self, index: Optional[NearestNeighbourIndex] = None) -> None:
        """Swap in (or refresh) the nearest-neighbour index."""
        if index is not None:
            self._index = index
        self._index.rebuild(self.embeddings)

    # ---------------------------------------------------------- requantization
    def retrain_needed(self, *, threshold: float = 1.5, min_samples: int = 64) -> bool:
        """Whether corpus churn has drifted the index's quantizer enough to
        warrant re-training (always ``False`` for non-quantizing indexes);
        see :meth:`repro.core.index.IVFPQIndex.retrain_needed`."""
        return self._index.retrain_needed(threshold=threshold, min_samples=min_samples)

    def requantize(self, *, sample_size: Optional[int] = None) -> None:
        """Re-train the index's quantizer on (a sample of) the current
        corpus and re-encode every row, resetting its drift statistics.

        The mutable-store answer to quantizer staleness: the paper's
        adaptation loop never retrains the *embedding model*, but the
        index's k-means structures age as references churn — this refreshes
        them in place.  The serving layer wraps the same operation in a
        zero-downtime copy-on-write swap
        (``DeploymentManager.requantize()``).
        """
        self._index.retrain(self.embeddings, sample_size=sample_size)

    # ------------------------------------------------------------- persistence
    _INDEX_STATE_PREFIX = "index_state__"

    def save(self, path: PathLike) -> Path:
        """Persist embeddings, labels, the storage dtype *and* the trained
        index state (e.g. IVF-PQ codebooks + codes), so :meth:`load` can
        restore the index without re-running k-means.

        Archives are ``RSG1`` segments (see :mod:`repro.core.segment`) —
        the suffix is normalised to ``.rsg`` — and the write is atomic:
        the bytes land in a temp file next to ``path`` and are renamed
        into place, so a crash mid-save never corrupts a previous archive.
        """
        path = Path(path)
        if path.suffix != SEGMENT_SUFFIX:
            path = path.with_suffix(SEGMENT_SUFFIX)
        arrays: Dict[str, np.ndarray] = {
            "embeddings": self.embeddings,
            "label_codes": self.label_codes,
            "class_names": _json_pack(self.class_names),
            "meta": _json_pack(
                {"embedding_dim": self.embedding_dim, "storage_dtype": self.storage_dtype}
            ),
        }
        for name, array in self._index.state().items():
            arrays[f"{self._INDEX_STATE_PREFIX}{name}"] = array
        return segment_format.write_segment_file(path, arrays)

    def _fill(self, embeddings: np.ndarray, labels: List[str]) -> None:
        """Bulk-populate an empty store without notifying the index (the
        loader then either adopts persisted index state or rebuilds once)."""
        n_new = embeddings.shape[0]
        self._reserve(n_new)
        self._buffer[:n_new] = embeddings
        self._codes[:n_new] = self._encoding.encode(labels)
        self._size = n_new

    @classmethod
    def _restore(
        cls,
        store: "ReferenceStore",
        embeddings: np.ndarray,
        labels: List[str],
        state: Dict[str, np.ndarray],
    ) -> "ReferenceStore":
        """Populate a freshly constructed store from archive contents.

        Index state is adopted whenever present — *regardless* of the row
        count, so a trained-but-empty store (fitted codebooks, zero rows)
        keeps its quantizer across a save/load round trip.  Only when no
        state could be adopted and rows exist does the index rebuild.
        """
        if len(labels):
            embeddings, labels = validate_reference_batch(
                embeddings, labels, store.embedding_dim
            )
            store._fill(embeddings, labels)
        adopted = False
        if state:
            try:
                store._index.load_state(state)
                adopted = True
            except (KeyError, ValueError):
                adopted = False  # mismatched index; retrain below
        if not adopted and len(store):
            store._index.rebuild(store.embeddings)
        return store

    @classmethod
    def load(
        cls,
        path: PathLike,
        index: Optional[NearestNeighbourIndex] = None,
        *,
        storage_dtype: Optional[str] = None,
    ) -> "ReferenceStore":
        """Restore an ``RSG1`` archive written by :meth:`save`.

        A missing ``path`` is looked up under the ``.rsg`` suffix
        :meth:`save` normalises to, so ``load(p)`` finds what ``save(p)``
        wrote.  Anything that is not a valid segment raises
        :class:`~repro.core.segment.SegmentFormatError`.
        """
        path = Path(path)
        if not path.exists() and path.suffix != SEGMENT_SUFFIX:
            path = path.with_suffix(SEGMENT_SUFFIX)
        if not path.exists():
            raise FileNotFoundError(f"reference store archive not found: {path}")
        arrays = segment_format.load_segment_file(path)
        try:
            meta = _json_unpack(arrays["meta"])
            class_names = _json_unpack(arrays["class_names"])
            codes = np.asarray(arrays["label_codes"], dtype=np.int64)
            embeddings = arrays["embeddings"]
        except (KeyError, ValueError, json.JSONDecodeError) as error:
            raise segment_format.SegmentFormatError(
                f"{path} is not a reference-store segment: {error}"
            ) from error
        if storage_dtype is None:
            storage_dtype = str(meta.get("storage_dtype", "float64"))
        store = cls(int(meta["embedding_dim"]), index=index, storage_dtype=storage_dtype)
        labels = [str(class_names[code]) for code in codes.tolist()]
        state = {
            name[len(cls._INDEX_STATE_PREFIX) :]: array
            for name, array in arrays.items()
            if name.startswith(cls._INDEX_STATE_PREFIX)
        }
        return cls._restore(store, embeddings, labels, state)
