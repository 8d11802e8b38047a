"""The RSG1 segment format and the storage bugfix sweep that rode on it.

Four contracts:

* **Round trips.**  Arbitrary named array sets — any storable dtype, any
  shape including zero-length — survive pack/read bit-exactly, through an
  in-memory buffer, a POSIX shared-memory block and a file alike, and all
  three media hold *identical bytes* (property-based, hypothesis).
* **Rejection.**  Truncated buffers, flipped bits (checksum), bad magic,
  object dtypes and oversized names all raise
  :class:`~repro.core.segment.SegmentFormatError` instead of returning
  garbage.
* **Store archives.**  ``ReferenceStore.save`` writes RSG1 atomically
  (temp + ``os.replace``; a crash mid-save keeps the previous archive),
  non-RSG1 files (legacy npz included) are rejected, and persisted index
  state is adopted even for a trained-but-empty store.
* **Worker cache hygiene.**  A failed segment refresh in ``_shard_worker``
  evicts the stale cache entry instead of leaving it pointing at a closed
  segment (fault injection over the real worker loop), and attaching a
  segment never touches the resource tracker that owns its cleanup.
"""

import os
import queue
import subprocess
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import segment as rsg
from repro.core.index import ExactIndex, IVFPQIndex, index_from_spec
from repro.core.reference_store import ReferenceStore
from repro.serving.executors import _shard_worker


def _pack(arrays):
    """The segment as a standalone blob: written into a buffer of its size."""
    blob = bytearray(rsg.segment_size(arrays))
    rsg.write_segment(blob, arrays)
    return bytes(blob)


def corpus(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim))


# --------------------------------------------------------------------- strategies
_DTYPES = st.sampled_from(
    ["u1", "i1", "u2", "i4", "i8", "u8", "f2", "f4", "f8", "c8", "?"]
)
_NAMES = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_-."),
    min_size=1,
    max_size=24,
)


@st.composite
def _array(draw):
    dtype = np.dtype(draw(_DTYPES))
    shape = tuple(draw(st.lists(st.integers(0, 7), min_size=1, max_size=3)))
    count = int(np.prod(shape))
    if dtype.kind == "?":
        flat = draw(st.lists(st.booleans(), min_size=count, max_size=count))
        return np.array(flat, dtype=dtype).reshape(shape)
    if dtype.kind in "ui":
        info = np.iinfo(dtype)
        flat = draw(
            st.lists(st.integers(int(info.min), int(info.max)), min_size=count, max_size=count)
        )
        return np.array(flat, dtype=dtype).reshape(shape)
    bound = 6e4 if dtype.itemsize <= 2 else 1e6  # float16 tops out at 65504
    flat = draw(
        st.lists(
            st.floats(-bound, bound, allow_nan=False, width=16 if dtype.itemsize <= 2 else 32),
            min_size=count,
            max_size=count,
        )
    )
    return np.array(flat, dtype=dtype).reshape(shape)


_ARRAY_SETS = st.dictionaries(_NAMES, _array(), min_size=0, max_size=6)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(arrays=_ARRAY_SETS)
    def test_pack_read_bitexact(self, arrays):
        blob = _pack(arrays)
        out = rsg.read_segment(blob)
        assert set(out) == set(arrays)
        for name, array in arrays.items():
            assert out[name].dtype == array.dtype
            assert out[name].shape == array.shape
            assert np.array_equal(out[name], array, equal_nan=False)

    @settings(max_examples=20, deadline=None)
    @given(arrays=_ARRAY_SETS)
    def test_file_and_shm_media_hold_identical_bytes(self, arrays, tmp_path_factory):
        from multiprocessing import shared_memory

        blob = _pack(arrays)
        directory = tmp_path_factory.mktemp("segments")
        path = rsg.write_segment_file(directory / "segment.rsg", arrays)
        assert path.read_bytes() == blob
        shm = shared_memory.SharedMemory(create=True, size=rsg.segment_size(arrays))
        try:
            rsg.write_segment(shm.buf, arrays)
            assert bytes(shm.buf[: len(blob)]) == blob
            via_shm = rsg.read_segment(shm.buf)
            via_file = rsg.load_segment_file(path)
            for name in arrays:
                assert np.array_equal(via_file[name], via_shm[name])
            via_shm = None
        finally:
            shm.close()
            shm.unlink()

    def test_views_are_zero_copy_and_read_only(self, tmp_path):
        arrays = {"codes": np.arange(64, dtype=np.uint8).reshape(8, 8)}
        view = rsg.read_segment(_pack(arrays))["codes"]
        assert not view.flags.owndata and not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 1
        out = rsg.read_segment(bytearray(_pack(arrays)))
        assert not out["codes"].flags.writeable
        # A file load hands back owned arrays, not views of the read buffer.
        path = rsg.write_segment_file(tmp_path / "segment.rsg", arrays)
        loaded = rsg.load_segment_file(path)["codes"]
        assert loaded.flags.owndata and np.array_equal(loaded, arrays["codes"])

    def test_zero_length_arrays_and_empty_segment(self):
        arrays = {"empty": np.empty((0, 4), dtype=np.float32), "one": np.zeros(1)}
        out = rsg.read_segment(_pack(arrays))
        assert out["empty"].shape == (0, 4) and out["one"].shape == (1,)
        assert rsg.read_segment(_pack({})) == {}

    def test_alignment_and_page_boundaries(self):
        arrays = {"a": np.ones(3, dtype=np.uint8), "b": np.ones(5, dtype=np.float64)}
        blob = _pack(arrays)
        _, _, _, n_arrays, data_offset, total, _ = rsg.HEADER.unpack_from(blob, 0)
        assert data_offset % rsg.PAGE_ALIGNMENT == 0
        for position in range(rsg.HEADER_SIZE, rsg.HEADER_SIZE + n_arrays * rsg.ENTRY_SIZE, rsg.ENTRY_SIZE):
            offset = rsg.ENTRY.unpack_from(blob, position)[2]
            assert offset % rsg.ARRAY_ALIGNMENT == 0


class TestRejection:
    @pytest.fixture()
    def blob(self):
        return _pack({"x": np.arange(100, dtype=np.int64)})

    def test_truncation(self, blob):
        for cut in (0, 3, rsg.HEADER_SIZE - 1, rsg.HEADER_SIZE + 10, len(blob) - 1):
            with pytest.raises(rsg.SegmentFormatError):
                rsg.read_segment(blob[:cut])

    @settings(max_examples=40, deadline=None)
    @given(position=st.integers(0, 4915), bit=st.integers(0, 7))
    def test_flipped_byte_rejected(self, position, bit):
        blob = bytearray(_pack({"x": np.arange(600, dtype=np.int64)}))
        position %= len(blob)
        blob[position] ^= 1 << bit
        with pytest.raises(rsg.SegmentFormatError):
            rsg.read_segment(bytes(blob))

    def test_bad_magic_and_version(self, blob):
        bad = b"NOPE" + blob[4:]
        with pytest.raises(rsg.SegmentFormatError, match="magic"):
            rsg.read_segment(bad)
        future = bytearray(blob)
        future[4] = 99
        with pytest.raises(rsg.SegmentFormatError, match="version"):
            rsg.read_segment(bytes(future))

    def test_object_dtype_rejected(self):
        with pytest.raises(rsg.SegmentFormatError, match="pickle-free"):
            _pack({"bad": np.array(["a", "b"], dtype=object)})

    def test_oversized_name_rejected(self):
        with pytest.raises(rsg.SegmentFormatError):
            _pack({"n" * 80: np.zeros(1)})

    def test_verify_false_skips_crc(self, blob):
        corrupt = bytearray(blob)
        corrupt[-1] ^= 0xFF  # inside the last array's data
        parsed = rsg.read_segment(bytes(corrupt), verify=False)
        assert parsed["x"].shape == (100,)


class TestStoreArchives:
    def test_save_normalises_suffix_and_writes_segment(self, tmp_path):
        store = ReferenceStore(8)
        store.add(corpus(40, 8), [f"c{i % 4}" for i in range(40)])
        path = store.save(tmp_path / "refs.npz")
        assert path.suffix == ".rsg" and path.read_bytes()[:4] == rsg.MAGIC
        # load() applies the same suffix normalisation as save().
        reloaded = ReferenceStore.load(tmp_path / "refs.npz")
        assert np.array_equal(reloaded.embeddings, store.embeddings)
        assert list(reloaded.labels) == list(store.labels)

    def test_trained_but_empty_store_keeps_quantizer(self, tmp_path):
        # Regression (pre-fix: state adoption lived inside ``if len(labels)``
        # so an empty store silently lost its fitted codebooks on reload).
        vectors = corpus(600, 16)
        store = ReferenceStore(16, index_factory=lambda: IVFPQIndex(min_train_size=16))
        store.add(vectors, ["only-class"] * 600)
        assert store.index.trained
        store.remove_class("only-class")
        assert len(store) == 0 and store.index.trained
        centroids = store.index._centroids.copy()
        restored = ReferenceStore.load(
            store.save(tmp_path / "empty.rsg"), index_factory=store.index_factory
        )
        assert len(restored) == 0
        assert restored.index.trained, "trained-but-empty store lost its quantizer"
        assert np.array_equal(restored.index._centroids, centroids)
        # The adopted quantizer keeps serving as rows come back.
        restored.add(vectors[:50], ["back"] * 50)
        d, i = restored.search(vectors[:3], 4)
        assert d.shape == (3, 4)

    def test_trained_but_empty_coarse_index_keeps_state(self, tmp_path):
        vectors = corpus(400, 8)
        store = ReferenceStore(
            8, index_factory=lambda: IVFPQIndex(n_subspaces=4, min_train_size=16)
        )
        store.add(vectors, ["x"] * 400)
        store.remove_class("x")
        assert store.index.trained
        restored = ReferenceStore.load(
            store.save(tmp_path / "empty-coarse.rsg"),
            index_factory=store.index_factory,
        )
        assert restored.index.trained

    def test_interrupted_save_keeps_previous_archive(self, tmp_path, monkeypatch):
        # Regression (pre-fix: np.savez_compressed wrote the final path
        # directly, so a crash mid-write corrupted the archive).
        store = ReferenceStore(8, index_factory=ExactIndex)
        store.add(corpus(30, 8), ["a"] * 30)
        path = store.save(tmp_path / "refs.rsg")
        original = ReferenceStore.load(path)

        def explode(src, dst):
            raise OSError("disk detached mid-rename")

        monkeypatch.setattr(rsg.os, "replace", explode)
        store.add(corpus(10, 8, seed=1), ["b"] * 10)
        with pytest.raises(OSError):
            store.save(path)
        monkeypatch.undo()
        # The archive on disk is still the previous, fully valid one.
        recovered = ReferenceStore.load(path)
        assert np.array_equal(recovered.embeddings, original.embeddings)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["refs.rsg"], "temp file leaked"

    def test_corrupt_archive_raises_segment_error(self, tmp_path):
        store = ReferenceStore(8)
        store.add(corpus(30, 8), ["a"] * 30)
        path = store.save(tmp_path / "refs.rsg")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(rsg.SegmentFormatError):
            ReferenceStore.load(path)
        # Anything without the RSG1 magic is rejected the same way — a
        # pre-segment npz archive included; no pickle-capable loader runs.
        legacy = tmp_path / "legacy.npz"
        np.savez_compressed(legacy, embeddings=store.embeddings, labels=store.labels)
        garbage = tmp_path / "garbage.rsg"
        garbage.write_bytes(b"not a segment " * 64)
        for bad in (legacy, garbage):
            with pytest.raises(rsg.SegmentFormatError):
                ReferenceStore.load(bad)


class TestWorkerFaultInjection:
    def _task(self, shard, segment, queries, request_id):
        return (
            request_id,
            request_id,  # each task is its own search
            shard.uid,
            shard.version,
            segment,
            shard.size,
            shard.index.spec(),
            queries,
            3,
        )

    @staticmethod
    def _block(store):
        """Publish ``store``'s vectors into a fresh shm block, as the
        publisher would (the caller closes and unlinks it)."""
        arrays = {"vectors": np.asarray(store.embeddings)}
        block = shared_memory.SharedMemory(create=True, size=rsg.segment_size(arrays))
        rsg.write_segment(block.buf, arrays)
        return block

    def test_failed_refresh_evicts_cache_entry(self):
        # Regression (pre-fix: the worker closed the old segment *before*
        # attaching the new one, so a failed refresh left the cache mapping
        # uid -> closed segment and the next request read unmapped memory).
        import threading

        vectors = corpus(200, 8)
        store = ReferenceStore(8)
        store.add(vectors, [f"c{i % 5}" for i in range(200)])
        shard = store._shards[0]
        good = self._block(store)
        requests, responses = queue.Queue(), queue.Queue()
        worker = threading.Thread(target=_shard_worker, args=(requests, responses), daemon=True)
        worker.start()
        queries = vectors[:4]
        try:
            # 1) Populate the cache at version v.
            requests.put(self._task(shard, good.name, queries, 0))
            _, d1, i1, error, _, _ = responses.get(timeout=30)
            assert error is None
            # 2) A refresh to v+1 whose block name does not exist must fail ...
            shard.version += 1
            requests.put(self._task(shard, f"{good.name}-gone", queries, 1))
            _, _, _, error, _, _ = responses.get(timeout=30)
            assert error is not None
            # 3) ... and the next request (the segment is back) must attach
            # cleanly instead of serving through a poisoned cache entry.
            requests.put(self._task(shard, good.name, queries, 2))
            _, d2, i2, error, _, _ = responses.get(timeout=30)
            assert error is None, f"worker cache poisoned after failed refresh: {error}"
            assert np.array_equal(d1, d2) and np.array_equal(i1, i2)
        finally:
            requests.put(None)
            worker.join(timeout=10)
            good.close()
            good.unlink()

    def test_corrupt_segment_surfaces_error_not_garbage(self):
        import threading

        vectors = corpus(100, 8)
        store = ReferenceStore(8)
        store.add(vectors, ["a"] * 100)
        shard = store._shards[0]
        block = self._block(store)
        block.buf[block.size - 8] ^= 0x40
        requests, responses = queue.Queue(), queue.Queue()
        worker = threading.Thread(target=_shard_worker, args=(requests, responses), daemon=True)
        worker.start()
        try:
            requests.put(self._task(shard, block.name, vectors[:2], 0))
            _, _, _, error, _, _ = responses.get(timeout=30)
            assert error is not None and "checksum" in error
        finally:
            requests.put(None)
            worker.join(timeout=10)
            block.close()
            block.unlink()


def test_in_process_attach_leaves_the_publishers_tracker_entry_alone():
    # Regression: attaching through SharedMemory(name=...) then
    # unregistering it removed the publisher's own registration, so the
    # publisher's unlink made the resource tracker print a KeyError.
    probe = (
        "import numpy as np\n"
        "from repro.core.reference_store import ReferenceStore\n"
        "from repro.serving.transport import SegmentPublisher, attach_segment\n"
        "store = ReferenceStore(4)\n"
        "store.add(np.eye(4), ['a', 'b', 'c', 'd'])\n"
        "shard = store._shards[0]\n"
        "publisher = SegmentPublisher()\n"
        "attachment = attach_segment(publisher.publish(shard))\n"
        "assert attachment.arrays['vectors'].shape == (4, 4)\n"
        "attachment.close()\n"
        "publisher.release([shard.uid])\n"
        "publisher.close()\n"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0 and run.stderr == "", run.stderr
