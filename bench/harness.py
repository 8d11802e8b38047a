"""The driver's moving parts: the server subprocess, the closed-loop capture
boxes that load it, the page-update stream, and one measured window.

One driver process, at most two threads and two connections: box 0 runs on
the calling thread, a second box or the updater on one more.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

import benchenv
import procstat
import spans as tracing
from fixtures import Fixture
from repro.serving import FrontendClient, ProtocolError

TOP_N = 3
HOST = "127.0.0.1"
READY_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 60.0
# Request/response pairs kept per box for the protocol replay.
REPLAY_SAMPLES = 256


# --------------------------------------------------------------------- server
class ServerProcess:
    """``bench/server.py`` in a subprocess (its own session, so a wedged
    server and its shard workers can be killed as one group)."""

    def __init__(
        self, deployment: bytes, *, index: str, executor: str, cache_size: int, trace: bool
    ) -> None:
        """``deployment`` is the ``.npz`` (references + labels) to serve; it
        travels over the server's stdin, so a run leaves no file behind."""
        command = [
            sys.executable, str(benchenv.BENCH_DIR / "server.py"),
            "--index", index, "--executor", executor, "--cache-size", str(cache_size),
        ] + (["--trace"] if trace else [])
        self.spawned_at = time.monotonic()
        self._process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
        )
        try:
            self._process.stdin.write(len(deployment).to_bytes(8, "big") + deployment)
            self._process.stdin.flush()
        except BrokenPipeError:
            self.kill()
            raise RuntimeError("the benchmark server exited before reading its deployment")
        self.ready: Dict = {}
        self.ready_at = 0.0

    @property
    def pid(self) -> int:
        return self._process.pid

    def wait_ready(self) -> Dict:
        """Block until the server has bound its port; returns its ready line."""
        readable, _, _ = select.select([self._process.stdout], [], [], READY_TIMEOUT_S)
        line = self._process.stdout.readline() if readable else b""
        if not line:
            self.kill()
            raise RuntimeError("the benchmark server exited or hung before it was ready")
        self.ready = json.loads(line)
        self.ready_at = time.monotonic()
        return self.ready

    def stop(self) -> Dict:
        """Close the server's stdin, wait for it to end, return its report."""
        try:
            output, _ = self._process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("the benchmark server did not stop in time")
        if self._process.returncode != 0:
            raise RuntimeError(f"the benchmark server exited with {self._process.returncode}")
        return json.loads(output.splitlines()[-1])

    def kill(self) -> None:
        """Last resort: kill the server's whole process group and reap it."""
        if self._process.returncode is None:  # not reaped, so the pid is still ours
            os.killpg(self._process.pid, signal.SIGKILL)
            self._process.communicate()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Only reached with the server still up when the run is aborting.
        if self._process.poll() is None:
            try:
                self._process.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()


# ---------------------------------------------------------------------- loads
@dataclass
class RequestLog:
    """One request as the client saw it."""

    request: int  # unique across the run's connections
    lane: int
    start: float
    end: float
    batch: np.ndarray  # (n, dim) embeddings handed to FrontendClient.classify
    labels: List[Tuple[str, ...]] = field(default_factory=list)
    generation: int = 0
    floor_generation: int = 0
    error: Optional[str] = None


@dataclass
class UpdateLog:
    """One ``replace_class`` timed from when it was due."""

    due: float
    done: float
    label: str
    rows: np.ndarray
    generation: int = 0
    error: Optional[str] = None


class CaptureBox:
    """A capture box: one blocking ``FrontendClient`` sending its next
    request only when the previous one has been answered."""

    def __init__(
        self, lane: int, lanes: int, port: int, fixture: Fixture, *,
        per_request: int, from_captures: bool, seen: np.ndarray,
    ) -> None:
        self.lane, self._lanes = lane, lanes
        self._fixture = fixture
        self._per_request = per_request
        self._from_captures = from_captures
        self._seen = seen  # shared: which pool entries have been sent
        self._turn = lane
        self._generation = 0
        self.client = FrontendClient(HOST, port)
        self.log: List[RequestLog] = []
        self.samples: Deque[Tuple[np.ndarray, Dict]] = deque(maxlen=REPLAY_SAMPLES)
        self.sent = 0
        self.early_repeats = 0
        self.broken = False

    def run_until(self, deadline: float, recorder: Optional[tracing.Recorder]) -> None:
        while not self.broken and time.monotonic() < deadline:
            self.request(recorder)

    def _next_indices(self) -> np.ndarray:
        pool = len(self._fixture.queries)
        indices = (self._turn * self._per_request + np.arange(self._per_request)) % pool
        self._turn += self._lanes
        if self.sent + self._per_request <= pool // self._lanes:
            self.early_repeats += int(self._seen[indices].sum())
        self._seen[indices] = True
        self.sent += self._per_request
        return indices

    def request(self, recorder: Optional[tracing.Recorder]) -> None:
        indices = self._next_indices()
        fixture, clock = self._fixture, time.monotonic
        t0 = clock()
        if self._from_captures:
            arrays = np.stack(
                [fixture.extractor.extract_array(fixture.captures[i]) for i in indices])
            t1 = clock()
            batch = fixture.model.embed(arrays.transpose(0, 2, 1))
        else:
            t1 = t0
            batch = fixture.queries[indices]
        t2 = clock()
        request = len(self.log) * self._lanes + self.lane
        entry = RequestLog(request, self.lane, t0, t2, batch,
                           floor_generation=self._generation)
        try:
            body = self.client.classify(batch, top_n=TOP_N)
            entry.end = clock()
            entry.labels = [tuple(p["labels"]) for p in body["predictions"]]
            entry.generation = int(body["generation"])
            if len(entry.labels) != len(batch):
                entry.error = f"{len(entry.labels)} answers to {len(batch)} queries"
            elif entry.generation < self._generation:
                entry.error = (f"generation went backwards on one connection: "
                               f"{self._generation} -> {entry.generation}")
            self._generation = max(self._generation, entry.generation)
            self.samples.append((batch, body))
        except (ProtocolError, OSError) as error:
            entry.end = clock()
            entry.error = f"{type(error).__name__}: {error}"
            # A timed-out or desynchronised stream cannot carry another request.
            self.broken = not getattr(error, "recoverable", False)
        self.log.append(entry)
        if recorder is not None and entry.error is None:
            n = len(batch)
            root = recorder.add("request", t0, entry.end, request=request, lane=self.lane, n=n)
            if self._from_captures:
                recorder.add("traces.extract", t0, t1, request=request, parent=root["id"],
                             lane=self.lane, n=n)
                recorder.add("embedding.embed", t1, t2, request=request, parent=root["id"],
                             lane=self.lane, n=n)
            recorder.add("frontend.classify", t2, entry.end, request=request,
                         parent=root["id"], lane=self.lane, n=n)


class Updater:
    """The page-update stream: ``replace_class`` on a fixed schedule, on its
    own connection, each update timed from the moment it was due."""

    def __init__(self, port: int, schedule: Iterator[Tuple[str, np.ndarray]], period_s: float):
        self.client = FrontendClient(HOST, port)
        self._schedule = schedule
        self._period_s = period_s
        self.log: List[UpdateLog] = []

    def run(self, stop: threading.Event) -> None:
        origin = time.monotonic()
        for turn, (label, rows) in enumerate(self._schedule):
            due = origin + turn * self._period_s
            if stop.wait(max(0.0, due - time.monotonic())):
                return
            entry = UpdateLog(due, due, label, rows)
            try:
                reply = self.client.replace_class(label, rows)
                entry.generation = int(reply["generation"])
            except (ProtocolError, OSError) as error:
                entry.error = f"{type(error).__name__}: {error}"
            entry.done = time.monotonic()
            self.log.append(entry)
            if entry.error is not None:
                return  # the oracle can no longer follow the deployment


# --------------------------------------------------------------------- window
@dataclass
class Measurement:
    """One warm-up plus one measured window against one server."""

    started: float
    ended: float
    requests: List[RequestLog]  # warm-up included; measured ones start >= started
    updates: List[UpdateLog]
    cpu_s: float
    peak_rss_mb: float
    registry_before: Dict[str, float]
    registry_after: Dict[str, float]
    scraped_at: float
    samples: List[Tuple[np.ndarray, Dict]]
    pool_wraps: float
    early_repeats: int


def measure(
    server: ServerProcess, fixture: Fixture, *, connections: int, per_request: int,
    from_captures: bool, updates: Optional[Iterator[Tuple[str, np.ndarray]]],
    update_period_s: float, warmup_s: float, seconds: float,
    recorder: Optional[tracing.Recorder] = None,
) -> Measurement:
    """Warm up, then load the server for ``seconds`` and account for it.

    With a ``recorder`` the window is traced: client spans are recorded
    and the server's registry is scraped at both ends of the window (over
    box 0's connection, while no request is in flight on it)."""
    if connections + (updates is not None) > 2:
        raise ValueError("the driver is limited to two connections and two threads")
    port = server.ready["port"]
    seen = np.zeros(len(fixture.queries), dtype=bool)
    boxes = [
        CaptureBox(lane, connections, port, fixture, per_request=per_request,
                   from_captures=from_captures, seen=seen)
        for lane in range(connections)
    ]
    updater = Updater(port, updates, update_period_s) if updates is not None else None
    stop_updates = threading.Event()
    with ThreadPoolExecutor(max_workers=1) as second_thread:
        update_run = second_thread.submit(updater.run, stop_updates) if updater else None

        def phase(length_s: float, phase_recorder) -> None:
            deadline = time.monotonic() + length_s
            others = [second_thread.submit(box.run_until, deadline, phase_recorder)
                      for box in boxes[1:]]
            boxes[0].run_until(deadline, phase_recorder)
            for other in others:
                other.result()

        try:
            phase(warmup_s, None)
            before = tracing.scrape(boxes[0].client) if recorder is not None else {}
            tree = [os.getpid()] + procstat.process_tree(server.pid)
            cpu_before = procstat.cpu_seconds(tree)
            started = time.monotonic()
            phase(seconds, recorder)
            ended = started + seconds
            tree = [os.getpid()] + procstat.process_tree(server.pid)
            cpu_s = procstat.cpu_seconds(tree) - cpu_before
            peak_rss_mb = procstat.peak_rss_mb(tree[1:])
            after = tracing.scrape(boxes[0].client) if recorder is not None else {}
            scraped_at = time.monotonic()
        finally:
            stop_updates.set()
            if update_run is not None:
                update_run.result()
            for box in boxes:
                box.client.close()
            if updater is not None:
                updater.client.close()
    requests = sorted((entry for box in boxes for entry in box.log), key=lambda e: e.start)
    return Measurement(
        started=started, ended=ended, requests=requests,
        updates=updater.log if updater else [], cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
        registry_before=before, registry_after=after, scraped_at=scraped_at,
        samples=[sample for box in boxes for sample in box.samples],
        pool_wraps=sum(box.sent for box in boxes) / len(fixture.queries),
        early_repeats=sum(box.early_repeats for box in boxes),
    )
