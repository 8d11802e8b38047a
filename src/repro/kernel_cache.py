"""Compile-and-cache for native kernels, in a directory *outside* the tree.

The three kernel modules (:mod:`repro.nn.kernels`, :mod:`repro.core.kernels`
and :mod:`repro.traces.kernels`) each hold a :class:`KernelLatch` that
hands :func:`load_kernel_library` a C source string on first use; it
compiles the source with the system C compiler and caches the shared
object keyed by :func:`source_key`, a hash of the source and the host
CPU.  Early versions cached the ``.so`` next to the module file, which
meant build artifacts landed inside the (git-tracked) source tree — one
even got committed.  The cache is one out-of-tree location:

1. ``$REPRO_KERNEL_CACHE`` when set (tests point it at a temp dir),
2. ``$XDG_CACHE_HOME/repro/kernels`` or ``~/.cache/repro/kernels``,
3. a per-user directory under the system temp dir as a last resort
   (e.g. read-only home directories in hardened containers).

The directory is created on first call; if nothing is writable the caller
sees the ``OSError`` and falls back to its NumPy path.

A :class:`KernelLatch` builds its library once per process, under a lock,
so that a caller arriving during the build waits for it instead of reading
"no kernels" and running the NumPy path for good.  ``REPRO_DISABLE_KERNELS``
skips every build, which is the one way to run the NumPy fallbacks.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Callable, Generic, Optional, Sequence, TypeVar

__all__ = ["KernelLatch", "kernel_cache_dir", "load_kernel_library", "source_key"]

T = TypeVar("T")


def kernel_cache_dir() -> Path:
    """The writable directory compiled kernel ``.so`` files are cached in."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        path = Path(override)
        path.mkdir(parents=True, exist_ok=True)
        return path
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    path = base / "repro" / "kernels"
    try:
        path.mkdir(parents=True, exist_ok=True)
        return path
    except OSError:
        pass
    path = Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _host_fingerprint() -> str:
    """Identify the CPU the kernel is compiled for.

    ``-march=native`` code is only valid on CPUs with the same ISA
    extensions, so the cache key must change when the cache directory moves
    to a different machine (otherwise loading the stale .so would SIGILL).
    """
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("flags"):
                    return line
    except OSError:
        pass
    import platform

    return f"{platform.machine()}-{platform.processor()}"


def source_key(c_source: str) -> str:
    """Hash of a kernel's C source + the host CPU: its ``.so`` cache key."""
    return hashlib.sha256((c_source + "\0" + _host_fingerprint()).encode()).hexdigest()[:16]


def load_kernel_library(
    stem: str, c_source: str, cflags: Sequence[str]
) -> Optional[ctypes.CDLL]:
    """Load ``_<stem>_<source_key>.so`` from the cache, compiling it first
    when absent; ``None`` when the compiler rejects the source.  Raises
    ``OSError`` when no compiler or writable cache exists — callers latch
    any failure to their NumPy fallback."""
    key = source_key(c_source)
    cache_dir = kernel_cache_dir()
    lib_path = cache_dir / f"_{stem}_{key}.so"
    if not lib_path.exists():
        compiler = os.environ.get("CC", "cc")
        with tempfile.TemporaryDirectory() as tmp:
            c_file = Path(tmp) / f"{stem}.c"
            c_file.write_text(c_source)
            # Compile straight into the cache directory (a cross-device
            # rename out of the temp dir would fail), then rename
            # atomically so concurrent builders cannot race.
            tmp_so = cache_dir / f".build-{os.getpid()}-{key}.so"
            result = subprocess.run(
                [compiler, *cflags, "-o", str(tmp_so), str(c_file)],
                capture_output=True,
                timeout=120,
            )
            if result.returncode != 0:
                return None
            os.replace(tmp_so, lib_path)
    return ctypes.CDLL(str(lib_path))


class KernelLatch(Generic[T]):
    """One kernel library per process: the first call builds it, every
    later call returns the same answer.

    ``build`` returns the library or ``None``; an exception of any kind is
    latched as ``None`` (the NumPy fallback).  ``attempted`` says whether
    the build has run, ``value`` holds its result.
    """

    def __init__(self, build: Callable[[], Optional[T]]) -> None:
        self._build = build
        self._lock = threading.Lock()
        self.attempted = False
        self.value: Optional[T] = None

    def __call__(self) -> Optional[T]:
        if self.attempted:
            return self.value
        with self._lock:
            if not self.attempted:
                if not os.environ.get("REPRO_DISABLE_KERNELS"):
                    try:
                        self.value = self._build()
                    except Exception:
                        self.value = None
                self.attempted = True
        return self.value
