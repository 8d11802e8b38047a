"""Compile-and-cache for native kernels, in a directory *outside* the tree.

Both kernel modules (:mod:`repro.nn.kernels` and :mod:`repro.core.kernels`)
hand :func:`load_kernel_library` a C source string on first use; it
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
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["kernel_cache_dir", "load_kernel_library", "source_key"]


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
