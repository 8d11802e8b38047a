"""What the run cost and what it left behind, read from ``/proc``.

CPU seconds and peak resident memory are summed over a process tree (the
server and the shard workers it forks); :func:`leftovers` is the resource
ledger the smoke test holds the benchmark to.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List, Set

import benchenv

_TCP_LISTEN = "0A"


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` after the command name (which may hold spaces)."""
    text = Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2 :].split()


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parents[int(entry)] = int(_stat_fields(int(entry))[1])
            except (OSError, ValueError):
                continue  # exited while we were listing
    tree, frontier = [root], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        tree.extend(children)
        frontier.extend(children)
    return tree


def cpu_seconds(pids: List[int]) -> float:
    """CPU seconds consumed so far by ``pids``, all their threads included.

    Read from each process's CPU-time clock (the id encoding is the one
    behind ``clock_getcpuclockid(3)``): the scheduler's nanosecond
    accounting.  ``/proc/<pid>/stat`` only has whole 10 ms ticks, charged
    to whoever runs when the tick fires, which is far too coarse for a
    server that works in 1 ms bursts."""
    total = 0.0
    for pid in pids:
        try:
            total += time.clock_gettime((~pid << 3) | 2)
        except OSError:
            continue  # exited
    return total


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def leftovers() -> Dict[str, Set[str]]:
    """Everything a run could leak, as comparable sets: benchmark server
    and worker processes, POSIX shm segments, segment spill directories
    and listening TCP ports."""
    processes = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            command = Path(f"/proc/{entry}/cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if b"bench/server.py" in command:  # forked shard workers keep the command line
            processes.add(entry)
    ports = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            rows = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        ports.update(row.split()[1] for row in rows if row.split()[3] == _TCP_LISTEN)
    shm = Path("/dev/shm")
    return {
        "processes": processes,
        "shm": set(os.listdir(shm)) if shm.is_dir() else set(),
        "spill": {str(p) for p in benchenv.TEMP_DIR.glob("repro-segments-*")},
        "ports": ports,
    }
