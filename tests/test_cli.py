"""Tests for the command-line interface."""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "exp99"])

    def test_unknown_scale_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "exp1", "--scale", "galactic"])

    def test_experiment_index_flags(self):
        parser = build_parser()
        arguments = parser.parse_args(
            ["experiment", "exp1", "--index", "ivf", "--n-cells", "32", "--n-probe", "4"]
        )
        assert arguments.index == "ivf"
        assert arguments.n_cells == 32
        assert arguments.n_probe == 4
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "exp1", "--index", "quantum"])


class TestInfo:
    def test_info_lists_scales_and_experiments(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "smoke" in output and "ci" in output and "paper" in output
        for experiment_id in ("exp1", "exp2", "exp3", "exp4", "exp5", "table3"):
            assert experiment_id in output


class TestTable3Command:
    def test_catalogue_only(self, capsys):
        assert main(["table3", "--no-measure"]) == 0
        output = capsys.readouterr().out
        assert "Adaptive Fingerprinting" in output
        assert "Deep Fingerprinting" in output


class TestExperimentCommand:
    def test_exp1_smoke_runs_and_writes_output(self, capsys, tmp_path):
        assert main(["experiment", "exp1", "--scale", "smoke", "--output-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "Figure 6" in output
        assert (tmp_path / "exp1.txt").exists()
        assert "Figure 6" in (tmp_path / "exp1.txt").read_text()


def _serve(*flags):
    """``python -m repro serve`` on a small corpus in a child process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--references", "240",
         "--classes", "12", "--dim", "8", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def _children(pid):
    """Live child processes of ``pid`` (zombies excluded), from /proc."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        state, ppid = stat[stat.rindex(")") + 2 :].split()[:2]
        if int(ppid) == pid and state != "Z":
            found.append(int(entry))
    return found


def _alive(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


class TestServeCommand:
    def _stop_after_banner(self, server, signum):
        """Wait for the banner, note the server's children, send ``signum``;
        returns ``(banner, children, out, err)``."""
        watchdog = threading.Timer(60, server.kill)  # a hung start-up fails, not blocks
        watchdog.start()
        try:
            banner = server.stdout.readline()
            assert banner.startswith("serving 240 references / 12 classes on 127.0.0.1:"), (
                banner + server.stderr.read() if not banner else banner
            )
            children = _children(server.pid)
            server.send_signal(signum)
            out, err = server.communicate(timeout=60)
        finally:
            watchdog.cancel()
            if server.poll() is None:
                server.kill()
                server.communicate()
        return banner, children, out, err

    def test_serve_starts_prints_its_banner_and_stops_on_interrupt(self):
        # The whole `repro serve` start-up path, banner included, runs in a
        # child process; Ctrl-C (SIGINT) is the documented way to stop it.
        server = _serve("--port", "0")
        _, _, out, err = self._stop_after_banner(server, signal.SIGINT)
        assert server.returncode == 0, err
        assert "stopping" in out

    def test_sigterm_stops_the_server_and_its_shard_workers(self):
        server = _serve("--port", "0", "--executor", "process")
        banner, children, out, err = self._stop_after_banner(server, signal.SIGTERM)
        assert "SIGTERM" in banner
        assert server.returncode == 0, err
        assert "stopping" in out
        assert len(children) >= 2, children  # the two shard workers, at least
        deadline = time.monotonic() + 10  # the resource tracker exits on its own
        while any(map(_alive, children)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in children if _alive(pid)], "a child of the server survived it"

    def test_busy_port_exits_with_one_line_error(self):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            server = _serve("--port", str(port), "--executor", "process")
            try:
                out, err = server.communicate(timeout=30)
            finally:
                if server.poll() is None:
                    server.kill()
                    server.communicate()
        assert server.returncode not in (0, None)
        assert out == ""
        assert err.startswith("repro serve: ") and err.count("\n") == 1, err
