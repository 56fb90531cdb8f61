"""Child processes: hermetic environment, exact wall time, CPU and peak RSS.

Every op is one ``repro-ser`` process.  Its wall time runs from just
before the fork to the moment ``wait4`` returns; ``wait4`` also yields
the CPU and peak RSS of the process and of every descendant it reaped
(its worker pools).  The daemon lives across ops, so its CPU and peak
RSS are read from ``/proc`` for its whole process tree.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import socket
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Variables that switch the program's execution plane; never inherited.
SCRUBBED_PREFIX = "REPRO_"

_PR_SET_CHILD_SUBREAPER = 36
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env(root: str) -> Dict[str, str]:
    """The environment every child runs in: no ``REPRO_*`` knobs, our ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(SCRUBBED_PREFIX)}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def become_subreaper():
    """Adopt orphaned descendants, so that none outlives the run."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


@dataclass
class Done:
    """A finished child process."""

    rc: int
    t0: float
    t1: float
    cpu_s: float
    maxrss_mb: float
    out_path: str
    err_path: str

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    def stdout(self) -> str:
        with open(self.out_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()

    def stderr_tail(self) -> str:
        return _tail(self.err_path)


def _tail(path: str, lines: int = 5) -> str:
    """The last lines of a child's log, on one line."""
    with open(path, encoding="utf-8", errors="replace") as handle:
        return " | ".join(handle.read().strip().splitlines()[-lines:])


def _finish(status: int, usage) -> tuple:
    cpu = usage.ru_utime + usage.ru_stime
    return os.waitstatus_to_exitcode(status), cpu, usage.ru_maxrss / 1024.0


def run(argv: List[str], cwd: str, env: Dict[str, str], log_prefix: str, timeout_s: float) -> Done:
    """Run one child to completion; it is killed if it outlives ``timeout_s``."""
    out_path, err_path = log_prefix + ".out", log_prefix + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(timeout_s, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode, cpu, rss = _finish(status, usage)
    return Done(proc.returncode, t0, t1, cpu, rss, out_path, err_path)


def _kill(pid: int):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _proc_table() -> Dict[int, int]:
    """pid -> parent pid of every process visible in ``/proc``."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table[int(entry)] = int(fields[1])
    return table


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it."""
    table = _proc_table()
    found, frontier = [pid], [pid]
    while frontier:
        parent = frontier.pop()
        kids = [child for child, ppid in table.items() if ppid == parent]
        found.extend(kids)
        frontier.extend(kids)
    return found


def tree_usage(pid: int) -> tuple:
    """(CPU seconds, peak RSS MiB) of a live process tree.

    CPU counts each process's own time and that of the children it
    reaped, so workers that exit between two readings stay counted.
    """
    cpu, peak = 0.0, 0.0
    for member in descendants(pid):
        try:
            with open(f"/proc/{member}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{member}/status") as handle:
                status = handle.read()
        except OSError:
            continue
        cpu += sum(int(value) for value in fields[11:15]) / _CLK_TCK
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]) / 1024.0)
    return cpu, peak


class Daemon:
    """A ``repro-ser serve`` child that is always shut down and reaped."""

    def __init__(self, argv: List[str], cwd: str, env: Dict[str, str], log_prefix: str, socket_name: str):
        self.socket_path = os.path.join(cwd, socket_name)
        self.t0 = time.monotonic()
        with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
            self.proc = subprocess.Popen(
                argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
        self.err_path = log_prefix + ".err"
        self.rc: Optional[int] = None
        self.cpu_s = 0.0
        self.maxrss_mb = 0.0

    def stderr_tail(self) -> str:
        return _tail(self.err_path)

    def wait_ready(self, timeout_s: float):
        """Block until the daemon's socket exists; raise if it died or timed out."""
        deadline = time.monotonic() + timeout_s
        while not os.path.exists(self.socket_path):
            if self._reap(os.WNOHANG):
                raise RuntimeError(f"daemon exited with {self.rc} before listening")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not listen in time")
            time.sleep(0.005)

    def _reap(self, flags: int) -> bool:
        if self.rc is not None:
            return True
        pid, status, usage = os.wait4(self.proc.pid, flags)
        if pid == 0:
            return False
        self.rc, self.cpu_s, self.maxrss_mb = _finish(status, usage)
        self.proc.returncode = self.rc
        return True

    def stop(self, timeout_s: float = 30.0) -> bool:
        """Shutdown op, then SIGKILL on timeout; unlink the socket.  True if clean."""
        clean = False
        if self.rc is None:
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                    sock.settimeout(5.0)
                    sock.connect(os.path.relpath(self.socket_path))
                    sock.sendall(json.dumps({"op": "shutdown", "id": 1}).encode() + b"\n")
                    sock.recv(4096)
            except OSError:
                pass
            deadline = time.monotonic() + timeout_s
            while not self._reap(os.WNOHANG) and time.monotonic() < deadline:
                time.sleep(0.01)
            clean = self.rc == 0
        if self.rc is None:
            for member in reversed(descendants(self.proc.pid)):
                _kill(member)
            self._reap(0)
            clean = False
        try:
            os.unlink(self.socket_path)
        except FileNotFoundError:
            pass
        return clean


def reap_orphans(grace_s: float = 5.0):
    """Wait for adopted orphans to exit, kill those that do not, reap all."""
    deadline = time.monotonic() + grace_s
    while True:
        kids = [pid for pid, ppid in _proc_table().items() if ppid == os.getpid()]
        for pid in kids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        kids = [pid for pid, ppid in _proc_table().items() if ppid == os.getpid()]
        if not kids:
            return
        if time.monotonic() > deadline:
            for pid in kids:
                _kill(pid)
            for pid in kids:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            return
        time.sleep(0.05)
