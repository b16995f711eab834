"""Child processes: spawn each in its own session, watch its memory, reap it.

Every process the benchmark starts leads a new session, so the whole
tree under it -- forkserver, pool workers, a serve gateway's lease
workers -- can be found by session id in ``/proc``, sampled for peak
memory, and waited for (or killed) as one unit.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    return raw[raw.rfind(")") + 2:].split()


def session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is the state, fields[3] the session id
        if fields and fields[3] == str(sid) and fields[0] not in ("Z", "X"):
            members.append(int(entry))
    return members


def vm_hwm_kib(pid: int) -> int:
    """The process's peak resident set (VmHWM) in KiB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


class HwmSampler:
    """Track the largest VmHWM of any process in one session.

    ``RUSAGE_CHILDREN`` only counts children that have exited and been
    waited for, and pool workers are children of the runtime's
    forkserver, which outlives them; so this polls ``/proc`` instead.
    VmHWM only grows during a process's life, so a poll misses at most
    what a process gained after the last poll before it exited.
    """

    def __init__(self, sid: int, interval: float = 0.05) -> None:
        self.sid = sid
        self.interval = interval
        self.peak_kib = 0
        self._known: dict[int, bool] = {}     # pid -> member of session
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "HwmSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sample()

    def sample(self) -> None:
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            pid = int(entry)
            member = self._known.get(pid)
            if member is None:
                fields = _stat_fields(pid)
                member = bool(fields) and fields[3] == str(self.sid)
                self._known[pid] = member
            if member:
                self.peak_kib = max(self.peak_kib, vm_hwm_kib(pid))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()


class Sessions:
    """Processes this benchmark started; :meth:`close` ends them all."""

    def __init__(self) -> None:
        self._live: dict[int, subprocess.Popen] = {}

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
        self._live[proc.pid] = proc
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float = 60.0) -> int:
        """Wait for ``proc`` and every process of its session to end.

        Whatever is still running after ``timeout`` is killed.  Returns
        the leader's exit status.
        """
        deadline = time.monotonic() + timeout
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        while session_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        if proc.poll() is None or session_members(proc.pid):
            self.kill(proc)
        self._live.pop(proc.pid, None)
        return proc.returncode

    def kill(self, proc: subprocess.Popen) -> None:
        """SIGKILL ``proc``'s whole session and wait for it to end."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        for pid in session_members(proc.pid):   # any that left the group
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 10.0
        while session_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)

    def close(self) -> None:
        for proc in list(self._live.values()):
            self.kill(proc)
            self._live.pop(proc.pid, None)
