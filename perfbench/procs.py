"""Program processes: launch with deployment settings only, read
``/proc``, and reap every one of them.

Processes run as ``python -m repro <cmd>`` (plain) or through
``perfbench/bootstrap.py`` (traced) with ``PYTHONPATH=src``, every
``REPRO_*`` variable scrubbed so telemetry export and fault injection
stay off, and each in its own session so a stray grandchild can be
killed with its group.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Optional

CLK_TCK = os.sysconf("SC_CLK_TCK")


def program_env(root: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Program:
    """One ``repro`` subprocess; ``spans`` is set in traced mode."""

    def __init__(self, root: str, role: str, args: list[str],
                 spans: Optional[str] = None) -> None:
        self.role, self.spans = role, spans
        if spans is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable,
                    os.path.join(root, "perfbench", "bootstrap.py"),
                    spans, *args]
        self.proc = subprocess.Popen(
            argv, cwd=root, env=program_env(root), text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def address(self) -> tuple[str, int]:
        """Host and port from the first stdout line ('... HOST:PORT' or
        '... http://HOST:PORT ...')."""
        line = self.proc.stdout.readline()
        for word in line.split():
            word = word.removeprefix("http://")
            host, _, port = word.rpartition(":")
            if host and port.isdigit():
                return host, int(port)
        raise RuntimeError(f"{self.role} did not report an address: "
                           f"{line!r} (exit {self.proc.poll()})")

    def vm_hwm_mb(self) -> float:
        """Peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing")

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the process so far."""
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def stop(self, sig: int = signal.SIGTERM, timeout: float = 20.0
             ) -> int:
        """Signal (unless already exited), wait, then kill the group."""
        if self.proc.poll() is None and sig:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.kill_group()
        self.proc.stdout.close()
        return self.proc.returncode

    def kill_group(self) -> None:
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def wait_healthy(conn_factory, deadline_s: float = 60.0) -> None:
    """Poll ``/healthz`` until it answers 200."""
    deadline = time.monotonic() + deadline_s
    while True:
        conn = conn_factory()
        try:
            reply, _ = conn.get("/healthz")
            if reply.status == 200:
                return
        except OSError:
            pass
        finally:
            conn.close()
        if time.monotonic() > deadline:
            raise RuntimeError("server never became healthy")
        time.sleep(0.01)
