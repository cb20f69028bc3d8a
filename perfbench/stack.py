"""Processes of the system under test: start, stop, measure, check for leaks.

Replicas run as ``python -m repro serve`` subprocesses and the router as
``python -m repro route``, exactly as an operator starts them; the
benchmark only parses their banners for the bound port.
"""

from __future__ import annotations

import hashlib
import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_SERVE_BANNER = re.compile(r"^serving .* on ([\d.]+):(\d+)")
_ROUTE_BANNER = re.compile(r"^routing on ([\d.]+):(\d+)")


class Proc:
    """One child process whose banner announced ``host:port``."""

    def __init__(self, cmd: list[str], banner: re.Pattern,
                 timeout: float = 120.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=str(ROOT),
        )
        self.pid = self.proc.pid
        self.lines: list[str] = []
        self.host, self.port = self._await_banner(banner, timeout)
        # Keep draining stdout so a chatty child never blocks on a pipe.
        self._drain = threading.Thread(target=self._drain_out, daemon=True)
        self._drain.start()

    def _await_banner(self, banner: re.Pattern, timeout: float):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.lines.append(line.rstrip())
            match = banner.match(line)
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError(
            f"{' '.join(self.proc.args[:4])} did not start: "
            + " | ".join(self.lines[-5:])
        )

    def _drain_out(self) -> None:
        for line in self.proc.stdout:
            if len(self.lines) < 200:
                self.lines.append(line.rstrip())

    def peak_rss_kb(self) -> int:
        return peak_rss_kb(self.pid)

    def stop(self, timeout: float = 20.0) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def repro_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def serve(*args: str) -> Proc:
    return Proc(repro_cmd("serve", *args, "--host", "127.0.0.1",
                          "--port", "0"), _SERVE_BANNER)


def route(replicas: list[Proc]) -> Proc:
    attach = ",".join(f"{p.host}:{p.port}" for p in replicas)
    return Proc(repro_cmd("route", "--attach", attach, "--host", "127.0.0.1",
                          "--port", "0"), _ROUTE_BANNER)


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def leaked_segments(pids) -> list[str]:
    """``repro-<pid>-*`` shared-memory segments still present for ``pids``."""
    prefixes = tuple(f"repro-{int(p)}-" for p in pids)
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(n for n in names if n.startswith(prefixes))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_sha() -> str:
    """Content hash of the program's sources (stable outside git too)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workload: str, seed: int, instance: dict) -> dict:
    """The header every run prints before its result."""
    from repro.utils import native

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "git_sha": _git_sha(),
        "src_sha": _src_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # The customize kernel silently falls back to NumPy (~3.4x
        # slower) on a host without a C compiler; say which ran.
        "native_kernel": native.native_available(),
        **instance,
    }
