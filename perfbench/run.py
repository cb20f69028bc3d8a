"""Whole-stack PHAST benchmark: one workload, one seed, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-depot --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced pass instead and reports the per-layer metrics.  The environment
header and run details go to standard output first; the last line is
``{"correct", "attempted", "failed", "metrics"}``.  The program is imported
from ``src/`` of the same checkout, so the command fails (non-zero, no
result) where only the benchmark's own files are present.

The process started by the command only supervises: it runs the
measurement in a child, and on Linux it is a child subreaper, so every
process the measurement leaves behind (multiprocessing's resource
tracker, a server's pool workers, a router) is re-parented to it, then
stopped and waited for before it exits.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set in the measuring child's environment by the supervisor.
_CHILD_ENV = "PERFBENCH_MEASURE"
_PR_SET_CHILD_SUBREAPER = 36
#: Leftover processes get this long to exit on their own (a resource
#: tracker exits as soon as its pipe closes), then SIGTERM, then SIGKILL.
_GRACE_S = (5.0, 10.0, 10.0)


def _prepare_paths() -> None:
    # Temporary files of the program (the native kernel build) stay in
    # the checkout; tempfile reads TMPDIR on first use.
    tmp = HERE / ".work" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))


def _children() -> list[int]:
    """Pids whose parent is this process (from ``/proc``)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def _reap_all() -> None:
    """Wait until this process has no children left, escalating signals."""
    for sig, grace in zip((None, signal.SIGTERM, signal.SIGKILL), _GRACE_S):
        for pid in _children() if sig is not None else ():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                time.sleep(0.02)


def supervise(argv: list[str]) -> int:
    """Run the measurement in a child; stop and reap all it leaves behind."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: only direct children can be reaped
    env = dict(os.environ, **{_CHILD_ENV: "1"})
    child = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                              *argv], env=env)

    def forward(signum, _frame):
        if child.poll() is None:
            child.send_signal(signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, forward)
    try:
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        _reap_all()
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no src/repro next to the benchmark", file=sys.stderr)
        return 2
    if os.environ.get(_CHILD_ENV) != "1":
        return supervise(argv)
    _prepare_paths()

    import stack
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(workloads.WORKLOADS)}")
    if args.trace:
        import tracing

        out, instance = tracing.run(args.workload, args.seed, args.seconds)
    else:
        out, instance = workloads.RUNNERS[args.workload](args.seed,
                                                         args.seconds)
    header = stack.environment(args.workload, args.seed, instance)
    print("# environment " + json.dumps(header, sort_keys=True))
    print("# detail " + json.dumps(out.detail, sort_keys=True, default=str))
    if out.leaks:
        print("# leaked shared memory: " + ", ".join(out.leaks))
    print(f"# checked {out.checked} answers, {out.wrong} wrong")
    for name, m in sorted(out.metrics.items()):
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": int(max(out.attempted, 1)),
        "failed": int(out.failed + out.wrong),
        "metrics": out.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
