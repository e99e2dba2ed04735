#!/usr/bin/env python3
"""Campaign-query benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 querybench/run.py --workload joint-yelp --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` next to this directory; no build
or install step is needed. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced pass (see
README.md). The last line of standard output is the JSON result; the
lines before it are a human-readable summary.

The workload runs in a child process in a session of its own; this
process waits for it and then for every process it left behind (see
:func:`supervise`), so nothing the run started outlives the run.
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
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

WORKLOADS = ("joint-yelp", "seeds-twitter", "serve-mixed")

BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"

#: First argument of the child process that runs the workload.
CHILD_FLAG = "--in-child"
#: Seconds the run's leftover processes get to end on their own after
#: the workload process exits, before they are killed.
DRAIN_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36


def _units(trace: bool) -> dict:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it ends.

    Shared-memory segments (the fleet's graph, the bit-parallel
    engine's arrays) start a tracker process that would otherwise
    outlive this one for a moment after exit. Call it only once every
    segment is released.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _terminate(signum, frame):
    # Unwind through the workloads' ``finally`` blocks, which close the
    # fleet and wait for its worker processes.
    raise SystemExit(128 + signum)


def _run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "serve-mixed":
        import serve_mixed

        return serve_mixed.run(seed, seconds, trace)
    import direct

    if workload == "joint-yelp":
        from joint_yelp import WORKLOAD
    else:
        from seeds_twitter import WORKLOAD
    return direct.run(WORKLOAD, seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found at {SRC}", file=sys.stderr)
        return 2
    units = _units(bool(args.trace))

    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()
    outcomes, metrics = result["outcomes"], result["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"workload did not measure {missing}", file=sys.stderr)
        return 3
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {result['info']}")
    for note in outcomes.notes[:20]:
        print(f"  {note}")
    for name in units:
        print(f"  {name:36s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0


def _become_subreaper() -> None:
    """Adopt the run's orphans: a process whose parent exits is
    re-parented to this one (Linux), so it can be waited for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # elsewhere the process-group kill below still applies


def _kill_leftovers(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass
    me = str(os.getpid())
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                parent = fh.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue
        if parent == me:  # adopted, but outside the group
            try:
                os.kill(int(entry), signal.SIGKILL)
            except ProcessLookupError:
                pass


def _drain(group: int) -> None:
    """Wait until every process the run started has ended: reap the
    adopted orphans as they exit, and kill what is left after
    :data:`DRAIN_GRACE_S`."""
    deadline = time.monotonic() + DRAIN_GRACE_S
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break  # no child left, adopted or not
        if pid:
            continue
        if not killed and time.monotonic() > deadline:
            _kill_leftovers(group)
            killed = True
        time.sleep(0.02)
    try:  # without a subreaper, orphans stay in the run's group
        os.killpg(group, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def supervise(command) -> int:
    """Run ``command`` in a child process and return its exit code once
    the child and every process it started have ended.

    The child leads a new session, so its fleet workers and
    multiprocessing helpers share its process group; SIGTERM and SIGINT
    are passed on to that group.
    """
    _become_subreaper()
    child = subprocess.Popen(command, start_new_session=True)

    def forward(signum, frame):
        try:
            os.killpg(child.pid, signum)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    code = child.wait()
    _drain(child.pid)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == [CHILD_FLAG]:
        sys.exit(main(sys.argv[2:]))
    sys.exit(supervise([sys.executable, str(Path(__file__).resolve()),
                        CHILD_FLAG, *sys.argv[1:]]))
