"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload verify-dcn --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout.  The workload runs in a child
process whose ``PYTHONHASHSEED`` is derived from ``--seed``; every process
it starts (socket workers, ``repro serve``) inherits it, so one seed
gives the same inputs and the same hash order.  The last line of
standard output is the result::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, from spans recorded around
the program's layer boundaries.  The exit code is 0 only if every
operation succeeded and every verdict matched its reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-dcn", "query-clos", "serve-fattree")
# Route stores and serve spools go to TMPDIR: keep them in the checkout.
SCRATCH = ROOT / ".perfbench-tmp"
# Every run must end within this; the child is killed past it.
RUN_LIMIT_S = 170.0


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` of a run: a stable function of its seed."""
    digest = hashlib.sha256(f"perfbench:{seed}".encode()).digest()
    return str(int.from_bytes(digest[:4], "big"))


def steal_ticks() -> Optional[int]:
    """CPU steal time so far, in ticks, from ``/proc/stat`` (None if absent)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def source_id() -> Dict[str, Optional[str]]:
    """The git commit if this is a work tree, and a digest of ``src/``."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one set-up and one operation (or delta cycle): a schema check",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2

    seed_value = hash_seed(args.seed)
    scratch = SCRATCH / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed_value
    env["TMPDIR"] = str(scratch)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    steal_before = steal_ticks()
    # A session of its own, so a run past its limit is killed whole.
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    timer = threading.Timer(RUN_LIMIT_S, os.killpg, (child.pid, signal.SIGKILL))
    timer.start()
    last = None
    try:
        for line in child.stdout:
            if last is not None:
                print(last, end="", flush=True)
            last = line
        child.wait()
    finally:
        timer.cancel()
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    steal_after = steal_ticks()
    if child.returncode != 0 or last is None:
        print(f"perfbench: workload exited with {child.returncode}", file=sys.stderr)
        return child.returncode or 1
    payload = json.loads(last)
    result = payload["result"]
    stamp = dict(payload["detail"]["stamp"])
    stamp.update(
        workload=args.workload,
        seed=args.seed,
        pythonhashseed=seed_value,
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        steal_ticks=(
            steal_after - steal_before
            if steal_before is not None and steal_after is not None
            else None
        ),
        **source_id(),
    )
    payload["detail"]["stamp"] = stamp
    print("perfbench detail: " + json.dumps(payload["detail"]), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
