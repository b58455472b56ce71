"""The ``serve-fattree`` workload: a live ``repro serve`` under load.

A child process runs ``repro serve fattree --k 8`` on the socket runtime.
This process drives its line-JSON API over loopback on two connections:

* a closed-loop operator cycling through seeded deltas: announce a /24
  on an edge switch, withdraw it, take an edge-aggregation link down,
  bring it back up; every cycle ends on the base configuration;
* an open-loop reader sending ``query`` at a fixed rate, each read timed
  from when it was due, so a stall also charges the reads queued
  behind it.
"""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

from workloads import SETUPS, SHARDS, WORKERS, Outcome, Run, Stopwatch, tree_cpu_s

K = 6
EDGE_PAIRS = 324            # 18 edge switches, all pairs reachable
READ_RATE = 200.0           # reads per second
DELTA_TIMEOUT_S = 120
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_launcher.py")


class LineClient:
    """One line-JSON connection: send a request, read its response."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=DELTA_TIMEOUT_S + 30)
        self.rfile = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("serve closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class ServeProcess:
    """``repro serve`` in a child process; ready once it prints ``serving``."""

    def __init__(self, trace: bool) -> None:
        command = [
            sys.executable, LAUNCHER, "--trace", "1" if trace else "0",
            "serve", "fattree", "--k", str(K), "--workers", str(WORKERS),
            "--shards", str(SHARDS), "--runtime", "socket",
        ]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        for line in self.proc.stdout:
            if line.startswith("serving "):
                host, port = line.split(" on ", 1)[1].split()[0].rsplit(":", 1)
                self.address = (host, int(port))
                return
        self.proc.wait()
        raise RuntimeError(f"serve exited with {self.proc.returncode} before serving")

    def stop(self) -> None:
        try:
            client = LineClient(self.address)
            client.call({"op": "stop"})
            client.close()
            self.proc.wait(timeout=60)
        except (OSError, ConnectionError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


class OpenLoopReader:
    """Sends reads on a fixed schedule; never waits for a response."""

    def __init__(self, address, pairs: List[Tuple[str, str]], rate: float) -> None:
        self.client = LineClient(address)
        self.pairs = pairs
        self.rate = rate
        self.due: List[float] = []
        self.late_ms: List[float] = []
        self.latency_ms: List[float] = []
        self.failures: List[str] = []
        self._stop = threading.Event()
        self._sender = threading.Thread(target=self._send, name="reader-send")
        self._receiver = threading.Thread(target=self._receive, name="reader-recv")

    def start(self) -> None:
        self._start = time.perf_counter()
        self._receiver.start()
        self._sender.start()

    def _send(self) -> None:
        index = 0
        while not self._stop.is_set():
            due = self._start + index / self.rate
            pause = due - time.perf_counter()
            if pause > 0 and self._stop.wait(pause):
                break
            src, dst = self.pairs[index % len(self.pairs)]
            self.due.append(due)
            self.client.sock.sendall(
                (json.dumps({"op": "query", "src": src, "dst": dst}) + "\n").encode()
            )
            self.late_ms.append(1000.0 * (time.perf_counter() - due))
            index += 1

    def _receive(self) -> None:
        index = 0
        for line in self.client.rfile:
            received = time.perf_counter()
            self.latency_ms.append(1000.0 * (received - self.due[index]))
            response = json.loads(line)
            if not (response.get("ok") and response.get("holds") is True):
                self.failures.append(f"read {index}: {response}")
            index += 1
            if self._stop.is_set() and index == len(self.due):
                return

    def stop(self) -> None:
        self._stop.set()
        self._sender.join()
        if len(self.latency_ms) == len(self.due):
            self.client.sock.shutdown(socket.SHUT_RD)
        self._receiver.join(timeout=DELTA_TIMEOUT_S)
        self.client.close()


def _delta_cycle(rng: random.Random, texts, edges, links) -> List[Tuple[str, Dict[str, Any]]]:
    """Announce, withdraw, link down, link up: (expected kind, request)."""
    host = rng.choice(edges)
    dialect, text = texts[host]
    lines = text.splitlines()
    last = max(i for i, line in enumerate(lines) if line.strip().startswith("network "))
    announced = lines[: last + 1]
    announced.append(f" network 198.18.{rng.randrange(256)}.0 mask 255.255.255.0")
    announced.extend(lines[last + 1 :])
    a, b = rng.choice(links)

    def config(body: str) -> Dict[str, Any]:
        return {"op": "delta", "kind": "config", "hostname": host, "text": body,
                "dialect": dialect, "timeout": DELTA_TIMEOUT_S}

    def link(state: str) -> Dict[str, Any]:
        return {"op": "delta", "kind": "link", "a": a, "b": b, "state": state,
                "timeout": DELTA_TIMEOUT_S}

    return [
        ("announce", config("\n".join(announced))),
        ("announce", config(text)),
        ("full", link("down")),
        ("full", link("up")),
    ]


def serve_fattree(run: Run) -> Outcome:
    from repro.dist.controller import S2Options
    from repro.net.fattree import FatTreeSpec, build_fattree, render_configs

    out = Outcome(stamp={"runtime": "socket", "workers": WORKERS, "shards": SHARDS,
                         "bdd_kernel": S2Options().bdd_kernel}, in_process=False)
    texts = render_configs(FatTreeSpec(k=K))
    topology = build_fattree(K).topology
    edges = sorted(n.name for n in topology.nodes() if n.role == "edge")
    links = sorted(
        (link.a.node, link.b.node)
        for link in topology.links()
        if {topology.node(link.a.node).role, topology.node(link.b.node).role}
        == {"edge", "agg"}
    )
    rng = random.Random(run.seed)
    pairs = [tuple(rng.sample(edges, 2)) for _ in range(512)]

    server = None
    for _ in range(1 if run.smoke else SETUPS):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        server = ServeProcess(run.trace)
        # The serving process and its workers are new: all their CPU so far.
        out.set_up(run, time.perf_counter() - started, tree_cpu_s(server.proc.pid))
    by_kind: Dict[str, List[float]] = {"announce": [], "full": []}
    reuse: Dict[str, List[int]] = {"announce": [0, 0], "full": [0, 0]}
    try:
        operator = LineClient(server.address)
        reader = OpenLoopReader(server.address, pairs, READ_RATE)
        reader.start()
        try:
            deadline = run.deadline()
            index = 0
            while True:
                for kind, request in _delta_cycle(rng, texts, edges, links):
                    if run.trace:
                        operator.call({"op": "perfbench.trace", "enabled": run.traced(index)})
                    with Stopwatch(lambda: tree_cpu_s(server.proc.pid)) as watch:
                        response = operator.call(request)
                    out.timed(run, index, watch)
                    by_kind[kind].append(1000.0 * watch.wall)
                    index += 1
                    if not response.get("ok"):
                        out.failures.append(f"delta {index} ({kind}): {response}")
                        continue
                    if (response["kind"], response["reachable_pairs"]) != (kind, EDGE_PAIRS):
                        out.failures.append(
                            f"delta {index}: {response['kind']} with "
                            f"{response['reachable_pairs']} pairs; want {kind}, {EDGE_PAIRS}"
                        )
                    reuse[kind][0] += response["shards_reused"]
                    reuse[kind][1] += response["shards_recomputed"]
                    if not run.smoke and time.perf_counter() >= deadline:
                        break
                if run.smoke or time.perf_counter() >= deadline:
                    break
        finally:
            reader.stop()
        if run.trace:
            operator.call({"op": "perfbench.trace", "enabled": False})
            out.trace = operator.call({"op": "perfbench.spans"})["trace"]
        operator.close()
    finally:
        server.stop()
    out.failures.extend(reader.failures)
    out.other_ops = len(reader.due)
    for kind, (reused, recomputed) in reuse.items():
        total = reused + recomputed
        out.extra[f"{kind}_reuse_ratio"] = reused / total if total else 0.0
        out.extra[f"{kind}_shards"] = f"{reused} reused / {recomputed} recomputed"
    out.samples.update({f"{kind}_ms": values for kind, values in by_kind.items()})
    out.samples["read_ms"] = reader.latency_ms
    out.samples["late_ms"] = reader.late_ms
    return out
