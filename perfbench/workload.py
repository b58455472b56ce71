"""Runs one workload in this process and prints its result.

Started by ``run.py`` with the run's ``PYTHONHASHSEED`` and ``src`` on the
path; prints human-readable summary lines, then one JSON line holding
the ``result`` (the benchmark's output contract) and the ``detail``
(sample counts, tails and the env stamp fields known here).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from typing import Any, Dict

from layers import PER_LAYER, layer_metrics
from stats import fmt, summarize
from tracing import Recorder, install


def _workloads():
    from serve_load import serve_fattree
    from workloads import query_clos, verify_dcn

    return {
        "verify-dcn": verify_dcn,
        "query-clos": query_clos,
        "serve-fattree": serve_fattree,
    }


def peak_rss_mb(in_process: bool) -> float:
    """Largest peak RSS of any process of the system under test.

    Every child has been waited for by now, so ``RUSAGE_CHILDREN`` covers
    workers and ``repro serve``; this process counts when it hosted the
    controller itself.
    """
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if in_process:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024.0


def _end_to_end(out, factor: float) -> Dict[str, Dict[str, Any]]:
    """CPU times at reference host speed (see ``speed.py``): each set-up
    by the probes on either side of it, operations by the run's factor
    (raw where the workload says its operations are not normalised)."""
    setups = [cpu / f for cpu, f in zip(out.setup_cpu_s, out.setup_factor)]
    op_factor = factor if out.normalise_ops else 1.0
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_cpu_ms": {"value": statistics.median(out.op_cpu_ms) / op_factor, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(out.in_process), "unit": "MB"},
    }


def _per_layer(name: str, out) -> Dict[str, Dict[str, Any]]:
    metrics, rounds = layer_metrics(out.trace)
    samples = out.samples
    if name == "serve-fattree":
        for kind in ("announce", "full"):
            if samples[f"{kind}_ms"]:
                metrics[f"serve.{kind}_p50_s"] = (
                    statistics.median(samples[f"{kind}_ms"]) / 1000.0
                )
            metrics[f"serve.{kind}_reuse_ratio"] = out.extra[f"{kind}_reuse_ratio"]
        reads = summarize(samples["read_ms"])
        metrics["serve.read_p50_ms"] = reads.get("p50", 0.0)
        metrics["serve.read_tail_ms"] = reads.get("tail", 0.0)
        metrics["gen.late_tail_ms"] = summarize(samples["late_ms"]).get("tail", 0.0)
    wall = summarize(out.op_ms)
    metrics["wall.p50_ms"] = wall["p50"]
    metrics["wall.tail_ms"] = wall.get("tail", 0.0)
    if out.traced_ms and out.untraced_ms:
        untraced = statistics.median(out.untraced_ms)
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(out.traced_ms) - untraced) / untraced
        )
    _print_rounds(rounds)
    for key, value in sorted(metrics.items()):
        print(f"  {key:28s} {value:.6g}")
    return {key: {"value": metrics[key], "unit": unit} for key, unit in PER_LAYER}


def _print_rounds(rounds) -> None:
    """Per BGP round: the slowest worker of each phase and the others' wait."""
    if not rounds:
        return
    print("  bgp rounds: shard.round  exports: slowest(s) waits | pull: slowest(s) waits")
    for r in rounds:
        cells = []
        for phase in ("exports", "pull"):
            p = r[phase]
            waits = " ".join(f"w{w}={t * 1000:.1f}ms" for w, t in sorted(p["waits"].items()))
            cells.append(f"w{p['slowest']} {p['slowest_s']:.4f}s [{waits}]")
        print(f"    {r['shard']}.{r['round']}  {cells[0]} | {cells[1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from workloads import Run

    recorder = Recorder(f"{args.workload}-{args.seed}")
    recorder.enabled = False
    if args.trace and args.workload != "serve-fattree":
        install(recorder)
    run = Run(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        recorder=recorder,
    )
    run.probe.sample()
    out = _workloads()[args.workload](run)
    run.probe.sample()
    factor = run.probe.factor()
    recorder.enabled = False
    if args.trace and out.trace is None:
        out.trace = recorder.export()

    out.samples["op_cpu_ms"] = out.op_cpu_ms
    print(f"{args.workload}: set-up wall {fmt(summarize(out.setup_wall_s), 's')}")
    print(f"  set-up cpu   {fmt(summarize(out.setup_cpu_s), 's')}")
    for stream, values in sorted(out.samples.items()):
        print(f"  {stream:12s} {fmt(summarize(values), 'ms')}")
    for key, value in sorted(out.extra.items()):
        print(f"  {key:12s} {value}")
    for failure in out.failures[:20]:
        print(f"  FAILED: {failure}")
    print(f"  host speed factor {factor:.3f} ({len(run.probe.samples)} probes)")
    metrics = _per_layer(args.workload, out) if args.trace else _end_to_end(out, factor)
    failed = len(out.failures)
    detail = {
        "stamp": out.stamp,
        "error_rate": failed / max(1, out.attempted),
        "samples": {k: summarize(v) for k, v in out.samples.items()},
        "setup_wall_s": summarize(out.setup_wall_s),
        "setup_cpu_s": summarize(out.setup_cpu_s),
        "speed_factor": factor,
        "probe_s": summarize(run.probe.samples),
    }
    result = {
        "correct": failed == 0,
        "attempted": max(1, out.attempted),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps({"detail": detail, "result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
