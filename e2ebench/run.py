"""End-to-end benchmark of the `repro serve` daemon, with a per-layer view.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload sync-inline --seed 1 --seconds 24
    python3 e2ebench/run.py --workload all --seed 1 --seconds 24 --trace 1

The benchmark spawns the real daemon (``python -m repro serve``, plus a
``repro shard-worker`` for the socket lane) from ``src/`` and drives one
cohort over one persistent HTTP/1.1 keep-alive connection in a closed
loop: the next op is sent when the previous reply has arrived.  Inputs
are made from ``--seed`` and serialized before timing; every reply is
checked (see ``workloads.py``).  Geometry: N=16, d=32768, T=D=2, mask
pool 8 with low water 2, background refill.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice — once plain, once with the daemon started by the traced
launcher (``launcher.py``) — and prints the per-layer metrics and a
table of each layer's self time and call count.  Either way the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the human-readable report and the run's provenance.

End-to-end metrics (per workload):

* ``op_latency_p50_ms`` / ``op_latency_p90_ms`` — client-measured time
  of each timed op (a round POST or an update POST).  A timed phase runs
  ``--seconds`` and at least ``MIN_TIMED_OPS`` ops, so that at least ten
  samples lie beyond p90, and ends on a whole refill (sync) or drain
  (buffered) cycle.
* ``ops_per_s`` — completed ops per second of timed wall time, taken
  per refill cycle (sync: 6 rounds; buffered: 6 drains of 8 submits,
  so each cycle carries the same work) and averaged over the middle half
  of the cycles, so that a burst of load from elsewhere on the shared
  host moves the cycles it hits, not the run's figure.
* ``drain_latency_p50_ms`` — latency of the ops that carry an
  aggregation: the sealing submissions on ``buffered-submit``; on the
  sync workloads every round aggregates, so it is the op median.
* ``setup_s`` — median over ``SETUP_REPEATS`` deployments of the time
  from spawning the programs until ``POST /cohorts`` returns 201 (cohort
  creation encodes the mask pools inline).
* ``server_cpu_ms_per_op`` — user+sys CPU of the daemon and its worker
  processes over the timed phase, per op, from ``/proc``.
* ``server_peak_rss_mb`` — VmHWM summed over those processes.

``failed_op_fraction`` (failed / attempted ops) is printed in the report
and carried by the result's ``attempted`` and ``failed`` fields; it is
0 on a correct program, so it is not a tracked metric.  A run is
``correct`` only if no op failed, every daemon drained and exited 0
without leaving a child process or a ``repro-shm-*`` segment behind, and
(traced) the lanes that bypass the wire show no wire, transport or
worker work.

The smoke test (``test_smoke.py``) uses the hidden ``--tiny``,
``--max-ops`` and ``--corrupt-expected`` options.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from http.client import HTTPException
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import REDUCER_ENV, ROOT, SRC, Deployment, counter_deltas
from layers import (
    CALL_METRICS,
    SPAN_TIME_METRICS,
    layer_table,
    per_layer_metrics,
)
from workloads import GEOMETRY, TINY_GEOMETRY, WORKLOADS

SETUP_REPEATS = 3
MIN_TIMED_OPS = 100
#: A timed phase never runs longer than this, whatever MIN_TIMED_OPS says.
MAX_TIMED_S = 90.0

END_TO_END_UNITS = {
    "op_latency_p50_ms": "ms",
    "op_latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "drain_latency_p50_ms": "ms",
    "setup_s": "s",
    "server_cpu_ms_per_op": "ms",
    "server_peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    units = {m: "ms" for m in SPAN_TIME_METRICS}
    units.update({m: "1/op" for m in CALL_METRICS})
    units.update({
        "api.outside_dispatch_ms": "ms",
        "session.refills": "count",
        "worker.shard_compute_ms": "ms",
        "worker.queue_wait_ms": "ms",
        "transport.bytes_sent_per_op": "B/op",
        "transport.bytes_received_per_op": "B/op",
        "service.pool_misses": "count",
        "service.background_refills": "count",
        "service.drains": "count",
        "transport.reconnects": "count",
        "trace.unattributed_ms": "ms",
        "obs.tracing_overhead_ms": "ms",
    })
    return units


# ----------------------------------------------------------------------
# one timed phase
# ----------------------------------------------------------------------
class Phase:
    """What one deployment's op loop produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ops: List[int] = []
        self.latencies: List[float] = []  # timed ops, seconds
        self.stamps: List[float] = []  # t0, then each timed op's end
        self.aggregating: List[float] = []  # timed ops carrying a drain
        self.t0 = self.t1 = 0.0
        self.cpu_s = 0.0
        self.peak_rss = 0
        self.counters: Dict[str, float] = {}
        self.worker: Dict[str, List[float]] = {}
        self.errors: List[str] = []

    @property
    def n(self) -> int:
        return len(self.latencies)


def drive(dep, wl, seconds: float, min_ops: int, max_ops: Optional[int],
          worker_traces: bool) -> Phase:
    """Warm up, then run the timed closed loop on ``dep``'s connection."""
    phase = Phase()
    wl.start(dep.cohort_id)

    def op(k: int) -> float:
        """Send op ``k``, check its reply; returns its latency."""
        path, body = wl.request(k)
        start = time.perf_counter()
        try:
            status, raw = dep.client.request("POST", path, body)
        except (OSError, HTTPException):
            status, raw = 0, b""
        elapsed = time.perf_counter() - start
        try:
            ok = wl.check(k, status, raw)
        except (ValueError, KeyError, TypeError):
            ok = False
        phase.attempted += 1
        if not ok:
            phase.failed_ops.append(k)
        return elapsed

    for k in range(wl.warmup_ops):
        op(k)
    k = wl.warmup_ops
    before = dep.metrics()
    cpu_before = dep.cpu_seconds()
    phase.t0 = time.monotonic()
    phase.stamps.append(phase.t0)
    while True:
        elapsed = time.monotonic() - phase.t0
        if max_ops is not None and phase.n >= max_ops:
            break
        if (elapsed >= seconds and phase.n >= min_ops
                and phase.n % wl.op_cycle == 0):
            break
        if elapsed >= max(seconds, MAX_TIMED_S):
            break
        latency = op(k)
        phase.stamps.append(time.monotonic())
        phase.latencies.append(latency)
        if wl.aggregates(k):
            phase.aggregating.append(latency)
        k += 1
    phase.t1 = time.monotonic()
    cpu_after = dep.cpu_seconds()
    phase.cpu_s = sum(
        cpu - cpu_before.get(pid, 0.0) for pid, cpu in cpu_after.items()
    )
    phase.peak_rss = dep.peak_rss_bytes()
    phase.counters = counter_deltas(before, dep.metrics())
    if worker_traces:
        phase.worker = dep.worker_spans()
    return phase


def finish(dep, wl, phase: Phase, seed: int, geometry: Dict) -> None:
    """Tear the deployment down, then run the deferred output checks."""
    phase.errors += dep.shutdown()
    phase.failed_ops += wl.verify_deferred(seed, geometry)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def throughput(phase: Phase, cycle: int) -> Tuple[float, int]:
    """Ops per second: the interquartile mean of the rates of the
    phase's whole ``cycle``-op cycles, and the cycle count.  A phase of
    fewer than four cycles (the smoke test's) reports its overall rate."""
    stamps = phase.stamps
    rates = sorted(
        cycle / (stamps[i + cycle] - stamps[i])
        for i in range(0, len(stamps) - cycle, cycle)
    )
    if len(rates) < 4:
        return phase.n / (phase.t1 - phase.t0), phase.n
    cut = len(rates) // 4
    return statistics.fmean(rates[cut:len(rates) - cut]), len(rates)


def end_to_end(phase: Phase, setups: List[float], cycle: int
               ) -> Dict[str, Tuple[float, int]]:
    """``metric -> (value, sample count)``."""
    n = phase.n
    return {
        "op_latency_p50_ms": (1e3 * percentile(phase.latencies, 50), n),
        "op_latency_p90_ms": (1e3 * percentile(phase.latencies, 90), n),
        "ops_per_s": throughput(phase, cycle),
        "drain_latency_p50_ms": (
            1e3 * percentile(phase.aggregating, 50), len(phase.aggregating)
        ),
        "setup_s": (statistics.median(setups), len(setups)),
        "server_cpu_ms_per_op": (1e3 * phase.cpu_s / n, n),
        "server_peak_rss_mb": (phase.peak_rss / 2 ** 20, 1),
    }


def per_layer(plain: Phase, traced: Phase, spans_file: Path, wl
              ) -> Tuple[Dict[str, Tuple[float, int]], List[str], List[str],
                         Optional[str]]:
    """Per-layer metrics, the layer table, failed layer checks, and the
    field reducer the traced daemon reported."""
    data = json.loads(spans_file.read_text())
    rows = data["spans"]
    spans, roots = per_layer_metrics(
        rows, traced.t0, traced.t1, wl.path, traced.latencies
    )
    errors = []
    if roots != traced.n:
        errors.append(
            f"traced window holds {roots} op spans for {traced.n} client ops"
        )
    n, m = traced.n, plain.n
    metrics = {name: (value, n) for name, value in spans.items()}
    counters = plain.counters
    metrics.update({
        "transport.bytes_sent_per_op": (counters["bytes_sent"] / m, m),
        "transport.bytes_received_per_op": (
            counters["bytes_received"] / m, m
        ),
        "service.pool_misses": (counters["stalls"], m),
        "service.background_refills": (counters["background_refills"], m),
        "service.drains": (counters["drains"], m),
        "transport.reconnects": (counters["reconnects"], m),
        "obs.tracing_overhead_ms": (
            1e3 * (percentile(traced.latencies, 50)
                   - percentile(plain.latencies, 50)), min(n, m)
        ),
    })
    for key, name in (("compute", "worker.shard_compute_ms"),
                      ("queue_wait", "worker.queue_wait_ms")):
        values = plain.worker.get(key, [])
        metrics[name] = (
            1e3 * statistics.fmean(values) if values else 0.0, len(values)
        )
    if wl.transport_free:
        busy = [
            name for name, (value, _) in metrics.items()
            if name.startswith(("wire.", "transport.", "worker."))
            and value != 0
        ]
        if busy:
            errors.append(
                f"{wl.name} bypasses wire, transport and workers, yet "
                f"reads non-zero: {busy}"
            )
    table = layer_table(rows, traced.t0, traced.t1, n)
    return metrics, table, errors, data.get("reducer")


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def git_sha() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(traced: bool, traced_reducer: Optional[str]) -> Dict:
    from repro.field import DEFAULT_PRIME, select_reducer

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        # The daemon runs with REPRO_FIELD_REDUCER removed from its
        # environment, so it resolves the default kernel.
        "field_reducer": select_reducer(DEFAULT_PRIME, "auto").kind,
        "field_reducer_traced_daemon": traced_reducer,
        "reducer_env_set_in_caller": bool(os.environ.get(REDUCER_ENV)),
        "reducer_env_passed_to_daemon": False,
        # The daemon's built-in round tracer has no switch: it is on in
        # every run, so the untraced run measures the default program.
        "program_round_tracing": "on",
        "layer_spans": "on" if traced else "off",
    }


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def run_workload(name: str, args, geometry: Dict) -> Dict:
    from repro.field import DEFAULT_PRIME

    wl = WORKLOADS[name]
    wl.prepare(geometry, args.seed, DEFAULT_PRIME,
               corrupt=args.corrupt_expected)
    spec = wl.cohort_spec(geometry, args.seed)
    errors: List[str] = []
    attempted = failed = 0
    lines = [f"workload {name}: {wl.why}"]

    def deploy(spans_dir=None) -> Deployment:
        return Deployment(spec, wl.socket_worker, spans_dir=spans_dir)

    def run_phase(dep, seconds, min_ops, worker_traces=False) -> Phase:
        nonlocal attempted, failed
        try:
            phase = drive(dep, wl, seconds, min_ops, args.max_ops,
                          worker_traces)
        except BaseException:
            dep.kill()
            raise
        finish(dep, wl, phase, args.seed, geometry)
        attempted += phase.attempted
        failed += len(phase.failed_ops)
        errors.extend(phase.errors)
        return phase

    traced_reducer = None
    if not args.trace:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            dep = deploy()
            setups.append(dep.setup_s)
            errors.extend(dep.shutdown())
        dep = deploy()
        setups.append(dep.setup_s)
        phase = run_phase(dep, args.seconds, MIN_TIMED_OPS)
        metrics = end_to_end(phase, setups, wl.op_cycle)
        units = END_TO_END_UNITS
    else:
        # Half the time untraced (the overhead baseline and the exact
        # /metrics and round-trace counts), half under the launcher.
        plain = run_phase(deploy(), args.seconds / 2, 0, worker_traces=True)
        spans_dir = ROOT / f".e2ebench-spans-{name}-{os.getpid()}"
        spans_dir.mkdir()
        worker_table: List[str] = []
        try:
            traced = run_phase(deploy(spans_dir), args.seconds / 2, 0)
            metrics, table, layer_errors, traced_reducer = per_layer(
                plain, traced, spans_dir / "serve.json", wl
            )
            worker_file = spans_dir / "shard-worker.json"
            if worker_file.exists():
                worker_table = layer_table(
                    json.loads(worker_file.read_text())["spans"],
                    traced.t0, traced.t1, traced.n,
                )
        finally:
            shutil.rmtree(spans_dir, ignore_errors=True)
        errors.extend(layer_errors)
        units = per_layer_units()
        lines.append(f"  per-layer self time in the daemon, traced window "
                     f"({traced.n} ops, {traced.t1 - traced.t0:.1f} s):")
        lines.extend(table)
        if worker_table:
            lines.append("  per-layer self time in the shard-worker process:")
            lines.extend(worker_table)
    record = provenance(bool(args.trace), traced_reducer)
    if traced_reducer not in (None, record["field_reducer"]):
        errors.append(
            f"traced daemon reports reducer {traced_reducer}, expected "
            f"{record['field_reducer']}"
        )
    for metric, unit in units.items():
        value, samples = metrics[metric]
        lines.append(f"  {metric:<32} {value:>14.4f} {unit:<6} n={samples}")
    lines.append(f"  {'failed_op_fraction':<32} "
                 f"{failed / max(attempted, 1):>14.4f} {'1':<6} "
                 f"n={attempted}")
    for error in errors:
        lines.append(f"  CHECK FAILED: {error}")
    lines.append("  provenance " + json.dumps(record, sort_keys=True))
    return {
        "lines": lines,
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m][0], "unit": u}
                    for m, u in units.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro serve daemon."
    )
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--max-ops", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    geometry = TINY_GEOMETRY if args.tiny else GEOMETRY
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args, geometry)
        print("\n".join(result["lines"]), flush=True)
        results.append((name, result))
    if len(results) == 1:
        summary = {k: results[0][1][k]
                   for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}/{m}": v for name, r in results
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
