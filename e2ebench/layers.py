"""Per-layer breakdown of a traced run.

Reads the spans the traced launcher wrote, keeps those that started in
the benchmark's timed window, and turns them into per-op self times and
call counts per layer.  A span's self time is its duration minus the
durations of its child spans (children run on the parent's thread, so
they nest).  Background work — the refiller thread — has no op; its
spans count towards the window's per-op averages all the same, because
the ops pay for it in shared CPU.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

ROOT_LAYER = "api.request"

#: Per-layer time metrics (ms per op) and the layer whose spans feed
#: each; the ``.calls`` metrics count that layer's calls per op.
SPAN_TIME_METRICS = {
    "api.http_ms": "api.request",
    "api.dispatch_ms": "api.dispatch",
    "api.materialize_ms": "api.materialize",
    "api.submit_decode_ms": "api.submit_decode",
    "api.encode_ms": "api.encode",
    "service.run_round_ms": "service.run_round",
    "service.submit_ms": "service.submit",
    "session.run_round_ms": "session.run_round",
    "field.add_ms": "field.add",
    "field.sub_ms": "field.sub",
    "field.sum_ms": "field.sum",
    "field.array_ms": "field.array",
    "session.refill_ms": "session.refill",
    "coding.encode_batch_ms": "coding.encode_batch",
    "field.matmul_ms": "field.matmul",
    "coding.decode_aggregate_ms": "coding.decode_aggregate",
    "transport.run_all_ms": "transport.run_all",
    "wire.encode_ms": "wire.encode",
    "wire.decode_ms": "wire.decode",
    "asyncfl.drain_ms": "asyncfl.drain",
    "quantization.quantize_ms": "quantization.quantize",
    "quantization.dequantize_ms": "quantization.dequantize",
}
CALL_METRICS = {
    "field.add.calls": "field.add",
    "field.sub.calls": "field.sub",
    "field.sum.calls": "field.sum",
    "field.array.calls": "field.array",
}


class Span:
    __slots__ = ("id", "parent", "op", "layer", "start", "end", "tag")

    def __init__(self, row: Sequence):
        (self.id, self.parent, self.op, self.layer, self.start, self.end,
         self.tag) = row

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_totals(spans: List[Span], t0: float, t1: float
                 ) -> Dict[str, Dict[str, float]]:
    """``layer -> {"self_s", "calls"}`` over spans started in the window."""
    children: Dict[int, float] = {}
    for s in spans:
        if s.parent:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    totals: Dict[str, Dict[str, float]] = {}
    for s in spans:
        if not t0 <= s.start <= t1:
            continue
        entry = totals.setdefault(s.layer, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += s.duration - children.get(s.id, 0.0)
        entry["calls"] += 1
    return totals


def per_layer_metrics(rows: List[Sequence], t0: float, t1: float,
                      op_path: str, latencies_s: List[float]
                      ) -> Tuple[Dict[str, float], int]:
    """The span-based per-layer metrics of one timed window, and the
    number of op root spans found in it (the client's op count when
    every op was traced).

    ``op_path`` selects the timed ops' root spans (``POST <path>``);
    ``latencies_s`` are the client's latencies of the same ops.
    Times are per-op means in ms, so the layers' self times add up to
    the mean op; the two coverage metrics are what is left over.
    """
    spans = [Span(r) for r in rows]
    n = len(latencies_s)
    totals = layer_totals(spans, t0, t1)
    out: Dict[str, float] = {}
    for metric, layer in SPAN_TIME_METRICS.items():
        out[metric] = 1e3 * totals.get(layer, {}).get("self_s", 0.0) / n
    for metric, layer in CALL_METRICS.items():
        out[metric] = totals.get(layer, {}).get("calls", 0) / n
    out["session.refills"] = totals.get("session.refill", {}).get("calls", 0)
    roots = {
        s.id: s for s in spans
        if s.layer == ROOT_LAYER and t0 <= s.start <= t1
        and s.tag == f"POST {op_path}"
    }
    dispatch_s = sum(
        s.duration for s in spans
        if s.layer == "api.dispatch" and s.parent in roots
    )
    client_ms = 1e3 * sum(latencies_s) / n
    out["api.outside_dispatch_ms"] = client_ms - 1e3 * dispatch_s / n
    out["trace.unattributed_ms"] = client_ms - 1e3 * sum(
        s.duration for s in roots.values()
    ) / n
    return out, len(roots)


def layer_table(rows: List[Sequence], t0: float, t1: float, n_ops: int
                ) -> List[str]:
    """Text table: each layer's self time per op and call count."""
    totals = layer_totals([Span(r) for r in rows], t0, t1)
    lines = [f"  {'layer':<26} {'self ms/op':>11} {'calls':>8} "
             f"{'calls/op':>9}"]
    for layer, entry in sorted(totals.items(),
                               key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {layer:<26} {1e3 * entry['self_s'] / n_ops:>11.3f} "
            f"{entry['calls']:>8d} {entry['calls'] / n_ops:>9.2f}"
        )
    return lines
