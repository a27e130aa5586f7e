"""The benchmark's workloads: cohort specs, seeded inputs, and checks.

Every workload drives one cohort of one daemon in a closed loop over a
single keep-alive connection.  Inputs come from the benchmark's seed and
are serialized to request bytes before timing starts; the daemon only
ever sees explicit vectors, never its server-side ``synthetic``
generator.  Each op's reply is checked against an aggregate the client
computes itself:

* sync rounds: the sum of the surviving users' updates mod q;
* buffered drains: bit-identity with
  :class:`repro.asyncfl.AsyncSecureAggregator` fed the same deliveries
  and ``drain_stream(seed, cohort, drain_index)`` — checked after the
  timed phase, because the oracle re-runs the whole protocol.
"""

from __future__ import annotations

import base64
import json
from typing import Dict, List, Tuple

import numpy as np

#: Geometry of every workload: N=16, d=32768, T=D=2, pool 8, low water 2.
#: d is half the d=65536 of the service's reference numbers: at 65536 a
#: sync round takes 0.2-0.3 s on a 2-core host, and the 100-op floor of
#: four workloads times the runs a comparison needs would not fit in an
#: hour.
GEOMETRY = {
    "num_users": 16,
    "model_dim": 32768,
    "privacy": 2,
    "dropout_tolerance": 2,
    "pool_size": 8,
    "low_water": 2,
}
#: The smoke test's geometry: same protocol shape, tiny vectors.
TINY_GEOMETRY = dict(GEOMETRY, model_dim=256)

#: Distinct round bodies a sync run cycles through (each ~6 MB of JSON,
#: so the run holds a few rather than one per op).
SYNC_BODIES = 4

BUFFER_SIZE = 8
MAX_STALENESS = 2
STALENESS_ALPHA = 0.5
QUANT_CLIP = 1.0
#: Distinct f64 update vectors a buffered run rotates through.
BUFFERED_VECTORS = 3 * BUFFER_SIZE
#: Staleness draws pre-made per run (far more than a run can submit).
STALENESS_DRAWS = 1 << 16


def _b64(array: np.ndarray, dtype: str) -> bytes:
    return base64.b64encode(np.ascontiguousarray(array, dtype=dtype).tobytes())


class SyncWorkload:
    """Sync rounds with explicit u64 updates and one post-upload dropout.

    Each round spends one pooled round of masks; the background refiller
    tops the pool up from low water, so one refill cycle is
    ``pool_size - low_water`` rounds.  Warm-up and the timed phase both
    span whole cycles, so every run pays for the same share of refills.
    """

    op_cycle = GEOMETRY["pool_size"] - GEOMETRY["low_water"]
    warmup_ops = op_cycle

    def __init__(self, name: str, transport: str, num_shards: int,
                 why: str):
        self.name = name
        self.transport = transport
        self.num_shards = num_shards
        self.why = why
        self.socket_worker = transport == "socket"
        self.transport_free = transport == "inline"

    def cohort_spec(self, geometry: Dict, seed: int) -> Dict:
        return dict(geometry, num_shards=self.num_shards,
                    transport=self.transport, seed=seed)

    def prepare(self, geometry: Dict, seed: int, q: int,
                corrupt: bool = False) -> None:
        """Build the request bodies and the expected replies."""
        n, d = geometry["num_users"], geometry["model_dim"]
        self.bodies: List[bytes] = []
        self.expected: List[Tuple[str, List[int]]] = []
        for b in range(SYNC_BODIES):
            rng = np.random.default_rng([seed, b])
            updates = rng.integers(0, q, size=(n, d), dtype=np.uint64)
            dropped = int(rng.integers(n))
            survivors = [i for i in range(n) if i != dropped]
            body = {
                "updates": {
                    str(i): _b64(updates[i], "<u8").decode("ascii")
                    for i in range(n)
                },
                "dropouts": [dropped],
            }
            self.bodies.append(json.dumps(body).encode("utf-8"))
            total = updates[survivors].sum(axis=0) % np.uint64(q)
            if corrupt and b == 0:
                total[0] = (total[0] + np.uint64(1)) % np.uint64(q)
            self.expected.append(
                (_b64(total, "<u8").decode("ascii"), survivors)
            )

    def start(self, cohort_id: int) -> None:
        self.path = f"/cohorts/{cohort_id}/rounds"

    def request(self, k: int) -> Tuple[str, bytes]:
        return self.path, self.bodies[k % SYNC_BODIES]

    def aggregates(self, k: int) -> bool:
        """Whether op ``k`` carries an aggregation (every sync round does)."""
        return True

    def check(self, k: int, status: int, raw: bytes) -> bool:
        if status != 200:
            return False
        reply = json.loads(raw)
        aggregate, survivors = self.expected[k % SYNC_BODIES]
        return (reply.get("aggregate") == aggregate
                and reply.get("survivors") == survivors)

    def verify_deferred(self, seed: int, geometry: Dict) -> List[int]:
        """Ops whose check could only run after timing (none for sync)."""
        return []


class BufferedWorkload:
    """Buffered-async submissions that seal and drain every K-th op.

    Op ``k`` comes from member ``k mod N`` and lands in drain
    ``r = k // K``; it reports the model it trained on as downloaded
    ``min(tau_k, r)`` rounds ago, with ``tau_k`` drawn in ``[0, 2]``.
    Only that small ``download_round`` integer is spliced into the
    otherwise pre-serialized body at send time.
    """

    name = "buffered-submit"
    socket_worker = False
    transport_free = True
    # A drain spends one pooled round of masks, so one refill cycle is
    # ``pool_size - low_water`` drains.
    op_cycle = BUFFER_SIZE * (GEOMETRY["pool_size"] - GEOMETRY["low_water"])
    warmup_ops = BUFFER_SIZE

    def __init__(self, why: str):
        self.why = why

    def cohort_spec(self, geometry: Dict, seed: int) -> Dict:
        return dict(
            geometry, kind="buffered", buffer_size=BUFFER_SIZE,
            staleness_fn="polynomial", staleness_alpha=STALENESS_ALPHA,
            quant_clip=QUANT_CLIP, seed=seed,
        )

    def prepare(self, geometry: Dict, seed: int, q: int,
                corrupt: bool = False) -> None:
        self.num_users = geometry["num_users"]
        d = geometry["model_dim"]
        rng = np.random.default_rng(seed)
        self.vectors = rng.uniform(-1.0, 1.0, size=(BUFFERED_VECTORS, d))
        self.vectors_b64 = [_b64(v, "<f8") for v in self.vectors]
        self.taus = rng.integers(0, MAX_STALENESS + 1, size=STALENESS_DRAWS)
        self.corrupt = corrupt

    def start(self, cohort_id: int) -> None:
        self.cohort_id = cohort_id
        self.path = f"/cohorts/{cohort_id}/updates"
        # (drain index, reply aggregate, [(user, staleness, vector)], op)
        self.sealed: List[Tuple[int, str, List[Tuple], int]] = []

    def _delivery(self, k: int) -> Tuple[int, int, int, int]:
        """``(user, download_round, staleness, vector index)`` of op k."""
        drain = k // BUFFER_SIZE
        staleness = min(int(self.taus[k % STALENESS_DRAWS]), drain)
        return (k % self.num_users, drain - staleness, staleness,
                k % BUFFERED_VECTORS)

    def request(self, k: int) -> Tuple[str, bytes]:
        user, download_round, _, vector = self._delivery(k)
        head = (f'{{"user_id": {user}, "download_round": {download_round}, '
                f'"update": "').encode("ascii")
        return self.path, head + self.vectors_b64[vector] + b'"}'

    def aggregates(self, k: int) -> bool:
        return k % BUFFER_SIZE == BUFFER_SIZE - 1

    def check(self, k: int, status: int, raw: bytes) -> bool:
        if status != 200:
            return False
        reply = json.loads(raw)
        position = k % BUFFER_SIZE
        if not self.aggregates(k):
            return (reply.get("drained") is False
                    and reply.get("buffer_fill") == position + 1)
        drain = k // BUFFER_SIZE
        ops = range(k - position, k + 1)
        deliveries = [self._delivery(j) for j in ops]
        if (reply.get("drained") is not True
                or reply.get("drain_index") != drain
                or reply.get("staleness") != [s for _, _, s, _ in deliveries]):
            return False
        self.sealed.append((
            drain, reply["aggregate"],
            [(u, s, v) for u, _, s, v in deliveries], k,
        ))
        return True

    def verify_deferred(self, seed: int, geometry: Dict) -> List[int]:
        """Check every sealed drain against the single-process oracle.

        Returns the ops (the sealing submissions) whose aggregate is not
        bit-identical to the oracle's.
        """
        from repro.asyncfl import AsyncDelivery, AsyncSecureAggregator
        from repro.field import FiniteField
        from repro.protocols.lightsecagg.params import LSAParams
        from repro.quantization import ModelQuantizer, QuantizationConfig
        from repro.service.engines import build_staleness, drain_stream

        gf = FiniteField(reducer="numpy_mod")
        oracle = AsyncSecureAggregator(
            gf,
            LSAParams.from_guarantees(
                geometry["num_users"], privacy=geometry["privacy"],
                dropout_tolerance=geometry["dropout_tolerance"],
            ),
            geometry["model_dim"],
            ModelQuantizer(gf, QuantizationConfig(levels=1 << 16,
                                                  clip=QUANT_CLIP)),
            build_staleness("polynomial", alpha=STALENESS_ALPHA),
        )
        failed = []
        for index, (drain, aggregate, deliveries, op) in enumerate(
            self.sealed
        ):
            expected = oracle.aggregate(
                [AsyncDelivery(user_id=u, staleness=s,
                               update=self.vectors[v])
                 for u, s, v in deliveries],
                rng=drain_stream(seed, self.cohort_id, drain),
            )
            want = np.ascontiguousarray(expected, dtype="<f8").tobytes()
            if self.corrupt and index == 0:
                want = bytes([want[0] ^ 1]) + want[1:]
            if base64.b64decode(aggregate) != want:
                failed.append(op)
        return failed


WORKLOADS: Dict[str, object] = {
    w.name: w
    for w in (
        SyncWorkload(
            "sync-inline", "inline", 1,
            "online field ops, HTTP/JSON decode and encode, and background "
            "refill on 2 cores; bypasses wire and transport",
        ),
        SyncWorkload(
            "sync-process", "process", 2,
            "same rounds over 2 worker processes on the packed wire: adds "
            "wire encode/decode, pipe scatter/gather and worker compute",
        ),
        SyncWorkload(
            "sync-socket", "socket", 2,
            "same rounds over TCP to one repro shard-worker hosting both "
            "shards: measures the socket transport and worker",
        ),
        BufferedWorkload(
            "many small f64 submits, 1 in 8 carrying a drain through "
            "asyncfl, quantization and weighted field sums",
        ),
    )
}
