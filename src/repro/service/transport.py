"""Transport abstraction between the shard coordinator and shard sessions.

PR 3's :class:`~repro.service.sharding.ShardedSession` called each
per-shard session directly, so every shard round and every refill encode
ran in one Python process, serialized by the GIL.  This module makes the
coordinator/session boundary explicit so the *same* coordinator code
drives either:

* :class:`InlineTransport` — the sessions live in this process and are
  called directly.  Bit-identical to the pre-transport behaviour
  (including rng forwarding), and the baseline the process backend is
  verified against.
* :class:`ProcessPoolTransport` — each shard's session is pinned inside
  a long-lived ``multiprocessing`` worker and spoken to in
  :mod:`repro.wire` frames over a duplex pipe.  Round requests are
  *scattered* to all workers before any result is *gathered*, so shard
  rounds run on separate cores; refills run on a dedicated thread inside
  each worker, so pool top-ups overlap both with other shards' encodes
  and with rounds on the same worker.
* :class:`~repro.service.socket_transport.SocketTransport` (its own
  module) — the same frames over TCP to standalone ``repro
  shard-worker`` hosts, adding heartbeat supervision and reconnect with
  session re-pin; the multi-host deployment backend.

Both backends expose the per-shard sessions as *handles* with the
:class:`~repro.protocols.base.ProtocolSession` pool surface
(``pool_level`` / ``needs_refill`` / ``refill`` / ``stats`` ...), so the
background refiller and the metrics layer treat local sessions and
remote workers uniformly.  Process handles serve those properties from a
cache refreshed by every frame that crosses the wire — polling
``needs_refill`` never costs a round trip.

Sessions are constructed *in the worker* from a picklable
:class:`ShardSessionSpec`, never shipped across the boundary; the inline
backend builds from the same spec, which is what makes "process-backed
rounds are bit-identical to inline" hold by construction (identical
seeded rng streams on both sides).

Shutdown contract: :meth:`ShardTransport.close` delivers a
:class:`~repro.wire.Shutdown` frame to every worker; a worker finishes a
refill already in flight (its material still lands in the pool and its
response frame is still delivered), closes its sessions, acknowledges,
and exits.  Workers are daemons and are terminated as a last resort if
they fail to acknowledge within the shutdown timeout.
"""

from __future__ import annotations

import abc
import itertools
import multiprocessing
import os
import queue
import socket as _socket
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ProtocolError, TransportError, WireError
from repro.field.arithmetic import FiniteField
from repro.field.prime import DEFAULT_PRIME
from repro.obs import Span, current_trace, span
from repro.protocols.base import AggregationResult, SessionStats
from repro.wire import (
    ErrorFrame,
    PoolSnapshot,
    RefillRequest,
    RekeyRequest,
    SegmentArena,
    ShardDrainRequest,
    ShardRoundRequest,
    ShardRoundResult,
    ShmArrayRef,
    ShmRegistry,
    SnapshotRequest,
    Shutdown,
    WorkerSpan,
    decode_message,
    encode_message,
)

_HOSTNAME = _socket.gethostname()

TRANSPORT_KINDS = ("inline", "process", "socket", "shm")

#: Element encodings a transport can put on the wire: ``raw`` ships
#: little-endian words, ``packed`` bit-packs at the data's width (peers
#: that never advertised CAP_PACKED_ARRAYS still get raw frames).
WIRE_FORMATS = ("raw", "packed")


def _absorb_worker_span(trace, shard_id: int, ws, kind: str) -> None:
    """Stitch a worker-reported timing block into the coordinator's trace.

    The worker's ``WorkerSpan`` becomes a ``shard_compute[i]`` span tagged
    with the *remote* pid/host (the proof the work ran off-process), with
    its pipe/queue dwell as a ``queue_wait`` child leading into compute.
    Worker and coordinator clocks are the same host clock for process/shm
    workers and close enough for sockets — good enough for phase bars.
    """
    if trace is None or ws is None:
        return
    compute = Span(
        f"shard_compute[{shard_id}]",
        start=ws.compute_start_unix,
        end=ws.compute_start_unix + ws.compute_seconds,
        tags={"pid": str(ws.pid), "host": ws.host, "transport": kind},
    )
    if ws.queue_wait_seconds > 0:
        compute.children.append(
            Span(
                "queue_wait",
                start=ws.compute_start_unix - ws.queue_wait_seconds,
                end=ws.compute_start_unix,
                tags={"pid": str(ws.pid), "host": ws.host},
            )
        )
    trace.add_span(compute)


@dataclass(frozen=True)
class ShardSessionSpec:
    """Everything needed to build one shard's protocol session anywhere.

    Pure data (picklable) so a worker process can construct the session
    locally.  ``seed`` is the full derivation path — typically
    ``(service_seed, cohort_id, shard_id)`` — fed to
    ``np.random.default_rng``, so inline and process backends draw
    identical mask/padding streams and their pools are bit-identical.
    """

    protocol: str  # "lightsecagg" | "lightsecagg-buffered" | "naive"
    num_users: int
    shard_dim: int
    privacy: int
    dropout_tolerance: int
    pool_size: int
    low_water: int
    seed: Tuple[int, ...]
    field_modulus: int = DEFAULT_PRIME

    @property
    def supports_pool(self) -> bool:
        return self.protocol in ("lightsecagg", "lightsecagg-buffered")

    @property
    def supports_drains(self) -> bool:
        return self.protocol == "lightsecagg-buffered"

    def build(self, gf: Optional[FiniteField] = None):
        """Construct the protocol and open its session."""
        from repro.protocols.lightsecagg.params import LSAParams
        from repro.protocols.lightsecagg.protocol import LightSecAgg
        from repro.protocols.naive import NaiveAggregation

        gf = gf if gf is not None else FiniteField(self.field_modulus)
        if self.protocol == "naive":
            protocol = NaiveAggregation(gf, self.num_users, self.shard_dim)
        elif self.protocol in ("lightsecagg", "lightsecagg-buffered"):
            params = LSAParams.from_guarantees(
                self.num_users,
                privacy=self.privacy,
                dropout_tolerance=self.dropout_tolerance,
            )
            protocol = LightSecAgg(gf, params, self.shard_dim)
        else:
            raise ProtocolError(f"unknown shard protocol {self.protocol!r}")
        rng = np.random.default_rng(list(self.seed))
        if self.protocol == "lightsecagg-buffered":
            from repro.asyncfl.pooled import BufferedShardSession

            return BufferedShardSession(
                protocol,
                pool_size=self.pool_size,
                rng=rng,
                low_water=self.low_water,
            )
        return protocol.session(
            pool_size=self.pool_size,
            rng=rng,
            low_water=self.low_water,
        )


class ShardTransport(abc.ABC):
    """Scatter/gather execution of shard rounds and refills.

    The coordinator (``ShardedSession``) owns the :class:`ShardPlan` and
    the scatter/gather of *vectors*; the transport owns the scatter and
    gather of *work*: one round request per shard, one refill per needy
    shard, against sessions living wherever the backend puts them.
    """

    kind: str = "abstract"

    @property
    @abc.abstractmethod
    def shard_handles(self) -> Sequence:
        """Session-like objects, one per shard, in shard order."""

    @property
    def num_shards(self) -> int:
        return len(self.shard_handles)

    @abc.abstractmethod
    def run_all(
        self,
        per_shard_updates: List[Dict[int, np.ndarray]],
        dropouts: Set[int],
        rng: Optional[np.random.Generator] = None,
        **phase_kwargs,
    ) -> List[AggregationResult]:
        """One logical round: every shard sees the same dropout sets."""

    @abc.abstractmethod
    def refill_all(self, rounds: Optional[int] = None) -> int:
        """Top up every shard's pool; returns the max rounds added."""

    def drain_all(
        self,
        weights: np.ndarray,
        per_shard_updates: List[np.ndarray],
        recovery_dropouts: Set[int],
    ) -> List[AggregationResult]:
        """One buffered drain across every shard (buffered sessions only).

        ``weights`` is the shared ``(B,)`` staleness-weight vector;
        ``per_shard_updates[s]`` the ``(B, shard_width)`` slice of the
        unweighted quantized deliveries, rows in buffer order.
        """
        raise TransportError(
            f"{self.kind} transport does not support buffered drains"
        )

    def rekey_all(self, num_users: int) -> int:
        """Re-key every shard for a new member count; returns the total
        pooled rounds invalidated (buffered sessions only)."""
        raise TransportError(
            f"{self.kind} transport does not support buffered drains"
        )

    @abc.abstractmethod
    def close(self) -> None:
        """Release all shard sessions (idempotent)."""

    @property
    @abc.abstractmethod
    def closed(self) -> bool: ...


class InlineTransport(ShardTransport):
    """Direct calls into sessions owned by this process (the baseline)."""

    kind = "inline"

    def __init__(self, sessions: Sequence, metrics=None, cohort_id: int = 0):
        if not sessions:
            raise ProtocolError("transport needs at least one shard session")
        self._sessions = list(sessions)
        self._metrics = metrics
        self._cohort_id = int(cohort_id)

    @classmethod
    def from_specs(
        cls,
        specs: Sequence[ShardSessionSpec],
        gf: Optional[FiniteField] = None,
        metrics=None,
        cohort_id: int = 0,
    ) -> "InlineTransport":
        return cls(
            [spec.build(gf) for spec in specs],
            metrics=metrics,
            cohort_id=cohort_id,
        )

    @property
    def shard_handles(self) -> Sequence:
        return self._sessions

    @property
    def gf(self) -> FiniteField:
        return self._sessions[0].gf

    def run_all(self, per_shard_updates, dropouts, rng=None, **phase_kwargs):
        t0 = time.perf_counter()
        misses_before = sum(s.stats.pool_misses for s in self._sessions)
        results = []
        for shard_id, (session, updates) in enumerate(
            zip(self._sessions, per_shard_updates)
        ):
            # Inline shards compute on this thread: the span nests any
            # offline_refill/mask_encode the session opens underneath it.
            with span(
                f"shard_compute[{shard_id}]",
                pid=str(os.getpid()),
                host=_HOSTNAME,
                transport=self.kind,
            ):
                results.append(
                    session.run_round(
                        updates, set(dropouts), rng, **phase_kwargs
                    )
                )
        if self._metrics is not None:
            # A shard whose round ran an inline refill is a stalled shard,
            # the same quantity the process backend reports per round.
            stalled = (
                sum(s.stats.pool_misses for s in self._sessions)
                - misses_before
            )
            self._metrics.record_transport_round(
                self.kind, time.perf_counter() - t0, bytes_sent=0,
                bytes_received=0, stalled_shards=stalled,
            )
        return results

    def refill_all(self, rounds: Optional[int] = None) -> int:
        return max(session.refill(rounds) for session in self._sessions)

    def drain_all(self, weights, per_shard_updates, recovery_dropouts):
        if len(per_shard_updates) != len(self._sessions):
            raise ProtocolError(
                f"expected {len(self._sessions)} shard update slices, got "
                f"{len(per_shard_updates)}"
            )
        t0 = time.perf_counter()
        misses_before = sum(s.stats.pool_misses for s in self._sessions)
        results = []
        for shard_id, (session, updates) in enumerate(
            zip(self._sessions, per_shard_updates)
        ):
            if not hasattr(session, "drain"):
                raise TransportError(
                    f"shard {shard_id} session does not support drains"
                )
            with span(
                f"shard_compute[{shard_id}]",
                pid=str(os.getpid()),
                host=_HOSTNAME,
                transport=self.kind,
            ):
                results.append(
                    session.drain(weights, updates, set(recovery_dropouts))
                )
        if self._metrics is not None:
            stalled = (
                sum(s.stats.pool_misses for s in self._sessions)
                - misses_before
            )
            self._metrics.record_transport_round(
                self.kind, time.perf_counter() - t0, bytes_sent=0,
                bytes_received=0, stalled_shards=stalled,
            )
        return results

    def rekey_all(self, num_users: int) -> int:
        invalidated = 0
        for shard_id, session in enumerate(self._sessions):
            if not hasattr(session, "rekey"):
                raise TransportError(
                    f"shard {shard_id} session does not support re-keying"
                )
            invalidated += session.rekey(num_users)
        return invalidated

    def close(self) -> None:
        for session in self._sessions:
            session.close()

    @property
    def closed(self) -> bool:
        return any(session.closed for session in self._sessions)


# ----------------------------------------------------------------------
# process backend: worker side
# ----------------------------------------------------------------------
def _worker_serve(conn, specs: Dict[int, ShardSessionSpec]) -> None:
    """Serve loop of one shard worker process.

    The main thread handles round requests (the latency-critical path);
    refills run on a single local thread so a round arriving mid-refill
    is served as soon as the session's pool lock allows, exactly like the
    in-process consumer/refiller pairing.  All sends share one lock; all
    responses carry their request's id, so ordering across the two
    threads is irrelevant.

    Element encodings mirror the coordinator's: a packed round request
    gets a packed result; a request whose updates arrived by
    shared-memory reference gets its aggregate placed at the request's
    ``result_ref`` with only the reference framed back.  The worker's
    segment attachments are cache-per-process (:class:`ShmRegistry`) and
    detached on exit; it never unlinks — segments belong to the
    coordinator.
    """
    gf = None
    sessions = {}
    for shard_id, spec in sorted(specs.items()):
        if gf is None:
            gf = FiniteField(spec.field_modulus)
        sessions[shard_id] = spec.build(gf)
    send_lock = threading.Lock()
    registry = ShmRegistry()

    def send(message, request_id: int) -> None:
        frame = encode_message(message, request_id)
        with send_lock:
            conn.send_bytes(frame)

    def snapshot_of(shard_id: int, rounds_added: int = 0) -> PoolSnapshot:
        state = sessions[shard_id].state_snapshot()
        return PoolSnapshot(
            shard_id=shard_id,
            pool_level=state["pool_level"],
            pool_size=state["pool_size"],
            rounds_added=rounds_added,
            closed=state["closed"],
            stats=state["stats"],
        )

    refill_queue: "queue.Queue" = queue.Queue()

    def refill_loop() -> None:
        while True:
            item = refill_queue.get()
            if item is None:
                return
            request_id, shard_id, rounds = item
            try:
                added = sessions[shard_id].refill(rounds)
                send(snapshot_of(shard_id, rounds_added=added), request_id)
            except Exception as exc:  # noqa: BLE001 - forwarded to peer
                send(ErrorFrame.from_exception(shard_id, exc), request_id)

    refiller = threading.Thread(
        target=refill_loop, name="shard-worker-refill", daemon=True
    )
    refiller.start()

    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                return  # coordinator died; daemon exit
            request_id, message = decode_message(frame, shm=registry.resolve)
            # Where a traced request's queue-wait clock starts, as on the
            # socket worker: the dwell from here to compute start.
            received_at = time.time()
            if isinstance(message, Shutdown):
                # Contract: a refill in flight completes (and its response
                # is delivered) before the shutdown is acknowledged.
                refill_queue.put(None)
                refiller.join()
                for session in sessions.values():
                    session.close()
                send(Shutdown(), request_id)
                return
            if isinstance(message, RefillRequest):
                refill_queue.put(
                    (request_id, message.shard_id, message.rounds)
                )
                continue
            try:
                if isinstance(message, SnapshotRequest):
                    send(snapshot_of(message.shard_id), request_id)
                elif isinstance(message, ShardRoundRequest):
                    session = sessions[message.shard_id]
                    state = session.state_snapshot()
                    stalled = bool(
                        state["supports_pool"] and state["pool_level"] == 0
                    )
                    compute_start = time.time() if message.trace_id else 0.0
                    result = session.run_round(
                        message.updates_dict(),
                        set(message.dropouts),
                        None,
                        **(
                            {"offline_dropouts": message.offline_dropouts}
                            if message.offline_dropouts
                            else {}
                        ),
                    )
                    worker_span = None
                    if message.trace_id:
                        worker_span = WorkerSpan(
                            trace_id=message.trace_id,
                            pid=os.getpid(),
                            host=_HOSTNAME,
                            queue_wait_seconds=max(
                                0.0, compute_start - received_at
                            ),
                            compute_start_unix=compute_start,
                            compute_seconds=time.time() - compute_start,
                        )
                    # Post-round state via state_snapshot(): reading the
                    # level and stats piecemeal would race this worker's
                    # own refill thread and could ship a torn pair.
                    after = session.state_snapshot()
                    aggregate_ref = None
                    if message.result_ref is not None:
                        out = registry.ndarray(message.result_ref)
                        np.copyto(
                            out,
                            np.asarray(
                                result.aggregate, dtype=np.uint64
                            ).reshape(message.result_ref.shape),
                        )
                        aggregate_ref = message.result_ref
                    send(
                        ShardRoundResult.from_result(
                            message.shard_id,
                            message.round_id,
                            result,
                            stalled=stalled,
                            pool_level=after["pool_level"],
                            stats=after["stats"],
                            packed=message.packed,
                            aggregate_ref=aggregate_ref,
                            worker_span=worker_span,
                        ),
                        request_id,
                    )
                elif isinstance(message, ShardDrainRequest):
                    session = sessions[message.shard_id]
                    if not hasattr(session, "drain"):
                        raise TransportError(
                            f"shard {message.shard_id} session does not "
                            "support drains"
                        )
                    state = session.state_snapshot()
                    stalled = bool(
                        state["supports_pool"] and state["pool_level"] == 0
                    )
                    compute_start = time.time() if message.trace_id else 0.0
                    result = session.drain(
                        message.weights,
                        message.updates,
                        set(message.recovery_dropouts),
                    )
                    worker_span = None
                    if message.trace_id:
                        worker_span = WorkerSpan(
                            trace_id=message.trace_id,
                            pid=os.getpid(),
                            host=_HOSTNAME,
                            queue_wait_seconds=max(
                                0.0, compute_start - received_at
                            ),
                            compute_start_unix=compute_start,
                            compute_seconds=time.time() - compute_start,
                        )
                    after = session.state_snapshot()
                    send(
                        ShardRoundResult.from_result(
                            message.shard_id,
                            message.drain_id,
                            result,
                            stalled=stalled,
                            pool_level=after["pool_level"],
                            stats=after["stats"],
                            packed=message.packed,
                            worker_span=worker_span,
                        ),
                        request_id,
                    )
                elif isinstance(message, RekeyRequest):
                    session = sessions[message.shard_id]
                    if not hasattr(session, "rekey"):
                        raise TransportError(
                            f"shard {message.shard_id} session does not "
                            "support re-keying"
                        )
                    invalidated = session.rekey(message.num_users)
                    send(
                        snapshot_of(
                            message.shard_id, rounds_added=-invalidated
                        ),
                        request_id,
                    )
                else:
                    raise TransportError(
                        f"worker cannot serve {type(message).__name__}"
                    )
            except Exception as exc:  # noqa: BLE001 - forwarded to peer
                shard_id = getattr(message, "shard_id", 0)
                send(ErrorFrame.from_exception(shard_id, exc), request_id)
    finally:
        refill_queue.put(None)
        registry.close()


# ----------------------------------------------------------------------
# process backend: coordinator side
# ----------------------------------------------------------------------
class _WorkerClient:
    """One worker process plus a response multiplexer over its pipe.

    Multiple coordinator threads (the online consumer, the background
    refiller) may each be awaiting a different response on the same
    connection.  A dedicated receiver thread drains *every* incoming
    frame into ``_responses`` keyed by request id and wakes waiters, so
    out-of-order completion (a round result overtaking a slow refill)
    routes correctly.

    The always-draining receiver is also what makes the scatter phase
    deadlock-free: a worker hosting several shards can flush the result
    of shard ``k`` (the coordinator side of its pipe is always being
    read) and return to its own ``recv`` loop, which in turn unblocks
    the coordinator's possibly-buffer-full send of shard ``k+1``'s
    request.  Neither side ever holds a full pipe while waiting for the
    other to read first, regardless of frame size vs. OS pipe buffer.
    """

    def __init__(self, process, conn, shm_resolver=None):
        self.process = process
        self.conn = conn
        self.bytes_sent = 0
        self.bytes_received = 0
        self._shm_resolver = shm_resolver
        self._send_lock = threading.Lock()
        self._cv = threading.Condition()
        self._responses: Dict[int, object] = {}
        self._broken: Optional[BaseException] = None
        self._receiver = threading.Thread(
            target=self._recv_loop,
            name=f"{process.name}-recv",
            daemon=True,
        )
        self._receiver.start()

    def _recv_loop(self) -> None:
        while True:
            try:
                frame = self.conn.recv_bytes()
                request_id, message = decode_message(
                    frame, shm=self._shm_resolver
                )
            except (EOFError, OSError, WireError) as exc:
                with self._cv:
                    self._broken = exc
                    self._cv.notify_all()
                return
            with self._cv:
                self.bytes_received += len(frame)
                self._responses[request_id] = (message, len(frame))
                self._cv.notify_all()

    def send(self, message, request_id: int) -> int:
        frame = encode_message(message, request_id)
        try:
            with self._send_lock:
                self.conn.send_bytes(frame)
                self.bytes_sent += len(frame)
        except (OSError, ValueError) as exc:
            raise TransportError(
                f"failed to send {type(message).__name__} to worker: {exc}"
            ) from exc
        return len(frame)

    def receive(self, request_id: int, timeout: Optional[float] = None):
        """Block for one response; returns ``(message, frame_bytes)``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while True:
                if request_id in self._responses:
                    return self._responses.pop(request_id)
                if self._broken is not None:
                    raise TransportError(
                        f"worker connection broken with response "
                        f"{request_id} outstanding: {self._broken!r}"
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TransportError(
                            f"timed out awaiting response {request_id}"
                        )
                self._cv.wait(remaining)

    def join_receiver(self, timeout: Optional[float] = None) -> None:
        """Join the receiver thread (it exits on worker EOF)."""
        self._receiver.join(timeout)


class ProcessShardHandle:
    """Session-surface proxy for one shard pinned in a worker process.

    Pool properties are served from a cache refreshed by every response
    frame for this shard (round results, refill snapshots), so the
    background refiller's ``needs_refill`` polling costs no wire traffic.
    ``refill_begin`` / ``refill_join`` split the refill into a scatter
    and a gather half so the refiller can overlap top-ups across shards.
    """

    def __init__(self, transport: "ProcessPoolTransport", shard_id: int,
                 spec: ShardSessionSpec):
        self._transport = transport
        self.shard_id = shard_id
        self.spec = spec
        self.stats = SessionStats()
        self.pool_size = spec.pool_size
        self.low_water = spec.low_water
        self._pool_level = 0
        self._closed = False

    # -- cache maintenance (called by the transport) --------------------
    def _absorb(self, pool_level: int, stats: SessionStats,
                closed: Optional[bool] = None) -> None:
        self._pool_level = int(pool_level)
        self.stats = stats
        if closed is not None:
            self._closed = closed

    # -- ProtocolSession pool surface -----------------------------------
    @property
    def supports_pool(self) -> bool:
        return self.spec.supports_pool

    @property
    def pool_level(self) -> int:
        return self._pool_level

    @property
    def closed(self) -> bool:
        return self._closed or self._transport.closed

    @property
    def needs_refill(self) -> bool:
        if not self.supports_pool or self.closed:
            return False
        level = self.pool_level
        return level < self.pool_size and level <= self.low_water

    def refill(self, rounds: Optional[int] = None) -> int:
        return self.refill_join(self.refill_begin(rounds))

    def refill_begin(self, rounds: Optional[int] = None) -> int:
        """Scatter half: dispatch the refill, return a join ticket."""
        if self.closed:
            raise ProtocolError("session is closed")
        request_id, _ = self._transport._request(
            self.shard_id, RefillRequest(self.shard_id, rounds)
        )
        return request_id

    def refill_join(self, ticket: int) -> int:
        """Gather half: block until the worker's refill completes."""
        message, _ = self._transport._await(self.shard_id, ticket)
        if isinstance(message, ErrorFrame):
            message.raise_()
        self._absorb(message.pool_level, message.stats, message.closed)
        return int(message.rounds_added)

    def sync(self) -> "ProcessShardHandle":
        """Refresh the cache with an explicit snapshot round trip."""
        request_id, _ = self._transport._request(
            self.shard_id, SnapshotRequest(self.shard_id)
        )
        message, _ = self._transport._await(self.shard_id, request_id)
        if isinstance(message, ErrorFrame):
            message.raise_()
        self._absorb(message.pool_level, message.stats, message.closed)
        return self

    def offline_elements(self) -> int:
        """Offline-traffic accounting is not carried over the wire."""
        return 0

    def close(self) -> None:
        self._closed = True

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shard={self.shard_id}, "
            f"pool={self.pool_level}/{self.pool_size}, "
            f"rounds={self.stats.rounds})"
        )


class ProcessPoolTransport(ShardTransport):
    """Shard sessions pinned in long-lived multiprocessing workers.

    ``num_workers`` defaults to one worker per shard (the layout the
    refactor exists for); fewer workers host multiple shards each, whose
    rounds then serialize on that worker's main thread — capacity is
    traded explicitly, never silently dropped.

    Two bandwidth knobs ride on top of the pipe protocol:

    * ``wire_format="packed"`` bit-packs update matrices and aggregates
      at their max's bit width (~2x smaller for 31-bit field elements
      stored as u64) — worth it even same-host, since pipe writes cost
      a kernel copy per byte;
    * ``payload_mode="shm"`` stages vector payloads in a coordinator-
      owned shared-memory segment (one region pair per shard) and frames
      only ``(name, offset)`` references, so element bytes never transit
      the pipe at all.  Regions are reused round over round — safe
      because at most one round per shard is in flight — and the
      segment is unlinked in :meth:`close` (with a ``__del__``
      backstop), so a worker dying mid-round cannot leak ``/dev/shm``
      entries.
    """

    kind = "process"

    def __init__(
        self,
        specs: Sequence[ShardSessionSpec],
        num_workers: Optional[int] = None,
        metrics=None,
        cohort_id: int = 0,
        shutdown_timeout_s: float = 10.0,
        mp_context: Optional[str] = None,
        wire_format: str = "raw",
        payload_mode: str = "pipe",
    ):
        if not specs:
            raise ProtocolError("transport needs at least one shard spec")
        if num_workers is not None and num_workers < 1:
            raise ProtocolError(
                f"need >= 1 worker process, got {num_workers}"
            )
        if wire_format not in WIRE_FORMATS:
            raise ProtocolError(
                f"unknown wire format {wire_format!r}; expected one of "
                f"{WIRE_FORMATS}"
            )
        if payload_mode not in ("pipe", "shm"):
            raise ProtocolError(
                f"unknown payload mode {payload_mode!r}; expected "
                f"'pipe' or 'shm'"
            )
        self.specs = list(specs)
        self.num_workers = min(num_workers or len(specs), len(specs))
        self.shutdown_timeout_s = float(shutdown_timeout_s)
        self.wire_format = wire_format
        self.payload_mode = payload_mode
        if payload_mode == "shm":
            # Report under a distinct metrics lane: the whole point of
            # the mode is a different wire_bytes profile.
            self.kind = "shm"
        self._metrics = metrics
        self._cohort_id = int(cohort_id)
        self._gf = FiniteField(self.specs[0].field_modulus)
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._round_ids = itertools.count(0)
        self._closed = False
        self._close_lock = threading.Lock()

        self._arena: Optional[SegmentArena] = None
        self._regions: List[Tuple[int, int]] = []  # (req_off, resp_off)
        self._registry: Optional[ShmRegistry] = None
        shm_resolver = None
        if payload_mode == "shm":
            offset = 0
            for spec in self.specs:
                req_nbytes = spec.num_users * spec.shard_dim * 8
                resp_nbytes = spec.shard_dim * 8
                self._regions.append((offset, offset + req_nbytes))
                offset += req_nbytes + resp_nbytes
            self._arena = SegmentArena(offset)
            self._registry = ShmRegistry()
            self._registry.add_local(self._arena)
            shm_resolver = self._registry.resolve

        ctx = multiprocessing.get_context(mp_context)
        self._clients: List[_WorkerClient] = []
        self._worker_of = [s % self.num_workers for s in range(len(specs))]
        for worker in range(self.num_workers):
            assigned = {
                shard: spec
                for shard, spec in enumerate(self.specs)
                if self._worker_of[shard] == worker
            }
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_serve,
                args=(child_conn, assigned),
                name=f"shard-worker-{cohort_id}-{worker}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._clients.append(
                _WorkerClient(process, parent_conn, shm_resolver=shm_resolver)
            )
        self._handles = [
            ProcessShardHandle(self, shard, spec)
            for shard, spec in enumerate(self.specs)
        ]

    # -- plumbing --------------------------------------------------------
    def _next_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    def _client(self, shard_id: int) -> _WorkerClient:
        return self._clients[self._worker_of[shard_id]]

    def _request(self, shard_id: int, message) -> Tuple[int, int]:
        """Send one request; returns ``(request_id, frame_bytes)``."""
        if self._closed:
            raise ProtocolError("session is closed")
        request_id = self._next_id()
        nbytes = self._client(shard_id).send(message, request_id)
        return request_id, nbytes

    def _await(self, shard_id: int, request_id: int,
               timeout: Optional[float] = None):
        return self._client(shard_id).receive(request_id, timeout=timeout)

    # -- ShardTransport surface ------------------------------------------
    @property
    def shard_handles(self) -> Sequence[ProcessShardHandle]:
        return self._handles

    @property
    def gf(self) -> FiniteField:
        return self._gf

    @property
    def workers_alive(self) -> int:
        return sum(1 for c in self._clients if c.process.is_alive())

    def run_all(self, per_shard_updates, dropouts, rng=None, **phase_kwargs):
        """Scatter one round request per shard, then gather every result.

        The caller's ``rng`` cannot cross a process boundary and is
        ignored; online rounds of pooled sessions draw nothing from it,
        and replay sessions use their worker-local spec-seeded stream.
        Every response is drained even when a shard fails, so one bad
        round (e.g. survivors below ``U``) leaves all pipes request-free
        and the transport usable for the next round.
        """
        if self._closed:
            raise ProtocolError("session is closed")
        if len(per_shard_updates) != len(self.specs):
            raise ProtocolError(
                f"expected {len(self.specs)} shard update dicts, got "
                f"{len(per_shard_updates)}"
            )
        offline_dropouts = phase_kwargs.pop("offline_dropouts", None)
        if phase_kwargs:
            raise TransportError(
                "the process transport cannot forward phase kwargs "
                f"{sorted(phase_kwargs)} over the wire"
            )
        t0 = time.perf_counter()
        round_id = next(self._round_ids)
        trace = current_trace()
        pending = []
        bytes_sent = 0
        shm_bytes = 0
        with span("shard_scatter", transport=self.kind):
            for shard_id, updates in enumerate(per_shard_updates):
                if self.payload_mode == "shm":
                    request, staged = self._stage_shm_request(
                        shard_id, round_id, updates, dropouts,
                        offline_dropouts,
                    )
                    shm_bytes += staged
                else:
                    request = ShardRoundRequest.from_updates(
                        shard_id, round_id, updates, dropouts,
                        offline_dropouts,
                        packed=self.wire_format == "packed",
                    )
                if trace is not None:
                    request.trace_id = trace.trace_id
                request_id, nbytes = self._request(shard_id, request)
                bytes_sent += nbytes
                pending.append((shard_id, request_id))

        results: List[Optional[AggregationResult]] = []
        error: Optional[ErrorFrame] = None
        stalled_shards = 0
        bytes_received = 0
        with span("shard_gather", transport=self.kind):
            for shard_id, request_id in pending:
                message, nbytes = self._await(shard_id, request_id)
                bytes_received += nbytes
                if isinstance(message, ErrorFrame):
                    error = error if error is not None else message
                    results.append(None)
                    continue
                handle = self._handles[shard_id]
                handle._absorb(message.pool_level, message.stats)
                stalled_shards += int(message.stalled)
                _absorb_worker_span(
                    trace, shard_id, message.worker_span, self.kind
                )
                result = message.to_result()
                if message.aggregate_ref is not None:
                    # The aggregate aliases this shard's response region,
                    # which the next round will overwrite — detach it.
                    shm_bytes += result.aggregate.nbytes
                    result.aggregate = np.array(result.aggregate)
                results.append(result)
        if self._metrics is not None:
            # Per-request accounting: only this round's own frames count,
            # not concurrent background-refill traffic on the same pipes.
            self._metrics.record_transport_round(
                self.kind,
                time.perf_counter() - t0,
                bytes_sent=bytes_sent,
                bytes_received=bytes_received,
                stalled_shards=stalled_shards,
                shm_bytes=shm_bytes,
            )
        if error is not None:
            error.raise_()
        return results

    def _stage_shm_request(
        self, shard_id, round_id, updates, dropouts, offline_dropouts
    ) -> Tuple[ShardRoundRequest, int]:
        """Write one shard's update matrix into its arena region and
        build the reference-carrying request; returns staged bytes."""
        assert self._arena is not None
        req_off, resp_off = self._regions[shard_id]
        width = self.specs[shard_id].shard_dim
        user_ids = sorted(updates)
        shape = (len(user_ids), width) if user_ids else (0, 0)
        matrix = self._arena.ndarray(req_off, shape)
        for i, uid in enumerate(user_ids):
            matrix[i] = updates[uid]
        request = ShardRoundRequest(
            shard_id=shard_id,
            round_id=round_id,
            user_ids=user_ids,
            updates=matrix,
            dropouts=set(dropouts),
            offline_dropouts=set(offline_dropouts or set()),
            updates_ref=ShmArrayRef(
                name=self._arena.name, offset=req_off, shape=shape
            ),
            result_ref=ShmArrayRef(
                name=self._arena.name, offset=resp_off, shape=(width,)
            ),
        )
        return request, matrix.nbytes

    def drain_all(self, weights, per_shard_updates, recovery_dropouts):
        """Scatter one drain request per shard, then gather every result.

        Drain payloads always ride the pipe (even in shm mode): a drain
        matrix is ``(B, width)`` with ``B <= N`` rows of *buffered*
        deliveries, and the shm arena's request regions are sized for
        the fixed member count at construction — re-keying can grow the
        buffer past them, so the pipe lane is the one that stays correct
        across membership churn.
        """
        if self._closed:
            raise ProtocolError("session is closed")
        if len(per_shard_updates) != len(self.specs):
            raise ProtocolError(
                f"expected {len(self.specs)} shard update slices, got "
                f"{len(per_shard_updates)}"
            )
        t0 = time.perf_counter()
        drain_id = next(self._round_ids)
        trace = current_trace()
        pending = []
        bytes_sent = 0
        with span("shard_scatter", transport=self.kind):
            for shard_id, updates in enumerate(per_shard_updates):
                request = ShardDrainRequest(
                    shard_id=shard_id,
                    drain_id=drain_id,
                    weights=np.asarray(weights, dtype=np.uint64),
                    updates=updates,
                    recovery_dropouts=set(recovery_dropouts),
                    packed=self.wire_format == "packed",
                )
                if trace is not None:
                    request.trace_id = trace.trace_id
                request_id, nbytes = self._request(shard_id, request)
                bytes_sent += nbytes
                pending.append((shard_id, request_id))

        results: List[Optional[AggregationResult]] = []
        error: Optional[ErrorFrame] = None
        stalled_shards = 0
        bytes_received = 0
        with span("shard_gather", transport=self.kind):
            for shard_id, request_id in pending:
                message, nbytes = self._await(shard_id, request_id)
                bytes_received += nbytes
                if isinstance(message, ErrorFrame):
                    error = error if error is not None else message
                    results.append(None)
                    continue
                handle = self._handles[shard_id]
                handle._absorb(message.pool_level, message.stats)
                stalled_shards += int(message.stalled)
                _absorb_worker_span(
                    trace, shard_id, message.worker_span, self.kind
                )
                results.append(message.to_result())
        if self._metrics is not None:
            self._metrics.record_transport_round(
                self.kind,
                time.perf_counter() - t0,
                bytes_sent=bytes_sent,
                bytes_received=bytes_received,
                stalled_shards=stalled_shards,
            )
        if error is not None:
            error.raise_()
        return results

    def rekey_all(self, num_users: int) -> int:
        """Re-key every shard's worker session, then refresh the local
        specs so a later worker restart rebuilds the *new* geometry."""
        if self._closed:
            raise ProtocolError("session is closed")
        pending = [
            (shard_id, self._request(
                shard_id, RekeyRequest(shard_id, num_users)
            )[0])
            for shard_id in range(len(self.specs))
        ]
        invalidated = 0
        error: Optional[ErrorFrame] = None
        for shard_id, request_id in pending:
            message, _ = self._await(shard_id, request_id)
            if isinstance(message, ErrorFrame):
                error = error if error is not None else message
                continue
            invalidated += max(0, -int(message.rounds_added))
            new_spec = replace(self.specs[shard_id], num_users=num_users)
            self.specs[shard_id] = new_spec
            handle = self._handles[shard_id]
            handle.spec = new_spec
            handle._absorb(message.pool_level, message.stats, message.closed)
        if error is not None:
            error.raise_()
        return invalidated

    def refill_all(self, rounds: Optional[int] = None) -> int:
        """Scatter refills to every shard, then join — encodes overlap.

        Every ticket is joined even when one fails, so no response is
        left orphaned in a client's buffer and every handle's pool cache
        is refreshed; the first error re-raises after the drain.
        """
        tickets = [
            (handle, handle.refill_begin(rounds))
            for handle in self._handles
        ]
        added_max = 0
        first_error: Optional[BaseException] = None
        for handle, ticket in tickets:
            try:
                added_max = max(added_max, handle.refill_join(ticket))
            except (ProtocolError, TransportError) as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return added_max

    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        acks = []
        for client in self._clients:
            try:
                request_id = self._next_id()
                client.send(Shutdown(), request_id)
                acks.append((client, request_id))
            except TransportError:
                acks.append((client, None))
        for client, request_id in acks:
            if request_id is not None:
                try:
                    client.receive(request_id, timeout=self.shutdown_timeout_s)
                except TransportError:
                    pass  # fall through to join/terminate
            client.process.join(timeout=self.shutdown_timeout_s)
            if client.process.is_alive():
                client.process.terminate()
                client.process.join(timeout=self.shutdown_timeout_s)
            # Worker exit delivered EOF to the receiver thread; reap it
            # before closing our connection end.
            client.join_receiver(timeout=self.shutdown_timeout_s)
            client.conn.close()
        for handle in self._handles:
            handle.close()
        # Segment teardown strictly after worker teardown: the workers
        # hold attachments, and unlinking first would turn a late round
        # into a crash instead of a clean shutdown error.
        if self._registry is not None:
            self._registry.close()
        if self._arena is not None:
            self._arena.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __del__(self):  # best-effort; daemon workers die with the parent
        try:
            self.close()
        except Exception:
            pass


def build_transport(
    kind: str,
    specs: Sequence[ShardSessionSpec],
    gf: Optional[FiniteField] = None,
    num_workers: Optional[int] = None,
    metrics=None,
    cohort_id: int = 0,
    connect: Optional[Sequence[str]] = None,
    wire_format: str = "raw",
    tracing: bool = True,
) -> ShardTransport:
    """Construct the configured transport backend from shard specs.

    ``connect`` lists ``host:port`` worker addresses for the ``socket``
    backend (shards round-robin across them); the other backends reject
    it, like ``num_workers`` outside ``process``/``shm``.
    ``wire_format="packed"`` bit-packs vector payloads where the peer
    supports it (``inline`` has no wire and ignores it; ``shm`` passes
    vectors by reference, which supersedes packing).  ``tracing=False``
    keeps the socket backend from even *requesting* CAP_ROUND_TRACING,
    so its frames stay byte-identical to the pre-tracing format; the
    local backends need no flag (they only propagate a trace_id when a
    trace is active on the calling thread).
    """
    if kind == "inline":
        return InlineTransport.from_specs(
            specs, gf=gf, metrics=metrics, cohort_id=cohort_id
        )
    if kind == "process":
        return ProcessPoolTransport(
            specs, num_workers=num_workers, metrics=metrics,
            cohort_id=cohort_id, wire_format=wire_format,
        )
    if kind == "shm":
        return ProcessPoolTransport(
            specs, num_workers=num_workers, metrics=metrics,
            cohort_id=cohort_id, wire_format=wire_format,
            payload_mode="shm",
        )
    if kind == "socket":
        # Local import: the socket backend pulls in this module's spec
        # and handle types, so a top-level import would be a cycle.
        from repro.service.socket_transport import SocketTransport

        return SocketTransport(
            specs, connect=connect or (), metrics=metrics,
            cohort_id=cohort_id, wire_format=wire_format, tracing=tracing,
        )
    raise ProtocolError(
        f"unknown transport {kind!r}; expected one of {TRANSPORT_KINDS}"
    )
