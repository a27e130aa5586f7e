"""Standalone shard-worker host: serve shard sessions over TCP.

This is the process a multi-host deployment runs next to each worker
machine's cores (``repro shard-worker --listen host:port``).  It speaks
exactly the :mod:`repro.wire` frames the in-host process backend speaks
over its pipes — the point of the versioned format — reassembled from
the byte stream by :class:`~repro.wire.stream.FrameAssembler` and
written back with vectored sends.

Execution model, per connection (mirroring ``_worker_serve`` in
:mod:`repro.service.transport`, plus what remoteness demands):

* The *receive* thread reads frames and dispatches.  :class:`Ping`
  heartbeats are echoed from here immediately, so connection
  supervision stays live while a slow round — or a slow session build —
  executes.
* A *round* thread serves round, snapshot, and session setup/teardown
  requests in arrival order — the latency-critical path, serialized per
  connection exactly like the process backend's worker main thread.
* A *refill* thread runs pool top-ups, so refills overlap rounds on the
  same connection (the session's pool lock is the only coupling).

Sessions are built *here*, from declarative
:class:`~repro.service.transport.ShardSessionSpec` entries carried by
:class:`~repro.wire.SessionSetup` frames — nothing live ever crosses
the network.  Each spec is bound to a connection-unique *slot* id, and
one connection can host slots for several cohorts at once (the
coordinator side batches all its cohorts' shards over one connection
per address); :class:`~repro.wire.SessionTeardown` releases one
cohort's slots without disturbing the rest.  All responses carry their
request's id, so out-of-order completion across the two serving threads
routes correctly on the coordinator.

A connection's sessions die with it: on EOF, error, or
:class:`~repro.wire.Shutdown`, every session the connection hosts is
closed.  Reconnecting coordinators re-pin by replaying their
``SessionSetup`` (see ``SocketTransport``), which rebuilds identical
sessions from the specs.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.exceptions import TransportError, WireError
from repro.field.arithmetic import FiniteField
from repro.wire import (
    SUPPORTED_CAPABILITIES,
    WorkerSpan,
    ErrorFrame,
    FrameAssembler,
    Ping,
    PoolSnapshot,
    RefillRequest,
    RekeyRequest,
    SessionSetup,
    SessionTeardown,
    SetupAck,
    ShardDrainRequest,
    ShardRoundRequest,
    ShardRoundResult,
    SnapshotRequest,
    Shutdown,
    decode_message,
    encode_segments,
    recv_frames,
    send_segments,
)


_HOSTNAME = socket.gethostname()


def parse_address(text: str) -> Tuple[str, int]:
    """Parse ``host:port`` (host may be empty for all-interfaces)."""
    host, sep, port = text.strip().rpartition(":")
    if not sep or not port.isdigit():
        raise TransportError(
            f"bad address {text!r}; expected host:port (e.g. 127.0.0.1:7000)"
        )
    return host or "0.0.0.0", int(port)


class _Connection:
    """One coordinator connection: its sessions, threads, and send lock."""

    def __init__(self, server: "ShardWorkerServer", sock: socket.socket,
                 peer: str):
        self.server = server
        self.sock = sock
        self.peer = peer
        self.sessions: Dict[int, object] = {}
        self._sessions_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._fields: Dict[int, FiniteField] = {}
        self._round_queue: "queue.Queue" = queue.Queue()
        self._refill_queue: "queue.Queue" = queue.Queue()
        self._closed = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._recv_loop, name=f"shard-host-recv-{peer}",
                daemon=True,
            ),
            threading.Thread(
                target=self._round_loop, name=f"shard-host-round-{peer}",
                daemon=True,
            ),
            threading.Thread(
                target=self._refill_loop, name=f"shard-host-refill-{peer}",
                daemon=True,
            ),
        ]

    def start(self) -> None:
        # Serving threads first: a Shutdown read the instant the recv
        # thread runs joins them, and an unstarted thread cannot be joined.
        recv, *serving = self._threads
        for thread in serving:
            thread.start()
        recv.start()

    # ------------------------------------------------------------------
    def _send(self, message, request_id: int) -> None:
        segments = encode_segments(message, request_id)
        with self._send_lock:
            send_segments(self.sock, segments)

    def _session(self, slot: int):
        with self._sessions_lock:
            session = self.sessions.get(slot)
        if session is None:
            raise TransportError(
                f"no session pinned at slot {slot}; send SessionSetup first"
            )
        return session

    def _snapshot_of(self, slot: int, rounds_added: int = 0) -> PoolSnapshot:
        state = self._session(slot).state_snapshot()
        return PoolSnapshot(
            shard_id=slot,
            pool_level=state["pool_level"],
            pool_size=state["pool_size"],
            rounds_added=rounds_added,
            closed=state["closed"],
            stats=state["stats"],
        )

    # ------------------------------------------------------------------
    # receive thread: dispatch; heartbeats answered here, instantly
    # ------------------------------------------------------------------
    def _recv_loop(self) -> None:
        assembler = FrameAssembler()
        try:
            while not self._closed.is_set():
                try:
                    frames = recv_frames(self.sock, assembler)
                except (EOFError, OSError):
                    return  # coordinator went away; sessions die below
                except WireError:
                    return  # stream desynchronized; nothing sane to say
                for frame in frames:
                    try:
                        if self._dispatch(frame):
                            return  # clean shutdown handshake completed
                    except (OSError, WireError):
                        return  # peer vanished mid-reply / bad frame
        finally:
            self._teardown()

    def _dispatch(self, frame: bytes) -> bool:
        """Route one frame; returns True when the connection should end."""
        request_id, message = decode_message(frame)
        if isinstance(message, Ping):
            self._send(message, request_id)
            return False
        if isinstance(message, Shutdown):
            # Contract matches the process worker: queued work (a refill
            # in flight included) completes and its responses are
            # delivered before the shutdown is acknowledged.
            self._drain_queues()
            self._close_sessions()
            try:
                self._send(Shutdown(), request_id)
            except OSError:
                pass
            return True
        if isinstance(message, RefillRequest):
            self._refill_queue.put((request_id, message))
            return False
        if isinstance(
            message,
            (ShardRoundRequest, ShardDrainRequest, RekeyRequest,
             SnapshotRequest, SessionSetup, SessionTeardown),
        ):
            # Session builds can take seconds at large pool geometries;
            # running them (like rounds) on the serving thread keeps this
            # recv thread free to echo heartbeats, so a slow re-pin is
            # never mistaken for a dead connection.  The enqueue stamp is
            # where a traced round's queue-wait clock starts: the dwell
            # between arrival here and the round thread picking it up is
            # real cross-shard head-of-line blocking.
            self._round_queue.put((request_id, message, time.time()))
            return False
        self._send(
            ErrorFrame.from_exception(
                0,
                TransportError(
                    f"worker host cannot serve {type(message).__name__}"
                ),
            ),
            request_id,
        )
        return False

    def _pin(self, slot: int, spec) -> int:
        modulus = spec.field_modulus
        gf = self._fields.setdefault(modulus, FiniteField(modulus))
        session = spec.build(gf)
        with self._sessions_lock:
            previous = self.sessions.get(slot)
            self.sessions[slot] = session
        if previous is not None:
            previous.close()  # re-pin replaces the slot's session
        return slot

    def _unpin(self, slots: List[int]) -> List[int]:
        released = []
        for slot in slots:
            with self._sessions_lock:
                session = self.sessions.pop(slot, None)
            if session is not None:
                session.close()
                released.append(slot)
        return released

    # ------------------------------------------------------------------
    # serving threads
    # ------------------------------------------------------------------
    def _round_loop(self) -> None:
        while True:
            item = self._round_queue.get()
            if item is None:
                return
            request_id, message, enqueued_at = item
            try:
                if isinstance(message, SessionSetup):
                    slots = [
                        self._pin(slot, spec)
                        for slot, spec in message.entries
                    ]
                    # Capability negotiation: grant the intersection of
                    # what the coordinator asked for and what this server
                    # was built to speak (capabilities=0 emulates an old
                    # worker — the coordinator then falls back to raw).
                    self._send(
                        SetupAck(
                            slots,
                            capabilities=(
                                message.capabilities
                                & self.server.capabilities
                            ),
                        ),
                        request_id,
                    )
                    continue
                if isinstance(message, SessionTeardown):
                    self._send(
                        SetupAck(self._unpin(message.slots)), request_id
                    )
                    continue
                if isinstance(message, SnapshotRequest):
                    self._send(self._snapshot_of(message.shard_id), request_id)
                    continue
                if isinstance(message, RekeyRequest):
                    session = self._session(message.shard_id)
                    if not hasattr(session, "rekey"):
                        raise TransportError(
                            f"slot {message.shard_id} session does not "
                            "support re-keying"
                        )
                    invalidated = session.rekey(message.num_users)
                    self._send(
                        self._snapshot_of(
                            message.shard_id, rounds_added=-invalidated
                        ),
                        request_id,
                    )
                    continue
                if isinstance(message, ShardDrainRequest):
                    session = self._session(message.shard_id)
                    if not hasattr(session, "drain"):
                        raise TransportError(
                            f"slot {message.shard_id} session does not "
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
                                0.0, compute_start - enqueued_at
                            ),
                            compute_start_unix=compute_start,
                            compute_seconds=time.time() - compute_start,
                        )
                    after = session.state_snapshot()
                    self._send(
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
                    continue
                session = self._session(message.shard_id)
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
                            0.0, compute_start - enqueued_at
                        ),
                        compute_start_unix=compute_start,
                        compute_seconds=time.time() - compute_start,
                    )
                after = session.state_snapshot()
                self._send(
                    ShardRoundResult.from_result(
                        message.shard_id,
                        message.round_id,
                        result,
                        stalled=stalled,
                        pool_level=after["pool_level"],
                        stats=after["stats"],
                        # mirror the request's encoding: packed replies
                        # only to peers that sent packed requests
                        packed=message.packed,
                        worker_span=worker_span,
                    ),
                    request_id,
                )
            except OSError:
                return  # peer gone mid-response
            except Exception as exc:  # noqa: BLE001 - forwarded to peer
                self._send_error(
                    getattr(message, "shard_id", 0), exc, request_id
                )

    def _refill_loop(self) -> None:
        while True:
            item = self._refill_queue.get()
            if item is None:
                return
            request_id, message = item
            try:
                session = self._session(message.shard_id)
                added = session.refill(message.rounds)
                self._send(
                    self._snapshot_of(message.shard_id, rounds_added=added),
                    request_id,
                )
            except OSError:
                return
            except Exception as exc:  # noqa: BLE001 - forwarded to peer
                self._send_error(message.shard_id, exc, request_id)

    def _send_error(self, slot: int, exc: BaseException,
                    request_id: int) -> None:
        try:
            self._send(ErrorFrame.from_exception(slot, exc), request_id)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _drain_queues(self) -> None:
        """Stop both serving threads after their queued work completes."""
        self._round_queue.put(None)
        self._refill_queue.put(None)
        for thread in self._threads[1:]:
            if thread is not threading.current_thread():
                thread.join()

    def _close_sessions(self) -> None:
        with self._sessions_lock:
            sessions, self.sessions = dict(self.sessions), {}
        for session in sessions.values():
            session.close()

    def _teardown(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        self._round_queue.put(None)
        self._refill_queue.put(None)
        self._close_sessions()
        try:
            self.sock.close()
        except OSError:
            pass
        self.server._forget(self)

    def close(self) -> None:
        """Abrupt close from the server side (stop / restart)."""
        self._closed.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        self._round_queue.put(None)
        self._refill_queue.put(None)


class ShardWorkerServer:
    """A TCP shard-worker host: ``repro shard-worker --listen host:port``.

    Tests (and single-host demos) run it in-process::

        with ShardWorkerServer("127.0.0.1", 0) as server:
            config = ServiceConfig(
                transport=TransportKind.SOCKET, connect=(server.address,),
                ...,
            )

    ``port=0`` binds an ephemeral port, published via :attr:`address`.
    ``stop()`` is abrupt by design — it models the worker being killed —
    so coordinator reconnect/re-pin paths can be exercised by stopping
    one server and starting another on the same address.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        capabilities: int = SUPPORTED_CAPABILITIES,
    ):
        # Wire capabilities this host advertises; ``capabilities=0``
        # emulates a pre-negotiation worker for mixed-version tests.
        self.capabilities = int(capabilities)
        # create_server sets SO_REUSEADDR on POSIX, so a restarted worker
        # can rebind the same port immediately (the kill/restart story).
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._connections: List[_Connection] = []
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def connection_count(self) -> int:
        with self._lock:
            return len(self._connections)

    def start(self) -> "ShardWorkerServer":
        if self._accept_thread is not None:
            return self
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"shard-host-accept-{self.port}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener shut down by stop()
            if self._stopped.is_set():
                # stop() raced the accept: this connection must not be
                # served by a half-dead server.
                sock.close()
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(self, sock, f"{peer[0]}:{peer[1]}")
            with self._lock:
                self._connections.append(connection)
            connection.start()

    def _forget(self, connection: _Connection) -> None:
        with self._lock:
            if connection in self._connections:
                self._connections.remove(connection)

    def stop(self) -> None:
        """Close the listener and kill every connection (idempotent)."""
        self._stopped.set()
        try:
            # close() alone does not wake a thread blocked in accept()
            # (the syscall pins the kernel socket, which would keep
            # silently accepting into the backlog); shutdown() does.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def serve_forever(self, poll_s: float = 0.2,
                      max_seconds: Optional[float] = None) -> None:
        """Block until :meth:`stop` (or ``max_seconds``); for the CLI."""
        import time

        self.start()
        deadline = None if max_seconds is None else (
            time.monotonic() + max_seconds
        )
        while not self._stopped.wait(poll_s):
            if deadline is not None and time.monotonic() >= deadline:
                self.stop()
                return

    def __enter__(self) -> "ShardWorkerServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
