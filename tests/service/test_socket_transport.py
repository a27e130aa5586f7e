"""SocketTransport: localhost parity, supervision, reconnect/re-pin.

The acceptance criteria pinned here:

* rounds driven through ``SocketTransport`` (sessions behind TCP
  connections to a ``ShardWorkerServer``, spoken to in reassembled wire
  frames) are **bit-identical** to ``InlineTransport`` across mixed
  dropout / offline-dropout patterns — at session level and through the
  full ``AggregationService`` stack;
* a worker lost mid-round surfaces as :class:`TransportError` (never a
  hang), and a **killed-then-restarted** worker is re-pinned from its
  specs with the service completing subsequent rounds;
* one connection batches several cohorts' shards (slots), and tearing
  one cohort down leaves its neighbours serving.
"""

import time

import numpy as np
import pytest

from repro.exceptions import DropoutError, ProtocolError, ReproError, TransportError
from repro.service import (
    AggregationService,
    BackgroundRefiller,
    InlineTransport,
    RefillMode,
    ServiceConfig,
    ShardPlan,
    ShardSessionSpec,
    ShardWorkerServer,
    ShardedSession,
    SocketTransport,
    TransportKind,
    WireFormat,
    build_transport,
)

N, DIM, SHARDS = 8, 37, 3

# Sub-second supervision knobs so dead-worker tests resolve quickly.
FAST = dict(heartbeat_interval_s=0.1, heartbeat_timeout_s=2.0)


def make_specs(shards=SHARDS, dim=DIM, pool_size=3, low_water=1,
               protocol="lightsecagg", seed=0):
    plan = ShardPlan(dim, shards)
    return plan, [
        ShardSessionSpec(
            protocol=protocol,
            num_users=N,
            shard_dim=plan.widths[s],
            privacy=2,
            dropout_tolerance=2,
            pool_size=pool_size,
            low_water=low_water,
            seed=(seed, 0, s),
        )
        for s in range(shards)
    ]


def mixed_dropout_rounds(gf, rounds=6, seed=11):
    """A deterministic stream of (updates, dropouts, offline_dropouts)."""
    rng = np.random.default_rng(seed)
    for r in range(rounds):
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        dropouts = set(
            rng.choice(N, size=int(rng.integers(0, 3)), replace=False).tolist()
        )
        offline = {int(rng.integers(0, N))} if r % 3 == 2 else set()
        yield updates, dropouts, offline - dropouts


def wait_for(predicate, timeout_s=10.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture
def server():
    server = ShardWorkerServer().start()
    yield server
    server.stop()


@pytest.fixture
def socket_session(server):
    plan, specs = make_specs()
    transport = SocketTransport(specs, connect=[server.address], **FAST)
    session = ShardedSession(plan, transport=transport)
    yield session, transport
    transport.close()


class TestSocketInlineBitIdentity:
    def test_rounds_bit_identical_across_mixed_dropouts(self, gf,
                                                        socket_session):
        """Aggregate, survivors, transcript, and pool dynamics all match."""
        remote, _ = socket_session
        plan, specs = make_specs()
        inline = ShardedSession(
            plan, transport=InlineTransport.from_specs(specs, gf=gf)
        )
        for updates, dropouts, offline in mixed_dropout_rounds(gf):
            kwargs = {"offline_dropouts": offline} if offline else {}
            got = remote.run_round(updates, set(dropouts), **kwargs)
            want = inline.run_round(updates, set(dropouts), **kwargs)
            assert got.survivors == want.survivors
            assert np.array_equal(got.aggregate, want.aggregate)
            assert len(got.transcript) == len(want.transcript)
            for phase in ("offline", "upload", "recovery"):
                assert got.transcript.elements(
                    phase=phase
                ) == want.transcript.elements(phase=phase)
            assert got.metrics.server_decode_ops == want.metrics.server_decode_ops
            assert got.metrics.extra == want.metrics.extra
        for counter in ("rounds", "refills", "pool_hits", "pool_misses",
                        "precomputed_rounds"):
            assert getattr(remote.stats, counter) == getattr(
                inline.stats, counter
            ), counter  # refill_seconds is wall-clock, not a count
        assert remote.pool_level == inline.pool_level
        inline.close()

    def test_shards_round_robin_across_two_workers(self, gf, server):
        """Multiple --connect addresses: same results, work spread out."""
        with ShardWorkerServer() as second:
            plan, specs = make_specs()
            transport = SocketTransport(
                specs, connect=[server.address, second.address], **FAST
            )
            assert transport.num_workers == 2
            remote = ShardedSession(plan, transport=transport)
            inline = ShardedSession(
                plan, transport=InlineTransport.from_specs(specs, gf=gf)
            )
            try:
                for updates, dropouts, _ in mixed_dropout_rounds(gf, rounds=3):
                    got = remote.run_round(updates, set(dropouts))
                    want = inline.run_round(updates, set(dropouts))
                    assert got.survivors == want.survivors
                    assert np.array_equal(got.aggregate, want.aggregate)
                assert server.connection_count == 1
                assert second.connection_count == 1
            finally:
                transport.close()
                inline.close()

    def test_service_level_parity_all_backends(self, gf, server):
        """The full service stack: inline/socket x sync/background."""
        outputs = {}
        for kind in (TransportKind.INLINE, TransportKind.SOCKET):
            for mode in (RefillMode.SYNC, RefillMode.BACKGROUND):
                cfg = ServiceConfig(
                    num_cohorts=1,
                    num_users=N,
                    model_dim=DIM,
                    num_shards=2,
                    pool_size=3,
                    low_water=0 if mode is RefillMode.SYNC else 1,
                    refill_mode=mode,
                    dropout_tolerance=2,
                    privacy=2,
                    transport=kind,
                    connect=(
                        (server.address,)
                        if kind is TransportKind.SOCKET
                        else None
                    ),
                    seed=5,
                )
                with AggregationService(cfg, gf=gf) as svc:
                    outputs[(kind, mode)] = svc.run_synthetic(
                        rounds=4,
                        dropout_rate=0.2,
                        rng=np.random.default_rng(9),
                    )
        base = outputs[(TransportKind.INLINE, RefillMode.SYNC)]
        for key, results in outputs.items():
            for sweep, base_sweep in zip(results, base):
                assert sweep[0].survivors == base_sweep[0].survivors, key
                assert np.array_equal(
                    sweep[0].aggregate, base_sweep[0].aggregate
                ), key


class TestWorkerLossAndRepin:
    def test_lost_worker_mid_stream_raises_transport_error(self, gf, server,
                                                           socket_session):
        session, transport = socket_session
        rng = np.random.default_rng(0)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        session.run_round(updates, {1})
        # Stop the worker BEFORE cutting the link: with the worker still
        # up, the receiver thread can notice the dead socket and
        # ensure_connected() can legitimately repair it before the next
        # round (designed recovery, but a race against this assertion).
        # With the worker gone every path — send on the dead fd, or a
        # reconnect attempt — must surface as TransportError.
        server.stop()
        sock = transport._clients[0]._sock
        if sock is not None:  # the receiver may already have torn it down
            sock.close()  # the link dies under us
        with pytest.raises(TransportError):
            session.run_round(updates, {1})

    def test_killed_then_restarted_worker_is_repinned(self, gf):
        """Acceptance: after the worker host is killed and a new one
        started on the same address, the next request reconnects, replays
        the SessionSetup (rebuilding sessions from their specs), and the
        service completes subsequent rounds."""
        server = ShardWorkerServer().start()
        cfg = ServiceConfig(
            num_cohorts=1, num_users=N, model_dim=DIM, num_shards=2,
            pool_size=3, low_water=1, refill_mode=RefillMode.SYNC,
            dropout_tolerance=2, privacy=2,
            transport=TransportKind.SOCKET, connect=(server.address,),
            seed=3,
        )
        svc = AggregationService(cfg, gf=gf).start()
        try:
            rng = np.random.default_rng(1)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            svc.run_round(0, updates, {1})

            server.stop()  # the worker is killed
            with pytest.raises((TransportError, ProtocolError)):
                svc.run_round(0, updates, {1})

            restarted = ShardWorkerServer(port=server.port).start()
            try:
                result = svc.run_round(0, updates, {2})
                assert result.survivors == [i for i in range(N) if i != 2]
                expected_cfg_field = svc.status()
                assert expected_cfg_field["transport"]["workers_alive"] == 1
                reconnects = svc.metrics.snapshot()["transports"]["socket"][
                    "reconnects"
                ]
                assert reconnects >= 1
                # And it keeps serving: another full round works too.
                svc.run_round(0, updates, set())
            finally:
                svc.stop()
                restarted.stop()
        finally:
            svc.stop()
            server.stop()

    def test_heartbeat_detects_dead_worker_without_traffic(self, server):
        _, specs = make_specs(shards=1)
        transport = SocketTransport(
            specs, connect=[server.address],
            heartbeat_interval_s=0.05, heartbeat_timeout_s=1.0,
        )
        try:
            client = transport._clients[0]
            assert client.alive
            server.stop()
            # No request is issued; supervision alone must notice.
            assert wait_for(lambda: not client.alive, timeout_s=10.0)
        finally:
            transport.close()

    def test_round_error_propagates_and_connection_stays_usable(self, gf,
                                                                socket_session):
        session, _ = socket_session
        rng = np.random.default_rng(0)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        # Dropping all but one user leaves survivors < U: the worker's
        # DropoutError crosses the wire and re-raises as itself.
        with pytest.raises(DropoutError, match="survivors"):
            session.run_round(updates, set(range(N - 1)))
        result = session.run_round(updates, {1})
        assert result.survivors == [i for i in range(N) if i != 1]

    def test_unsupported_phase_kwargs_rejected(self, gf, socket_session):
        session, _ = socket_session
        rng = np.random.default_rng(0)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        with pytest.raises(TransportError, match="phase kwargs"):
            session.run_round(updates, set(), mystery_kwarg=1)


class TestConnectionBatching:
    def test_two_cohorts_share_one_connection(self, gf, server):
        """Both cohorts' shards ride one TCP connection (distinct slots),
        and closing the service releases it via the Shutdown handshake."""
        cfg = ServiceConfig(
            num_cohorts=2, num_users=N, model_dim=DIM, num_shards=2,
            pool_size=3, low_water=1, refill_mode=RefillMode.BACKGROUND,
            dropout_tolerance=2, privacy=2,
            transport=TransportKind.SOCKET, connect=(server.address,),
            seed=5,
        )
        with AggregationService(cfg, gf=gf) as svc:
            svc.run_synthetic(
                rounds=2, dropout_rate=0.1, rng=np.random.default_rng(2)
            )
            assert server.connection_count == 1  # 2 cohorts x 2 shards
        assert wait_for(lambda: server.connection_count == 0)

    def test_teardown_of_one_cohort_leaves_the_other_serving(self, gf,
                                                             server):
        plan, specs_a = make_specs(seed=0)
        _, specs_b = make_specs(seed=1)
        transport_a = SocketTransport(specs_a, connect=[server.address],
                                      cohort_id=0, **FAST)
        transport_b = SocketTransport(specs_b, connect=[server.address],
                                      cohort_id=1, **FAST)
        session_b = ShardedSession(plan, transport=transport_b)
        try:
            assert server.connection_count == 1
            transport_a.close()  # releases cohort A's slots only
            rng = np.random.default_rng(3)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            result = session_b.run_round(updates, {4})
            assert result.survivors == [i for i in range(N) if i != 4]
            assert server.connection_count == 1  # still shared, still up
        finally:
            transport_b.close()

    def test_background_refiller_drives_socket_handles(self, gf,
                                                       socket_session):
        """The refiller's scatter/gather path keeps remote pools topped."""
        session, transport = socket_session
        session.refill()
        refiller = BackgroundRefiller(poll_interval_s=0.001)
        for handle in transport.shard_handles:
            refiller.register(handle, cohort_id=0)
        with refiller:
            rng = np.random.default_rng(2)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            for _ in range(4):
                session.run_round(updates, set())
                refiller.notify()
                assert refiller.wait_until_idle(timeout=10.0)
            assert session.pool_level >= 2  # topped back above low water
        assert refiller.refills > 0


class TestConnectionStartup:
    def test_shutdown_right_after_setup_is_acknowledged(self, server,
                                                        monkeypatch):
        """A Shutdown arriving with the connection's first bytes joins the
        serving threads; they must already be running.  Delaying the
        round thread's start makes the old recv-first order fail every
        time instead of only when the scheduler loses the race."""
        import socket
        import threading

        from repro.wire import (
            FrameAssembler, SessionSetup, SetupAck, Shutdown,
            decode_message, encode_message, recv_frames,
        )

        real_start = threading.Thread.start

        def slow_round_start(thread):
            if thread.name.startswith("shard-host-round-"):
                time.sleep(0.2)
            real_start(thread)

        errors = []
        monkeypatch.setattr(threading.Thread, "start", slow_round_start)
        monkeypatch.setattr(threading, "excepthook", errors.append)
        _, specs = make_specs(shards=1)
        host, port = server.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                encode_message(SessionSetup([(0, specs[0])]), 1)
                + encode_message(Shutdown(), 2)
            )
            replies, assembler = [], FrameAssembler()
            while len(replies) < 2:
                replies += [decode_message(f)
                            for f in recv_frames(sock, assembler)]
        assert [rid for rid, _ in replies] == [1, 2]
        assert isinstance(replies[0][1], SetupAck)
        assert isinstance(replies[1][1], Shutdown)
        assert wait_for(lambda: server.connection_count == 0)
        assert errors == []


class TestConstructionAndConfig:
    def test_build_transport_dispatch(self, gf, server):
        _, specs = make_specs(shards=1)
        transport = build_transport(
            "socket", specs, gf=gf, connect=[server.address]
        )
        assert isinstance(transport, SocketTransport)
        assert transport.kind == "socket"
        transport.close()

    def test_missing_or_bad_connect_rejected(self, server):
        _, specs = make_specs(shards=1)
        with pytest.raises(ProtocolError, match="worker address"):
            build_transport("socket", specs)
        with pytest.raises(TransportError, match="host:port"):
            SocketTransport(specs, connect=["not-an-address"])
        with pytest.raises(TransportError, match="cannot connect"):
            SocketTransport(specs, connect=["127.0.0.1:1"], **FAST)

    def test_dead_second_address_releases_the_first_connection(self, server):
        """Regression: failing to reach a later --connect address must
        release (not leak) the client already acquired for an earlier
        one — the shared pool would otherwise pin it forever."""
        _, specs = make_specs(shards=2)
        assert wait_for(lambda: server.connection_count == 0)
        with pytest.raises(TransportError, match="cannot connect"):
            SocketTransport(
                specs, connect=[server.address, "127.0.0.1:1"], **FAST
            )
        # The good address's pooled client was refcount-released, which
        # closes it with the Shutdown handshake; the worker sees the
        # connection go away.
        assert wait_for(lambda: server.connection_count == 0)
        # And the address is reusable afterwards (no poisoned pool entry).
        transport = SocketTransport(specs, connect=[server.address], **FAST)
        transport.close()

    def test_service_config_validates_connect(self, server):
        with pytest.raises(ReproError, match="connect"):
            ServiceConfig(transport=TransportKind.SOCKET)
        with pytest.raises(ReproError, match="socket transport"):
            ServiceConfig(connect=("127.0.0.1:7000",))  # inline + connect
        with pytest.raises(ReproError, match="host:port"):
            ServiceConfig(
                transport=TransportKind.SOCKET, connect=("nope",)
            )
        cfg = ServiceConfig(
            transport=TransportKind.SOCKET, connect=(server.address,)
        )
        assert cfg.connect == (server.address,)

    def test_closed_transport_rejects_requests(self, server):
        plan, specs = make_specs(shards=1)
        transport = SocketTransport(specs, connect=[server.address], **FAST)
        transport.close()
        assert transport.closed
        with pytest.raises(ProtocolError, match="closed"):
            transport.shard_handles[0].refill()
        with pytest.raises(ProtocolError, match="closed"):
            ShardedSession(plan, transport=transport).run_round({}, set())
        transport.close()  # idempotent

    def test_socket_transport_validates_wire_format(self, server):
        _, specs = make_specs(shards=1)
        with pytest.raises(ProtocolError, match="wire format"):
            SocketTransport(
                specs, connect=[server.address], wire_format="gzip", **FAST
            )

    def test_naive_replay_shards_over_sockets(self, gf, server):
        plan, specs = make_specs(shards=2, protocol="naive")
        transport = SocketTransport(specs, connect=[server.address], **FAST)
        session = ShardedSession(plan, transport=transport)
        try:
            assert not session.supports_pool
            assert session.refill() == 0
            rng = np.random.default_rng(3)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            result = session.run_round(updates, {2})
            from repro.protocols import NaiveAggregation

            expected = NaiveAggregation(gf, N, DIM).expected_aggregate(
                updates, result.survivors
            )
            assert np.array_equal(result.aggregate, expected)
        finally:
            transport.close()


# ----------------------------------------------------------------------
# quantized + packed end-to-end parity
# ----------------------------------------------------------------------
def _quantized_lane(gf, kind, wire_format, connect=None, rounds=4,
                    seed=21):
    """Run the quantized round path through one transport lane.

    Every lane uses identical rng streams, so quantization (which is
    coordinator-side) produces identical field vectors — any divergence
    in the returned aggregates is the wire's fault.
    """
    cfg = ServiceConfig(
        num_cohorts=1, num_users=N, model_dim=DIM, num_shards=2,
        pool_size=3, low_water=0, refill_mode=RefillMode.SYNC,
        dropout_tolerance=2, privacy=2,
        transport=kind, wire_format=wire_format,
        connect=connect, seed=7,
        # Byte accounting below compares lanes against each other; keep
        # the 8-byte trace_id tail out of it so the numbers measure the
        # element encoding alone (tracing's own wire claims are pinned
        # in tests/obs/test_trace_wire.py).
        tracing=False,
    )
    outputs = []
    with AggregationService(cfg, gf=gf) as svc:
        rng = np.random.default_rng(seed)
        for r in range(rounds):
            real_updates = {
                i: rng.standard_normal(DIM) * 0.25 for i in range(N)
            }
            dropouts = set(
                rng.choice(N, size=int(rng.integers(0, 3)),
                           replace=False).tolist()
            )
            real_agg, result = svc.run_quantized_round(
                0, real_updates, dropouts, rng=rng
            )
            outputs.append(
                (real_agg.tobytes(), result.aggregate.tobytes(),
                 tuple(result.survivors))
            )
        snapshot = svc.metrics.snapshot()["transports"]
    return outputs, snapshot


LANES = [
    pytest.param(TransportKind.INLINE, WireFormat.PACKED, id="inline-packed"),
    pytest.param(TransportKind.PROCESS, WireFormat.RAW, id="process-raw"),
    pytest.param(TransportKind.PROCESS, WireFormat.PACKED,
                 id="process-packed"),
    pytest.param(TransportKind.SOCKET, WireFormat.RAW, id="socket-raw"),
    pytest.param(TransportKind.SOCKET, WireFormat.PACKED,
                 id="socket-packed"),
    pytest.param(TransportKind.SHM, WireFormat.RAW, id="shm"),
]


class TestQuantizedPackedParity:
    """Tentpole acceptance: real model updates quantized into GF(q)
    travel every transport lane — raw, bit-packed, or by shm reference —
    and come back byte-identical to the inline baseline across mixed
    dropout patterns."""

    @pytest.mark.parametrize("kind,wire_format", LANES)
    def test_lane_byte_identical_to_inline_raw(self, gf, server, kind,
                                               wire_format):
        connect = (server.address,) if kind is TransportKind.SOCKET else None
        baseline, _ = _quantized_lane(gf, TransportKind.INLINE,
                                      WireFormat.RAW)
        lane, snapshot = _quantized_lane(gf, kind, wire_format,
                                         connect=connect)
        assert lane == baseline  # real aggregate, field aggregate, survivors
        stats = snapshot[kind.value]
        if kind is TransportKind.SHM:
            # the vector volume rode shared memory, not the pipe
            assert stats["shm_bytes"] > stats["bytes_sent"]
        elif kind is not TransportKind.INLINE:
            assert stats["bytes_sent"] > 0

    def test_packed_lane_sends_fewer_bytes_than_raw(self, gf, server):
        _, raw = _quantized_lane(gf, TransportKind.SOCKET, WireFormat.RAW,
                                 connect=(server.address,))
        _, packed = _quantized_lane(gf, TransportKind.SOCKET,
                                    WireFormat.PACKED,
                                    connect=(server.address,))
        assert packed["socket"]["bytes_sent"] < raw["socket"]["bytes_sent"]
        assert (packed["socket"]["bytes_received"]
                < raw["socket"]["bytes_received"])


class TestMixedVersionInterop:
    """A packed-configured coordinator against a worker that does not
    advertise the capability keeps speaking raw — and the frames it
    sends are byte-identical to a raw-configured coordinator's."""

    def test_old_worker_negotiates_down_to_raw(self, gf, server):
        with ShardWorkerServer(capabilities=0) as old:
            baseline, raw_stats = _quantized_lane(
                gf, TransportKind.SOCKET, WireFormat.RAW,
                connect=(server.address,),
            )
            lane, old_stats = _quantized_lane(
                gf, TransportKind.SOCKET, WireFormat.PACKED,
                connect=(old.address,),
            )
        assert lane == baseline
        # The fallback is not merely correct but byte-identical: the
        # same raw frames a raw-configured coordinator would send.
        assert old_stats["socket"]["bytes_sent"] == raw_stats["socket"][
            "bytes_sent"
        ]
        assert old_stats["socket"]["bytes_received"] == raw_stats["socket"][
            "bytes_received"
        ]

    def test_new_worker_acknowledges_only_what_it_supports(self, gf,
                                                           server):
        _, specs = make_specs(shards=1)
        transport = SocketTransport(
            specs, connect=[server.address], wire_format="packed", **FAST
        )
        try:
            from repro.wire import CAP_PACKED_ARRAYS

            client = transport._clients[0]
            assert client.supports(CAP_PACKED_ARRAYS)
        finally:
            transport.close()
