"""Multi-round LightSecAgg sessions with an amortized offline phase.

The paper's central systems claim is that mask encoding and sharing is an
*offline* phase: it involves no model data, so it can be precomputed and
pipelined away from the online aggregation path.  A
:class:`LightSecAggSession` makes that concrete.  Users and the server
persist across rounds, and the session maintains a **pool** of precomputed
offline material — for each pooled round, every user's mask ``z_i`` and the
full ``N x N`` grid of coded shares ``[~z_i]_j``.  The pool is filled
``K`` rounds at a time with a single batched field matmul
(:meth:`repro.coding.mask_encoding.MaskEncoder.encode_batch` over ``K*N``
masks), and online rounds just drain it: the per-round critical path is
masking, upload, aggregate-share summation, and one MDS decode.

Per-round transcripts therefore contain only ``upload`` and ``recovery``
traffic; the offline traffic is accounted once per refill in
:attr:`LightSecAggSession.offline_transcript`, which is exactly the
amortization story (the bytes still cross the network, but off the online
critical path).

:class:`EncryptedLightSecAggSession` additionally persists the
Diffie-Hellman channel mesh across the whole session — key agreement
happens once, and each refill seals a user's ``K`` future shares for a
given peer in a single authenticated one-time-pad message relayed through
the server.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Set, Tuple

import numpy as np

from repro.crypto.channels import SecureChannel
from repro.exceptions import DropoutError, ProtocolError
from repro.coding.mask_encoding import MaskEncoder
from repro.obs import span
from repro.protocols.base import (
    SERVER,
    AggregationResult,
    ProtocolSession,
    RoundMetrics,
    Transcript,
)


@dataclass
class OfflineMaterial:
    """One pooled round of offline state for all ``N`` users.

    ``masks[i]`` is user ``i``'s mask ``z_i``; ``coded[i, j]`` is the coded
    share ``[~z_i]_j`` held by user ``j``.
    """

    masks: np.ndarray  # (N, model_dim)
    coded: np.ndarray  # (N_source, N_holder, share_dim)


def precompute_offline_pool(
    encoder: MaskEncoder,
    rounds: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw and encode ``rounds`` rounds of masks for all users at once.

    Returns ``(masks, coded)`` with shapes ``(rounds, N, model_dim)`` and
    ``(rounds, N_source, N_holder, share_dim)``; all ``rounds * N`` masks
    go through a single batched generator matmul.  Shared by the protocol-
    level and system-level sessions, which differ only in how they account
    the cost (wall clock vs simulated background span).
    """
    n = encoder.num_users
    masks = encoder.gf.random((rounds * n, encoder.model_dim), rng)
    coded = encoder.encode_batch(masks, rng)
    return (
        masks.reshape(rounds, n, encoder.model_dim),
        coded.reshape(rounds, n, n, encoder.share_dim),
    )


class LightSecAggSession(ProtocolSession):
    """Pooled multi-round session for LightSecAgg (and its subclasses).

    Pool access is thread-safe for the service-layer concurrency contract:
    one consumer thread draining rounds while one background refiller
    tops the pool up (see :class:`repro.service.refill.BackgroundRefiller`).
    """

    def __init__(self, protocol, pool_size=4, rng=None, low_water=0):
        super().__init__(protocol, pool_size=pool_size, rng=rng, low_water=low_water)
        self.params = protocol.params
        self.model_dim = protocol.model_dim
        self.encoder = MaskEncoder(
            protocol.gf,
            num_users=self.params.num_users,
            target_survivors=self.params.target_survivors,
            privacy=self.params.privacy,
            model_dim=self.model_dim,
            generator=protocol.generator,
        )
        self.offline_transcript = Transcript()
        self._pool: Deque[OfflineMaterial] = deque()

    # ------------------------------------------------------------------
    @property
    def pool_level(self) -> int:
        return len(self._pool)

    @property
    def supports_pool(self) -> bool:
        return True

    def offline_elements(self) -> int:
        with self._pool_lock:
            return self.offline_transcript.elements(phase="offline")

    def refill(self, rounds: Optional[int] = None) -> int:
        """Precompute offline material for ``rounds`` future rounds.

        Defaults to topping the pool back up to ``pool_size``.  All
        ``rounds * N`` masks are encoded in one batched matmul.  Refills
        are serialized under ``_refill_lock`` (the offline rng is not
        thread-safe); the expensive encode runs outside ``_pool_lock`` so
        a concurrent consumer can keep draining already-pooled rounds.
        """
        self._require_open()
        with self._refill_lock:
            if rounds is None:
                with self._pool_lock:
                    rounds = self.pool_size - len(self._pool)
            if rounds <= 0:
                return 0
            start = time.perf_counter()
            # Traced only when a round trace is active on this thread
            # (an inline refill-on-miss); background-refiller threads
            # carry no trace and pay one thread-local read.
            with span("mask_encode", rounds=str(rounds)):
                masks, coded = precompute_offline_pool(
                    self.encoder, rounds, self.rng
                )
            batch_transcript = Transcript()
            coded = self._deliver_shares(coded, batch_transcript)
            material = [OfflineMaterial(masks[k], coded[k]) for k in range(rounds)]
            with self._pool_lock:
                # Material and its traffic accounting land atomically, so
                # a concurrent ``offline_elements`` reader never observes
                # a half-recorded refill.
                self._pool.extend(material)
                self.offline_transcript.messages.extend(
                    batch_transcript.messages
                )
                self.stats.refills += 1
                self.stats.precomputed_rounds += rounds
                self.stats.refill_seconds += time.perf_counter() - start
        return rounds

    def _take_material(self) -> OfflineMaterial:
        """Draw one round of offline material, refilling inline on a miss.

        A pool hit pops under ``_pool_lock`` and never blocks on encoding.
        A miss is the stall the service layer's
        :class:`~repro.service.refill.BackgroundRefiller` exists to avoid:
        the consumer must run a synchronous refill on the online path.  A
        concurrent background refill may land between the miss and our own
        ``refill`` call — in that case ``refill`` computes a zero top-up
        and the loop simply pops the freshly delivered material.
        """
        with self._pool_lock:
            if self._pool:
                self.stats.pool_hits += 1
                return self._pool.popleft()
            self.stats.pool_misses += 1
        while True:
            with span("offline_refill", inline="miss"):
                self.refill()
            with self._pool_lock:
                if self._pool:
                    return self._pool.popleft()

    def _deliver_shares(
        self, coded: np.ndarray, transcript: Transcript
    ) -> np.ndarray:
        """Record one refill batch's share-exchange traffic in ``transcript``.

        ``coded`` has shape ``(rounds, N_source, N_holder, share_dim)``.
        The base session models the paper's abstract secure transport: the
        whole batch of a source's shares for one holder travels as a
        single message of ``rounds * share_dim`` elements (element totals
        match the one-shot path exactly; only the message granularity is
        coarser).  Messages go to the supplied per-batch transcript —
        ``refill`` merges them into :attr:`offline_transcript` under the
        pool lock — and the material is returned as held by the
        recipients (identical here; the encrypted subclass routes it
        through sealed channels).
        """
        rounds, n = coded.shape[0], coded.shape[1]
        share_dim = coded.shape[3]
        for i in range(n):
            for j in range(n):
                if i != j:
                    transcript.record(i, j, "offline", rounds * share_dim)
        return coded

    # ------------------------------------------------------------------
    def run_round(
        self,
        updates: Dict[int, np.ndarray],
        dropouts: Set[int],
        rng: Optional[np.random.Generator] = None,
        offline_dropouts: Optional[Set[int]] = None,
    ) -> AggregationResult:
        """One online round served from the pool.

        Semantics match the one-shot
        :meth:`~repro.protocols.lightsecagg.protocol.LightSecAgg.run_round`
        exactly: same worst-case dropout point, same survivor rules, and a
        bit-identical field-sum (the aggregate is the exact sum of the
        surviving users' updates regardless of which masks were drawn).
        An empty pool triggers a synchronous inline refill (a pool miss).
        """
        self._require_open()
        offline_dropouts = set(offline_dropouts or set())
        survivors = self.protocol._validate_round_inputs(
            updates, set(dropouts) | offline_dropouts
        )
        u = self.params.target_survivors
        if len(survivors) < u:
            raise DropoutError(
                f"session round {self.stats.rounds}: only {len(survivors)} "
                f"survivors remain, need U={u} to recover the aggregate mask"
            )
        material = self._take_material()

        gf = self.gf
        n = self.num_users
        share_dim = self.encoder.share_dim
        transcript = Transcript()

        # Online phase 1 — masked uploads.  Worst case: everyone who made
        # it through the offline phase uploads, including users about to
        # drop; offline dropouts never upload at all.
        live = [i for i in range(n) if i not in offline_dropouts]
        # One stack of the raw updates; ``gf.add`` checks (and only if
        # needed reduces) the whole block at once.  Updates whose dtypes
        # do not stack to an integer array are converted one by one.
        stacked = np.stack([np.asarray(updates[i]) for i in live], axis=0)
        if not np.issubdtype(stacked.dtype, np.integer):
            stacked = np.stack([gf.array(updates[i]) for i in live], axis=0)
        masked = gf.add(stacked, material.masks[live])
        for i in live:
            transcript.record(i, SERVER, "upload", self.model_dim)

        # Online phase 2 — one-shot aggregate-mask recovery from the first
        # U survivors (lowest ids, matching the one-shot path).
        responders = survivors[:u]
        grid = material.coded[np.ix_(survivors, responders)]  # (S, U, dim)
        agg_shares = gf.sum(grid, axis=0)  # (U, share_dim)
        for j in responders:
            transcript.record(j, SERVER, "recovery", share_dim)
        agg_mask = self.encoder.decode_aggregate(
            {j: agg_shares[r] for r, j in enumerate(responders)}
        )

        row_of = {i: r for r, i in enumerate(live)}
        masked_sum = gf.sum(
            masked[[row_of[i] for i in survivors]], axis=0
        )
        aggregate = gf.sub(masked_sum, agg_mask)

        metrics = RoundMetrics(
            server_decode_ops=u * u * share_dim,
            server_prg_elements=0,
            # Online rounds do no mask encoding; the amortized cost lives
            # in the refill and is surfaced via ``extra``.
            user_encode_ops=0,
            extra={
                "pool_level": float(len(self._pool)),
                "amortized_encode_ops": float(n * u * share_dim),
            },
        )
        self.stats.rounds += 1
        return AggregationResult(
            aggregate=aggregate,
            survivors=survivors,
            transcript=transcript,
            metrics=metrics,
        )


class EncryptedLightSecAggSession(LightSecAggSession):
    """Pooled session with a persistent DH channel mesh.

    Key agreement runs once when the session opens; every refill seals
    each (source, holder) pair's shares for the whole batch in one
    authenticated message, relayed through the server.  The per-round
    online path is identical to the base session.
    """

    def __init__(self, protocol, pool_size=4, rng=None, low_water=0):
        super().__init__(
            protocol, pool_size=pool_size, rng=rng, low_water=low_water
        )
        n = self.num_users
        keypairs = [protocol.dh.generate_keypair(self.rng) for _ in range(n)]
        for i in range(n):
            self.offline_transcript.record(
                i, SERVER, "offline", 1, is_key_sized=True
            )
            self.offline_transcript.record(
                SERVER, i, "offline", n - 1, is_key_sized=True
            )
        self._channels: Dict[Tuple[int, int], SecureChannel] = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    key = protocol.dh.agree(
                        keypairs[i].secret, keypairs[j].public
                    )
                    self._channels[(i, j)] = SecureChannel(
                        self.gf, key, sender=i, receiver=j
                    )

    def _deliver_shares(
        self, coded: np.ndarray, transcript: Transcript
    ) -> np.ndarray:
        """Seal every source->holder share batch and relay it via server."""
        rounds, n = coded.shape[0], coded.shape[1]
        share_dim = coded.shape[3]
        delivered = coded.copy()
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue  # own share never leaves the device
                flat = coded[:, i, j, :].reshape(-1)
                sealed = self._channels[(i, j)].seal(flat)
                # user -> server -> peer; both hops carry the whole batch.
                transcript.record(i, SERVER, "offline", rounds * share_dim)
                transcript.record(SERVER, j, "offline", rounds * share_dim)
                opened = self._channels[(i, j)].open(sealed)
                delivered[:, i, j, :] = opened.reshape(rounds, share_dim)
        return delivered

    def run_round(
        self,
        updates: Dict[int, np.ndarray],
        dropouts: Set[int],
        rng: Optional[np.random.Generator] = None,
        offline_dropouts: Optional[Set[int]] = None,
    ) -> AggregationResult:
        if offline_dropouts:
            raise NotImplementedError(
                "offline dropouts are modelled by the base protocol; the "
                "encrypted variant covers the worst-case dropout point only"
            )
        return super().run_round(updates, dropouts, rng)
