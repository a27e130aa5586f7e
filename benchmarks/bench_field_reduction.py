"""Field-layer reduction-kernel benchmark: division-free vs np.mod.

Sweeps every reduction kernel available for each modulus (Mersenne
shift-fold for ``2**31 - 1``, Barrett for any ``q < 2**32``, and the
``np.mod`` integer-division oracle that preserves the pre-reducer code
path) over the four workloads that dominate the service:

* **elementwise** — one full reduction of 1M uniform uint64 words (the
  PRG rejection-sampling tail and every ``mul``/``sum`` call site);
* **matmul** — the refill-shape generator product
  ``(64, 48) @ (48, 1M)``, which is where the offline pool spends its
  time; the division-free kernels additionally unlock the exact
  limb-split float64 BLAS path, so this row measures the whole kernel
  swap, not just the reduction;
* **encode_batch** — ``MaskEncoder.encode_batch`` end to end at a
  64-user cohort, reported as encoded mask elements per second;
* **online_round** — one pooled ``LightSecAggSession.run_round`` at
  N=16, d=65536, T=D=2 with one dropout: the online path a coordinator
  serves per request, which is mostly elementwise add/sub/sum over
  canonical residues.  The pool is refilled outside the timed window.

Emits ``benchmarks/results/field_reduction.json`` and echoes a table.
Every lane hashes its outputs; the report's ``bit_identical`` flags
assert the kernels agree byte for byte before any timing is trusted.

``--quick`` shrinks the widths for smoke runs; ``--check`` runs the
CI acceptance gate only and exits nonzero on failure: the selected
kernel must beat the ``np.mod`` oracle on the refill-shape matmul, and
be no slower than it on the online round (best of reps, within the
printed ``ONLINE_TOLERANCE``).
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from _report import RESULTS_DIR
from repro.coding.mask_encoding import MaskEncoder
from repro.field import (
    DEFAULT_PRIME,
    PAPER_PRIME,
    FiniteField,
    available_reducer_kinds,
    select_reducer,
)
from repro.protocols.lightsecagg import LightSecAgg, LSAParams

MODULI = {"default_2^31-1": DEFAULT_PRIME, "paper_2^32-5": PAPER_PRIME}

# Refill-shape generator product: N=64 users x U=48 survivor columns,
# against a 1M-wide block of pool material.
REFILL_M, REFILL_K = 64, 48
REFILL_WIDTH = 1_000_000
QUICK_WIDTH = 65_536
CHECK_WIDTH = 262_144

ELEMWISE_N = 1_000_000

ENC_USERS, ENC_SURVIVORS, ENC_PRIVACY = 64, 48, 8
ENC_MODEL_DIM = 65_536
ENC_BATCH = 8

ROUND_USERS, ROUND_PRIVACY, ROUND_DROPOUT = 16, 2, 2
ROUND_MODEL_DIM = 65_536
ROUND_DROPPED = {5}
#: ``--check`` fails the online-round lane when the selected kernel's
#: best time exceeds the oracle's by more than this fraction; best-of-
#: reps timings on a shared host wobble by a few percent.
ONLINE_TOLERANCE = 0.05


def _best_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_elementwise(q, kind, reps):
    red = select_reducer(q, kind)
    rng = np.random.default_rng(1)
    x = rng.integers(0, (1 << 64) - 1, size=ELEMWISE_N, dtype=np.uint64)
    out = np.empty_like(x)
    seconds = _best_of(lambda: red.reduce(x, out=out), reps)
    return {
        "seconds": seconds,
        "melems_per_second": ELEMWISE_N / seconds / 1e6,
        "sha256": hashlib.sha256(out.tobytes()).hexdigest(),
    }


def bench_matmul(q, kind, width, reps):
    gf = FiniteField(q, reducer=kind)
    rng = np.random.default_rng(2)
    a = gf.random((REFILL_M, REFILL_K), rng)
    b = gf.random((REFILL_K, width), rng)
    out = gf.matmul(a, b)  # warm (and hashed for the identity check)
    seconds = _best_of(lambda: gf.matmul(a, b), reps)
    return {
        "shape": [REFILL_M, REFILL_K, width],
        "seconds": seconds,
        "melems_per_second": REFILL_M * width / seconds / 1e6,
        "sha256": hashlib.sha256(out.tobytes()).hexdigest(),
    }


def bench_encode_batch(q, kind, model_dim, reps):
    gf = FiniteField(q, reducer=kind)
    enc = MaskEncoder(
        gf,
        num_users=ENC_USERS,
        target_survivors=ENC_SURVIVORS,
        privacy=ENC_PRIVACY,
        model_dim=model_dim,
    )
    masks = gf.random((ENC_BATCH, model_dim), np.random.default_rng(3))
    pad_rng = lambda: np.random.default_rng(4)  # noqa: E731 - fixed padding
    coded = enc.encode_batch(masks, pad_rng())
    seconds = _best_of(lambda: enc.encode_batch(masks, pad_rng()), reps)
    return {
        "batch": ENC_BATCH,
        "model_dim": model_dim,
        "seconds": seconds,
        "melems_per_second": ENC_BATCH * model_dim / seconds / 1e6,
        "sha256": hashlib.sha256(coded.tobytes()).hexdigest(),
    }


def bench_online_round(q, kind, model_dim, reps):
    gf = FiniteField(q, reducer=kind)
    params = LSAParams.from_guarantees(
        ROUND_USERS, ROUND_PRIVACY, ROUND_DROPOUT
    )
    session = LightSecAgg(gf, params, model_dim).session(
        pool_size=1, rng=np.random.default_rng(5)
    )
    rng = np.random.default_rng(6)
    updates = {i: gf.random(model_dim, rng) for i in range(ROUND_USERS)}
    digest = hashlib.sha256()
    times = []
    for _ in range(reps + 1):  # the first round only warms caches
        session.refill(1)  # offline material, outside the timed window
        t0 = time.perf_counter()
        result = session.run_round(updates, ROUND_DROPPED)
        times.append(time.perf_counter() - t0)
        digest.update(result.aggregate.tobytes())
    session.close()
    best = min(times[1:])
    return {
        "users": ROUND_USERS,
        "model_dim": model_dim,
        "seconds": best,
        "rounds_per_second": 1.0 / best,
        "sha256": digest.hexdigest(),
    }


WORKLOADS = ("elementwise", "matmul", "encode_batch", "online_round")


def run_all(width=REFILL_WIDTH, model_dim=ENC_MODEL_DIM,
            round_dim=ROUND_MODEL_DIM, reps=3):
    report = {
        "benchmark": "field_reduction",
        "host": {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "geometry": {
            "elementwise_n": ELEMWISE_N,
            "matmul_shape": [REFILL_M, REFILL_K, width],
            "encode_users": ENC_USERS,
            "encode_survivors": ENC_SURVIVORS,
            "encode_privacy": ENC_PRIVACY,
            "encode_batch": ENC_BATCH,
            "encode_model_dim": model_dim,
            "round_users": ROUND_USERS,
            "round_privacy": ROUND_PRIVACY,
            "round_dropout_tolerance": ROUND_DROPOUT,
            "round_model_dim": round_dim,
            "reps": reps,
        },
        "moduli": {},
    }
    for label, q in MODULI.items():
        kinds = available_reducer_kinds(q)
        selected = select_reducer(q).kind
        rows = {}
        for kind in kinds:
            print(f"[{label}] {kind} ...", flush=True)
            rows[kind] = {
                "elementwise": bench_elementwise(q, kind, reps),
                "matmul": bench_matmul(q, kind, width, reps),
                "encode_batch": bench_encode_batch(q, kind, model_dim, reps),
                "online_round": bench_online_round(q, kind, round_dim, reps),
            }
        entry = {"q": q, "selected": selected, "reducers": rows}
        for workload in WORKLOADS:
            entry[f"bit_identical_{workload}"] = (
                len({r[workload]["sha256"] for r in rows.values()}) == 1
            )
            oracle_s = rows["numpy_mod"][workload]["seconds"]
            for kind, r in rows.items():
                r[workload]["speedup_vs_numpy_mod"] = (
                    oracle_s / r[workload]["seconds"]
                )
        report["moduli"][label] = entry
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "field_reduction.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"\n--- field_reduction -> {path} ---")
    for label, entry in report["moduli"].items():
        print(f"q = {entry['q']} ({label}), selected = {entry['selected']}")
        for kind, r in entry["reducers"].items():
            print(
                f"  {kind:10s} "
                f"elementwise {r['elementwise']['melems_per_second']:8.1f} M/s "
                f"({r['elementwise']['speedup_vs_numpy_mod']:5.2f}x)  "
                f"matmul {r['matmul']['seconds']:7.3f} s "
                f"({r['matmul']['speedup_vs_numpy_mod']:5.2f}x)  "
                f"encode {r['encode_batch']['melems_per_second']:6.2f} M/s "
                f"({r['encode_batch']['speedup_vs_numpy_mod']:5.2f}x)  "
                f"round {r['online_round']['seconds'] * 1e3:6.1f} ms "
                f"({r['online_round']['speedup_vs_numpy_mod']:5.2f}x)"
            )
        for workload in WORKLOADS:
            assert entry[f"bit_identical_{workload}"], (label, workload)
    return report


def _gate(name, selected, fast, oracle, fast_enough):
    """Print one ``--check`` lane; passes when fast enough and identical."""
    identical = fast["sha256"] == oracle["sha256"]
    passed = fast_enough and identical
    print(
        f"[{'ok' if passed else 'FAIL'}] {name}: {selected} "
        f"{fast['seconds']:.4f}s vs numpy_mod {oracle['seconds']:.4f}s -> "
        f"{oracle['seconds'] / fast['seconds']:.2f}x, "
        f"bit_identical={identical}"
    )
    return passed


def run_check(width=CHECK_WIDTH, round_reps=7):
    """CI smoke gate, per modulus: the auto-selected kernel must beat the
    oracle on the refill-shape matmul, and be no slower than it (within
    ``ONLINE_TOLERANCE``) on the online round, bit-identically.  Prints
    each measurement; the exit code reports pass/fail."""
    print(f"online_round passes when selected <= numpy_mod * "
          f"{1 + ONLINE_TOLERANCE:.2f} (best of {round_reps} rounds)")
    ok = True
    for label, q in MODULI.items():
        selected = select_reducer(q).kind
        fast = bench_matmul(q, selected, width, reps=2)
        oracle = bench_matmul(q, "numpy_mod", width, reps=2)
        ok &= _gate(f"q={q} ({label}) matmul", selected, fast, oracle,
                    fast["seconds"] < oracle["seconds"])
        fast = bench_online_round(q, selected, ROUND_MODEL_DIM, round_reps)
        oracle = bench_online_round(q, "numpy_mod", ROUND_MODEL_DIM,
                                    round_reps)
        limit = oracle["seconds"] * (1 + ONLINE_TOLERANCE)
        ok &= _gate(f"q={q} ({label}) online_round", selected, fast, oracle,
                    fast["seconds"] <= limit)
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="field reduction-kernel benchmark"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink matmul/encode widths for a fast smoke run",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="run the CI gate only: selected kernel beats np.mod on the "
             "refill-shape matmul and is no slower on the online round; "
             "exits nonzero on failure",
    )
    parser.add_argument("--width", type=int, default=None)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    if args.check:
        sys.exit(0 if run_check(args.width or CHECK_WIDTH) else 1)
    if args.quick:
        run_all(
            width=args.width or QUICK_WIDTH,
            model_dim=16_384,
            round_dim=16_384,
            reps=max(1, args.reps),
        )
    else:
        run_all(width=args.width or REFILL_WIDTH, reps=args.reps)


if __name__ == "__main__":
    main()
