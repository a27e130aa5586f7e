"""Division-free modular reduction kernels for GF(q).

Every hot path in the field layer funnels through one of three
:class:`Reducer` strategies, selected at :class:`FiniteField`
construction:

* :class:`MersenneReducer` — for ``q = 2**k - 1`` (the library default
  ``2**31 - 1``): ``x mod q`` by repeated shift-and-add folds
  ``(x & mask) + (x >> k)``, exploiting ``2**k ≡ 1 (mod q)``.  No
  integer division anywhere.
* :class:`BarrettReducer` — for any prime ``q < 2**32``: a classic
  Barrett reduction with ``mu = floor(2**64 / q)`` whose 64x64→high-64
  multiply is emulated with four 32-bit limb products, plus a cheap
  high/low split fold (``x ≡ (x >> 32) * (2**32 mod q) + (x & 0xffffffff)``)
  used to keep lazy accumulators clear of uint64 overflow.  Correct for
  the full uint64 input range, which is what unlocks lazy (batched)
  accumulation for moduli near ``2**32`` where a raw-product batch of
  two already overflows.
* :class:`NumpyModReducer` — the ``np.mod`` integer-division oracle the
  other two are property-tested and benchmarked against; it also
  preserves the pre-reducer kernel byte-for-byte as the A/B baseline.

All three return canonical residues in ``[0, q)``, so results are
bit-identical across reducers by construction; the test suite pins this
(``tests/field/test_reduce.py``).

The field layer calls a reducer only on values that may be out of range:
raw sums and products inside an op, and operands that fail
:class:`~repro.field.arithmetic.FiniteField`'s one-scan canonical check.
Already-canonical uint64 residues are never passed through a reducer
again (``tests/field/test_canonical_contract.py``).  ``reduce_semi``
(add/sub/neg, and the tail of ``reduce_bounded``) is the conditional
subtract ``min(x, x - q)``: ``x - q`` wraps above ``x`` exactly when
``x < q``.  Its cost does not depend on the data, unlike a masked
subtract, which is several times slower when about half the elements
need it — the case for a sum of two residues.  The full-range kernels
keep the masked subtract as their last step, where after the folds
almost no element needs it.

Selection is ``"auto"`` (Mersenne when the modulus allows, Barrett
otherwise) unless overridden by the constructor argument or the
``REPRO_FIELD_REDUCER`` environment variable (``auto`` / ``mersenne`` /
``barrett`` / ``numpy_mod``) — the env knob exists for A/B
benchmarking a running service without code changes.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import FieldError

#: Environment variable overriding the auto-selected reduction kernel.
REDUCER_ENV = "REPRO_FIELD_REDUCER"

_U64_MAX = (1 << 64) - 1
_WORD = 1 << 32
_MASK32 = np.uint64(_WORD - 1)
_SHIFT32 = np.uint64(32)


class Reducer:
    """Strategy interface: reduce uint64 arrays to residues in ``[0, q)``.

    Public entry points (:meth:`reduce`, :meth:`fold`,
    :meth:`reduce_semi`) accept anything coercible to uint64 — including
    numpy scalars and 0-d arrays, for which they return numpy scalars,
    matching ``np.mod`` semantics — and dispatch to the subclass
    ``_reduce`` / ``_fold`` / ``_reduce_semi`` kernels, which may assume
    an ndarray of ndim >= 1.

    * ``reduce`` — full reduction, valid for the entire uint64 range.
    * ``fold`` — *partial* reduction: returns a value congruent to the
      input bounded by :attr:`fold_max`; used to keep lazy accumulators
      from overflowing without paying for a full reduction.
    * ``reduce_semi`` — inputs known to be below ``2q`` (e.g. the sum of
      two residues); a single conditional subtract for the
      division-free kernels.
    """

    kind: str = "abstract"
    #: True when the kernel contains no integer division; gates the
    #: limb-split matmul fast path in :class:`FiniteField`.
    division_free: bool = True

    def __init__(self, q: int):
        self.q = int(q)
        if not 2 <= self.q < _WORD:
            raise FieldError(f"reducer modulus must be in [2, 2**32), got {q}")
        self._q64 = np.uint64(self.q)
        #: Inclusive upper bound on what :meth:`fold` can return.
        self.fold_max: int = self.q - 1

    # -- public entry points (scalar-safe) ------------------------------
    def reduce(self, x, out: Optional[np.ndarray] = None):
        """``x mod q`` for any uint64 input; new array unless ``out`` given."""
        return self._dispatch(self._reduce, x, out)

    def fold(self, x, out: Optional[np.ndarray] = None):
        """A value congruent to ``x`` mod q, bounded by :attr:`fold_max`."""
        return self._dispatch(self._fold, x, out)

    def reduce_semi(self, x, out: Optional[np.ndarray] = None):
        """``x mod q`` for inputs below ``2q``."""
        return self._dispatch(self._reduce_semi, x, out)

    def reduce_bounded(self, x, x_max: int, out: Optional[np.ndarray] = None):
        """``x mod q`` for inputs bounded by ``x_max``.

        Picks the cheapest chain the bound admits: when a few folds
        provably land below ``2q`` (checked with exact Python-int
        arithmetic via :meth:`fold_bound`), runs them plus one
        conditional subtract — far fewer array passes than the
        full-range kernel; otherwise falls back to :meth:`reduce`.
        """
        q2 = 2 * self.q
        bound = int(x_max)
        folds = 0
        while bound >= q2 and folds < 3:
            next_bound = self.fold_bound(bound)
            if next_bound >= bound:
                break
            bound = next_bound
            folds += 1
        if bound >= q2:
            return self.reduce(x, out=out)
        for _ in range(folds):
            x = self.fold(x, out=out)
            if out is None and isinstance(x, np.ndarray):
                out = x  # keep the remaining passes in place
        return self.reduce_semi(x, out=out)

    #: Elementwise kernels run over flat blocks of this many elements.
    #: The multi-pass kernels allocate several temporaries per call; for
    #: huge arrays each temporary is an mmap'd allocation whose
    #: page-fault cost dwarfs the arithmetic (measured 30x on a
    #: 48M-element Barrett reduce), while block-sized temporaries come
    #: from the allocator's free lists and stay cache-resident between
    #: passes.
    BLOCK_ELEMS = 1 << 20

    def _dispatch(self, impl, x, out: Optional[np.ndarray]):
        x = np.asarray(x, dtype=np.uint64)
        if not x.ndim:
            scalar = impl(x.reshape(1), None)[0]
            if out is not None:
                out[...] = scalar
                return out
            return scalar
        if x.size > self.BLOCK_ELEMS:
            xc = x if x.flags.c_contiguous else np.ascontiguousarray(x)
            if out is None:
                out = np.empty_like(xc)
            if out.flags.c_contiguous:
                xf = xc.reshape(-1)
                of = out.reshape(-1)
                for i in range(0, xf.size, self.BLOCK_ELEMS):
                    impl(xf[i : i + self.BLOCK_ELEMS],
                         of[i : i + self.BLOCK_ELEMS])
                return out
            # Non-contiguous destination: single-shot kernel call.
        return impl(x, out)

    # -- kernels (ndim >= 1 ndarrays) -----------------------------------
    def _reduce(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def _fold(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        # Default: a full reduction is a (maximally tight) fold.
        return self._reduce(x, out)

    def _reduce_semi(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        # ``x - q`` wraps above ``x`` exactly when ``x < q``.
        d = np.subtract(x, self._q64)
        return np.minimum(x, d, out=d if out is None else out)

    # -- lazy-accumulation geometry -------------------------------------
    def fold_bound(self, x_max: int) -> int:
        """Upper bound on ``fold(x)`` given ``x <= x_max``.

        Exact Python-int arithmetic, used by callers (the limb-split
        matmul) to prove a fold-then-accumulate sequence cannot wrap
        uint64 before choosing the cheap fold over a full reduction.
        """
        return min(x_max, self.q - 1)

    def lazy_terms(self, after_fold: bool = False) -> int:
        """How many raw products of residues fit in uint64 headroom.

        Each raw product of two reduced residues is at most ``(q-1)**2``.
        ``after_fold=True`` accounts for an accumulator already holding a
        folded value (at most :attr:`fold_max`).
        """
        product_max = (self.q - 1) ** 2
        if product_max == 0:
            return _U64_MAX
        headroom = _U64_MAX - (self.fold_max if after_fold else 0)
        return headroom // product_max

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(q={self.q})"


class NumpyModReducer(Reducer):
    """``np.mod`` integer-division oracle and pre-reducer A/B baseline."""

    kind = "numpy_mod"
    division_free = False

    def _reduce(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        if out is None:
            return np.mod(x, self._q64)
        np.mod(x, self._q64, out=out)
        return out

    # The oracle reduces exactly the way the pre-reducer field layer
    # did: one integer division everywhere, so A/B timings are honest.
    def _reduce_semi(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        return self._reduce(x, out)

    # One division whatever the bound, as the pre-reducer field layer
    # did; the fold chain would spend a second one.
    def reduce_bounded(self, x, x_max: int, out: Optional[np.ndarray] = None):
        return self.reduce(x, out=out)


def mersenne_exponent(q: int) -> Optional[int]:
    """``k`` when ``q == 2**k - 1`` (k >= 2), else None."""
    k = int(q).bit_length()
    return k if k >= 2 and q == (1 << k) - 1 else None


class MersenneReducer(Reducer):
    """Shift-and-add reduction for Mersenne moduli ``q = 2**k - 1``.

    ``2**k ≡ 1 (mod q)`` makes ``x ≡ (x & mask) + (x >> k)`` a
    contraction: each fold shortens ``x`` by ``k`` bits.  The number of
    folds needed to bring a full-range uint64 below ``2q`` is computed
    once at construction (2 folds for the default ``k = 31``), after
    which a single conditional subtract lands in ``[0, q)``.
    """

    kind = "mersenne"

    def __init__(self, q: int):
        k = mersenne_exponent(q)
        if k is None:
            raise FieldError(
                f"MersenneReducer requires q = 2**k - 1, got {q}; "
                f"use the barrett reducer for general moduli"
            )
        super().__init__(q)
        self._k = k
        self._k64 = np.uint64(k)
        self._mask = np.uint64(q)
        # Static fold count: bound tracks the max value after each fold
        # ((x >> k) <= bound >> k, (x & mask) <= q); stop once a single
        # conditional subtract suffices.
        bound = _U64_MAX
        passes = 0
        while bound > 2 * self.q - 1:
            new_bound = (bound >> k) + self.q
            if new_bound >= bound:  # pragma: no cover - k >= 2 contracts
                break
            bound = new_bound
            passes += 1
        self._passes = max(1, passes)
        self.fold_max = (_U64_MAX >> k) + self.q

    def _reduce(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        hi = np.right_shift(x, self._k64)
        if out is None:
            acc = np.bitwise_and(x, self._mask)
        else:
            np.bitwise_and(x, self._mask, out=out)
            acc = out
        acc += hi
        for _ in range(self._passes - 1):
            np.right_shift(acc, self._k64, out=hi)
            acc &= self._mask
            acc += hi
        np.subtract(acc, self._q64, out=acc, where=acc >= self._q64)
        return acc

    def _fold(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        hi = np.right_shift(x, self._k64)
        if out is None:
            acc = np.bitwise_and(x, self._mask)
        else:
            np.bitwise_and(x, self._mask, out=out)
            acc = out
        acc += hi
        return acc

    def fold_bound(self, x_max: int) -> int:
        # fold(x) = (x & mask) + (x >> k) <= min(x_max, q) + (x_max >> k).
        return min(self.fold_max, min(x_max, self.q) + (x_max >> self._k))


class BarrettReducer(Reducer):
    """Barrett reduction for arbitrary moduli ``q < 2**32``.

    ``mu = floor(2**64 / q)`` is precomputed; for any uint64 ``x`` the
    quotient estimate ``est = floor(x * mu / 2**64)`` satisfies
    ``est ∈ {Q-1, Q}`` where ``Q = floor(x / q)`` (standard Barrett
    bound with ``x < 2**64``), so ``x - est*q`` lands in ``[0, 2q)``
    and one conditional subtract finishes.  The high half of the 64x64
    product is emulated with four 32-bit limb multiplies — shifts,
    masks, multiplies, adds only; no division.

    :meth:`fold` uses the split identity
    ``x ≡ (x >> 32) * (2**32 mod q) + (x & 0xffffffff)`` whose output is
    bounded by ``(2**32 - 1) * (2**32 mod q) + 2**32 - 1``; for every
    ``q < 2**32`` that bound leaves room for at least one more raw
    product of residues in uint64 (``fold_max + (q-1)**2 < 2**64``),
    which is what makes lazy accumulation work even for moduli near
    ``2**32``.
    """

    kind = "barrett"

    def __init__(self, q: int):
        super().__init__(q)
        mu = (1 << 64) // self.q
        self._mu_hi = np.uint64(mu >> 32)
        self._mu_lo = np.uint64(mu & (_WORD - 1))
        c = _WORD % self.q
        self._c = c
        self._c64 = np.uint64(c)
        self.fold_max = (_WORD - 1) * c + (_WORD - 1)
        # fold_max + (q-1)**2 = 2**64 - q*(2**32 - q + 1) - ... < 2**64
        # for all q in [2, 2**32); pin the algebra at construction time.
        assert self.fold_max + (self.q - 1) ** 2 <= _U64_MAX

    def _reduce(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        x0 = np.bitwise_and(x, _MASK32)
        x1 = np.right_shift(x, _SHIFT32)
        # est = high 64 bits of x * mu via 32-bit limbs; every
        # intermediate stays below 2**64: the cross products are at most
        # (2**32 - 1)**2 and each carry term adds less than 2**32.
        t = x0 * self._mu_lo
        np.right_shift(t, _SHIFT32, out=t)
        mid1 = x1 * self._mu_lo
        mid1 += t
        np.bitwise_and(mid1, _MASK32, out=t)
        mid2 = x0 * self._mu_hi
        mid2 += t
        est = x1 * self._mu_hi
        np.right_shift(mid1, _SHIFT32, out=mid1)
        est += mid1
        np.right_shift(mid2, _SHIFT32, out=mid2)
        est += mid2
        # r = x - est*q lands in [0, 2q); est*q <= x so no wraparound.
        est *= self._q64
        if out is None:
            acc = np.subtract(x, est)
        else:
            np.subtract(x, est, out=out)
            acc = out
        np.subtract(acc, self._q64, out=acc, where=acc >= self._q64)
        return acc

    def _fold(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        hi = np.right_shift(x, _SHIFT32)
        hi *= self._c64
        if out is None:
            acc = np.bitwise_and(x, _MASK32)
        else:
            np.bitwise_and(x, _MASK32, out=out)
            acc = out
        acc += hi
        return acc

    def fold_bound(self, x_max: int) -> int:
        # fold(x) = (x >> 32) * c + (x & 0xffffffff)
        #        <= (x_max >> 32) * c + min(x_max, 2**32 - 1).
        return min(
            self.fold_max,
            (x_max >> 32) * self._c + min(x_max, _WORD - 1),
        )


_REDUCERS = {
    NumpyModReducer.kind: NumpyModReducer,
    MersenneReducer.kind: MersenneReducer,
    BarrettReducer.kind: BarrettReducer,
}


def available_reducer_kinds(q: int) -> Tuple[str, ...]:
    """Reducer kinds valid for modulus ``q`` (always includes the oracle)."""
    kinds = []
    if mersenne_exponent(q) is not None:
        kinds.append(MersenneReducer.kind)
    kinds.append(BarrettReducer.kind)
    kinds.append(NumpyModReducer.kind)
    return tuple(kinds)


def select_reducer(q: int, kind: Optional[str] = None) -> Reducer:
    """Build the reduction kernel for ``q``.

    ``kind`` is one of ``auto`` / ``mersenne`` / ``barrett`` /
    ``numpy_mod``; when None, the :data:`REDUCER_ENV` environment
    variable is consulted, then ``auto``.  ``auto`` picks Mersenne when
    the modulus has the right shape and Barrett otherwise.  Requesting
    ``mersenne`` for a non-Mersenne modulus raises :class:`FieldError`.
    """
    if kind is None:
        kind = os.environ.get(REDUCER_ENV, "").strip().lower() or "auto"
    kind = kind.strip().lower()
    if kind == "auto":
        kind = (
            MersenneReducer.kind
            if mersenne_exponent(q) is not None
            else BarrettReducer.kind
        )
    try:
        cls = _REDUCERS[kind]
    except KeyError:
        raise FieldError(
            f"unknown reducer {kind!r}; use one of "
            f"{('auto',) + tuple(_REDUCERS)}"
        ) from None
    return cls(q)
