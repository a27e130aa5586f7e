"""The field layer's canonical-residue contract (hypothesis).

Reduction happens once, where values enter: a uint64 operand whose
maximum is below ``q`` skips the reducer after one read-only scan, and
anything else is fully reduced.  These properties pin what that shortcut
must never change, at both library moduli and for every reducer kind:

* every op equals the ``numpy_mod`` oracle (exact integer arithmetic)
  on inputs that mix canonical residues with ``q``, ``2q-1`` and
  ``2**64-1``;
* ``array()`` returns a fresh buffer even for canonical input, so a
  caller mutating it leaves its source untouched;
* no op writes to its operands.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import (
    DEFAULT_PRIME,
    PAPER_PRIME,
    FiniteField,
    available_reducer_kinds,
)

FIELDS = [
    FiniteField(q, reducer=kind)
    for q in (DEFAULT_PRIME, PAPER_PRIME)
    for kind in available_reducer_kinds(q)
]
FIELD_IDS = [repr(gf) for gf in FIELDS]


def words(q, min_size=1, max_size=24):
    """uint64 vectors mixing canonical residues with non-canonical words."""
    special = st.sampled_from([q, 2 * q - 1, (1 << 64) - 1])
    elem = st.one_of(st.integers(0, q - 1), special)
    return st.lists(elem, min_size=min_size, max_size=max_size).map(
        lambda xs: np.array(xs, dtype=np.uint64)
    )


def exact(x, q):
    """Reference residues by Python-int arithmetic on object arrays."""
    return np.array(np.mod(np.asarray(x, dtype=object), q), dtype=np.uint64)


def obj(x):
    return np.asarray(x).astype(object)


def ops(gf, a, b, m1, m2):
    """Every public op on the given operands, as (name, result) pairs."""
    return [
        ("array", gf.array(a)),
        ("add", gf.add(a, b)),
        ("sub", gf.sub(a, b)),
        ("neg", gf.neg(a)),
        ("mul", gf.mul(a, b)),
        ("pow", gf.pow(a, 5)),
        ("sum", gf.sum(a)),
        ("sum_axis0", gf.sum(m1, axis=0)),
        ("dot", gf.dot(a, b)),
        ("matmul", gf.matmul(m1, m2)),
        ("matvec", gf.matvec(m1, m2[:, 0])),
        ("to_signed", gf.to_signed(a)),
    ]


def expected(q, a, b, m1, m2):
    ra, rb, r1, r2 = (obj(exact(x, q)) for x in (a, b, m1, m2))
    signed = obj(exact(a, q))
    signed[signed > (q - 1) // 2] -= q
    return {
        "array": exact(ra, q),
        "add": exact(ra + rb, q),
        "sub": exact(ra - rb, q),
        "neg": exact(-ra, q),
        "mul": exact(ra * rb, q),
        "pow": exact(ra ** 5, q),
        "sum": exact(ra.sum(), q),
        "sum_axis0": exact(r1.sum(axis=0), q),
        "dot": exact((ra * rb).sum(), q),
        "matmul": exact(r1.dot(r2), q),
        "matvec": exact(r1.dot(r2[:, 0]), q),
        "to_signed": signed.astype(np.int64),
    }


@st.composite
def operands(draw, q):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    a = draw(words(q, n, n))
    b = draw(words(q, n, n))
    m1 = draw(words(q, 3 * k, 3 * k)).reshape(3, k)
    m2 = draw(words(q, 2 * k, 2 * k)).reshape(k, 2)
    return a, b, m1, m2


@pytest.mark.parametrize("gf", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_op_matches_the_numpy_mod_oracle(gf, data):
    a, b, m1, m2 = data.draw(operands(gf.q))
    want = expected(gf.q, a, b, m1, m2)
    for name, got in ops(gf, a, b, m1, m2):
        if name != "to_signed":
            assert np.asarray(got).dtype == np.uint64, name
        assert np.array_equal(got, want[name]), name


@pytest.mark.parametrize("gf", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_no_op_mutates_its_operands(gf, data):
    a, b, m1, m2 = data.draw(operands(gf.q))
    before = [x.copy() for x in (a, b, m1, m2)]
    ops(gf, a, b, m1, m2)
    canonical = [gf.array(x) for x in (a, b, m1, m2)]
    ops(gf, *canonical)
    for x, y in zip((a, b, m1, m2), before):
        assert np.array_equal(x, y)
    for x, y in zip(canonical, before):
        assert np.array_equal(x, exact(y, gf.q))


@pytest.mark.parametrize("gf", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_array_returns_a_fresh_buffer(gf, data):
    x = data.draw(words(gf.q))
    for source in (x, exact(x, gf.q)):  # as drawn, and all-canonical
        kept = source.copy()
        out = gf.array(source)
        assert out is not source
        assert not np.shares_memory(out, source)
        out[0] ^= np.uint64(1)
        assert np.array_equal(source, kept)


@pytest.mark.parametrize("gf", FIELDS, ids=FIELD_IDS)
def test_canonical_input_scan_keeps_scalars_and_empties(gf):
    """0-d input still yields a numpy scalar; empty input a new array."""
    q = gf.q
    assert gf.array(np.uint64(q - 1)) == q - 1
    assert gf.array(np.uint64(q)) == 0
    assert int(gf.add(np.uint64(q - 1), np.uint64(2))) == 1
    empty = np.empty(0, dtype=np.uint64)
    out = gf.array(empty)
    assert out.size == 0 and out is not empty
