"""Mixed-norm and Hoelder-check tests."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedsums import (
    INF,
    compensated_sum,
    coordinate_product,
    holder_verify,
    mixed_norm,
    tensor_from_obj,
    tensor_to_obj,
)
from mixedsums.tensors import fiber_norms


def test_mixed_norm_examples():
    a = np.ones((2, 2))
    # inner ell_2 gives sqrt(2) per row, outer ell_1 sums the two rows
    assert mixed_norm(a, (1, 2)).value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-15)
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert mixed_norm(b, (INF, 1)).value == 7.0
    assert mixed_norm(np.array(-3.5), (2,)).value == 3.5


def test_mixed_norm_validation():
    a = np.ones((2, 2))
    with pytest.raises(ValueError):
        mixed_norm(a, (1,))  # arity mismatch
    with pytest.raises(ValueError):
        mixed_norm(a, (1, 0))


def test_mixed_norm_rejects_empty_tensor():
    for shape in ((0,), (2, 0), (0, 3)):
        with pytest.raises(ValueError, match="no entries"):
            mixed_norm(np.zeros(shape), (1.0,) * len(shape))


def test_mixed_norm_records_exponents():
    res = mixed_norm(np.ones((2, 3)), (1, INF))
    assert res.exponents_used == (1.0, INF)


def test_mixed_norm_flat_consistency():
    g = np.random.Generator(np.random.PCG64(10))
    for _ in range(200):
        ndim = int(g.integers(1, 4))
        shape = tuple(int(x) for x in g.integers(1, 5, size=ndim))
        a = g.standard_normal(shape)
        c = float(0.5 + 2.5 * g.random())
        got = mixed_norm(a, (c,) * ndim).value
        want = float(np.sum(np.abs(a) ** c) ** (1.0 / c))
        assert got == pytest.approx(want, rel=1e-12)


def test_mixed_norm_sup_case():
    g = np.random.Generator(np.random.PCG64(11))
    a = g.standard_normal((3, 4, 2))
    assert mixed_norm(a, (INF, INF, INF)).value == float(np.abs(a).max())


def test_mixed_norm_homogeneous_and_monotone():
    g = np.random.Generator(np.random.PCG64(12))
    for _ in range(200):
        a = g.standard_normal((3, 3))
        t = float(g.standard_normal())
        r = tuple(float(x) for x in 0.5 + 2.5 * g.random(2))
        base = mixed_norm(a, r).value
        assert mixed_norm(t * a, r).value == pytest.approx(abs(t) * base, rel=1e-12)
        # lowering any exponent can only increase the quasi-norm
        r_low = tuple(max(rj - float(g.random()), 0.3) for rj in r)
        assert mixed_norm(a, r_low).value >= base * (1.0 - 1e-12)


def test_mixed_norm_extreme_magnitudes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = mixed_norm(np.full(4, 1e4), (100,)).value
        tiny = mixed_norm(np.full(4, 1e-200), (2,)).value
    want = 1.0139594797900291e4
    assert abs(big - want) <= math.ulp(want)
    assert tiny == 2e-200


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    exps=st.lists(
        st.one_of(
            st.just(INF),
            st.floats(0.3, 200.0, exclude_min=True),
            st.floats(500.0, 5000.0),
        ),
        min_size=3,
        max_size=3,
    ),
    k=st.integers(-900, 900),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixed_norm_power_of_two_homogeneous(shape, exps, k, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    size = tuple(shape)
    a = np.ldexp(g.uniform(0.5, 1.0, size), g.integers(-60, 61, size))
    a *= g.choice([-1.0, 1.0], size)
    r = tuple(exps[: len(shape)])
    b = np.ldexp(a, k)
    got = mixed_norm(b, r).value
    assert math.isfinite(got)
    assert got == math.ldexp(mixed_norm(a, r).value, k)


def test_mixed_norm_fortran_order_same_bits():
    g = np.random.Generator(np.random.PCG64(15))
    a = g.standard_normal((5, 6, 7))
    f = np.asfortranarray(a)
    for r in ((1.0, 2.0, 1.5), (4 / 3, INF, 3.0), (0.5, 0.7, INF)):
        assert mixed_norm(f, r).value == mixed_norm(a, r).value


def test_fiber_norms_blocks_match_single_fibers():
    g = np.random.Generator(np.random.PCG64(16))
    a = g.standard_normal((50, 1000))  # more entries than one block
    for r in (1.0, 2.5, INF):
        whole = fiber_norms(a, r)
        assert np.array_equal(whole, [fiber_norms(row, r) for row in a])


def test_mixed_norm_deterministic():
    g = np.random.Generator(np.random.PCG64(13))
    a = g.standard_normal((4, 4, 4))
    r = (1.3, 2.7, 1.0)
    v1 = mixed_norm(a, r).value
    v2 = mixed_norm(a.copy(), r).value
    assert v1 == v2


def test_compensated_sum_matches_fsum():
    g = np.random.Generator(np.random.PCG64(14))
    # mix magnitudes to exercise the compensation
    vals = np.concatenate([g.standard_normal(500) * 1e12, g.standard_normal(500)])
    got = float(compensated_sum(vals))
    want = math.fsum(vals.tolist())
    assert got == pytest.approx(want, abs=1e-3)
    # and it reduces along the last axis
    m = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(compensated_sum(m.T), m.sum(axis=0))
    assert np.array_equal(compensated_sum(m), m.sum(axis=1))


def test_coordinate_product():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[2.0, 0.5], [1.0, -1.0]])
    got = coordinate_product([a, b])
    assert np.array_equal(got, a * b)
    assert np.array_equal(coordinate_product([a]), a)
    with pytest.raises(ValueError):
        coordinate_product([a, np.ones((2, 3))])
    with pytest.raises(ValueError):
        coordinate_product([])


def test_holder_single_factor_is_equality():
    g = np.random.Generator(np.random.PCG64(15))
    a = g.standard_normal((3, 4))
    chk = holder_verify([a], (1.5, 2.0), [(1.5,), (2.0,)])
    assert chk.lhs == chk.rhs
    assert chk.holds
    assert chk.slack == 0.0


def test_holder_cauchy_schwarz_instance():
    g = np.random.Generator(np.random.PCG64(16))
    a = g.standard_normal((4, 4))
    b = g.standard_normal((4, 4))
    chk = holder_verify([a, b], (1, 1), [(2, 2), (2, 2)])
    assert chk.holds
    assert chk.lhs <= chk.rhs * (1.0 + 1e-9)


def test_holder_all_ones_tightness():
    # product of two all-ones matrices: both sides equal n^2 exactly
    n = 5
    a = np.ones((n, n))
    chk = holder_verify([a, a], (1, 1), [(2, 2), (2, 2)])
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)
    assert chk.holds


def test_holder_rejects_bad_splitting():
    a = np.ones((2, 2))
    with pytest.raises(ValueError, match="axis 1"):
        holder_verify([a, a], (1, 1), [(2, 2), (2, 3)])


def test_holder_fuzz_small():
    g = np.random.Generator(np.random.PCG64(17))
    for _ in range(200):
        m = int(g.integers(1, 4))
        N = int(g.integers(1, 4))
        shape = tuple(int(x) for x in g.integers(1, 6, size=m))
        tensors = [g.standard_normal(shape) for _ in range(N)]
        # build exponents from reciprocals so the splitting is exact by design
        q = []
        r = []
        for _ in range(m):
            w = 0.2 + 1.6 * g.random(N)
            q.append(tuple(float(1.0 / wk) for wk in w))
            r.append(float(1.0 / math.fsum(1.0 / x for x in q[-1])))
        chk = holder_verify(tensors, tuple(r), q)
        assert chk.holds


def test_tensor_json_round_trip_bit_exact():
    g = np.random.Generator(np.random.PCG64(18))
    a = g.standard_normal((3, 2, 4)) * np.exp(g.integers(-300, 300, size=(3, 2, 4)) * 0.1)
    obj = json.loads(json.dumps(tensor_to_obj(a)))
    back = tensor_from_obj(obj)
    assert back.shape == a.shape
    assert np.array_equal(back, a)


def test_tensor_json_complex_round_trip():
    g = np.random.Generator(np.random.PCG64(19))
    a = g.standard_normal((2, 3)) + 1j * g.standard_normal((2, 3))
    obj = json.loads(json.dumps(tensor_to_obj(a)))
    assert obj["dtype"] == "complex"
    back = tensor_from_obj(obj)
    assert back.dtype == np.complex128
    assert np.array_equal(back, a)


def test_tensor_from_obj_validation():
    with pytest.raises(ValueError):
        tensor_from_obj({"shape": [2, 2], "data": [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError):
        tensor_from_obj({"data": [1.0]})
    with pytest.raises(ValueError):
        tensor_from_obj({"shape": [0], "data": []})
    with pytest.raises(ValueError):
        tensor_from_obj({"shape": [1], "data": [float("nan")]})
