"""Mixed-norm and Hoelder-check tests."""

import functools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedsums import (
    INF,
    NumericalError,
    compensated_sum,
    coordinate_product,
    dual_maximizer,
    holder_verify,
    mixed_norm,
    tensor_from_obj,
    tensor_to_obj,
    tensors,
)
from mixedsums.tensors import _BLOCK, fiber_norms, random_splitting


def _sum2(x):
    # unbuffered Ogita-Rump-Oishi Sum2 along the last axis
    s = np.cumsum(x, axis=-1)
    prev, cur = s[..., :-1], s[..., 1:]
    b = cur - prev
    err = (prev - (cur - b)) + (x[..., 1:] - b)
    return s[..., -1] + err.sum(axis=-1)


def _block_norms(x, r):
    # one block of fibers, every temporary freshly allocated
    x = np.abs(x).astype(np.float64, copy=False)
    top = x.max(axis=-1)
    if r == INF:
        return top
    if r > 512.0:
        scale = np.where(top > 0.0, top, 1.0)
    else:
        scale = np.ldexp(0.5, np.frexp(top)[1])
    x /= scale[..., None]
    x **= r
    return _sum2(x) ** (1.0 / r) * scale


def _reference_fiber_norms(a, r):
    # fiber_norms with fresh temporaries in every block: the reference for
    # the bits of the buffered kernel
    a = np.asarray(a)
    n = a.shape[-1]
    rows = a.reshape(-1, n)
    out = np.empty(len(rows))
    step = max(1, _BLOCK // n)
    for lo in range(0, len(rows), step):
        out[lo : lo + step] = _block_norms(rows[lo : lo + step], r)
    return out.reshape(a.shape[:-1])


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


@pytest.mark.parametrize(
    "a, r",
    [
        # the outer level sees inf and Sum2 forms inf - inf
        ([[1e308] * 2] * 2, (1.0, 1.0)),
        # inf, not nan: the ell_2 norm of two 1.4e308 rows is 2e308
        ([[1e308] * 2] * 2, (2.0, 2.0)),
        ([math.inf, 1.0], (1.0,)),
        ([math.nan, 1.0], (INF,)),
    ],
)
def test_mixed_norm_raises_when_the_value_is_not_finite(a, r):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericalError, match="not finite"):
            mixed_norm(a, r)


def test_holder_verify_raises_on_a_non_finite_side():
    # a nan lhs would read as holds=False
    a = np.full((2, 2), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericalError, match="not finite"):
            holder_verify([a], (1.0, 1.0), [(1.0,), (1.0,)])


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


@pytest.mark.parametrize("n", [7, 2048])
@pytest.mark.parametrize("extra", [0, 1], ids=["one block", "two blocks"])
@pytest.mark.parametrize("data", ["normal", "mixed", "int"])
def test_fiber_norms_at_the_block_boundary_match_row_by_row(n, extra, data):
    # _BLOCK // n rows are one block, returned as computed; one row more
    # takes the block loop, whose second block holds that row alone
    rows = _BLOCK // n + extra
    a = _grid_tensor((rows, n), data, "C", seed=n + extra)
    for r in (0.5, 1.0, 2.0, 3.0, 600.0, INF):
        got = fiber_norms(a, r)
        assert got.shape == (rows,) and got.flags.writeable and got.flags.c_contiguous
        assert got.tobytes() == _reference_fiber_norms(a, r).tobytes(), r
        for k in [*range(0, rows, rows // 40 or 1), rows - 1]:  # as single fibers
            assert got[k].tobytes() == fiber_norms(a[k], r).tobytes(), (r, k)


def _grid_tensor(shape, data, layout, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    if data == "normal":
        a = g.standard_normal(shape)
    elif data == "mixed":  # entries from 1e-150 to 1e150, so Sum2's errors matter
        a = g.standard_normal(shape) * 10.0 ** g.choice([-150.0, 0.0, 150.0], shape)
    elif data == "int":
        a = g.integers(-1000, 1000, shape)
    else:
        a = g.standard_normal(shape) + 1j * g.standard_normal(shape)
    return np.asfortranarray(a) if layout == "F" else a


# n = 1; n = 3000 does not divide 2**15 and leaves a short last block;
# n = 40000 is more than one block per fiber
@pytest.mark.parametrize("shape", [(5, 1), (25, 3000), (2, 40000), (3, 7, 300)])
@pytest.mark.parametrize("data", ["normal", "mixed", "int", "complex"])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_fiber_norms_match_unbuffered_blocks(shape, data, layout):
    a = _grid_tensor(shape, data, layout, seed=len(shape) + shape[-1])
    for r in (0.5, 1.0, 4 / 3, 2.0, 3.0, 600.0, INF):
        got = fiber_norms(a, r)
        assert got.shape == shape[:-1]
        assert got.tobytes() == _reference_fiber_norms(a, r).tobytes(), r


# complex entries with integer moduli 5, 5, 13, 17 and 1
_PYTHAGOREAN = np.array([3 + 4j, -4 + 3j, 5 - 12j, -8 - 15j, 1j])


@settings(max_examples=150, deadline=None)
@given(
    lead=st.lists(st.integers(1, 6), max_size=2),
    n=st.sampled_from([1, 2, 7, 130, 3000]),
    dtype=st.sampled_from(["float64", "int64", "complex"]),
    layout=st.sampled_from(["C", "F"]),
    bound=st.sampled_from([1, 3, 1000, 2**24, 2**40, 2**50]),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fiber_norms_integer_tensors_match_sum2(lead, n, dtype, layout, bound, zeros, seed):
    # whether a block takes the plain sum or Sum2, the bits are Sum2's
    g = np.random.Generator(np.random.PCG64(seed))
    shape = (*lead, n)
    a = g.integers(-bound, bound + 1, shape)
    if dtype == "float64":
        a = a.astype(np.float64)
    elif dtype == "complex":
        a = a * g.choice(_PYTHAGOREAN, shape)
    if zeros:  # some fibers all zero
        a[g.random(shape[:-1]) < 0.5] = 0
    if layout == "F":
        a = np.asfortranarray(a)
    for r in (1.0, 2.0):
        assert fiber_norms(a, r).tobytes() == _reference_fiber_norms(a, r).tobytes(), r


@pytest.fixture
def sum2_calls(monkeypatch):
    # the number of fibers in each Sum2 call fiber_norms makes
    calls = []
    real = tensors._sum2

    def spy(x):
        calls.append(len(x))
        return real(x)

    monkeypatch.setattr(tensors, "_sum2", spy)
    return calls


# 8 * top**r == 2**53 on each side
@pytest.mark.parametrize("r, top", [(1.0, 2**50), (2.0, 2**25)])
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_fiber_norms_plain_sum_below_2_to_53(sum2_calls, r, top, dtype):
    for largest, expected in ((top - 1, []), (top, [3])):
        a = np.arange(-12, 12, dtype=dtype).reshape(3, 8)
        a[1] = largest
        a[2, 5] = -largest
        got = fiber_norms(a, r)
        assert sum2_calls == expected, largest
        assert got.tobytes() == _reference_fiber_norms(a, r).tobytes()
        sum2_calls.clear()


def test_fiber_norms_sum2_for_fractions_and_other_exponents(sum2_calls):
    ints = np.arange(-12, 12, dtype=np.float64).reshape(3, 8)
    for r in (1.0, 2.0):
        fiber_norms(ints, r)
        fiber_norms(ints * (3 + 4j), r)  # moduli 5 |k|
    assert sum2_calls == []
    half = ints.copy()
    half[1, 3] = 0.5  # the largest modulus, 12, is still an integer
    for a, r in ((half, 1.0), (half, 2.0), (ints / 8.0, 1.0), (ints, 3.0), (ints, 0.5)):
        sum2_calls.clear()
        got = fiber_norms(a, r)
        assert sum2_calls == [3], (a, r)
        assert got.tobytes() == _reference_fiber_norms(a, r).tobytes()


# the full array of c = 1 and 3 takes the plain sum at r = 1 and 2; of
# 0.3, and at the other exponents, Sum2, the supremum or the scale by the
# largest modulus. The broadcast takes none of them: a repeated entry's
# n copies add up to its power times n. (40, 3000) spans four blocks of
# fibers, (2, 40000) one fiber a block
@pytest.mark.parametrize("shape", [(40, 3000), (2, 40000), (5, 30, 300)])
@pytest.mark.parametrize("c", [1.0, -1.0, 3.0, 0.3])
def test_zero_stride_input_gives_the_bits_of_a_full_array(sum2_calls, shape, c):
    base = np.array(c)
    a = np.broadcast_to(base, shape)  # read-only, every stride 0
    full = np.full(shape, c)
    plain = False
    for r in (0.7, 1.0, 4 / 3, 2.0, 3.0, 600.0, INF):
        sum2_calls.clear()
        got = fiber_norms(a, r)
        rs = (2.0, 3.0, r)[-len(shape) :]
        value = mixed_norm(a, rs).value
        assert sum2_calls == [], r  # a repeated fiber axis never reaches Sum2
        want = fiber_norms(full, r)
        plain |= r in (1.0, 2.0) and not sum2_calls
        assert got.tobytes() == want.tobytes(), r
        assert value.hex() == mixed_norm(full, rs).value.hex(), r
    assert plain == float(c).is_integer()
    assert base == c and not a.flags.writeable


_KERNEL_R = (0.5, 1.0, 4 / 3, 2.0, 3.0, 600.0, INF)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.lists(st.integers(1, 40), min_size=2, max_size=4),
    # which axes the broadcast repeats; the last one only in some examples
    repeated=st.lists(st.booleans(), min_size=4, max_size=4),
    data=st.sampled_from(["normal", "mixed", "int3", "int_big", "complex"]),
    layout=st.sampled_from(["C", "F"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_broadcast_axes_give_the_bits_of_a_contiguous_copy(shape, repeated, data, layout, seed):
    # leading, middle and mixed stride-0 axes are reduced once; a stride-0
    # fiber axis is summed in full. Either way the bits are the copy's
    g = np.random.Generator(np.random.PCG64(seed))
    repeated = repeated[: len(shape)]
    base_shape = tuple(1 if rep else n for n, rep in zip(shape, repeated))
    if data == "int3":  # plain sums at r = 1 and 2
        base = g.integers(-3, 4, base_shape)
    elif data == "int_big":  # blocks on either side of the plain-sum threshold
        base = g.integers(-(2**50), 2**50, base_shape) >> g.integers(0, 50, base_shape)
    else:
        base = _grid_tensor(base_shape, data, "C", seed)
    if layout == "F":
        base = np.asfortranarray(base)
    a = np.broadcast_to(base, shape)
    copy = np.ascontiguousarray(a)
    collapsed = any(rep and n > 1 for n, rep in zip(shape[:-1], repeated))
    for r in _KERNEL_R:
        got = fiber_norms(a, r)
        assert got.shape == tuple(shape[:-1])
        assert got.tobytes() == fiber_norms(copy, r).tobytes(), r
        assert got.flags.writeable != collapsed
        rs = (r, 3.0, 2.0, r)[-len(shape) :]
        assert mixed_norm(a, rs).value.hex() == mixed_norm(copy, rs).value.hex(), r


@pytest.mark.parametrize("n", [1, 5, 3000])
@pytest.mark.parametrize("c", [1.0, 0.3])
def test_stride_zero_fiber_axis_is_summed_in_full(n, c):
    # n copies of 0.3 added up in order are not n * 0.3, but Sum2 adds
    # them to n * 0.3 correctly rounded, which a repeated entry takes in
    # one multiply
    col = np.array([[c], [2.0 * c], [-c]])
    a = np.broadcast_to(col, (3, n))
    assert a.strides[-1] == 0
    for r in _KERNEL_R:
        assert fiber_norms(a, r).tobytes() == fiber_norms(np.ascontiguousarray(a), r).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    n=st.one_of(st.integers(1, 17), st.just(2048)),
    # 17 fibers of 2048 are more than one block
    k=st.sampled_from([1, 2, 17]),
    lead=st.integers(1, 3),
    data=st.sampled_from(["normal", "mixed", "int3", "int64", "int_top", "complex"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_repeated_fiber_entries_give_the_bits_of_a_contiguous_copy(n, k, lead, data, seed):
    # a fiber that repeats one entry n times takes that entry's modulus,
    # scale and power once, where the copy's SIMD loops run over lanes of
    # n entries; then n copies of the power add up to it times n
    g = np.random.Generator(np.random.PCG64(seed))
    if data == "int3":
        base = g.integers(-3, 4, (k, 1)).astype(np.float64)
    elif data == "int64":  # on either side of the plain-sum threshold
        base = g.integers(-(2**50), 2**50, (k, 1)) >> g.integers(0, 50, (k, 1))
    elif data == "int_top":  # an integer largest modulus, fractions below it
        base = g.standard_normal((k, 1))
        base[0] = 8.0
    else:
        base = _grid_tensor((k, 1), data, "C", seed)
    a = np.broadcast_to(base, (lead, k, n))
    copy = np.ascontiguousarray(a)
    for r in _KERNEL_R:
        assert fiber_norms(a, r).tobytes() == fiber_norms(copy, r).tobytes(), r
        for rs in ((2.0, 3.0, r), (r, r, r)):
            assert mixed_norm(a, rs).value.hex() == mixed_norm(copy, rs).value.hex(), rs


@pytest.mark.parametrize("n", [1, 3, 17, 2048])
@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_repeated_fiber_plain_sum_below_2_to_53(sum2_calls, n, r, dtype):
    # w is the least integer with n * w**r >= 2**53: a contiguous fiber of
    # n > 1 copies of w takes Sum2, of w - 1 the plain sum n * (w - 1)**r.
    # A repeated entry takes neither route, and has the bits of both
    least = -(-(2**53) // n)  # n * w**r >= 2**53 iff w**r >= least
    w = least if r == 1.0 else math.isqrt(least - 1) + 1
    for largest, expected in ((w - 1, []), (w, [3])):
        a = np.broadcast_to(np.array([[largest], [-1], [0]], dtype=dtype), (3, n))
        got = fiber_norms(a, r)
        assert sum2_calls == [], largest
        copy = np.ascontiguousarray(a)
        want = fiber_norms(copy, r)
        # a fiber of one entry is its own repeated entry
        assert sum2_calls == (expected if n > 1 else []), largest
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == _reference_fiber_norms(copy, r).tobytes()
        sum2_calls.clear()


_MAX = float(np.finfo(np.float64).max)


def _largest_with_finite_product(n):
    # the largest float y with y * n finite
    y = _MAX / n
    while math.isinf(y * n):
        y = math.nextafter(y, 0.0)
    while math.isfinite(math.nextafter(y, math.inf) * n):
        y = math.nextafter(y, math.inf)
    return y


@settings(max_examples=300, deadline=None)
@given(
    n=st.one_of(st.integers(1, 5000), st.just(2**20)),
    y=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        # subnormals and the smallest normals
        st.floats(-(2.0**-1022), 2.0**-1022, allow_subnormal=True),
    ),
)
def test_sum2_of_n_copies_is_the_rounded_product(n, y):
    # the closed form of a repeated entry: every running sum and y are
    # multiples of ulp(y) and every TwoSum error is below 2 * n ulps, so
    # the errors add up exactly and the last step rounds n * y once. The
    # row is scaled first, so this holds for any y with n * y finite
    y = math.copysign(min(abs(y), _largest_with_finite_product(n)), y)
    assert compensated_sum(np.full(n, y)) == y * n


@pytest.mark.parametrize("n", [*range(2, 3000, 97), 2**20, 1_000_003])
def test_compensated_sum_is_finite_wherever_the_sum_is(n):
    # the largest y with n * y finite and the two floats below it: unscaled,
    # the running sums round past the largest float, to inf or NaN
    y = _largest_with_finite_product(n)
    for _ in range(3):
        for v in (y, -y):
            assert compensated_sum(np.full(n, v)) == v * n, (n, v)
        y = math.nextafter(y, 0.0)


def test_compensated_sum_has_the_bits_of_unscaled_sum2():
    # dividing a row by a power of two is exact, so the scaled sum keeps
    # the bits wherever the unscaled one is finite
    g = np.random.Generator(np.random.PCG64(73))
    for _ in range(50):
        n = int(g.integers(1, 300))
        normal = g.standard_normal(n)
        for x in (
            normal,
            normal * 10.0 ** g.choice([-150.0, 0.0, 150.0], n),
            g.integers(-(2**40), 2**40, n).astype(np.float64),
            normal * 1e300,
        ):
            assert np.asarray(compensated_sum(x)).tobytes() == _sum2(x).tobytes()
    assert compensated_sum(np.zeros((2, 5))).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 3, 0), (0, 5)])
def test_compensated_sum_of_empty_rows_is_zero(shape):
    # as np.sum: a row without entries sums to 0.0, in the shape x.shape[:-1]
    x = np.empty(shape)
    got, want = compensated_sum(x), np.sum(x, axis=-1)
    assert np.shape(got) == want.shape and np.asarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0, 600.0, INF])
@pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 3, 0), (0, 5)])
def test_fiber_norms_of_empty_fibers_are_zero(shape, r):
    # np.linalg.norm gives 0.0 at ord 1, 2 and inf; so does every r here
    got = fiber_norms(np.empty(shape), r)
    assert np.shape(got) == shape[:-1] and not np.any(got)
    with pytest.raises(ValueError, match="has no entries"):
        mixed_norm(np.empty(shape), (r,) * len(shape))


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0, 600.0, INF])
@pytest.mark.parametrize("shape", [(3, 5), (2, 3, 5)])
def test_fiber_norms_of_no_fibers_sliced_from_a_tensor_are_empty(shape, r):
    # np.empty((0, 5)) has strides (0, 0) and reads as one repeated entry;
    # a slice of no fibers keeps its strides and reaches the block reduction
    a = np.ones(shape)[..., :0, :]
    got = fiber_norms(a, r)
    assert got.shape == a.shape[:-1] and got.dtype == np.float64
    for c in (a, a.astype(complex)):
        x, val = dual_maximizer(c, r if r >= 1.0 else 1.0)
        assert x.shape == a.shape and val.shape == a.shape[:-1]


def test_compensated_sum_rejects_a_scalar():
    with pytest.raises(ValueError, match=r"got shape \(\)"):
        compensated_sum(3.0)


def test_repeated_fiber_temporaries_stay_small():
    # 2**20 copies of one entry take one multiply, not 2**20 entries
    # written out and three Sum2 rows (~32 MiB)
    a = np.broadcast_to(0.3, (2**20,))
    b = np.broadcast_to(0.3, (2**20, 2**20))
    tracemalloc.start()
    try:
        for call in (lambda: fiber_norms(a, 4 / 3), lambda: mixed_norm(b, (4 / 3, 3.0))):
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            call()
            _, peak = tracemalloc.get_traced_memory()
            assert peak - base < 64 * 2**10
    finally:
        tracemalloc.stop()
    assert fiber_norms(a, 4 / 3).tobytes() == fiber_norms(np.full(2**20, 0.3), 4 / 3).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3000])
def test_repeated_infinite_entry(n):
    # n copies of inf add up to inf, the true sum; a contiguous copy's Sum2
    # forms inf - inf, NaN, once n >= 2. At r > 512 both divide inf by the
    # scale inf. Either way mixed_norm raises
    a = np.broadcast_to(math.inf, (3, n))
    copy = np.ascontiguousarray(a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for r in _KERNEL_R:
            got, want = fiber_norms(a, r), fiber_norms(copy, r)
            if r == 600.0:
                assert np.isnan(got).all() and np.isnan(want).all()
            else:
                assert (got == INF).all(), r
                assert (want == INF).all() if n == 1 or r == INF else np.isnan(want).all(), r
            for t in (a, copy):
                with pytest.raises(NumericalError, match="not finite"):
                    mixed_norm(t, (2.0, r))


def test_broadcast_axes_are_reduced_once(monkeypatch):
    # 4096 * 4096 repeated fibers take one block per level; a regression
    # fails at the fourth block instead of running through thousands
    calls, levels = [], []
    real_fit, real_reduce = tensors._integer_powers_fit, tensors._reduce

    def spy(x, *args):
        calls.append(len(x))
        assert len(calls) <= 3, "a broadcast axis was reduced fiber by fiber"
        return real_fit(x, *args)

    def reduce_spy(d, n, r):
        levels.append((d.shape, n))
        return real_reduce(d, n, r)

    monkeypatch.setattr(tensors, "_integer_powers_fit", spy)
    monkeypatch.setattr(tensors, "_reduce", reduce_spy)
    x = np.array([3.0, -1.0, 0.0, 2.0, 5.0])
    a = np.broadcast_to(x, (4096, 4096, 5))
    got = fiber_norms(a, 1.0)
    assert calls == [1] and got.shape == (4096, 4096) and got.strides == (0, 0)
    assert np.all(got == 11.0) and not got.flags.writeable
    calls.clear()
    levels.clear()
    assert mixed_norm(a, (1.0, 2.0, 1.0)).value == 4096 * 64 * 11.0  # sqrt(4096) = 64
    # the two outer levels repeat one entry and never test for the plain sum
    assert calls == [1]
    # each level gets the last one's distinct norms, one entry repeated
    # 4096 times, with nothing broadcast or sliced in between
    assert levels == [((1, 1, 5), 5), ((1, 1), 4096), ((1,), 4096)]


def test_mixed_norm_reads_only_the_modulus():
    g = np.random.Generator(np.random.PCG64(21))
    signs = np.where(g.random((30, 40)) < 0.5, -1.0, 1.0)
    for r in ((1.0, 1.0), (4 / 3, 3.0), (INF, 0.7), (2.0, 600.0)):
        assert mixed_norm(signs, r).value == mixed_norm(np.ones((30, 40)), r).value, r


def test_compensated_sum_matches_unbuffered_sum2():
    g = np.random.Generator(np.random.PCG64(20))
    for shape in ((1,), (9,), (3, 1000), (2, 3, 50)):
        x = g.standard_normal(shape) * 10.0 ** g.choice([-150.0, 0.0, 150.0], shape)
        for a in (x, np.asfortranarray(x)):
            assert np.asarray(compensated_sum(a)).tobytes() == _sum2(x).tobytes()


@pytest.mark.parametrize("n", [1024, 2048])
def test_mixed_norm_temporaries_stay_small(n):
    a = np.ones((n, n))
    tracemalloc.start()
    try:
        for r in ((1.0, 1.0), (2.0, 3.0), (INF, 0.5)):
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            mixed_norm(a, r)
            _, peak = tracemalloc.get_traced_memory()
            assert peak - base <= 2 * 2**20, r
    finally:
        tracemalloc.stop()


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
    with pytest.raises(ValueError, match=r"^q has 1 rows, expected m=2$"):
        holder_verify([a, a], (1, 1), [(2, 2)])


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


def _rank_one_witness(g, r, n, N):
    """Factors t_k = u_1^{r_1/q_1k} x ... x u_m^{r_m/q_mk} that attain Hoelder's bound.

    Their product is u_1 x ... x u_m, of mixed norm prod_j ||u_j||_{r_j}.
    Factor k has mixed norm prod_j ||u_j||_{r_j}^{r_j/q_jk}, and the
    exponents r_j/q_jk sum to 1 over k. A q_jk = inf gives exponent 0.
    """
    q = [random_splitting(g, rj, N) for rj in r]
    u = [0.5 + g.random(n) for _ in r]
    factors = [
        functools.reduce(np.multiply.outer, [uj ** (rj / qj[k]) for uj, rj, qj in zip(u, r, q)])
        for k in range(N)
    ]
    return factors, q


def test_holder_verify_reaches_equality_on_rank_one_witnesses():
    g = np.random.Generator(np.random.PCG64(1))
    r = (1.0, 2.0, 4.0)
    for _ in range(300):
        factors, q = _rank_one_witness(g, r, 4, 3)
        chk = holder_verify(factors, r, q)
        assert chk.holds
        assert chk.lhs / chk.rhs >= 1.0 - 1e-12


def test_holder_verify_refuses_a_product_planted_above_the_bound(monkeypatch):
    real = tensors.coordinate_product
    monkeypatch.setattr(tensors, "coordinate_product", lambda ts: real(ts) * (1.0 + 1e-6))
    g = np.random.Generator(np.random.PCG64(1))
    r = (1.0, 2.0, 4.0)
    for _ in range(20):
        factors, q = _rank_one_witness(g, r, 4, 3)
        assert not holder_verify(factors, r, q).holds


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


def test_random_splitting_many_factors_stays_finite():
    from mixedsums.tensors import random_splitting

    for seed in range(20):
        q = random_splitting(np.random.Generator(np.random.PCG64(seed)), 1.5, 60)
        assert all(not math.isnan(qk) and qk > 0.0 for qk in q)
        assert any(qk != INF for qk in q)
        assert math.fsum(1.0 / qk for qk in q) == pytest.approx(1.0 / 1.5, rel=1e-12)


def test_random_splitting_keeps_draws_with_a_large_weight():
    from mixedsums.tensors import random_splitting

    for N in (1, 2, 5, 12):
        g, h = (np.random.Generator(np.random.PCG64(N)) for _ in range(2))
        w = h.random(N)
        w = w / w.sum()
        w[w < 0.05] = 0.0
        w = w / w.sum()
        assert random_splitting(g, 2.0, N) == [INF if wk == 0.0 else 2.0 / wk for wk in w]


@pytest.mark.parametrize(
    "f, args, message",
    [
        pytest.param(
            holder_verify, ([], (1.0,), [(1.0,)]), "need at least one tensor", id="holder"
        ),
        pytest.param(tensor_from_obj, ([1],), "a tensor must be a JSON object", id="from_obj"),
        pytest.param(
            fiber_norms, (3.0, 2.0), "fiber_norms needs an axis of fibers, got shape ()",
            id="fiber_norms",
        ),
    ],
)
def test_input_checks_name_their_rule(f, args, message):
    with pytest.raises(ValueError) as e:
        f(*args)
    assert str(e.value) == message


def test_mixed_norm_of_a_scalar_is_its_modulus():
    # mixed_norm reads a 0-d tensor as one entry, unlike fiber_norms
    assert mixed_norm(3.0, (2.0,)).value == 3.0
    assert mixed_norm(-3.0, (INF,)).value == 3.0
