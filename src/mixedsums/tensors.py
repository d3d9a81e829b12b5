"""Dense coefficient tensors, mixed ell_r norms, and the mixed Hoelder check.

A tensor is a plain numpy array of shape (n_1, ..., n_m). The mixed norm
with exponent vector r is the nested quantity

    ( sum_{i_1} ( ... ( sum_{i_m} |a_i|^{r_m} )^{r_{m-1}/r_m} ... )^{r_1/r_2} )^{1/r_1}

evaluated innermost sum first; r_j = inf replaces the j-th sum by a
supremum. Each level is one call of `fiber_norms`: every fiber is scaled
near its largest modulus, so that its powers stay in floating-point range,
and the powers are added by a compensated sum (Ogita-Rump-Oishi Sum2) in
fixed index order in one thread, so results are bit-identical run to run.
Integer fibers at r = 1 or 2 whose sums stay below 2**53 are added plainly:
there Sum2 cannot change a bit. An axis that a broadcast repeats (stride
0) is read once: mixed_norm slices every such axis to length 1 and hands
each level's norms of the distinct fibers to the next. A repeated fiber
axis repeats one entry, and Sum2 of n copies of its scaled power y is
y * n correctly rounded while n <= 2**25, so such a level takes one
modulus, scale, power, product and root per distinct fiber, all fibers
at once. So the mixed norm of np.broadcast_to(1.0, (n,) * m) takes m
powers, not n**m, with the bits of a contiguous copy for finite entries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exponents import INF, as_exponent_vector

__all__ = [
    "NumericalError",
    "compensated_sum",
    "fiber_norms",
    "MixedNormResult",
    "mixed_norm",
    "coordinate_product",
    "HolderCheck",
    "check_splitting",
    "random_splitting",
    "holder_verify",
    "tensor_to_obj",
    "tensor_from_obj",
]

# relative slack for the Hoelder verdict and the splitting identity
HOLDER_TOL = 1e-9


# fibers are processed in blocks of about this many entries, so the
# temporaries stay small whatever the size of the tensor
_BLOCK = 2**15
_POW2_SCALING_MAX_R = 512.0


class NumericalError(ArithmeticError):
    """float64 gave no usable value for this input: a norm that is not
    finite, or an ascent objective that fell. A domain error, unlike the
    other ArithmeticErrors, which are faults of the code."""


def _sum2(x: np.ndarray) -> np.ndarray:
    # Sum2 of each row of the (k, n) array x. The running totals and the
    # two TwoSum terms are fresh C-contiguous arrays, the terms of shape
    # (k, n - 1), so the errors sum pairwise along contiguous rows
    s = np.add.accumulate(x, axis=-1)  # np.cumsum, without its wrapper
    prev, cur = s[:, :-1], s[:, 1:]
    b = np.subtract(cur, prev)
    t = np.subtract(cur, b)
    np.subtract(prev, t, out=t)
    np.subtract(x[:, 1:], b, out=b)
    t += b
    return s[:, -1] + t.sum(axis=-1)


def compensated_sum(x) -> np.ndarray:
    """Sum along the last axis, as if accumulated in twice the working precision.

    Ogita-Rump-Oishi Sum2: a sequential cumulative sum gives the running
    totals, TwoSum recovers the rounding error of each step exactly, and
    the errors are added back at the end. Each row is first divided by
    the power of two that brings its largest modulus into [1, 2), and the
    sum multiplied back, so no running total overflows while the sum is
    finite. Dividing by a power of two is exact, so the bits are those of
    the unscaled Sum2 unless a scaled entry, an error term or the sum
    leaves the normal range. Empty rows sum to 0.0, as np.sum gives.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError(f"compensated_sum needs an axis to sum along, got shape {x.shape}")
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])[()]
    rows = x.reshape(-1, x.shape[-1])
    scale = _scale(np.abs(rows).max(axis=-1), 1.0)  # 0.5 for a zero row
    return (_sum2(rows / scale[:, None]) * scale).reshape(x.shape[:-1])[()]


def fiber_norms(a, r: float) -> np.ndarray:
    """ell_r (quasi-)norm of every fiber of `a` along its last axis (r = inf: max).

    Each fiber is divided by the power of two that brings its largest
    modulus into [1, 2). That is exact, so sums of integers stay exact; for
    r > 512, where x**r could then overflow, the divisor is the largest
    modulus itself. The powers are added by Sum2, except in a block where
    r is 1 or 2, every modulus is an integer and n * max**r < 2**53: there
    every partial sum is exact in any order, so the plain sum gives the
    same float at a fraction of the cost. Such a block is not scaled
    either: at r = 1 the scale is an exact power of two, and at r = 2 the
    root is a correctly rounded square root, which commutes with the even
    power of two the squares were scaled by. Large tensors go a block of
    fibers at a time, each with its own temporaries: |x| and, when it
    takes Sum2, the running totals and TwoSum terms.
    An axis of stride 0 repeats the same entries and is read once. A
    repeated leading axis repeats whole fibers, whose norms are computed
    once; the result is then a read-only broadcast of shape a.shape[:-1].
    A repeated fiber axis repeats one entry. Sum2 of n copies of its
    scaled power y is y * n correctly rounded, for n <= 2**25, and the
    plain sum's n * x**r is that float too, so the fiber takes one
    multiply: nothing is written out and no route is chosen. For finite
    entries and n <= 2**25 the bits are those a contiguous copy gives. A
    repeated inf gives inf, the true sum, where the copy's Sum2 forms
    inf - inf, NaN, once n >= 2 (at r > 512 both give NaN); mixed_norm
    raises NumericalError on either. At r = 1 no root is taken. An empty
    fiber has norm 0.0 at every r. r is not validated.
    """
    a = np.asarray(a)
    if a.ndim == 0:
        raise ValueError(f"fiber_norms needs an axis of fibers, got shape {a.shape}")
    lead = a.shape[:-1]
    if a.shape[-1] == 0:  # the empty sum, and the max of no modulus
        return np.zeros(lead)
    out = _reduce(_distinct(a), a.shape[-1], r)
    return out if out.shape == lead else np.broadcast_to(out, lead)


def _distinct(a: np.ndarray) -> np.ndarray:
    # a with every stride-0 axis sliced to length 1: each entry once. One
    # test first, so contiguous arrays pay ~100 ns
    if 0 not in a.strides:
        return a
    return a[tuple(slice(0, 1) if s == 0 else slice(None) for s in a.strides)]


def _reduce(d: np.ndarray, n: int, r: float) -> np.ndarray:
    # fiber_norms of a tensor with fibers of length n, given its distinct
    # entries d (see _distinct): each row of d is a fiber, or, when d's
    # last axis has length 1, a fiber's one entry repeated n times. Each
    # fiber's norm depends on that fiber alone (the scale is per fiber, and
    # the plain sum and Sum2 agree wherever the plain sum is taken), so the
    # result is the norms of the distinct fibers, shape d.shape[:-1]
    if d.shape[-1] == 1:
        return _repeated(d[..., 0], n, r)
    rows = d.reshape(-1, n)
    step = max(1, _BLOCK // n)
    if 0 < len(rows) <= step:  # one block: its norms are the result
        return _block_norms(rows, n, r).reshape(d.shape[:-1])
    out = np.empty(len(rows))
    for lo in range(0, len(rows), step):
        out[lo : lo + step] = _block_norms(rows[lo : lo + step], n, r)
    return out.reshape(d.shape[:-1])


def _block_norms(block: np.ndarray, n: int, r: float) -> np.ndarray:
    # the norms of the fibers of length n that are the rows of block, as a
    # fresh array; |x| and any Sum2 temporaries are this block's own
    # unsafe casting converts any input dtype as astype(float64) would
    x = np.abs(block, out=np.empty(block.shape), casting="unsafe")
    top = x.max(axis=-1)
    if r == INF:
        return top
    exact = _integer_powers_fit(x, top, n, r)
    if not exact:
        scale = _scale(top, r)
        x /= scale[:, None]
    if r == 2.0:  # a product is correctly rounded on every host
        np.square(x, out=x)
    elif r != 1.0:  # x ** 1 is x exactly
        x **= r
    total = x.sum(axis=-1) if exact else _sum2(x)
    if r != 1.0:  # the root of a sum at r = 1 is the sum
        total = total ** (1.0 / r)
    return total if exact else total * scale


def _scale(top: np.ndarray, r: float) -> np.ndarray:
    # the divisor of each fiber: the power of two that brings its largest
    # modulus top into [1, 2), or top itself for r > 512
    if r > _POW2_SCALING_MAX_R:
        return np.where(top > 0.0, top, 1.0)
    return np.ldexp(0.5, np.frexp(top)[1])


def _repeated(e: np.ndarray, n: int, r: float) -> np.ndarray:
    # norms of fibers that each repeat one entry of e n times, for all of
    # them at once. Sum2 of n copies of a finite y >= 0 is y * n correctly
    # rounded while n <= 2**25: every running sum and y are multiples of
    # ulp(y), each TwoSum error is a multiple of it below 2 * n ulps, so
    # the errors add up exactly in any order to n * y - s_n, and the last
    # step rounds n * y once. On the plain-sum path y * n is exact, and
    # dividing by a power of two commutes with it and with the square
    # root, so the scaled formula below serves both paths
    x = np.abs(e, out=np.empty(e.shape), casting="unsafe")
    if r == INF:
        return x
    scale = _scale(x, r)
    x /= scale
    if r == 2.0:
        np.square(x, out=x)
    elif r != 1.0:
        x **= r
    x *= n
    if r != 1.0:
        x **= 1.0 / r
    x *= scale
    return x


def _integer_powers_fit(x: np.ndarray, top: np.ndarray, n: int, r: float) -> bool:
    # True when r is 1 or 2, every modulus in x is an integer and
    # n * max**r < 2**53 for fibers of length n: then every partial sum of
    # the scaled powers is an integer below 2**53 times a power of two, so
    # any order of addition is exact and Sum2 would return the plain sum.
    # The scalar tests go first, so float data pays for no pass over x
    if r != 1.0 and r != 2.0:
        return False
    biggest = float(top.max())
    if not biggest.is_integer() or n * int(biggest) ** int(r) >= 2**53:
        return False
    return bool((np.trunc(x) == x).all())


@dataclass(frozen=True)
class MixedNormResult:
    """Value of a mixed norm together with the exponents that produced it."""

    value: float
    exponents_used: tuple[float, ...]


def mixed_norm(a, r) -> MixedNormResult:
    """Mixed ell_r (quasi-)norm of a dense tensor.

    r must have one entry per tensor axis; entries lie in (0, inf]. The
    innermost exponent r_m applies to the last axis. Raises
    NumericalError when the value is not finite: an entry is, or the norm
    overflows float64. Only the value is checked, not every entry.
    """
    a = np.atleast_1d(a)
    if a.size == 0:
        raise ValueError(f"tensor of shape {a.shape} has no entries")
    r = as_exponent_vector(r, a.ndim, "r")
    d = _distinct(a)
    for n, rj in zip(reversed(a.shape), reversed(r)):
        d = _reduce(d, n, rj)
    value = float(d)
    if not math.isfinite(value):
        raise NumericalError(
            f"mixed norm is {value!r}: an entry is not finite or the norm overflows"
        )
    return MixedNormResult(value=value, exponents_used=r)


def coordinate_product(tensors) -> np.ndarray:
    """Entrywise product of tensors with identical shapes."""
    tensors = [np.asarray(t) for t in tensors]
    if not tensors:
        raise ValueError("need at least one tensor")
    shape = tensors[0].shape
    for k, t in enumerate(tensors):
        if t.shape != shape:
            raise ValueError(f"tensor {k} has shape {t.shape}, expected {shape}")
    out = tensors[0].copy()
    for t in tensors[1:]:
        out = out * t
    return out


@dataclass(frozen=True)
class HolderCheck:
    """Both sides of one mixed-Hoelder instance and the verdict."""

    lhs: float
    rhs: float
    holds: bool
    slack: float


def check_splitting(r, q) -> None:
    """Raise ValueError unless 1/r_j = sum_k 1/q[j][k] within 1e-9 for every j."""
    for j, (rj, row) in enumerate(zip(r, q)):
        lhs = 1.0 / rj
        rhs = math.fsum(1.0 / x for x in row)
        if abs(lhs - rhs) > HOLDER_TOL:
            raise ValueError(
                f"splitting identity fails at axis {j}: 1/r = {lhs}, "
                f"sum of 1/q = {rhs}"
            )


def random_splitting(g, r_j: float, N: int) -> list[float]:
    """Random exponents q_1..q_N from generator g with sum_k 1/q_k = 1/r_j.

    Normalised weights below 0.05 get q_k = inf, so no exponent is huge;
    the largest weight is always kept, so some q_k is finite.
    """
    if r_j == INF:
        return [INF] * N
    w = g.random(N)
    w = w / w.sum()
    w[w < min(0.05, w.max())] = 0.0
    w = w / w.sum()
    return [INF if wk == 0.0 else r_j / wk for wk in w]


def holder_verify(tensors, r, q) -> HolderCheck:
    """Verify mixed_norm(prod tensors, r) <= prod_k mixed_norm(tensors[k], q_k).

    q[j][k] is the exponent applied to axis j of factor k; the splitting
    identity 1/r_j = sum_k 1/q[j][k] must hold for every j within 1e-9 in
    reciprocal space, otherwise the instance is rejected. The verdict allows
    1e-9 relative slack on the inequality itself.
    """
    tensors = [np.asarray(t) for t in tensors]
    N = len(tensors)
    if N == 0:
        raise ValueError("need at least one tensor")
    m = tensors[0].ndim
    r = as_exponent_vector(r, m, "r")
    q = [as_exponent_vector(row, N, f"q[{j}]") for j, row in enumerate(q)]
    if len(q) != m:
        raise ValueError(f"q has {len(q)} rows, expected m={m}")
    check_splitting(r, q)
    lhs = mixed_norm(coordinate_product(tensors), r).value
    rhs_factors = [
        mixed_norm(tensors[k], tuple(q[j][k] for j in range(m))).value
        for k in range(N)
    ]
    rhs = float(np.prod(rhs_factors))
    return HolderCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + HOLDER_TOL), slack=rhs - lhs)


def tensor_to_obj(a) -> dict:
    """JSON-ready dict {shape, data} with row-major flat data.

    Complex tensors store entries as [re, im] pairs and set dtype: complex.
    Round trip through json.dumps/loads is bit-exact (floats serialize via
    repr).
    """
    a = np.asarray(a)
    obj = {"shape": list(a.shape)}
    if np.iscomplexobj(a):
        flat = a.astype(np.complex128).ravel()
        obj["dtype"] = "complex"
        obj["data"] = flat.view(np.float64).reshape(-1, 2).tolist()
    else:
        obj["data"] = a.astype(np.float64).ravel().tolist()
    return obj


def _integer(v) -> int:
    """v as an int; bools, strings and floats with a fraction are rejected."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is not an integer")
    return operator.index(v)


def _vector(cast):
    """Reader of a list or tuple, not a string, casting every entry."""

    def read(v) -> tuple:
        if not isinstance(v, (list, tuple)):
            raise TypeError(f"{v!r} is not a list")
        return tuple(cast(x) for x in v)

    return read


def _read_field(obj, key: str, cast, owner: str):
    """cast(obj[key]); a missing or malformed field raises a ValueError naming it.

    The one reader of JSON fields: tensors, forms and experiment configs
    all decode theirs through it.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a {owner} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{owner} object needs a {key!r} field")
    try:
        return cast(obj[key])
    except (TypeError, ValueError) as e:
        raise ValueError(f"{owner} field {key!r}: {e}") from None


def tensor_from_obj(obj) -> np.ndarray:
    """Inverse of tensor_to_obj, with shape/finiteness validation."""
    shape = _read_field(obj, "shape", _vector(_integer), "tensor")
    data = _read_field(obj, "data", _vector(lambda x: x), "tensor")
    if any(n < 1 for n in shape):
        raise ValueError(f"shape entries must be positive, got {shape}")
    size = int(np.prod(shape)) if shape else 1
    if len(data) != size:
        raise ValueError(f"data length {len(data)} does not match shape {shape}")
    try:
        if obj.get("dtype") == "complex":
            flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
        else:
            flat = np.array([float(x) for x in data], dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(
            "tensor data must be numbers, or [re, im] pairs when dtype is complex"
        ) from None
    if not np.all(np.isfinite(flat)):
        raise ValueError("tensor entries must be finite")
    return flat.reshape(shape)
