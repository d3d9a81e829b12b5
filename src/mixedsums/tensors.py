"""Dense coefficient tensors, mixed ell_r norms, and the mixed Hoelder check.

A tensor is a plain numpy array of shape (n_1, ..., n_m). The mixed norm
with exponent vector r is the nested quantity

    ( sum_{i_1} ( ... ( sum_{i_m} |a_i|^{r_m} )^{r_{m-1}/r_m} ... )^{r_1/r_2} )^{1/r_1}

evaluated innermost sum first; r_j = inf replaces the j-th sum by a
supremum. Each level is one call of `fiber_norms`: every fiber is scaled
near its largest modulus, so that its powers stay in floating-point range,
and the powers are added by a compensated sum (Ogita-Rump-Oishi Sum2) in
fixed index order in one thread, so results are bit-identical run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import INF, as_exponent_vector

__all__ = [
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


def compensated_sum(x) -> np.ndarray:
    """Sum along the last axis, as if accumulated in twice the working precision.

    Ogita-Rump-Oishi Sum2: a sequential cumulative sum gives the running
    totals, TwoSum recovers the rounding error of each step exactly, and
    the errors are added back at the end.
    """
    x = np.asarray(x, dtype=np.float64)
    s = np.cumsum(x, axis=-1)
    prev, cur = s[..., :-1], s[..., 1:]
    b = cur - prev
    err = (prev - (cur - b)) + (x[..., 1:] - b)
    return s[..., -1] + err.sum(axis=-1)


def _block_norms(x: np.ndarray, r: float) -> np.ndarray:
    x = np.abs(x).astype(np.float64, copy=False)
    top = x.max(axis=-1)
    if r == INF:
        return top
    if r > _POW2_SCALING_MAX_R:
        scale = np.where(top > 0.0, top, 1.0)
    else:
        scale = np.ldexp(0.5, np.frexp(top)[1])
    x /= scale[..., None]
    x **= r
    return compensated_sum(x) ** (1.0 / r) * scale


def fiber_norms(a, r: float) -> np.ndarray:
    """ell_r (quasi-)norm of every fiber of `a` along its last axis (r = inf: max).

    Each fiber is divided by the power of two that brings its largest
    modulus into [1, 2). That is exact, so sums of integers stay exact; for
    r > 512, where x**r could then overflow, the divisor is the largest
    modulus itself. Large tensors go a block of fibers at a time. r is not
    validated.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    rows = a.reshape(-1, n)
    out = np.empty(len(rows))
    step = max(1, _BLOCK // n)
    for lo in range(0, len(rows), step):
        out[lo : lo + step] = _block_norms(rows[lo : lo + step], r)
    return out.reshape(a.shape[:-1])


@dataclass(frozen=True)
class MixedNormResult:
    """Value of a mixed norm together with the exponents that produced it."""

    value: float
    exponents_used: tuple[float, ...]


def mixed_norm(a, r) -> MixedNormResult:
    """Mixed ell_r (quasi-)norm of a dense tensor.

    r must have one entry per tensor axis; entries lie in (0, inf]. The
    innermost exponent r_m applies to the last axis.
    """
    a = np.atleast_1d(a)
    if a.size == 0:
        raise ValueError(f"tensor of shape {a.shape} has no entries")
    r = as_exponent_vector(r, a.ndim, "r")
    for rj in reversed(r):
        a = fiber_norms(a, rj)
    return MixedNormResult(value=float(a), exponents_used=r)


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

    Normalised weights below 0.05 get q_k = inf, so no exponent is huge.
    """
    if r_j == INF:
        return [INF] * N
    w = g.random(N)
    w = w / w.sum()
    w[w < 0.05] = 0.0
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
        flat = a.astype(np.complex128).ravel(order="C")
        obj["dtype"] = "complex"
        obj["data"] = [[float(z.real), float(z.imag)] for z in flat]
    else:
        obj["data"] = [float(x) for x in a.astype(np.float64).ravel(order="C")]
    return obj


def tensor_from_obj(obj) -> np.ndarray:
    """Inverse of tensor_to_obj, with shape/finiteness validation."""
    try:
        shape = tuple(int(n) for n in obj["shape"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"tensor object needs 'shape' and 'data' fields: {e}") from None
    if any(n < 1 for n in shape):
        raise ValueError(f"shape entries must be positive, got {shape}")
    size = int(np.prod(shape)) if shape else 1
    if not isinstance(data, list):
        raise ValueError("tensor 'data' must be a list")
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
