"""Operator-norm estimation for multilinear forms on products of ell_p balls.

Three estimators with honestly labeled kinds:

  * brute_force_norm   - exact, all p_j = inf and real coefficients only.
    A multilinear form on a product of cubes attains its maximum at sign
    vectors, so enumerating sign patterns (with the last argument optimized
    in closed form) is an exact oracle.
  * alternating_ascent - lower bound for any p >= 1. Cyclically replaces one
    argument by the exact maximizer of the induced linear functional; the
    objective is monotone, so every run converges to a local maximum.
  * analytic_norm      - closed forms for the diagonal and row families.

All estimates carry a witness; evaluate(form, witness) reproduces the value
to 1e-9 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rng
from .exponents import INF, as_exponent, conjugate, harmonic_sum
from .forms import MultilinearForm, evaluate, partial_contract
from .tensors import fiber_norms, tensor_to_obj

__all__ = [
    "NormEstimate",
    "lp_norm",
    "dual_maximizer",
    "alternating_ascent",
    "brute_force_norm",
    "analytic_norm",
    "estimate_to_obj",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 200
DEFAULT_BUDGET = 2**24


@dataclass(frozen=True)
class NormEstimate:
    """A norm value with provenance: exact, lower_bound, or analytic."""

    value: float
    kind: str
    witness: list[np.ndarray]
    restarts_used: int
    converged: bool


def lp_norm(v: np.ndarray, p: float) -> float:
    """ell_p norm of a 1-D array; the one-fiber case of tensors.fiber_norms."""
    return float(fiber_norms(v, p))


def dual_maximizer(c, p) -> tuple[np.ndarray, float]:
    """Exact maximizer of Re sum(c_i x_i) over the unit ell_p ball.

    Returns (x, value) with ||x||_p <= 1 and value = ||c||_{p'}. Ties at
    p = 1 go to the smallest index; sign(0) = +1. Complex c gets a
    phase-aligned maximizer. c = 0 returns the zero vector.
    """
    p = as_exponent(p, "p")
    if p < 1.0:
        raise ValueError(f"requires p >= 1, got p = {p}")
    c = np.asarray(c)
    if np.iscomplexobj(c):
        c = c.astype(np.complex128)
        a = np.abs(c)
        # align phases: x_i proportional to conj(c_i)/|c_i|
        unit = np.where(a > 0.0, np.conj(c) / np.where(a > 0.0, a, 1.0), 1.0 + 0j)
    else:
        c = c.astype(np.float64)
        a = np.abs(c)
        unit = np.where(c >= 0.0, 1.0, -1.0)

    if not np.any(a > 0.0):
        return np.zeros_like(c), 0.0

    pp = conjugate(p)
    value = lp_norm(a, pp)
    if p == INF:
        return unit, value
    if p == 1.0:
        i = int(np.argmax(a))
        x = np.zeros_like(c)
        x[i] = unit[i]
        return x, value
    x = unit * (a / a.max()) ** (pp - 1.0)
    return x / lp_norm(x, p), value


def _unit_start(v: np.ndarray, p: float) -> np.ndarray:
    nrm = lp_norm(v, p)
    return v / nrm if nrm > 0.0 else v


def _single_ascent(form, start, tol, max_iters):
    """One ascent run; returns (value, witness, converged)."""
    m = form.arity
    xs = [np.asarray(v, dtype=np.float64) for v in start]
    if np.iscomplexobj(form.coefficients):
        xs = [v.astype(np.complex128) for v in xs]
    prev = None
    last = 0.0
    val = 0.0
    converged = False
    for _ in range(max_iters):
        for j in range(m):
            c = partial_contract(form, xs, j)
            xs[j], val = dual_maximizer(c, form.p[j])
            # each exact slot update can only raise the objective
            if val < last * (1.0 - 1e-9) - 1e-300:
                raise ArithmeticError(
                    f"ascent objective fell from {last!r} to {val!r} at slot {j}"
                )
            last = val
        if prev is not None and val - prev <= tol * max(prev, 1e-300):
            converged = True
            break
        prev = val
    return val, xs, converged


def alternating_ascent(
    form: MultilinearForm,
    restarts: int = 32,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    threads: int = 1,
) -> NormEstimate:
    """Lower-bound the norm by cyclic exact line maximization.

    Runs `restarts` random starts (uniform on the unit sphere of each slot,
    stream keyed by (seed, restart_index)) plus two deterministic starts:
    all-ones normalized and the first basis vector. Reports the best value;
    ties go to the smallest restart index. converged=False means at least
    one of the runs (including the best) hit the iteration cap; the reported
    flag belongs to the best run. Every run executes in the calling thread;
    `threads` is accepted for compatibility and has no effect.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    m = form.arity
    dims = form.shape

    def start_for(t: int) -> list[np.ndarray]:
        if t == 0:
            return [_unit_start(np.ones(n), pj) for n, pj in zip(dims, form.p)]
        if t == 1:
            return [np.eye(n)[0] for n in dims]
        g = _rng.stream(seed, t)
        return [
            _unit_start(g.standard_normal(n), pj) for n, pj in zip(dims, form.p)
        ]

    total = restarts + 2
    results = [_single_ascent(form, start_for(t), tol, max_iters) for t in range(total)]

    best = 0
    for t in range(1, total):
        if results[t][0] > results[best][0]:
            best = t
    val, xs, converged = results[best]
    return NormEstimate(
        value=val,
        kind="lower_bound",
        witness=xs,
        restarts_used=total,
        converged=converged,
    )


def brute_force_norm(
    form: MultilinearForm, budget: int = DEFAULT_BUDGET
) -> NormEstimate:
    """Exact norm over products of ell_inf balls by sign enumeration.

    Enumerates sign patterns of arguments 1..m-1 with the first coordinate
    of each pinned to +1 (global sign flips per slot leave |T| unchanged)
    and optimizes the last argument in closed form. Rejects finite
    exponents, complex coefficients, and pattern counts beyond `budget`.
    """
    if any(pj != INF for pj in form.p):
        raise ValueError("brute force requires every domain exponent to be inf")
    if np.iscomplexobj(form.coefficients):
        raise ValueError("brute force requires real coefficients")
    m = form.arity
    dims = form.shape
    coeffs = form.coefficients

    if m == 1:
        x, val = dual_maximizer(coeffs, INF)
        return NormEstimate(
            value=val, kind="exact", witness=[x], restarts_used=0, converged=True
        )

    free = dims[:-1]
    counts = [2 ** (n - 1) for n in free]
    total = 1
    for cn in counts:
        total *= cn
    if total > budget:
        raise ValueError(
            f"enumeration needs {total} sign patterns, budget is {budget}"
        )

    # decode a flat pattern index into one sign vector per free slot
    def signs_for(idx_block: np.ndarray, j: int) -> np.ndarray:
        nj = free[j]
        bits = (idx_block[:, None] >> np.arange(nj - 1, dtype=np.uint64)) & 1
        first = np.ones((idx_block.shape[0], 1))
        return np.concatenate([first, 1.0 - 2.0 * bits.astype(np.float64)], axis=1)

    letters = "abcdefghijklmnopqrstuvwxyz"
    if m > len(letters) - 1:
        raise ValueError("arity too large for enumeration")
    # contract coeffs[a, b, ..., z] against per-pattern sign matrices S_j[k, a]
    subs = letters[: m - 1]
    spec = (
        letters[: m - 1]
        + letters[m - 1]
        + ","
        + ",".join("k" + s for s in subs)
        + "->k"
        + letters[m - 1]
    )

    best_val = -1.0
    best_idx = 0
    chunk = 4096
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.uint64)
        mats = []
        stride = total
        for j in range(m - 1):
            stride //= counts[j]
            mats.append(signs_for((idx // np.uint64(stride)) % np.uint64(counts[j]), j))
        contracted = np.einsum(spec, coeffs, *mats, optimize=False)
        vals = np.abs(contracted).sum(axis=1)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_idx = int(idx[k])

    # rebuild the winning witness and recompute its exact value
    witness = []
    stride = total
    rest = best_idx
    for j in range(m - 1):
        stride //= counts[j]
        block = np.array([rest // stride], dtype=np.uint64)
        rest %= stride
        witness.append(signs_for(block, j)[0])
    c_last = partial_contract(form, witness + [None], m - 1)
    x_last, val = dual_maximizer(c_last, INF)
    witness.append(x_last)
    return NormEstimate(
        value=val, kind="exact", witness=witness, restarts_used=0, converged=True
    )


def analytic_norm(form: MultilinearForm) -> NormEstimate | None:
    """Closed-form norm for the diagonal and row families; None otherwise.

    Row: value n_2^{1 - 1/p_2} is attained (kind=exact, witness x = e_1 and
    the dual maximizer of the all-ones vector). Diagonal: value
    n^{max(1 - |1/p|, 0)} is the closed-form upper bound (kind=analytic)
    with the uniform witness attaining it when |1/p| <= 1, the basis witness
    otherwise.
    """
    if form.kind == "row":
        n1, n2 = form.shape
        y, val = dual_maximizer(np.ones(n2), form.p[1])
        x = np.zeros(n1)
        x[0] = 1.0
        return NormEstimate(
            value=val, kind="exact", witness=[x, y], restarts_used=0, converged=True
        )
    if form.kind == "diagonal":
        m = form.arity
        n = form.shape[0]
        h = harmonic_sum(form.p)
        expo = max(1.0 - h, 0.0)
        value = float(n) ** expo
        if h <= 1.0:
            witness = [
                np.full(n, float(n) ** (-1.0 / pj))
                for pj in form.p
            ]
        else:
            witness = [np.eye(n)[0] for _ in range(m)]
        return NormEstimate(
            value=value,
            kind="analytic",
            witness=witness,
            restarts_used=0,
            converged=True,
        )
    return None


def estimate_to_obj(est: NormEstimate) -> dict:
    """JSON-ready dict for a NormEstimate."""
    return {
        "value": est.value,
        "kind": est.kind,
        "witness": [tensor_to_obj(v)["data"] for v in est.witness],
        "restarts_used": est.restarts_used,
        "converged": est.converged,
    }
