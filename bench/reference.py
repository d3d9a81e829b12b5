"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls the package: the checks compare the package's outputs
against these, so a bug shared by both would not hide itself.

  * ``brute_norm``   - exact norm of a +-1 form over products of cubes, in
    integer arithmetic. For m = 2 it splits the sign bits into a low and a
    high half and combines precomputed partial sums; for m >= 3 it
    contracts one slot at a time against every sign pattern.
  * ``ascent_value`` - the package's alternating-ascent algorithm (same
    starts, same update rule, same stopping rule), batched over restarts.
  * ``evaluate`` and ``lp_norm`` - plain NumPy versions for witness checks.
"""

from __future__ import annotations

import math

import numpy as np

INF = float("inf")
_MASK64 = 0xFFFFFFFFFFFFFFFF
# entries per block of the brute-force reference (512 KiB of int64), so that
# its peak memory stays below the package's and peak_rss_mb measures the package
BLOCK_ENTRIES = 1 << 16


def _signs(k: int) -> np.ndarray:
    """All 2^k sign vectors of length k, shape (2^k, k), as int64."""
    bits = (np.arange(2**k, dtype=np.int64)[:, None] >> np.arange(k)) & 1
    return 1 - 2 * bits


def _sign_patterns(n: int) -> np.ndarray:
    """All (2^(n-1), n) sign vectors with first entry +1."""
    s = _signs(n - 1)
    return np.concatenate([np.ones((s.shape[0], 1), dtype=np.int64), s], axis=1)


def brute_norm(coeffs: np.ndarray) -> int:
    """max |T(x_1, ..., x_m)| over sign vectors, for integer coefficients."""
    a = np.asarray(coeffs)
    if not np.array_equal(a, np.round(a)):
        raise ValueError("reference brute force needs integer coefficients")
    a = a.astype(np.int64)
    if a.ndim == 1:
        return int(np.abs(a).sum())
    if a.ndim == 2:
        return _brute_split(a)
    # contract the free slots one at a time, a block of first-slot patterns
    # at a time; the pattern axis grows in front
    first = _sign_patterns(a.shape[0])
    rows = _block_rows(a.shape[-1] * math.prod(2 ** (n - 1) for n in a.shape[1:-1]))
    best = 0
    for s in range(0, first.shape[0], rows):
        cur = np.tensordot(first[s : s + rows], a, axes=(1, 0))
        for n in a.shape[1:-1]:
            cur = np.einsum("pj...,qj->pq...", cur, _sign_patterns(n))
            cur = cur.reshape((-1,) + cur.shape[2:])
        best = max(best, int(np.abs(cur).sum(axis=-1).max()))
    return best


def _block_rows(row_size: int) -> int:
    """Rows per block so that a block holds at most BLOCK_ENTRIES entries."""
    return max(1, BLOCK_ENTRIES // row_size)


def _brute_split(a: np.ndarray) -> int:
    n1 = a.shape[0]
    free = n1 - 1
    lo_bits = free // 2
    lo_rows = a[1 : 1 + lo_bits]
    hi_rows = a[1 + lo_bits :]
    lo = a[0] + _signed_sums(lo_rows)
    hi = _signed_sums(hi_rows)
    best = 0
    chunk = _block_rows(lo.size)
    for s in range(0, hi.shape[0], chunk):
        block = np.abs(lo[None, :, :] + hi[s : s + chunk, None, :]).sum(axis=-1)
        best = max(best, int(block.max()))
    return best


def _signed_sums(rows: np.ndarray) -> np.ndarray:
    """sum_i s_i rows[i] for every s in {-1, +1}^k, shape (2^k, width)."""
    return _signs(rows.shape[0]) @ rows


def lp_norm(v: np.ndarray, p: float) -> np.ndarray:
    """ell_p norm along the last axis, scaled by the max entry."""
    a = np.abs(v)
    amax = a.max(axis=-1, keepdims=True)
    if p == INF:
        return amax[..., 0]
    safe = np.where(amax > 0.0, amax, 1.0)
    out = safe[..., 0] * np.sum((a / safe) ** p, axis=-1) ** (1.0 / p)
    return np.where(amax[..., 0] > 0.0, out, 0.0)


def evaluate(coeffs: np.ndarray, witness) -> float:
    """T(x_1, ..., x_m) by contracting the last slot first."""
    cur = np.asarray(coeffs, dtype=np.float64)
    for v in reversed(witness):
        cur = cur @ np.asarray(v, dtype=np.float64)
    return float(cur)


def _contract_except(a: np.ndarray, xs: list[np.ndarray], skip: int) -> np.ndarray:
    """Row-wise partial contraction: one linear functional per restart."""
    m = a.ndim
    operands = [a, list(range(m))]
    for j in range(m):
        if j != skip:
            operands += [xs[j], [m, j]]
    return np.einsum(*operands, [m, skip])


def _dual(c: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise maximizer of <c, x> over the unit ell_p ball and its value."""
    a = np.abs(c)
    unit = np.where(c >= 0.0, 1.0, -1.0)
    nonzero = (a > 0.0).any(axis=1, keepdims=True)
    if p == INF:
        return np.where(nonzero, unit, 0.0), a.sum(axis=1)
    if p <= 1.0:
        raise ValueError("reference ascent supports p > 1 only")
    pp = p / (p - 1.0)
    value = lp_norm(a, pp)
    amax = np.where(nonzero, a.max(axis=1, keepdims=True), 1.0)
    x = unit * (a / amax) ** (pp - 1.0)
    x = x / np.where(nonzero, lp_norm(x, p)[:, None], 1.0)
    return np.where(nonzero, x, 0.0), value


def ascent_value(
    coeffs: np.ndarray,
    p: tuple[float, ...],
    restarts: int = 32,
    seed: int = 0,
    tol: float = 1e-10,
    max_iters: int = 200,
) -> float:
    """Best value of the package's ascent, all restarts advanced together.

    Start t = 0 is the normalized all-ones vector, t = 1 the first basis
    vector, and t >= 2 draws one standard normal vector per slot from the
    PCG64 stream keyed by (seed, t). A restart stops after the first full
    sweep whose value rose by at most tol relative to the previous sweep.
    """
    a = np.asarray(coeffs, dtype=np.float64)
    dims = a.shape
    total = restarts + 2
    xs = [np.empty((total, n)) for n in dims]
    for t in range(total):
        if t >= 2:
            key = (seed & _MASK64, t & _MASK64)
            g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
        for j, (n, pj) in enumerate(zip(dims, p)):
            if t == 0:
                v = np.ones(n)
            elif t == 1:
                v = np.eye(n)[0]
            else:
                v = g.standard_normal(n)
            nrm = float(lp_norm(v, pj))
            xs[j][t] = v / nrm if nrm > 0.0 else v
    active = np.arange(total)
    prev = np.full(total, np.nan)
    final = np.zeros(total)
    for _ in range(max_iters):
        if active.size == 0:
            break
        sub = [x[active] for x in xs]
        for j in range(len(dims)):
            sub[j], val = _dual(_contract_except(a, sub, j), p[j])
        for j in range(len(dims)):
            xs[j][active] = sub[j]
        final[active] = val
        done = ~np.isnan(prev[active]) & (
            val - prev[active] <= tol * np.maximum(prev[active], 1e-300)
        )
        prev[active] = val
        active = active[~done]
    return float(final.max())
