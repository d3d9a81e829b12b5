"""Operator-norm estimation for multilinear forms on products of ell_p balls.

Three estimators with honestly labeled kinds:

  * brute_force_norm   - exact, all p_j = inf and real coefficients only.
    A multilinear form on a product of cubes attains its maximum at sign
    vectors, so enumerating sign patterns (with the last argument optimized
    in closed form) is an exact oracle; ties go to the first maximum in
    flat order. The scan runs in int16 only where that is exact, on integer
    forms with sum |a| < 2**15, otherwise in float64. In int16 it skips the
    leaf patterns that cannot reach a value already attained (see
    _scan_leaf), keeping every tie; the budget still counts every pattern.
    brute_force_scan enumerates a stack of same-shape forms at once (ties
    go to the first draw, the budget counts one form's patterns), and
    brute_force_estimate rebuilds the winner's witness.
  * alternating_ascent - lower bound for any p >= 1. Cyclically replaces one
    argument by the exact maximizer of the induced linear functional; the
    objective is monotone, so every run converges to a local maximum. The
    restarts advance together as rows of one array per slot, and a row
    retires once a sweep stops raising its value by more than tol.
  * analytic_norm      - closed forms for the diagonal and row families.

All estimates carry a witness; evaluate(form, witness) reproduces the value
to 1e-9 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .exponents import INF, as_exponent, conjugate, harmonic_sum
from .forms import MultilinearForm, partial_contract
from .tensors import NumericalError, fiber_norms, tensor_to_obj

__all__ = [
    "NormEstimate",
    "lp_norm",
    "dual_maximizer",
    "alternating_ascent",
    "brute_force_scan",
    "brute_force_estimate",
    "brute_force_norm",
    "analytic_norm",
    "estimate_to_obj",
]

DEFAULT_RESTARTS = 32
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 200
DEFAULT_BUDGET = 2**24
_SCAN_BLOCK = 2**16  # entries in one enumeration block
_LOW_FLOOR = 13  # least sign bits in a low table (see _low_bits)
_CHUNK_BYTES = 2**20  # one leaf chunk's tables, block and buffer (see _scan_leaf)
_SEED_LOWS = 16  # low patterns that seed the pruning threshold (see _scan_pruned)
_PRUNE_HIGH = 4  # least high patterns of a leaf row that _scan_pruned pays off on


@dataclass(frozen=True)
class NormEstimate:
    """A norm value with provenance: exact, lower_bound, or analytic."""

    value: float
    kind: str
    witness: list[np.ndarray]
    restarts_used: int
    converged: bool


def lp_norm(v: np.ndarray, p: float) -> float:
    """ell_p norm of a 1-D array, p in (0, inf]; the one-fiber case of tensors.fiber_norms."""
    return float(fiber_norms(v, as_exponent(p, "p")))


def dual_maximizer(c, p) -> tuple[np.ndarray, float | np.ndarray]:
    """Exact maximizer of Re sum(c_i x_i) over the unit ell_p ball, row by row.

    Works along the last axis: a 1-D c returns (x, value) with a float
    value, a stack of rows returns x of the same shape and one value per
    row. ||x||_p <= 1 and value = ||c||_{p'}. x is phase-aligned with
    conj(c), so for real c its entries carry the signs of c with
    sign(0) = +1. Ties at p = 1 go to the smallest index. A zero row
    gives the zero vector and value 0, and so does an empty row.
    """
    p = as_exponent(p, "p")
    if p < 1.0:
        raise ValueError(f"requires p >= 1, got p = {p}")
    c = np.asarray(c)
    if c.ndim == 0:
        raise ValueError(f"dual_maximizer needs an axis to maximize along, got shape {c.shape}")
    c = c.astype(np.complex128 if np.iscomplexobj(c) else np.float64)
    if c.shape[-1] == 0:  # rows with no entry to take a maximum of
        return (c, 0.0) if c.ndim == 1 else (c, np.zeros(c.shape[:-1]))
    a = np.abs(c)
    # NumPy's complex division by a subnormal modulus overflows, e.g.
    # (1e-310+0j)/1e-310 = inf+nanj; such entries are scaled by 2**64 on
    # both sides first, which is exact. Only those entries are multiplied:
    # a huge entry times 2**64 would overflow, and a complex one times
    # 1 + 0j can flip the sign of a zero part
    sub = (a > 0.0) & (a < np.finfo(np.float64).tiny)
    den = np.where(a > 0.0, a, 1.0)
    for v in (c, den):  # c is this call's own copy
        np.multiply(v, 2.0**64, out=v, where=sub)
    unit = np.where(a > 0.0, np.conj(c) / den, 1.0)
    top = a.max(axis=-1, keepdims=True)
    live = top > 0.0
    pp = conjugate(p)
    if p == INF:
        x = np.where(live, unit, 0.0)
    elif p == 1.0:
        first = np.arange(a.shape[-1]) == a.argmax(axis=-1)[..., None]
        x = np.where(first & live, unit, 0.0)
    else:
        # zero rows stay zero: 0 ** (p' - 1) = 0 and their norm divides as 1
        x = unit * (a / np.where(live, top, 1.0)) ** (pp - 1.0)
        x /= np.where(live, fiber_norms(x, p)[..., None], 1.0)
    value = fiber_norms(a, pp)
    return (x, float(value)) if c.ndim == 1 else (x, value)


def _check_ascent(restarts: int, tol: float) -> None:
    """Reject a restart count below 1 and a tol that is not positive and
    finite (inf would stop after one sweep, NaN never): the one check of
    both ExperimentConfig and alternating_ascent."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not 0.0 < tol < INF:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def alternating_ascent(
    form: MultilinearForm,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> NormEstimate:
    """Lower-bound the norm by cyclic exact line maximization.

    Runs `restarts` random starts (uniform on the unit sphere of each slot,
    stream keyed by (seed, restart_index)) plus two deterministic starts,
    restart 0 all-ones normalized and restart 1 the first basis vector.
    Every restart is a row of one array per slot, and a slot update is one
    partial_contract and one dual_maximizer call on the rows still running.
    A row retires after the first full sweep that raised its value by at
    most tol relative to the previous sweep; rows still running after
    max_iters sweeps keep converged=False. Reports the best value; ties go
    to the smallest restart index. converged is the best run's flag.
    """
    _check_ascent(restarts, tol)
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    total = restarts + 2
    gens = _rng.streams(seed, range(2, total))
    dtype = np.complex128 if np.iscomplexobj(form.coefficients) else np.float64
    xs = []
    for n, pj in zip(form.shape, form.p):
        start = np.zeros((total, n))
        start[0] = 1.0
        start[1, 0] = 1.0
        for t, g in enumerate(gens, 2):  # each stream draws slot after slot
            start[t] = g.standard_normal(n)
        xs.append((start / fiber_norms(start, pj)[:, None]).astype(dtype))

    value = np.zeros(total)  # each run's value after its last slot update
    converged = np.zeros(total, dtype=bool)
    active = np.arange(total)
    prev = None
    # the objective check below turns an overflow or a NaN into the one
    # report, a NumericalError; numpy's warnings on the way would only precede it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iters):
            rows = [x[active] for x in xs]
            last = value[active]
            for j, pj in enumerate(form.p):
                # at m = 1 c is the coefficient vector, shared by every row
                c = partial_contract(form, rows, j)
                rows[j], val = dual_maximizer(np.broadcast_to(c, rows[j].shape), pj)
                # each exact slot update can only raise the objective, which is
                # finite; NaN counts as a fall, and so does an overflow to inf
                fell = np.flatnonzero(~(val >= last * (1.0 - 1e-9) - 1e-300) | (val == INF))
                if fell.size:
                    raise NumericalError(
                        f"ascent objective fell or overflowed at slot {j} in restarts "
                        f"{active[fell].tolist()}"
                    )
                last = val
            for x, row in zip(xs, rows):
                x[active] = row
            value[active] = val
            if prev is not None:
                done = val - prev <= tol * np.maximum(prev, 1e-300)
                converged[active[done]] = True
                active, val = active[~done], val[~done]
                if not active.size:
                    break
            prev = val

    best = int(np.argmax(value))
    return NormEstimate(
        value=float(value[best]),
        kind="lower_bound",
        witness=[x[best].copy() for x in xs],
        restarts_used=total,
        converged=bool(converged[best]),
    )


def _sign_table(first: float | np.ndarray, rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Fill `table` with all signed sums first + sum_i s_i rows[..., i].

    `rows` has shape (..., n), `first` is 0.0 or of shape (...) and
    `table` of shape (..., 2**n); entry k takes s_i = -1 exactly where bit
    i of k is set. It is built by doubling: step i subtracts and adds row i
    in place, so the summation order is fixed and integer data stays exact.
    numpy runs each step in the memory order of `table`, which may be a
    transposed view: with the signs as its outer axis a step's inner run
    is a whole row, otherwise it is 2**i entries.
    """
    table[..., 0] = first
    for i in range(rows.shape[-1]):
        half, row = table[..., : 2**i], rows[..., i, None]
        np.subtract(half, row, out=table[..., 2**i : 2 ** (i + 1)])
        np.add(half, row, out=half)
    return table


def _low_bits(n: int, dtype: np.dtype, width: int) -> int:
    """How many of an n-entry slot's n - 1 sign bits its low table takes.

    Each pattern of the table holds `width` entries. Half of the bits, but
    at least _LOW_FLOOR when that leaves a bit for the high table and one
    row's low table still fits in _CHUNK_BYTES: the leaf adds high and low
    as a broadcast whose inner run is the low table, and numpy buffers a
    broadcast with a shorter inner run than its 8192-element buffer. When
    no bit would be left, an int16 slot takes all of them and has no high
    table, which trades the broadcast for one more doubling pass; a float64
    slot keeps the even split, because there that pass costs more memory
    traffic than the broadcast saves. CHANGES.md has the timings.
    """
    fit = (_CHUNK_BYTES // (dtype.itemsize * width)).bit_length() - 1
    a = max(n // 2, min(_LOW_FLOOR, fit))
    if a < n - 1 or dtype == np.int16:
        return min(a, n - 1)
    return n // 2


def _scan(x: np.ndarray) -> tuple[float, int]:
    """Largest sum_l |c_l| over the sign patterns of x, and its flat index.

    x has shape (R, n_j, ..., n_m). A pattern is a row r of x plus one sign
    vector, first entry +1, for each of the axes j..m-1; c is x[r]
    contracted with them. The flat index has r as its most significant part,
    then axis j; within an axis, bit i is the sign of entry i+1. Ties go to
    the smallest index.

    Axis j's signs are split into a low table (the first entry and the next
    a = _low_bits(n_j, ...) entries) and a high table (the rest), so entry
    hi * 2**a + lo of its full table is high[hi] + low[lo]; with no bit
    left for the high table, the low table is the full table. Blocks of
    (row, hi) pairs times all lo stay within _SCAN_BLOCK entries and are
    passed on as rows to the next axis; the last free axis is _scan_leaf.
    The tables are built for one block's rows at a time, so however many
    rows x has, they take no more memory than those of one block.
    """
    n, rest = x.shape[1], x.shape[2:]
    a = _low_bits(n, x.dtype, math.prod(rest))
    if len(rest) == 1:
        return _scan_leaf(x, a)
    rows, nh, nl = x.shape[0], 2 ** (n - 1 - a), 2**a
    # a row passed on holds its own entries plus its low and high tables
    nxt, width = rest[0], math.prod(rest[1:])
    b = _low_bits(nxt, x.dtype, width)
    per_row = (nxt + 2**b + 2 ** (nxt - 1 - b)) * width
    below = math.prod(2 ** (k - 1) for k in rest[:-1])
    # the tables are (row, sign pattern, *rest) in memory, filled through
    # views that put the signs last
    last = (0, *range(2, x.ndim), 1)
    xt = x.transpose(last)
    # a block is whole rows (rc of them) or part of one row (hc highs), so
    # its patterns are consecutive in the flat order
    step = max(1, _SCAN_BLOCK // (nl * per_row))
    rc, hc = max(1, step // nh), min(nh, step)
    best, best_idx = -1.0, 0
    for r0 in range(0, rows, rc):
        part = xt[r0 : r0 + rc]
        low = np.empty((len(part), nl) + rest, dtype=x.dtype)
        _sign_table(part[..., 0], part[..., 1 : a + 1], low.transpose(last))
        if nh > 1:
            high = np.empty((len(part), nh) + rest, dtype=x.dtype)
            _sign_table(0.0, part[..., a + 1 :], high.transpose(last))
        for h0 in range(0, nh, hc):
            if nh == 1:
                block = low
            else:
                hi = high[:, h0 : h0 + hc, None]
                block = np.empty((len(part), hi.shape[1], nl) + rest, dtype=x.dtype)
                np.add(hi, low[:, None], out=block)
            val, k = _scan(block.reshape((-1,) + rest))
            if val > best:
                best, best_idx = val, (r0 * nh + h0) * nl * below + k
    return best, best_idx


def _scan_leaf(x: np.ndarray, a: int) -> tuple[float, int]:
    """_scan on x of shape (R, n_j, n_m) whose low table takes a sign bits.

    A pattern's value sums |c_l| column by column over the n_m columns.
    Rows go in chunks that share their tables; a chunk's tables, block and
    buffer take at most _CHUNK_BYTES unless one row's alone take more.
    That memory is allocated once: a fresh allocation of its size would be
    mapped and faulted in anew for every chunk. A chunk is scanned in
    blocks of at most _SCAN_BLOCK (row, hi, lo) entries, in flat order, by
    one loop: with a high table, each column of a block is one broadcast
    add of high and low whose inner run is the low table (_pair_sums).
    Without one, as in the (D, 1, n) leaf of an m = 1 stack, the chunk's
    low table is its only block: its moduli are taken in place and summed
    over the columns by one ufunc call, in int16 a reduction, which is
    exact in any order, and in float64 an accumulation in place, which adds
    the columns one after another as _pair_sums does. That table's
    doubling runs along the signs, or with (column, row) as the inner run
    when the chunk's rows make that the longer one. In int16, with at least
    _PRUNE_HIGH high patterns, the rows go one by one through _scan_pruned
    instead, which skips the patterns that cannot reach a value already
    attained; with fewer, the bound's own passes over the low table cost
    about what they would save. Its sums of moduli, their scratch and its
    compacted low table count against _CHUNK_BYTES too.
    """
    rows, n, cols = x.shape
    nh, nl = 2 ** (n - 1 - a), 2**a
    prune = nh >= _PRUNE_HIGH and x.dtype == np.int16
    # blocks are whole rows or part of one row, as in _scan; a chunk's rows
    # also fit their tables, block and buffer within _CHUNK_BYTES
    step = max(1, _SCAN_BLOCK // nl)
    rc, hc = max(1, step // nh), min(nh, step)
    per_row = cols * nl if nh == 1 else cols * (nl + nh) + 2 * nh * nl
    fixed = 0
    if prune:  # a row's sums of moduli; a compacted low table or an _abs_sums group
        per_row, fixed = per_row + nl + nh, max(cols * (nl // 2), _SCAN_BLOCK)
    rc = min(rc, max(1, (_CHUNK_BYTES // x.itemsize - fixed) // per_row))
    rc = -(-rows // -(-rows // rc))  # as even chunks as that allows
    lead = nh == 1 and cols * rc > nl // 2
    if lead:  # (sign pattern, column, row) in memory
        low_mem = np.empty((nl, cols, rc), dtype=x.dtype).transpose(1, 2, 0)
    else:
        low_mem = np.empty((cols, rc, nl), dtype=x.dtype)
    if nh > 1:
        high_mem = np.empty((cols, rc, nh), dtype=x.dtype)
        acc_mem, buf_mem = np.empty((2, rc, hc, nl), dtype=x.dtype)
        mem = (acc_mem.reshape(-1), buf_mem.reshape(-1))  # _scan_pruned's scratch
    xt = x.transpose(2, 0, 1)  # (n_m, R, n_j)
    best, best_idx = -1.0, 0
    for r0 in range(0, rows, rc):
        part = xt[:, r0 : r0 + rc]
        if lead:  # each row added is then a contiguous (column, row) block
            part = np.ascontiguousarray(part.transpose(2, 0, 1)).transpose(1, 2, 0)
        low = _sign_table(part[..., 0], part[..., 1 : a + 1], low_mem[:, : part.shape[1]])
        if nh > 1:
            high = _sign_table(0.0, part[..., a + 1 :], high_mem[:, : part.shape[1]])
        if prune:
            sl, sh = _abs_sums(low), _abs_sums(high)
            for r in range(part.shape[1]):
                val, k = _scan_pruned(low[:, r], high[:, r], sl[r], sh[r], int(best), hc * nl, mem)
                if val > best:
                    best, best_idx = val, (r0 + r) * nh * nl + k
            continue
        for h0 in range(0, nh, hc):
            if nh == 1:  # the block is the low table, its moduli summed in place
                np.abs(low, out=low)
                if low.dtype == np.int16:
                    acc = np.add.reduce(low, axis=0, dtype=low.dtype)
                else:  # column after column, as _pair_sums adds them
                    acc = np.add.accumulate(low, axis=0, out=low)[-1]
            else:
                hi, lo = high[:, :, h0 : h0 + hc, None], low[:, :, None, :]
                acc = _pair_sums(hi, lo, acc_mem[: hi.shape[1], : hi.shape[2]], buf_mem)
            val, k = _first_max(acc)
            if val > best:
                best, best_idx = val, (r0 * nh + h0) * nl + k
    return best, best_idx


def _pair_sums(hi: np.ndarray, lo: np.ndarray, acc: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """acc = sum_c |hi[c] + lo[c]| over the n_m columns c, broadcast.

    buf is scratch of at least acc.size entries. The columns go one by one,
    in the order the float64 scan keeps; an int16 block whose every column
    fits in buf at once takes one add, one abs and one reduction instead,
    which spares the small blocks of _scan_pruned three ufunc calls per
    column. A large block keeps the column loop, whose working set stays
    one block.
    """
    buf = buf.reshape(-1)
    if acc.dtype == np.int16 and buf.size >= len(hi) * acc.size:
        terms = buf[: len(hi) * acc.size].reshape((len(hi),) + acc.shape)
        np.abs(np.add(hi, lo, out=terms), out=terms)
        return np.add.reduce(terms, axis=0, out=acc)
    buf = buf[: acc.size].reshape(acc.shape)
    np.add(hi[0], lo[0], out=acc)
    np.abs(acc, out=acc)
    for col in range(1, len(hi)):
        np.add(hi[col], lo[col], out=buf)
        np.abs(buf, out=buf)
        acc += buf
    return acc


def _abs_sums(table: np.ndarray) -> np.ndarray:
    """sum_c |table[c]| over the first axis, exactly (int16).

    The columns go in groups of at most _SCAN_BLOCK entries, but at least
    one column, each one abs and one reduction. A later group adds the
    running sum to its first column, so the only scratch is one group.
    """
    k = max(1, _SCAN_BLOCK // table[0].size)
    out = np.add.reduce(np.abs(table[:k]), axis=0, dtype=table.dtype)
    for c0 in range(k, len(table), k):
        terms = np.abs(table[c0 : c0 + k])
        terms[0] += out
        np.add.reduce(terms, axis=0, dtype=table.dtype, out=out)
    return out


def _scan_pruned(
    low: np.ndarray, high: np.ndarray, sl: np.ndarray, sh: np.ndarray, t: int, cap: int,
    mem: tuple[np.ndarray, np.ndarray],
) -> tuple[float, int]:
    """First maximum over one int16 leaf row's patterns that can reach t.

    low (n_m, 2**a) and high (n_m, nh) are the row's tables, sl and sh
    their sums of moduli over the columns, and t a value that some pattern
    attains (or -1). Since |h_c + l_c| <= |h_c| + |l_c|, pattern (hi, lo)
    is worth at most sl[lo] + sh[hi]. t is first raised to the best
    pattern that pairs any hi with one of the _SEED_LOWS lo of largest sl,
    then to each block's maximum. The hi with sh[hi] + max sl >= t go
    largest sh first, so that t rises early; a block pairs its hi with
    the lo whose bound reaches t with its first hi, compacted in
    ascending order when that at least halves them. Blocks take at most
    `cap` entries. Every pattern worth t or more is scanned, so the row's
    first maximum is found whenever it reaches t; the blocks need not be
    in flat order, so a tie between them goes to the smaller index.
    Returns (value, hi * 2**a + lo), or (-1.0, 0) when no pattern reaches
    t. `mem` is the block scratch: two 1-D arrays of at least `cap` and
    2**a entries.
    """
    cols, nl = low.shape
    ml, mh, least = int(sl.max()), int(sh.max()), int(sl.min())
    if ml + mh < t:
        return -1.0, 0
    acc_mem, buf = mem
    # the _SEED_LOWS lo of largest sl: all above the k-th largest, then ties
    v = np.partition(sl, -_SEED_LOWS)[-_SEED_LOWS] if nl > _SEED_LOWS else least
    above = np.flatnonzero(sl > v)
    top = np.concatenate([above, np.flatnonzero(sl == v)[: _SEED_LOWS - len(above)]])
    seed_lo = low[:, top, None]
    # groups of hi whose every column fits in buf, but at least one hi
    g = max(1, buf.size // (cols * len(top)))
    for h0 in range(0, high.shape[1], g):
        hi = high[:, None, h0 : h0 + g]
        seed = acc_mem[: len(top) * hi.shape[2]].reshape(len(top), -1)
        t = max(t, int(_pair_sums(hi, seed_lo, seed, buf).max()))
    # the hi that can reach t, largest sh first: a hi needs the lo with
    # sl >= t - sh[hi], so a block's first hi needs the most
    todo = np.flatnonzero(sh >= t - ml)
    todo = todo[np.argsort(-sh[todo], kind="stable")]
    best, best_k = -1.0, 0
    while len(todo):
        lo = low  # frees the last block's compacted table before the next
        if t - sh[todo[0]] > least:
            run = np.flatnonzero(sl >= t - sh[todo[0]])
            if 2 * len(run) <= nl:  # compact them, in ascending order; take's
                # result is C-ordered, low[:, run] would be strided by column
                lo = np.take(low, run, axis=1)
        nlo, g = lo.shape[1], max(1, cap // lo.shape[1])
        hs, todo = np.sort(todo[:g]), todo[g:]
        acc = acc_mem[: len(hs) * nlo].reshape(len(hs), nlo)
        val, k = _first_max(_pair_sums(high[:, hs, None], lo[:, None], acc, buf))
        hi, k = divmod(k, nlo)
        k = int(hs[hi]) * nl + int(k if lo is low else run[k])
        if val > best or (val == best and k < best_k):  # blocks need not be in flat order
            best, best_k = val, k
        if val > t:  # drop the hi that cannot reach the new t
            t = int(val)
            todo = todo[sh[todo] >= t - ml]
    return best, best_k


def _first_max(acc: np.ndarray) -> tuple[float, int]:
    """The largest entry of one leaf block and its first flat index."""
    k = int(np.argmax(acc))
    return float(acc.flat[k]), k


def brute_force_scan(stack, budget: int = DEFAULT_BUDGET) -> tuple[int, int, float]:
    """Best sign pattern over a stack of same-shape real coefficient arrays.

    `stack` has shape (D, n_1, ..., n_m): D forms, each scanned as in
    brute_force_norm. Returns (d, idx, value): the draw d and flat pattern
    index idx of the largest pattern value over all draws, the first in
    (draw, pattern) order on ties, so the first draw wins a tie between
    draws. value is the scan's own sum. The budget counts the patterns of
    one form, whatever D is. At m = 1 a draw has one pattern, idx 0, whose
    value is sum |a|.

    The scan runs in int16 when every draw is integer with sum |a| < 2**15
    (see brute_force_norm), otherwise in float64. A draw's sums never mix
    with another draw's, so the test is per draw, not on the stack's total.
    """
    a = np.asarray(stack)
    if a.ndim < 2 or not a.size:
        raise ValueError(
            f"brute force needs a stack of forms with entries, got shape {a.shape}"
        )
    if np.iscomplexobj(a):
        raise ValueError("brute force requires real coefficients")
    a = a.astype(np.float64, copy=False)
    dims = a.shape[1:]
    total = math.prod(2 ** (n - 1) for n in dims[:-1])
    if total > budget:
        raise ValueError(
            f"enumeration needs {total} sign patterns, budget is {budget}"
        )
    if len(dims) == 1:  # each draw is one leaf row
        a = a[:, None]
    # int16 holds every sum the scan forms exactly here (see brute_force_norm)
    flat = a.reshape(len(a), -1)
    if (np.abs(flat).sum(axis=1) < 2**15).all() and (flat == np.trunc(flat)).all():
        a = a.astype(np.int16)
    value, idx = _scan(a)
    d, idx = divmod(idx, total)
    return d, idx, value


def brute_force_estimate(form: MultilinearForm, idx: int) -> NormEstimate:
    """The exact estimate at flat pattern index idx of brute_force_scan.

    Rebuilds the witness from idx and recomputes its value in float64 with
    partial_contract and dual_maximizer, so `evaluate(form, witness)`
    reproduces it. Raises NumericalError when that value is not finite,
    which happens when the sums overflow float64.
    """
    witness = []
    for n in reversed(form.shape[:-1]):
        idx, k = divmod(idx, 2 ** (n - 1))
        witness.insert(0, 1.0 - 2.0 * (2 * k >> np.arange(n) & 1))
    c_last = partial_contract(form, witness + [None], form.arity - 1)
    x_last, val = dual_maximizer(c_last, INF)
    if not math.isfinite(val):
        raise NumericalError(f"brute force value {val!r} is not finite: the sums overflow")
    witness.append(x_last)
    return NormEstimate(
        value=val, kind="exact", witness=witness, restarts_used=0, converged=True
    )


def brute_force_norm(
    form: MultilinearForm, budget: int = DEFAULT_BUDGET
) -> NormEstimate:
    """Exact norm over products of ell_inf balls by sign enumeration.

    Enumerates sign patterns of arguments 1..m-1 with the first coordinate
    of each pinned to +1 (global sign flips per slot leave |T| unchanged)
    and optimizes the last argument in closed form: the pattern's value is
    the ell_1 norm of the contracted last-slot functional. Rejects finite
    exponents, complex coefficients, and pattern counts beyond `budget`.
    This is brute_force_scan on a stack of one, then brute_force_estimate.

    The winner is the first maximum in flat order (slot 1 most
    significant); its value is recomputed from the witness in float64, so
    `evaluate(form, witness)` reproduces it. Every pattern costs O(n_m)
    adds (see _scan). Each sum the scan forms is a signed sum over a subset
    of the coefficients, so when every coefficient is an integer and
    sum |a| < 2**15 the scan runs in int16, which holds every one exactly,
    and otherwise in float64. An int16 leaf row with at least _PRUNE_HIGH
    high patterns skips the patterns whose bound falls below a value some
    pattern attains (see _scan_leaf); a pattern that ties it is kept, so
    the winner is the same first maximum. The budget counts all
    2**(sum_j (n_j - 1)) patterns, pruned or not.
    """
    if any(pj != INF for pj in form.p):
        raise ValueError("brute force requires every domain exponent to be inf")
    _, idx, _ = brute_force_scan(np.asarray(form.coefficients)[None], budget)
    return brute_force_estimate(form, idx)


def analytic_norm(form: MultilinearForm) -> NormEstimate | None:
    """Closed-form norm for the diagonal and row families; None otherwise.

    The kind alone does not qualify a form: the coefficients must be the
    family's, a first row of ones and zeros elsewhere for row, equal sizes
    and ones exactly on the diagonal for diagonal. Row: value
    n_2^{1 - 1/p_2} is attained (kind=exact, witness x = e_1 and the dual
    maximizer of the all-ones vector). Diagonal: value
    n^{max(1 - |1/p|, 0)} is the closed-form upper bound (kind=analytic)
    with the uniform witness attaining it when |1/p| <= 1, the basis witness
    otherwise.
    """
    c = form.coefficients
    if form.kind == "row" and c.ndim == 2 and (c[0] == 1).all() and not c[1:].any():
        n1, n2 = form.shape
        y, val = dual_maximizer(np.ones(n2), form.p[1])
        x = np.zeros(n1)
        x[0] = 1.0
        return NormEstimate(
            value=val, kind="exact", witness=[x, y], restarts_used=0, converged=True
        )
    n = c.shape[0]
    if (
        form.kind == "diagonal" and c.shape == (n,) * c.ndim
        and np.count_nonzero(c) == n and (c[(np.arange(n),) * c.ndim] == 1).all()
    ):
        h = harmonic_sum(form.p)
        if h <= 1.0:
            witness = [np.full(n, float(n) ** (-1.0 / pj)) for pj in form.p]
        else:
            witness = [np.eye(n)[0] for _ in form.p]
        return NormEstimate(
            value=float(n) ** max(1.0 - h, 0.0), kind="analytic", witness=witness,
            restarts_used=0, converged=True,
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
