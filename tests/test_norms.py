"""Norm estimator tests: exact duals, ascent, enumeration, closed forms."""

import hashlib
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedsums.norms as norms_module
from mixedsums import (
    INF,
    MultilinearForm,
    NumericalError,
    alternating_ascent,
    analytic_norm,
    brute_force_norm,
    compensated_sum,
    conjugate,
    diagonal_form,
    dual_maximizer,
    estimate_to_obj,
    evaluate,
    ksz_random_form,
    lp_norm,
    partial_contract,
    row_form,
)


def test_dual_maximizer_euclidean():
    x, val = dual_maximizer(np.array([3.0, -4.0]), 2)
    assert val == pytest.approx(5.0, rel=1e-15)
    assert np.allclose(x, [0.6, -0.8], atol=1e-15)


def test_dual_maximizer_l1_picks_largest_entry():
    x, val = dual_maximizer(np.array([1.0, -2.0, 3.0]), 1)
    assert val == 3.0
    assert np.array_equal(x, [0.0, 0.0, 1.0])
    # ties go to the smallest index
    x, val = dual_maximizer(np.array([2.0, -2.0]), 1)
    assert val == 2.0
    assert np.array_equal(x, [1.0, 0.0])


def test_dual_maximizer_sup_signs():
    x, val = dual_maximizer(np.array([1.0, -2.0]), INF)
    assert val == 3.0
    assert np.array_equal(x, [1.0, -1.0])
    # sign of a zero entry is +1 by convention
    x, val = dual_maximizer(np.array([0.0, -2.0]), INF)
    assert val == 2.0
    assert np.array_equal(x, [1.0, -1.0])


def test_dual_maximizer_edge_cases():
    x, val = dual_maximizer(np.zeros(3), 2)
    assert val == 0.0
    assert np.array_equal(x, np.zeros(3))
    with pytest.raises(ValueError):
        dual_maximizer(np.ones(2), 0.5)


def test_dual_maximizer_complex_phase_alignment():
    c = np.array([1j, -1.0])
    x, val = dual_maximizer(c, INF)
    assert val == pytest.approx(2.0, rel=1e-15)
    assert np.real(np.sum(c * x)) == pytest.approx(2.0, rel=1e-15)
    assert np.allclose(np.abs(x), 1.0, atol=1e-15)


def test_dual_maximizer_is_optimal_and_feasible():
    g = np.random.Generator(np.random.PCG64(30))
    for _ in range(300):
        n = int(g.integers(1, 8))
        c = g.standard_normal(n)
        p = float(g.choice([1.0, 1.5, 2.0, 3.0, INF]))
        x, val = dual_maximizer(c, p)
        assert lp_norm(x, p) <= 1.0 + 1e-12
        attained = float(np.sum(c * x))
        assert attained == pytest.approx(val, rel=1e-12)
        # no random feasible point does better
        y = g.standard_normal(n)
        y = y / max(lp_norm(y, p), 1e-300)
        assert float(np.sum(c * y)) <= val * (1.0 + 1e-12) + 1e-12


def test_compensated_sum_matches_fsum():
    g = np.random.Generator(np.random.PCG64(31))
    v = g.standard_normal(1000)
    assert compensated_sum(v) == pytest.approx(math.fsum(v.tolist()), rel=1e-14, abs=1e-14)


def test_large_exponents_stay_finite():
    v = np.array([1.9, -1.9, 1.9, 1.9])
    for p in (600.0, 2001.0, 1e6):
        assert lp_norm(v, p) == pytest.approx(1.9 * 4.0 ** (1.0 / p), rel=1e-15)
    # p near 1 has a huge conjugate exponent
    p = 1.0005
    x, val = dual_maximizer(v, p)
    assert val == pytest.approx(1.9 * 4.0 ** (1.0 - 1.0 / p), rel=1e-15)
    assert lp_norm(x, p) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("p", [1.0 + 1e-9, 1.0 + 1e-12])
def test_dual_maximizer_near_p_1_stays_on_the_unit_ball(p):
    # rows with three tied maxima: the closed form ||x||_p = (value/top)^(p'/p)
    # in place of the second fiber_norms call leaves the ball by 1.8e-7 at
    # p = 1 + 1e-9 and by 1.4e-4 at p = 1 + 1e-12 on such rows
    g = np.random.Generator(np.random.PCG64(35))
    c = g.standard_normal((200, 50))
    top = np.abs(c).max(axis=-1)
    for row, t in zip(c, top):
        ties = g.choice(50, 3, replace=False)
        row[ties] = t * np.sign(row[ties])
    x, val = dual_maximizer(c, p)
    for ci, xi, vi in zip(c, x, val):
        assert lp_norm(xi, p) <= 1.0 + 1e-12
        assert float(ci @ xi) == pytest.approx(vi, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 600.0, INF])
def test_empty_rows_have_norm_zero(p):
    # as np.linalg.norm of an empty vector, at every p
    assert lp_norm(np.array([]), p) == 0.0
    x, val = dual_maximizer(np.array([]), p)
    assert x.shape == (0,) and type(val) is float and val == 0.0
    x, val = dual_maximizer(np.empty((2, 3, 0), complex), p)
    assert x.shape == (2, 3, 0) and val.shape == (2, 3) and not val.any()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, INF])
@pytest.mark.parametrize("complex_rows", [False, True])
def test_dual_maximizer_stack_matches_rows(p, complex_rows):
    g = np.random.Generator(np.random.PCG64(33))
    c = g.standard_normal((7, 5))
    if complex_rows:
        c = c * np.exp(2j * np.pi * g.random(c.shape))
    c[2] = 0.0
    c[3] = [2.0, -2.0, 1.0, 2.0, 0.0]  # a tie at p = 1 among entries 0, 1, 3
    if complex_rows:
        c[3, 1] = 2j
    c[4, :3] = 0.0
    x, val = dual_maximizer(c, p)
    assert x.shape == c.shape and val.shape == (7,)
    for r in range(7):
        xr, vr = dual_maximizer(c[r], p)
        assert x[r].tobytes() == xr.tobytes()
        assert repr(float(val[r])) == repr(vr)
    assert x[2].tobytes() == np.zeros(5, dtype=x.dtype).tobytes() and val[2] == 0.0
    if p == 1.0:
        assert np.flatnonzero(x[3]).tolist() == [0]


def _real_dual_steps(c, p):
    # dual_maximizer's steps on real input before real rows skipped the
    # subnormal scaling: the reference for the bits of the real path
    c = np.asarray(c, dtype=np.float64).copy()
    a = np.abs(c)
    sub = (a > 0.0) & (a < np.finfo(np.float64).tiny)
    den = np.where(a > 0.0, a, 1.0)
    for v in (c, den):
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
        x = unit * (a / np.where(live, top, 1.0)) ** (pp - 1.0)
        x /= np.where(live, norms_module.fiber_norms(x, p)[..., None], 1.0)
    return x, norms_module.fiber_norms(a, pp)


def _same_bits(a, b):
    # equal bit for bit, except that any NaN matches any NaN
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and (
        a[~nan].view(np.uint64) == b[~nan].view(np.uint64)
    ).all()


@pytest.mark.parametrize("p", [1.0, 1.0 + 1e-9, 2.0, 5.0, INF])
def test_dual_maximizer_real_rows_keep_their_bits(p):
    tiny = np.finfo(np.float64).tiny
    c = np.array([
        [0.0, -0.0, 3.0, -3.0, 3.0, 1e-310],  # signed zeros and a tie
        [5e-324, -5e-324, 1e-310, -tiny / 2, 0.0, -0.0],  # subnormals only
        [1e300, -1e300, 2.0, -0.5, 1e-310, 0.0],
        [INF, 1.0, -2.0, 0.0, -0.0, 3.0],
        [-INF, INF, 1.0, 0.0, 5e-324, -1.0],
        [np.nan, 1.0, -2.0, 0.0, 4.0, -4.0],
        [0.0, -0.0, 0.0, -0.0, 0.0, -0.0],  # a zero row
        [-7.0, 7.0, -7.0, 1.0, -1.0, 0.5],  # ties at p = 1
    ])
    g = np.random.Generator(np.random.PCG64(34))
    c = np.concatenate([c, g.standard_normal((3, 6)) * 10.0 ** g.integers(-320, 300, (3, 6))])
    with np.errstate(all="ignore"):
        x, value = dual_maximizer(c, p)
        want_x, want_value = _real_dual_steps(c, p)
        for r in range(len(c)):
            xr, vr = dual_maximizer(c[r], p)
            assert _same_bits(xr, want_x[r]) and _same_bits(vr, want_value[r]), r
    assert x.dtype == np.float64
    assert _same_bits(x, want_x) and _same_bits(value, want_value)


@pytest.mark.parametrize("m, n, p, complex_phases, rows_per_sweep, digest", [
    (2, 6, (4.0, 3.0), False, [8] * 8 + [5, 4, 3, 2, 2, 1, 1, 1, 1],
     "b6fbfa3ccc418f328106"),
    (2, 5, (3.0, 4.0), True, [8] * 23 + [7] * 8 + [6, 5] + [4] * 41 + [3] * 5 + [2] * 7 + [1] * 3,
     "3a03c19b34ba810f59cb"),
])
def test_ascent_retiring_at_different_sweeps_keeps_its_bytes(
    monkeypatch, m, n, p, complex_phases, rows_per_sweep, digest
):
    # restarts retire at different sweeps, so later sweeps gather fewer
    # rows and scatter them back; the digest pins the value and witness bytes
    form, _ = ksz_random_form(m, n, p, 7, complex_phases=complex_phases)
    rows, real = [], norms_module.dual_maximizer

    def spy(c, q):
        rows.append(c.shape[0])
        return real(c, q)

    monkeypatch.setattr(norms_module, "dual_maximizer", spy)
    est = alternating_ascent(form, restarts=6, seed=3)
    assert rows[::m] == rows_per_sweep and est.converged
    payload = repr(est.value).encode() + b"".join(w.tobytes() for w in est.witness)
    assert hashlib.sha256(payload).hexdigest()[:20] == digest


def test_ascent_diagonal_examples():
    est = alternating_ascent(diagonal_form(2, 4, (2, 2)), restarts=4, seed=0)
    assert est.value == pytest.approx(1.0, rel=1e-9)
    est = alternating_ascent(diagonal_form(2, 4, (4, 4)), restarts=4, seed=0)
    assert est.value == pytest.approx(2.0, rel=1e-9)
    assert est.kind == "lower_bound"
    assert est.restarts_used == 6
    assert est.converged


def test_ascent_row_example():
    est = alternating_ascent(row_form(2, 4, (INF, 2)), restarts=4, seed=0)
    assert est.value == pytest.approx(2.0, rel=1e-9)


def test_ascent_witness_is_feasible_and_attains():
    g = np.random.Generator(np.random.PCG64(32))
    for trial in range(20):
        m = int(g.integers(2, 4))
        dims = tuple(int(x) for x in g.integers(2, 5, size=m))
        coeffs = g.standard_normal(dims)
        p = tuple(float(g.choice([1.0, 2.0, 3.0, INF])) for _ in range(m))
        form = MultilinearForm(coefficients=coeffs, p=p)
        est = alternating_ascent(form, restarts=4, seed=trial)
        for w, pj in zip(est.witness, form.p):
            assert lp_norm(w, pj) <= 1.0 + 1e-12
        assert abs(evaluate(form, est.witness)) == pytest.approx(
            est.value, rel=1e-9
        )


def test_ascent_more_restarts_never_hurt():
    form, _ = ksz_random_form(3, 4, (INF, INF, INF), seed=2)
    small = alternating_ascent(form, restarts=1, seed=5)
    big = alternating_ascent(form, restarts=24, seed=5)
    assert big.value >= small.value - 1e-12


def test_ascent_deterministic_across_threads():
    # the rows of one run advance in one thread; two runs give the same bytes
    form, _ = ksz_random_form(2, 6, (INF, INF), seed=4)
    a = alternating_ascent(form, restarts=8, seed=1)
    b = alternating_ascent(form, restarts=8, seed=1)
    assert repr(a.value) == repr(b.value) and a.converged == b.converged
    for wa, wb in zip(a.witness, b.witness):
        assert wa.tobytes() == wb.tobytes()


def test_ascent_complex_form():
    form, _ = ksz_random_form(2, 3, (2, 2), seed=5, complex_phases=True)
    est = alternating_ascent(form, restarts=4, seed=0)
    for w, pj in zip(est.witness, form.p):
        assert lp_norm(w, pj) <= 1.0 + 1e-12
    assert abs(evaluate(form, est.witness)) == pytest.approx(est.value, rel=1e-9)
    # the norm of a 3x3 unimodular-coefficient matrix lies in [1, 3]
    assert 1.0 - 1e-12 <= est.value <= 3.0 + 1e-12


def _reference_ascent(form, restarts, seed, tol, max_iters):
    """One restart after another with 1-D vectors: the loop the batched ascent replaced."""

    def unit_start(v, p):
        nrm = lp_norm(v, p)
        return v / nrm if nrm > 0.0 else v

    def run(start):
        xs = [np.asarray(v, dtype=np.float64) for v in start]
        if np.iscomplexobj(form.coefficients):
            xs = [v.astype(np.complex128) for v in xs]
        prev, val = None, 0.0
        for _ in range(max_iters):
            for j in range(form.arity):
                xs[j], val = dual_maximizer(partial_contract(form, xs, j), form.p[j])
            if prev is not None and val - prev <= tol * max(prev, 1e-300):
                return val, xs, True
            prev = val
        return val, xs, False

    results = []
    for t in range(restarts + 2):
        if t == 0:
            start = [unit_start(np.ones(n), pj) for n, pj in zip(form.shape, form.p)]
        elif t == 1:
            start = [np.eye(n)[0] for n in form.shape]
        else:
            # built here, not through _rng.stream, so the restart keys are checked too
            ss = np.random.SeedSequence((seed & 2**64 - 1, t))
            g = np.random.Generator(np.random.PCG64(ss))
            start = [unit_start(g.standard_normal(n), pj) for n, pj in zip(form.shape, form.p)]
        results.append(run(start))
    best = 0
    for t in range(1, len(results)):
        if results[t][0] > results[best][0]:
            best = t
    return results[best]


@settings(max_examples=120, deadline=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    ps=st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, INF]), min_size=3, max_size=3),
    signs=st.booleans(),
    complex_coeffs=st.booleans(),
    restarts=st.integers(1, 5),
    max_iters=st.integers(1, 6),
    tol=st.sampled_from([1e-10, 1e-3]),
    seed=st.one_of(st.sampled_from([-3, 2**32, 2**63 + 5]), st.integers(0, 2**32 - 1)),
)
def test_ascent_matches_per_restart_reference(
    dims, ps, signs, complex_coeffs, restarts, max_iters, tol, seed
):
    g = np.random.Generator(np.random.PCG64(seed & 2**64 - 1))
    coeffs = g.standard_normal(dims)
    if signs:
        coeffs = np.sign(coeffs)
    if complex_coeffs:
        coeffs = coeffs * np.exp(2j * np.pi * g.random(dims))
    form = MultilinearForm(coefficients=coeffs, p=ps[: len(dims)])
    est = alternating_ascent(form, restarts=restarts, seed=seed, tol=tol, max_iters=max_iters)
    value, witness, converged = _reference_ascent(form, restarts, seed, tol, max_iters)
    assert repr(est.value) == repr(value)
    assert est.converged == converged
    assert [w.dtype for w in est.witness] == [w.dtype for w in witness]
    assert [w.tobytes() for w in est.witness] == [w.tobytes() for w in witness]


@pytest.mark.parametrize(
    "n, p, restarts, best_converged",
    [
        (8, (4.0, INF), 10, True),  # 7 of the 12 runs converge within 3 sweeps
        (9, (4.0, 1.5), 12, False),  # none does
    ],
)
def test_ascent_capped_rows_match_reference(n, p, restarts, best_converged):
    form, _ = ksz_random_form(2, n, p, seed=11)
    est = alternating_ascent(form, restarts=restarts, seed=3, max_iters=3)
    value, witness, converged = _reference_ascent(form, restarts, 3, norms_module.DEFAULT_TOL, 3)
    assert repr(est.value) == repr(value)
    assert est.converged == converged == best_converged
    assert [w.tobytes() for w in est.witness] == [w.tobytes() for w in witness]


def test_ascent_raises_instead_of_returning_nan(monkeypatch):
    # a maximizer whose value turns NaN must make the ascent raise, not
    # report the NaN
    real = norms_module.dual_maximizer

    def nan_value(c, p):
        x, value = real(c, p)
        return x, value * np.nan

    monkeypatch.setattr(norms_module, "dual_maximizer", nan_value)
    form, _ = ksz_random_form(2, 3, (2.0, 2.0), seed=0)
    with pytest.raises(NumericalError, match="fell"):
        alternating_ascent(form, restarts=2)


def test_ascent_raises_when_the_norm_overflows():
    # the norm is 2e308, beyond float64: an infinite "lower bound" would be
    # no bound at all
    form = MultilinearForm(coefficients=[[1e308, 1e308], [1e308, 1e308]], p=(2.0, 2.0))
    # the error is the one report: no numpy warning precedes it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="overflowed"):
            alternating_ascent(form, restarts=2)


def test_brute_force_raises_when_the_value_is_not_finite():
    # the sign sums overflow to inf and meet as inf - inf = nan, which must
    # not be reported as an exact value
    form = MultilinearForm(coefficients=[[1e308, 1e308], [1e308, 1e308]], p=(INF, INF))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericalError, match="not finite"):
            brute_force_norm(form)
        with pytest.raises(NumericalError, match="not finite"):
            norms_module.brute_force_estimate(form, 0)


def test_dual_maximizer_subnormal_complex_moduli():
    # numpy's complex division by a subnormal modulus overflows to inf+nanj
    c = np.array([1e-310 * (1 + 1j), 3e-320j, 0.0, 2e-308 - 1e-309j])
    for p in (1.0, 1.5, 2.0, INF):
        x, value = dual_maximizer(c, p)
        assert np.all(np.isfinite(x)) and math.isfinite(value)
        assert lp_norm(x, p) <= 1.0 + 1e-12
        assert (c @ x).real == pytest.approx(value, rel=1e-12, abs=0.0)
    x, _ = dual_maximizer(c, INF)
    assert np.allclose(x, [(1 - 1j) / math.sqrt(2), -1j, 1.0, np.conj(c[3]) / abs(c[3])])


def test_dual_maximizer_scales_only_subnormal_entries():
    # scaling every entry by 2**64 would overflow at 1e300, and the complex
    # product with 1 + 0j would turn the -0.0 imaginary part of 1 - 0j into 0.0
    c = np.array([complex(1.0, -0.0), 1e300j, 1e-310 + 0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, value = dual_maximizer(np.array([1e300, -2.0]), INF)
        xc, _ = dual_maximizer(c, INF)
    assert np.array_equal(x, [1.0, -1.0]) and value == 1e300
    assert xc[:2].tobytes() == (np.conj(c[:2]) / np.abs(c[:2])).tobytes()
    assert xc[2] == 1.0


@pytest.mark.parametrize(
    "coefficients, p",
    [
        # the functionals reach the subnormal entry directly
        ([[1.0, 0.0], [0.0, 1e-310 * (1 + 1j)]], (2.0, 2.0)),
        # (a / top) ** (p' - 1) = 0.695 ** 2000 is subnormal, so the next
        # slot's functional is too
        (np.diag([1.0, 0.695j, 0.69 * (1 + 1j) / math.sqrt(2)]), (1.0005, 1.0005)),
    ],
)
def test_ascent_finite_on_subnormal_complex_functionals(coefficients, p):
    form = MultilinearForm(coefficients=coefficients, p=p)
    with np.errstate(under="ignore"):
        est = alternating_ascent(form, restarts=4)
    assert math.isfinite(est.value) and est.value == pytest.approx(1.0, rel=1e-12)
    for w, pj in zip(est.witness, form.p):
        assert np.all(np.isfinite(w))
        assert lp_norm(w, pj) <= 1.0 + 1e-12
    assert abs(evaluate(form, est.witness)) == pytest.approx(est.value, rel=1e-9)


def test_ascent_validation():
    form = diagonal_form(2, 2, (2, 2))
    with pytest.raises(ValueError):
        alternating_ascent(form, restarts=0)
    # unchecked, inf would stop after one sweep as "converged" and NaN would
    # run every sweep
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol!r}$"):
            alternating_ascent(form, tol=tol)
    with pytest.raises(ValueError):
        alternating_ascent(form, max_iters=0)


@pytest.mark.parametrize("p", [-1.0, 0.0, math.nan])
def test_lp_norm_validates_p(p):
    # unchecked, p = -1 would give 1.714, p = 0 a ZeroDivisionError and NaN a NaN
    with pytest.raises(ValueError, match=rf"^p must lie in \(0, inf\], got {p!r}$"):
        lp_norm(np.array([3.0, 4.0]), p)


def test_brute_force_hadamard():
    coeffs = np.array([[1.0, 1.0], [1.0, -1.0]])
    form = MultilinearForm(coefficients=coeffs, p=(INF, INF))
    est = brute_force_norm(form)
    assert est.value == 2.0
    assert est.kind == "exact"
    assert abs(evaluate(form, est.witness)) == est.value


def test_brute_force_small_examples():
    est = brute_force_norm(diagonal_form(2, 3, (INF, INF)))
    assert est.value == 3.0
    coeffs = np.array([[2.0, 0.0], [0.0, 3.0]])
    est = brute_force_norm(MultilinearForm(coefficients=coeffs, p=(INF, INF)))
    assert est.value == 5.0


def test_brute_force_m1():
    form = MultilinearForm(coefficients=np.array([1.0, -2.0, 3.0]), p=(INF,))
    est = brute_force_norm(form)
    assert est.value == 6.0
    assert np.array_equal(est.witness[0], [1.0, -1.0, 1.0])


def test_brute_force_frozen_value():
    form, _ = ksz_random_form(2, 6, (INF, INF), seed=7)
    assert brute_force_norm(form).value == 20.0


def test_brute_force_matches_full_enumeration():
    g = np.random.Generator(np.random.PCG64(33))
    for _ in range(20):
        m = int(g.integers(2, 4))
        dims = tuple(int(x) for x in g.integers(2, 4, size=m))
        coeffs = g.standard_normal(dims)
        form = MultilinearForm(coefficients=coeffs, p=(INF,) * m)
        est = brute_force_norm(form)
        best = 0.0
        for signs in itertools.product(*[[-1.0, 1.0]] * sum(dims[:-1])):
            vs = []
            ofs = 0
            for n in dims[:-1]:
                vs.append(np.array(signs[ofs : ofs + n]))
                ofs += n
            c_last = coeffs
            for v in vs:
                c_last = np.tensordot(v, c_last, axes=(0, 0))
            best = max(best, float(np.abs(c_last).sum()))
        assert est.value == pytest.approx(best, rel=1e-12)


def test_brute_force_witness_structure():
    form, _ = ksz_random_form(3, 4, (INF, INF, INF), seed=6)
    est = brute_force_norm(form)
    for w in est.witness:
        assert set(np.unique(w)) <= {-1.0, 1.0}
    assert est.witness[0][0] == 1.0  # first coordinate pinned
    assert est.witness[1][0] == 1.0
    assert abs(evaluate(form, est.witness)) == pytest.approx(est.value, rel=1e-12)


def test_brute_force_budget_and_domain_checks():
    form, _ = ksz_random_form(2, 8, (INF, INF), seed=1)
    with pytest.raises(ValueError):
        brute_force_norm(form, budget=4)
    with pytest.raises(ValueError):
        brute_force_norm(diagonal_form(2, 3, (2, INF)))
    cform, _ = ksz_random_form(2, 3, (INF, INF), seed=1, complex_phases=True)
    with pytest.raises(ValueError):
        brute_force_norm(cform)


def test_ascent_never_exceeds_brute_force():
    for trial in range(30):
        n = 2 + trial % 5
        form, _ = ksz_random_form(2, n, (INF, INF), seed=100 + trial)
        exact = brute_force_norm(form).value
        lower = alternating_ascent(form, restarts=8, seed=trial).value
        assert lower <= exact * (1.0 + 1e-9)


def test_scale_equivariance():
    form, _ = ksz_random_form(2, 4, (INF, INF), seed=8)
    scaled = MultilinearForm(coefficients=2.5 * form.coefficients, p=form.p)
    assert brute_force_norm(scaled).value == pytest.approx(
        2.5 * brute_force_norm(form).value, rel=1e-12
    )
    a = alternating_ascent(form, restarts=4, seed=0).value
    b = alternating_ascent(scaled, restarts=4, seed=0).value
    assert b == pytest.approx(2.5 * a, rel=1e-9)


def _slot_patterns(n):
    """Sign vectors of one slot, first entry +1, in pattern order: pattern k
    has entry i+1 negative exactly where bit i of k is set."""
    return [
        np.array((1.0,) + tuple(reversed(t)))
        for t in itertools.product((1.0, -1.0), repeat=n - 1)
    ]


def _first_best_pattern(coeffs):
    """Best value and the first pattern attaining it, slot 1 most significant."""
    best, arg = -1.0, None
    for vs in itertools.product(*[_slot_patterns(n) for n in coeffs.shape[:-1]]):
        c = coeffs
        for v in vs:
            c = np.tensordot(v, c, axes=(0, 0))
        val = float(np.abs(c).sum())
        if val > best:
            best, arg = val, vs
    return best, arg


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_brute_force_ties_go_to_the_smallest_pattern(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    size = math.prod(dims)
    entries = data.draw(
        st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=size, max_size=size)
    )
    coeffs = np.array(entries).reshape(dims)
    form = MultilinearForm(coefficients=coeffs, p=(INF,) * len(dims))
    est = brute_force_norm(form)
    value, signs = _first_best_pattern(coeffs)
    assert est.value == value
    for w, s in zip(est.witness, signs):
        assert np.array_equal(w, s)
    # the free slots are +-1 with entry 0 pinned; the last is +-1 unless c = 0
    if est.value > 0.0:
        assert set(np.unique(est.witness[-1])) <= {-1.0, 1.0}
    assert evaluate(form, est.witness) == est.value


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_ascent_never_exceeds_brute_force_property(dims, seed):
    coeffs = np.random.Generator(np.random.PCG64(seed)).standard_normal(dims)
    form = MultilinearForm(coefficients=coeffs, p=(INF,) * len(dims))
    exact = brute_force_norm(form).value
    lower = alternating_ascent(form, restarts=4, seed=seed).value
    assert lower <= exact * (1.0 + 1e-9)


def test_brute_force_budget_is_inclusive():
    form, _ = ksz_random_form(2, 8, (INF, INF), seed=1)  # 2**7 patterns
    assert brute_force_norm(form, budget=128).value == brute_force_norm(form).value
    with pytest.raises(
        ValueError, match=r"^enumeration needs 128 sign patterns, budget is 127$"
    ):
        brute_force_norm(form, budget=127)


def test_brute_force_lopsided_shape_stays_within_blocks():
    g = np.random.Generator(np.random.PCG64(16))
    coeffs = g.integers(-1, 2, size=(16, 3, 3)).astype(np.float64)
    form = MultilinearForm(coefficients=coeffs, p=(INF, INF, INF))
    s1, s2 = np.array(_slot_patterns(16)), np.array(_slot_patterns(3))
    vals = np.abs(np.einsum("ai,bj,ijk->abk", s1, s2, coeffs)).sum(axis=2).ravel()
    tracemalloc.start()
    try:
        est = brute_force_norm(form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = int(np.argmax(vals))
    assert est.value == vals[k]
    assert np.array_equal(est.witness[0], s1[k // 4])
    assert np.array_equal(est.witness[1], s2[k % 4])
    # all 2**15 slot-1 partial contractions (3 x 3 each) would take 2.25 MiB
    assert peak < 4 * norms_module._SCAN_BLOCK * 8


def test_brute_force_ties_across_blocks_go_to_the_first_pattern(monkeypatch):
    # every pattern ties, and each enumeration spans several scan blocks
    blocks, first_max = [], norms_module._first_max

    def spy(acc):
        blocks.append(acc.size)
        return first_max(acc)

    monkeypatch.setattr(norms_module, "_first_max", spy)
    for dims in [(18, 2), (16, 3, 3), (3, 16, 3)]:
        blocks.clear()
        coeffs = np.zeros(dims)
        coeffs[(0,) * (len(dims) - 1)] = 1.0
        form = MultilinearForm(coefficients=coeffs, p=(INF,) * len(dims))
        est = brute_force_norm(form)
        assert len(blocks) >= 2, dims
        assert sum(blocks) == math.prod(2 ** (n - 1) for n in dims[:-1])
        assert est.value == dims[-1]
        assert all(np.array_equal(w, np.ones(n)) for w, n in zip(est.witness, dims))


def test_brute_force_many_unit_slots():
    coeffs = np.array([3.0, -2.0]).reshape((1,) * 26 + (2,))
    est = brute_force_norm(MultilinearForm(coefficients=coeffs, p=(INF,) * 27))
    assert est.value == 5.0
    assert all(np.array_equal(w, [1.0]) for w in est.witness[:-1])
    assert np.array_equal(est.witness[-1], [1.0, -1.0])



@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_int16_scan_matches_float64_scan(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
    size = math.prod(dims)
    k = data.draw(st.integers(1, (2**15 - 1) // size))  # so sum |a| < 2**15
    entries = data.draw(st.lists(st.integers(-k, k), min_size=size, max_size=size))
    a = np.array(entries, dtype=np.float64).reshape(dims)
    wide = norms_module._scan(a[None])
    assert norms_module._scan(a.astype(np.int16)[None]) == wide


def _enumerated_scan(x):
    """(value, flat index) of _scan by an independent einsum over every
    pattern: row r most significant, then slot 1; the first largest wins."""
    slots = [np.array(_slot_patterns(n)) for n in x.shape[1:-1]]
    letters = "abcdefgh"[: len(slots)]
    spec = ",".join(f"{p}{c}" for p, c in zip(letters.upper(), letters))
    c = np.einsum(f"{spec},r{letters}z->r{letters.upper()}z", *slots, x.astype(np.float64))
    vals = np.abs(c).sum(axis=-1).ravel()
    k = int(np.argmax(vals))
    return float(vals[k]), k


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scan_matches_enumeration_at_every_split(data):
    # the split of each slot's sign bits, the block size and the scan dtype
    # change how the sums are formed, never which pattern comes out first
    m = data.draw(st.sampled_from([2, 3]))
    dims = (data.draw(st.integers(1, 9)), data.draw(st.integers(1, 4)))
    if m == 3:
        dims = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)), dims[1])
    draws = data.draw(st.integers(1, 3))
    top = data.draw(st.sampled_from([1, 3, 40]))  # 1 plants ties everywhere
    x = np.array(
        data.draw(st.lists(st.integers(-top, top), min_size=draws * math.prod(dims),
                           max_size=draws * math.prod(dims)))
    ).reshape((draws,) + dims)
    if draws > 1 and data.draw(st.booleans()):
        x[-1] = x[0]  # a tie between draws goes to the first
    rule = data.draw(st.sampled_from(["even", "none", "all", "fixed"]))
    fixed = data.draw(st.integers(0, 8))
    splits = {"even": lambda n: n // 2, "none": lambda n: 0,
              "all": lambda n: n - 1, "fixed": lambda n: min(fixed, n - 1)}
    block = data.draw(st.sampled_from([1, 16, 256, norms_module._SCAN_BLOCK]))
    dtype = data.draw(st.sampled_from([np.int16, np.float64]))
    want = _enumerated_scan(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms_module, "_low_bits", lambda n, *_: splits[rule](n))
        mp.setattr(norms_module, "_SCAN_BLOCK", block)
        assert norms_module._scan(x.astype(dtype)) == want


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pruned_scan_matches_enumeration(data):
    # an int16 leaf row with at least _PRUNE_HIGH high patterns scans only
    # the patterns whose bound reaches a value already attained; the first
    # maximum must still come out, whatever the ties, the block size and
    # how few low patterns seed the threshold
    m = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(3, 9))
    cols = data.draw(st.integers(1, 4))
    dims = (n, cols) if m == 2 else (data.draw(st.integers(1, 4)), n, cols)
    draws = data.draw(st.integers(1, 3))
    size = draws * math.prod(dims)
    top = data.draw(st.sampled_from([1, 3]))  # 1 plants ties everywhere
    x = np.array(data.draw(st.lists(st.integers(-top, top), min_size=size, max_size=size)))
    x = x.reshape((draws,) + dims)
    c0, c1 = sorted(data.draw(st.lists(st.integers(0, cols), min_size=2, max_size=2)))
    x[..., c0:c1] = 0  # a zero column block
    if draws > 1 and data.draw(st.booleans()):
        x[-1] = x[0]  # a tie between draws goes to the first
    low = data.draw(st.integers(0, n - 3))  # the leaf keeps >= 2 high bits
    block = data.draw(st.sampled_from([1, 16, 256, norms_module._SCAN_BLOCK]))
    seeds = data.draw(st.sampled_from([1, 2, norms_module._SEED_LOWS]))
    want = _enumerated_scan(x)
    rows, pruned = [], norms_module._scan_pruned
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms_module, "_low_bits", lambda k, *_: min(low, max(k - 3, 0)))
        mp.setattr(norms_module, "_SCAN_BLOCK", block)
        mp.setattr(norms_module, "_SEED_LOWS", seeds)
        mp.setattr(norms_module, "_scan_pruned", lambda *a: rows.append(1) or pruned(*a))
        assert norms_module._scan(x.astype(np.int16)) == want
    assert len(rows) == draws * math.prod(2 ** (k - 1) for k in dims[:-2])


def test_pruned_scan_finds_a_first_maximum_outside_the_seed(monkeypatch):
    # 20 patterns tie at the maximum 10. The first, 97 (hi 1, lo 33), has a
    # low table sum below the 16 largest, while a later maximum has one
    # among them and so seeds the threshold at 10. Its bound, low sum plus
    # high sum, is exactly 10, and hi 1 has the largest high sum; at most
    # half of the lo reach 10 with it, so they are compacted, and a strict >
    # would drop lo 33
    x = np.array([[0, -1, -1], [-1, 1, -1], [1, 0, 0], [0, 0, 0], [0, -1, -1],
                  [0, 0, 0], [-1, -1, -1], [0, 1, -1], [1, -1, 1]])
    signs = np.array(_slot_patterns(9))
    vals = np.abs(signs @ x).sum(axis=1)
    low_sums = np.abs(signs[:64, :7] @ x[:7]).sum(axis=1)
    high_sums = np.abs(signs[::64, 7:] @ x[7:]).sum(axis=1)
    sixteenth = np.sort(low_sums)[-16]
    assert (vals.max(), int(np.argmax(vals)), np.count_nonzero(vals == 10)) == (10, 97, 20)
    assert low_sums[33] < sixteenth < low_sums[np.flatnonzero(vals == 10) % 64].max()
    assert high_sums[1] == high_sums.max() and low_sums[33] + high_sums[1] == 10
    assert 2 * np.count_nonzero(low_sums + high_sums[1] >= 10) <= 64
    monkeypatch.setattr(norms_module, "_low_bits", lambda n, *_: 6)
    assert norms_module._scan(x.astype(np.int16)[None]) == _enumerated_scan(x[None]) == (10.0, 97)


def test_pruned_scan_keeps_a_tie_when_the_threshold_rises(monkeypatch):
    # Six patterns tie at 9. Seeded by lo 4 alone, t starts at 7; the hi of
    # high sum 6 go first and pattern 33 raises t to 9. The first maximum,
    # 22 (hi 2, lo 6), has high sum 4 and the largest low sum is 5, so hi 2
    # stays only because the hi are filtered again with >=, not >
    x = np.array([[0, -1, 0], [0, 0, 1], [1, 0, -1], [-1, 1, -1],
                  [-1, -1, 0], [0, 0, -1], [0, 1, 1], [0, -1, 0]])
    signs = np.array(_slot_patterns(8))
    vals = np.abs(signs @ x).sum(axis=1)
    low_sums = np.abs(signs[:8, :4] @ x[:4]).sum(axis=1)
    high_sums = np.abs(signs[::8, 4:] @ x[4:]).sum(axis=1)
    assert np.flatnonzero(vals == vals.max()).tolist() == [22, 33, 35, 37, 45, 54]
    assert vals[4::8].max() == 7 and high_sums[[2, 4]].tolist() == [4, 6]
    assert high_sums[2] + low_sums.max() == 9
    monkeypatch.setattr(norms_module, "_low_bits", lambda n, *_: 3)
    monkeypatch.setattr(norms_module, "_SEED_LOWS", 1)
    monkeypatch.setattr(norms_module, "_SCAN_BLOCK", 4)
    assert norms_module._scan(x.astype(np.int16)[None]) == _enumerated_scan(x[None]) == (9.0, 22)


@pytest.mark.parametrize(
    "make",
    [lambda: diagonal_form(2, 16, (INF, INF)), lambda: row_form(16, 16, (INF, INF))],
    ids=["diagonal", "row"],
)
def test_pruned_scan_of_an_all_ties_form_scans_every_pattern(monkeypatch, make):
    # every pattern of a 16 x 16 diagonal or row form is worth 16: the bound
    # prunes nothing, so every pattern is scanned and the first one wins
    x = make().coefficients
    blocks, first_max = [], norms_module._first_max

    def spy(acc):
        blocks.append(acc.size)
        return first_max(acc)

    monkeypatch.setattr(norms_module, "_first_max", spy)
    assert norms_module._scan(x.astype(np.int16)[None]) == (16.0, 0)
    assert sum(blocks) == 2**15


def test_pruned_scan_skips_most_patterns_at_n22(monkeypatch):
    coeffs = ksz_random_form(2, 22, (INF, INF), seed=3)[0].coefficients[None]
    blocks, first_max = [], norms_module._first_max

    def spy(acc):
        blocks.append(acc.size)
        return first_max(acc)

    monkeypatch.setattr(norms_module, "_first_max", spy)
    got = norms_module._scan(coeffs.astype(np.int16))
    assert sum(blocks) < 0.4 * 2**21
    # the float64 scan of the same form prunes nothing
    blocks.clear()
    assert norms_module._scan(coeffs.astype(np.float64)) == got
    assert sum(blocks) == 2**21


@pytest.mark.parametrize(
    "dtype, width, bits",
    [
        # at least 13 bits (2**13 patterns) in the low table, or all of them
        (np.int16, 16, (12, 13, 13, 13)),
        # float64 keeps a high table below the floor
        (np.float64, 16, (6, 7, 13, 13)),
        # 2**13 patterns of 65 int16 or 17 float64 entries take over 1 MiB
        (np.int16, 65, (12, 12, 12, 12)),
        (np.float64, 17, (6, 12, 12, 12)),
    ],
)
def test_low_bits_floor(dtype, width, bits):
    got = tuple(norms_module._low_bits(n, np.dtype(dtype), width) for n in (13, 14, 15, 22))
    assert got == bits


def test_brute_force_wide_form_keeps_small_tables():
    # 2**13 low-table patterns of 1000 columns would take 16 MiB in int16
    coeffs = np.random.Generator(np.random.PCG64(5)).integers(-1, 2, (16, 1000))
    form = MultilinearForm(coefficients=coeffs.astype(np.float64), p=(INF, INF))
    s = np.array(_slot_patterns(16))
    vals = np.abs(s @ coeffs).sum(axis=1)
    tracemalloc.start()
    try:
        est = brute_force_norm(form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = int(np.argmax(vals))
    assert est.value == vals[k]
    assert np.array_equal(est.witness[0], s[k])
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "m, n, scale, mib", [(3, 9, 1.0, 1.25), (3, 9, 0.5, 1.25), (2, 22, 1.0, 1.0)]
)
def test_brute_force_peak_memory_is_bounded(m, n, scale, mib):
    # scale 0.5 leaves the integers, so that form is scanned in float64.
    # At m = 3 the int16 leaf gets all 256 rows of slot 1 at once; their
    # tables take 1.1 MiB, and a leaf chunk holds at most 1 MiB. At m = 2,
    # n = 22 one row's tables take 0.36 MiB in int16, and the leaf's block
    # and buffer 0.25 MiB
    form, _ = ksz_random_form(m, n, (INF,) * m, seed=3)
    form = MultilinearForm(coefficients=scale * form.coefficients, p=form.p)
    tracemalloc.start()
    try:
        brute_force_norm(form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norms_module._CHUNK_BYTES == 2**20
    assert peak < mib * 2**20


def _scan_dtypes(monkeypatch):
    """The dtypes brute_force_norm hands to _scan, outermost call first."""
    seen, scan = [], norms_module._scan

    def spy(x):
        seen.append(x.dtype)
        return scan(x)

    monkeypatch.setattr(norms_module, "_scan", spy)
    return seen


@pytest.mark.parametrize("total, dtype", [(2**15 - 1, np.int16), (2**15, np.float64)])
@pytest.mark.parametrize("dims", [(3, 2), (2, 2, 2)])
def test_brute_force_int16_threshold(monkeypatch, total, dtype, dims):
    # every entry sits in column 0 of the last slot, so at the all-plus
    # pattern a sign-table entry and the leaf sum both reach `total`
    coeffs = np.zeros(dims)
    first = coeffs[..., 0].reshape(-1)
    first[:] = total // first.size
    first[: total % first.size] += 1
    coeffs[..., 0] = first.reshape(dims[:-1])
    seen = _scan_dtypes(monkeypatch)
    est = brute_force_norm(MultilinearForm(coefficients=coeffs, p=(INF,) * len(dims)))
    assert seen[0] == dtype
    assert est.value == total
    assert all(np.array_equal(w, np.ones(n)) for w, n in zip(est.witness, dims))


def test_brute_force_fractional_form_stays_float64(monkeypatch):
    # truncated to integers the entries would all be 0, and every pattern
    # would tie at 0
    coeffs = np.array([[0.9, 0.0], [-0.9, 0.0]])
    seen = _scan_dtypes(monkeypatch)
    est = brute_force_norm(MultilinearForm(coefficients=coeffs, p=(INF, INF)))
    assert seen[0] == np.float64
    assert est.value == 1.8
    assert np.array_equal(est.witness[0], [1.0, -1.0])


def _stacked_matches_per_draw(draws):
    """brute_force_scan on the stack picks the per-draw winner: the largest
    brute_force_norm value, the first draw on ties, with its witness."""
    forms = [MultilinearForm(coefficients=a, p=(INF,) * a.ndim) for a in draws]
    per_draw = [brute_force_norm(f) for f in forms]
    values = [est.value for est in per_draw]
    d, idx, value = norms_module.brute_force_scan(np.stack(draws))
    assert d == values.index(max(values))
    assert value == values[d]
    est = norms_module.brute_force_estimate(forms[d], idx)
    assert est.value == per_draw[d].value
    assert all(np.array_equal(w, v) for w, v in zip(est.witness, per_draw[d].witness))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stacked_scan_matches_per_draw_brute_force(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    entries = st.lists(st.integers(-2, 2), min_size=math.prod(dims), max_size=math.prod(dims))
    draws = [
        np.array(data.draw(entries), dtype=np.float64).reshape(dims)
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    # planted duplicates tie with their originals, which come first
    for _ in range(data.draw(st.integers(0, 3))):
        src = data.draw(st.integers(0, len(draws) - 1))
        draws.insert(data.draw(st.integers(src + 1, len(draws))), draws[src].copy())
    _stacked_matches_per_draw(draws)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_scan_int16_test_is_per_draw(data):
    # every draw but the wide ones has sum |a| < 2**15, while the stack's
    # total is far above it; one wide draw sends the whole stack to float64
    dims = tuple(data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)))
    size = math.prod(dims)
    count = data.draw(st.integers(2, 5))
    wide = data.draw(st.sets(st.integers(0, count - 1), max_size=count - 1))
    draws = []
    for k in range(count):
        a = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size)),
                     dtype=np.float64).reshape(dims)
        if k in wide and data.draw(st.booleans()):
            a /= 2.0  # half-integers: not integer
        else:
            target = 2**15 if k in wide else 2**15 - 1
            a.flat[0] = target - (np.abs(a).sum() - abs(a.flat[0]))
        draws.append(a)
    seen, scan = [], norms_module._scan

    def spy(x):
        seen.append(x.dtype)
        return scan(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms_module, "_scan", spy)
        norms_module.brute_force_scan(np.stack(draws))
    assert seen[0] == (np.float64 if wide else np.int16)
    _stacked_matches_per_draw(draws)


@pytest.mark.parametrize("scale, dtype", [(1.0, np.int16), (0.3, np.float64)])
def test_stacked_m1_scan_ties_go_to_the_first_draw(scale, dtype):
    draws = np.round(np.random.default_rng(4).standard_normal((6, 9)) * 4.0) * scale
    draws[1] *= 3.0  # the largest sum |a|, tied by draw 4's opposite signs
    draws[4] = -draws[1]
    seen, scan = [], norms_module._scan

    def spy(x):
        seen.append((x.shape, x.dtype))
        return scan(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms_module, "_scan", spy)
        d, idx, value = norms_module.brute_force_scan(draws)
    assert seen == [((6, 1, 9), dtype)]
    assert (d, idx) == (1, 0)
    assert value == pytest.approx(math.fsum(np.abs(draws[1])), rel=1e-15)


def test_stacked_m1_int16_scan_spans_chunks_and_groups():
    # 300 draws of 4096 columns go in leaf chunks of about a hundred draws,
    # each summed over its columns by one reduction; the last draw ties the
    # best one, in a later chunk
    g = np.random.default_rng(6)
    draws = g.integers(-3, 4, (300, 4096)).astype(np.float64)
    sums = np.abs(draws).sum(axis=1)
    best = int(np.argmax(sums[:-1]))
    draws[-1] = -draws[best]
    assert sums[best] < 2**15  # so the scan runs in int16
    assert norms_module.brute_force_scan(draws) == (best, 0, sums[best])


def test_stacked_float64_scan_of_identical_draws_spans_chunks():
    # (2, 25000) draws have no high table and go two to a leaf chunk, so the
    # last draw is a chunk of its own; its sums add the columns in the same
    # order as the others', so it ties them and the first draw wins
    assert norms_module._CHUNK_BYTES == 2**20
    a = np.random.default_rng(8).standard_normal((2, 25000))
    stack = np.stack([a] * 3)
    d, idx, value = norms_module.brute_force_scan(stack)
    assert d == 0
    assert (idx, value) == norms_module.brute_force_scan(stack[:1])[1:]


def test_brute_force_m1_float_form():
    a = np.array([0.1, -0.2, 0.0, 3e-7, -7.25, 1e-300])
    est = brute_force_norm(MultilinearForm(coefficients=a, p=(INF,)))
    assert est.value == lp_norm(a, 1.0) == math.fsum(np.abs(a))
    assert np.array_equal(est.witness[0], [1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    assert evaluate(MultilinearForm(coefficients=a, p=(INF,)), est.witness) == pytest.approx(
        est.value, rel=1e-12
    )


def test_abs_sums_over_several_groups_stays_int16():
    # 2**14 entries a column, so a group holds 4 of the 11 columns
    g = np.random.default_rng(5)
    table = g.integers(-100, 101, size=(11, 5, 2**12)).astype(np.int16)
    for view in (table, table[:, :4]):  # a chunk may use part of its table
        sums = norms_module._abs_sums(view)
        assert sums.dtype == np.int16
        assert np.array_equal(sums, np.abs(view).sum(axis=0))


def _ksz_stack(n, count):
    return np.stack([ksz_random_form(2, n, (INF, INF), seed=s)[0].coefficients
                     for s in range(count)])


def test_stacked_scan_budget_is_per_draw():
    stack = _ksz_stack(8, 10)
    norms_module.brute_force_scan(stack, budget=128)  # 2**7 patterns a draw
    with pytest.raises(
        ValueError, match=r"^enumeration needs 128 sign patterns, budget is 127$"
    ):
        norms_module.brute_force_scan(stack, budget=127)


@pytest.mark.parametrize("shape", [(0, 3, 3), (3,), (2, 0, 3)])
def test_stacked_scan_rejects_stacks_without_forms(shape):
    with pytest.raises(ValueError, match="needs a stack of forms with entries"):
        norms_module.brute_force_scan(np.zeros(shape))


def test_stacked_scan_tables_stay_within_blocks():
    # 64 draws at n = 18: their sign tables together would take 6.75 MiB
    stack = _ksz_stack(18, 64)
    stack[:, 0, 0] = 0.5  # float64, the wider scan
    tracemalloc.start()
    try:
        norms_module.brute_force_scan(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack.nbytes + 8 * norms_module._SCAN_BLOCK * 8


def test_analytic_row():
    est = analytic_norm(row_form(3, 4, (5, 2)))
    assert est.value == 2.0
    assert est.kind == "exact"
    assert np.array_equal(est.witness[0], [1.0, 0.0, 0.0])
    form = row_form(3, 4, (5, 2))
    assert evaluate(form, est.witness) == pytest.approx(est.value, rel=1e-12)
    est = analytic_norm(row_form(2, 9, (INF, INF)))
    assert est.value == 9.0


def test_analytic_diagonal():
    est = analytic_norm(diagonal_form(2, 16, (4, 4)))
    assert est.value == 4.0
    assert est.kind == "analytic"
    form = diagonal_form(2, 16, (4, 4))
    assert evaluate(form, est.witness) == pytest.approx(4.0, rel=1e-12)
    # |1/p| > 1: exponent clamps at zero, witness falls back to basis vectors
    est = analytic_norm(diagonal_form(2, 5, (1, 1)))
    assert est.value == 1.0
    form = diagonal_form(2, 5, (1, 1))
    assert evaluate(form, est.witness) == pytest.approx(1.0, rel=1e-12)


def test_analytic_matches_brute_force_on_diagonal():
    form = diagonal_form(2, 3, (INF, INF))
    assert analytic_norm(form).value == brute_force_norm(form).value


def test_analytic_none_for_other_kinds():
    form, _ = ksz_random_form(2, 3, (INF, INF), seed=0)
    assert analytic_norm(form) is None
    custom = MultilinearForm(coefficients=np.ones((2, 2)), p=(2, 2))
    assert analytic_norm(custom) is None


def test_estimate_to_obj_json_ready():
    est = alternating_ascent(diagonal_form(2, 3, (2, 2)), restarts=2, seed=0)
    obj = json.loads(json.dumps(estimate_to_obj(est)))
    assert obj["kind"] == "lower_bound"
    assert obj["restarts_used"] == 4
    assert len(obj["witness"]) == 2

    cform, _ = ksz_random_form(2, 2, (2, 2), seed=3, complex_phases=True)
    cest = alternating_ascent(cform, restarts=2, seed=0)
    cobj = json.loads(json.dumps(estimate_to_obj(cest)))
    assert all(len(pair) == 2 for pair in cobj["witness"][0])

# makes every slot update lower the objective; run in-process and under -O
_FALLING_DUAL = """
import itertools
import mixedsums.norms as norms
from mixedsums import ksz_random_form

real = norms.dual_maximizer
calls = itertools.count(1)

def falling(c, p):
    x, _ = real(c, p)
    return x, 1.0 / next(calls)

norms.dual_maximizer = falling
form, _ = ksz_random_form(2, 3, (2.0, 2.0), seed=0)
try:
    norms.alternating_ascent(form, restarts=1)
except ArithmeticError as e:
    print("ArithmeticError:", e)
"""


def test_ascent_rejects_falling_objective(monkeypatch, capsys):
    import mixedsums.norms as norms

    # registers the original for restoring after the script rebinds it
    monkeypatch.setattr(norms, "dual_maximizer", norms.dual_maximizer)
    exec(_FALLING_DUAL, {})
    assert capsys.readouterr().out.startswith("ArithmeticError: ascent objective fell")


def test_ascent_monotone_check_survives_optimize_flag():
    import os
    import subprocess
    import sys

    import mixedsums

    src = os.path.dirname(os.path.dirname(os.path.abspath(mixedsums.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FALLING_DUAL],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ArithmeticError: ascent objective fell")


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=2, max_size=3),
    ps=st.lists(st.sampled_from([1.0, 1.5, 2.0, 4.0, INF]), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_ascent_witness_is_valid_property(dims, ps, seed):
    coeffs = np.random.Generator(np.random.PCG64(seed)).standard_normal(dims)
    form = MultilinearForm(coefficients=coeffs, p=ps[: len(dims)])
    est = alternating_ascent(form, restarts=3, seed=seed)
    for x, pj in zip(est.witness, form.p):
        assert lp_norm(x, pj) <= 1.0 + 1e-12
    assert evaluate(form, est.witness) == pytest.approx(est.value, rel=1e-9)


_ROW = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize(
    "kind, coeffs",
    [
        ("row", [[5.0, -7.0], [3.0, 9.0]]),
        ("row", _ROW + [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),  # a second row
        ("row", _ROW * [[1.0, 2.0, 1.0], [1.0, 1.0, 1.0]]),  # not all ones
        ("row", np.ones((2, 2, 2)) * [[[1.0]], [[0.0]]]),  # not bilinear
        ("diagonal", [[5.0, -7.0], [3.0, 9.0]]),
        ("diagonal", np.eye(3) + np.eye(3, k=1)),  # off the diagonal
        ("diagonal", 2.0 * np.eye(3)),  # not ones
        ("diagonal", np.eye(2, 3)),  # unequal sizes
    ],
)
def test_analytic_norm_reads_the_coefficients_not_the_kind(kind, coeffs):
    form = MultilinearForm(coefficients=np.asarray(coeffs), p=(INF,) * np.ndim(coeffs), kind=kind)
    assert analytic_norm(form) is None


def test_analytic_norm_keeps_the_families_it_recognises():
    for form in (row_form(1, 4, (2.0, 3.0)), row_form(3, 1, (INF, 4.0)),
                 diagonal_form(1, 5, (3.0,)), diagonal_form(3, 4, (INF, 2.0, 4.0))):
        # a file's copy of the family's coefficients, with the family's kind
        copy = MultilinearForm(np.array(form.coefficients), form.p, kind=form.kind)
        assert estimate_to_obj(analytic_norm(copy)) == estimate_to_obj(analytic_norm(form))
        assert analytic_norm(MultilinearForm(form.coefficients, form.p)) is None


@pytest.mark.parametrize(
    "f, args, message",
    [
        pytest.param(
            lp_norm, (3.0, 2), "fiber_norms needs an axis of fibers, got shape ()", id="lp_norm"
        ),
        pytest.param(
            dual_maximizer, (3.0, 2),
            "dual_maximizer needs an axis to maximize along, got shape ()", id="dual_maximizer",
        ),
    ],
)
def test_input_checks_name_their_rule(f, args, message):
    with pytest.raises(ValueError) as e:
        f(*args)
    assert str(e.value) == message
