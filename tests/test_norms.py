"""Norm estimator tests: exact duals, ascent, enumeration, closed forms."""

import itertools
import json
import math

import numpy as np
import pytest

from mixedsums import (
    INF,
    MultilinearForm,
    alternating_ascent,
    analytic_norm,
    brute_force_norm,
    compensated_sum,
    diagonal_form,
    dual_maximizer,
    estimate_to_obj,
    evaluate,
    ksz_random_form,
    lp_norm,
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
    form, _ = ksz_random_form(2, 6, (INF, INF), seed=4)
    a = alternating_ascent(form, restarts=8, seed=1, threads=1)
    b = alternating_ascent(form, restarts=8, seed=1, threads=3)
    c = alternating_ascent(form, restarts=8, seed=1, threads=1)
    assert a.value == b.value == c.value
    for wa, wb in zip(a.witness, b.witness):
        assert np.array_equal(wa, wb)


def test_ascent_complex_form():
    form, _ = ksz_random_form(2, 3, (2, 2), seed=5, complex_phases=True)
    est = alternating_ascent(form, restarts=4, seed=0)
    for w, pj in zip(est.witness, form.p):
        assert lp_norm(w, pj) <= 1.0 + 1e-12
    assert abs(evaluate(form, est.witness)) == pytest.approx(est.value, rel=1e-9)
    # the norm of a 3x3 unimodular-coefficient matrix lies in [1, 3]
    assert 1.0 - 1e-12 <= est.value <= 3.0 + 1e-12


def test_ascent_validation():
    form = diagonal_form(2, 2, (2, 2))
    with pytest.raises(ValueError):
        alternating_ascent(form, restarts=0)
    with pytest.raises(ValueError):
        alternating_ascent(form, tol=0.0)
    with pytest.raises(ValueError):
        alternating_ascent(form, max_iters=0)


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
