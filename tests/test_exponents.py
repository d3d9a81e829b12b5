"""Exponent formula tests: worked examples plus randomized identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedsums import (
    INF,
    alt_exponent,
    anisotropic_exponents,
    archiv_exponent,
    classical_exponents,
    conjugate,
    delta_chain,
    ghl_admissible,
    harmonic_sum,
    holder_split,
    lemma_lift,
    linear_exponent,
    m_less_set,
    predict,
    rho_hl,
    unified_exponent,
)


def test_harmonic_sum_examples():
    assert harmonic_sum((INF, INF)) == 0.0
    assert harmonic_sum((4, 4)) == 0.5
    assert harmonic_sum((4, 2)) == 0.75


def test_harmonic_sum_rejects_bad_entries():
    with pytest.raises(ValueError):
        harmonic_sum((2, 0))
    with pytest.raises(ValueError):
        harmonic_sum((2, -1))
    with pytest.raises(ValueError):
        harmonic_sum(())


def test_conjugate_examples():
    assert conjugate(2) == 2.0
    assert conjugate(1) == INF
    assert conjugate(INF) == 1.0
    assert conjugate(4) == pytest.approx(4.0 / 3.0, abs=0)
    with pytest.raises(ValueError):
        conjugate(0.9)


def test_conjugate_involution():
    g = np.random.Generator(np.random.PCG64(1))
    for _ in range(200):
        p = float(1.0 + 10.0 * g.random())
        assert conjugate(conjugate(p)) == pytest.approx(p, rel=1e-12)


def test_classical_examples():
    c = classical_exponents(2, (INF, INF))
    assert c.bh == pytest.approx(4.0 / 3.0, abs=0)
    assert c.hlpp == pytest.approx(4.0 / 3.0, abs=0)
    assert c.dsp is None

    # boundary |1/p| = 1/2: both present and exactly equal
    c = classical_exponents(2, (4, 4))
    assert c.hlpp == 2.0
    assert c.dsp == 2.0

    # h = 1/2 boundary again, this time at m = 3
    c = classical_exponents(3, (6, 6, 6))
    assert c.hlpp == 2.0
    assert c.dsp == 2.0

    c = classical_exponents(3, (INF, INF, INF))
    assert c.bh == pytest.approx(1.5, abs=0)
    assert c.hlpp == pytest.approx(1.5, abs=0)


def test_classical_dsp_only_regime():
    c = classical_exponents(2, (2, 4))  # |1/p| = 3/4
    assert c.hlpp is None
    assert c.dsp == pytest.approx(4.0, abs=1e-15)


def test_ghl_admissible_examples():
    assert ghl_admissible((4 / 3, 4 / 3), (INF, INF)) is True
    # s = (1, 2): 1 is the lower endpoint, sum of reciprocals hits the bound
    assert ghl_admissible((1, 2), (INF, INF)) is True
    assert ghl_admissible((1, 1), (INF, INF)) is False
    with pytest.raises(ValueError):
        ghl_admissible((2, 2), (2, 4))


def test_m_less_set_examples():
    assert m_less_set(2, (1, 3)) == frozenset({1})
    assert m_less_set(2, (2, 2)) == frozenset()
    assert m_less_set(4 / 3, (1, 1, 2)) == frozenset({1, 2})


def test_m_less_set_calculus():
    g = np.random.Generator(np.random.PCG64(2))
    for _ in range(300):
        m = int(g.integers(1, 6))
        r = tuple(float(x) for x in 0.5 + 3.0 * g.random(m))
        rho = float(0.5 + 3.0 * g.random())
        less = m_less_set(rho, r)
        geq = frozenset(range(1, m + 1)) - less
        assert less | geq == frozenset(range(1, m + 1))
        assert not (less & geq)
        assert all(r[j - 1] < rho for j in less)
        assert all(r[j - 1] >= rho for j in geq)


def test_rho_hl():
    assert rho_hl(2, (INF, INF)) == pytest.approx(4.0 / 3.0, abs=0)
    assert rho_hl(2, (4, 4)) == 2.0
    # None exactly when m + 1 - 2|1/p| <= 0
    assert rho_hl(1, (0.5,)) is None


def test_unified_examples():
    u = unified_exponent(2, (2, 2), (1, 1))
    assert u.s_case1 == pytest.approx(1.5, abs=0)
    # cross-check against the constant-r closed form (2mr+2mp-mpr-pr)/(2pr)
    # with m = 2, r = 1, p = 2: (4 + 8 - 4 - 2) / 4 = 3/2
    assert u.s_case1 == pytest.approx((4 + 8 - 4 - 2) / 4, abs=1e-15)
    assert u.s_case2 is None  # |1/p| = 1 > 1/2

    u = unified_exponent(2, (INF, INF), (2, 2))
    assert u.s_case2 == 0.0  # M empty
    assert u.s_case1 is None  # p outside [2, 2m]

    u = unified_exponent(2, (4, 4), (1, 2))
    assert u.s_case1 == 0.5
    assert u.s_case2 == 0.5


def test_unified_neither_regime():
    u = unified_exponent(2, (1.5, 8), (1, 1))
    assert u.s_case1 is None and u.s_case2 is None


def test_unified_coincidence_at_2m():
    g = np.random.Generator(np.random.PCG64(3))
    for _ in range(500):
        m = int(g.integers(2, 5))
        r = tuple(
            INF if g.random() < 0.1 else float(0.4 + 3.0 * g.random())
            for _ in range(m)
        )
        u = unified_exponent(m, (2.0 * m,) * m, r)
        assert u.s_case1 == u.s_case2  # bitwise


def test_archiv_examples():
    a = archiv_exponent(2, 1, (2, 2))
    assert a.s_a == pytest.approx(1.5, abs=0)
    a = archiv_exponent(2, 2, (3, 3))
    assert a.s_b == pytest.approx(1.0 / 6.0, abs=1e-15)
    a = archiv_exponent(2, 4 / 3, (INF, INF))
    assert a.s_a == 0.0
    assert a.s_b is None


def test_archiv_matches_constant_p_closed_form():
    g = np.random.Generator(np.random.PCG64(4))
    for _ in range(1000):
        m = int(g.integers(2, 5))
        r = float(0.3 + 1.7 * g.random())
        pv = float(2.0 + (2.0 * m - 2.0) * g.random())
        if pv >= 2.0 * m:
            continue
        got = archiv_exponent(m, r, (pv,) * m).s_a
        want = max((2 * m * r + 2 * m * pv - m * pv * r - pv * r) / (2 * pv * r), 0.0)
        assert got == pytest.approx(want, abs=1e-12)


def test_alt_examples():
    assert alt_exponent(2, (INF, INF), (1, 1)) == 0.5
    assert alt_exponent(2, (INF, INF), (4 / 3, 4 / 3)) == 0.0
    assert alt_exponent(3, (6, 6, 6), (2, 2, 2)) == 0.0
    with pytest.raises(ValueError):
        alt_exponent(2, (INF, INF), (0.9, 1))  # r below 1
    with pytest.raises(ValueError):
        alt_exponent(2, (2, 4), (1, 1))  # |1/p| > 1/2


def test_alt_dominated_by_case2():
    g = np.random.Generator(np.random.PCG64(5))
    for _ in range(1000):
        m = int(g.integers(2, 5))
        r = tuple(float(x) for x in 1.0 + g.random(m))
        w = g.random(m)
        w = w * (0.5 * g.random() / w.sum())
        p = tuple(float(1.0 / x) for x in w)
        u = unified_exponent(m, p, r)
        assert alt_exponent(m, p, r) <= u.s_case2


def test_delta_chain_examples():
    assert delta_chain((4, 2)) == (4.0, 2.0)
    assert delta_chain((INF, 2)) == (2.0, 2.0)
    with pytest.raises(ValueError):
        delta_chain((3, 3, 3))  # tail sum exactly 1


def test_delta_chain_non_increasing():
    g = np.random.Generator(np.random.PCG64(6))
    for _ in range(300):
        m = int(g.integers(1, 5))
        w = g.random(m)
        w = w * (0.95 * g.random() / w.sum())
        p = tuple(float(1.0 / x) for x in w)
        chain = delta_chain(p)
        assert all(a >= b - 1e-12 for a, b in zip(chain, chain[1:]))


def test_anisotropic_examples():
    assert anisotropic_exponents((4, 2), (2, 1)) == (0.25, 0.5)
    assert anisotropic_exponents((4, 2), (4, 2)) == (0.0, 0.0)
    assert anisotropic_exponents((INF, 2), (1, 1)) == (0.5, 0.5)
    with pytest.raises(ValueError):
        anisotropic_exponents((4, 3), (1, 1))  # p_m > 2
    with pytest.raises(ValueError):
        anisotropic_exponents((2, 2), (1, 1))  # p_1 not > 2
    with pytest.raises(ValueError):
        anisotropic_exponents((2.5, 1.05), (1, 1))  # |1/p| >= 1


def test_lemma_lift_examples():
    assert lemma_lift((1, 1), (INF, INF)) == (1.0, 2.0)
    s = lemma_lift((1.2, 1.2), (INF, INF))
    assert s == pytest.approx((1.5, 1.2), abs=1e-15)
    assert math.fsum(1.0 / x for x in s) == pytest.approx(1.5, abs=1e-15)
    with pytest.raises(ValueError):
        lemma_lift((2, 2), (4, 4))  # boundary: sum equals target, not above


def test_lemma_lift_case_two_pivot():
    # no entry at or below the endpoint, pivot solved in closed form
    s = lemma_lift((1.5, 1.4), (8, 8))
    target = 1.5 - 0.25
    assert math.fsum(1.0 / x for x in s) == pytest.approx(target, abs=1e-14)
    assert s[1] == 1.4  # untouched past the pivot
    assert 1.5 <= s[0] <= 2.0


def test_lemma_lift_random():
    g = np.random.Generator(np.random.PCG64(7))
    done = 0
    while done < 1000:
        m = int(g.integers(1, 5))
        w = g.random(m)
        w = w * (0.5 * g.random() / w.sum())
        p = tuple(float(1.0 / x) for x in w)
        r = tuple(float(x) for x in 0.3 + 1.7 * g.random(m))
        h = harmonic_sum(p)
        target = (m + 1.0) / 2.0 - h
        if math.fsum(1.0 / rj for rj in r) <= target:
            continue
        s = lemma_lift(r, p)
        lo = 1.0 / (1.0 - h)
        assert all(sj >= rj - 1e-12 for sj, rj in zip(s, r))
        assert all(lo - 1e-12 <= sj <= 2.0 + 1e-12 for sj in s)
        assert abs(math.fsum(1.0 / sj for sj in s) - target) <= 1e-12
        done += 1


def test_holder_split_examples():
    assert holder_split((1, 1), (2, 2)) == (2.0, 2.0)
    assert holder_split((4 / 3,), (4 / 3,)) == (INF,)
    assert holder_split((1, 2), (2, 2)) == (2.0, INF)
    with pytest.raises(ValueError):
        holder_split((2, 2), (1, 2))


def test_holder_split_identity():
    g = np.random.Generator(np.random.PCG64(8))
    for _ in range(300):
        m = int(g.integers(1, 5))
        r = tuple(float(x) for x in 0.5 + 2.0 * g.random(m))
        s = tuple(ri + 2.0 * float(g.random()) for ri in r)
        x = holder_split(r, s)
        for ri, si, xi in zip(r, s, x):
            got = (1.0 / si if si != INF else 0.0) + (1.0 / xi if xi != INF else 0.0)
            assert got == pytest.approx(1.0 / ri, rel=1e-14)


def test_linear_exponent_examples():
    assert linear_exponent(1, INF) == 0.0
    assert linear_exponent(2, 2) == 0.0
    assert linear_exponent(1, 2) == 0.5
    with pytest.raises(ValueError):
        linear_exponent(1, 0.5)


def test_predict_fills_applicable_fields():
    rep = predict(2, (4, 4), (1, 2))
    assert rep.s_case1 == 0.5 and rep.s_case2 == 0.5 and rep.s_alt == 0.5
    assert rep.flags.case1_applies and rep.flags.case2_applies
    assert not rep.flags.subcritical  # r_1 = 1 below the admissible window
    assert rep.s_linear is None
    assert rep.best_exponent() == 0.5


def test_predict_m1_linear_only():
    rep = predict(1, (2,), (1,))
    assert rep.s_linear == 0.5
    assert rep.s_case1 is None and rep.s_case2 is None and rep.s_alt is None
    assert rep.delta_chain is None
    assert rep.flags == type(rep.flags)(False, False, False, False)
    assert rep.best_exponent() == 0.5


def test_predict_delta_regime():
    # p = (4, 2) sits in both the case-1 window and the anisotropic regime
    rep = predict(2, (4, 2), (2, 1))
    assert rep.delta_chain == (4.0, 2.0)
    assert rep.per_index_delta_exponents == (0.25, 0.5)
    assert rep.flags.delta_applies and rep.flags.case1_applies
    assert rep.s_case1 == 0.75
    assert rep.s_case2 is None
    assert rep.best_exponent() == 0.75


def test_predict_exposes_case1_lower_bound():
    rep = predict(2, (4, 4), (1, 3))  # M_<^2 = {1}, proper subset
    assert rep.optimality_open
    assert rep.s_case1_lower is not None
    assert rep.s_case1_lower <= rep.s_case1 + 1e-15


def test_predict_monotone_in_r_and_p():
    g = np.random.Generator(np.random.PCG64(9))
    for _ in range(300):
        m = int(g.integers(2, 4))
        p = tuple(float(x) for x in 2.0 + (2.0 * m - 2.0) * g.random(m))
        r = tuple(float(x) for x in 0.5 + 1.5 * g.random(m))
        rep = predict(m, p, r)
        j = int(g.integers(0, m))
        # raising r_j cannot raise any predicted exponent
        r_up = tuple(rj + 0.3 if i == j else rj for i, rj in enumerate(r))
        rep_up = predict(m, p, r_up)
        for field in ("s_case1", "s_case2", "s_alt"):
            a, b = getattr(rep, field), getattr(rep_up, field)
            if a is not None and b is not None:
                assert b <= a + 1e-12
        # raising 1/p_j (lowering p_j within the window) cannot lower them
        p_dn = tuple(max(pj - 0.3, 2.0) if i == j else pj for i, pj in enumerate(p))
        rep_dn = predict(m, p_dn, r)
        for field in ("s_case1", "s_case2", "s_alt"):
            a, b = getattr(rep, field), getattr(rep_dn, field)
            if a is not None and b is not None:
                assert b >= a - 1e-12


def test_report_to_dict_stable_and_json_ready():
    import json

    rep = predict(2, (INF, 2), (1, 1))
    d = rep.to_dict()
    text = json.dumps(d)
    assert json.loads(text) == d
    assert d["rho_hl"] == 2.0
    assert d["per_index_delta_exponents"] == [0.5, 0.5]


_EXPONENT = st.one_of(
    st.just(INF),
    st.floats(min_value=0.25, max_value=64.0, allow_nan=False),
    st.sampled_from([1.0, 2.0, 4.0, 6.0, 8.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=4).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(_EXPONENT, min_size=m, max_size=m),
        st.lists(_EXPONENT, min_size=m, max_size=m),
    )
))
def test_predict_regime_flags_match_definitions(mpr):
    m, p, r = mpr
    flags = predict(m, p, r).flags
    assert flags.case1_applies == all(2.0 <= pj <= 2.0 * m for pj in p)
    assert flags.case2_applies == (math.fsum(1.0 / pj for pj in p) <= 0.5)
