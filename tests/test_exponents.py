"""Exponent formula tests: worked examples plus randomized identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedsums import exponents
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
    lp_norm,
    m_less_set,
    mixed_norm,
    predict,
    rho_hl,
    unified_exponent,
)
from mixedsums.exponents import as_exponent_vector


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


def test_unified_case1_with_m_less_2_empty_is_the_excess_of_the_harmonic_sum():
    # no r_j < 2: s = max(|1/p| - 1/2, 0), which the diagonal attains at p = (2, 2)
    assert unified_exponent(2, (2, 2), (2, 2)).s_case1 == 0.5
    assert unified_exponent(2, (3, 3), (2, 3)).s_case1 == pytest.approx(1 / 6, abs=1e-15)
    assert unified_exponent(2, (4, 4), (2, 2)).s_case1 == 0.0
    assert unified_exponent(3, (2, 4, 6), (INF, 2, 2)).s_case1 == pytest.approx(5 / 12, abs=1e-15)


@pytest.mark.parametrize("p", [(INF, INF), (4.0, 8.0)])
@pytest.mark.parametrize("eps, admissible", [(-1e-9, True), (1e-9, False)])
def test_ghl_admissible_at_its_edges(p, eps, admissible):
    # m = 2: 1/s_1 + 1/s_2 at (m+1)/2 - |1/p| + eps, both s_j inside the box
    x = 2.0 / (1.5 - harmonic_sum(p) + eps)
    assert ghl_admissible((x, x), p) is admissible
    # s_1 at 2 + eps, with 1/s_1 + 1/s_2 well inside
    assert ghl_admissible((2.0 + eps, 1.9), p) is admissible


def _constructive_bound(p, r):
    """Largest ratio exponent among forms with a known norm and mixed sum.

    The form is the diagonal on a slot subset S, the other slots pinned to
    e_1, which keeps both its norm and its mixed sum. Its mixed sum is
    n^{1/r_{min S}} and its norm n^{max(1 - sum_S 1/p_j, 0)}. With |S| = 1
    it is the flat functional, of exponent 1/r_j + 1/p_j - 1. No valid
    exponent lies below any of them.
    """
    m = len(p)
    subsets = (S for k in range(1, m + 1) for S in itertools.combinations(range(m), k))
    return max(1 / r[S[0]] - max(1 - math.fsum(1 / p[j] for j in S), 0) for S in subsets)


def test_every_predicted_exponent_is_at_least_the_constructive_bound():
    grid_p = (2.0, 2.5, 3.0, 4.0, 6.0, 8.0, INF)
    grid_r = (1.0, 4 / 3, 1.5, 2.0, 3.0)
    below = []
    for m in (1, 2, 3):
        for p, r in itertools.product(
            itertools.product(grid_p, repeat=m), itertools.product(grid_r, repeat=m)
        ):
            rep = predict(m, p, r)
            delta = rep.per_index_delta_exponents
            fields = {
                "s_case1": rep.s_case1,
                "s_case2": rep.s_case2,
                "s_alt": rep.s_alt,
                "s_linear": rep.s_linear,
                "delta": None if delta is None else math.fsum(delta),
            }
            bound = _constructive_bound(p, r)
            below += [(p, r, k) for k, v in fields.items() if v is not None and v < bound - 1e-12]
    assert below == []


def test_archiv_s_a_agrees_with_unified_case1_where_both_apply():
    # the term lists differ (m/r against m copies of 1/r), so the last bits may differ
    compared = 0
    for m in (2, 3):
        for p in itertools.product((2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, INF), repeat=m):
            for r in (0.5, 1.0, 4 / 3, 1.5, 2.0):
                s_a = archiv_exponent(m, r, p).s_a
                s_case1 = unified_exponent(m, p, (r,) * m).s_case1
                if s_a is not None and s_case1 is not None:
                    compared += 1
                    assert s_a == pytest.approx(s_case1, abs=1e-12), (m, p, r)
    assert compared == 680


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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_anisotropic_exponents_keep_the_hand_built_bits(data):
    m = data.draw(st.integers(1, 4))
    head = [data.draw(st.sampled_from([INF, 2.5, 3.0, 4.0, 7.0, 100.0])) for _ in range(m - 1)]
    p = (*head, data.draw(st.sampled_from([1.05, 4 / 3, 1.5, 1.9, 2.0])))
    if harmonic_sum(p) >= 1.0:
        return
    r = [data.draw(st.sampled_from([0.4, 1.0, 4 / 3, 1.7, 2.0, 3.0, INF])) for _ in range(m)]
    # the per-index formula as written before it shared _excess
    want = [
        max(math.fsum([1.0 / r[k], -1.0] + [1.0 / pj for pj in p[k:]]), 0.0) for k in range(m)
    ]
    got = anisotropic_exponents(p, r)
    assert [x.hex() for x in got] == [x.hex() for x in want]


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


def test_predict_m1_sets_no_multilinear_regime():
    # p = (1.5,) meets every delta condition: 1 < p_m <= 2, |1/p| < 1, and
    # the one on p_1..p_{m-1} holds vacuously; only m = 1 keeps the regime off
    rep = predict(1, (1.5,), (1,))
    assert rep.flags == type(rep.flags)(False, False, False, False)
    assert rep.rho_hl is None and rep.m_less_hl is None
    assert rep.delta_chain is None and rep.per_index_delta_exponents is None
    assert rep.s_linear == linear_exponent(1, 1.5)
    # below p = 1 no exponent applies
    rep = predict(1, (0.5,), (1,))
    assert rep.s_linear is None
    assert rep.best_exponent() is None


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


# one (m, p, r) in each regime predict reports: case 1, case 2, alt, delta,
# linear (m = 1) and |1/p| > 1/2, where neither unified case applies
_REGIMES = [
    (3, (4.0, 4.0, 6.0), (1.0, 3.0, 3.0)),  # case 1 with a proper M_<^2
    (2, (INF, INF), (1.0, 4 / 3)),  # case 2 and alt
    (3, (6.0, 6.0, 6.0), (1.0, 2.0, 2.0)),  # p_j = 2m: both cases coincide
    (3, (INF, INF, 1.5), (1.0, 2.0, 0.5)),  # delta
    (1, (3.0,), (1.0,)),  # linear
    (1, (0.5,), (2.0,)),  # m = 1 below p = 1: no exponent at all
    (2, (1.5, 3.0), (1.0, 1.0)),  # |1/p| > 1/2
]

_P = st.sampled_from([INF, 0.5, 1.0, 1.05, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0])
_R = st.sampled_from([0.5, 1.0, 4 / 3, 1.5, 2.0, 3.0, 600.0, INF])


def _or_none(f, *args):
    """f(*args), or None where f rejects its regime."""
    try:
        return f(*args)
    except ValueError:
        return None


def _paper_cases(m, p, r):
    """(s_case1, s_case2) as the paper states them, None off their regimes.

    Case 1, every 2 <= p_j <= 2m, with M = M_<^2:
        max(sum_{j in M} 1/r_j + |1/p| - (|M| + 1)/2, 0).
    Case 2, |1/p| <= 1/2, with M = M_<^HL = {j : r_j < 2m/(m + 1 - 2|1/p|)}:
        0 if M is empty, max(|1/r| + |1/p| - (m + 1)/2, 0) if M is all of
        1..m, and max(sum_{j in M} 1/r_j - ((m + 1 - 2|1/p|)/(2m)) |M|, 0)
        otherwise.
    Plain sums, no shared helper: a reference for predict to 1e-12.
    """
    if m < 2:
        return None, None
    h = harmonic_sum(p)
    s1 = s2 = None
    if all(2.0 <= pj <= 2.0 * m for pj in p):
        less = [rj for rj in r if rj < 2.0]
        s1 = max(sum(1.0 / rj for rj in less) + h - (len(less) + 1) / 2, 0.0)
    if h <= 0.5:
        rho = 2.0 * m / (m + 1 - 2.0 * h)
        less = [rj for rj in r if rj < rho]
        if not less:
            s2 = 0.0
        elif len(less) == m:
            s2 = max(sum(1.0 / rj for rj in r) + h - (m + 1) / 2, 0.0)
        else:
            s2 = max(sum(1.0 / rj for rj in less) - (m + 1 - 2.0 * h) / (2.0 * m) * len(less), 0.0)
    return s1, s2


def _assert_cases_match_the_paper(rep, m, p, r):
    got, want = (rep.s_case1, rep.s_case2), _paper_cases(m, p, r)
    assert [x is None for x in got] == [x is None for x in want], (m, p, r, got, want)
    for g, w in zip(got, want):
        assert w is None or math.isclose(g, w, rel_tol=0.0, abs_tol=1e-12), (m, p, r, got, want)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_predict_fields_equal_the_public_helpers(data):
    if data.draw(st.booleans()):
        m, p, r = data.draw(st.sampled_from(_REGIMES))
    else:
        m = data.draw(st.integers(1, 4))
        p = tuple(data.draw(_P) for _ in range(m))
        r = tuple(data.draw(_R) for _ in range(m))
    rep = predict(m, p, r)
    m2 = m_less_set(2.0, r)
    want = {"harmonic_sum": harmonic_sum(p), "m_less_2": m2}
    if m == 1:
        want.update(rho_hl=None, m_less_hl=None, s_alt=None,
                    s_linear=_or_none(linear_exponent, r[0], p[0]), delta_chain=None,
                    per_index_delta_exponents=None, subcritical=False)
    else:
        rho = rho_hl(m, p)
        uni = unified_exponent(m, p, r)
        assert (uni.s_case1, uni.s_case2) == (rep.s_case1, rep.s_case2)
        per_index = _or_none(anisotropic_exponents, p, r)
        want.update(
            rho_hl=rho,
            m_less_hl=None if rho is None else m_less_set(rho, r),
            s_alt=_or_none(alt_exponent, m, p, r),
            s_linear=None,
            delta_chain=None if per_index is None else delta_chain(p),
            per_index_delta_exponents=per_index,
            subcritical=bool(_or_none(ghl_admissible, r, p)),
        )
    lower = None
    if rep.s_case1 is not None and 0 < len(m2) < m:
        terms = [1.0 / v[j - 1] for v in (r, p) for j in m2]
        lower = max(math.fsum([*terms, -(len(m2) + 1.0) / 2.0]), 0.0)
    want["s_case1_lower"] = lower
    got = {key: getattr(rep.flags if key == "subcritical" else rep, key) for key in want}
    assert repr(got) == repr(want)
    _assert_cases_match_the_paper(rep, m, p, r)


def test_unified_cases_match_the_paper_on_a_grid():
    # p common to all slots or with its last slot changed, r_1 then a
    # common rest; the grid reaches every branch of both cases
    branches = set()
    for m in (2, 3, 4):
        for pj, last, rj, rest in itertools.product(
            (INF, 8.0, 6.0, 4.0, 3.0, 2.0, 1.5), (None, 2.0, 8.0),
            (1.0, 4 / 3, 1.5, 2.0, 3.0, INF), (None, 1.0, 2.0, 3.0),
        ):
            p = (pj,) * (m - 1) + (pj if last is None else last,)
            r = (rj,) + (rj if rest is None else rest,) * (m - 1)
            rep = predict(m, p, r)
            _assert_cases_match_the_paper(rep, m, p, r)
            if rep.s_case1 is not None:
                branches.add(("case1", min(len(rep.m_less_2), 1) + (len(rep.m_less_2) == m)))
            if rep.s_case2 is not None:
                branches.add(("case2", min(len(rep.m_less_hl), 1) + (len(rep.m_less_hl) == m)))
    assert branches == {(case, k) for case in ("case1", "case2") for k in (0, 1, 2)}


def test_the_regime_examples_cover_every_regime():
    reports = [predict(*mpr) for mpr in _REGIMES]
    assert any(rep.s_case1_lower is not None for rep in reports)
    assert any(rep.s_case2 is not None for rep in reports)
    assert any(rep.s_alt is not None for rep in reports)
    assert any(rep.flags.delta_applies for rep in reports)
    assert any(rep.s_linear is not None for rep in reports)
    assert any(rep.best_exponent() is None for rep in reports)
    assert any(rep.harmonic_sum > 0.5 and rep.m > 1 for rep in reports)


def test_predict_validates_each_vector_once(monkeypatch):
    calls = []
    real = exponents.as_exponent_vector

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(exponents, "as_exponent_vector", spy)
    for m, p, r in _REGIMES:
        calls.clear()
        predict(m, p, r)
        assert [name for *_, name in calls] == ["p", "r"]


@pytest.mark.parametrize(
    "v, message",
    [
        ((2.0, math.nan, 3.0), "r[1] must lie in (0, inf], got nan"),
        ((2.0, 0, 3.0), "r[1] must lie in (0, inf], got 0"),
        ((2.0, -1, 3.0), "r[1] must lie in (0, inf], got -1"),
        ((2.0, None, 3.0), "r must be a sequence of exponents"),
        ((2.0, "abc", 3.0), "r[1] must lie in (0, inf], got 'abc'"),
        # the first bad entry decides
        ((0, None), "r[0] must lie in (0, inf], got 0"),
        ((None, 0), "r must be a sequence of exponents"),
        (("abc", math.nan), "r[0] must lie in (0, inf], got 'abc'"),
        ((), "r must have length >= 1"),
        (5, "r must be a sequence of exponents"),
    ],
)
def test_exponent_vector_messages(v, message):
    with pytest.raises(ValueError) as e:
        as_exponent_vector(v, name="r")
    assert str(e.value) == message


def test_a_non_numeric_exponent_is_named_with_its_range():
    with pytest.raises(ValueError, match=r"^p must lie in \(0, inf\], got 'x'$"):
        lp_norm(np.ones(3), "x")
    with pytest.raises(ValueError, match=r"^r\[1\] must lie in \(0, inf\], got 'x'$"):
        mixed_norm(np.ones((2, 2)), (1, "x"))


@pytest.mark.parametrize("v", ["12", b"12", "inf", b""], ids=["str", "bytes", "inf", "empty"])
def test_exponent_vector_rejects_str_and_bytes(v):
    with pytest.raises(ValueError, match="^r must be a sequence of exponents$"):
        as_exponent_vector(v, name="r")
    with pytest.raises(ValueError, match="^r must be a sequence of exponents$"):
        mixed_norm(np.ones((2, 2)), v)


def test_exponent_vector_reads_any_iterable_of_numbers():
    assert as_exponent_vector(iter([1, "2", np.float32(0.5)]), 3) == (1.0, 2.0, 0.5)
    assert as_exponent_vector(np.array([INF, 4.0])) == (INF, 4.0)
    with pytest.raises(ValueError, match=r"^p has length 2, expected m=3$"):
        as_exponent_vector([1.0, 2.0], 3)


@pytest.mark.parametrize(
    "f, args, message",
    [
        pytest.param(classical_exponents, (0, (2.0,)), "m must be >= 1", id="classical"),
        pytest.param(rho_hl, (0, (2.0,)), "m must be >= 1", id="rho_hl"),
        pytest.param(predict, (0, (2.0,), (1.0,)), "m must be >= 1", id="predict"),
        pytest.param(unified_exponent, (1, (2.0,), (1.0,)), "m must be >= 2", id="unified"),
        pytest.param(archiv_exponent, (1, 1.0, (2.0,)), "m must be >= 2", id="archiv"),
        pytest.param(alt_exponent, (1, (INF,), (1.0,)), "m must be >= 2", id="alt"),
        pytest.param(
            lemma_lift, ((3.0, 1.0), (INF, INF)), "requires r in (0,2]^m, got r = (3.0, 1.0)",
            id="lemma_lift",
        ),
    ],
)
def test_input_checks_name_their_rule(f, args, message):
    with pytest.raises(ValueError) as e:
        f(*args)
    assert str(e.value) == message
