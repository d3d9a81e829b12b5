"""Growth experiment tests: frozen rows, fits, serialization, determinism."""

import dataclasses
import json
import math
import time
import types
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedsums.growth as growth_module
from mixedsums import (
    INF,
    ExperimentConfig,
    GrowthRow,
    GrowthSeries,
    MultilinearForm,
    alternating_ascent,
    brute_force_norm,
    bundled_suite,
    compare,
    config_from_obj,
    config_to_obj,
    form_to_obj,
    ksz_random_form,
    loglog_fit,
    make_form,
    mixed_norm,
    predict,
    product_extension,
    report_obj,
    run_growth,
    series_to_csv,
)
from mixedsums import _rng
from mixedsums._rng import derive_seed
from mixedsums.forms import ksz_bound_exponent


def _cfg(**kw):
    base = dict(
        family="diagonal",
        m=2,
        p=(4.0, 4.0),
        r=(1.0, 1.0),
        n_values=(2, 4, 8),
        norm_method="analytic",
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(n_values=(2, 4))  # too short
    with pytest.raises(ValueError):
        _cfg(n_values=(2, 4, 4))  # not strictly increasing
    with pytest.raises(ValueError):
        _cfg(family="mystery")
    with pytest.raises(ValueError):
        _cfg(norm_method="magic")
    with pytest.raises(ValueError):
        _cfg(draws=0)
    with pytest.raises(ValueError):
        _cfg(family="row", m=3, p=(2, 2, 2), r=(1, 1, 1))
    with pytest.raises(ValueError):
        _cfg(family="product_extension", norm_method="ascent")  # k missing
    with pytest.raises(ValueError):
        _cfg(family="ksz", norm_method="analytic")
    with pytest.raises(ValueError):
        _cfg(family="ksz", norm_method="brute")  # finite p
    with pytest.raises(ValueError):
        _cfg(family="custom-file")  # form_file missing
    with pytest.raises(ValueError, match="^paper_bound has no closed form for custom files$"):
        _cfg(family="custom-file", form_file="forms.json", norm_method="paper_bound")
    with pytest.raises(ValueError, match="^restarts must be >= 1$"):
        _cfg(restarts=0)
    with pytest.raises(ValueError, match="^a config must be a JSON object$"):
        config_from_obj([1])


def test_row_family_closed_form_ratios():
    cfg = ExperimentConfig(
        family="row",
        m=2,
        p=(INF, 2.0),
        r=(1.0, 1.0),
        n_values=(2, 4, 8, 16),
        norm_method="analytic",
    )
    series = run_growth(cfg)
    for row in series.rows:
        assert row.lhs == pytest.approx(row.n, rel=1e-12)
        assert row.norm == pytest.approx(math.sqrt(row.n), rel=1e-12)
        assert row.ratio == pytest.approx(math.sqrt(row.n), rel=1e-12)
        assert row.norm_kind == "exact"
        assert row.draws_used == 0
    fit = loglog_fit(series, mode="upper_bound")
    assert fit.slope == pytest.approx(0.5, abs=1e-9)
    assert fit.r_squared > 0.999999
    assert fit.verdict == "consistent"


def test_diagonal_sup_family_is_flat():
    cfg = _cfg(p=(INF, INF))
    series = run_growth(cfg)
    assert all(row.ratio == pytest.approx(1.0, rel=1e-12) for row in series.rows)
    fit = loglog_fit(series, mode="upper_bound")
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0
    assert fit.verdict == "consistent"
    # demanding an exact match against the predicted 0.5 must fail
    assert compare(fit, "match") == "inconsistent"


def test_ksz_frozen_rows():
    cfg = ExperimentConfig(
        family="ksz",
        m=2,
        p=(INF, INF),
        r=(1.0, 1.0),
        n_values=(2, 3, 4),
        norm_method="brute",
        draws=5,
        seed=3,
    )
    series = run_growth(cfg)
    got = [(row.n, row.lhs, row.norm, row.ratio) for row in series.rows]
    assert got == [
        (2, 4.0, 4.0, 1.0),
        (3, 9.0, 7.0, 1.2857142857142858),
        (4, 16.0, 10.0, 1.6),
    ]
    assert all(row.norm_kind == "exact" for row in series.rows)
    assert all(row.draws_used == 5 for row in series.rows)


def test_ksz_keeps_largest_norm_draw():
    cfg = ExperimentConfig(
        family="ksz",
        m=2,
        p=(INF, INF),
        r=(1.0, 1.0),
        n_values=(2, 3, 4),
        norm_method="brute",
        draws=5,
        seed=3,
    )
    series = run_growth(cfg)
    for row in series.rows:
        norms = [
            brute_force_norm(_draw(cfg, row.n, d)).value
            for d in range(cfg.draws)
        ]
        assert row.norm == max(norms)


def _base_draw(cfg, n, d):
    """The k-linear sign form (k = m for ksz) of draw d at size n,
    regenerated on its own: the words [d*N, (d+1)*N) of the row's stream
    (seed, n), N = n^k, one sign from each word's top bit."""
    k = cfg.k or cfg.m
    size = n**k
    bits = _rng.stream(cfg.seed, n).bit_generator
    bits.advance(d * size)
    signs = 1.0 - 2.0 * (bits.random_raw(size) >> np.uint64(63))
    return MultilinearForm(signs.reshape((n,) * k), cfg.p[:k], kind="ksz")


def _draw(cfg, n, d):
    """Draw d at size n as an m-linear form: a product_extension extends its base."""
    base = _base_draw(cfg, n, d)
    return base if cfg.family == "ksz" else product_extension(base, cfg.m, cfg.p[base.arity:])


def _per_draw_norm(cfg, n, d, form):
    """The norm of draw d at size n, estimated on its own."""
    if cfg.norm_method == "brute":
        return brute_force_norm(form).value
    return alternating_ascent(form, cfg.restarts, derive_seed(cfg.seed, n, d, 1), cfg.tol).value


def _per_draw_rows(cfg):
    """The rows of a brute or ascent experiment built one form and one norm
    call per draw: the largest value wins, the first draw on ties. brute
    scans the whole m-linear draw; ascent runs on the draw's k-linear base
    (k = m for ksz), whose iterates an extension's pinned slots would move
    in the last bit; lhs reads the whole draw."""
    rows = []
    for n in cfg.n_values:
        best = None
        for d in range(cfg.draws):
            form = _draw(cfg, n, d)
            base = _base_draw(cfg, n, d) if cfg.norm_method == "ascent" else form
            value = _per_draw_norm(cfg, n, d, base)
            if best is None or value > best[0]:
                best = (value, form)
        value, form = best
        lhs = mixed_norm(form.coefficients, cfg.r).value
        kind = "exact" if cfg.norm_method == "brute" else "lower_bound"
        rows.append(GrowthRow(n, lhs, value, kind, lhs / value, cfg.draws))
    return tuple(rows)


_SHAPES = st.sampled_from(
    [("ksz", 1, None), ("ksz", 2, None), ("ksz", 3, None),
     ("product_extension", 2, 1), ("product_extension", 3, 1),
     ("product_extension", 3, 2)]
)
# seeds of one word, of two (2**32 and the masked negatives) and past 64
# bits, which the stream key masks to 64 as derive_seed does
_DRAW_SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 2**32, 2**63 + 5, -3]),
    st.integers(-(2**70), 2**70),
)


@settings(max_examples=20, deadline=None)
@given(
    shape=_SHAPES,
    draws=st.integers(1, 12),
    seed=_DRAW_SEEDS,
    cap=st.sampled_from([None, 1, 40]),
)
def test_stacked_brute_rows_match_per_draw_rows(shape, draws, seed, cap):
    family, m, k = shape
    cfg = ExperimentConfig(
        family=family, m=m, k=k, p=(INF,) * m, r=(1.0,) + (2.0,) * (m - 1),
        n_values=(2, 3, 5), norm_method="brute", draws=draws, seed=seed,
    )
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:  # several chunks a row
            mp.setattr(growth_module, "_STACK_ENTRIES", cap)
        rows = run_growth(cfg).rows
    assert rows == _per_draw_rows(cfg)


@settings(max_examples=15, deadline=None)
@given(
    shape=_SHAPES,
    p=st.sampled_from([1.0, 4.0, INF]),
    draws=st.integers(1, 5),
    seed=_DRAW_SEEDS,
    cap=st.sampled_from([None, 1, 40]),
)
def test_stacked_ascent_rows_match_per_draw_rows(shape, p, draws, seed, cap):
    family, m, k = shape
    cfg = ExperimentConfig(
        family=family, m=m, k=k, p=(p,) + (4.0,) * (m - 1), r=(1.0,) + (2.0,) * (m - 1),
        n_values=(2, 3, 5), norm_method="ascent", restarts=3, draws=draws, seed=seed,
    )
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:  # several chunks a row
            mp.setattr(growth_module, "_STACK_ENTRIES", cap)
        rows = run_growth(cfg).rows
    assert rows == _per_draw_rows(cfg)


_KSZ_TIES = {
    method: ExperimentConfig(
        family="ksz", m=2, p=(INF, INF), r=(1.0, 1.0), n_values=(2, 3, 4),
        norm_method=method, restarts=4, draws=2,
    )
    for method in ("brute", "ascent")
}


class _Words:
    """A bit source whose random_raw hands out given words in order."""

    def __init__(self, words):
        self.words, self.at = words, 0

    def random_raw(self, shape):
        size = math.prod(shape)
        self.at += size
        return self.words[self.at - size : self.at].reshape(shape).copy()


def _crafted_stream(monkeypatch, draws):
    """Make every row's stream yield the sign arrays `draws`, one after another."""
    words = np.concatenate([np.where(a < 0, 1 << 63, 0).astype(np.uint64).ravel() for a in draws])

    def stream(seed, *key):
        return types.SimpleNamespace(bit_generator=_Words(words))

    monkeypatch.setattr(growth_module._rng, "stream", stream)


def _ties():
    """(values, top, low, losers) of 40 seeded 4 x 4 sign forms: their norms,
    the forms of the largest norm, one of the least and five others.
    Built through make_form, before any test replaces the stream."""
    forms = [make_form("ksz", 2, 4, (INF, INF), s) for s in range(40)]
    values = [brute_force_norm(f).value for f in forms]
    top = [f for f, v in zip(forms, values) if v == max(values)]
    assert len(top) >= 2  # distinct draws that tie for the largest norm
    losers = [f for f, v in zip(forms, values) if v < max(values)][:5]
    return values, top, forms[values.index(min(values))], losers


def _check_ties_go_to_the_first_draw(monkeypatch, method, cap):
    cfg = _KSZ_TIES[method]
    if cap is not None:
        monkeypatch.setattr(growth_module, "_STACK_ENTRIES", cap)
    values, top, low, losers = _ties()
    for first, *rest in (top, top[::-1]):
        # copies of the winner and the loser, before and after the winner,
        # then the other draws of the same value last; draw 3 is the first
        # of the largest norm
        row = losers[:2] + [low, first, low] + losers[2:] + [first, low] * 3 + rest
        # every draw estimated on its own: ascent ties where brute does
        estimates = [_per_draw_norm(cfg, 4, d, f) for d, f in enumerate(row)]
        assert max(estimates) == max(values) and estimates.count(max(values)) >= 2
        _crafted_stream(monkeypatch, [f.coefficients for f in row])
        got = growth_module._best_draw(dataclasses.replace(cfg, draws=len(row)), 4)
        kind = "exact" if method == "brute" else "lower_bound"
        assert got == (max(values), kind, 3)


@pytest.mark.parametrize("cap", [None, 1, 16, 40])
def test_stacked_brute_ties_go_to_the_first_draw(monkeypatch, cap):
    _check_ties_go_to_the_first_draw(monkeypatch, "brute", cap)


@pytest.mark.parametrize("cap", [None, 1, 16, 40])
def test_stacked_ascent_ties_go_to_the_first_draw(monkeypatch, cap):
    _check_ties_go_to_the_first_draw(monkeypatch, "ascent", cap)


@pytest.mark.parametrize("method", ["brute", "ascent"])
def test_rows_do_not_depend_on_the_stack_size(monkeypatch, method):
    # stacks of 1, 2 or 3 draws, and the default, which holds all 7
    cfg = dataclasses.replace(_KSZ_TIES[method], n_values=(2, 3, 4, 5), draws=7, seed=11)
    want = [growth_module._best_draw(cfg, n) for n in cfg.n_values]
    assert run_growth(cfg).rows == tuple(
        GrowthRow(n, float(n * n), value, kind, n * n / value, cfg.draws)
        for n, (value, kind, _) in zip(cfg.n_values, want)
    )
    for per in (1, 2, 3):
        for n, best in zip(cfg.n_values, want):
            monkeypatch.setattr(growth_module, "_STACK_ENTRIES", per * n * n)
            assert growth_module._best_draw(cfg, n) == best
    # two distinct draws tie for the largest norm: with stacks of 1 or 2
    # draws the second starts a stack, with 3 it shares the first's
    values, (a, b, *_), low, _ = _ties()
    row = [low, a, b, low, b, a]
    estimates = [_per_draw_norm(cfg, 4, d, f) for d, f in enumerate(row)]
    assert estimates[1] == estimates[2] == max(estimates) == max(values)
    _crafted_stream(monkeypatch, [f.coefficients for f in row])
    cfg = dataclasses.replace(cfg, draws=len(row))
    for cap in (16, 32, 48, 2**16):
        monkeypatch.setattr(growth_module, "_STACK_ENTRIES", cap)
        assert growth_module._best_draw(cfg, 4)[2] == 1


@pytest.mark.parametrize("method", ["brute", "ascent"])
def test_drawn_rows_read_the_seed_masked_to_64_bits(method):
    cfg = dataclasses.replace(_KSZ_TIES[method], n_values=(2, 3, 8), draws=3, seed=-3)
    rows = run_growth(cfg).rows
    for seed in (2**64 - 3, 2**65 - 3):
        assert run_growth(dataclasses.replace(cfg, seed=seed)).rows == rows
    assert run_growth(dataclasses.replace(cfg, seed=3)).rows != rows


def test_stacked_brute_scans_each_row_once(monkeypatch):
    calls, scan = [], growth_module.brute_force_scan

    def counting(stack):
        calls.append(len(stack))
        return scan(stack)

    monkeypatch.setattr(growth_module, "brute_force_scan", counting)
    cfg, _ = bundled_suite()[8]  # ksz, 50 draws at n = 2..10
    run_growth(cfg)
    assert calls == [50] * len(cfg.n_values)


def test_stacked_brute_past_the_budget_raises_the_per_form_error():
    cfg = ExperimentConfig(
        family="ksz", m=2, p=(INF, INF), r=(1.0, 1.0), n_values=(2, 3, 26),
        norm_method="brute", draws=3,
    )
    with pytest.raises(
        ValueError, match=r"^enumeration needs 33554432 sign patterns, budget is 16777216$"
    ):
        run_growth(cfg)


def test_stacked_brute_checks_the_scan_against_the_witness(monkeypatch):
    scan = growth_module.brute_force_scan

    def off_by_one(stack):
        d, idx, value = scan(stack)
        return d, idx, value + 1.0

    monkeypatch.setattr(growth_module, "brute_force_scan", off_by_one)
    cfg = ExperimentConfig(
        family="ksz", m=2, p=(INF, INF), r=(1.0, 1.0), n_values=(2, 3, 4),
        norm_method="brute", draws=3,
    )
    with pytest.raises(ArithmeticError, match="differs from its witness"):
        run_growth(cfg)


@pytest.mark.parametrize("draws", [1, 3])
def test_drawn_rows_hold_no_stack_while_the_winner_is_built(draws):
    # at n >= 257 one draw fills a stack; a row holds at most one stack, and
    # no second copy of a draw: the winner is its stack's slice, not rebuilt
    cfg = ExperimentConfig(
        family="ksz", m=2, p=(INF, INF), r=(1.0, 1.0), n_values=(280, 290, 300),
        norm_method="ascent", restarts=1, draws=draws,
    )
    run_growth(cfg)  # lazy imports on first use would count as held
    tracemalloc.start()
    try:
        run_growth(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * 300**2


_DRAWN_CONFIGS = [
    bundled_suite()[8][0],  # ksz, 50 draws at n = 2..10
    ExperimentConfig(
        family="product_extension", m=3, k=1, p=(4.0, INF, 2.0), r=(1.0, 2.0, 2.0),
        n_values=(2, 3, 4), norm_method="ascent", restarts=3, draws=4,
    ),
    ExperimentConfig(
        family="ksz", m=2, p=(INF, INF), r=(1.0, 1.0), n_values=(2, 3, 4),
        norm_method="brute", draws=1,
    ),
    ExperimentConfig(
        family="ksz", m=2, p=(4.0, 4.0), r=(1.0, 2.0), n_values=(2, 3, 4),
        norm_method="ascent", restarts=3, draws=1,
    ),
]


def _check_builds_only_the_winners(monkeypatch, method):
    # no draw is rebuilt through make_form; brute builds one form a row for
    # its witness check, on its winning draw
    built, checked = [], []
    real_make, real_check = growth_module.make_form, growth_module.brute_force_estimate

    def making(*args, **kwargs):
        built.append(args)
        return real_make(*args, **kwargs)

    def checking(form, idx):
        checked.append(form.coefficients)
        return real_check(form, idx)

    monkeypatch.setattr(growth_module, "make_form", making)
    monkeypatch.setattr(growth_module, "brute_force_estimate", checking)
    for cfg in _DRAWN_CONFIGS:
        if cfg.norm_method == method:
            checked.clear()
            run_growth(cfg)
            if method == "brute":
                want = []
                for n in cfg.n_values:
                    norms = [brute_force_norm(_draw(cfg, n, d)).value for d in range(cfg.draws)]
                    want.append(_draw(cfg, n, norms.index(max(norms))).coefficients)
                assert len(checked) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(checked, want))
            else:
                assert checked == []
    assert built == []


def test_stacked_brute_builds_only_the_winners(monkeypatch):
    _check_builds_only_the_winners(monkeypatch, "brute")


def test_stacked_ascent_builds_only_the_winners(monkeypatch):
    _check_builds_only_the_winners(monkeypatch, "ascent")


@pytest.mark.parametrize("cfg", _DRAWN_CONFIGS, ids=lambda c: f"{c.norm_method}-draws{c.draws}")
def test_drawn_rows_seed_in_one_batch_per_experiment(monkeypatch, cfg):
    # one stream a row, keyed (seed, n), and one random_raw call a stack of
    # shape (draws, n, ..., n): every row here fits in _STACK_ENTRIES
    keys, sizes, real = [], [], growth_module._rng.stream

    class Counting:
        def __init__(self, bits):
            self.bits = bits

        def random_raw(self, size):
            sizes.append(size)
            return self.bits.random_raw(size)

    def counting(seed, *key):
        keys.append((seed, *key))
        return types.SimpleNamespace(bit_generator=Counting(real(seed, *key).bit_generator))

    monkeypatch.setattr(growth_module._rng, "stream", counting)
    run_growth(cfg)
    k = cfg.k or cfg.m
    assert keys == [(cfg.seed, n) for n in cfg.n_values]
    assert sizes == [(cfg.draws, *(n,) * k) for n in cfg.n_values]


def test_product_extension_lhs_growth():
    cfg = ExperimentConfig(
        family="product_extension",
        m=3,
        k=2,
        p=(INF, INF, INF),
        r=(1.0, 2.0, 2.0),
        n_values=(2, 4, 8),
        norm_method="brute",
        draws=2,
        seed=7,
    )
    series = run_growth(cfg)
    for row in series.rows:
        assert row.lhs == pytest.approx(row.n ** 1.5, rel=1e-9)


def test_loglog_fit_exact_power_law():
    cfg = _cfg()
    rows = tuple(
        GrowthRow(n, 0.0, 1.0, "analytic", 5.0 * n ** 0.75, 0) for n in (2, 4, 8)
    )
    fit = loglog_fit(GrowthSeries(config=cfg, rows=rows))
    assert fit.slope == pytest.approx(0.75, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.n_points == 3


def test_loglog_fit_too_few_points():
    cfg = _cfg(
        family="custom-file",
        form_file="unused.json",
        n_values=(),
        norm_method="ascent",
    )
    rows = (
        GrowthRow(2, 2.0, 1.0, "exact", 2.0, 0),
        GrowthRow(4, 4.0, 1.0, "exact", 4.0, 0),
    )
    fit = loglog_fit(GrowthSeries(config=cfg, rows=rows))
    assert math.isnan(fit.slope)
    assert fit.verdict == "inconclusive"
    assert fit.n_points == 2


def test_loglog_fit_rejects_nonpositive_ratio():
    cfg = _cfg()
    rows = (
        GrowthRow(2, 0.0, 1.0, "analytic", 0.0, 0),
        GrowthRow(4, 4.0, 1.0, "analytic", 4.0, 0),
        GrowthRow(8, 8.0, 1.0, "analytic", 8.0, 0),
    )
    with pytest.raises(ValueError):
        loglog_fit(GrowthSeries(config=cfg, rows=rows))


def test_loglog_fit_rejects_non_finite_ratio():
    cfg = _cfg()
    rows = (
        GrowthRow(2, 2.0, 1.0, "analytic", 2.0, 0),
        GrowthRow(4, math.inf, 1.0, "analytic", math.inf, 0),
        GrowthRow(8, 8.0, 1.0, "analytic", 8.0, 0),
        GrowthRow(16, math.nan, 1.0, "analytic", math.nan, 0),
    )
    with pytest.raises(ValueError, match=r"n = \[4, 16\]"):
        loglog_fit(GrowthSeries(config=cfg, rows=rows))


def test_loglog_fit_low_r_squared_is_inconclusive():
    cfg = _cfg()
    g = np.random.Generator(np.random.PCG64(40))
    rows = tuple(
        GrowthRow(n, 1.0, 1.0, "analytic", float(np.exp(g.standard_normal())), 0)
        for n in (2, 3, 4, 5, 6, 7, 8, 9)
    )
    fit = loglog_fit(GrowthSeries(config=cfg, rows=rows))
    assert fit.r_squared < 0.9
    assert fit.verdict == "inconclusive"


def test_compare_modes_and_tolerance():
    cfg = _cfg()  # predicted best exponent is 1.0
    rows = tuple(
        GrowthRow(n, 0.0, 1.0, "analytic", n ** 0.75, 0) for n in (2, 4, 8, 16)
    )
    fit = loglog_fit(GrowthSeries(config=cfg, rows=rows), mode="upper_bound")
    assert fit.verdict == "consistent"  # 0.75 <= 1.0 + 0.15
    assert compare(fit, "match") == "inconsistent"  # |0.75 - 1.0| > 0.15
    assert compare(fit, "match", tolerance=0.3) == "consistent"
    with pytest.raises(ValueError):
        compare(fit, "sideways")


@pytest.mark.parametrize("mode", ["match", "upper_bound"])
def test_compare_counts_a_slope_at_the_tolerance_as_consistent(mode):
    cfg = _cfg(p=(INF, INF))  # predicted best exponent is 0.5
    rows = tuple(GrowthRow(n, 0.0, 1.0, "analytic", n**0.5, 0) for n in (2, 4, 8))
    fit = loglog_fit(GrowthSeries(config=cfg, rows=rows))
    assert fit.predicted.best_exponent() == 0.5
    # binary-exact: 0.75 - 0.5 is the tolerance 0.25 itself
    assert compare(dataclasses.replace(fit, slope=0.75), mode, tolerance=0.25) == "consistent"


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_config_tol_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="^tol must be positive"):
        _cfg(tol=tol)


@pytest.mark.parametrize(
    "restarts, tol", [(0, 1e-10), (-2, 1e-10), (4, 0.0), (4, math.nan), (4, math.inf)]
)
def test_config_and_ascent_reject_ascent_settings_alike(restarts, tol):
    with pytest.raises(ValueError) as from_config:
        _cfg(restarts=restarts, tol=tol)
    with pytest.raises(ValueError) as from_ascent:
        alternating_ascent(make_form("diagonal", 2, 2, (2.0, 2.0), 0), restarts, tol=tol)
    assert str(from_config.value) == str(from_ascent.value)


@pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_a_negative_or_non_finite_tolerance_is_rejected_by_every_verdict(tolerance):
    cfg = _cfg()
    series = GrowthSeries(
        config=cfg, rows=tuple(GrowthRow(n, 0.0, 1.0, "analytic", n**0.5, 0) for n in (2, 4, 8))
    )
    message = "^tolerance must be finite and >= 0, got "
    with pytest.raises(ValueError, match=message):
        loglog_fit(series, tolerance=tolerance)
    fit = loglog_fit(series, tolerance=0.0)  # zero is a tolerance
    assert fit.verdict == "inconsistent"  # |0.5 - 1.0| > 0
    with pytest.raises(ValueError, match=message):
        compare(fit, "upper_bound", tolerance=tolerance)


def test_an_unknown_mode_is_rejected_by_every_verdict():
    cfg = _cfg()
    for ns in ((2, 4), (2, 4, 8, 16)):  # an inconclusive and a full fit
        series = GrowthSeries(
            config=cfg, rows=tuple(GrowthRow(n, 0.0, 1.0, "analytic", n**0.5, 0) for n in ns)
        )
        with pytest.raises(ValueError, match="^unknown mode 'sideways'$"):
            loglog_fit(series, mode="sideways")
        with pytest.raises(ValueError, match="^unknown mode 'sideways'$"):
            compare(loglog_fit(series), "sideways")
    # a bad ratio is found before the mode is read
    bad = GrowthSeries(config=cfg, rows=(GrowthRow(2, 0.0, 1.0, "analytic", -1.0, 0),) * 3)
    with pytest.raises(ValueError, match="nonpositive ratio"):
        loglog_fit(bad, mode="sideways")


@pytest.mark.parametrize("family", ["ksz", "diagonal", "row"])
def test_config_rejects_k_outside_product_extension(family):
    with pytest.raises(ValueError, match="^k applies to the product_extension family only$"):
        _cfg(family=family, k=1, norm_method="paper_bound")
    assert _cfg(family=family, norm_method="paper_bound").k is None


@pytest.mark.parametrize("family", ["ksz", "diagonal", "row", "product_extension"])
def test_config_rejects_form_file_outside_custom_file(family):
    # no generated family reads the file, so a report would name it for nothing
    k = 1 if family == "product_extension" else None
    with pytest.raises(ValueError, match="^form_file applies to the custom-file family only$"):
        _cfg(family=family, k=k, form_file="forms.json", norm_method="paper_bound")


def test_paper_bound_method():
    series = run_growth(_cfg(norm_method="paper_bound"))
    for row in series.rows:
        assert row.norm == float(row.n) ** 0.5
        assert row.norm_kind == "paper_bound"
        assert row.draws_used == 0
    fit = loglog_fit(series, mode="upper_bound")
    assert fit.bound_relative

    cfg = ExperimentConfig(
        family="ksz",
        m=2,
        p=(INF, INF),
        r=(1.0, 1.0),
        n_values=(2, 4, 8),
        norm_method="paper_bound",
        seed=1,
    )
    for row in run_growth(cfg).rows:
        assert row.norm == float(row.n) ** 1.5


@pytest.mark.parametrize("family", ["ksz", "product_extension", "diagonal", "row"])
def test_paper_bound_builds_forms_only_for_closed_families(monkeypatch, family):
    # the closed families build the one form analytic_norm reads; the sign
    # families build none and draw nothing
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[2] if name == "make_form" else None))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(growth_module, "make_form")
    for name in ("sign_array", "stream", "derive_seed"):
        counting(growth_module._rng, name)
    cfg = ExperimentConfig(
        family=family, m=2, k=1 if family == "product_extension" else None,
        p=(INF, INF), r=(1.0, 1.0), n_values=(2, 3, 4),
        norm_method="paper_bound", draws=5,
    )
    rows = run_growth(cfg).rows
    if family in ("diagonal", "row"):
        assert calls == [("make_form", 2), ("make_form", 3), ("make_form", 4)]
    else:
        assert calls == []
    assert [row.draws_used for row in rows] == [0, 0, 0]


_R_ENTRIES = (0.4, 0.7, 1.0, 4 / 3, 2.0, 3.0, 600.0, 2000.0, INF)
_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(-(2**70), 2**70))


@st.composite
def _sign_family_configs(draw):
    m = draw(st.integers(1, 4))
    family = draw(st.sampled_from(["ksz", "product_extension"]))
    k = draw(st.integers(1, m)) if family == "product_extension" else None
    def vector(values):
        return draw(st.tuples(*[st.sampled_from(values)] * m))

    return ExperimentConfig(
        family=family, m=m, k=k, p=vector((1.0, 2.0, 4.0, INF)),
        r=vector(_R_ENTRIES), n_values=(1, 2, 5, 9),
        norm_method="paper_bound", draws=draw(st.integers(1, 4)), seed=draw(_SEEDS),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=_sign_family_configs(), other_seed=_SEEDS)
def test_paper_bound_rows_equal_rows_of_a_real_draw(cfg, other_seed):
    # the reference: draw 0 built through numpy, lhs from its coefficients
    lhs = [mixed_norm(_draw(cfg, n, 0).coefficients, cfg.r).value for n in cfg.n_values]
    k = cfg.m if cfg.family == "ksz" else cfg.k
    rows = []
    for n, value in zip(cfg.n_values, lhs):
        norm = float(n) ** ksz_bound_exponent(cfg.p[:k])
        rows.append(GrowthRow(n, value, norm, "paper_bound", value / norm, 0))
    got = run_growth(cfg).rows
    assert [row.lhs.hex() for row in got] == [row.lhs.hex() for row in rows]
    assert got == tuple(rows)
    assert run_growth(dataclasses.replace(cfg, seed=other_seed)).rows == got
    # brute and ascent rows have the same lhs, whichever draw wins
    for method, p in (("brute", (INF,) * cfg.m), ("ascent", cfg.p)):
        drawn = dataclasses.replace(
            cfg, p=p, n_values=cfg.n_values[:3], norm_method=method, restarts=1
        )
        assert [row.lhs.hex() for row in run_growth(drawn).rows] == [x.hex() for x in lhs[:3]]


def test_product_extension_paper_bound_builds_no_extension():
    # an n^3 extension would take 512 GiB at n = 4096; the lhs of the base
    # reads n entries
    cfg = ExperimentConfig(
        family="product_extension", m=3, k=1, p=(INF,) * 3, r=(4 / 3, 3.0, INF),
        n_values=(1024, 2048, 4096), norm_method="paper_bound",
    )
    run_growth(cfg)  # lazy imports on first use would count
    start = time.perf_counter()
    rows = run_growth(cfg).rows
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        run_growth(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = [mixed_norm(np.ones(n), cfg.r[:1]).value for n in cfg.n_values]
    assert [row.lhs for row in rows] == want
    assert elapsed < 0.05 and peak < 2**20


def test_csv_round_trip():
    cfg = ExperimentConfig(
        family="ksz",
        m=2,
        p=(INF, INF),
        r=(4 / 3, 4 / 3),
        n_values=(2, 3, 4),
        norm_method="ascent",
        restarts=4,
        draws=2,
        seed=5,
    )
    series = run_growth(cfg)
    text = series_to_csv(series)
    lines = text.strip().split("\n")
    assert lines[0] == "n,lhs,norm,norm_kind,ratio,draws_used"
    assert len(lines) == 4
    for line, row in zip(lines[1:], series.rows):
        n, lhs, norm, kind, ratio, used = line.split(",")
        assert int(n) == row.n
        assert float(lhs) == row.lhs  # repr floats round-trip bit-exact
        assert float(norm) == row.norm
        assert kind == row.norm_kind
        assert float(ratio) == row.ratio
        assert int(used) == row.draws_used


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        family="product_extension",
        m=3,
        k=2,
        p=(INF, 4.0, 2.0),
        r=(1.0, 2.0, 2.0),
        n_values=(2, 4, 8),
        norm_method="ascent",
        restarts=16,
        seed=9,
        draws=3,
    )
    obj = json.loads(json.dumps(config_to_obj(cfg)))
    assert obj["p"] == ["inf", 4.0, 2.0]
    back = config_from_obj(obj)
    assert back == cfg
    with pytest.raises(ValueError):
        config_from_obj({"family": "ksz", "m": 2, "p": [2, 2]})  # r missing


def test_custom_file_family(tmp_path):
    forms = []
    for n in (2, 3):
        form, _ = ksz_random_form(2, n, (INF, INF), seed=20 + n)
        forms.append(form_to_obj(form))
    path = tmp_path / "forms.json"
    path.write_text(json.dumps(forms))
    cfg = ExperimentConfig(
        family="custom-file",
        m=2,
        p=(INF, INF),
        r=(1.0, 1.0),
        norm_method="brute",
        form_file=str(path),
    )
    series = run_growth(cfg)
    assert [row.n for row in series.rows] == [2, 3]
    for row, obj in zip(series.rows, forms):
        direct, _ = ksz_random_form(2, row.n, (INF, INF), seed=20 + row.n)
        assert row.norm == brute_force_norm(direct).value
        assert row.draws_used == 0

    # a single form object (not a list) is accepted too
    single = tmp_path / "one.json"
    single.write_text(json.dumps(forms[0]))
    series = run_growth(
        ExperimentConfig(
            family="custom-file",
            m=2,
            p=(INF, INF),
            r=(1.0, 1.0),
            norm_method="brute",
            form_file=str(single),
        )
    )
    assert len(series.rows) == 1


def test_custom_file_form_of_another_arity_is_an_error(tmp_path):
    form, _ = ksz_random_form(3, 2, (INF, INF, INF), seed=1)
    path = tmp_path / "forms.json"
    path.write_text(json.dumps([form_to_obj(form)]))
    cfg = ExperimentConfig(
        family="custom-file", m=2, p=(INF, INF), r=(1.0, 1.0),
        norm_method="brute", form_file=str(path),
    )
    with pytest.raises(ValueError, match="r has length 2, expected m=3"):
        run_growth(cfg)


def test_run_growth_deterministic_across_threads():
    cfg = ExperimentConfig(
        family="ksz",
        m=2,
        p=(INF, INF),
        r=(1.0, 1.0),
        n_values=(2, 3, 4, 5),
        norm_method="ascent",
        restarts=6,
        draws=3,
        seed=17,
    )
    # all work runs in the calling thread; two runs give the same bytes
    s1 = run_growth(cfg)
    s2 = run_growth(cfg)
    assert series_to_csv(s1) == series_to_csv(s2)
    f1 = loglog_fit(s1, mode="match")
    f2 = loglog_fit(s2, mode="match")
    assert json.dumps(report_obj(s1, f1)) == json.dumps(report_obj(s2, f2))


def test_report_obj_structure():
    series = run_growth(_cfg())
    fit = loglog_fit(series, mode="upper_bound")
    obj = json.loads(json.dumps(report_obj(series, fit)))
    assert set(obj) == {"config", "rows", "fit", "predicted"}
    assert obj["fit"]["verdict"] in ("consistent", "inconsistent", "inconclusive")
    assert obj["fit"]["predicted_exponent"] == 1.0
    assert len(obj["rows"]) == 3
    assert obj["predicted"]["s_case1"] == 1.0


def test_bundled_suite_shape():
    suite = bundled_suite()
    assert len(suite) >= 8
    assert all(mode in ("match", "upper_bound") for _, mode in suite)
    families = {cfg.family for cfg, _ in suite}
    assert {"ksz", "diagonal", "row", "product_extension"} <= families
    match_entries = [cfg for cfg, mode in suite if mode == "match"]
    assert any(cfg.family == "ksz" for cfg in match_entries)

@pytest.mark.parametrize("p2", [3.0, 5.0, 4.0 / 3.0])
def test_row_paper_bound_is_the_analytic_norm(p2):
    from mixedsums import analytic_norm, row_form

    cfg = ExperimentConfig(
        family="row", m=2, p=(INF, p2), r=(1.0, 1.0),
        n_values=(2, 3, 5, 8, 16, 27, 64), norm_method="paper_bound",
    )
    for row in run_growth(cfg).rows:
        expected = analytic_norm(row_form(row.n, row.n, cfg.p)).value
        assert row.norm.hex() == expected.hex()


def test_make_form_matches_family_builders():
    from mixedsums import diagonal_form, make_form, product_extension, row_form

    p3 = (INF, 4.0, 2.0)
    ksz, _ = ksz_random_form(3, 4, p3, seed=12)
    phases, _ = ksz_random_form(2, 3, (3.0, INF), seed=5, complex_phases=True)
    base, _ = ksz_random_form(2, 4, p3[:2], seed=12)
    cases = [
        (make_form("ksz", 3, 4, p3, 12), ksz),
        (make_form("ksz", 2, 3, (3.0, INF), 5, complex_phases=True), phases),
        (make_form("diagonal", 3, 4, p3, 12), diagonal_form(3, 4, p3)),
        (make_form("row", 2, 4, (INF, 3.0), 12), row_form(4, 4, (INF, 3.0))),
        (make_form("row", 2, 3, (2.0, 2.0), 0, n2=7), row_form(3, 7, (2.0, 2.0))),
        (
            make_form("product_extension", 3, 4, p3, 12, k=2),
            product_extension(base, 3, p3[2:]),
        ),
    ]
    for got, want in cases:
        assert got.kind == want.kind and got.p == want.p and got.seed == want.seed
        assert got.coefficients.dtype == want.coefficients.dtype
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
    with pytest.raises(ValueError, match="requires k"):
        make_form("product_extension", 3, 4, p3, 12)
    with pytest.raises(ValueError, match="custom-file"):
        make_form("custom-file", 2, 4, (INF, INF), 0)


@pytest.mark.parametrize(
    "family, m, p, options, message",
    [
        ("row", 3, (INF, 2.0), {}, "row family requires m = 2"),
        ("ksz", 2, (INF, INF), {"n2": 5}, "n2 applies to the row family only"),
        ("diagonal", 2, (2.0, 2.0), {"n2": 5}, "n2 applies to the row family only"),
        ("diagonal", 2, (2.0, 2.0), {"k": 1}, "k applies to the product_extension family only"),
        ("ksz", 2, (INF, INF), {"k": 2}, "k applies to the product_extension family only"),
        ("diagonal", 2, (2.0, 2.0), {"complex_phases": True},
         "complex_phases applies to the ksz family only"),
        ("product_extension", 3, (INF,) * 3, {"k": 2, "complex_phases": True},
         "complex_phases applies to the ksz family only"),
        # n2 = 0 is given, not the default n: a row form with no columns
        ("row", 2, (INF, 2.0), {"n2": 0}, "n1 and n2 must be >= 1"),
    ],
)
def test_make_form_refuses_options_its_family_ignores(family, m, p, options, message):
    # a form built without the option would not be the form asked for
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_form(family, m, 4, p, 0, **options)


def test_estimate_norm_dispatches_to_each_estimator():
    from mixedsums import (
        alternating_ascent,
        analytic_norm,
        estimate_norm,
        estimate_to_obj,
        row_form,
    )

    def same(a, b):
        return estimate_to_obj(a) == estimate_to_obj(b)

    form, _ = ksz_random_form(2, 5, (INF, INF), seed=3)
    assert same(estimate_norm(form, "brute"), brute_force_norm(form))
    assert same(
        estimate_norm(form, "ascent", restarts=3, seed=4, tol=1e-6, max_iters=5),
        alternating_ascent(form, restarts=3, seed=4, tol=1e-6, max_iters=5),
    )
    row = row_form(3, 5, (INF, 3.0))
    assert same(estimate_norm(row, "analytic"), analytic_norm(row))
    with pytest.raises(ValueError, match="budget is 15"):
        estimate_norm(form, "brute", budget=15)
    with pytest.raises(ValueError, match="no analytic norm for form kind 'ksz'"):
        estimate_norm(form, "analytic")
    with pytest.raises(ValueError, match="unknown norm method"):
        estimate_norm(form, "paper_bound")


@pytest.mark.parametrize(
    "field, value",
    [
        ("p", "44"),
        ("r", "11"),
        ("n_values", "2345"),
        ("n_values", 8),
        ("n_values", [2, 3.5, 4]),
        ("m", 2.9),
        ("m", "2"),
        ("restarts", 3.7),
        ("draws", True),
        ("seed", "0"),
        ("k", 1.5),
    ],
)
def test_config_from_obj_rejects_misread_fields(field, value):
    obj = {
        "family": "product_extension", "m": 2, "k": 1, "p": [4, 4], "r": [1, 1],
        "n_values": [2, 3, 4], "norm_method": "ascent",
    }
    config_from_obj(obj)
    obj[field] = value
    with pytest.raises(ValueError, match=f"field '{field}'"):
        config_from_obj(obj)


def test_config_from_obj_accepts_tuples_and_integral_floats():
    cfg = config_from_obj(
        {"family": "ksz", "m": 2.0, "p": (INF, INF), "r": (1.0, 1.0),
         "n_values": (2, 3.0, 4), "restarts": 8.0, "seed": 3, "draws": 2}
    )
    assert cfg == ExperimentConfig(
        family="ksz", m=2, p=(INF, INF), r=(1.0, 1.0), n_values=(2, 3, 4),
        restarts=8, seed=3, draws=2,
    )


def test_product_extension_brute_scans_the_base_within_the_default_budget():
    # the m-linear extension at n = 14 has 2**26 sign patterns, past the
    # default budget of 2**24; its base has 2**13
    cfg = ExperimentConfig(
        family="product_extension", m=3, k=2, p=(INF,) * 3, r=(1.0, 2.0, 2.0),
        n_values=(14, 20, 24), norm_method="brute",
    )
    for row in run_growth(cfg).rows:
        base = _base_draw(cfg, row.n, 0)
        assert (row.norm, row.norm_kind) == (brute_force_norm(base).value, "exact")


@pytest.mark.parametrize(
    "family, m, k",
    [("ksz", 2, None), ("ksz", 3, None), ("product_extension", 3, 1),
     ("product_extension", 3, 2), ("product_extension", 4, 2)],
)
def test_stacked_brute_scans_only_k_linear_bases(monkeypatch, family, m, k):
    shapes, scan = [], growth_module.brute_force_scan

    def recording(stack):
        shapes.append(stack.shape)
        return scan(stack)

    monkeypatch.setattr(growth_module, "brute_force_scan", recording)
    cfg = ExperimentConfig(
        family=family, m=m, k=k, p=(INF,) * m, r=(1.0,) * m, n_values=(2, 3, 4),
        norm_method="brute", draws=3,
    )
    run_growth(cfg)
    base = m if k is None else k
    assert shapes == [(3,) + (n,) * base for n in cfg.n_values]  # k + 1 axes each


_MIXED_TAIL = dict(
    family="product_extension", m=3, k=2, p=(INF, INF, 4.0), r=(1.0, 2.0, 2.0),
    n_values=(2, 4, 6, 8, 10), draws=3, seed=5,
)


@pytest.mark.parametrize("method", ["brute", "ascent", "paper_bound"])
def test_product_extension_with_a_finite_tail_p_is_the_base_row(method):
    # a pinned slot of any p leaves the norm, and its fibers leave lhs, so
    # every row is the ksz m = 2 row at the same seed; ascent runs on the
    # base, so its p may be finite there too. run_growth computes both sides
    # through the base config, so this guards that mapping only; the brute
    # rows are checked against scans of the whole m-linear draws in
    # test_stacked_brute_rows_match_per_draw_rows
    p = (4.0, INF, 4.0) if method == "ascent" else _MIXED_TAIL["p"]
    cfg = dict(_MIXED_TAIL, p=p, norm_method=method, restarts=4)
    got = run_growth(ExperimentConfig(**cfg)).rows
    ksz = ExperimentConfig(**dict(cfg, family="ksz", m=2, k=None, p=p[:2], r=(1.0, 2.0)))
    want = run_growth(ksz).rows
    assert [(row.lhs.hex(), row.norm.hex()) for row in got] == [
        (row.lhs.hex(), row.norm.hex()) for row in want
    ]
    assert got == want
    if method != "brute":
        return
    # the first exact rows in a mixed-exponent regime
    report = predict(3, _MIXED_TAIL["p"], _MIXED_TAIL["r"])
    assert report.flags.case2_applies and report.optimality_open
    assert report.s_case2 == pytest.approx(5 / 12) and report.best_exponent() == 0.25
    with pytest.raises(ValueError, match=r"^brute norms require p_j = inf for j <= 2$"):
        ExperimentConfig(norm_method="brute", **dict(_MIXED_TAIL, p=(INF, 4.0, INF)))


def test_ascent_on_a_finite_tail_p_extension_never_exceeds_brute():
    brute = run_growth(ExperimentConfig(norm_method="brute", **_MIXED_TAIL)).rows
    ascent = run_growth(ExperimentConfig(norm_method="ascent", **_MIXED_TAIL)).rows
    for a, b in zip(ascent, brute):
        assert a.norm_kind == "lower_bound" and a.norm <= b.norm
    for n in _MIXED_TAIL["n_values"]:
        for d in range(_MIXED_TAIL["draws"]):
            base = make_form("ksz", 2, n, (INF, INF), derive_seed(5, n, d, 0))
            est = alternating_ascent(base, 8, derive_seed(5, n, d, 1))
            assert est.value <= brute_force_norm(base).value


def test_product_extension_ascent_builds_no_extension():
    # the n^3 extension of a draw at n = 256 takes 128 MiB; its base 2 KiB
    cfg = ExperimentConfig(
        family="product_extension", m=3, k=1, p=(4.0, INF, 2.0), r=(1.0, 2.0, 2.0),
        n_values=(64, 128, 256), norm_method="ascent", restarts=4, draws=2,
    )
    run_growth(cfg)  # lazy imports on first use would count
    tracemalloc.start()
    try:
        run_growth(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_config_rejects_m_below_1():
    with pytest.raises(ValueError, match="^m must be >= 1$"):
        _cfg(m=0, p=(), r=())
