"""Growth experiment tests: frozen rows, fits, serialization, determinism."""

import json
import math

import numpy as np
import pytest

from mixedsums import (
    INF,
    ExperimentConfig,
    GrowthRow,
    GrowthSeries,
    brute_force_norm,
    bundled_suite,
    compare,
    config_from_obj,
    config_to_obj,
    form_to_obj,
    ksz_random_form,
    loglog_fit,
    report_obj,
    run_growth,
    series_to_csv,
)


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
        (4, 16.0, 12.0, 1.3333333333333333),
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
    from mixedsums.growth import _make_draw

    for row in series.rows:
        norms = [
            brute_force_norm(_make_draw(cfg, row.n, d)).value
            for d in range(cfg.draws)
        ]
        assert row.norm == max(norms)


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
    s1 = run_growth(cfg, threads=1)
    s2 = run_growth(cfg, threads=3)
    s3 = run_growth(cfg, threads=1)
    assert series_to_csv(s1) == series_to_csv(s2) == series_to_csv(s3)
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
