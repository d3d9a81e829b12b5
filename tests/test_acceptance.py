"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with -v to see one line per criterion, or -s to see the explicit
criterion lines printed by the tests themselves.
"""

import contextlib
import json
import math
import time

import numpy as np

from mixedsums import (
    INF,
    ExperimentConfig,
    alt_exponent,
    alternating_ascent,
    archiv_exponent,
    brute_force_norm,
    bundled_suite,
    classical_exponents,
    harmonic_sum,
    holder_verify,
    ksz_random_form,
    lemma_lift,
    linear_exponent,
    loglog_fit,
    mixed_norm,
    report_obj,
    run_growth,
    series_to_csv,
    unified_exponent,
)
from mixedsums._rng import derive_seed, stream
from mixedsums.tensors import random_splitting


@contextlib.contextmanager
def criterion(num: int, slug: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({slug}): FAIL")
        raise
    print(f"criterion {num} ({slug}): PASS")


def test_criterion_1_holder_fuzz():
    with criterion(1, "mixed Hoelder fuzz, 1000 instances"):
        t0 = time.monotonic()
        for t in range(1000):
            g = stream(1, t)
            m = int(g.integers(1, 4))
            N = int(g.integers(1, 4))
            shape = tuple(int(x) for x in g.integers(1, 7, size=m))
            r = [
                INF if g.random() < 0.2 else float(0.5 + 3.5 * g.random())
                for _ in range(m)
            ]
            q = [random_splitting(g, rj, N) for rj in r]
            tensors = [g.standard_normal(shape) for _ in range(N)]
            check = holder_verify(tensors, r, q)
            assert check.holds, (t, check.lhs, check.rhs)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"fuzz took {elapsed:.1f}s"


def test_criterion_2_product_extension_lhs():
    with criterion(2, "extension mixed norm grows like n^{3/2}"):
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
        for row in run_growth(cfg).rows:
            want = row.n ** 1.5
            assert abs(row.lhs - want) <= 1e-9 * want, (row.n, row.lhs)


def test_criterion_3_ascent_matches_brute():
    with criterion(3, "ascent finds the exact norm on >= 95/100 sign forms"):
        hits = 0
        for i in range(100):
            n = 2 + i % 5
            form, _ = ksz_random_form(2, n, (INF, INF), seed=1000 + i)
            exact = brute_force_norm(form).value
            lower = alternating_ascent(form, restarts=32, seed=i).value
            assert lower <= exact * (1.0 + 1e-9), (i, lower, exact)
            if abs(lower - exact) <= 1e-6 * exact:
                hits += 1
        assert hits >= 95, f"only {hits}/100 runs reached the exact norm"


def test_criterion_4_ksz_norm_bound():
    with criterion(4, "random sign forms with norm <= 3 n^{3/2} exist"):
        for n in range(2, 11):
            smallest = min(
                brute_force_norm(
                    ksz_random_form(2, n, (INF, INF), derive_seed(7, n, d, 0))[0]
                ).value
                for d in range(50)
            )
            assert smallest <= 3.0 * n ** 1.5, (n, smallest)


def test_criterion_5_exponent_coincidences():
    with criterion(5, "exponent formulas agree where regimes overlap"):
        # (i) all p_j = 2m: the two unified cases coincide bitwise
        g = np.random.Generator(np.random.PCG64(50))
        for _ in range(400):
            m = int(g.integers(2, 5))
            r = tuple(
                INF if g.random() < 0.1 else float(0.4 + 3.0 * g.random())
                for _ in range(m)
            )
            u = unified_exponent(m, (2.0 * m,) * m, r)
            assert u.s_case1 == u.s_case2, (m, r)

        # (ii) |1/p| = 1/2 exactly: both classical exponents equal 2
        for m, p in (
            (2, (4, 4)),
            (2, (3, 6)),
            (3, (6, 6, 6)),
            (3, (8, 8, 4)),
            (4, (8, 8, 8, 8)),
            (5, (10, 10, 10, 10, 10)),
        ):
            assert harmonic_sum(p) == 0.5
            c = classical_exponents(m, p)
            assert c.hlpp == 2.0 and c.dsp == 2.0, (m, p)

        # (iii) the all-index exponent never beats the set-restricted one
        for _ in range(1000):
            m = int(g.integers(2, 5))
            r = tuple(float(x) for x in 1.0 + g.random(m))
            w = g.random(m)
            w = w * (0.5 * g.random() / w.sum())
            p = tuple(float(1.0 / x) for x in w)
            assert alt_exponent(m, p, r) <= unified_exponent(m, p, r).s_case2

        # (iv) constant-exponent formula matches its equal-p closed form
        for _ in range(1000):
            m = int(g.integers(2, 5))
            rv = float(0.3 + 1.7 * g.random())
            pv = float(2.0 + (2.0 * m - 2.0) * g.random())
            got = archiv_exponent(m, rv, (pv,) * m).s_a
            want = max(
                (2 * m * rv + 2 * m * pv - m * pv * rv - pv * rv) / (2 * pv * rv),
                0.0,
            )
            assert abs(got - want) <= 1e-12, (m, rv, pv)


def test_criterion_6_lift_postconditions():
    with criterion(6, "exponent lifting satisfies its three postconditions"):
        g = np.random.Generator(np.random.PCG64(60))
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
            assert all(sj >= rj - 1e-12 for sj, rj in zip(s, r)), (r, p, s)
            assert all(lo - 1e-12 <= sj <= 2.0 + 1e-12 for sj in s), (r, p, s)
            assert abs(math.fsum(1.0 / sj for sj in s) - target) <= 1e-12, (r, p, s)
            done += 1


def test_criterion_7_linear_case_ratios():
    with criterion(7, "one-variable ratios follow the linear-case exponent"):
        for r_val, p_val in ((1.0, 2.0), (2.0, 2.0), (1.0, INF)):
            s_lin = linear_exponent(r_val, p_val)
            cfg = ExperimentConfig(
                family="diagonal",
                m=1,
                p=(p_val,),
                r=(r_val,),
                n_values=(2, 4, 8, 16, 32, 64),
                norm_method="analytic",
            )
            series = run_growth(cfg)
            for row in series.rows:
                want = row.n ** s_lin
                assert abs(row.ratio - want) <= 1e-12 * want, (r_val, p_val, row)
            fit = loglog_fit(series, mode="match")
            assert abs(fit.slope - s_lin) <= 0.05, (r_val, p_val, fit.slope)
            assert fit.verdict == "consistent"


def test_criterion_8_bundled_suite_verdicts():
    with criterion(8, "bundled experiments match their predictions"):
        t0 = time.monotonic()
        for cfg, mode in bundled_suite():
            series = run_growth(cfg)
            fit = loglog_fit(series, mode=mode)
            assert fit.verdict != "inconsistent", (cfg.family, fit)
            s = fit.predicted.best_exponent()
            if mode == "upper_bound" and not math.isnan(fit.slope):
                assert fit.slope <= s + 0.15, (cfg.family, fit.slope, s)
            if mode == "match" and cfg.family == "ksz":
                assert abs(fit.slope - 0.5) <= 0.15, fit.slope
                assert fit.verdict == "consistent"
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s"


def test_criterion_9_reproducibility():
    with criterion(9, "identical outputs across reruns and thread counts"):
        outputs = []
        for threads in (1, 4, 1):
            chunks = []
            for cfg, mode in bundled_suite():
                series = run_growth(cfg, threads=threads)
                fit = loglog_fit(series, mode=mode)
                chunks.append(series_to_csv(series))
                chunks.append(json.dumps(report_obj(series, fit), sort_keys=True))
            outputs.append("\n".join(chunks))
        assert outputs[0] == outputs[1] == outputs[2]