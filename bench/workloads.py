"""The benchmark's workloads and their correctness checks.

Each workload's set-up generates its inputs from the workload seed and
returns a list of items. An item's ``run`` is one call into the package's
public entry points (``mixedsums.cli.main``, ``run_growth``, ``loglog_fit``,
``brute_force_norm``, ``mixed_norm``) and is the only timed part. Its
``check`` tests mathematical properties of the output, and its ``encode``
gives the bytes that must repeat exactly when the item runs again in the
same process. Module attributes are looked up at call time so that the
traced run can rebind them.

Why these workloads:
  suite        the paper's battery as a user runs it; per-call overhead of
               every layer on hundreds of tiny forms, plus the CLI's default
               thread pool.
  brute_exact  the exact enumeration kernel at the largest sizes it can
               reach; nothing else runs. With ``suite`` it shows whether a
               brute-force change that wins at large n loses on tiny forms.
  ascent_large ``norm --method ascent`` on forms of up to 65k entries, on
               both the finite-p dual path and the sign path; brute force
               never runs.
  bound_growth growth experiments at n up to 2048 with the closed-form
               bound, so form generation and ``mixed_norm`` on arrays of up
               to 32 MiB do the work and no norm estimator runs.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from mixedsums import cli, forms, growth, norms, tensors

import reference

INF = float("inf")
DEFAULT_SEED = 0
FIT_SLACK = 0.15  # acceptance criterion 8: upper_bound slopes stay <= s + 0.15


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], list[str]]
    encode: Callable[[Any], bytes]
    reference: Callable[[], Any] | None = None
    argv: list[str] | None = None  # for items that call cli.main


def derive_seed(seed: int, index: int) -> int:
    """Sub-seed for input `index` of a workload run with `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------- suite


def setup_suite(seed: int, size: str, tmp: Path) -> list[Item]:
    items = []
    for idx, (cfg, mode) in enumerate(growth.bundled_suite()):
        obj = growth.config_to_obj(cfg)
        if seed != DEFAULT_SEED:
            obj["seed"] = derive_seed(seed, idx)
        if size == "smoke":
            obj["n_values"] = obj["n_values"][:3]
            obj["draws"] = min(obj["draws"], 3)
        config_path = tmp / f"suite{idx}-config.json"
        config_path.write_text(json.dumps(obj))
        csv_path = tmp / f"suite{idx}.csv"
        argv = ["experiment", "--config", str(config_path), "--mode", mode, "--out", str(csv_path)]
        judge_match = seed == DEFAULT_SEED and size == "full"
        items.append(
            Item(
                name=f"suite{idx}:{obj['family']}:m{obj['m']}:{obj['norm_method']}:{mode}",
                run=lambda argv=argv: run_cli(argv),
                check=lambda out, ref, csv_path=csv_path, mode=mode, judge_match=judge_match: (
                    _check_suite(out, csv_path, mode, judge_match)
                ),
                encode=lambda out, csv_path=csv_path: _encode_suite(out, csv_path),
                argv=argv,
            )
        )
    return items


def _encode_suite(out, csv_path: Path) -> bytes:
    code, stdout = out
    return b"\0".join(
        [
            str(code).encode(),
            stdout.encode(),
            csv_path.read_bytes(),
            csv_path.with_suffix(".json").read_bytes(),
        ]
    )


def _check_suite(out, csv_path: Path, mode: str, judge_match: bool) -> list[str]:
    """Acceptance criterion 8 on one experiment's report.

    A match verdict at n <= 10 is a statistical test that some seeds fail
    (1 of 59 non-default seeds tried), so it is judged only where
    `judge_match` holds: the bundled suite at its own seeds. Elsewhere a
    match entry must still satisfy the upper_bound rule.
    """
    code, _ = out
    if code != 0:
        return [f"exit code {code}"]
    fit = json.loads(csv_path.with_suffix(".json").read_text())["fit"]
    problems = []
    as_bound = mode == "upper_bound" or not judge_match
    if fit["verdict"] == "inconsistent" and (mode == "upper_bound" or judge_match):
        problems.append("verdict is inconsistent")
    s = fit["predicted_exponent"]
    if as_bound and fit["slope"] is not None and fit["slope"] > s + FIT_SLACK:
        problems.append(f"slope {fit['slope']} exceeds {s} + {FIT_SLACK}")
    if mode == "match" and judge_match and fit["verdict"] != "consistent":
        problems.append(f"match verdict is {fit['verdict']}")
    return problems


# ---------------------------------------------------------------- brute_exact


def setup_brute_exact(seed: int, size: str, tmp: Path) -> list[Item]:
    shapes = [(2, 16), (2, 18), (2, 20), (2, 22), (3, 8), (3, 9)]
    if size == "smoke":
        shapes = [(2, 4), (2, 6), (3, 3)]
    items = []
    for idx, (m, n) in enumerate(shapes):
        form, _ = forms.ksz_random_form(m, n, (INF,) * m, derive_seed(seed, idx))
        items.append(
            Item(
                name=f"brute:m{m}:n{n}",
                run=lambda form=form: (
                    norms.brute_force_norm(form),
                    tensors.mixed_norm(form.coefficients, (1.0,) * form.arity),
                ),
                check=lambda out, ref, form=form: check_brute(out, ref, form),
                encode=_encode_brute,
                reference=lambda form=form: reference.brute_norm(form.coefficients),
            )
        )
    return items


def _encode_brute(out) -> bytes:
    est, mn = out
    parts = [repr(est.value).encode(), repr(mn.value).encode()]
    parts += [np.ascontiguousarray(w).tobytes() for w in est.witness]
    return b"\0".join(parts)


def check_brute(out, ref: int, form) -> list[str]:
    est, mn = out
    problems = []
    if est.kind != "exact":
        problems.append(f"kind is {est.kind}")
    if est.value != ref:
        problems.append(f"value {est.value!r} differs from the reference {ref}")
    if est.value != math.floor(est.value):
        problems.append(f"value {est.value!r} of a +-1 form is not an integer")
    if not all(np.all(np.abs(w) == 1.0) for w in est.witness):
        problems.append("witness entries are not all +-1")
    value = reference.evaluate(form.coefficients, est.witness)
    if abs(value - est.value) > 1e-9 * max(1.0, est.value):
        problems.append(f"witness evaluates to {value!r}, not {est.value!r}")
    if mn.value != float(form.coefficients.size):
        problems.append(f"mixed_norm(r=1..1) is {mn.value!r}, not {form.coefficients.size}")
    return problems


# ---------------------------------------------------------------- ascent_large


def setup_ascent_large(seed: int, size: str, tmp: Path) -> list[Item]:
    specs = [(2, n, p) for n in (64, 128, 256) for p in (INF, 4.0)]
    specs += [(3, 32, INF), (3, 32, 4.0)]
    if size == "smoke":
        specs = [(2, 8, INF), (2, 8, 4.0), (3, 4, INF), (3, 4, 4.0)]
    items = []
    for idx, (m, n, p) in enumerate(specs):
        form, _ = forms.ksz_random_form(m, n, (p,) * m, derive_seed(seed, idx))
        path = tmp / f"ascent{idx}.json"
        path.write_text(json.dumps(forms.form_to_obj(form)))
        argv = ["norm", "--input", str(path), "--method", "ascent"]
        items.append(
            Item(
                name=f"ascent:m{m}:n{n}:p{p}",
                run=lambda argv=argv: run_cli(argv),
                check=lambda out, ref, form=form: check_ascent(out, ref, form),
                encode=lambda out: f"{out[0]}\0{out[1]}".encode(),
                # the CLI's defaults: 32 restarts, seed 0, tol 1e-10, 200 sweeps
                reference=lambda form=form: reference.ascent_value(form.coefficients, form.p),
                argv=argv,
            )
        )
    return items


def check_ascent(out, ref: float, form) -> list[str]:
    code, stdout = out
    if code != 0:
        return [f"exit code {code}"]
    est = json.loads(stdout)
    problems = []
    if est["kind"] != "lower_bound":
        problems.append(f"kind is {est['kind']}")
    witness = [np.asarray(w, dtype=np.float64) for w in est["witness"]]
    for j, (w, pj) in enumerate(zip(witness, form.p)):
        if reference.lp_norm(w, pj) > 1.0 + 1e-9:
            problems.append(f"witness slot {j} lies outside the unit ell_{pj} ball")
    value = reference.evaluate(form.coefficients, witness)
    if abs(value - est["value"]) > 1e-9 * max(1.0, abs(est["value"])):
        problems.append(f"witness evaluates to {value!r}, not {est['value']!r}")
    if est["value"] < ref * (1.0 - 1e-9):
        problems.append(f"value {est['value']!r} is below the reference {ref!r}")
    return problems


# ---------------------------------------------------------------- bound_growth


def setup_bound_growth(seed: int, size: str, tmp: Path) -> list[Item]:
    big = (64, 128, 256, 512, 1024, 2048)
    cube = (16, 32, 64, 128)
    if size == "smoke":
        big, cube = (4, 8, 16), (2, 4, 8)
    specs = [
        (2, (INF, INF), (1.0, 1.0), big),
        (2, (4.0, 4.0), (1.0, 2.0), big),
        (3, (INF, INF, INF), (1.0, 2.0, 2.0), cube),
    ]
    items = []
    for idx, (m, p, r, ns) in enumerate(specs):
        cfg = growth.ExperimentConfig(
            family="ksz", m=m, p=p, r=r, n_values=ns,
            norm_method="paper_bound", seed=derive_seed(seed, idx),
        )
        items.append(
            Item(
                name=f"bound:m{m}:p{p[0]}:r{r}",
                run=lambda cfg=cfg: _run_bound(cfg),
                check=lambda out, ref, r=r: check_bound(out, r),
                encode=_encode_bound,
            )
        )
    return items


def _run_bound(cfg):
    series = growth.run_growth(cfg)
    return series, growth.loglog_fit(series, mode="upper_bound")


def _encode_bound(out) -> bytes:
    series, fit = out
    rows = [(row.n, row.lhs, row.norm, row.norm_kind, row.ratio) for row in series.rows]
    return repr((rows, fit.slope, fit.intercept, fit.r_squared, fit.verdict)).encode()


def check_bound(out, r) -> list[str]:
    series, fit = out
    problems = []
    for row in series.rows:
        expected = math.prod(1.0 if rj == INF else float(row.n) ** (1.0 / rj) for rj in r)
        if abs(row.lhs - expected) > 1e-12 * expected:
            problems.append(f"lhs {row.lhs!r} at n={row.n} differs from {expected!r}")
    if fit.verdict == "inconsistent":
        problems.append("verdict is inconsistent")
    return problems


WORKLOADS = {
    "suite": setup_suite,
    "brute_exact": setup_brute_exact,
    "ascent_large": setup_ascent_large,
    "bound_growth": setup_bound_growth,
}
