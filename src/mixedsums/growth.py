"""Growth-rate experiments: ratio R(n) = mixed_norm / operator norm vs n.

An experiment takes a form family, grows the size n, computes the mixed
ell_r sum of the coefficients (lhs) and a norm estimate per row, and fits
log(ratio) against log(n). The fitted slope is the empirical growth
exponent, compared against the predicted exponent in one of two modes:
match (optimality: |slope - s| <= tol) or upper_bound (validity:
slope <= s + tol).

Random families evaluate `draws` independent sign draws per n and keep the
draw with the largest operator norm (smallest draw index on ties); the norm
denominator of the reported ratio belongs to that draw. All randomness
derives from (seed, n, draw_index) and rows are computed one after another
in one thread, so output is reproducible bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from . import _rng
from .exponents import INF, ExponentReport, as_exponent_vector, exponent_to_json, predict
from .forms import (
    MultilinearForm,
    diagonal_form,
    form_from_obj,
    ksz_bound_exponent,
    ksz_random_form,
    product_extension,
    row_form,
)
from .norms import alternating_ascent, analytic_norm, brute_force_norm
from .tensors import mixed_norm

__all__ = [
    "FAMILIES",
    "NORM_METHODS",
    "ExperimentConfig",
    "GrowthRow",
    "GrowthSeries",
    "FitResult",
    "run_growth",
    "loglog_fit",
    "compare",
    "series_to_csv",
    "report_obj",
    "config_to_obj",
    "config_from_obj",
    "bundled_suite",
]

FAMILIES = ("ksz", "diagonal", "row", "product_extension", "custom-file")
NORM_METHODS = ("brute", "ascent", "analytic", "paper_bound")
DEFAULT_FIT_TOLERANCE = 0.15
CSV_HEADER = "n,lhs,norm,norm_kind,ratio,draws_used"


@dataclass(frozen=True)
class ExperimentConfig:
    """One growth experiment.

    k is the base arity for the product_extension family (k = m collapses
    to a plain sign form); form_file names a JSON file with a list of forms
    for the custom-file family, whose rows replace the generated ones
    (n_values is then ignored). For the custom-file family the declared
    (m, p) describe the file's forms for prediction purposes; each form's
    own p drives the norm estimate.
    """

    family: str
    m: int
    p: tuple[float, ...]
    r: tuple[float, ...]
    n_values: tuple[int, ...] = ()
    norm_method: str = "ascent"
    restarts: int = 32
    seed: int = 0
    tol: float = 1e-10
    draws: int = 1
    k: int | None = None
    form_file: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.norm_method not in NORM_METHODS:
            raise ValueError(f"unknown norm method {self.norm_method!r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        object.__setattr__(self, "p", as_exponent_vector(self.p, self.m, "p"))
        object.__setattr__(self, "r", as_exponent_vector(self.r, self.m, "r"))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if self.family != "custom-file":
            ns = self.n_values
            if len(ns) < 3:
                raise ValueError("n_values needs at least 3 entries")
            if any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
                raise ValueError("n_values must be positive and strictly increasing")
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.family == "row" and self.m != 2:
            raise ValueError("row family requires m = 2")
        if self.family == "product_extension":
            if self.k is None or not 1 <= self.k <= self.m:
                raise ValueError("product_extension requires k in [1, m]")
        if self.family == "custom-file" and not self.form_file:
            raise ValueError("custom-file family requires form_file")
        if self.norm_method == "analytic" and self.family not in ("diagonal", "row"):
            raise ValueError("analytic norms exist only for diagonal and row families")
        if self.norm_method == "paper_bound" and self.family == "custom-file":
            raise ValueError("paper_bound has no closed form for custom files")
        if self.norm_method == "brute" and self.family != "custom-file":
            if any(pj != INF for pj in self.p):
                raise ValueError("brute norms require every p_j = inf")


@dataclass(frozen=True)
class GrowthRow:
    n: int
    lhs: float
    norm: float
    norm_kind: str
    ratio: float
    draws_used: int


@dataclass(frozen=True)
class GrowthSeries:
    config: ExperimentConfig
    rows: tuple[GrowthRow, ...]


@dataclass(frozen=True)
class FitResult:
    """Log-log OLS fit of ratio vs n, with the prediction it is judged against.

    verdict is consistent/inconsistent/inconclusive at `tolerance`;
    inconclusive covers r_squared < 0.9, fewer than 3 usable points, and
    inputs outside every predicted regime. bound_relative marks fits whose
    norms came from the paper_bound method (the ratio is then relative to a
    unit-constant bound, not to a computed norm).
    """

    slope: float
    intercept: float
    r_squared: float
    n_points: int
    predicted: ExponentReport
    verdict: str
    tolerance: float
    mode: str
    bound_relative: bool


def _estimate(form: MultilinearForm, config: ExperimentConfig, ascent_seed: int):
    """(value, kind) for one form under the configured method."""
    if config.norm_method == "brute":
        est = brute_force_norm(form)
    elif config.norm_method == "analytic":
        est = analytic_norm(form)
        if est is None:
            raise ValueError(f"no analytic norm for kind {form.kind!r}")
    else:
        est = alternating_ascent(
            form, restarts=config.restarts, seed=ascent_seed, tol=config.tol
        )
    return est.value, est.kind


def _make_draw(config: ExperimentConfig, n: int, d: int) -> MultilinearForm:
    form_seed = _rng.derive_seed(config.seed, n, d, 0)
    if config.family == "ksz":
        form, _ = ksz_random_form(config.m, n, config.p, form_seed)
        return form
    k = config.k
    base, _ = ksz_random_form(k, n, config.p[:k], form_seed)
    return product_extension(base, config.m, config.p[k:], tail_dims=(n,) * (config.m - k))


def _row(n: int, lhs: float, value: float, kind: str, draws_used: int) -> GrowthRow:
    if value == 0.0:
        raise ValueError(f"the norm is 0 at n={n}, so the ratio is undefined")
    return GrowthRow(n, lhs, value, kind, lhs / value, draws_used)


def _row_for_n(config: ExperimentConfig, n: int) -> GrowthRow:
    if config.family in ("diagonal", "row"):
        form = (
            diagonal_form(config.m, n, config.p)
            if config.family == "diagonal"
            else row_form(n, n, config.p)
        )
        lhs = mixed_norm(form.coefficients, config.r).value
        if config.norm_method == "paper_bound":
            value, kind = analytic_norm(form).value, "paper_bound"
        else:
            value, kind = _estimate(form, config, _rng.derive_seed(config.seed, n, 0, 1))
        return _row(n, lhs, value, kind, 0)

    # random families: keep the draw with the largest norm
    if config.norm_method == "paper_bound":
        form = _make_draw(config, n, 0)
        lhs = mixed_norm(form.coefficients, config.r).value
        # norm bound of the base k-linear sign form
        k = config.m if config.family == "ksz" else config.k
        value = float(n) ** ksz_bound_exponent(config.p[:k])
        return _row(n, lhs, value, "paper_bound", 0)

    best = None
    for d in range(config.draws):
        form = _make_draw(config, n, d)
        value, kind = _estimate(form, config, _rng.derive_seed(config.seed, n, d, 1))
        if best is None or value > best[0]:
            best = (value, kind, form)
    value, kind, form = best
    lhs = mixed_norm(form.coefficients, config.r).value
    return _row(n, lhs, value, kind, config.draws)


def _rows_from_file(config: ExperimentConfig) -> tuple[GrowthRow, ...]:
    with open(config.form_file) as f:
        payload = json.load(f)
    if isinstance(payload, dict):
        payload = [payload]
    rows = []
    for obj in payload:
        form = form_from_obj(obj)
        lhs = mixed_norm(form.coefficients, config.r).value
        n = form.shape[0]
        value, kind = _estimate(form, config, _rng.derive_seed(config.seed, n, 0, 1))
        rows.append(_row(n, lhs, value, kind, 0))
    return tuple(rows)


def run_growth(config: ExperimentConfig, threads: int = 1) -> GrowthSeries:
    """Run one experiment; rows are computed in n order in the calling thread.

    `threads` is accepted for compatibility and has no effect.
    """
    if config.family == "custom-file":
        return GrowthSeries(config=config, rows=_rows_from_file(config))
    rows = tuple(_row_for_n(config, n) for n in config.n_values)
    return GrowthSeries(config=config, rows=rows)


def _verdict(slope, r2, n_points, s, tol, mode) -> str:
    if n_points < 3 or s is None or math.isnan(slope) or r2 < 0.9:
        return "inconclusive"
    if mode == "match":
        return "consistent" if abs(slope - s) <= tol else "inconsistent"
    return "consistent" if slope <= s + tol else "inconsistent"


def loglog_fit(
    series: GrowthSeries,
    tolerance: float = DEFAULT_FIT_TOLERANCE,
    mode: str = "match",
) -> FitResult:
    """OLS fit of log(ratio) against log(n), judged against the prediction.

    Exactly constant series get r_squared = 1 (zero residual around a zero-
    variance mean). Non-finite and nonpositive ratios are rejected; fewer
    than 3 points yields an inconclusive fit with NaN slope.
    """
    if mode not in ("match", "upper_bound"):
        raise ValueError(f"unknown mode {mode!r}")
    bad = [row.n for row in series.rows if not math.isfinite(row.ratio)]
    if bad:
        raise ValueError(f"non-finite ratio at n = {bad}: cannot fit")
    pts = [(row.n, row.ratio) for row in series.rows]
    if any(ratio <= 0.0 for _, ratio in pts):
        raise ValueError("nonpositive ratio: cannot fit in log space")
    cfg = series.config
    report = predict(cfg.m, cfg.p, cfg.r)
    s = report.best_exponent()
    bound_relative = any(row.norm_kind == "paper_bound" for row in series.rows)

    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(ratio) for _, ratio in pts]
    n_pts = len(pts)
    if n_pts < 3 or len(set(xs)) < 2:
        return FitResult(
            slope=math.nan,
            intercept=math.nan,
            r_squared=0.0,
            n_points=n_pts,
            predicted=report,
            verdict="inconclusive",
            tolerance=tolerance,
            mode=mode,
            bound_relative=bound_relative,
        )
    xm = math.fsum(xs) / n_pts
    ym = math.fsum(ys) / n_pts
    sxx = math.fsum((x - xm) ** 2 for x in xs)
    sxy = math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ym - slope * xm
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - ym) ** 2 for y in ys)
    r2 = 1.0 if ss_tot <= 1e-20 else 1.0 - ss_res / ss_tot
    return FitResult(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        n_points=n_pts,
        predicted=report,
        verdict=_verdict(slope, r2, n_pts, s, tolerance, mode),
        tolerance=tolerance,
        mode=mode,
        bound_relative=bound_relative,
    )


def compare(fit: FitResult, mode: str, tolerance: float | None = None) -> str:
    """Re-judge an existing fit under another mode/tolerance."""
    if mode not in ("match", "upper_bound"):
        raise ValueError(f"unknown mode {mode!r}")
    tol = fit.tolerance if tolerance is None else tolerance
    s = fit.predicted.best_exponent()
    return _verdict(fit.slope, fit.r_squared, fit.n_points, s, tol, mode)


def series_to_csv(series: GrowthSeries) -> str:
    """CSV text; float fields use repr so round trips are bit-exact."""
    lines = [CSV_HEADER]
    for row in series.rows:
        lines.append(
            f"{row.n},{row.lhs!r},{row.norm!r},{row.norm_kind},{row.ratio!r},{row.draws_used}"
        )
    return "\n".join(lines) + "\n"


def config_to_obj(config: ExperimentConfig) -> dict:
    obj = {key: v for key, v in asdict(config).items() if v is not None}
    obj["p"] = [exponent_to_json(pj) for pj in config.p]
    obj["r"] = [exponent_to_json(rj) for rj in config.r]
    obj["n_values"] = list(config.n_values)
    return obj


def config_from_obj(obj) -> ExperimentConfig:
    try:
        kwargs = {
            "family": obj["family"],
            "m": int(obj["m"]),
            "p": tuple(float(x) for x in obj["p"]),
            "r": tuple(float(x) for x in obj["r"]),
        }
    except (KeyError, TypeError) as e:
        raise ValueError(f"config object is missing a required field: {e}") from None
    for key, cast in (
        ("n_values", lambda v: tuple(int(n) for n in v)),
        ("norm_method", str),
        ("restarts", int),
        ("seed", int),
        ("tol", float),
        ("draws", int),
        ("k", int),
        ("form_file", str),
    ):
        if key in obj and obj[key] is not None:
            kwargs[key] = cast(obj[key])
    return ExperimentConfig(**kwargs)


def report_obj(series: GrowthSeries, fit: FitResult) -> dict:
    """JSON-ready experiment report: config, rows, fit, full prediction."""
    return {
        "config": config_to_obj(series.config),
        "rows": [asdict(row) for row in series.rows],
        "fit": {
            "slope": None if math.isnan(fit.slope) else fit.slope,
            "intercept": None if math.isnan(fit.intercept) else fit.intercept,
            "r_squared": fit.r_squared,
            "n_points": fit.n_points,
            "predicted_exponent": fit.predicted.best_exponent(),
            "mode": fit.mode,
            "tolerance": fit.tolerance,
            "verdict": fit.verdict,
            "bound_relative": fit.bound_relative,
        },
        "predicted": fit.predicted.to_dict(),
    }


def bundled_suite() -> list[tuple[ExperimentConfig, str]]:
    """The standard experiment battery: (config, compare mode) pairs.

    Every generated family and every covered regime appears at least once;
    sizes are desk scale (n <= 64 closed-form, n <= 16 ascent, n <= 10
    brute). The ksz entry is the optimality check: its ratio should grow
    like n^{1/2}.
    """
    pow2 = (2, 4, 8, 16, 32, 64)
    suite: list[tuple[ExperimentConfig, str]] = []

    def add(mode, **kw):
        suite.append((ExperimentConfig(**kw), mode))

    add("upper_bound", family="row", m=2, p=(INF, 2.0), r=(1.0, 1.0),
        n_values=pow2, norm_method="analytic")
    add("upper_bound", family="row", m=2, p=(5.0, 2.0), r=(1.0, 1.0),
        n_values=(2, 4, 8, 16), norm_method="ascent", restarts=8, seed=11)
    add("upper_bound", family="diagonal", m=2, p=(INF, INF), r=(1.0, 1.0),
        n_values=pow2, norm_method="analytic")
    add("upper_bound", family="diagonal", m=2, p=(4.0, 4.0), r=(1.0, 1.0),
        n_values=pow2, norm_method="analytic")
    add("upper_bound", family="diagonal", m=2, p=(4.0, 2.0), r=(2.0, 1.0),
        n_values=pow2, norm_method="analytic")
    add("upper_bound", family="diagonal", m=1, p=(2.0,), r=(1.0,),
        n_values=pow2, norm_method="analytic")
    add("upper_bound", family="diagonal", m=1, p=(2.0,), r=(2.0,),
        n_values=pow2, norm_method="analytic")
    add("upper_bound", family="diagonal", m=1, p=(INF,), r=(1.0,),
        n_values=pow2, norm_method="analytic")
    add("match", family="ksz", m=2, p=(INF, INF), r=(1.0, 1.0),
        n_values=tuple(range(2, 11)), norm_method="brute", draws=50, seed=7)
    add("upper_bound", family="product_extension", m=3, k=2,
        p=(INF, INF, INF), r=(1.0, 2.0, 2.0), n_values=(2, 4, 8),
        norm_method="brute", draws=8, seed=7)
    return suite
