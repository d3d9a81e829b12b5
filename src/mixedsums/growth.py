"""Growth-rate experiments: ratio R(n) = mixed_norm / operator norm vs n.

An experiment takes a form family, grows the size n, computes the mixed
ell_r sum of the coefficients (lhs) and a norm estimate per row, and fits
log(ratio) against log(n). The fitted slope is the empirical growth
exponent, compared against the predicted exponent in one of two modes:
match (optimality: |slope - s| <= tol) or upper_bound (validity:
slope <= s + tol).

ksz keeps, of `draws` sign draws per n, the one with the largest operator
norm (the first on ties), whose norm is the ratio's denominator, and
reports draws_used = draws. diagonal and row build one form per n, ksz
paper_bound rows draw none, and both report draws_used = 0, as does
custom-file: one row per form in its file, n the form's first dimension.

A product_extension experiment's rows are those of its base config,
which run_growth builds: ksz on its first k slots at the same seed, draws
and method. Pinning the m - k new indices to 1 keeps the operator norm (a
pinned slot contributes |x_j[0]| <= 1, which e_1 attains), and the pinned
fibers reduce to exactly 1.0 and 0.0 at every r; only the fit and the
prediction see all m slots.

Every ksz draw has modulus ones((n,) * m), so lhs is the mixed norm of a
stride-0 broadcast (one entry a level, and Sum2 over at most n copies of
it; bit for bit a draw's), and paper_bound gives
n^{ksz_bound_exponent(p)}, the unit-constant norm bound: those rows draw
no signs, do not depend on the seed, and fit bound_relative. For diagonal
and row it is the analytic norm.

Under brute and ascent a row draws its signs from one stream: draw d of
row n is the words [d*N, (d+1)*N) of PCG64(SeedSequence((seed, n))),
N = n^m, so advance(d*N) regenerates it. The draws come in sign stacks of
at most _STACK_ENTRIES coefficients, one random_raw call each; brute scans
each stack once and checks its winner against the scan's witness, ascent
runs on each draw, seeded (seed, n, d, 1).

All randomness derives from (seed, n) and the draw index, and rows are
computed one after another in one thread, so output is reproducible
bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _rng
from .exponents import INF, ExponentReport, as_exponent_vector, exponent_to_json, predict
from .forms import (
    MultilinearForm,
    _Fresh,
    diagonal_form,
    form_from_obj,
    ksz_bound_exponent,
    ksz_random_form,
    product_extension,
    row_form,
)
from .norms import DEFAULT_BUDGET, DEFAULT_MAX_ITERS, DEFAULT_RESTARTS, DEFAULT_TOL, NormEstimate
from .norms import (
    _check_ascent,
    alternating_ascent,
    analytic_norm,
    brute_force_estimate,
    brute_force_norm,
    brute_force_scan,
)
from .tensors import _integer, _read_field, _vector, mixed_norm

__all__ = [
    "FAMILIES",
    "NORM_METHODS",
    "ExperimentConfig",
    "GrowthRow",
    "GrowthSeries",
    "FitResult",
    "make_form",
    "check_tolerance",
    "estimate_norm",
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
# families with a closed-form norm: one draw per n, no random sign
_CLOSED = ("diagonal", "row")
# coefficients in one stack of sign draws, so memory does not grow with draws
_STACK_ENTRIES = 2**16
# the one entry of every ksz draw's modulus (_base_lhs)
_ONE = np.ones(1)
_ONE.flags.writeable = False


def _check_options(
    family: str, m: int, k: int | None = None, n2: int | None = None,
    complex_phases: bool = False, form_file: str | None = None,
) -> None:
    """Refuse an option that `family` does not take, and a row family off
    m = 2 or a product_extension without k in [1, m]: the one check of
    make_form and ExperimentConfig."""
    if family == "row" and m != 2:
        raise ValueError("row family requires m = 2")
    if family == "product_extension":
        if k is None or not 1 <= k <= m:
            raise ValueError("product_extension requires k in [1, m]")
    elif k is not None:
        raise ValueError("k applies to the product_extension family only")
    if n2 is not None and family != "row":
        raise ValueError("n2 applies to the row family only")
    if complex_phases and family != "ksz":
        raise ValueError("complex_phases applies to the ksz family only")
    if form_file is not None and family != "custom-file":
        raise ValueError("form_file applies to the custom-file family only")


@dataclass(frozen=True)
class ExperimentConfig:
    """One growth experiment.

    k is the base arity for the product_extension family, whose rows are
    those of its base config, built in run_growth (k = m is a plain sign
    form); form_file names a JSON file with a list of forms, or one form
    object, for the custom-file family, whose rows replace the generated
    ones (n_values is then ignored) and whose declared (m, p) describe the
    file's forms for prediction purposes; each form's own p drives the
    norm estimate. Neither option is taken by another family.
    """

    family: str
    m: int
    p: tuple[float, ...]
    r: tuple[float, ...]
    n_values: tuple[int, ...] = ()
    norm_method: str = "ascent"
    restarts: int = DEFAULT_RESTARTS
    seed: int = 0
    tol: float = DEFAULT_TOL
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
        _check_ascent(self.restarts, self.tol)
        _check_options(self.family, self.m, self.k, form_file=self.form_file)
        if self.family == "custom-file" and not self.form_file:
            raise ValueError("custom-file family requires form_file")
        if self.norm_method == "analytic" and self.family not in _CLOSED:
            raise ValueError("analytic norms exist only for diagonal and row families")
        if self.norm_method == "paper_bound" and self.family == "custom-file":
            raise ValueError("paper_bound has no closed form for custom files")
        if self.norm_method == "brute" and self.family != "custom-file":
            base_p = self.p[: self.k]  # brute enumerates the base's slots
            if any(pj != INF for pj in base_p):
                raise ValueError(f"brute norms require p_j = inf for j <= {len(base_p)}")


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


def make_form(
    family: str, m: int, n: int, p, seed: int, k: int | None = None,
    n2: int | None = None, complex_phases: bool = False,
) -> MultilinearForm:
    """The form a family name stands for at size n.

    ksz draws an m-linear sign form from `seed` (unimodular phases with
    complex_phases); product_extension extends a k-linear ksz draw to m
    slots of size n; row is bilinear with n2 (default n) columns. An
    option that the family does not take is refused.
    """
    _check_options(family, m, k, n2, complex_phases)
    if family == "ksz":
        return ksz_random_form(m, n, p, seed, complex_phases=complex_phases)[0]
    if family == "diagonal":
        return diagonal_form(m, n, p)
    if family == "row":
        return row_form(n, n if n2 is None else n2, p)
    if family == "product_extension":
        base, _ = ksz_random_form(k, n, p[:k], seed)
        return product_extension(base, m, p[k:])
    raise ValueError(f"no generated family {family!r}")


def estimate_norm(
    form: MultilinearForm, method: str, restarts: int = DEFAULT_RESTARTS,
    seed: int = 0, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS,
    budget: int = DEFAULT_BUDGET,
) -> NormEstimate:
    """Norm estimate of `form` by method brute, analytic or ascent.

    budget applies to brute; restarts, seed, tol and max_iters to ascent.
    """
    if method == "brute":
        return brute_force_norm(form, budget=budget)
    if method == "analytic":
        est = analytic_norm(form)
        if est is None:
            family = ", whose coefficients are not that family's" if form.kind in _CLOSED else ""
            raise ValueError(f"no analytic norm for form kind {form.kind!r}{family}")
        return est
    if method == "ascent":
        return alternating_ascent(form, restarts, seed, tol, max_iters)
    raise ValueError(f"unknown norm method {method!r}")


def _estimate(config: ExperimentConfig, form: MultilinearForm, n: int, d: int = 0):
    """(value, kind) of `form`, draw d at size n, under the configured
    method; paper_bound reaches here only for the closed families."""
    if config.norm_method == "paper_bound":
        return analytic_norm(form).value, "paper_bound"
    # only ascent draws from the seed, and deriving one costs ~20 us
    seed = _rng.derive_seed(config.seed, n, d, 1) if config.norm_method == "ascent" else 0
    est = estimate_norm(form, config.norm_method, config.restarts, seed, config.tol)
    return est.value, est.kind


def _base_lhs(config: ExperimentConfig, n: int) -> float:
    """lhs of every draw of a ksz config at size n: the mixed norm of the
    draws' shared modulus, ones (see the module docstring): a read-only
    view of one 1.0 with every stride 0, which np.ndarray builds in a
    third of np.broadcast_to's time."""
    shape = (n,) * config.m
    return mixed_norm(np.ndarray(shape, buffer=_ONE, strides=(0,) * config.m), config.r).value


def _row(n: int, lhs: float, value: float, kind: str, draws_used: int) -> GrowthRow:
    """The row at size n of a norm (value, kind); lhs is the mixed norm of
    a given form's coefficients, or _base_lhs for a ksz config."""
    if value == 0.0:
        raise ValueError(f"the norm is 0 at n={n}, so the ratio is undefined")
    return GrowthRow(n, lhs, value, kind, lhs / value, draws_used)


def _form_row(config: ExperimentConfig, n: int, form: MultilinearForm) -> GrowthRow:
    """The row at size n of one given form, which is no draw."""
    value, kind = _estimate(config, form, n)
    return _row(n, mixed_norm(form.coefficients, config.r).value, value, kind, 0)


def _stack_best(config: ExperimentConfig, stack, n: int, start: int):
    """(value, kind, d) of the best draw, the first on ties, in a sign
    stack of draws start, start + 1, ... of row n: brute scans the stack
    once, and the scan's witness pattern must give its value on the
    stack's winner; ascent runs on each draw."""
    if config.norm_method == "brute":
        d, idx, value = brute_force_scan(stack)
        est = brute_force_estimate(MultilinearForm(_Fresh(stack[d]), config.p), idx)
        if est.value != value:
            raise ArithmeticError(
                f"brute force scan value {value!r} differs from its witness's {est.value!r}"
            )
        return value, "exact", start + d
    # the forms share the stack, which nothing writes
    forms = (MultilinearForm(_Fresh(c), config.p) for c in stack)
    ests = [_estimate(config, form, n, start + i) for i, form in enumerate(forms)]
    d = max(range(len(ests)), key=lambda i: ests[i][0])  # the first on ties
    return (*ests[d], start + d)


def _best_draw(config: ExperimentConfig, n: int):
    """(value, kind, d) of the draw of row n of a ksz config under brute or
    ascent with the largest norm, the first on ties.

    Draw d is the words [d*N, (d+1)*N) of the row's stream (seed, n) as
    signs, N = n^m (see the module docstring). Draws come in stacks of at
    most _STACK_ENTRIES coefficients, one random_raw call each, so the row
    holds one stack at a time; a later stack wins only with a strictly
    larger value.
    """
    shape = (n,) * config.m
    size = math.prod(shape)
    per_stack = max(1, _STACK_ENTRIES // size)
    bits = _rng.stream(config.seed, n).bit_generator
    best = None
    for lo in range(0, config.draws, per_stack):
        count = min(per_stack, config.draws - lo)
        stack = _rng._signs(bits.random_raw((count, *shape)))
        draw = _stack_best(config, stack, n, lo)
        del stack  # freed before the next stack is drawn
        if best is None or draw[0] > best[0]:
            best = draw
    return best


def _generated_rows(config: ExperimentConfig) -> list[GrowthRow]:
    """The rows of a ksz, diagonal or row config, in n order."""
    ns = config.n_values
    if config.family in _CLOSED:
        forms = (make_form(config.family, config.m, n, config.p, 0) for n in ns)
        return [_form_row(config, n, form) for n, form in zip(ns, forms)]
    if config.norm_method == "paper_bound":
        exponent = ksz_bound_exponent(config.p)
        return [_row(n, _base_lhs(config, n), float(n) ** exponent, "paper_bound", 0) for n in ns]
    rows = []
    for n in ns:
        value, kind, _ = _best_draw(config, n)
        rows.append(_row(n, _base_lhs(config, n), value, kind, config.draws))
    return rows


def run_growth(config: ExperimentConfig) -> GrowthSeries:
    """Run one experiment; rows are computed in n order in the calling thread."""
    if config.family == "custom-file":
        with open(config.form_file) as f:
            payload = json.load(f)
        if isinstance(payload, dict):
            payload = [payload]
        elif not isinstance(payload, list):
            raise ValueError(
                f"form file {config.form_file} must hold a form object or a list "
                f"of them, not {type(payload).__name__}"
            )
        if not payload:
            raise ValueError(f"form file {config.form_file} holds no forms")
        rows = [_form_row(config, f.shape[0], f) for f in map(form_from_obj, payload)]
    else:
        base, k = config, config.k
        if config.family == "product_extension":  # its base's rows (module docstring)
            base = replace(config, family="ksz", m=k, p=config.p[:k], r=config.r[:k], k=None)
        rows = _generated_rows(base)
    return GrowthSeries(config=config, rows=tuple(rows))


def check_tolerance(tol: float) -> None:
    """Reject a fit tolerance that is negative or not finite."""
    # inf passes every fit, a negative tolerance fails every match, NaN is no JSON
    if not 0.0 <= tol < INF:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")


def _verdict(slope, r2, n_points, s, tol, mode) -> str:
    if mode not in ("match", "upper_bound"):
        raise ValueError(f"unknown mode {mode!r}")
    check_tolerance(tol)
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
    variance mean). Non-finite and nonpositive ratios are rejected, and so
    is a tolerance that is negative or not finite; fewer than 3 points
    yields an inconclusive fit with NaN slope.
    """
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
        slope = intercept = math.nan
        r2 = 0.0
    else:
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
    """Re-judge an existing fit under another mode/tolerance (finite, >= 0)."""
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
    obj = {key: v for key, v in vars(config).items() if v is not None}
    obj["p"] = [exponent_to_json(pj) for pj in config.p]
    obj["r"] = [exponent_to_json(rj) for rj in config.r]
    obj["n_values"] = list(config.n_values)
    return obj


_FIELD_CASTS = {
    "m": _integer,
    "p": _vector(float),
    "r": _vector(float),
    "n_values": _vector(_integer),
    "norm_method": str,
    "restarts": _integer,
    "seed": _integer,
    "tol": float,
    "draws": _integer,
    "k": _integer,
    "form_file": str,
}


def config_from_obj(obj) -> ExperimentConfig:
    """ExperimentConfig from a JSON object; absent or null fields take the defaults."""
    try:
        missing = [key for key in ("family", "m", "p", "r") if obj.get(key) is None]
    except AttributeError:
        raise ValueError("a config must be a JSON object") from None
    if missing:
        raise ValueError(f"config object is missing required fields {missing}")
    kwargs = {"family": obj["family"]}
    for key, cast in _FIELD_CASTS.items():
        if obj.get(key) is not None:
            kwargs[key] = _read_field(obj, key, cast, "config")
    return ExperimentConfig(**kwargs)


def report_obj(series: GrowthSeries, fit: FitResult) -> dict:
    """JSON-ready experiment report: config, rows, fit, full prediction."""
    return {
        "config": config_to_obj(series.config),
        # flat fields: a shallow copy, in declaration order, is asdict's
        "rows": [dict(vars(row)) for row in series.rows],
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
