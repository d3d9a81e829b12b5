"""Command-line surface for batch use.

Subcommands:
  exponent       predicted exponents for (m, p, r)
  mixed-norm     mixed ell_r norm of a tensor/form JSON file
  norm           operator-norm estimate of a form JSON file
  generate       write a form JSON file (ksz/diagonal/row/product_extension)
  experiment     growth experiment -> CSV + JSON report, verdict on stdout
  verify-holder  fuzz the mixed Hoelder inequality

Exponent tokens are decimals, fractions like 4/3, or inf; vectors are
comma-separated. Exit codes: 0 success, 1 domain error (regime violation,
bad file, violated inequality), 2 usage error. Honors NO_COLOR.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import _rng
from .exponents import INF, exponent_to_json, predict
from .forms import (
    diagonal_form,
    form_from_obj,
    form_to_obj,
    ksz_random_form,
    product_extension,
    row_form,
)
from .growth import (
    DEFAULT_FIT_TOLERANCE,
    compare,
    config_from_obj,
    loglog_fit,
    report_obj,
    run_growth,
    series_to_csv,
)
from .norms import (
    alternating_ascent,
    analytic_norm,
    brute_force_norm,
    estimate_to_obj,
)
from .tensors import (
    check_splitting,
    holder_verify,
    mixed_norm,
    random_splitting,
    tensor_from_obj,
)

__all__ = ["main"]


def parse_exponent(token: str) -> float:
    tok = token.strip()
    try:
        value = float(Fraction(tok)) if "/" in tok else float(tok)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad exponent token {token!r}") from None
    if math.isnan(value) or value <= 0.0:
        raise ValueError(f"exponent must be positive, got {token!r}")
    return value


def parse_vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(parse_exponent(tok) for tok in text.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def parse_int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


def _fmt(x) -> str:
    if x is None:
        return "-"
    return str(exponent_to_json(x))


def _color(text: str, code: str) -> str:
    if sys.stdout.isatty() and not os.environ.get("NO_COLOR"):
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


VERDICT_COLORS = {"consistent": "32", "inconsistent": "31", "inconclusive": "33"}


def cmd_exponent(args) -> int:
    if len(args.p) != args.m or len(args.r) != args.m:
        raise UsageError(f"--p and --r must each have {args.m} entries")
    report = predict(args.m, args.p, args.r)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    d = report.to_dict()
    flags = d.pop("flags")
    for key, value in d.items():
        if value is None:
            continue
        if isinstance(value, list):
            value = "(" + ", ".join(_fmt(v) for v in value) + ")"
        print(f"{key} = {_fmt(value)}")
    for key, value in flags.items():
        print(f"flags.{key} = {str(value).lower()}")
    return 0


def _load_json(path: str):
    with open(path) as f:
        return json.load(f)


def cmd_mixed_norm(args) -> int:
    tensor = tensor_from_obj(_load_json(args.input))
    result = mixed_norm(tensor, args.r)
    print(repr(result.value))
    return 0


def cmd_norm(args) -> int:
    form = form_from_obj(_load_json(args.input))
    if args.method == "brute":
        est = brute_force_norm(form, budget=args.budget)
    elif args.method == "analytic":
        est = analytic_norm(form)
        if est is None:
            raise ValueError(f"no analytic norm for form kind {form.kind!r}")
    else:
        est = alternating_ascent(
            form,
            restarts=args.restarts,
            seed=args.seed,
            tol=args.tol,
            max_iters=args.max_iters,
            threads=args.threads,
        )
    print(json.dumps(estimate_to_obj(est), indent=2))
    return 0


def cmd_generate(args) -> int:
    if len(args.p) != args.m:
        raise UsageError(f"--p must have {args.m} entries")
    if args.family == "ksz":
        form, cert = ksz_random_form(
            args.m, args.n, args.p, args.seed, complex_phases=args.complex
        )
        note = f"bound exponent {cert.bound_exponent!r}"
    elif args.family == "diagonal":
        form = diagonal_form(args.m, args.n, args.p)
        note = "closed-form norm available"
    elif args.family == "row":
        if args.m != 2:
            raise UsageError("row family requires --m 2")
        form = row_form(args.n, args.n2 or args.n, args.p)
        note = "closed-form norm available"
    else:
        if args.k is None or not 1 <= args.k <= args.m:
            raise UsageError("product_extension requires --k in [1, m]")
        base, cert = ksz_random_form(args.k, args.n, args.p[: args.k], args.seed)
        form = product_extension(
            base, args.m, args.p[args.k :], tail_dims=(args.n,) * (args.m - args.k)
        )
        note = f"base bound exponent {cert.bound_exponent!r}"
    with open(args.out, "w") as f:
        json.dump(form_to_obj(form), f)
        f.write("\n")
    print(f"wrote {args.out}: kind={form.kind} shape={form.shape} ({note})")
    return 0


def cmd_experiment(args) -> int:
    if args.config:
        config = config_from_obj(_load_json(args.config))
    else:
        missing = [
            flag
            for flag, val in (
                ("--family", args.family),
                ("--m", args.m),
                ("--p", args.p),
                ("--r", args.r),
            )
            if val is None
        ]
        if missing:
            raise UsageError(
                "without --config, " + ", ".join(missing) + " are required"
            )
        config = config_from_obj(vars(args))
    series = run_growth(config, threads=args.threads)
    fit = loglog_fit(series, tolerance=args.tolerance, mode=args.mode)
    with open(args.out, "w") as f:
        f.write(series_to_csv(series))
    report_path = args.report or os.path.splitext(args.out)[0] + ".json"
    with open(report_path, "w") as f:
        json.dump(report_obj(series, fit), f, indent=2)
        f.write("\n")
    label = "bound-relative " if fit.bound_relative else ""
    verdict = _color(fit.verdict, VERDICT_COLORS.get(fit.verdict, "0"))
    predicted = fit.predicted.best_exponent()
    print(
        f"{label}verdict: {verdict} (mode={fit.mode}, slope={_fmt(fit.slope)}, "
        f"predicted={_fmt(predicted)}, r_squared={_fmt(fit.r_squared)}, "
        f"tolerance={fit.tolerance})"
    )
    return 0


def cmd_verify_holder(args) -> int:
    fixed = None
    if (args.r is None) != (args.q is None):
        raise UsageError("--r and --q must be given together")
    if args.r is not None:
        m = len(args.r)
        groups = [parse_vector(part) for part in args.q.split(";")]
        if any(len(gr) != m for gr in groups):
            raise UsageError(f"every ;-group in --q must have {m} entries")
        N = len(groups)
        q = [[groups[k][j] for k in range(N)] for j in range(m)]
        try:
            check_splitting(args.r, q)
        except ValueError as e:
            raise UsageError(str(e)) from None
        fixed = (args.r, q, N)

    passed = 0
    worst = math.inf
    for t in range(args.trials):
        g = _rng.stream(args.seed, t)
        if fixed is None:
            m = int(g.integers(1, args.m + 1))
            N = int(g.integers(1, args.N + 1))
            shape = tuple(int(x) for x in g.integers(1, args.n + 1, size=m))
            r = [
                INF if g.random() < 0.2 else float(0.5 + 3.5 * g.random())
                for _ in range(m)
            ]
            q = [random_splitting(g, rj, N) for rj in r]
        else:
            r, q, N = fixed
            shape = (args.n,) * len(r)
        tensors = [g.standard_normal(shape) for _ in range(N)]
        check = holder_verify(tensors, r, q)
        worst = min(worst, check.slack)
        if check.holds:
            passed += 1
    worst_text = "n/a" if args.trials == 0 else repr(worst)
    print(f"{passed}/{args.trials} pass; worst slack {worst_text}")
    return 0 if passed == args.trials else 1


class UsageError(Exception):
    """Bad flag combination detected after argparse."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedsums",
        description="mixed-sum norms of multilinear forms: exponents, norms, growth experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p):
        p.add_argument(
            "--threads",
            type=int,
            default=os.cpu_count() or 1,
            help="accepted for compatibility; has no effect",
        )

    p = sub.add_parser("exponent", help="predicted exponents for (m, p, r)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=parse_vector, required=True)
    p.add_argument("--r", type=parse_vector, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("mixed-norm", help="mixed ell_r norm of a tensor/form file")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=parse_vector, required=True)
    p.set_defaults(func=cmd_mixed_norm)

    p = sub.add_parser("norm", help="operator-norm estimate of a form file")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("ascent", "brute", "analytic"), default="ascent")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--budget", type=int, default=2**24)
    add_threads(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("generate", help="write a form JSON file")
    p.add_argument(
        "--family",
        choices=("ksz", "diagonal", "row", "product_extension"),
        required=True,
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n2", type=int, help="second dimension for row forms")
    p.add_argument("--p", type=parse_vector, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, help="base arity for product_extension")
    p.add_argument("--complex", action="store_true", help="unimodular phases (ksz)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("experiment", help="growth experiment -> CSV + JSON report")
    p.add_argument("--config", help="JSON config file (overrides inline flags)")
    p.add_argument("--family")
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=parse_vector)
    p.add_argument("--r", type=parse_vector)
    p.add_argument("--n-values", type=parse_int_vector, dest="n_values")
    p.add_argument("--norm-method", default="ascent", dest="norm_method")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--draws", type=int, default=1)
    p.add_argument("--k", type=int)
    p.add_argument("--form-file", dest="form_file")
    p.add_argument("--mode", choices=("match", "upper_bound"), default="match")
    p.add_argument("--tolerance", type=float, default=DEFAULT_FIT_TOLERANCE)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--report", help="JSON report path (default: out with .json)")
    add_threads(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify-holder", help="fuzz the mixed Hoelder inequality")
    p.add_argument("--m", type=int, default=2, help="max arity")
    p.add_argument("--n", type=int, default=4, help="max size per axis")
    p.add_argument("--N", type=int, default=2, help="max number of factors")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r", type=parse_vector, help="fixed outer exponents")
    p.add_argument(
        "--q",
        help="fixed splitting: one comma-vector per factor, ;-separated",
    )
    p.set_defaults(func=cmd_verify_holder)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
