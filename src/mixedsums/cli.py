"""Command-line surface for batch use.

Subcommands:
  exponent       predicted exponents for (m, p, r)
  mixed-norm     mixed ell_r norm of a tensor/form JSON file
  norm           operator-norm estimate of a form JSON file
  generate       write a form JSON file (ksz/diagonal/row/product_extension)
  experiment     growth experiment -> CSV + JSON report, verdict on stdout
  verify-holder  fuzz the mixed Hoelder inequality

Exponent tokens are decimals, fractions like 4/3, or inf; vectors are
comma-separated. Exit codes: 0 success; 1 domain error (regime violation,
bad file, violated inequality, a norm not finite in float64), every rule
on families, options, arities and exponent vectors among them, in the
library's words; 2 what only the CLI refuses: argparse errors (an
exponent token that is no exponent, such as --p 0 or nan, among them),
missing experiment flags, --config with inline config flags (--family
through --form-file), verify-holder's flag rules, and an output that
would overwrite an input.
Honors NO_COLOR.

experiment refuses, as a usage error before any row runs, an output that
is one of its inputs (the --config file or the form file) and a CSV and
report that are one file. Files are compared by identity, device and
inode, so a hard link or a symlink to an input, or another spelling of
its path, counts as the input; an input that does not exist yet is
compared by path. The CSV and report may both name one device, such as
/dev/null.

Output files (generate's form, experiment's CSV and report) are rewritten
in place and their old tail cut, so a rerun into the same paths leaves
the bytes a fresh run writes; a path that is no regular file, such as
/dev/null, is written without the cut. This is not crash-safe the way a
truncate-and-rewrite is on ext4: if the machine (not the process) goes
down before the page cache is written back, a rerun's output can be left
at its new length holding old bytes, or a mix of old and new pages, where
after open(path, "w") it holds the old bytes or a prefix of the new ones.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np

from . import _rng
from .exponents import INF, exponent_to_json, predict
from .forms import form_from_obj, form_to_obj, ksz_bound_exponent
from .growth import (
    DEFAULT_FIT_TOLERANCE,
    FAMILIES,
    NORM_METHODS,
    ExperimentConfig,
    check_tolerance,
    config_from_obj,
    estimate_norm,
    loglog_fit,
    make_form,
    report_obj,
    run_growth,
    series_to_csv,
)
from .norms import DEFAULT_BUDGET, DEFAULT_MAX_ITERS, DEFAULT_RESTARTS, DEFAULT_TOL
from .norms import estimate_to_obj
from .tensors import (
    NumericalError,
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


def _parse_groups(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(parse_vector(part) for part in text.split(";"))


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


def _write_text(path: str, text: str) -> None:
    """Write `text` over `path` without O_TRUNC, then cut the old tail.

    Once written, the file holds what open(path, "w") leaves, with the same
    path resolution, mode and errors. On ext4 a truncate to zero makes the
    close start writeback (auto_da_alloc), ~0.1 ms for a 2 KB file, and
    writing over the bytes does not; a new file costs the same either way,
    so only reruns into existing outputs gain. The price is the crash
    consistency stated in the module docstring.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as f:
        f.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            f.truncate()


def cmd_mixed_norm(args) -> int:
    tensor = tensor_from_obj(_load_json(args.input))
    result = mixed_norm(tensor, args.r)
    print(repr(result.value))
    return 0


def cmd_norm(args) -> int:
    form = form_from_obj(_load_json(args.input))
    est = estimate_norm(
        form, args.method, args.restarts, args.seed, args.tol, args.max_iters, args.budget
    )
    print(json.dumps(estimate_to_obj(est), indent=2))
    return 0


def cmd_generate(args) -> int:
    form = make_form(
        args.family, args.m, args.n, args.p, args.seed, args.k,
        n2=args.n2, complex_phases=args.complex,
    )
    if args.family in ("ksz", "product_extension"):
        base = "base " if args.family == "product_extension" else ""
        note = f"{base}bound exponent {ksz_bound_exponent(args.p[: args.k])!r}"
    else:
        note = "closed-form norm available"
    # one dumps: json.dump writes token by token through the Python encoder
    _write_text(args.out, json.dumps(form_to_obj(form)) + "\n")
    print(f"wrote {args.out}: kind={form.kind} shape={form.shape} ({note})")
    return 0


def _file_id(path: str) -> tuple[int, int, bool] | None:
    """(st_dev, st_ino, is a regular file) of the file path names, through
    symlinks; None when there is none to stat."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino, stat.S_ISREG(st.st_mode)


def _check_outputs(csv: str, report: str, inputs: list[str]) -> None:
    """Refuse an output that is an input file, and a CSV and report that are one file.

    Files are compared by identity, so a hard link, a symlink or another
    spelling of an input counts as that input. An output that does not
    exist is no input; an input that does not exist is compared by
    realpath, so an output path that names it is still refused. The CSV
    and report are one file when they are the same regular file, or the
    same path by realpath while neither exists; two device paths, such as
    /dev/null twice, may be the same file.
    """
    ids = {path: _file_id(path) for path in (csv, report, *inputs)}
    for kind, path in (("CSV", csv), ("report", report)):
        for source in inputs:
            if ids[source] is None:
                same = os.path.realpath(path) == os.path.realpath(source)
            else:
                same = ids[path] is not None and ids[path][:2] == ids[source][:2]
            if same:
                raise UsageError(f"the {kind} path {path} would overwrite the input {source}")
    a, b = ids[csv], ids[report]
    if (a is not None and a == b and a[2]) or (
        a is None and b is None and os.path.realpath(csv) == os.path.realpath(report)
    ):
        raise UsageError(f"the CSV path {csv} and the report path {report} are one file")


def cmd_experiment(args) -> int:
    inline = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    inline = {key: v for key, v in inline.items() if v is not None}
    if args.config:
        if inline:
            flags = ", ".join("--" + name.replace("_", "-") for name in inline)
            raise UsageError(f"--config takes no inline config flags, got {flags}")
        config = config_from_obj(_load_json(args.config))
    else:
        missing = [f"--{key}" for key in ("family", "m", "p", "r") if key not in inline]
        if missing:
            raise UsageError("without --config, " + ", ".join(missing) + " are required")
        config = config_from_obj(inline)
    report_path = args.report or os.path.splitext(args.out)[0] + ".json"
    _check_outputs(args.out, report_path, [p for p in (args.config, config.form_file) if p])
    check_tolerance(args.tolerance)  # before any row runs
    series = run_growth(config)
    fit = loglog_fit(series, tolerance=args.tolerance, mode=args.mode)
    _write_text(args.out, series_to_csv(series))
    _write_text(report_path, json.dumps(report_obj(series, fit), indent=2) + "\n")
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
    for flag, value, least in (
        ("--m", args.m, 1), ("--n", args.n, 1), ("--N", args.N, 1), ("--trials", args.trials, 0)
    ):
        if value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")
    fixed = None
    if (args.r is None) != (args.q is None):
        raise UsageError("--r and --q must be given together")
    if args.r is not None:
        m = len(args.r)
        if any(len(gr) != m for gr in args.q):
            raise UsageError(f"every ;-group in --q must have {m} entries")
        N = len(args.q)
        q = [[args.q[k][j] for k in range(N)] for j in range(m)]
        try:
            check_splitting(args.r, q)
        except ValueError as e:
            raise UsageError(str(e)) from None
        fixed = (args.r, q, N)

    passed = 0
    slacks = []
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
        # one factor, or tensors of one entry, make an equality: slack 0
        if N >= 2 and math.prod(shape) >= 2:
            slacks.append(check.slack)
        if check.holds:
            passed += 1
    worst = repr(min(slacks)) if slacks else "n/a"
    print(
        f"{passed}/{args.trials} pass; worst slack {worst} over the "
        f"{len(slacks)} trials with N >= 2 and size >= 2"
    )
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
            help="has no effect (all work runs in one thread); kept because "
            "existing scripts, among them the benchmark harness, pass it",
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
    p.add_argument(
        "--method", choices=[m for m in NORM_METHODS if m != "paper_bound"], default="ascent"
    )
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    add_threads(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("generate", help="write a form JSON file")
    p.add_argument(
        "--family", choices=[f for f in FAMILIES if f != "custom-file"], required=True
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
    p.add_argument("--config", help="JSON config file, in place of --family .. --form-file")
    p.add_argument("--family")
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=parse_vector)
    p.add_argument("--r", type=parse_vector)
    p.add_argument("--n-values", type=parse_int_vector, dest="n_values")
    p.add_argument("--norm-method", dest="norm_method")
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--draws", type=int)
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
        type=_parse_groups,
        help="fixed splitting: one comma-vector per factor, ;-separated",
    )
    p.set_defaults(func=cmd_verify_holder)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the tree costs more than parsing one command line
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # a sum that overflows or turns NaN ends in a NumericalError, which
        # is the one report; numpy's warnings on the way would only precede it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, NumericalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
