"""Compare the deterministic experiment payloads of two source trees.

Usage:
    python tools/compare_outputs.py OLD_SRC [NEW_SRC]

Each SRC is a directory that contains the ``mixedsums`` package (a tree's
``src``); NEW_SRC defaults to this checkout's ``src``. For every tree the
script computes, in a fresh interpreter, the payloads of ``digests``:
``series_to_csv`` plus ``report_obj`` of growth experiments (the
``bundled_suite()`` battery, the ``bound_growth`` benchmark experiments,
and STACKED, DRAWN and PAPER_BOUND at each seed of SEEDS), the value and
witness bytes of ``brute_force_norm`` (the ``brute_exact`` benchmark forms
and ``brute_payloads``), the exit code, output and written files of
``cli.main`` runs (``cli_payloads``, among them the two EXPERIMENTS that
brute refuses for a finite p in an enumerated slot; every ``generate`` and
``experiment`` run writes over outputs left holding JUNK bytes, so a stale
tail shows against a tree that truncates), and the bits of ``fiber_norms`` and
``mixed_norm`` (``kernel_payloads``, ``broadcast_payloads``,
``exact_payloads`` and ``repeated_payloads``), the reports of
``exponents.predict`` over a grid of (m, p, r) (``predict_payloads``),
the two case exponents of ``unified_exponent`` over the same grid at
m >= 2 (``unified_payloads``),
the bits of ``compensated_sum`` (``sum2_payloads``), and the value and
witness bytes of ``alternating_ascent`` at restart seeds of one and two
words (``ascent_payloads``). It prints the sha256 of each payload on one
line and exits 1 if any payload differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 5)

# name -> generate flags; each form is written to <name>.json
FORMS = {
    "ksz": "--family ksz --m 2 --n 6 --p inf,inf --seed 3",
    "ksz_p4": "--family ksz --m 2 --n 8 --p 4,4 --seed 4",
    "ksz_complex": "--family ksz --m 2 --n 5 --p 3,inf --seed 5 --complex",
    "ksz_m3": "--family ksz --m 3 --n 4 --p inf,inf,inf --seed 6",
    "diagonal": "--family diagonal --m 3 --n 5 --p 4,4,2",
    "row": "--family row --m 2 --n 4 --p inf,3",
    "row_n2": "--family row --m 2 --n 3 --n2 7 --p 2,4/3",
    "product_extension": "--family product_extension --m 3 --k 2 --n 4 --p inf,inf,inf --seed 8",
    "row_m3": "--family row --m 3 --n 4 --p 2,2,2",
    "product_extension_no_k": "--family product_extension --m 3 --n 4 --p 2,2,2",
    "ksz_p1": "--family ksz --m 2 --n 7 --p 1,3 --seed 9",
    "ksz_m3_finite": "--family ksz --m 3 --n 5 --p 4,2,3 --seed 10",
    "ksz_m1": "--family ksz --m 1 --n 9 --p 3 --seed 11",
    "ksz_m1_inf": "--family ksz --m 1 --n 9 --p inf --seed 11",
    "ksz_n64": "--family ksz --m 2 --n 64 --p 4,4 --seed 12",
}
# norm runs as (form name, extra flags)
NORMS = [
    ("ksz", "--method brute"),
    ("ksz_m3", "--method brute"),
    ("product_extension", "--method brute"),
    ("product_extension", "--method ascent --restarts 3"),
    ("ksz_p4", "--method brute"),
    ("ksz", "--method ascent"),
    ("ksz_p4", "--method ascent --restarts 4 --seed 2"),
    ("ksz_complex", "--method ascent --max-iters 3"),
    ("diagonal", "--method ascent --tol 1e-6"),
    ("diagonal", "--method analytic"),
    ("row_n2", "--method analytic"),
    ("ksz", "--method analytic"),
    ("ksz_p1", "--method ascent"),
    ("ksz_m3_finite", "--method ascent --restarts 6"),
    ("ksz_m1", "--method ascent"),
    ("ksz_n64", "--method ascent"),
    ("ksz_p4", "--method ascent --max-iters 2"),
    ("ksz_m1_inf", "--method brute"),
    # restart seeds whose keys SeedSequence masks to 64 bits or splits in two words
    ("ksz_p4", "--method ascent --seed -3"),
    ("ksz_m3_finite", "--method ascent --seed 4294967296"),
]
# generated forms listed in one custom-file form file, forms.json
FORM_LIST = ("ksz", "ksz_p4", "row", "ksz_complex")
# experiment flags; {tmp} is the directory of the generated form files
EXPERIMENTS = [
    "--family ksz --m 2 --p inf,inf --r 1,1 --n-values 2,3,4 --norm-method brute --draws 3",
    "--family row --m 2 --p 5,2 --r 1,1 --n-values 2,4,8",
    "--family product_extension --m 3 --k 2 --p inf,inf,inf --r 1,2,2 --n-values 2,3,4 --norm-method paper_bound",
    "--family ksz --m 2 --p 4,4 --r 1,2 --n-values 2,3,4,5 --draws 3 --restarts 4 --seed 3",
    "--family ksz --m 2 --p 4,inf --r 1,1 --n-values 2,4,8 --norm-method paper_bound --draws 5",
    "--family diagonal --m 3 --p 4,4,2 --r 1,1,2 --n-values 2,4,8 --norm-method paper_bound --draws 5",
    "--family row --m 2 --p inf,3 --r 1,1 --n-values 2,3,5,8 --norm-method paper_bound",
    "--family custom-file --m 2 --p inf,inf --r 1,1 --norm-method ascent --restarts 3 --form-file {tmp}/forms.json",
    "--family custom-file --m 2 --p inf,inf --r 1,1 --norm-method brute --form-file {tmp}/ksz.json",
]
# seeds that SeedSequence takes as two 32-bit words: 2**32, -3 (masked to
# 2**64 - 3) and 2**63 + 5. A row's sign stream is keyed (seed, n), so these
# experiments pin the 64-bit masking and the two-word seeds of row streams
for _seed in (4294967296, -3, 9223372036854775813):
    EXPERIMENTS += [
        "--family ksz --m 2 --p inf,inf --r 1,1 --n-values 2,3,4,5,6 "
        f"--norm-method brute --draws 20 --seed {_seed}",
        "--family product_extension --m 3 --k 1 --p inf,inf,inf --r 1,1,2 --n-values 2,4,6,8 "
        f"--norm-method brute --draws 6 --seed {_seed}",
    ]
EXPERIMENTS.append(
    "--family ksz --m 2 --p 4,4 --r 1,2 --n-values 2,3,4 --draws 3 --restarts 4 --seed -3"
)
# brute scans product_extension bases: at n = 14 and 16 the m = 3
# extensions would need 2**26 and 2**30 sign patterns, and a pinned slot
# may have a finite p, since brute does not enumerate it
EXPERIMENTS += [
    "--family product_extension --m 3 --k 2 --p inf,inf,inf --r 1,2,2 --n-values 12,14,16 "
    "--norm-method brute",
    "--family product_extension --m 3 --k 2 --p inf,inf,4 --r 1,2,2 --n-values 2,4,6,8,10 "
    "--norm-method brute --draws 3",
]
# brute refuses a finite p in a slot it enumerates: all of a ksz form's and
# the first k of a product_extension's (ExperimentConfig's brute rule)
EXPERIMENTS += [
    "--family ksz --m 2 --p inf,4 --r 1,1 --n-values 2,3,4 --norm-method brute",
    "--family product_extension --m 3 --k 2 --p inf,4,inf --r 1,2,2 --n-values 2,3,4 "
    "--norm-method brute",
]
# what generate and experiment outputs hold before each run: more bytes
# than any run writes
JUNK = ("junk\n" * 65536)[:65536]
# exponent grid: every m, a p common to all slots or with the last slot
# 3/2 (the anisotropic regime), and r common to all slots or r_1 then 2s
EXPONENT_P = ("inf", "6", "4", "2", "3/2")
EXPONENT_R = ("1", "4/3", "2", "3")
# predict grid: p is (p_j,) * (m - 1) + (last,) for last p_j, 3/2 and 2,
# r is (r_1,) + (rest,) * (m - 1) for rest r_1, 2 and 3, m = 1..4. It holds
# case 1 (with empty, proper and full M_<^2), case 2, alt, delta, linear,
# m = 1 with p < 1, and |1/p| > 1/2, where no unified case applies
PREDICT_P = (float("inf"), 8.0, 6.0, 4.0, 3.0, 2.0, 1.5, 1.05, 1.0, 0.5)
PREDICT_R = (0.5, 1.0, 4 / 3, 1.5, 2.0, 3.0, 600.0, float("inf"))
# verify-holder flags
HOLDER = ["--trials 40", "--trials 40 --m 3 --N 4 --seed 9"]
# fiber lengths: one entry, one that does not divide the 2**15-entry
# block, and more than one block per fiber
KERNEL_SHAPES = [(6, 1), (25, 3000), (2, 40000), (3, 7, 300)]
KERNEL_R = (0.5, 1.0, 4 / 3, 2.0, 3.0, 600.0, float("inf"))
# brute-force shapes of the integer and fractional forms
BRUTE_SHAPES = [(10, 10), (14, 6), (5, 5, 5), (6, 4, 3)]
# shapes at the low-table floor of 2**13 sign patterns: below it (13), at
# it with no high table (14), just above it (15), and on a first slot
SPLIT_SHAPES = [(13, 13), (14, 14), (15, 15), (14, 3, 3)]
# square int16 forms whose leaf has a high table of 4, 16 and 64 patterns,
# so that the scan skips the patterns whose bound falls short (_scan_pruned)
PRUNE_SIZES = (16, 18, 20)
# sizes of the diagonal forms of brute:all-ties. Every sign pattern of
# these and of the 16 x 16 row form ties, so the pruned scan skips none
ALL_TIES_N = (16, 18, 20)
# multi-draw brute experiments, whose draws are scanned as one stack; the
# last has 300 draws of 16 x 16 at n = 16, more than one stack holds
INF = float("inf")
STACKED = [
    dict(family="ksz", m=3, p=(INF,) * 3, r=(1.0, 2.0, 2.0), n_values=(2, 3, 4, 5), draws=20),
    dict(family="product_extension", m=3, k=1, p=(INF,) * 3, r=(1.0, 1.0, 2.0),
         n_values=(2, 4, 6, 8), draws=6),
    dict(family="ksz", m=2, p=(INF, INF), r=(1.0, 1.0), n_values=(8, 12, 16), draws=300),
]
# brute and ascent experiments that STACKED leaves out: one draw, ascent,
# ascent at n = 200..300, where a stack of 2**16 coefficients holds one
# draw, product_extension rows whose r leaves {1, 2}, and product_extension
# ascent at a finite base p up to n = 64, where an m-linear draw would
# hold 2**18 coefficients; product_extension rows are those of the k-linear
# base experiment
DRAWN = [
    dict(family="ksz", m=2, p=(INF, INF), r=(1.0, 1.0), n_values=(2, 3, 4, 5, 6),
         norm_method="brute"),
    dict(family="product_extension", m=3, k=2, p=(INF,) * 3, r=(1.0, 2.0, 2.0),
         n_values=(2, 3, 4), norm_method="brute"),
    dict(family="ksz", m=2, p=(4.0, 4.0), r=(1.0, 2.0), n_values=(2, 4, 8),
         norm_method="ascent", restarts=4),
    dict(family="product_extension", m=3, k=1, p=(4.0, INF, 2.0), r=(1.0, 2.0, 2.0),
         n_values=(2, 4, 8), norm_method="ascent", restarts=4, draws=4),
    dict(family="ksz", m=2, p=(4.0, 4.0), r=(1.0, 2.0), n_values=(200, 250, 300),
         norm_method="ascent", restarts=2, draws=2),
    dict(family="product_extension", m=3, k=1, p=(INF,) * 3, r=(4 / 3, 3.0, 0.5),
         n_values=(2, 4, 6, 8), norm_method="brute", draws=3),
    dict(family="product_extension", m=4, k=2, p=(INF,) * 4, r=(1.0, 4 / 3, 600.0, INF),
         n_values=(2, 3, 4), norm_method="brute", draws=2),
    dict(family="product_extension", m=3, k=2, p=(4.0, INF, 2.0), r=(1.5, 3.0, 4 / 3),
         n_values=(2, 4, 8), norm_method="ascent", restarts=4, draws=2),
    dict(family="product_extension", m=3, k=1, p=(4.0, INF, 2.0), r=(1.0, 2.0, 2.0),
         n_values=(16, 32, 64), norm_method="ascent"),
]
# paper_bound experiments whose lhs leaves the plain-sum path: Sum2, the
# scale by the largest modulus at r > 512, and the supremum; the fourth
# puts an n = 2048 modulus through Sum2 in many blocks, and the last has
# r < 1 on a base of two slots in four
PAPER_BOUND = [
    dict(family="ksz", m=1, p=(4.0,), r=(3.0,), n_values=(3, 10, 100, 1000)),
    dict(family="ksz", m=3, p=(INF, 4.0, 2.0), r=(4 / 3, INF, 600.0), n_values=(2, 5, 9, 16)),
    dict(family="product_extension", m=3, k=1, p=(INF,) * 3, r=(4 / 3, 3.0, INF),
         n_values=(2, 4, 8, 16)),
    dict(family="ksz", m=2, p=(INF, INF), r=(4 / 3, 3.0), n_values=(64, 256, 1024, 2048)),
    dict(family="ksz", m=3, p=(INF,) * 3, r=(1.0, 2.0, 1.5), n_values=(16, 64, 128, 256)),
    dict(family="product_extension", m=4, k=2, p=(INF,) * 4, r=(0.5, 3.0, 4 / 3, INF),
         n_values=(2, 4, 8, 16)),
]
# broadcast views as (name, base shape, view shape): the base's axes of
# length 1 are repeated with stride 0, leading, in the middle, on the fiber
# axis and mixed
BROADCAST = [
    ("leading", (1, 1, 300), (40, 7, 300)),
    ("middle", (6, 1, 300), (6, 9, 300)),
    ("last", (25, 1), (25, 3000)),
    ("mixed", (1, 5, 1, 40), (3, 5, 4, 40)),
]
# fiber lengths of the repeated-entry views at the 2**53 switch
REPEATED_N = (3, 2048)
# fiber lengths of the long repeated-entry views, far past bound_growth's
# 2048; the second is odd and prime
LONG_N = (2**20, 1_000_003)
# lengths of the compensated_sum rows that repeat a y near the largest
# float / n; the last two are those of LONG_N
NEAR_MAX_N = (2, 3, 97, 2999, 2**20, 1_000_003)
# shapes of the integer tensors that fiber_norms adds without Sum2
EXACT_SHAPES = [(6, 1), (25, 3000), (2, 40000), (3, 7, 300), (64, 64)]
# ascent seeds at the edges of the restart streams' (seed, t) keys: the
# largest one-word seed, two-word seeds, and one masked to 64 bits
RESTART_SEEDS = (2**32 - 1, 2**63 + 5, 2**64 - 1, 2**70 + 3)


def cli_payloads(tmp: Path) -> dict[str, str]:
    """Exit code, output and written files of CLI runs, keyed by name."""
    from mixedsums import cli

    def run(argv: list[str], *files: Path) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        texts = [str(code), out.getvalue(), err.getvalue()]
        texts += [f.read_text() if f.exists() else "-" for f in files]
        return "\0".join(texts).replace(str(tmp), "<tmp>")

    out = {}
    for name, flags in FORMS.items():
        path = tmp / f"{name}.json"
        path.write_text(JUNK)
        out[f"cli:generate:{name}"] = run(["generate", *flags.split(), "--out", str(path)], path)
    for name, flags in NORMS:
        argv = ["norm", "--input", str(tmp / f"{name}.json"), *flags.split()]
        out[f"cli:norm:{name}:{flags}"] = run(argv)
    listed = [json.loads((tmp / f"{name}.json").read_text()) for name in FORM_LIST]
    (tmp / "forms.json").write_text(json.dumps(listed))
    for idx, flags in enumerate(EXPERIMENTS):
        csv = tmp / f"experiment{idx}.csv"
        for path in (csv, csv.with_suffix(".json")):
            path.write_text(JUNK)
        argv = ["experiment", *flags.format(tmp=tmp).split(), "--out", str(csv)]
        out[f"cli:experiment{idx}"] = run(argv, csv, csv.with_suffix(".json"))
    for m in (1, 2, 3):
        runs = []
        for pj, rj in itertools.product(EXPONENT_P, EXPONENT_R):
            for p in dict.fromkeys([(pj,) * m, (pj,) * (m - 1) + ("3/2",)]):
                for r in dict.fromkeys([(rj,) * m, (rj,) + ("2",) * (m - 1)]):
                    argv = ["exponent", "--m", str(m), "--p", ",".join(p), "--r", ",".join(r)]
                    runs.append(run([*argv, "--format", "json"]))
        out[f"cli:exponent:m={m}"] = "\0".join(runs)
    for idx, flags in enumerate(HOLDER):
        out[f"cli:verify-holder{idx}"] = run(["verify-holder", *flags.split()])
    return out


def kernel_payloads() -> dict[str, str]:
    """fiber_norms and mixed_norm bits on data where Sum2 compensates.

    Every bound_growth tensor is +-1, so there each compensation term is 0
    and a broken Sum2 would go unseen.
    """
    import numpy as np
    from mixedsums import forms, tensors

    out = {}
    for idx, shape in enumerate(KERNEL_SHAPES):
        g = np.random.Generator(np.random.PCG64(idx))
        normal = g.standard_normal(shape)
        tensors_by_kind = {
            "normal": normal,
            "mixed": normal * 10.0 ** g.choice([-150.0, 0.0, 150.0], shape),
            "fortran": np.asfortranarray(g.standard_normal(shape)),
            "int": g.integers(-1000, 1000, shape),
            "complex": normal + 1j * g.standard_normal(shape),
        }
        for kind, a in tensors_by_kind.items():
            parts = []
            for r in KERNEL_R:
                parts.append(tensors.fiber_norms(a, r).tobytes().hex())
                rs = (2.0, 3.0, r)[-a.ndim :]
                parts.append(repr(tensors.mixed_norm(a, rs).value))
            out[f"kernel:{kind}:{'x'.join(map(str, shape))}"] = " ".join(parts)
    form, _ = forms.ksz_random_form(2, 2048, (2.0, 2.0), seed=0)
    out["kernel:ksz_random_form(2, 2048)"] = hashlib.sha256(form.coefficients.tobytes()).hexdigest()
    return out


def broadcast_payloads() -> dict[str, str]:
    """fiber_norms and mixed_norm bits on stride-0 views of seeded bases.

    Normal, integer (entries in -3..3, added without Sum2 at r = 1 and 2)
    and complex bases, at every r of KERNEL_R.
    """
    import numpy as np
    from mixedsums import tensors

    out = {}
    for idx, (name, base_shape, shape) in enumerate(BROADCAST):
        g = np.random.Generator(np.random.PCG64(300 + idx))
        bases = {
            "normal": g.standard_normal(base_shape),
            "int3": g.integers(-3, 4, base_shape),
            "complex": g.standard_normal(base_shape) + 1j * g.standard_normal(base_shape),
        }
        for kind, base in bases.items():
            a = np.broadcast_to(base, shape)
            parts = []
            for r in KERNEL_R:
                parts.append(tensors.fiber_norms(a, r).tobytes().hex())
                rs = (r, 2.0, 3.0, r)[-a.ndim :]
                parts.append(repr(tensors.mixed_norm(a, rs).value))
            out[f"broadcast:{name}:{kind}"] = " ".join(parts)
    return out


def exact_payloads() -> dict[str, str]:
    """fiber_norms and mixed_norm bits on integer tensors at r = 1 and 2.

    There a block whose sums stay below 2**53 is added without Sum2. The
    threshold tensors hold one row with 8 * top**r just below 2**53 or at
    it. Two tensors must stay on Sum2: one whose largest moduli are
    integers but whose other entries are not, and one with a row whose
    plain sum is not its exact sum.
    """
    import numpy as np
    from mixedsums import tensors

    def payload(a) -> str:
        parts = []
        for r in (1.0, 2.0):
            parts.append(tensors.fiber_norms(a, r).tobytes().hex())
            parts.append(repr(tensors.mixed_norm(a, (r,) * a.ndim).value))
        if a.ndim > 1:  # (1, 2) or (1, 2, 2)
            parts.append(repr(tensors.mixed_norm(a, (1.0,) + (2.0,) * (a.ndim - 1)).value))
        return " ".join(parts)

    out = {}
    for idx, shape in enumerate(EXACT_SHAPES):
        g = np.random.Generator(np.random.PCG64(200 + idx))
        ints = g.integers(-3, 4, shape)
        name = "x".join(map(str, shape))
        out[f"exact:int3:{name}"] = payload(ints.astype(np.float64))
        out[f"exact:int3-int64:{name}"] = payload(ints)
        out[f"exact:int3-fortran:{name}"] = payload(np.asfortranarray(ints.astype(np.float64)))
        out[f"exact:int3-complex:{name}"] = payload(ints * g.choice([3 + 4j, 5 - 12j, 1j], shape))
    for r, top in ((1, 2**50), (2, 2**25)):
        for largest in (top - 1, top):
            a = np.arange(-12, 12, dtype=np.float64).reshape(3, 8)
            a[1] = largest
            out[f"exact:threshold:r={r}:{largest}"] = payload(a)
    g = np.random.Generator(np.random.PCG64(210))
    fractional = g.standard_normal((25, 3000))
    fractional[:, 0] = 8.0  # an integer largest modulus, fractions below it
    out["exact:fractional-integer-top"] = payload(fractional)
    beyond = np.ones((2, 3))
    beyond[0, 0] = 2.0**53  # 2**53 + 1 + 1, added in order, rounds to 2**53
    out["exact:beyond-threshold"] = payload(beyond)
    return out


def repeated_payloads() -> dict[str, str]:
    """fiber_norms and mixed_norm bits on fibers that repeat one entry.

    Such a fiber's n copies add up to the entry's scaled power times n, one
    multiply, which is what Sum2 over the n copies gives. A contiguous
    fiber of n copies of an integer w is added as n * w**r at r = 1 and 2
    while that is below 2**53, and by Sum2 from there on: the threshold
    views hold w just below that switch and at it. The blocks views have
    17 fibers of 2048, more than one block of 2**15. The long views repeat
    normal and complex entries LONG_N times, on the fiber axis and on both
    axes of a square, so that a comparison with a tree that adds the n
    copies by Sum2 covers the closed form far past 2048.
    """
    import numpy as np
    from mixedsums import tensors

    out = {}
    for r in (1, 2):
        parts = []
        for n in REPEATED_N:
            least = -(-(2**53) // n)  # n * w**r >= 2**53 iff w**r >= least
            w = least if r == 1 else math.isqrt(least - 1) + 1
            for largest in (w - 1, w):
                a = np.broadcast_to(np.array([[largest], [-1.0], [0.0]]), (4, 3, n))
                parts.append(tensors.fiber_norms(a, r).tobytes().hex())
                for rs in ((1.0, 2.0, r), (r, r, r)):
                    parts.append(repr(tensors.mixed_norm(a, rs).value))
        out[f"repeated:threshold:r={r}"] = " ".join(parts)
    g = np.random.Generator(np.random.PCG64(400))
    bases = {
        "normal": g.standard_normal((17, 1)),
        "int3": g.integers(-3, 4, (17, 1)),
        "complex": g.standard_normal((17, 1)) + 1j * g.standard_normal((17, 1)),
    }
    for kind, base in bases.items():
        a = np.broadcast_to(base, (17, 2048))
        parts = []
        for r in KERNEL_R:
            parts.append(tensors.fiber_norms(a, r).tobytes().hex())
            parts.append(repr(tensors.mixed_norm(a, (3.0, r)).value))
        out[f"repeated:blocks:17x2048:{kind}"] = " ".join(parts)
    g = np.random.Generator(np.random.PCG64(401))
    bases = {
        "normal": g.standard_normal((3, 1)),
        "complex": g.standard_normal((3, 1)) + 1j * g.standard_normal((3, 1)),
    }
    for kind, base in bases.items():
        for n in LONG_N:
            a = np.broadcast_to(base, (3, n))
            square = np.broadcast_to(base[:1], (n, n))
            parts = []
            for r in KERNEL_R:
                parts.append(tensors.fiber_norms(a, r).tobytes().hex())
                parts.append(repr(tensors.mixed_norm(a, (3.0, r)).value))
                parts.append(repr(tensors.mixed_norm(square, (r, 4 / 3)).value))
            out[f"repeated:long:{n}:{kind}"] = " ".join(parts)
    return out


def sum2_payloads() -> dict[str, str]:
    """compensated_sum bits on seeded rows and on near-max repeated rows.

    The normal, mixed (entries times 1e-150, 1 or 1e150) and integer rows
    have finite sums. A near-max row repeats, NEAR_MAX_N times, the
    largest y with n * y finite or one of the two floats below it; Sum2
    without scaling takes its running sums past the largest float.
    """
    import numpy as np
    from mixedsums import compensated_sum

    g = np.random.Generator(np.random.PCG64(500))
    normal = g.standard_normal((20, 300))
    rows = {
        "normal": normal,
        "mixed": normal * 10.0 ** g.choice([-150.0, 0.0, 150.0], normal.shape),
        "int": g.integers(-(2**40), 2**40, normal.shape).astype(np.float64),
    }
    out = {f"sum2:{kind}": compensated_sum(x).tobytes().hex() for kind, x in rows.items()}
    parts = []
    for n in NEAR_MAX_N:
        y = sys.float_info.max / n
        while math.isinf(y * n):
            y = math.nextafter(y, 0.0)
        while math.isfinite(math.nextafter(y, math.inf) * n):
            y = math.nextafter(y, math.inf)
        for _ in range(3):
            with np.errstate(over="ignore", invalid="ignore"):
                parts.append(repr(float(compensated_sum(np.full(n, y)))))
            y = math.nextafter(y, 0.0)
    out["sum2:near-max"] = " ".join(parts)
    return out


def ascent_payloads() -> dict[str, str]:
    """alternating_ascent value and witness bytes at each of RESTART_SEEDS.

    32 restarts of one small ksz form, so 32 restart streams (seed, t) are
    seeded in one batch. At p = (4, 4) the bytes of the ascent's end point
    vary with its seed, so a stream seeded wrong shows.
    """
    from mixedsums import alternating_ascent, ksz_random_form

    form, _ = ksz_random_form(2, 8, (4.0, 4.0), seed=13)
    out = {}
    for seed in RESTART_SEEDS:
        est = alternating_ascent(form, 32, seed)
        witness = b"".join(w.tobytes() for w in est.witness)
        out[f"ascent:restart-seeds:{seed}"] = repr(est.value) + witness.hex()
    return out


def predict_grid(m: int):
    """The (p, r) pairs of the PREDICT grid at arity m."""
    for pj, last in itertools.product(PREDICT_P, (None, 1.5, 2.0)):
        p = (pj,) * (m - 1) + (pj if last is None else last,)
        for rj, rest in itertools.product(PREDICT_R, (None, 2.0, 3.0)):
            yield p, (rj,) + (rj if rest is None else rest,) * (m - 1)


def predict_payloads() -> dict[str, str]:
    """predict(m, p, r).to_dict() as JSON over the PREDICT grid, one payload per m."""
    from mixedsums import predict

    out = {}
    for m in (1, 2, 3, 4):
        reports = (predict(m, p, r).to_dict() for p, r in predict_grid(m))
        out[f"predict:m={m}"] = "\n".join(json.dumps(rep) for rep in reports)
    return out


def unified_payloads() -> dict[str, str]:
    """repr((s_case1, s_case2)) of unified_exponent over the PREDICT grid, m = 2..4."""
    from mixedsums import unified_exponent

    out = {}
    for m in (2, 3, 4):
        cases = (unified_exponent(m, p, r) for p, r in predict_grid(m))
        out[f"unified:m={m}"] = "\n".join(repr((u.s_case1, u.s_case2)) for u in cases)
    return out


def brute_payloads() -> dict[str, str]:
    """brute_force_norm value and witness bytes of forms beyond brute_exact's.

    Integer forms whose sum of |entries| is below 2**15 are scanned in
    int16, the rest in float64; the threshold forms sit on either side.
    The split forms sit on either side of the low table's floor, and one
    stacked brute_force_scan ends in a tie between draws. The prune forms
    and stack are scanned with bound pruning, ties planted in some. The
    float-sums forms and stack are float64 leaves without a high table;
    the stack's last draw is a leaf chunk of its own and ties the others.
    Every sign pattern of the all-ties forms ties, so the pruned scan can
    skip none.
    """
    import numpy as np
    from mixedsums import (
        INF, MultilinearForm, brute_force_norm, brute_force_scan, diagonal_form, row_form,
    )

    def payload(coeffs) -> str:
        est = brute_force_norm(MultilinearForm(coefficients=coeffs, p=(INF,) * coeffs.ndim))
        return repr(est.value) + b"".join(w.tobytes() for w in est.witness).hex()

    out = {}
    for idx, shape in enumerate(BRUTE_SHAPES):
        g = np.random.Generator(np.random.PCG64(100 + idx))
        name = "x".join(map(str, shape))
        out[f"brute:int3:{name}"] = payload(g.integers(-3, 4, shape).astype(np.float64))
        out[f"brute:half:{name}"] = payload(g.integers(-6, 7, shape) / 2.0)
        out[f"brute:normal:{name}"] = payload(g.standard_normal(shape))
        for total in (2**15 - 1, 2**15):
            # one large entry brings the sum of |entries| to `total`
            coeffs = g.integers(-60, 61, shape).astype(np.float64)
            coeffs.flat[0] = total - (np.abs(coeffs).sum() - abs(coeffs.flat[0]))
            out[f"brute:sum{total}:{name}"] = payload(coeffs)
            # all of the mass on one last-slot column: the all-plus pattern
            # takes every sign-table entry and the leaf sum to `total`
            column = np.zeros(shape)
            head = column[..., 0].reshape(-1)
            head[:] = total // head.size
            head[: total % head.size] += 1
            column[..., 0] = head.reshape(shape[:-1])
            out[f"brute:column{total}:{name}"] = payload(column)
    for idx, shape in enumerate(SPLIT_SHAPES):
        g = np.random.Generator(np.random.PCG64(120 + idx))
        name = "x".join(map(str, shape))
        out[f"brute:split-int3:{name}"] = payload(g.integers(-3, 4, shape).astype(np.float64))
        out[f"brute:split-normal:{name}"] = payload(g.standard_normal(shape))
    # a stack above the floor whose last draw repeats the best of the
    # others: the first of the two wins
    g = np.random.Generator(np.random.PCG64(130))
    stack = g.integers(-2, 3, (4, 15, 15)).astype(np.float64)
    d, _, _ = brute_force_scan(stack[:-1])
    stack[-1] = stack[d]
    out["brute:split-stack:4x15x15"] = repr(brute_force_scan(stack))
    for idx, n in enumerate(PRUNE_SIZES):
        g = np.random.Generator(np.random.PCG64(140 + idx))
        out[f"brute:prune-sign:{n}x{n}"] = payload(g.choice([-1.0, 1.0], (n, n)))
        out[f"brute:prune-int3:{n}x{n}"] = payload(g.integers(-3, 4, (n, n)).astype(np.float64))
        # ties: rows repeated across the low and high tables, a zero column block
        ties = g.integers(-1, 2, (n, n)).astype(np.float64)
        ties[n - 3 :] = ties[:3]
        ties[:, n // 2 : n // 2 + 3] = 0.0
        out[f"brute:prune-ties:{n}x{n}"] = payload(ties)
    # a pruned stack whose last draw repeats the first: the first wins
    g = np.random.Generator(np.random.PCG64(150))
    stack = g.choice([-1.0, 1.0], (3, 16, 16))
    stack[-1] = stack[0]
    out["brute:prune-stack:3x16x16"] = repr(brute_force_scan(stack))
    g = np.random.Generator(np.random.PCG64(160))
    out["brute:float-sums:2x10000"] = payload(g.standard_normal((2, 10**4)))
    out["brute:float-sums:100000"] = payload(g.standard_normal(10**5))
    stack = np.stack([g.standard_normal((2, 25000))] * 3)
    out["brute:float-sums-stack:3x2x25000"] = repr(brute_force_scan(stack))
    for n in ALL_TIES_N:
        out[f"brute:all-ties:diagonal{n}"] = payload(diagonal_form(2, n, (INF, INF)).coefficients)
    out["brute:all-ties:row16x16"] = payload(row_form(16, 16, (INF, INF)).coefficients)
    return out


def digests() -> dict[str, str]:
    """sha256 of every payload, in this interpreter."""
    sys.path.insert(0, str(ROOT / "bench"))
    from mixedsums import growth
    import workloads

    def payload(series, fit) -> str:
        report = json.dumps(growth.report_obj(series, fit), indent=2)
        return growth.series_to_csv(series) + report

    out = {}
    for idx, (cfg, mode) in enumerate(growth.bundled_suite()):
        series = growth.run_growth(cfg)
        fit = growth.loglog_fit(series, mode=mode)
        out[f"suite{idx}:{cfg.family}:{cfg.norm_method}"] = payload(series, fit)
    for seed in SEEDS:
        for idx, kw in enumerate(STACKED):
            cfg = growth.ExperimentConfig(norm_method="brute", seed=seed, **kw)
            series = growth.run_growth(cfg)
            fit = growth.loglog_fit(series, mode="upper_bound")
            name = f"seed{seed}:stacked{idx}:{cfg.family}:m{cfg.m}:draws{cfg.draws}"
            out[name] = payload(series, fit)
        for idx, kw in enumerate(DRAWN):
            cfg = growth.ExperimentConfig(seed=seed, **kw)
            series = growth.run_growth(cfg)
            fit = growth.loglog_fit(series, mode="upper_bound")
            name = f"seed{seed}:drawn{idx}:{cfg.family}:{cfg.norm_method}:draws{cfg.draws}"
            out[name] = payload(series, fit)
        for idx, kw in enumerate(PAPER_BOUND):
            cfg = growth.ExperimentConfig(norm_method="paper_bound", seed=seed, **kw)
            series = growth.run_growth(cfg)
            fit = growth.loglog_fit(series, mode="upper_bound")
            out[f"seed{seed}:paper_bound{idx}:{cfg.family}:m{cfg.m}"] = payload(series, fit)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for item in workloads.setup_bound_growth(seed, "full", Path(tmp)):
                out[f"seed{seed}:{item.name}"] = payload(*item.run())
            for item in workloads.setup_brute_exact(seed, "full", Path(tmp)):
                est, _ = item.run()
                witness = b"".join(w.tobytes() for w in est.witness)
                out[f"seed{seed}:{item.name}"] = repr(est.value) + witness.hex()
        out.update(cli_payloads(Path(tmp)))
    out.update(kernel_payloads())
    out.update(broadcast_payloads())
    out.update(exact_payloads())
    out.update(repeated_payloads())
    out.update(brute_payloads())
    out.update(predict_payloads())
    out.update(unified_payloads())
    out.update(sum2_payloads())
    out.update(ascent_payloads())
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in out.items()}


def run_tree(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--digest"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--digest"]:
        print(json.dumps(digests()))
        return 0
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_src = Path(argv[0]).resolve()
    new_src = Path(argv[1]).resolve() if len(argv) == 2 else ROOT / "src"
    old, new = run_tree(old_src), run_tree(new_src)
    differ = 0
    for name in sorted(old.keys() | new.keys()):
        same = old.get(name) == new.get(name)
        differ += not same
        print(f"{'same  ' if same else 'DIFFER'} {name} {new.get(name, '-')[:16]}")
    print(f"{len(old)} payloads, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
