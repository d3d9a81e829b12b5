"""Known-answer anchors: forms whose norm and mixed-sum constants are published.

T_2 = [[1, 1], [1, -1]], and T_m has n = 2^(m-1) and is built from
P = T_(m-1) of size h = n / 2: over the first m - 1 slots, with lo and hi
each slot's first and second half, C[lo..., 0] = C[hi..., 0] =
C[lo..., 1] = P and C[hi..., 1] = -P, zeros elsewhere. So
T_m(x, ..., z) = (z_1 + z_2) P(x_lo, ...) + (z_1 - z_2) P(x_hi, ...), and
||T_m|| = 2^(m-1) on the sup-norm balls. At r = (1, 2, ..., 2) the ratio
lhs / ||T_m|| is sqrt(2^(m-1)), the optimal constant of the real mixed
(ell_1, ell_2)-Littlewood inequality (Pellegrino, J. Number Theory, 2016).
At the Bohnenblust-Hille exponent r_j = 2m / (m + 1) it is 2^(1 - 1/m),
the lower bound for the real BH constants of Diniz, Munoz-Fernandez,
Pellegrino and Seoane-Sepulveda (Proc. AMS, 2014).

Every check goes through `experiment --family custom-file`, so the forms
are plain files and the numbers are the CLI's.
"""

import json
import math

import numpy as np
import pytest

from mixedsums import INF, MultilinearForm, form_to_obj
from mixedsums.cli import main

M_VALUES = (2, 3, 4)


def _t(m: int) -> np.ndarray:
    if m == 2:
        return np.array([[1.0, 1.0], [1.0, -1.0]])
    p = _t(m - 1)
    n, h = 2 ** (m - 1), 2 ** (m - 2)
    c = np.zeros((n,) * m)
    lo, hi = (slice(None, h),) * (m - 1), (slice(h, None),) * (m - 1)
    c[lo + (0,)] = c[hi + (0,)] = c[lo + (1,)] = p
    c[hi + (1,)] = -p
    return c


def _experiment(tmp_path, m, r, method):
    """The one CSV row of `experiment` on T_m: (lhs, norm, kind, ratio)."""
    form_file = tmp_path / f"t{m}.json"
    form_file.write_text(json.dumps(form_to_obj(MultilinearForm(_t(m), (INF,) * m))))
    out = tmp_path / f"t{m}-{method}.csv"
    code = main([
        "experiment", "--family", "custom-file", "--m", str(m),
        "--p", ",".join(["inf"] * m), "--r", ",".join(map(repr, r)),
        "--norm-method", method, "--form-file", str(form_file), "--out", str(out),
    ])
    assert code == 0
    header, row = out.read_text().splitlines()
    assert header == "n,lhs,norm,norm_kind,ratio,draws_used"
    _, lhs, norm, kind, ratio, _ = row.split(",")
    return float(lhs), float(norm), kind, float(ratio)


@pytest.mark.parametrize("m", M_VALUES)
def test_mixed_littlewood_constant_is_sqrt_2_to_the_m_minus_1(tmp_path, capsys, m):
    _, norm, kind, ratio = _experiment(tmp_path, m, (1.0,) + (2.0,) * (m - 1), "brute")
    capsys.readouterr()
    assert (norm, kind) == (2.0 ** (m - 1), "exact")
    assert ratio == math.sqrt(2 ** (m - 1))


@pytest.mark.parametrize("m", M_VALUES)
def test_bohnenblust_hille_lower_bound_is_2_to_the_1_minus_1_over_m(tmp_path, capsys, m):
    _, norm, kind, ratio = _experiment(tmp_path, m, (2.0 * m / (m + 1),) * m, "brute")
    capsys.readouterr()
    target = 2.0 ** (1.0 - 1.0 / m)
    assert (norm, kind) == (2.0 ** (m - 1), "exact")
    assert abs(ratio - target) <= 2 * math.ulp(target)


@pytest.mark.parametrize("m", M_VALUES)
def test_default_ascent_reaches_the_norm_of_t_m(tmp_path, capsys, m):
    _, norm, kind, _ = _experiment(tmp_path, m, (1.0,) + (2.0,) * (m - 1), "ascent")
    capsys.readouterr()
    assert (norm, kind) == (2.0 ** (m - 1), "lower_bound")
