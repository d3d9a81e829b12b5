"""Form generator tests: frozen draws, layouts, contraction identities."""

import json
import math

import numpy as np
import pytest

from mixedsums import (
    INF,
    MultilinearForm,
    alpha,
    diagonal_form,
    evaluate,
    form_from_obj,
    form_to_obj,
    ksz_random_form,
    mixed_norm,
    partial_contract,
    product_extension,
    row_form,
)
from mixedsums._rng import derive_seed, phase_array, sign_array, stream


def test_alpha():
    assert alpha(1) == 0.0
    assert alpha(1.7) == 0.0
    assert alpha(2) == 0.0
    assert alpha(4) == 0.25
    assert alpha(INF) == 0.5
    with pytest.raises(ValueError):
        alpha(0.5)


def test_stream_reproducible():
    a = stream(5, 1, 2).standard_normal(8)
    b = stream(5, 1, 2).standard_normal(8)
    c = stream(5, 1, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_frozen():
    assert derive_seed(7, 2, 0, 0) == 18279110831140952437
    assert derive_seed(7, 2, 0, 0) == derive_seed(7, 2, 0, 0)
    assert derive_seed(7, 2, 0, 1) != derive_seed(7, 2, 0, 0)


def test_sign_and_phase_arrays():
    s = sign_array((64,), 3)
    assert set(np.unique(s)) <= {-1.0, 1.0}
    z = phase_array((64,), 3)
    assert np.allclose(np.abs(z), 1.0, atol=1e-12)


def test_ksz_frozen_draws():
    form, _ = ksz_random_form(2, 2, (INF, INF), seed=7)
    assert np.array_equal(form.coefficients, [[-1.0, -1.0], [-1.0, 1.0]])
    form3, _ = ksz_random_form(3, 2, (INF, INF, INF), seed=11)
    want = [[[1.0, 1.0], [-1.0, 1.0]], [[1.0, -1.0], [1.0, 1.0]]]
    assert np.array_equal(form3.coefficients, want)


def test_ksz_deterministic_and_sign_valued():
    f1, _ = ksz_random_form(2, 8, (4, 4), seed=42)
    f2, _ = ksz_random_form(2, 8, (4, 4), seed=42)
    assert np.array_equal(f1.coefficients, f2.coefficients)
    assert set(np.unique(f1.coefficients)) <= {-1.0, 1.0}
    f3, _ = ksz_random_form(2, 8, (4, 4), seed=43)
    assert not np.array_equal(f1.coefficients, f3.coefficients)


def test_ksz_certificate():
    _, cert = ksz_random_form(2, 4, (4, INF), seed=9)
    assert cert.alphas == (0.25, 0.5)
    assert cert.alpha_sum == 0.75
    assert cert.bound_exponent == 1.25
    assert cert.seed == 9


def test_ksz_complex_phases():
    form, _ = ksz_random_form(2, 2, (2, 2), seed=7, complex_phases=True)
    assert form.coefficients.dtype == np.complex128
    assert np.allclose(np.abs(form.coefficients), 1.0, atol=1e-12)
    z = form.coefficients[0, 0]
    assert z == complex(-0.7066825070539889, -0.7075308009011967)


def test_ksz_mixed_norm_frozen():
    form, _ = ksz_random_form(2, 6, (INF, INF), seed=7)
    got = mixed_norm(form.coefficients, (4 / 3, 4 / 3)).value
    # the exact 36**(1/r) for the float r = 4/3 rounds to 14.69693845669907;
    # this is 1 ulp below it
    assert got == 14.696938456699069


def test_diagonal_form_layout():
    form = diagonal_form(2, 3, (2, 2))
    assert np.array_equal(form.coefficients, np.eye(3))
    assert form.kind == "diagonal"
    # m = 1 degenerates to the all-ones vector
    form1 = diagonal_form(1, 4, (2,))
    assert np.array_equal(form1.coefficients, np.ones(4))


def test_row_form_layout():
    form = row_form(3, 4, (INF, 2))
    want = np.zeros((3, 4))
    want[0, :] = 1.0
    assert np.array_equal(form.coefficients, want)
    assert form.kind == "row"


def test_evaluate_basis_recovers_coefficients():
    g = np.random.Generator(np.random.PCG64(20))
    coeffs = g.standard_normal((3, 2, 4))
    form = MultilinearForm(coefficients=coeffs, p=(2, 2, 2))
    for idx in np.ndindex(*coeffs.shape):
        vs = [np.eye(nj)[ij] for nj, ij in zip(coeffs.shape, idx)]
        assert evaluate(form, vs) == coeffs[idx]


def test_evaluate_examples_and_linearity():
    form = diagonal_form(2, 5, (2, 2))
    ones = np.ones(5)
    assert evaluate(form, [ones, ones]) == 5.0

    g = np.random.Generator(np.random.PCG64(21))
    coeffs = g.standard_normal((4, 4))
    form = MultilinearForm(coefficients=coeffs, p=(2, 2))
    x, y, z = g.standard_normal((3, 4))
    a, b = 1.3, -0.7
    lhs = evaluate(form, [a * x + b * y, z])
    rhs = a * evaluate(form, [x, z]) + b * evaluate(form, [y, z])
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_evaluate_rejects_bad_vectors():
    form = diagonal_form(2, 3, (2, 2))
    with pytest.raises(ValueError):
        evaluate(form, [np.ones(3)])
    with pytest.raises(ValueError):
        evaluate(form, [np.ones(3), np.ones(2)])


def test_partial_contract_consistency():
    g = np.random.Generator(np.random.PCG64(22))
    coeffs = g.standard_normal((3, 4, 2))
    form = MultilinearForm(coefficients=coeffs, p=(2, 2, 2))
    vs = [g.standard_normal(n) for n in (3, 4, 2)]
    for skip in range(3):
        func = partial_contract(form, vs, skip)
        assert func.shape == (form.shape[skip],)
        got = float(np.dot(func, vs[skip]))
        assert got == pytest.approx(evaluate(form, vs), rel=1e-12)
    with pytest.raises(ValueError):
        partial_contract(form, vs, 3)


def test_product_extension_layout():
    base, _ = ksz_random_form(2, 3, (INF, INF), seed=5)
    ext = product_extension(base, 4, (2, 2), tail_dims=(2, 5))
    assert ext.shape == (3, 3, 2, 5)
    assert ext.p == (INF, INF, 2.0, 2.0)
    assert ext.kind == "product_extension"
    assert np.array_equal(ext.coefficients[:, :, 0, 0], base.coefficients)
    rest = ext.coefficients.copy()
    rest[:, :, 0, 0] = 0.0
    assert not rest.any()


def test_product_extension_evaluation_identity():
    g = np.random.Generator(np.random.PCG64(23))
    base, _ = ksz_random_form(2, 3, (INF, INF), seed=5)
    ext = product_extension(base, 3, (4,))
    x, y = g.standard_normal((2, 3))
    z = g.standard_normal(3)
    got = evaluate(ext, [x, y, z])
    assert got == pytest.approx(evaluate(base, [x, y]) * z[0], rel=1e-12)


def test_product_extension_mixed_norm_growth():
    # with r = (1, 2, 2) the mixed norm of the extension is exactly n^{3/2}
    for n in (2, 4, 8):
        base, _ = ksz_random_form(2, n, (INF, INF), seed=3)
        ext = product_extension(base, 3, (INF,), tail_dims=(n,))
        got = mixed_norm(ext.coefficients, (1, 2, 2)).value
        assert got == pytest.approx(n ** 1.5, rel=1e-12)


def test_product_extension_degenerate_and_errors():
    base, _ = ksz_random_form(2, 3, (INF, INF), seed=5)
    same = product_extension(base, 2, ())
    assert np.array_equal(same.coefficients, base.coefficients)
    assert same.kind == "product_extension"
    with pytest.raises(ValueError):
        product_extension(base, 1, ())
    with pytest.raises(ValueError):
        product_extension(base, 4, (2,))  # wrong tail length
    with pytest.raises(ValueError):
        product_extension(base, 3, (2,), tail_dims=(0,))


def test_form_immutable():
    form = diagonal_form(2, 3, (2, 2))
    with pytest.raises(ValueError):
        form.coefficients[0, 0] = 5.0


def test_form_validation():
    with pytest.raises(ValueError):
        MultilinearForm(coefficients=np.ones((2, 2)), p=(0.5, 2))
    with pytest.raises(ValueError):
        MultilinearForm(coefficients=np.array([[np.inf, 1], [1, 1]]), p=(2, 2))
    with pytest.raises(ValueError):
        MultilinearForm(coefficients=np.ones((2, 2)), p=(2, 2), kind="mystery")


def test_form_json_round_trip():
    form, _ = ksz_random_form(2, 4, (4, INF), seed=13)
    obj = json.loads(json.dumps(form_to_obj(form)))
    assert obj["p"] == [4.0, "inf"]
    assert obj["kind"] == "ksz"
    assert obj["seed"] == 13
    back = form_from_obj(obj)
    assert np.array_equal(back.coefficients, form.coefficients)
    assert back.p == form.p
    assert back.kind == form.kind
    assert back.seed == form.seed


def test_form_json_complex_round_trip():
    form, _ = ksz_random_form(2, 3, (2, 2), seed=5, complex_phases=True)
    back = form_from_obj(json.loads(json.dumps(form_to_obj(form))))
    assert np.array_equal(back.coefficients, form.coefficients)


def test_form_from_obj_requires_p():
    with pytest.raises(ValueError):
        form_from_obj({"shape": [2], "data": [1.0, 2.0]})


def test_certificate_alpha_sum_consistency():
    g = np.random.Generator(np.random.PCG64(24))
    for _ in range(100):
        m = int(g.integers(1, 4))
        p = tuple(
            INF if g.random() < 0.3 else float(1.0 + 9.0 * g.random())
            for _ in range(m)
        )
        _, cert = ksz_random_form(m, 2, p, seed=int(g.integers(0, 1000)))
        assert cert.alpha_sum == math.fsum(cert.alphas)
        assert cert.bound_exponent == pytest.approx(0.5 + cert.alpha_sum, abs=1e-15)
        assert all(a == alpha(pj) for a, pj in zip(cert.alphas, p))