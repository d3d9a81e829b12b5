"""Form generator tests: frozen draws, layouts, contraction identities."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from mixedsums import _rng
from mixedsums._rng import derive_seed, phase_array, sign_array, stream, streams
from mixedsums.forms import ksz_bound_exponent

# key entries at the edges of SeedSequence's word split: 0 is one word,
# 2**32 - 1 the largest one-word entry, 2**64 - 1 the largest two-word one;
# negatives and entries past 64 bits are masked to 64 bits first
_EDGE_KEYS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**63 + 5, 2**64 - 1, -1, -3, 2**64, 2**70 + 3)
_KEY_ENTRY = st.one_of(st.sampled_from(_EDGE_KEYS), st.integers(-(2**65), 2**65))
# restart indices: one entropy word each, its edges 0 and 2**32 - 1 included
_RESTART = st.one_of(st.sampled_from((0, 1, 2**32 - 1)), st.integers(0, 2**32 - 1))


def test_alpha():
    assert alpha(1) == 0.0
    assert alpha(1.7) == 0.0
    assert alpha(2) == 0.0
    assert alpha(4) == 0.25
    assert alpha(INF) == 0.5
    with pytest.raises(ValueError):
        alpha(0.5)


@pytest.mark.parametrize("p", [math.nan, "x", 0.0, -2.0])
def test_alpha_rejects_what_is_no_exponent(p):
    # a NaN p used to give a NaN alpha, and a bad string float()'s own message
    with pytest.raises(ValueError, match=r"p must lie in \(0, inf\]"):
        alpha(p)
    with pytest.raises(ValueError, match=r"p must lie in \(0, inf\]"):
        ksz_bound_exponent((p, 2.0))


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


def test_derive_seed_frozen_in_a_batch():
    # the batched SeedSequence words streams seeds with, read as derive_seed reads them
    def batched(seed, ts):
        return _rng._uint64(_rng._states(seed, ts, 2))[:, 0].tolist()

    for seed in (7, -3, 2**32, 2**64 - 1):
        ts = [0, 5, 2**32 - 1]
        assert batched(seed, ts) == [derive_seed(seed, t) for t in ts]
    assert batched(7, [3, 2])[1] == derive_seed(7, 2)


@settings(max_examples=60, deadline=None)
@given(seed=_KEY_ENTRY, ts=st.lists(_RESTART, max_size=12), n_words=st.sampled_from([1, 2, 5, 8]))
@example(seed=2**64 - 1, ts=[], n_words=8)
def test_batched_states_are_seed_sequence_words(seed, ts, n_words):
    got = _rng._states(seed, ts, n_words)
    assert got.dtype == np.uint32 and got.shape == (len(ts), n_words)
    for t, row in zip(ts, got):
        want = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, t]).generate_state(n_words)
        assert row.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=_KEY_ENTRY, ts=st.lists(_RESTART, max_size=8))
@example(seed=3, ts=[])
def test_streams_are_stream_per_key(seed, ts):
    # the batch-seeded generators draw what numpy's SeedSequence seeding does
    got = [g.standard_normal(5).tobytes() + g.random(3).tobytes() for g in streams(seed, ts)]
    want = [
        g.standard_normal(5).tobytes() + g.random(3).tobytes()
        for g in (stream(seed, t) for t in ts)
    ]
    assert got == want


@pytest.mark.parametrize("t", [-1, 2**32])
def test_streams_reject_a_t_that_is_not_one_word(t):
    # such a t would not fit the one entropy word each restart key holds
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        streams(3, [2, t])


def test_random_raw_is_the_full_range_integers():
    # sign_array and growth's sign stacks read random_raw, which gives the
    # words that integers(0, 2**64) draws
    for seed in (0, 3, 2**32, 2**64 - 1):
        raw = np.random.PCG64(np.random.SeedSequence(seed)).random_raw(50)
        draws = stream(seed).integers(0, 2**64, size=50, dtype=np.uint64)
        assert raw.tobytes() == draws.tobytes()


def test_sign_and_phase_arrays():
    s = sign_array((64,), 3)
    assert set(np.unique(s)) <= {-1.0, 1.0}
    z = phase_array((64,), 3)
    assert np.allclose(np.abs(z), 1.0, atol=1e-12)


def test_sign_array_is_the_top_bit_of_the_draws():
    cases = [((64,), 3, ()), ((5, 7), 11, (2, 0)), ((3, 4, 2), 0, (9,))]
    for shape, seed, key in cases:
        draws = stream(seed, *key).integers(0, 2**64, size=shape, dtype=np.uint64)
        want = 1.0 - 2.0 * (draws >> 63)
        got = sign_array(shape, seed, *key)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("dims", [(5,), (3, 4), (1, 7), (3, 4, 2), (2, 1, 6)])
@pytest.mark.parametrize("complex_coeffs", [False, True])
def test_partial_contract_stack_matches_rows(dims, complex_coeffs):
    g = np.random.Generator(np.random.PCG64(len(dims) + 10 * complex_coeffs))
    coeffs = g.standard_normal(dims)
    if complex_coeffs:
        coeffs = coeffs + 1j * g.standard_normal(dims)
    form = MultilinearForm(coefficients=coeffs, p=(2,) * len(dims))
    rows = 4
    stack = [g.standard_normal((rows, n)) for n in dims]
    for skip in range(len(dims)):
        got = partial_contract(form, stack, skip)
        want = [partial_contract(form, [v[r] for v in stack], skip) for r in range(rows)]
        if len(dims) == 1:  # no vector is contracted: the coefficients themselves
            assert got.tobytes() == coeffs.tobytes()
            continue
        assert got.shape == (rows, dims[skip])
        assert got.tobytes() == np.array(want).tobytes()


def test_partial_contract_rejects_bad_stacks():
    form = MultilinearForm(coefficients=np.ones((3, 4, 2)), p=(2, 2, 2))
    with pytest.raises(ValueError, match=r"vector 2 has shape \(1, 2, 2\)"):
        partial_contract(form, [np.ones(3), np.ones(4), np.ones((1, 2, 2))], 0)
    # every vector must have the row count of the first one contracted
    with pytest.raises(ValueError, match=r"expected \(5, 4\)"):
        partial_contract(form, [None, np.ones((2, 4)), np.ones((5, 2))], 0)
    with pytest.raises(ValueError, match=r"expected \(4,\)"):
        partial_contract(form, [None, np.ones((2, 4)), np.ones(2)], 0)


def test_product_extension_layout():
    base, _ = ksz_random_form(2, 3, (INF, INF), seed=5)
    ext = product_extension(base, 4, (2, 2))
    assert ext.shape == (3, 3, 3, 3)
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
        ext = product_extension(base, 3, (INF,))
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


def test_form_immutable():
    base, _ = ksz_random_form(2, 3, (2, 2), seed=1)
    factory_forms = [
        base,
        ksz_random_form(2, 3, (2, 2), seed=1, complex_phases=True)[0],
        diagonal_form(2, 3, (2, 2)),
        row_form(2, 3, (2, 2)),
        product_extension(base, 3, (2,)),
        product_extension(base, 2, ()),
    ]
    for form in factory_forms:
        assert not form.coefficients.flags.writeable
        with pytest.raises(ValueError):
            form.coefficients[(0,) * form.arity] = 5.0


def test_form_does_not_alias_caller_arrays():
    src = np.arange(6.0).reshape(2, 3)
    ro_view = src.view()
    ro_view.flags.writeable = False
    fortran = np.asfortranarray(src)
    want = src.copy()
    forms = [MultilinearForm(coefficients=a, p=(2, 2)) for a in (src, ro_view, fortran)]
    src[...] = -1.0  # also the memory behind the read-only view
    fortran[...] = -1.0
    for form in forms:
        assert np.array_equal(form.coefficients, want)
        assert not form.coefficients.flags.writeable
        assert form.coefficients.flags.c_contiguous
    assert src.flags.writeable


def test_ksz_random_form_makes_no_second_array():
    tracemalloc.start()
    try:
        form, _ = ksz_random_form(2, 1024, (INF, INF), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the draws become the coefficients in place, and signs need no
    # finiteness check's boolean mask (1/8 of the bytes)
    assert peak <= 1.05 * form.coefficients.nbytes


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


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0,)])
def test_form_rejects_coefficients_without_entries(shape):
    with pytest.raises(ValueError, match="no entries"):
        MultilinearForm(coefficients=np.zeros(shape), p=(INF,) * len(shape))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("complex_data", [False, True])
def test_evaluate_matches_slot_by_slot_contraction(m, complex_data):
    g = np.random.Generator(np.random.PCG64(40 + m))
    shape = (5, 3, 4)[:m]
    coeffs = g.standard_normal(shape)
    vs = [g.standard_normal(n) for n in shape]
    if complex_data:
        coeffs = coeffs + 1j * g.standard_normal(shape)
        vs = [v + 1j * g.standard_normal(v.shape) for v in vs]
    form = MultilinearForm(coefficients=coeffs, p=(2.0,) * m)
    cur = coeffs
    for v in reversed(vs):
        cur = np.einsum("...i,i->...", cur, v, optimize=False)
    want = complex(cur) if complex_data else float(cur)
    got = evaluate(form, vs)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


@pytest.mark.parametrize(
    "f, args, message",
    [
        pytest.param(ksz_random_form, (2, 0, (INF, INF), 0), "m and n must be >= 1", id="ksz"),
        pytest.param(diagonal_form, (2, 0, (2.0, 2.0)), "m and n must be >= 1", id="diagonal"),
        pytest.param(
            product_extension, (diagonal_form(2, 3, (2.0, 2.0)), 2, (2.0,)),
            "p_tail must be empty when m equals the base arity", id="product_extension",
        ),
        pytest.param(
            evaluate, (diagonal_form(2, 3, (2.0, 2.0)), [np.ones(2), np.ones(3)]),
            "vector 0 has shape (2,), expected (3,)", id="evaluate",
        ),
    ],
)
def test_input_checks_name_their_rule(f, args, message):
    with pytest.raises(ValueError) as e:
        f(*args)
    assert str(e.value) == message


def test_a_tensor_of_shape_empty_becomes_a_one_entry_form():
    form = form_from_obj({"shape": [], "data": [2.5], "p": [3]})
    assert form.shape == (1,)
    assert form.p == (3.0,)
    assert form.coefficients.tolist() == [2.5]
