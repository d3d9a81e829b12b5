"""Multilinear forms: random sign forms and the explicit extremal families.

A MultilinearForm is a dense coefficient tensor together with the domain
exponent vector p; it represents T(x^(1), ..., x^(m)) = sum_i coeff[i] *
prod_j x^(j)[i_j] on ell_{p_1}^{n_1} x ... x ell_{p_m}^{n_m}.

Families:
  * ksz_random_form  - independent uniform +-1 coefficients (optionally
    unimodular complex phases); comes with a certificate recording the
    norm-growth exponent 1/2 + sum_j alpha(p_j), alpha(p) = 1/2 - 1/p for
    p >= 2 and 0 otherwise. The universal constant is unknown and never
    asserted.
  * diagonal_form    - identity on the diagonal, norm <= n^{1 - |1/p|}.
  * row_form         - T(x, y) = x_1 * (y_1 + ... + y_{n_2}), norm exactly
    n_2^{1 - 1/p_2}.
  * product_extension - embeds a k-linear form into m slots by pinning the
    trailing m - k indices to 1; operator norm is unchanged while the mixed
    norm picks up only the first k exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .exponents import as_exponent, as_exponent_vector, exponent_to_json
from .tensors import _integer, _read_field, _vector, tensor_from_obj, tensor_to_obj

__all__ = [
    "MultilinearForm",
    "KszCertificate",
    "alpha",
    "ksz_bound_exponent",
    "ksz_random_form",
    "diagonal_form",
    "row_form",
    "product_extension",
    "evaluate",
    "partial_contract",
    "form_to_obj",
    "form_from_obj",
]

KINDS = ("ksz", "diagonal", "row", "product_extension", "custom")


class _Fresh:
    """A finite array handed over to a form that nothing writes afterwards.

    The factories of this module build them, growth's sign stacks and
    tensor_from_obj's checked arrays, so MultilinearForm takes it without a
    copy or a second finiteness check.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True)
class MultilinearForm:
    """Immutable coefficient tensor plus domain exponents."""

    coefficients: np.ndarray
    p: tuple[float, ...]
    kind: str = "custom"
    seed: int | None = None

    def __post_init__(self):
        coeffs = self.coefficients
        if isinstance(coeffs, _Fresh):
            coeffs = coeffs.array
        else:  # the form owns a copy, so no caller can change it later
            coeffs = np.array(coeffs, order="C")
        if coeffs.ndim < 1:
            coeffs = coeffs.reshape(1)
        if coeffs.size == 0:
            raise ValueError(f"coefficients of shape {coeffs.shape} have no entries")
        # a fresh array holds signs, phases, 0/1 or checked entries, so only
        # arrays from outside pay for the n^m mask
        if not isinstance(self.coefficients, _Fresh) and not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(
            self, "p", as_exponent_vector(self.p, coeffs.ndim, "p")
        )
        if self.kind not in KINDS:
            raise ValueError(f"unknown form kind {self.kind!r}")
        if any(pj < 1.0 for pj in self.p):
            raise ValueError(f"domain exponents must be >= 1, got p = {self.p}")

    @property
    def arity(self) -> int:
        return self.coefficients.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coefficients.shape


@dataclass(frozen=True)
class KszCertificate:
    """Growth-exponent certificate of a random sign form.

    bound_exponent is the power of n in the norm bound C * n^bound_exponent;
    the constant C is not part of the certificate.
    """

    seed: int
    alphas: tuple[float, ...]
    alpha_sum: float
    bound_exponent: float


def alpha(p) -> float:
    """alpha(p) = 1/2 - 1/p for p >= 2, else 0."""
    p = as_exponent(p, "p")
    if p < 1.0:
        raise ValueError(f"requires p >= 1, got {p}")
    if p < 2.0:
        return 0.0
    return 0.5 - 1.0 / p


def ksz_bound_exponent(p) -> float:
    """Norm-growth exponent 1/2 + alpha(p_1) + ... + alpha(p_m) of a sign form."""
    return math.fsum([0.5, *(alpha(pj) for pj in p)])


def ksz_random_form(
    m: int, n: int, p, seed: int, complex_phases: bool = False
) -> tuple[MultilinearForm, KszCertificate]:
    """Random m-linear form with i.i.d. uniform +-1 coefficients.

    Shape is (n, ..., n). Identical (m, n, p, seed) give identical
    coefficients on every platform. With complex_phases=True the
    coefficients are uniform unimodular complex numbers instead.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    p = as_exponent_vector(p, m, "p")
    shape = (n,) * m
    if complex_phases:
        coeffs = _rng.phase_array(shape, seed)
    else:
        coeffs = _rng.sign_array(shape, seed)
    form = MultilinearForm(coefficients=_Fresh(coeffs), p=p, kind="ksz", seed=int(seed))
    alphas = tuple(alpha(pj) for pj in p)
    cert = KszCertificate(
        seed=int(seed),
        alphas=alphas,
        alpha_sum=math.fsum(alphas),
        bound_exponent=ksz_bound_exponent(p),
    )
    return form, cert


def diagonal_form(m: int, n: int, p) -> MultilinearForm:
    """Diagonal form: coefficient 1 when i_1 = ... = i_m, else 0."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    p = as_exponent_vector(p, m, "p")
    coeffs = np.zeros((n,) * m)
    idx = np.arange(n)
    coeffs[(idx,) * m] = 1.0
    return MultilinearForm(coefficients=_Fresh(coeffs), p=p, kind="diagonal")


def row_form(n1: int, n2: int, p) -> MultilinearForm:
    """Bilinear form x_1 * (y_1 + ... + y_{n2}): first row ones, rest zero."""
    if n1 < 1 or n2 < 1:
        raise ValueError("n1 and n2 must be >= 1")
    p = as_exponent_vector(p, 2, "p")
    coeffs = np.zeros((n1, n2))
    coeffs[0, :] = 1.0
    return MultilinearForm(coefficients=_Fresh(coeffs), p=p, kind="row")


def product_extension(base: MultilinearForm, m: int, p_tail) -> MultilinearForm:
    """Extend a k-linear form to m slots, pinning the new indices to 1.

    The extension B satisfies B(x^(1), ..., x^(m)) =
    base(x^(1), ..., x^(k)) * x^(k+1)_1 * ... * x^(m)_1, so its operator
    norm equals the base norm (e_1 attains |x^(j)_1| <= 1 in a new slot),
    while only the first k axes carry more than one index value. Each new
    slot has the length of the base's last slot. No other code builds this
    layout, and growth builds it only for make_form: a product_extension
    experiment's rows are those of its k-linear base experiment.
    """
    k = base.arity
    if m < k:
        raise ValueError(f"m = {m} must be >= base arity {k}")
    if m == k and tuple(p_tail):
        raise ValueError("p_tail must be empty when m equals the base arity")
    p_tail = as_exponent_vector(p_tail, m - k, "p_tail") if m > k else ()
    coeffs = base.coefficients  # at m = k it is shared, read-only
    if m > k:
        coeffs = np.zeros(base.shape + base.shape[-1:] * (m - k), coeffs.dtype)
        coeffs[(...,) + (0,) * (m - k)] = base.coefficients
    return MultilinearForm(
        coefficients=_Fresh(coeffs),
        p=base.p + p_tail,
        kind="product_extension",
        seed=base.seed,
    )


def evaluate(form: MultilinearForm, vectors):
    """Full contraction sum_i coeff[i] * prod_j vectors[j][i_j].

    The functional partial_contract leaves on slot 0, applied to vectors[0].
    """
    vs = list(vectors)
    c = partial_contract(form, vs, 0)
    v = np.asarray(vs[0])
    if v.shape != c.shape:
        raise ValueError(f"vector 0 has shape {v.shape}, expected {c.shape}")
    # einsum without optimize is a fixed-order loop, so the result is
    # reproducible bit-for-bit
    cur = np.einsum("...i,i->...", c, v, optimize=False)
    return complex(cur) if np.iscomplexobj(cur) else float(cur)


def partial_contract(form: MultilinearForm, vectors, skip: int) -> np.ndarray:
    """Contract every slot except `skip`; returns the induced linear functional.

    The vectors are either all 1-D or all stacks of R rows, shape (R, n_j);
    for stacks, row r of the (R, n_skip) result is the functional of the
    r-th rows. vectors[skip] is ignored and may be None.
    """
    m = form.arity
    if not 0 <= skip < m:
        raise ValueError(f"skip must be in [0, {m}), got {skip}")
    vs = list(vectors)
    if len(vs) != m:
        raise ValueError(f"expected {m} vectors, got {len(vs)}")
    # one leading row axis throughout, of length 1 for 1-D vectors; einsum
    # without optimize is a fixed-order loop, so each row gets the bits of
    # the 1-D contraction
    cur = np.moveaxis(form.coefficients, skip, 0)[None]
    lead = None
    for j in reversed(range(m)):
        if j == skip:
            continue
        v = np.asarray(vs[j])
        if lead is None:  # the first vector contracted sets the row count
            lead = v.shape[:1] if v.ndim == 2 else ()
        if v.shape != lead + (form.shape[j],):
            raise ValueError(
                f"vector {j} has shape {v.shape}, expected {lead + (form.shape[j],)}"
            )
        cur = np.einsum("r...i,ri->r...", cur, v.reshape(-1, form.shape[j]), optimize=False)
    return cur if lead else cur[0]


def form_to_obj(form: MultilinearForm) -> dict:
    """JSON-ready dict: tensor fields plus p, kind, and seed when set.

    Infinite exponents serialize as the string "inf".
    """
    obj = tensor_to_obj(form.coefficients)
    obj["p"] = [exponent_to_json(pj) for pj in form.p]
    obj["kind"] = form.kind
    if form.seed is not None:
        obj["seed"] = form.seed
    return obj


def form_from_obj(obj) -> MultilinearForm:
    """Inverse of form_to_obj."""
    coeffs = _Fresh(tensor_from_obj(obj))
    p = _read_field(obj, "p", _vector(float), "form")
    seed = None if obj.get("seed") is None else _read_field(obj, "seed", _integer, "form")
    return MultilinearForm(
        coefficients=coeffs, p=p, kind=obj.get("kind", "custom"), seed=seed
    )
