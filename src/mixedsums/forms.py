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
from .exponents import as_exponent_vector, exponent_to_json
from .tensors import tensor_from_obj, tensor_to_obj

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


@dataclass(frozen=True)
class MultilinearForm:
    """Immutable coefficient tensor plus domain exponents."""

    coefficients: np.ndarray
    p: tuple[float, ...]
    kind: str = "custom"
    seed: int | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients)
        if coeffs.ndim < 1:
            coeffs = coeffs.reshape(1)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        coeffs = coeffs.copy()
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
    p = float(p)
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
    form = MultilinearForm(coefficients=coeffs, p=p, kind="ksz", seed=int(seed))
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
    return MultilinearForm(coefficients=coeffs, p=p, kind="diagonal")


def row_form(n1: int, n2: int, p) -> MultilinearForm:
    """Bilinear form x_1 * (y_1 + ... + y_{n2}): first row ones, rest zero."""
    if n1 < 1 or n2 < 1:
        raise ValueError("n1 and n2 must be >= 1")
    p = as_exponent_vector(p, 2, "p")
    coeffs = np.zeros((n1, n2))
    coeffs[0, :] = 1.0
    return MultilinearForm(coefficients=coeffs, p=p, kind="row")


def product_extension(
    base: MultilinearForm, m: int, p_tail, tail_dims=None
) -> MultilinearForm:
    """Extend a k-linear form to m slots, pinning the new indices to 1.

    The extension B satisfies B(x^(1), ..., x^(m)) =
    base(x^(1), ..., x^(k)) * x^(k+1)_1 * ... * x^(m)_1, so its operator
    norm equals the base norm, while only the first k axes carry more than
    one index value.
    """
    k = base.arity
    if m < k:
        raise ValueError(f"m = {m} must be >= base arity {k}")
    if m == k:
        if tuple(p_tail):
            raise ValueError("p_tail must be empty when m equals the base arity")
        return MultilinearForm(
            coefficients=base.coefficients,
            p=base.p,
            kind="product_extension",
            seed=base.seed,
        )
    p_tail = as_exponent_vector(p_tail, m - k, "p_tail")
    if tail_dims is None:
        tail_dims = (base.shape[-1],) * (m - k)
    tail_dims = tuple(int(n) for n in tail_dims)
    if len(tail_dims) != m - k or any(n < 1 for n in tail_dims):
        raise ValueError(f"tail_dims must be {m - k} positive integers")
    coeffs = np.zeros(base.shape + tail_dims, dtype=base.coefficients.dtype)
    coeffs[(...,) + (0,) * (m - k)] = base.coefficients
    return MultilinearForm(
        coefficients=coeffs,
        p=base.p + p_tail,
        kind="product_extension",
        seed=base.seed,
    )


def _as_vectors(form: MultilinearForm, vectors) -> list[np.ndarray]:
    vs = [np.asarray(v) for v in vectors]
    if len(vs) != form.arity:
        raise ValueError(f"expected {form.arity} vectors, got {len(vs)}")
    for j, v in enumerate(vs):
        if v.shape != (form.shape[j],):
            raise ValueError(
                f"vector {j} has shape {v.shape}, expected ({form.shape[j]},)"
            )
    return vs


def evaluate(form: MultilinearForm, vectors):
    """Full contraction sum_i coeff[i] * prod_j vectors[j][i_j]."""
    vs = _as_vectors(form, vectors)
    cur = form.coefficients
    for v in reversed(vs):
        # contract the current last axis; einsum without optimize is a
        # fixed-order loop, so the result is reproducible bit-for-bit
        cur = np.einsum("...i,i->...", cur, v, optimize=False)
    out = complex(cur) if np.iscomplexobj(cur) else float(cur)
    return out


def partial_contract(form: MultilinearForm, vectors, skip: int) -> np.ndarray:
    """Contract every slot except `skip`; returns the induced linear functional.

    vectors[skip] is ignored and may be None.
    """
    m = form.arity
    if not 0 <= skip < m:
        raise ValueError(f"skip must be in [0, {m}), got {skip}")
    vs = list(vectors)
    if len(vs) != m:
        raise ValueError(f"expected {m} vectors, got {len(vs)}")
    cur = np.moveaxis(form.coefficients, skip, 0)
    for j in reversed(range(m)):
        if j == skip:
            continue
        v = np.asarray(vs[j])
        if v.shape != (form.shape[j],):
            raise ValueError(
                f"vector {j} has shape {v.shape}, expected ({form.shape[j]},)"
            )
        cur = np.einsum("...i,i->...", cur, v, optimize=False)
    return cur


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
    coeffs = tensor_from_obj(obj)
    try:
        p = tuple(float(x) for x in obj["p"])
    except (KeyError, TypeError, ValueError):
        raise ValueError("form object needs a 'p' field listing exponents") from None
    kind = obj.get("kind", "custom")
    seed = obj.get("seed")
    return MultilinearForm(
        coefficients=coeffs, p=p, kind=kind, seed=None if seed is None else int(seed)
    )
