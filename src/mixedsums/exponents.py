"""Exponent calculators for mixed-sum inequalities of multilinear forms.

Everything here is pure arithmetic on exponent vectors p = (p_1,...,p_m) and
r = (r_1,...,r_m) with entries in (0, +inf]. The central quantity is the
harmonic sum |1/p| = 1/p_1 + ... + 1/p_m (with 1/inf = 0); each regime
below predicts an exponent s such that the mixed ell_r sum of a form's
coefficients is bounded by C * n^s * ||T||.

All formulas are evaluated in reciprocal space with a single compensated sum
(math.fsum) per exponent, so boundary coincidences (e.g. the two unified
cases at p_j = 2m, or hlpp = dsp at |1/p| = 1/2) hold bit-for-bit, not just
within tolerance. Boundary membership of a regime is decided on the exactly
rounded float value of the relevant harmonic sum.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

INF = math.inf

# absolute slack for admissibility checks on user-supplied vectors
_TOL = 1e-12

__all__ = [
    "INF",
    "exponent_to_json",
    "harmonic_sum",
    "conjugate",
    "ClassicalExponents",
    "classical_exponents",
    "ghl_admissible",
    "m_less_set",
    "rho_hl",
    "UnifiedExponents",
    "unified_exponent",
    "ArchivExponents",
    "archiv_exponent",
    "alt_exponent",
    "delta_chain",
    "anisotropic_exponents",
    "lemma_lift",
    "holder_split",
    "linear_exponent",
    "RegimeFlags",
    "ExponentReport",
    "predict",
]


def as_exponent(x, name: str = "exponent") -> float:
    """Validate a single exponent value in (0, +inf]."""
    v = float(x)
    if math.isnan(v) or v <= 0.0:
        raise ValueError(f"{name} must lie in (0, inf], got {x!r}")
    return v


def as_exponent_vector(v, m: int | None = None, name: str = "p") -> tuple[float, ...]:
    """Validate an exponent vector; entries in (0, +inf], optional arity m."""
    try:
        entries = tuple(as_exponent(x, f"{name}[{j}]") for j, x in enumerate(v))
    except TypeError:
        raise ValueError(f"{name} must be a sequence of exponents") from None
    if not entries:
        raise ValueError(f"{name} must have length >= 1")
    if m is not None and len(entries) != m:
        raise ValueError(f"{name} has length {len(entries)}, expected m={m}")
    return entries


def exponent_to_json(x):
    """JSON form of an exponent: "inf" for inf, x otherwise; float() decodes both."""
    return "inf" if x == INF else x


def harmonic_sum(p) -> float:
    """|1/p| = sum of reciprocals, with 1/inf = 0."""
    p = as_exponent_vector(p, name="p")
    return math.fsum(1.0 / pj for pj in p)


def conjugate(p) -> float:
    """Conjugate exponent p' with 1/p + 1/p' = 1; conjugate(1) = inf."""
    p = as_exponent(p, "p")
    if p < 1.0:
        raise ValueError(f"conjugate requires p >= 1, got {p}")
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class ClassicalExponents:
    """The three classical optimal exponents; a field is None off-regime."""

    bh: float
    hlpp: float | None
    dsp: float | None


def classical_exponents(m: int, p) -> ClassicalExponents:
    """Classical exponents 2m/(m+1), 2m/(m+1-2|1/p|) and 1/(1-|1/p|).

    hlpp is present iff |1/p| <= 1/2, dsp iff 1/2 <= |1/p| < 1; at the
    boundary |1/p| = 1/2 both are present and equal 2 exactly.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p = as_exponent_vector(p, m, "p")
    h = harmonic_sum(p)
    bh = 2.0 * m / (m + 1.0)
    hlpp = 2.0 * m / (m + 1.0 - 2.0 * h) if h <= 0.5 else None
    dsp = 1.0 / (1.0 - h) if 0.5 <= h < 1.0 else None
    return ClassicalExponents(bh=bh, hlpp=hlpp, dsp=dsp)


def ghl_admissible(s, p) -> bool:
    """Admissibility of a mixed exponent vector s for domain exponents p.

    True iff every s_j lies in [(1-|1/p|)^{-1}, 2] and
    1/s_1 + ... + 1/s_m <= (m+1)/2 - |1/p|.  Requires |1/p| <= 1/2.
    Comparisons carry 1e-12 absolute slack so boundary inputs computed in
    floats are not spuriously rejected.
    """
    s = as_exponent_vector(s, name="s")
    p = as_exponent_vector(p, len(s), "p")
    m = len(s)
    h = harmonic_sum(p)
    if h > 0.5:
        raise ValueError(f"requires |1/p| <= 1/2, got |1/p| = {h}")
    lo = 1.0 / (1.0 - h)
    if any(sj < lo - _TOL or sj > 2.0 + _TOL for sj in s):
        return False
    bound = math.fsum(((m + 1.0) / 2.0, -h))
    return math.fsum(1.0 / sj for sj in s) <= bound + _TOL


def m_less_set(rho: float, r) -> frozenset[int]:
    """Index set {j : r_j < rho}, 1-based, strict comparison."""
    rho = as_exponent(rho, "rho")
    r = as_exponent_vector(r, name="r")
    return frozenset(j + 1 for j, rj in enumerate(r) if rj < rho)


def rho_hl(m: int, p) -> float | None:
    """Threshold 2m/(m+1-2|1/p|); None when the denominator is <= 0."""
    if m < 1:
        raise ValueError("m must be >= 1")
    p = as_exponent_vector(p, m, "p")
    den = m + 1.0 - 2.0 * harmonic_sum(p)
    return 2.0 * m / den if den > 0.0 else None


@dataclass(frozen=True)
class UnifiedExponents:
    """Exponents of the two unified-regime cases; None when off-regime."""

    s_case1: float | None
    s_case2: float | None


def unified_exponent(m: int, p, r) -> UnifiedExponents:
    """Unified mixed-sum exponents.

    Case 1 (all p_j in [2, 2m]):
        s = sum_{j in M_<^2} 1/r_j + |1/p| - (|M_<^2| + 1)/2, clamped at 0,
        and s = 0 outright when M_<^2 is empty.
    Case 2 (|1/p| <= 1/2):
        s = sum_{j in M} 1/r_j - ((m+1-2|1/p|)/(2m)) * |M| with M = M_<^HL,
        clamped at 0.

    When all p_j = 2m the two M-sets coincide and both formulas are evaluated
    from the same fsum term list, so s_case1 == s_case2 bitwise.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    p = as_exponent_vector(p, m, "p")
    r = as_exponent_vector(r, m, "r")
    h = harmonic_sum(p)

    s_case1 = None
    if all(2.0 <= pj <= 2.0 * m for pj in p):
        m2 = m_less_set(2.0, r)
        if not m2:
            s_case1 = 0.0
        else:
            terms = [1.0 / r[j - 1] for j in sorted(m2)]
            terms += [h, -(len(m2) + 1.0) / 2.0]
            s_case1 = max(math.fsum(terms), 0.0)

    s_case2 = None
    if h <= 0.5:
        rho = 2.0 * m / (m + 1.0 - 2.0 * h)
        mhl = m_less_set(rho, r)
        k = len(mhl)
        if k == 0:
            s_case2 = 0.0
        elif k == m:
            terms = [1.0 / rj for rj in r] + [h, -(m + 1.0) / 2.0]
            s_case2 = max(math.fsum(terms), 0.0)
        else:
            factor = (m + 1.0 - 2.0 * h) / (2.0 * m)
            terms = [1.0 / r[j - 1] for j in sorted(mhl)] + [-factor * k]
            s_case2 = max(math.fsum(terms), 0.0)

    return UnifiedExponents(s_case1=s_case1, s_case2=s_case2)


@dataclass(frozen=True)
class ArchivExponents:
    """Constant-r mixed exponents; a field is None off-regime."""

    s_a: float | None
    s_b: float | None


def archiv_exponent(m: int, r, p) -> ArchivExponents:
    """Exponents for a constant mixed vector (r, r, ..., r).

    s_a = max{m/r - (m+1)/2 + |1/p|, 0} on
        (r, p) in (0,2] x [2,2m)^m  union  (0,inf) x [2m,inf]^m;
    s_b = max{(p + mr - rp)/(pr), 0} when all p_j equal a common p with
        (r, p) in [2,inf) x (m, 2m].
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    r = as_exponent(r, "r")
    p = as_exponent_vector(p, m, "p")
    h = harmonic_sum(p)

    in_a = (r <= 2.0 and all(2.0 <= pj < 2.0 * m for pj in p)) or (
        r < INF and all(pj >= 2.0 * m for pj in p)
    )
    s_a = max(math.fsum((m / r, -(m + 1.0) / 2.0, h)), 0.0) if in_a else None

    s_b = None
    if p.count(p[0]) == m and p[0] < INF:
        pc = p[0]
        if 2.0 <= r < INF and m < pc <= 2.0 * m:
            s_b = max((pc + m * r - r * pc) / (pc * r), 0.0)

    return ArchivExponents(s_a=s_a, s_b=s_b)


def alt_exponent(m: int, p, r) -> float:
    """max{|1/r| - (m+1)/2 + |1/p|, 0} for r in [1,2]^m, |1/p| <= 1/2."""
    if m < 2:
        raise ValueError("m must be >= 2")
    p = as_exponent_vector(p, m, "p")
    r = as_exponent_vector(r, m, "r")
    h = harmonic_sum(p)
    if h > 0.5:
        raise ValueError(f"requires |1/p| <= 1/2, got |1/p| = {h}")
    if any(not 1.0 <= rj <= 2.0 for rj in r):
        raise ValueError(f"requires r in [1,2]^m, got r = {r}")
    terms = [1.0 / rj for rj in r] + [h, -(m + 1.0) / 2.0]
    return max(math.fsum(terms), 0.0)


def delta_chain(p) -> tuple[float, ...]:
    """Anisotropic critical exponents (delta over tails of p).

    Entry k (0-based) is 1/(1 - (1/p_{k+1} + ... + 1/p_m)); requires every
    tail sum to be < 1. The chain is non-increasing.
    """
    p = as_exponent_vector(p, name="p")
    m = len(p)
    out = []
    for k in range(m):
        tail = math.fsum(1.0 / pj for pj in p[k:])
        if tail >= 1.0:
            raise ValueError(
                f"tail sum 1/p_{k + 1} + ... + 1/p_{m} = {tail} >= 1: delta undefined"
            )
        out.append(1.0 / (1.0 - tail))
    return tuple(out)


def anisotropic_exponents(p, r) -> tuple[float, ...]:
    """Per-index exponents max{1/r_k - 1/delta_k, 0} in the anisotropic regime.

    Regime: 1 < p_m <= 2 < p_1, ..., p_{m-1} and |1/p| < 1.
    """
    p = as_exponent_vector(p, name="p")
    r = as_exponent_vector(r, len(p), "r")
    m = len(p)
    if not 1.0 < p[-1] <= 2.0:
        raise ValueError(f"requires 1 < p_m <= 2, got p_m = {p[-1]}")
    if any(pj <= 2.0 for pj in p[:-1]):
        raise ValueError(f"requires p_j > 2 for j < m, got p = {p}")
    if harmonic_sum(p) >= 1.0:
        raise ValueError("requires |1/p| < 1")
    out = []
    for k in range(m):
        # 1/delta over the tail p_k..p_m equals 1 - (1/p_k + ... + 1/p_m)
        terms = [1.0 / r[k], -1.0] + [1.0 / pj for pj in p[k:]]
        out.append(max(math.fsum(terms), 0.0))
    return tuple(out)


def lemma_lift(r, p) -> tuple[float, ...]:
    """Lift r in (0,2]^m to an admissible s with the sum identity exact.

    Returns s with s_j >= r_j, s_j in [(1-|1/p|)^{-1}, 2] and
    1/s_1 + ... + 1/s_m = (m+1)/2 - |1/p| (to ~1e-15). Requires |1/p| <= 1/2
    and 1/r_1 + ... + 1/r_m strictly above that target.

    Construction: if some r_j0 <= (1-|1/p|)^{-1} (smallest such j0), set
    s_j0 to that endpoint and every other s_j to 2. Otherwise scan
    N = {j : r_j < 2} for the smallest j0 whose trial sum (entries before j0
    raised to 2, entries after kept) is <= the target, and solve for 1/s_j0
    in closed form.
    """
    r = as_exponent_vector(r, name="r")
    m = len(r)
    p = as_exponent_vector(p, m, "p")
    if any(rj > 2.0 for rj in r):
        raise ValueError(f"requires r in (0,2]^m, got r = {r}")
    h = harmonic_sum(p)
    if h > 0.5:
        raise ValueError(f"requires |1/p| <= 1/2, got |1/p| = {h}")
    target = math.fsum(((m + 1.0) / 2.0, -h))
    if math.fsum(1.0 / rj for rj in r) <= target:
        raise ValueError(
            "requires sum of 1/r_j strictly above (m+1)/2 - |1/p|; r is already admissible"
        )

    lo = 1.0 / (1.0 - h)

    # first case: some entry at or below the lower endpoint
    for j0, rj in enumerate(r):
        if rj <= lo:
            s = [2.0] * m
            s[j0] = lo
            return tuple(s)

    # second case: raise a prefix of N = {j : r_j < 2} and solve for the pivot
    N = [j for j, rj in enumerate(r) if rj < 2.0]
    if not N:
        raise AssertionError("unreachable: r = (2,...,2) cannot exceed the target")
    # float rounding of |1/p| = 1/2 can miss the last candidate by one ulp;
    # it is admissible in exact arithmetic, so the scan falls back to it with
    # the terms of its own (last) iteration
    for pivot in N:
        terms = [
            0.5 if (k in N and k < pivot) else 1.0 / rk
            for k, rk in enumerate(r)
            if k != pivot
        ]
        if math.fsum(terms + [0.5]) <= target:
            break
    recip_pivot = math.fsum([(m + 1.0) / 2.0, -h] + [-t for t in terms])
    s = [2.0 if (k in N and k < pivot) else rk for k, rk in enumerate(r)]
    s[pivot] = 1.0 / recip_pivot

    if not (r[pivot] <= s[pivot] <= 2.0 + 1e-9 and s[pivot] >= lo - 1e-9):
        raise ArithmeticError(
            f"lemma_lift pivot s[{pivot}] = {s[pivot]!r} is outside "
            f"[max(r[{pivot}], {lo!r}), 2]"
        )
    return tuple(s)


def holder_split(r, s) -> tuple[float, ...]:
    """Solve 1/r_i = 1/s_i + 1/x_i for x; x_i = inf at zero residual."""
    r = as_exponent_vector(r, name="r")
    s = as_exponent_vector(s, len(r), "s")
    out = []
    for i, (ri, si) in enumerate(zip(r, s)):
        resid = 1.0 / ri - 1.0 / si
        if resid < 0.0:
            raise ValueError(f"1/r[{i}] < 1/s[{i}]: no splitting exponent exists")
        out.append(INF if resid == 0.0 else 1.0 / resid)
    return tuple(out)


def linear_exponent(r, p) -> float:
    """max{1/r - 1/p', 0} for a linear functional on ell_p^n."""
    r = as_exponent(r, "r")
    p = as_exponent(p, "p")
    if p < 1.0:
        raise ValueError(f"requires p >= 1, got p = {p}")
    # 1/p' = 1 - 1/p
    return max(math.fsum((1.0 / r, -1.0, 1.0 / p)), 0.0)


@dataclass(frozen=True)
class RegimeFlags:
    """Which hypothesis sets the inputs (m, p, r) satisfy."""

    case1_applies: bool
    case2_applies: bool
    delta_applies: bool
    subcritical: bool


@dataclass(frozen=True)
class ExponentReport:
    """Every applicable predicted exponent for one (m, p, r) triple.

    Optional fields are None when the corresponding regime does not apply.
    s_case1_lower is the proven lower bound for the case-1 exponent when
    M_<^2 is a proper nonempty subset; optimality_open marks exactly those
    intermediate-set situations, where upper and lower bounds need not match.
    """

    m: int
    harmonic_sum: float
    rho_hl: float | None
    m_less_2: frozenset[int]
    m_less_hl: frozenset[int] | None
    s_case1: float | None
    s_case2: float | None
    s_alt: float | None
    s_linear: float | None
    s_case1_lower: float | None
    delta_chain: tuple[float, ...] | None
    per_index_delta_exponents: tuple[float, ...] | None
    optimality_open: bool
    flags: RegimeFlags

    def best_exponent(self) -> float | None:
        """Smallest applicable upper-bound exponent; None when no regime applies.

        The per-index delta exponents enter through their sum (uniform sizes
        n_1 = ... = n_m = n).
        """
        candidates = [self.s_case1, self.s_case2, self.s_alt, self.s_linear]
        if self.per_index_delta_exponents is not None:
            candidates.append(math.fsum(self.per_index_delta_exponents))
        present = [c for c in candidates if c is not None]
        return min(present) if present else None

    def to_dict(self) -> dict:
        """JSON-ready dict with a stable field order; inf rendered as 'inf'."""
        return {
            "m": self.m,
            "harmonic_sum": self.harmonic_sum,
            "rho_hl": exponent_to_json(self.rho_hl),
            "m_less_2": sorted(self.m_less_2),
            "m_less_hl": None if self.m_less_hl is None else sorted(self.m_less_hl),
            "s_case1": self.s_case1,
            "s_case2": self.s_case2,
            "s_alt": self.s_alt,
            "s_linear": self.s_linear,
            "s_case1_lower": self.s_case1_lower,
            "delta_chain": None
            if self.delta_chain is None
            else [exponent_to_json(d) for d in self.delta_chain],
            "per_index_delta_exponents": None
            if self.per_index_delta_exponents is None
            else list(self.per_index_delta_exponents),
            "best_exponent": self.best_exponent(),
            "optimality_open": self.optimality_open,
            "flags": asdict(self.flags),
        }


def predict(m: int, p, r) -> ExponentReport:
    """Aggregate every exponent formula applicable to (m, p, r).

    Never raises on regime violations: non-applicable fields are None and
    the flags record which hypotheses hold. For m = 1 only the linear-case
    exponent is populated.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p = as_exponent_vector(p, m, "p")
    r = as_exponent_vector(r, m, "r")
    h = harmonic_sum(p)
    m2 = m_less_set(2.0, r)

    if m == 1:
        s_lin = linear_exponent(r[0], p[0]) if p[0] >= 1.0 else None
        return ExponentReport(
            m=1,
            harmonic_sum=h,
            rho_hl=None,
            m_less_2=m2,
            m_less_hl=None,
            s_case1=None,
            s_case2=None,
            s_alt=None,
            s_linear=s_lin,
            s_case1_lower=None,
            delta_chain=None,
            per_index_delta_exponents=None,
            optimality_open=False,
            flags=RegimeFlags(False, False, False, False),
        )

    uni = unified_exponent(m, p, r)
    case1 = uni.s_case1 is not None
    case2 = uni.s_case2 is not None
    delta = 1.0 < p[-1] <= 2.0 and all(pj > 2.0 for pj in p[:-1]) and h < 1.0

    rho = rho_hl(m, p)
    mhl = m_less_set(rho, r) if rho is not None else None

    s_case1_lower = None
    if case1 and 0 < len(m2) < m:
        terms = [1.0 / r[j - 1] for j in sorted(m2)]
        terms += [1.0 / p[j - 1] for j in sorted(m2)]
        terms += [-(len(m2) + 1.0) / 2.0]
        s_case1_lower = max(math.fsum(terms), 0.0)

    s_alt = None
    if case2 and all(1.0 <= rj <= 2.0 for rj in r):
        s_alt = alt_exponent(m, p, r)

    chain = per_index = None
    if delta:
        chain = delta_chain(p)
        per_index = anisotropic_exponents(p, r)

    subcritical = case2 and ghl_admissible(r, p)

    optimality_open = (case1 and 0 < len(m2) < m) or (
        case2 and mhl is not None and 0 < len(mhl) < m
    )

    return ExponentReport(
        m=m,
        harmonic_sum=h,
        rho_hl=rho,
        m_less_2=m2,
        m_less_hl=mhl,
        s_case1=uni.s_case1,
        s_case2=uni.s_case2,
        s_alt=s_alt,
        s_linear=None,
        s_case1_lower=s_case1_lower,
        delta_chain=chain,
        per_index_delta_exponents=per_index,
        optimality_open=optimality_open,
        flags=RegimeFlags(case1, case2, delta, subcritical),
    )
