"""Mixed-sum norms of multilinear forms.

A numerical laboratory for mixed-exponent summability of multilinear forms
on products of ell_p^n balls: exponent calculators for every covered regime,
the constructive exponent-lifting algorithm, the extremal form families used
in optimality arguments, operator-norm estimation, and growth-rate
experiments fitting empirical exponents against predictions.
"""

from .exponents import (
    INF,
    ArchivExponents,
    ClassicalExponents,
    ExponentReport,
    RegimeFlags,
    UnifiedExponents,
    alt_exponent,
    anisotropic_exponents,
    archiv_exponent,
    classical_exponents,
    conjugate,
    delta_chain,
    ghl_admissible,
    harmonic_sum,
    holder_split,
    lemma_lift,
    linear_exponent,
    m_less_set,
    predict,
    rho_hl,
    unified_exponent,
)
from .forms import (
    KszCertificate,
    MultilinearForm,
    alpha,
    diagonal_form,
    evaluate,
    form_from_obj,
    form_to_obj,
    ksz_random_form,
    partial_contract,
    product_extension,
    row_form,
)
from .growth import (
    ExperimentConfig,
    FitResult,
    GrowthRow,
    GrowthSeries,
    bundled_suite,
    compare,
    config_from_obj,
    config_to_obj,
    estimate_norm,
    loglog_fit,
    make_form,
    report_obj,
    run_growth,
    series_to_csv,
)
from .norms import (
    NormEstimate,
    alternating_ascent,
    analytic_norm,
    brute_force_estimate,
    brute_force_norm,
    brute_force_scan,
    dual_maximizer,
    estimate_to_obj,
    lp_norm,
)
from .tensors import (
    HolderCheck,
    MixedNormResult,
    NumericalError,
    compensated_sum,
    coordinate_product,
    holder_verify,
    mixed_norm,
    tensor_from_obj,
    tensor_to_obj,
)

__version__ = "0.1.0"
