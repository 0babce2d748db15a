"""Twisted-convolution calculus at finite Hermite truncation.

Grid-level phase-space transforms (Wigner distribution, symplectic Fourier
transform, kernel map) serve as quadrature oracles for the exact
coefficient-space algebra in the Hermite-Wong basis, on top of which sit
the symplectic oscillators and the positivity/regularity verification
harness.
"""

__version__ = "0.1.0"

from .errors import (
    GridMismatchError,
    ResolutionError,
    TruncationError,
    TruncationWarning,
    TwcError,
)
from .hermite import (
    HermiteCoeffVector,
    QuadratureRule,
    apply_H_coeff,
    gauss_hermite_rule,
    hermite_batch,
    multi_indices,
    project_to_hermite,
    synthesize_hermite,
)
from .phase_space import (
    GridFunction,
    hermite_wong_eval,
    inverse_kernel_map_grid,
    kernel_map_A_grid,
    symplectic_fourier,
    wigner,
)
from .formats import coeff_vector_from_json, coeff_vector_to_json, read_grid, write_grid
from .algebra import (
    WongCoeffMatrix,
    expand,
    fsigma_coeff,
    kernel_map_A_coeff,
    read_wong,
    synthesize,
    twisted_apply,
    twisted_convolution_coeff,
    twisted_convolution_grid,
    twisted_left_matrix,
    unit_entry,
    weyl_product,
    weyl_quantize,
    wong_from_json,
    wong_to_json,
    write_wong,
)
from .oscillators import (
    LadderKind,
    apply_h_bar_sigma_coeff,
    apply_h_sigma_coeff,
    apply_h_sigma_grid,
    apply_ladder,
    apply_t_sigma_coeff,
    apply_t_sigma_log,
    h_bar_sigma_from_ladders,
    h_sigma_from_ladders,
    intertwine_residual,
)
from .regularity import (
    DecayFit,
    GrowthSequence,
    PositivityResult,
    classify_decay,
    growth_sequence,
    is_positive_twisted,
    random_positive_element,
    t_sigma_origin,
    t_sigma_origin_log,
    trace_identity_check,
    twisted_pairing,
    verify_regularity_theorem,
    verify_weyl_positive,
    witness_function,
)
