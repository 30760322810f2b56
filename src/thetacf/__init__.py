"""Continued fractions over a quadratic-surd base theta = 1/sqrt(m).

Subpackages:

* :mod:`thetacf.expansion`   - the expansion map, exact Q(theta) arithmetic,
  digits, convergents, cylinders;
* :mod:`thetacf.constants`   - invariant measure, digit law, growth rate,
  entropy, geometric-mean limit, contraction constants;
* :mod:`thetacf.operators`   - transfer operators on Chebyshev grids and the
  distribution-function decay experiment;
* :mod:`thetacf.montecarlo`  - exact and float orbit ensembles for the
  almost-sure limit laws;
* :mod:`thetacf.cli`         - the ``thetacf`` command.
"""

__version__ = "0.1.0"

from .expansion import (
    Cylinder,
    ConvergentPair,
    DigitError,
    DigitSequence,
    DomainError,
    QThetaNumber,
    TerminationError,
    ThetaParams,
    approximation_error,
    ceil_qtheta,
    convergents,
    cylinder,
    cylinder_measure,
    digit_index,
    expand,
    floor_qtheta,
    gauss_map_apply,
    log_qtheta,
    new_params,
    reconstruct,
)
from .constants import (
    ConstantsReport,
    QuadratureError,
    constants_report,
    contraction_km,
    contraction_q,
    digit_law,
    entropy,
    gamma_cdf,
    gk_limit_cdf,
    invariant_density_lambda,
    khintchin_product,
    levy_beta,
)
from .operators import (
    DecayReport,
    GridFunction,
    OperatorConfig,
    OperatorSeriesError,
    apply_S,
    apply_S_power,
    apply_U,
    apply_V,
    apply_V_power,
    branch_inverse,
    branch_weight,
    error_sequence,
    gk_iterate_cdf,
    gk_iterate_density,
    integrate_gamma,
    lipschitz_seminorm,
    markov_transition,
    pullback_measure,
    transfer_values,
    variation,
    weight_normalization_residual,
    weight_tail_mass,
)
from .montecarlo import (
    DigitHistogram,
    ErgodicReport,
    OrbitSample,
    RngConfig,
    arithmetic_mean_statistic,
    approx_error_statistic,
    check_cylinder_bounds,
    check_error_bounds,
    digit_frequency,
    ergodic_report,
    exact_orbit_statistics,
    geometric_mean_statistic,
    levy_statistic,
    sample_orbit,
)
