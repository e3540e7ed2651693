"""Slope bounds and non-existence certificates for discrete-time Lurye loops.

Given a stable LTI plant in feedback with a slope-restricted (optionally
odd) memoryless nonlinearity, this package brackets the largest slope for
which a suitable FIR multiplier exists: a primal search from below, an LP
whose positivity is proved on the whole unit circle, and closed-form phase
limitations plus LP duality certificates from above.
"""

from .errors import (
    BracketInvalid,
    InvalidGain,
    InvalidInterval,
    LpNumericalFailure,
    NotStable,
    PoleOnUnitCircle,
    PrecisionExhausted,
    ZflimError,
)
from .lti_core import (
    Polynomial,
    TransferFunction,
    affine_combine,
    evaluate,
    frequency_response,
    is_stable,
    nyquist_value,
    shift_by_inverse_gain,
)
from .rational_core import (
    MONOTONE,
    ODD,
    FirMultiplier,
    RationalFrequency,
    construct_tight_multiplier,
    irrational_approx_multiplier,
    period,
)
from .phase_limits import (
    SlopeBoundResult,
    coprime_pairs,
    phase_bound,
    scan_upper_bound,
    single_freq_certificate,
    single_freq_upper_bound,
)
from .duality_lp import (
    DualityCertificate,
    bisect_upper_bound,
    certificate_residual,
    lp_certificate,
)
from .zf_search import SearchConfig, bisect_lower_bound, find_multiplier
from .interval_limits import (
    LegacyBoundResult,
    interval_slope_bound,
    legacy_upper_bound,
)
from .continuous_duality import CtCertificateInput, ct_check_nonodd, ct_check_odd
from .plants import BUILTIN, PlantRecord, load_plant, parse_plant

__version__ = "0.1.0"
