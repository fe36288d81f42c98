"""Hankel operators of Hamburger moment sequences at finite truncation.

The library builds the truncated Hankel matrices of closed-form moment
families, factors them through the orthonormal-polynomial change of basis,
profiles their spectra across truncation sizes, and verifies the exact
finite-rank identities of mass-removal perturbations — with exact rational
arithmetic whenever the input data is rational.
"""

from .backends import (
    Backend,
    BackendError,
    F64_BACKEND,
    HankelError,
    PrecisionError,
    RATIONAL_BACKEND,
    bigfloat,
)
from .measures import DiscreteMeasure, EmptyMeasureError
from .moments import (
    Classification,
    Discrete,
    Explicit,
    Gaussian,
    Gegenbauer,
    LogNormal,
    MissingMomentError,
    MomentFamily,
    MomentSequence,
    PowerLog,
    Verdict,
    classify,
    hankel_rows,
)
from .hankel import (
    DomainVerdict,
    SeriesApplyReport,
    apply_H_via_series,
    domain_diagnostic,
    matvec_fft,
    matvec_naive,
    power_decay,
    power_decay_domain,
)
from .orthopoly import (
    RecurrenceCoeffs,
    TriangularPair,
    eval_polys,
    factor,
    recurrence,
)
from .spectral import (
    PlateauVerdict,
    ProfileEntry,
    SpectralProfile,
    XiVector,
    h_xi_identity,
    lambda_profile,
    plateau_verdict,
    xi_vector,
)
from .extremal import (
    HypothesisViolationError,
    KernelResidualReport,
    PerturbationReport,
    cd_kernel,
    kernel_vector_check,
    perturbation_check,
    remove_masses,
)
from .triangular import PositivityError

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "BackendError",
    "Classification",
    "Discrete",
    "DiscreteMeasure",
    "DomainVerdict",
    "EmptyMeasureError",
    "Explicit",
    "F64_BACKEND",
    "Gaussian",
    "Gegenbauer",
    "HankelError",
    "HypothesisViolationError",
    "KernelResidualReport",
    "LogNormal",
    "MissingMomentError",
    "MomentFamily",
    "MomentSequence",
    "PerturbationReport",
    "PlateauVerdict",
    "PositivityError",
    "PowerLog",
    "PrecisionError",
    "ProfileEntry",
    "RATIONAL_BACKEND",
    "RecurrenceCoeffs",
    "SeriesApplyReport",
    "SpectralProfile",
    "TriangularPair",
    "Verdict",
    "XiVector",
    "apply_H_via_series",
    "bigfloat",
    "cd_kernel",
    "classify",
    "domain_diagnostic",
    "eval_polys",
    "factor",
    "h_xi_identity",
    "hankel_rows",
    "kernel_vector_check",
    "lambda_profile",
    "matvec_fft",
    "matvec_naive",
    "perturbation_check",
    "plateau_verdict",
    "power_decay",
    "power_decay_domain",
    "recurrence",
    "remove_masses",
    "xi_vector",
]
