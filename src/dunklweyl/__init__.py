"""Exact engine for the rank-one symplectic reflection algebra.

Normal-form multiplication in the algebra generated by z, zb and the
reflection g over Q(i)[h1, h1^-1, h2], the induced star product on invariant
polynomials, the closed-form trace with constructive commutator
certificates, characteristic-class generating functions, and a CLI.
"""

from .algebra import SrcElement, commutator, idempotent, mul
from .hochschild import Certificate, Witness, check_certificate, hh0_report, reduce_certificate
from .index import (
    FormPoly,
    LocalElement,
    a_hat_factor,
    ch_exp,
    ch_phi_form,
    index_form,
    inv_sinh_quotient,
    local_star,
    local_trace_density,
)
from .scalars import (
    GaussianRational,
    ScalarPoly,
    TruncSeries,
    series_exp,
    series_inverse,
    series_log,
    series_sqrt,
)
from .spherical import InvariantPoly, ParityError, embed, euler_derivation, moyal_star, star
from .trace import ch_phi, phi, recursion_scalar, star_power, trace_defect

__all__ = [
    "Certificate",
    "FormPoly",
    "GaussianRational",
    "InvariantPoly",
    "LocalElement",
    "ParityError",
    "ScalarPoly",
    "SrcElement",
    "TruncSeries",
    "Witness",
    "a_hat_factor",
    "ch_exp",
    "ch_phi",
    "ch_phi_form",
    "check_certificate",
    "commutator",
    "embed",
    "euler_derivation",
    "hh0_report",
    "idempotent",
    "index_form",
    "inv_sinh_quotient",
    "local_star",
    "local_trace_density",
    "moyal_star",
    "mul",
    "phi",
    "recursion_scalar",
    "reduce_certificate",
    "series_exp",
    "series_inverse",
    "series_log",
    "series_sqrt",
    "star",
    "star_power",
    "trace_defect",
]
