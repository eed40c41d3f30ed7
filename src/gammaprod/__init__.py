"""Gamma, Beta, digamma and trigamma through accelerated infinite products,
with independent reference oracles and an inequality verification harness."""

from .bounds import App1Result, BoundReport, verify_suite
from .coeffs import CoeffTable, DerivTable, g_sequence, g_sequence_oracle, h_closed, h_sequence, pochhammer
from .errors import DomainError
from .gamma import (
    GammaValue,
    RationalArgument,
    beta,
    gamma_duplication,
    gamma_inv_p_pow,
    gamma_negative,
    gamma_ratio,
    gamma_rational,
)
from .identities import IdentityCheck, check_identity, gamma_quarter_squared, pow2_product, sin_product, tan_product
from .jointfactor import Estimate, JointFactorSpec, TruncationPolicy, joint_factor, joint_factor_bracket
from .jointfactor import joint_factor_series, truncate
from .polygamma import PolygammaResult, digamma, digamma_series_raw, trigamma, zeta_tail
from .reference import EULER_GAMMA, ref_digamma, ref_gamma, ref_log_gamma, ref_trigamma, ref_zeta

__version__ = "0.1.0"

__all__ = [
    "App1Result",
    "BoundReport",
    "CoeffTable",
    "DerivTable",
    "DomainError",
    "Estimate",
    "EULER_GAMMA",
    "GammaValue",
    "IdentityCheck",
    "JointFactorSpec",
    "PolygammaResult",
    "RationalArgument",
    "TruncationPolicy",
    "beta",
    "check_identity",
    "digamma",
    "digamma_series_raw",
    "g_sequence",
    "g_sequence_oracle",
    "gamma_duplication",
    "gamma_inv_p_pow",
    "gamma_negative",
    "gamma_quarter_squared",
    "gamma_ratio",
    "gamma_rational",
    "h_closed",
    "h_sequence",
    "joint_factor",
    "joint_factor_bracket",
    "joint_factor_series",
    "pochhammer",
    "pow2_product",
    "ref_digamma",
    "ref_gamma",
    "ref_log_gamma",
    "ref_trigamma",
    "ref_zeta",
    "sin_product",
    "tan_product",
    "trigamma",
    "truncate",
    "verify_suite",
    "zeta_tail",
]
