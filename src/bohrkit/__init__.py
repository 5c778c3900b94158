"""Certified Bohr-type radii for bounded analytic functions.

The package computes the minimal positive roots of the radius equations
attached to weighted Bohr inequalities, evaluates the corresponding
composite functionals on concrete disk self-maps, and numerically
certifies both validity below each radius and sharpness just above it.
"""

from .errors import (AccuracyError, BohrkitError, DomainError, NoRootError,
                     NotFalsifiableError, NoWitnessError, UsageError)
from .functionals import (FunctionalParams, RadiusProblem, a_refinement,
                          bohr_sum, bound_for, evaluate_family)
from .radii import (RootCertificate, classical_crosscheck, psi_eval,
                    solve_radius)
from .series import (BoundedFunction, blaschke, eval_derivative, evaluate,
                     moebius_minus, moebius_plus, multiply_by_z,
                     random_blaschke, schwarz_moebius)
from .verify import (Population, VerificationReport, Witness,
                     check_lemma_coeff, check_lemma_D, check_schwarz_pick,
                     sharpness_witness, standard_families, verify_below_radius)
from .weights import WeightSequence, from_json, power, scaled_power

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BohrkitError", "BoundedFunction", "DomainError",
    "FunctionalParams", "NoRootError", "NoWitnessError",
    "NotFalsifiableError", "Population", "RadiusProblem", "RootCertificate",
    "UsageError", "VerificationReport", "WeightSequence", "Witness",
    "a_refinement", "blaschke", "bohr_sum", "bound_for", "check_lemma_D",
    "check_lemma_coeff", "check_schwarz_pick", "classical_crosscheck",
    "eval_derivative", "evaluate", "evaluate_family", "from_json",
    "moebius_minus", "moebius_plus", "multiply_by_z", "power", "psi_eval",
    "random_blaschke", "scaled_power", "schwarz_moebius", "sharpness_witness",
    "solve_radius", "standard_families", "verify_below_radius",
]
