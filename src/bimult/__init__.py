"""bimult: a finite-dimensional laboratory for bilinear operator multipliers.

The package computes the actions of bilinear operator and Schur multipliers,
their S2/B/S1 norms and level-n amplifications, tests modularity against
matrix *-algebra triples, and constructs/verifies weak factorizations of
trace-class Schur multipliers through certified gamma2 factorizations.
"""

from .algebra import (AlgebraTriple, MatrixAlgebra, commutant, conditional_expectation,
                      generate_algebra, preset_algebra, project_symbol, tensor_membership)
from .factorize import (FactorFamily, FactorizationReport, VectorField, col_wnorm,
                        opmul_symbol, row_wnorm, schur_s1_factorize, synthesize_u,
                        to_weak_factorization, verify_factorization)
from .linalg import ConvergenceError, ShapeError, SVDResult, psd_project, schatten_norm, svd
from .multiplier import (ModularityMethodMismatch, PairSymbol, apply_schur, apply_tau,
                         elementary_pair, extract_U, is_modular, tau1_apply, tau3_apply)
from .norms import (GAMMA2_MIN_TOL, Gamma2Result, NormEstimate, amplified_norm,
                    evaluate_amplified, evaluate_bilinear, gamma2, norm_bilinear, s1_norm_schur,
                    slice_gamma2)
from .symbols import (SchurSymbol, Symbol3, as_operator, elementary_symbol, embed_schur,
                      make_rng, random_symbol_in, sup_norm)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
