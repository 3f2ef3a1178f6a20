"""Ranges of matrices over F_{q^2} under the conjugate-transpose pairing.

The library enumerates constrained vector cones to compute the exact
range sets, predicts the same sets from closed-form rules keyed by
matrix shape, and cross-checks the two answers over whole matrix
spaces.  Field elements are integer codes throughout, and each field
context computes on them with pairwise tables for small towers and
formulas above them; no third-party packages are needed.
"""

from .classify import (CLAIM_EMPTY, CLAIM_EXACT_CARD, CLAIM_EXACT_SET,
                       CLAIM_LINE, CLAIM_LOWER_BOUND, CLAIM_MEMBER,
                       CLAIM_SUPERSET, CLAIM_UPPER_BOUND, FAIL, INAPPLICABLE,
                       IRREDUCIBLE, PASS, REPEATED, SCOPE_FIBER_ZERO,
                       TWO_DISTINCT, EigenData2, Prediction, check_prediction,
                       eigen2, predict_direct_sum, predict_full_field,
                       predict_subfield, predict_unitary_diagonal,
                       scalar_fiber_formula)
from .fields import FieldCtx, FieldSpec, build_tower, ctx_from_spec
from .hermitian import (DEFAULT_CAPACITY, FULL_FIELD, SUBFIELD, CapacityError,
                        HermMatrix, block_diag, cone_encs, cone_upper_bound,
                        sample_cone_encs)
from .ranges import (EXHAUSTIVE, KIND_NUM0_PRIME, KIND_NUM0_PRIME_SUBFIELD,
                     KIND_NUM_K, KIND_NUM_K_SUBFIELD, RANGE_KINDS, SAMPLED,
                     FiberCount, RangeSet, fiber_count, fiber_table,
                     num0_prime, num0_prime_subfield, num_k, num_k_subfield,
                     range_of, resolve_affine_shift, scaling_law_check)
from .verify import (SCOPE_DIRECT_SUMS, SCOPE_EXHAUSTIVE_2X2,
                     SCOPE_RANDOM_NXN, SCOPE_SCALAR_FIBERS, VERIFY_SCOPES,
                     evaluate, run_direct_sums, run_exhaustive_2x2,
                     run_random_nxn, run_scalar_fibers, run_scope)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
