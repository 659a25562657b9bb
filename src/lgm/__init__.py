"""Moments of compact Lie groups and the split-Casimir loop calculus.

Exact expectation values of polynomials of group elements (moments, Wilson
loops) under Haar, heat-kernel, and Wilson-action measures, with an
independent Monte-Carlo oracle for every identity.
"""

from .catalog import (GroupSpec, RepData, SplitCasimir, build_representation,
                      casimir_eigenvalue, closed_form_completeness, group_residual,
                      split_casimir)
from .loops import (Loop, LoopPair, LoopSum, conjugate_loop, laplacian, linear_loop,
                    loop, merge_at, total_merge, total_twist, twist_at)
from .moments import (BudgetError, MeasureSpec, MomentOperator, SpanningSet,
                      SpectralGapError, WeingartenMap, brownian_moment, expect_product,
                      haar_moment, spanning_set, weingarten)
from .sampling import (BrownianPathSpec, EffectiveSampleError, MCEstimate, RngSpec,
                       TheoremAReport, brownian_path, brownian_path_batch, haar_sample,
                       haar_sample_batch, mc_expect, verify_theorem_a)
from .tensor import pseudoinverse

__version__ = "0.1.0"
