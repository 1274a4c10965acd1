"""Finite-dimensional laboratory for generalized resolvents of isometric and
symmetric operators: extension parametrizations, admissibility calculus,
characteristic functions, spectral measures and gap criteria, each checked
against a direct dilation oracle."""

from .errors import (FixedPointObstruction, GresolvError, KindMismatch, NotAdmissible,
                     NotContraction, NotRegularType, NumericalFailure, PointExcluded,
                     PreconditionViolated, Singular, SingularSystem, T22NotAdmissible)
from .numkernel import (CMatrix, DEFAULT_TOL, Subspace, TolPolicy, eig_normal,
                        intersect, orthogonal_complement, orthonormalize,
                        projector, solve, tolerance)
from .operators import (INFINITY, DefectPair, IsometryOp,
                        PartialOperator, SymmetricOp, cayley_transform,
                        classify_signs, defect_subspaces, is_regular_type,
                        moebius_transform, orthogonal_extension, range_frame)
from .extensions import (BlockParam, ExitSpaceModel, ExtensionClass, PartialMap,
                         build_admissible_isometry, compressed_extension,
                         exit_space_extension, forbidden_operator, is_admissible,
                         neumann_extension, neumann_parameter, compressed_parameter,
                         unitary_exit_extension)
from .resolvents import (ContractionParam, ResolventModel,
                         admissible_class_check, anchored_resolvent,
                         boundary_parameter, cayley_transfer,
                         characteristic_function, defect_block,
                         defect_block_family, defect_block_via_characteristic,
                         dilation_resolvent, direct_sum_resolvent,
                         extension_resolvent, generating_extension,
                         recover_anchored_parameter, recover_parameter,
                         recovered_parameter_family, verify_resolvent_axioms)
from .spectral import (ArcSpec, GapCriteria, GapReport, SpectralAtoms, comparison_map_symmetric,
                       decomposition_check, eigen_vector_structure, gap_criteria,
                       gap_report, spectral_measure,
                       verify_integral_representation, comparison_map)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
