"""fusionkit: modular data and modular invariants for braided fusion rings.

Core pipeline: describe a fusion ring (labels, duals, sparse fusion table) plus
rational twist exponents; build the Y/S/T matrices and central charge; test
whether the braiding is non-degenerate; enumerate and classify every modular
invariant mass matrix; decompose extended sector algebras into simple blocks
and verify induction certificates against the mass matrix they predict.
"""

from .algebras import (BasedAlgebra, BlockProfile, decompose_semisimple,
                       validate_based_algebra, verify_dimension_theorem)
from .catalog import CATALOG, catalog_models, cyclic_model, named_model, su2_level
from .errors import (CertificateError, FusionKitError, NondegeneracyRequired,
                     NumericError, RankAmbiguityError, SchemaError,
                     StructureError, TwistError, VanishingZError, VerlindeError)
from .induction import (CertificateReport, InductionCertificate,
                        compute_Z_from_branching, conjugation_certificate,
                        full_report, trivial_certificate, verify_generating,
                        verify_homomorphism)
from .invariants import (MassMatrix, classify_invariant, commutant_basis,
                         invariant_counts, search_invariants, twist_sparsity)
from .modular import (DegeneracyReport, ModularData, ResidualReport, TwistData,
                      check_partial_verlinde, is_nondegenerate, modular_matrices,
                      sl2z_relations, validate_twists, verlinde_fusion, y_matrix)
from .rings import (DimensionVector, FusionRing, ValidationReport, Violation,
                    quantum_dimensions, validate_fusion_ring)

__version__ = "0.1.0"

__all__ = [
    "BasedAlgebra", "BlockProfile", "CATALOG", "CertificateError",
    "CertificateReport", "DegeneracyReport", "DimensionVector",
    "FusionKitError", "FusionRing", "InductionCertificate", "MassMatrix",
    "ModularData", "NondegeneracyRequired", "NumericError",
    "RankAmbiguityError", "ResidualReport", "SchemaError", "StructureError",
    "TwistData", "TwistError", "ValidationReport", "VanishingZError",
    "VerlindeError", "Violation", "catalog_models",
    "check_partial_verlinde", "classify_invariant", "commutant_basis",
    "compute_Z_from_branching", "conjugation_certificate", "cyclic_model",
    "decompose_semisimple", "full_report", "invariant_counts",
    "is_nondegenerate", "modular_matrices", "named_model",
    "quantum_dimensions", "search_invariants", "sl2z_relations", "su2_level",
    "trivial_certificate", "twist_sparsity", "validate_based_algebra",
    "validate_fusion_ring", "validate_twists", "verify_dimension_theorem",
    "verify_generating", "verify_homomorphism", "verlinde_fusion", "y_matrix",
]
