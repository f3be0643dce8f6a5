"""Exact Hopf-Galois structures on dihedral extensions of degree 2p.

Builds the complete catalog of regular normalized subgroups for the dihedral
group of order 2p, descends each group algebra L[N] to a Hopf algebra over Q,
and verifies every structural claim (Hopf axioms, the Hopf-Galois property,
explicit bases, isomorphism classes, Wedderburn decompositions) in exact
rational arithmetic.

The attribute `catalog` is the function, which shadows its module (so does
`import hopfgalois.catalog as m`); importlib.import_module("hopfgalois.catalog")
returns the module, which keeps its name because the benchmark imports it.
"""

from .algebra import (Algebra, Check, CheckFailed, CheckReport, HopfPresentation,
                      action_report, algebra_axiom_report, group_hopf_algebra,
                      hopf_axiom_report, hopf_map_violation)
from .analysis import (WedderburnComponent, WedderburnReport,
                       algebra_iso_classes_p3, commutative_wedderburn, descend_catalog,
                       hopf_iso_classes, minimal_splitting_subfield_check,
                       nilpotent_witness, noncommutative_wedderburn_p3)
from .catalog import (SUPPORTED_PRIMES, CatalogEntry, catalog, catalog_checks,
                      completeness_check_p3, cyclic_generator)
from .descent import (DescentError, GroupAlgebraOverL, NormalizationError,
                      SemilinearAction, base_change_is_group_algebra, descend,
                      descend_and_verify, explicit_basis_matches, group_algebra, hopf_action,
                      measuring_report, module_report, verify_hopf_galois)
from .extensions import (GaloisAlgebra, quadratic_field, quadratic_sqrt_witness,
                         rational_square_of, split_model, splitting_field_cubic)
from .groups import (ClosureBoundExceeded, FiniteGroup, Perm, PermSubgroup,
                     UnknownGroupType, dihedral, elementary_abelian_4,
                     enumerate_regular_normalized, group_isomorphisms,
                     iso_type, left_regular, right_regular)
from .linalg import Matrix, Q, rational
from .polyform import (PolyHopfAlgebra, PolyMapError, check_iso_to_descended,
                       normal_form, point_decomposition_check,
                       scaling_invariance_check, variety_points)

__version__ = "0.1.0"

__all__ = [
    "Algebra", "CatalogEntry", "Check", "CheckFailed", "CheckReport", "ClosureBoundExceeded",
    "DescentError", "FiniteGroup", "GaloisAlgebra", "GroupAlgebraOverL",
    "HopfPresentation", "Matrix", "NormalizationError", "Perm",
    "PermSubgroup", "PolyHopfAlgebra", "PolyMapError", "Q",
    "SUPPORTED_PRIMES", "SemilinearAction", "UnknownGroupType",
    "WedderburnComponent", "WedderburnReport", "action_report",
    "algebra_axiom_report", "algebra_iso_classes_p3",
    "base_change_is_group_algebra", "catalog", "catalog_checks",
    "check_iso_to_descended", "commutative_wedderburn", "completeness_check_p3",
    "cyclic_generator", "descend", "descend_and_verify", "descend_catalog",
    "dihedral", "elementary_abelian_4", "enumerate_regular_normalized",
    "explicit_basis_matches", "group_algebra", "group_hopf_algebra",
    "group_isomorphisms", "hopf_action", "hopf_axiom_report",
    "hopf_iso_classes", "hopf_map_violation", "iso_type", "left_regular",
    "measuring_report", "minimal_splitting_subfield_check", "module_report",
    "nilpotent_witness", "noncommutative_wedderburn_p3", "normal_form",
    "point_decomposition_check", "quadratic_field", "quadratic_sqrt_witness",
    "rational", "rational_square_of", "right_regular", "scaling_invariance_check",
    "split_model", "splitting_field_cubic", "variety_points", "verify_hopf_galois",
]
