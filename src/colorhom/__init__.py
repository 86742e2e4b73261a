"""colorhom: exact checking and construction of graded twisted algebras.

Structures live over cyclotomic fields with exact arithmetic, gradings
run over finitely generated abelian groups, and every multilinear
identity is verified exhaustively on basis tuples, which is a complete
check in characteristic zero.
"""

__version__ = "0.1.0"

from ._backend import BACKEND
from .bundles import (
    AkivisBundle,
    DialgebraBundle,
    LeibnizBundle,
    ModuleBundle,
    NHLPBundle,
    NonAssocBundle,
    associator_map,
    is_multiplicative,
    is_sign_commutative,
)
from .checkers import (
    check_akivis_identity,
    check_color_leibniz,
    check_dialgebra,
    check_endomorphism,
    check_flexible_akivis_relation,
    check_flexible_alternative,
    check_hom_associativity,
    check_hom_lie,
    check_leibniz_consequences,
    check_module,
    check_nhlp,
    check_skew_symmetry,
)
from .constructions import (
    akivis_from_algebra,
    leibniz_from_dialgebra,
    nhlp_opposite,
    nhlp_scaled,
    tensor_square_nhlp,
    trivial_extension,
    twist_akivis,
    twist_leibniz,
    twist_module,
    twist_nhlp,
)
from .errors import ColorHomError, ConstructionError, InputError
from .grading import Bicharacter, GradingGroup, GroupElement, TRIVIAL_GROUP
from .io import (
    document_digest,
    dumps_document,
    full_check,
    loads_document,
    parse_document,
    report_document,
    serialize_bundle,
)
from .linalg import EvenMap, GradedSpace, MultilinearMap, Vector, check_evenness
from .report import CheckReport, Violation
from .scalars import Scalar, cyclotomic_field, cyclotomic_polynomial

__all__ = [
    "AkivisBundle",
    "BACKEND",
    "Bicharacter",
    "CheckReport",
    "ColorHomError",
    "ConstructionError",
    "DialgebraBundle",
    "EvenMap",
    "GradedSpace",
    "GradingGroup",
    "GroupElement",
    "InputError",
    "LeibnizBundle",
    "ModuleBundle",
    "MultilinearMap",
    "NHLPBundle",
    "NonAssocBundle",
    "Scalar",
    "TRIVIAL_GROUP",
    "Vector",
    "Violation",
    "akivis_from_algebra",
    "associator_map",
    "check_akivis_identity",
    "check_color_leibniz",
    "check_dialgebra",
    "check_endomorphism",
    "check_evenness",
    "check_flexible_akivis_relation",
    "check_flexible_alternative",
    "check_hom_associativity",
    "check_hom_lie",
    "check_leibniz_consequences",
    "check_module",
    "check_nhlp",
    "check_skew_symmetry",
    "cyclotomic_field",
    "cyclotomic_polynomial",
    "document_digest",
    "dumps_document",
    "full_check",
    "is_multiplicative",
    "is_sign_commutative",
    "leibniz_from_dialgebra",
    "loads_document",
    "nhlp_opposite",
    "nhlp_scaled",
    "parse_document",
    "report_document",
    "serialize_bundle",
    "tensor_square_nhlp",
    "trivial_extension",
    "twist_akivis",
    "twist_leibniz",
    "twist_module",
    "twist_nhlp",
    "__version__",
]
