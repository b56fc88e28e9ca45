"""codimlab: exact workbench for codimension growth of Lie algebras
with finite group actions or gradings."""

from codimlab.codim import (CocharacterReport, CodimReport,
                            IdentityReport, cocharacter, cocharacters,
                            codimension, colength, empirical_exponent,
                            is_identity, nth_root_display)
from codimlab.config import Refusal, RunConfig
from codimlab.documents import (DocumentError, bench_to_document,
                                document_to_bench, dualize_bench,
                                dumps_document, load_document,
                                loads_document)
from codimlab.exponent import ExponentReport, compute_d
from codimlab.fixtures import FIXTURE_BUILDERS, Workbench, build_fixture
from codimlab.lie_core import LieAlgebra, StructureAnnotation
from codimlab.linalg import MatrixExact, Subspace
from codimlab.scalar import RATIONALS, FieldSpec, Scalar
from codimlab.symmetry import (FiniteGroup, Grading, GroupAction,
                               dual_group, grading_to_action)

__all__ = [
    "CocharacterReport", "CodimReport", "DocumentError",
    "ExponentReport", "FIXTURE_BUILDERS", "FieldSpec", "FiniteGroup",
    "Grading", "GroupAction", "IdentityReport", "LieAlgebra",
    "MatrixExact", "RATIONALS", "Refusal", "RunConfig", "Scalar",
    "StructureAnnotation", "Subspace", "Workbench",
    "bench_to_document", "build_fixture", "cocharacter",
    "cocharacters", "codimension", "colength", "compute_d",
    "document_to_bench",
    "dual_group", "dualize_bench", "dumps_document",
    "empirical_exponent", "grading_to_action", "is_identity",
    "load_document", "loads_document", "nth_root_display",
]
