"""Exact-arithmetic spectral sequences for invariant differential forms.

From finite data - structure constants of a metric Lie algebra, a graded
basic complex with its differential, and Euler operators - the package builds
the invariant-forms model of a locally free action, filters it by horizontal
degree, computes every page of the resulting spectral sequence over Q, and
machine-verifies that the second page factors as basic cohomology tensor
algebra cohomology.
"""

from .liealg import (
    LieData,
    invariant_subcomplex,
    multi_indices,
    validate_lie,
)
from .model import (
    BasicComplex,
    EquivariantModel,
    validate_model,
)
from .qlinalg import Matrix, Subspace
from .reports import CertificateError
from .specseq import (
    FilteredComplex,
    cartan_filtration,
    persistence_pairing,
    second_page,
)
from .verify import Analysis, basic_cohomology, d2_transgression, e2_tensor_check
from .library import MODEL_NAMES, ModelCard, get_model, random_trivial_product

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "BasicComplex",
    "CertificateError",
    "EquivariantModel",
    "FilteredComplex",
    "LieData",
    "MODEL_NAMES",
    "Matrix",
    "ModelCard",
    "Subspace",
    "basic_cohomology",
    "cartan_filtration",
    "d2_transgression",
    "e2_tensor_check",
    "get_model",
    "invariant_subcomplex",
    "multi_indices",
    "persistence_pairing",
    "random_trivial_product",
    "second_page",
    "validate_lie",
    "validate_model",
    "__version__",
]
