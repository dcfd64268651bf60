"""Exact-arithmetic spectral sequences for invariant differential forms.

From finite data - structure constants of a metric Lie algebra, a graded
basic complex with its differential, and Euler operators - the package builds
the invariant-forms model of a locally free action, filters it by horizontal
degree, computes every page of the resulting spectral sequence over Q, and
machine-verifies that the second page factors as basic cohomology tensor
algebra cohomology.
"""

from .liealg import (
    ChiElement,
    LieData,
    ce_delta,
    coadjoint,
    contract,
    invariant_subcomplex,
    lie_cohomology,
    multi_indices,
    validate_lie,
    wedge,
)
from .model import (
    BasicComplex,
    EquivariantModel,
    ModelElement,
    canonical_decomposition,
    d01,
    d10,
    d21,
    filtration_degree,
    total_cohomology,
    total_d,
    validate_model,
)
from .qlinalg import Matrix, Subspace, kernel_basis, quotient_map, rref
from .reports import CertificateError
from .specseq import (
    FilteredComplex,
    SpectralPage,
    cartan_filtration,
    iter_pages,
    limit_page,
    page,
)
from .verify import Analysis, basic_cohomology, d2_transgression, e2_tensor_check
from .library import MODEL_NAMES, ModelCard, get_model, random_trivial_product

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "BasicComplex",
    "CertificateError",
    "ChiElement",
    "EquivariantModel",
    "FilteredComplex",
    "LieData",
    "MODEL_NAMES",
    "Matrix",
    "ModelCard",
    "ModelElement",
    "SpectralPage",
    "Subspace",
    "basic_cohomology",
    "canonical_decomposition",
    "cartan_filtration",
    "ce_delta",
    "coadjoint",
    "contract",
    "d01",
    "d10",
    "d21",
    "d2_transgression",
    "e2_tensor_check",
    "filtration_degree",
    "get_model",
    "invariant_subcomplex",
    "iter_pages",
    "kernel_basis",
    "lie_cohomology",
    "limit_page",
    "multi_indices",
    "page",
    "quotient_map",
    "random_trivial_product",
    "rref",
    "total_cohomology",
    "total_d",
    "validate_lie",
    "validate_model",
    "wedge",
    "__version__",
]
