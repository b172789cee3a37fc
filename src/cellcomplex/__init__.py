"""Abstract regular cell complexes for topological signal processing.

Construction from boundary matrices or tuple notation, regularity
validation, homology and Betti numbers, Hodge Laplacians with weighted
and spectral machinery, complex builders (simplicial, Vietoris-Rips,
products, cubical lattices, graph liftings), and persistent homology.
"""

from .core import (
    BoundaryMatrix,
    CellComplex,
    CellRef,
    ChainVector,
    apply_boundary,
    boundary_of_cell,
    canonicalize_orientations,
    chain_on,
    euler_characteristic,
    flip_cell,
    from_boundary_matrices,
    from_tuples,
    is_simple,
    to_tuples,
)
from .builders import (
    PlanarEmbedding,
    PointCloud,
    chordless_cycle_lifting,
    cubical,
    from_simplicial,
    product,
    spanning_tree_lifting,
    vietoris_rips,
    window_lifting,
)
from .hodge import (
    HodgeDecomposition,
    SpectralBasis,
    WeightSet,
    dirac_operator,
    hodge_decompose,
    hodge_laplacian,
    laplacian_spectrum,
    nonsymmetric_hodge,
    normalized_rw_weights,
    quadratic_form,
    spectral_basis,
    spectral_filter,
    unit_weights,
)
from .homology import HomologySummary, betti_numbers, harmonic_basis, homologous
from .persist import (
    Filtration,
    PersistenceBar,
    PersistenceDiagram,
    persistence,
    vr_filtration,
)
from .snf import SnfResult, smith_normal_form
from .validate import ValidationReport, closure, validate_dim1, validate_dim2, validate_nd

__version__ = "0.1.0"

__all__ = [
    "BoundaryMatrix",
    "CellComplex",
    "CellRef",
    "ChainVector",
    "Filtration",
    "HodgeDecomposition",
    "HomologySummary",
    "PersistenceBar",
    "PersistenceDiagram",
    "PlanarEmbedding",
    "PointCloud",
    "SnfResult",
    "SpectralBasis",
    "ValidationReport",
    "WeightSet",
    "apply_boundary",
    "betti_numbers",
    "boundary_of_cell",
    "canonicalize_orientations",
    "chain_on",
    "chordless_cycle_lifting",
    "closure",
    "cubical",
    "dirac_operator",
    "euler_characteristic",
    "flip_cell",
    "from_boundary_matrices",
    "from_simplicial",
    "from_tuples",
    "harmonic_basis",
    "hodge_decompose",
    "hodge_laplacian",
    "homologous",
    "is_simple",
    "laplacian_spectrum",
    "nonsymmetric_hodge",
    "normalized_rw_weights",
    "persistence",
    "product",
    "quadratic_form",
    "smith_normal_form",
    "spanning_tree_lifting",
    "spectral_basis",
    "spectral_filter",
    "to_tuples",
    "unit_weights",
    "validate_dim1",
    "validate_dim2",
    "validate_nd",
    "vietoris_rips",
    "vr_filtration",
    "window_lifting",
]
