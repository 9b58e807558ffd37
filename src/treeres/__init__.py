"""treeres: projective dimension <= 1 for monomial ideals, decided
combinatorially and verified by exact-arithmetic homology oracles."""

from .monomial import (
    Monomial,
    MonomialIdeal,
    VariableSet,
    divides,
    lcm,
    minimalize,
    parse_ideal,
    polarize,
)
from .complexes import (
    EmptyComplex,
    SimplicialComplex,
    VoidComplex,
    faces,
    f_vector,
    full_simplex,
    induced,
    is_connected,
    is_quasi_forest_by_induced,
    is_simplicial_forest,
    leaf_order,
)
from .duality import (
    ZeroIdeal,
    alexander_dual,
    dual_facets,
    dual_generators,
    sr_complex,
    sr_ideal,
)
from .resolution import (
    FreeComplex,
    Frame,
    LabeledComplex,
    build_tree,
    enumerate_trees,
    floystad_tree,
    frame,
    frame_to_graph,
    homogenize,
    is_minimal_support,
    supports_resolution,
    taylor,
)
from .homology import (
    BettiTable,
    betti,
    is_exact_frame,
    rank_exact,
    reduced_homology_dims,
)

__version__ = "0.1.0"
