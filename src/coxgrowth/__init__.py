"""Exact computation of Coxeter-system growth series and rates, Coxeter
transformations and adjacency spectra of weighted trees, and Salem / Perron
classification of the resulting algebraic integers.

Everything is computed in exact integer and rational arithmetic; every
numeric answer comes with a certified isolating interval.
"""

from .intpoly import (
    IntPoly,
    ExactDivisionError,
    bracket,
    cyclotomic,
    exact_div,
    parse_poly,
    poly_gcd,
    reciprocity_type,
    squarefree_part,
)
from .roots import (
    RootInterval,
    NoRealRootError,
    isolate_largest_real_root,
    sturm_count,
)
from .numclass import NumberClass, classify, strip_cyclotomic, unit_circle_root_count
from .diagram import (
    INF,
    CoxeterDiagram,
    DiagramError,
    SphericalType,
    WeightedTree,
    diagram_from_file,
    diagram_from_text,
    dominates,
    finite_type_recognize,
    h_graph,
    parse_coxeter_symbol,
    path_tree,
    polygon_diagram,
    polygon_is_hyperbolic,
    star_diagram,
)
from .growth import (
    GrowthFunction,
    NotExponentialError,
    growth_rate,
    monotonicity_check,
    polygon_delta,
    polygon_growth,
    series_coefficients,
    steinberg_growth,
    verify_second_minimal_polygon,
)
from .coxtrans import (
    alpha_from_lambda,
    bipartite_order,
    char_poly_recursive,
    char_poly_star,
    spectral_radius_coxeter,
    verify_delta_eq_phi,
)
from .spectra import (
    adjacency_char_poly,
    brouwer_neumaier_enumerate,
    prop52_pipeline,
    spectral_radius_adjacency,
    verify_alpha0_not_tree_radius,
    weight4_leaf_replace,
)
from .salemdb import (
    SalemEntry,
    bundled_mini_list,
    gap_report,
    load_salem_list,
    polygon_realization_search,
)

__version__ = "0.1.0"
