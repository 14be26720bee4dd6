"""Toolkit for multipartite quantum states with joint orthogonal symmetry.

Builds the pair-projector families spanning O(x)O-invariant states of 2K
qudits, works with such states through their 3**K fidelity coordinates
(partial-transpose maps, PPT tests, separability bounds, twirling,
reconstruction, reductions), and cross-verifies every closed form against
dense brute-force linear algebra.
"""

from .dense import (
    HERM_RTOL,
    MAX_DIM,
    PSD_TOL,
    CapacityError,
    ComplexOperator,
    DomainError,
    identity,
    is_psd,
    is_psd_rows,
    kron,
    kron_rows,
    min_eigenvalue,
    min_eigenvalue_rows,
    partial_trace,
    partial_trace_rows,
    partial_transpose,
    partial_transpose_rows,
    random_orthogonal,
    random_unit_vector,
)
from .projectors import (
    BipartiteBasis,
    all_multi_indices,
    bipartite_traces,
    build_bipartite,
    build_multipartite,
    check_family_budget,
    flip,
    maximally_entangled,
    multi_index_digits,
    multi_index_rank,
    multipartite_trace,
    pair_projectors,
    projector_family,
)
from .simplex import (
    FidelityVector,
    IntersectionPoint,
    PairInequalities,
    PPTVerdict,
    SeparabilityBounds,
    all_masks,
    bob_subsystems,
    c_matrix,
    check_scan_budget,
    check_vertex_budget,
    classify_lattice,
    coordinate_bounds,
    default_grid_resolution,
    hull_vertices,
    intersection_point,
    mask_digits,
    pair_vertex_coords,
    ppt_check,
    ppt_inequalities,
    product_state_fidelities,
    product_state_fidelities_rows,
    pt_map,
    pt_map_masks,
    pt_map_rows,
    reconstruct,
    reconstruct_rows,
    reduce_pair,
    reduce_rows,
    sep_bound_check,
    simplex_grid,
    twirl_coords,
    twirl_rows,
)
from .verify import (
    DEFAULT_SEED,
    VerificationReport,
    first_failure,
    run_suite,
    verify_c_matrix,
    verify_coplanarity,
    verify_invariance,
    verify_product_fidelities,
    verify_pt_consistency,
    verify_reduction,
    verify_resolution,
)

__version__ = "0.1.0"
