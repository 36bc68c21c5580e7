"""Exact arithmetic for chromatic and Tutte symmetric functions of
vertex-weighted multigraphs, kernel analysis of formal graph combinations,
and quasisymmetric refinements on digraphs.

All coefficients are exact rationals; nothing here floats.
"""

from tuttekit.combinatorics import (
    DomainError,
    TPoly,
    enumerate_set_partitions,
    parse_rational,
    format_rational,
)
from tuttekit.graphs import (
    Multigraph,
    broom,
    canonical_form,
    canonical_star_forest,
    complete,
    complement,
    connected_partitions,
    contract_edge_set,
    cycle,
    delete_edges,
    edgeless,
    graph_from_json_obj,
    graph_to_json_obj,
    internal_edge_count,
    is_bright_star_forest,
    path,
    relabel,
    two_edge_connected,
)
from tuttekit.symfun import (
    SymFunc,
    coefficient_in_onep_t,
    m_to_e,
    m_to_p,
    mtilde_to_m,
    sigma_l,
    specialize_t,
    to_m,
)
from tuttekit.invariants import (
    chromatic_sym,
    chromatic_sym_delcon,
    sigma_l_direct,
    sigma_l_formula,
    tutte_from_connected_partitions,
    tutte_from_contractions,
    tutte_sym,
    tutte_sym_delcon,
)
from tuttekit.kernel import (
    GraphCombination,
    ReductionCertificate,
    StandardForm,
    b_value,
    broom_relation,
    classify_n4,
    combination_tutte_sym,
    cycle_relation,
    ell_iso,
    ell_loop,
    ell_multi,
    ell_os,
    ell_os_plus,
    ell_tri,
    extend,
    is_tutte_friendly,
    is_x_friendly,
    kernel_membership,
    reduce_to_star_forests,
    replay_certificate,
    s_pair,
    standard_form,
    two_edge_connected_relation,
    witness_graph,
    witness_mtilde_coefficient,
)
from tuttekit.quasi import (
    Digraph,
    QTPoly,
    TruncatedQFunc,
    tq,
    tq_from_arc_subsets,
    tq_from_connected_partitions,
    truncate_symfunc,
    underlying,
    xq,
)

__version__ = "0.1.0"
