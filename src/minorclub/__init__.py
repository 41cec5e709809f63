"""Exact clique-minor and bounded-diameter-minor algorithms on structured
graph classes, certified by brute-force oracles on small graphs."""

from .errors import (CapacityError, DomainError, InvalidStructureError,
                     MinorclubError, ParseError)
from .graph import (Graph, complement, components, contract_edges, diameter,
                    disjoint_union, induced_subgraph, is_connected, join,
                    max_clique)
from .formats import emit_graph, parse_graph
from .witness import verify_witness
from .recognition import (Cotree, StrongOrdering, diameter_dominating_pair,
                          is_at_free, is_chordal_bipartite, is_cobipartite,
                          is_split, recognize_cograph, strong_ordering,
                          verify_ordering)
from .oracle import (clique_matching_oracle, hadwiger_oracle,
                     max_s_club_minor_oracle, min_club_contraction_oracle,
                     nice_structure_oracle)
from .cograph_dp import cr_join, cr_union, hadwiger_cograph
from .bipperm_dp import hadwiger_bipperm, max_clique_matching
from .club_contraction import distance_profile, s_club_contract_decide, solve_club
from .reductions import (HittingSetInstance, NaeFormula, ReductionInstance,
                         hitting_set_to_chordal, hitting_set_to_split,
                         nae3sat_to_cobipartite, pendant_lift, subdivide_edges)

__all__ = [name for name in dir() if not name.startswith("_")]
