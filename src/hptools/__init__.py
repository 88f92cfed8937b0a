"""Exact desk-scale toolkit for the structure of hereditary graph
properties: universal graphs and shattering, speeds and colouring numbers,
U(k)-free counting, sparsening, and packing/decomposition certificates."""

__version__ = "0.1.0"

from .errors import DomainError, StepError
from .graphs import (Graph, bits, contains_induced, enumerate_labeled,
                     graph6_decode, graph6_encode, graph_from_edges,
                     induced_subgraph, mask_of, part_masks, random_graph)
from .universal import (aligned_reverse_shatter, construct_generalized_universal,
                        construct_universal, construct_universal_star,
                        sauer_bound, sauer_find_shattered, shatters)
from .hereditary import (ColouringNumber, PropertySpec, abt_bounds,
                         class_levels, colouring_number, count_hrv,
                         enumerate_property, hrv_member, load_property, speed,
                         valid_hrv_patterns)
from .freeness import (BipGraph, SparseningOutput, bipgraph_decode,
                       count_nonshattering_attachments, count_sparse_bipartite,
                       count_uk_free_bipartite, distinguishing_set,
                       extract_clone_classes, find_uk_copy,
                       max_separated_subset, planted_clone_instance,
                       random_bipgraph, separated_subset_ceiling,
                       trace_count_check)
from .regularity import (is_epsilon_regular, is_grey, min_intra_edges_parts,
                         pair_density, toy_bbs_parts, toy_szemeredi_partition)
from .structure import (DecompositionCertificate, PackingPiece, PackingReport,
                        alpha_adjust, certify_members, decompose,
                        decomposition_failures, extract_universal_packing,
                        max_bad_set, provenance_failures, verify_decomposition,
                        verify_packing_maximality, verify_packing_report)
