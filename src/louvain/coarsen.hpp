// Graph coarsening: collapse each community into a meta-vertex (the
// between-phase "graph reconstruction" step of the Louvain method).
//
// Weight conventions (must stay consistent with Csr::weighted_degree, which
// counts a stored self loop twice):
//   * arcs between different communities keep their weight, one arc per
//     direction per (meta-src, meta-dst) pair after coalescing;
//   * intra-community weight collapses into ONE stored self loop of weight
//     (sum of intra arc weight between distinct members)/2
//     + (sum of stored member self-loop weights),
//     which makes the meta-vertex degree exactly the sum of member degrees.
// Under these rules modularity of any coarser assignment is preserved
// exactly -- property-tested in tests/test_louvain.cpp.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "util/types.hpp"

namespace dlouvain::louvain {

struct CoarsenResult {
  graph::Csr graph;                        ///< the meta graph
  std::vector<CommunityId> old_to_new;     ///< per old vertex: its meta-vertex id
  CommunityId num_meta_vertices{0};
};

/// Collapse `g` by `community` (arbitrary ids). Meta-vertex ids are assigned
/// compactly in order of first appearance by ascending community id.
CoarsenResult coarsen(const graph::Csr& g, std::span<const CommunityId> community);

/// Compose phase assignments: given the original->current mapping and the
/// current phase's community per current vertex, produce original->next.
std::vector<CommunityId> compose(std::span<const CommunityId> orig_to_curr,
                                 std::span<const CommunityId> curr_assignment);

/// Renumber non-negative community ids to compact [0, k) in ascending id
/// order; returns k. O(n + max id - min id) time and memory; throws
/// std::out_of_range on a negative id.
CommunityId compact_ids(std::vector<CommunityId>& community);

}  // namespace dlouvain::louvain
