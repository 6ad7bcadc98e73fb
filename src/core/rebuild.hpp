// Distributed graph reconstruction between Louvain phases (paper Fig. 1,
// steps 1-7): communities become meta-vertices, intra-community weight
// becomes a self loop, inter-community weight is aggregated, and the new
// graph is redistributed so every rank owns an (almost) equal number of the
// new vertices.
#pragma once

#include <span>

#include "comm/comm.hpp"
#include "core/community_state.hpp"
#include "core/ghost_exchange.hpp"
#include "graph/dist_graph.hpp"
#include "util/parallel.hpp"

namespace dlouvain::core {

struct RebuildOutput {
  /// The coarsened, redistributed graph for the next phase.
  graph::DistGraph graph;
  /// For each CURRENT owned vertex (local index): the id of the meta-vertex
  /// it collapsed into. This is what lets the driver maintain the
  /// original-vertex -> current-vertex chain across phases.
  std::vector<VertexId> new_vertex_of_current;
  VertexId new_global_n{0};
};

/// Collective. `owned_community[lv]` is the final community of each owned
/// vertex; `ghosts` must reflect a completed exchange of those finals (the
/// driver re-pushes after the last iteration); `ledger` carries the
/// authoritative sizes used to detect surviving communities.
///
/// `pool` (optional) threads the two O(arcs) passes -- the resolved
/// edge-list emission here and the CSR sort/assembly inside
/// DistGraph::build -- without changing the output: arcs are written at
/// precomputed CSR offsets and the sort is deterministic-stable (see
/// util/parallel.hpp), so the rebuilt graph is identical at any thread
/// count.
///
/// `build_graph = false` runs only the renumbering (steps 1-4 + the
/// current->meta mapping), leaving `graph` default-constructed -- the two
/// O(arcs) passes and the coarse DistGraph::build collective are skipped.
/// Used by the warm-start driver on its exit phase, where the coarse graph
/// would be built only to be thrown away (docs/STREAMING.md); the flag must
/// be collectively identical, since it changes which collectives run.
RebuildOutput rebuild(comm::Comm& comm, const graph::DistGraph& g,
                      std::span<const CommunityId> owned_community,
                      const GhostCommunities& ghosts, const CommunityLedger& ledger,
                      util::ThreadPool* pool = nullptr, bool build_graph = true);

}  // namespace dlouvain::core
