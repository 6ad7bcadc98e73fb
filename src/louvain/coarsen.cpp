#include "louvain/coarsen.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlouvain::louvain {

CommunityId compact_ids(std::vector<CommunityId>& community) {
  // Ordered renumbering (stable compact ids) in O(n + id range): mark the
  // ids present, prefix-count the marks, read each id's rank back. Callers
  // pass vertex-id-space communities, so the range is at most n.
  if (community.empty()) return 0;
  const auto [lo, hi] = std::minmax_element(community.begin(), community.end());
  if (*lo < 0) throw std::out_of_range("compact_ids: negative community id");
  const CommunityId base = *lo;
  std::vector<CommunityId> rank(static_cast<std::size_t>(*hi - base) + 1, 0);
  for (const CommunityId c : community) rank[static_cast<std::size_t>(c - base)] = 1;
  CommunityId next = 0;
  for (auto& r : rank) {
    const CommunityId present = r;
    r = next;
    next += present;
  }
  for (auto& c : community) c = rank[static_cast<std::size_t>(c - base)];
  return next;
}

std::vector<CommunityId> compose(std::span<const CommunityId> orig_to_curr,
                                 std::span<const CommunityId> curr_assignment) {
  std::vector<CommunityId> out(orig_to_curr.size());
  for (std::size_t i = 0; i < orig_to_curr.size(); ++i) {
    const auto cur = orig_to_curr[i];
    if (cur < 0 || static_cast<std::size_t>(cur) >= curr_assignment.size())
      throw std::out_of_range("compose: mapping out of range");
    out[i] = curr_assignment[static_cast<std::size_t>(cur)];
  }
  return out;
}

CoarsenResult coarsen(const graph::Csr& g, std::span<const CommunityId> community) {
  const VertexId n = g.num_vertices();
  if (community.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("coarsen: assignment size != num vertices");

  CoarsenResult result;
  result.old_to_new.assign(community.begin(), community.end());
  result.num_meta_vertices = compact_ids(result.old_to_new);

  // Accumulate meta arcs. Distinct-member intra weight is summed into `intra`
  // (it double counts each undirected pair) and halved at the end; stored
  // member self loops land in `self` at face value. Inter-community arcs are
  // emitted in edge-scan order and each meta self loop after them, so the
  // row builder's arrival-order coalesce sums equal (src, dst) keys in
  // edge-scan order.
  std::vector<Edge> arcs;
  arcs.reserve(static_cast<std::size_t>(g.num_arcs()) +
               static_cast<std::size_t>(result.num_meta_vertices));
  std::vector<Weight> intra(static_cast<std::size_t>(result.num_meta_vertices), 0.0);
  std::vector<Weight> self(static_cast<std::size_t>(result.num_meta_vertices), 0.0);
  for (VertexId v = 0; v < n; ++v) {
    const CommunityId cv = result.old_to_new[static_cast<std::size_t>(v)];
    for (const auto& e : g.neighbors(v)) {
      const CommunityId cu = result.old_to_new[static_cast<std::size_t>(e.dst)];
      if (e.dst == v) {
        self[static_cast<std::size_t>(cv)] += e.weight;
      } else if (cu == cv) {
        intra[static_cast<std::size_t>(cv)] += e.weight;
      } else {
        arcs.push_back({cv, cu, e.weight});
      }
    }
  }
  for (CommunityId c = 0; c < result.num_meta_vertices; ++c) {
    const Weight loop = intra[static_cast<std::size_t>(c)] / 2 + self[static_cast<std::size_t>(c)];
    if (loop > 0) arcs.push_back({c, c, loop});
  }

  // Both inter directions were accumulated already.
  result.graph = graph::build_csr(result.num_meta_vertices, arcs, {.symmetrize = false});
  return result;
}

}  // namespace dlouvain::louvain
