#include "core/rebuild.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace dlouvain::core {

namespace {

struct ResolveRecord {
  CommunityId old_id;
  VertexId new_id;
};

}  // namespace

RebuildOutput rebuild(comm::Comm& comm, const graph::DistGraph& g,
                      std::span<const CommunityId> owned_community,
                      const GhostCommunities& ghosts, const CommunityLedger& ledger,
                      util::ThreadPool* pool, bool build_graph) {
  const int p = comm.size();

  // Steps 1-2: surviving local communities, renumbered 0..n_i-1 in ascending
  // old-id order. A community survives iff it still has members anywhere;
  // the ledger's delta-maintained sizes are authoritative at its owner.
  // survivor_id[lc] is the new id of owned community v_begin() + lc, or
  // kInvalidVertex when it died.
  std::vector<VertexId> survivor_id(static_cast<std::size_t>(g.local_count()),
                                    kInvalidVertex);
  VertexId local_survivors = 0;
  for (VertexId lc = 0; lc < g.local_count(); ++lc) {
    if (ledger.owned()[static_cast<std::size_t>(lc)].size > 0)
      survivor_id[static_cast<std::size_t>(lc)] = local_survivors++;
  }

  // Step 3: global renumbering via parallel prefix sum.
  const VertexId offset = comm.exscan_sum(local_survivors);
  const VertexId new_global_n = comm.allreduce_sum(local_survivors);
  for (auto& id : survivor_id)
    if (id != kInvalidVertex) id += offset;

  // Step 4: resolve old->new ids for every community our edge lists touch.
  // Collect the needed set: communities of owned vertices and of ghosts.
  // needed_id[i] is the new id of needed[i] (sorted, unique), looked up by
  // binary search.
  std::vector<CommunityId> needed(owned_community.begin(), owned_community.end());
  needed.insert(needed.end(), ghosts.values().begin(), ghosts.values().end());
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  std::vector<VertexId> needed_id(needed.size(), kInvalidVertex);

  std::vector<std::vector<CommunityId>> requests(static_cast<std::size_t>(p));
  for (std::size_t i = 0; i < needed.size(); ++i) {
    const CommunityId c = needed[i];
    if (g.owns(c)) {
      needed_id[i] = survivor_id[static_cast<std::size_t>(g.to_local(c))];
    } else {
      requests[static_cast<std::size_t>(g.owner(c))].push_back(c);
    }
  }
  const auto incoming = comm.alltoallv<CommunityId>(requests);

  std::vector<std::vector<ResolveRecord>> replies(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    for (const CommunityId c : incoming[static_cast<std::size_t>(r)]) {
      const VertexId id = g.owns(c) ? survivor_id[static_cast<std::size_t>(g.to_local(c))]
                                    : kInvalidVertex;
      if (id == kInvalidVertex)
        throw std::logic_error("rebuild: peer referenced a dead community");
      replies[static_cast<std::size_t>(r)].push_back(ResolveRecord{c, id});
    }
  }
  const auto answers = comm.alltoallv<ResolveRecord>(std::move(replies));

  const auto needed_slot = [&](CommunityId c) -> VertexId& {
    const auto it = std::lower_bound(needed.begin(), needed.end(), c);
    if (it == needed.end() || *it != c)
      throw std::logic_error("rebuild: unresolved community id");
    return needed_id[static_cast<std::size_t>(it - needed.begin())];
  };
  for (const auto& from_rank : answers)
    for (const auto& rec : from_rank) needed_slot(rec.old_id) = rec.new_id;

  const auto resolve_or_throw = [&](CommunityId c) {
    const VertexId id = needed_slot(c);
    if (id == kInvalidVertex) throw std::logic_error("rebuild: unresolved community id");
    return id;
  };

  RebuildOutput out;
  out.new_global_n = new_global_n;
  out.new_vertex_of_current.resize(static_cast<std::size_t>(g.local_count()));
  for (VertexId lv = 0; lv < g.local_count(); ++lv)
    out.new_vertex_of_current[static_cast<std::size_t>(lv)] =
        resolve_or_throw(owned_community[static_cast<std::size_t>(lv)]);
  if (!build_graph) return out;

  // New id per destination slot (owned rows, then ghosts), so the O(arcs)
  // pass below indexes instead of searching.
  const auto& ghost_comm = ghosts.values();
  std::vector<VertexId> slot_id(out.new_vertex_of_current);
  slot_id.reserve(slot_id.size() + ghost_comm.size());
  for (const CommunityId c : ghost_comm) slot_id.push_back(resolve_or_throw(c));

  // Step 5: partial new edge lists. Weight conventions (see louvain/coarsen
  // for the serial twin): an intra-community arc between DISTINCT vertices
  // is emitted at half weight toward the meta self loop -- both directions
  // exist somewhere in the distributed graph, so the halves sum back to the
  // full pair weight -- while an existing self loop keeps face value.
  //
  // O(arcs) pass #1, threaded: vertex lv's arcs land at its CSR offset, so
  // every thread writes a disjoint slice and the emitted array is identical
  // to a serial walk. The slot table is read-only here.
  std::vector<Edge> arcs(static_cast<std::size_t>(g.local().num_arcs()));
  const auto& row_offsets = g.local().offsets();
  const auto& dst_slot = g.dst_slots();
  util::parallel_for(pool, g.local_count(), [&](int, std::int64_t begin,
                                                std::int64_t end) {
    for (VertexId lv = begin; lv < end; ++lv) {
      const VertexId gv = g.to_global(lv);
      const VertexId nsrc = slot_id[static_cast<std::size_t>(lv)];
      auto pos = static_cast<std::size_t>(row_offsets[static_cast<std::size_t>(lv)]);
      for (const auto& e : g.local().neighbors(lv)) {
        // pos tracks the arc index
        const VertexId ndst = slot_id[static_cast<std::size_t>(dst_slot[pos])];
        if (nsrc == ndst) {
          arcs[pos++] = {nsrc, ndst, e.dst == gv ? e.weight : e.weight / 2};
        } else {
          arcs[pos++] = {nsrc, ndst, e.weight};
        }
      }
    }
  });

  // Steps 6-7: ship the new arcs to their owners under the even-vertices
  // split of the coarse graph and assemble the CSR there.
  out.graph = graph::DistGraph::build(comm, graph::partition_even_vertices(new_global_n, p),
                                      std::move(arcs), /*symmetrize=*/false, pool);
  return out;
}

}  // namespace dlouvain::core
