#include "graph/dist_graph.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "util/parallel.hpp"

namespace dlouvain::graph {

DistGraph DistGraph::build(comm::Comm& comm, const Partition1D& part,
                           std::vector<Edge> edges, bool symmetrize,
                           util::ThreadPool* pool) {
  if (part.num_ranks() != comm.size())
    throw std::invalid_argument("DistGraph::build: partition rank count != comm size");

  const VertexId n = part.num_vertices();
  const int p = comm.size();

  // Route every arc to the owner of its source; with symmetrize on, each
  // undirected input edge contributes both directions.
  std::vector<std::vector<Edge>> outbox(static_cast<std::size_t>(p));
  for (const Edge& e : edges) {
    if (e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n)
      throw std::out_of_range("DistGraph::build: edge endpoint out of range");
    outbox[static_cast<std::size_t>(part.owner(e.src))].push_back(e);
    if (symmetrize && e.src != e.dst)
      outbox[static_cast<std::size_t>(part.owner(e.dst))].push_back(Edge{e.dst, e.src, e.weight});
  }
  edges.clear();
  edges.shrink_to_fit();

  auto inbox = comm.alltoallv<Edge>(std::move(outbox));

  DistGraph g;
  g.rank_ = comm.rank();
  g.part_ = part;

  // Assemble the local CSR: rows are owned vertices, dst stays global.
  // Arrival order is the inbox from rank 0 to rank p-1, each in its sender's
  // outbox order, so duplicate (src, dst) arcs sum in that order at any
  // thread count.
  const VertexId lo = part.begin(comm.rank());
  const VertexId local_n = part.count(comm.rank());
  g.local_ = build_rows(lo, local_n, n, inbox, /*symmetrize=*/false, pool);
  inbox.clear();  // free the arcs before ghost discovery

  // Weighted degrees (global-id self loops detected against the global id).
  g.degrees_.resize(static_cast<std::size_t>(local_n), 0.0);
  util::parallel_for(pool, local_n, [&](int, std::int64_t begin, std::int64_t end) {
    for (VertexId lv = begin; lv < end; ++lv) {
      const VertexId gv = lv + lo;
      Weight k = 0;
      for (const auto& e : g.local_.neighbors(lv))
        k += e.dst == gv ? 2 * e.weight : e.weight;
      g.degrees_[static_cast<std::size_t>(lv)] = k;
    }
  });

  Weight local_weight = 0;
  for (const Weight k : g.degrees_) local_weight += k;
  g.total_weight_ = comm.allreduce_sum(local_weight);
  g.global_arcs_ = comm.allreduce_sum(g.local_.num_arcs());

  g.discover_ghosts(comm);
  return g;
}

DistGraph DistGraph::from_replicated(comm::Comm& comm, const Csr& global,
                                     PartitionKind kind) {
  const VertexId n = global.num_vertices();
  Partition1D part = kind == PartitionKind::kEvenVertices
                         ? partition_even_vertices(n, comm.size())
                         : partition_even_edges(n, comm.size(),
                                                [&](VertexId v) { return global.degree(v); });

  // Each rank contributes only its own rows as directed arcs; the global CSR
  // is already symmetric, so no symmetrization on build.
  std::vector<Edge> arcs;
  for (VertexId v = part.begin(comm.rank()); v < part.end(comm.rank()); ++v) {
    for (const auto& e : global.neighbors(v)) arcs.push_back(Edge{v, e.dst, e.weight});
  }
  return build(comm, part, std::move(arcs), /*symmetrize=*/false);
}

void DistGraph::apply_edge_changes(comm::Comm& comm,
                                   std::span<const EdgeChange> changes,
                                   util::ThreadPool* pool) {
  const VertexId n = part_.num_vertices();

  // Validate the batch shape locally; the list is replicated, so every rank
  // reaches the same verdict without a collective.
  for (const EdgeChange& c : changes) {
    if (c.u < 0 || c.u >= n || c.v < 0 || c.v >= n)
      throw std::invalid_argument("apply_edge_changes: endpoint out of range");
    if (c.u == c.v)
      throw std::invalid_argument("apply_edge_changes: self loops not supported");
    if (!c.remove && !(c.weight > 0))
      throw std::invalid_argument("apply_edge_changes: added weight must be > 0");
  }

  // A batch of k edges must not cost a full rebuild of |arcs| -- shipping
  // and re-sorting every arc through build() dominates Session::update on
  // any real graph. Instead, splice only the touched CSR rows in place.
  // Rows are coalesced and dst-sorted by construction (build() assembles
  // them with build_rows; this function preserves both invariants), so each
  // touched row is a small sorted merge.
  //
  // Removals resolve against the pre-batch arc set, directions owned here.
  // Because rows are coalesced, each (src, dst) appears at most once: a
  // batch naming the same edge twice can match at most one arc, and the
  // excess is a batch error -- detected locally, agreed globally so every
  // rank throws (or none does), before anything is mutated.
  std::map<VertexId, std::vector<std::pair<VertexId, Weight>>> row_adds;
  std::map<VertexId, std::vector<VertexId>> row_removes;
  std::int64_t missing = 0;
  {
    std::map<std::pair<VertexId, VertexId>, std::int64_t> remove_counts;
    for (const EdgeChange& c : changes) {
      if (!c.remove) continue;
      if (owns(c.u)) ++remove_counts[{to_local(c.u), c.v}];
      if (owns(c.v)) ++remove_counts[{to_local(c.v), c.u}];
    }
    for (const auto& [arc, count] : remove_counts) {
      const auto row = local_.neighbors(arc.first);
      const auto it = std::lower_bound(
          row.begin(), row.end(), arc.second,
          [](const HalfEdge& e, VertexId dst) { return e.dst < dst; });
      const bool present = it != row.end() && it->dst == arc.second;
      if (present) row_removes[arc.first].push_back(arc.second);
      missing += count - (present ? 1 : 0);
    }
  }
  if (comm.allreduce_max<std::int64_t>(missing) > 0)
    throw std::invalid_argument(
        "apply_edge_changes: batch removes an edge the graph does not have");

  // Additions after removals, in batch order (duplicate adds sum their
  // weights left to right, matching build()'s arrival-order coalesce).
  for (const EdgeChange& c : changes) {
    if (c.remove) continue;
    if (owns(c.u)) row_adds[to_local(c.u)].push_back({c.v, c.weight});
    if (owns(c.v)) row_adds[to_local(c.v)].push_back({c.u, c.weight});
  }

  // Merge each touched row: drop removed arcs, fold additions into
  // surviving arcs or insert them sorted.
  std::map<VertexId, std::vector<HalfEdge>> new_rows;
  for (const auto& kv : row_removes) new_rows.emplace(kv.first, std::vector<HalfEdge>{});
  for (const auto& kv : row_adds) new_rows.emplace(kv.first, std::vector<HalfEdge>{});
  for (auto& [lv, merged] : new_rows) {
    const auto row = local_.neighbors(lv);
    merged.assign(row.begin(), row.end());
    if (const auto rit = row_removes.find(lv); rit != row_removes.end()) {
      for (const VertexId dst : rit->second) {
        const auto it = std::lower_bound(
            merged.begin(), merged.end(), dst,
            [](const HalfEdge& e, VertexId d) { return e.dst < d; });
        merged.erase(it);  // presence established above
      }
    }
    if (const auto ait = row_adds.find(lv); ait != row_adds.end()) {
      for (const auto& [dst, w] : ait->second) {
        const auto it = std::lower_bound(
            merged.begin(), merged.end(), dst,
            [](const HalfEdge& e, VertexId d) { return e.dst < d; });
        if (it != merged.end() && it->dst == dst)
          it->weight += w;
        else
          merged.insert(it, HalfEdge{dst, w});
      }
    }
  }

  // Splice: new offsets (old lengths adjusted for touched rows), then one
  // O(arcs) copy -- untouched rows verbatim, touched rows from their merge.
  const VertexId local_n = local_count();
  const auto& old_offsets = local_.offsets();
  const auto& old_half = local_.edges();
  std::vector<EdgeId> offsets(static_cast<std::size_t>(local_n) + 1, 0);
  for (VertexId lv = 0; lv < local_n; ++lv) {
    const auto it = new_rows.find(lv);
    const auto len = it != new_rows.end()
                         ? static_cast<EdgeId>(it->second.size())
                         : old_offsets[static_cast<std::size_t>(lv) + 1] -
                               old_offsets[static_cast<std::size_t>(lv)];
    offsets[static_cast<std::size_t>(lv) + 1] = offsets[static_cast<std::size_t>(lv)] + len;
  }
  std::vector<HalfEdge> half(static_cast<std::size_t>(offsets.back()));
  util::parallel_for(pool, local_n, [&](int, std::int64_t begin, std::int64_t end) {
    for (VertexId lv = begin; lv < end; ++lv) {
      const auto out = half.begin() + static_cast<std::ptrdiff_t>(offsets[static_cast<std::size_t>(lv)]);
      const auto it = new_rows.find(lv);
      if (it != new_rows.end()) {
        std::copy(it->second.begin(), it->second.end(), out);
      } else {
        std::copy(old_half.begin() + static_cast<std::ptrdiff_t>(old_offsets[static_cast<std::size_t>(lv)]),
                  old_half.begin() + static_cast<std::ptrdiff_t>(old_offsets[static_cast<std::size_t>(lv) + 1]),
                  out);
      }
    }
  });
  local_ = Csr(local_n, std::move(offsets), std::move(half));

  // Re-derive weighted degrees for touched rows only; totals by allreduce,
  // summed serially in local-index order exactly as build() does.
  for (const auto& [lv, merged] : new_rows) {
    const VertexId gv = to_global(lv);
    Weight k = 0;
    for (const auto& e : merged) k += e.dst == gv ? 2 * e.weight : e.weight;
    degrees_[static_cast<std::size_t>(lv)] = k;
  }
  Weight local_weight = 0;
  for (const Weight k : degrees_) local_weight += k;
  total_weight_ = comm.allreduce_sum(local_weight);
  global_arcs_ = comm.allreduce_sum(local_.num_arcs());

  // Ghosts, mirrors, dst slots, boundary flags, neighbour topology: the
  // collective part that genuinely needs redoing.
  discover_ghosts(comm);
}

void DistGraph::validate(comm::Comm& comm) const {
  const int p = comm.size();
  std::string local_error;

  // 1. Ghost/mirror symmetry: what I ghost from rank r must equal what rank
  // r mirrors to me (and vice versa).
  const auto mirror_echo = comm.alltoallv<VertexId>(ghosts_by_owner_);
  for (int r = 0; r < p && local_error.empty(); ++r) {
    if (mirror_echo[static_cast<std::size_t>(r)] != mirrors_[static_cast<std::size_t>(r)])
      local_error = "ghost/mirror lists disagree with rank " + std::to_string(r);
  }

  // 2. Reverse-arc check: ship every cross-rank arc to its destination's
  // owner, which verifies a matching reverse arc exists locally.
  if (local_error.empty()) {
    std::vector<std::vector<Edge>> outbox(static_cast<std::size_t>(p));
    for (VertexId lv = 0; lv < local_count(); ++lv) {
      const VertexId gv = to_global(lv);
      for (const auto& e : local_.neighbors(lv)) {
        if (!owns(e.dst))
          outbox[static_cast<std::size_t>(owner(e.dst))].push_back(Edge{gv, e.dst, e.weight});
      }
    }
    const auto inbox = comm.alltoallv<Edge>(std::move(outbox));
    for (const auto& from_rank : inbox) {
      for (const Edge& arc : from_rank) {
        // arc.src -> arc.dst exists remotely; we own arc.dst and must hold
        // the reverse with equal weight.
        bool found = false;
        for (const auto& e : local_.neighbors(to_local(arc.dst))) {
          if (e.dst == arc.src && e.weight == arc.weight) {
            found = true;
            break;
          }
        }
        if (!found) {
          local_error = "missing reverse arc " + std::to_string(arc.dst) + "->" +
                        std::to_string(arc.src);
          break;
        }
      }
      if (!local_error.empty()) break;
    }
  }

  // 3. Degree sums reproduce the cached 2m.
  Weight local_weight = 0;
  for (const Weight k : degrees_) local_weight += k;
  const Weight recomputed = comm.allreduce_sum(local_weight);
  if (local_error.empty() && recomputed != total_weight_)
    local_error = "degree sum != cached total weight";

  // Agree on the outcome so every rank throws (or none does).
  const int worst = comm.allreduce_max<int>(local_error.empty() ? 0 : 1);
  if (worst != 0) {
    throw std::logic_error("DistGraph::validate: " +
                           (local_error.empty() ? std::string("peer rank failed")
                                                : local_error));
  }
}

void DistGraph::discover_ghosts(comm::Comm& comm) {
  const int p = comm.size();

  // Paper Algorithm 4 (ExchangeGhostVertices): scan local edge lists for
  // remote endpoints, bucket them by owner...
  ghosts_by_owner_.assign(static_cast<std::size_t>(p), {});
  for (const auto& e : local_.edges()) {
    if (!owns(e.dst)) ghosts_by_owner_[static_cast<std::size_t>(part_.owner(e.dst))].push_back(e.dst);
  }
  ghosts_.clear();
  ghost_index_.clear();
  for (auto& bucket : ghosts_by_owner_) {
    std::sort(bucket.begin(), bucket.end());
    bucket.erase(std::unique(bucket.begin(), bucket.end()), bucket.end());
    ghosts_.insert(ghosts_.end(), bucket.begin(), bucket.end());
  }
  // Buckets are owner-ordered and internally sorted, and owner intervals are
  // contiguous in id space, so the concatenation is globally sorted.
  ghost_index_.reserve(ghosts_.size());
  for (std::size_t i = 0; i < ghosts_.size(); ++i) ghost_index_[ghosts_[i]] = i;

  // One-time arc -> slot translation: local row index for owned
  // destinations, local_count() + ghost slot for remote ones. Every
  // per-iteration O(arcs) loop indexes through this instead of hashing.
  dst_slots_.resize(local_.edges().size());
  for (std::size_t a = 0; a < local_.edges().size(); ++a) {
    const VertexId dst = local_.edges()[a].dst;
    dst_slots_[a] = owns(dst)
                        ? static_cast<std::int64_t>(to_local(dst))
                        : static_cast<std::int64_t>(local_count()) +
                              static_cast<std::int64_t>(ghost_index_.at(dst));
  }

  // Interior/boundary split (ISSUE 5): a vertex whose row references no
  // ghost slot can decide its move from purely rank-local state, so the
  // sweep may process it while a ghost exchange is still in flight. Derived
  // from dst_slots_, so it costs one extra O(arcs) pass at build time.
  boundary_flags_.assign(static_cast<std::size_t>(local_count()), 0);
  boundary_count_ = 0;
  const auto& offsets = local_.offsets();
  for (VertexId lv = 0; lv < local_count(); ++lv) {
    const auto lo = static_cast<std::size_t>(offsets[static_cast<std::size_t>(lv)]);
    const auto hi = static_cast<std::size_t>(offsets[static_cast<std::size_t>(lv) + 1]);
    for (std::size_t a = lo; a < hi; ++a) {
      if (dst_slots_[a] >= static_cast<std::int64_t>(local_count())) {
        boundary_flags_[static_cast<std::size_t>(lv)] = 1;
        ++boundary_count_;
        break;
      }
    }
  }

  // ...then tell each owner which of its vertices we ghost, so owners know
  // their send lists (mirrors) for the per-iteration community updates.
  mirrors_ = comm.alltoallv<VertexId>(ghosts_by_owner_);

  // Static exchange topology: peers we either ghost from or mirror to. For
  // a symmetric graph the two imply each other, so the adjacency is
  // symmetric world-wide -- the prerequisite for neighbor_alltoallv.
  neighbor_ranks_.clear();
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    if (!ghosts_by_owner_[static_cast<std::size_t>(r)].empty() ||
        !mirrors_[static_cast<std::size_t>(r)].empty())
      neighbor_ranks_.push_back(static_cast<Rank>(r));
  }
}

}  // namespace dlouvain::graph
