#include "graph/dist_graph.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
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

DistGraph DistGraph::apply_edge_changes(comm::Comm& comm,
                                        std::span<const EdgeChange> changes) const {
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
  // any real graph. Instead, merge only the touched CSR rows and splice
  // them into a copy of the others. Rows are coalesced and dst-sorted by
  // construction (build() assembles them with build_rows; this function
  // preserves both invariants), so each touched row is a small sorted merge.
  //
  // Removals resolve against the pre-batch arc set, directions owned here.
  // Because rows are coalesced, each (src, dst) appears at most once: a
  // batch naming the same edge twice can match at most one arc, and the
  // excess is a batch error -- detected locally, agreed globally so every
  // rank throws (or none does), before anything is built.
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

  const VertexId local_n = local_count();
  const auto nl = static_cast<std::int64_t>(local_n);

  // Remote destinations a touched row gained or lost, from one walk over
  // its old and new (both dst-sorted) arc lists. Each one moves its ghost's
  // local arc count by +-1 and may flip the row's membership in the
  // mirror list of the destination's owner.
  std::map<VertexId, std::int64_t> ghost_delta;
  std::vector<std::pair<VertexId, Rank>> mirror_checks;  // (row, owner) to re-derive
  for (const auto& [lv, merged] : new_rows) {
    const auto old_row = local_.neighbors(lv);
    const auto note = [&](VertexId dst, std::int64_t d) {
      if (owns(dst)) return;
      ghost_delta[dst] += d;
      mirror_checks.emplace_back(lv, owner(dst));
    };
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < old_row.size() || j < merged.size()) {
      if (j == merged.size() || (i < old_row.size() && old_row[i].dst < merged[j].dst)) {
        note(old_row[i++].dst, -1);
      } else if (i == old_row.size() || merged[j].dst < old_row[i].dst) {
        note(merged[j++].dst, +1);
      } else {
        ++i;
        ++j;
      }
    }
  }

  DistGraph g;
  g.rank_ = rank_;
  g.part_ = part_;

  // Ghosts: counts move by the deltas; a ghost whose count reaches zero
  // retires, a destination that is not yet a ghost joins in sorted
  // position. When the set changes, remap[old slot] is the ghost's new slot
  // (-1 once retired), used to re-base the copied dst slots below.
  std::vector<std::pair<VertexId, std::int64_t>> joined;  // (ghost, arcs)
  std::vector<std::int64_t> retired;                        // old slots
  g.ghost_arcs_ = ghost_arcs_;
  for (const auto& [dst, d] : ghost_delta) {
    if (d == 0) continue;
    const std::int64_t slot = ghost_slot(dst);
    if (slot < 0) {
      joined.emplace_back(dst, d);  // a new ghost can only gain arcs
    } else if ((g.ghost_arcs_[static_cast<std::size_t>(slot)] += d) == 0) {
      retired.push_back(slot);
    }
  }
  std::vector<std::int64_t> remap;
  if (joined.empty() && retired.empty()) {
    g.ghosts_ = ghosts_;
    g.ghosts_by_owner_ = ghosts_by_owner_;
  } else {
    remap.resize(ghosts_.size());
    g.ghosts_.reserve(ghosts_.size() + joined.size());
    std::vector<VertexId> counts;
    counts.reserve(ghosts_.size() + joined.size());
    std::size_t k = 0;  // next joined ghost
    std::size_t x = 0;  // next retired slot
    for (std::size_t s = 0; s <= ghosts_.size(); ++s) {
      const VertexId id = s < ghosts_.size() ? ghosts_[s] : n;
      for (; k < joined.size() && joined[k].first < id; ++k) {
        g.ghosts_.push_back(joined[k].first);
        counts.push_back(joined[k].second);
      }
      if (s == ghosts_.size()) break;
      if (x < retired.size() && retired[x] == static_cast<std::int64_t>(s)) {
        ++x;
        remap[s] = -1;
        continue;
      }
      remap[s] = static_cast<std::int64_t>(g.ghosts_.size());
      g.ghosts_.push_back(id);
      counts.push_back(g.ghost_arcs_[s]);
    }
    g.ghost_arcs_ = std::move(counts);
    g.split_ghosts_by_owner();
  }

  // Mirrors, patched by the owner alone: the graph is symmetric, so rank r
  // ghosts my vertex v iff v's row has an arc into r's vertex range.
  g.mirrors_ = mirrors_;
  std::sort(mirror_checks.begin(), mirror_checks.end());
  mirror_checks.erase(std::unique(mirror_checks.begin(), mirror_checks.end()),
                      mirror_checks.end());
  for (const auto& [lv, r] : mirror_checks) {
    const auto& row = new_rows.at(lv);
    const auto it = std::lower_bound(
        row.begin(), row.end(), part_.begin(r),
        [](const HalfEdge& e, VertexId d) { return e.dst < d; });
    const bool ghosted = it != row.end() && it->dst < part_.end(r);
    auto& list = g.mirrors_[static_cast<std::size_t>(r)];
    const VertexId gv = to_global(lv);
    const auto pos = std::lower_bound(list.begin(), list.end(), gv);
    const bool listed = pos != list.end() && *pos == gv;
    if (ghosted && !listed) list.insert(pos, gv);
    if (!ghosted && listed) list.erase(pos);
  }
  g.derive_neighbor_ranks();

  // Splice: one sequential pass over the rows. Runs of untouched rows are
  // copied as blocks (arcs verbatim, offsets and dst slots re-based);
  // touched rows come from their merge with freshly resolved slots.
  const auto& old_offsets = local_.offsets();
  const auto& old_half = local_.edges();
  EdgeId new_arcs = local_.num_arcs();
  for (const auto& [lv, merged] : new_rows)
    new_arcs += static_cast<EdgeId>(merged.size()) - local_.degree(lv);
  std::vector<EdgeId> offsets(static_cast<std::size_t>(local_n) + 1);
  std::vector<HalfEdge> half;
  half.reserve(static_cast<std::size_t>(new_arcs));
  g.dst_slots_.reserve(static_cast<std::size_t>(new_arcs));
  EdgeId shift = 0;  // new offset - old offset of the rows being copied
  const auto copy_rows = [&](VertexId from, VertexId to) {
    for (VertexId lv = from; lv < to; ++lv)
      offsets[static_cast<std::size_t>(lv)] = old_offsets[static_cast<std::size_t>(lv)] + shift;
    const auto lo = static_cast<std::ptrdiff_t>(old_offsets[static_cast<std::size_t>(from)]);
    const auto hi = static_cast<std::ptrdiff_t>(old_offsets[static_cast<std::size_t>(to)]);
    half.insert(half.end(), old_half.begin() + lo, old_half.begin() + hi);
    const auto first = dst_slots_.begin() + lo;
    const auto last = dst_slots_.begin() + hi;
    if (remap.empty()) {
      g.dst_slots_.insert(g.dst_slots_.end(), first, last);
    } else {
      std::transform(first, last, std::back_inserter(g.dst_slots_), [&](std::int64_t s) {
        return s < nl ? s : nl + remap[static_cast<std::size_t>(s - nl)];
      });
    }
  };
  VertexId next = 0;
  for (const auto& [lv, merged] : new_rows) {
    copy_rows(next, lv);
    offsets[static_cast<std::size_t>(lv)] = old_offsets[static_cast<std::size_t>(lv)] + shift;
    half.insert(half.end(), merged.begin(), merged.end());
    for (const auto& e : merged)
      g.dst_slots_.push_back(owns(e.dst) ? to_local(e.dst) : nl + g.ghost_slot(e.dst));
    shift += static_cast<EdgeId>(merged.size()) - local_.degree(lv);
    next = lv + 1;
  }
  copy_rows(next, local_n);
  offsets[static_cast<std::size_t>(local_n)] = new_arcs;
  g.local_ = Csr(local_n, std::move(offsets), std::move(half));

  // Degrees and boundary flags change on touched rows only. The totals are
  // summed serially in local-index order exactly as build() does, so they
  // come out bit for bit the same.
  g.degrees_ = degrees_;
  g.boundary_flags_ = boundary_flags_;
  g.boundary_count_ = boundary_count_;
  for (const auto& [lv, merged] : new_rows) {
    const VertexId gv = to_global(lv);
    Weight k = 0;
    char boundary = 0;
    for (const auto& e : merged) {
      k += e.dst == gv ? 2 * e.weight : e.weight;
      boundary |= owns(e.dst) ? 0 : 1;
    }
    g.degrees_[static_cast<std::size_t>(lv)] = k;
    g.boundary_count_ += boundary - g.boundary_flags_[static_cast<std::size_t>(lv)];
    g.boundary_flags_[static_cast<std::size_t>(lv)] = boundary;
  }
  Weight local_weight = 0;
  for (const Weight k : g.degrees_) local_weight += k;
  g.total_weight_ = comm.allreduce_sum(local_weight);
  g.global_arcs_ = comm.allreduce_sum(g.local_.num_arcs());
  return g;
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
  // owner, which verifies a matching reverse arc exists locally. Every rank
  // joins the exchange even after finding an error of its own: a rank that
  // skipped it would leave its peers blocked in the collective.
  {
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
      if (!local_error.empty()) break;
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

void DistGraph::split_ghosts_by_owner() {
  // Owner intervals are contiguous in id space, so each owner's ghosts are
  // a run of the sorted list.
  ghosts_by_owner_.assign(static_cast<std::size_t>(part_.num_ranks()), {});
  for (int r = 0; r < part_.num_ranks(); ++r) {
    const auto lo = std::lower_bound(ghosts_.begin(), ghosts_.end(), part_.begin(r));
    const auto hi = std::lower_bound(lo, ghosts_.end(), part_.end(r));
    ghosts_by_owner_[static_cast<std::size_t>(r)].assign(lo, hi);
  }
}

void DistGraph::derive_neighbor_ranks() {
  neighbor_ranks_.clear();
  for (int r = 0; r < part_.num_ranks(); ++r) {
    if (r == rank_) continue;
    if (!ghosts_by_owner_[static_cast<std::size_t>(r)].empty() ||
        !mirrors_[static_cast<std::size_t>(r)].empty())
      neighbor_ranks_.push_back(static_cast<Rank>(r));
  }
}

void DistGraph::discover_ghosts(comm::Comm& comm) {
  // Paper Algorithm 4 (ExchangeGhostVertices): scan local edge lists for
  // remote endpoints... The same pass resolves owned destinations to their
  // row and flags boundary rows: a vertex whose row references no
  // ghost slot can decide its move from purely rank-local state, so the
  // sweep may process it while a ghost exchange is still in flight.
  const auto nl = static_cast<std::int64_t>(local_count());
  const auto& offsets = local_.offsets();
  const auto& arcs = local_.edges();
  dst_slots_.resize(arcs.size());
  boundary_flags_.assign(static_cast<std::size_t>(local_count()), 0);
  boundary_count_ = 0;
  struct RemoteArc {
    VertexId dst;
    std::size_t arc;
  };
  std::vector<RemoteArc> remote;
  for (VertexId lv = 0; lv < local_count(); ++lv) {
    for (auto a = static_cast<std::size_t>(offsets[static_cast<std::size_t>(lv)]);
         a < static_cast<std::size_t>(offsets[static_cast<std::size_t>(lv) + 1]); ++a) {
      const VertexId dst = arcs[a].dst;
      if (owns(dst)) {
        dst_slots_[a] = static_cast<std::int64_t>(to_local(dst));
      } else {
        remote.push_back({dst, a});
        boundary_flags_[static_cast<std::size_t>(lv)] = 1;
      }
    }
    boundary_count_ += boundary_flags_[static_cast<std::size_t>(lv)];
  }

  // ...sort them by destination: an LSD radix sort over the bits of n - 1,
  // 11 bits a pass, so two passes up to 4M vertices and no comparison sort
  // or per-arc search...
  constexpr int kDigitBits = 11;
  constexpr std::size_t kDigits = std::size_t{1} << kDigitBits;
  const int key_bits =
      std::bit_width(static_cast<std::uint64_t>(std::max<VertexId>(part_.num_vertices() - 1, 0)));
  std::vector<RemoteArc> sorted(remote.size());
  for (int shift = 0; shift < key_bits; shift += kDigitBits) {
    std::vector<std::size_t> start(kDigits + 1, 0);
    const auto digit = [&](const RemoteArc& r) {
      return (static_cast<std::uint64_t>(r.dst) >> shift) & (kDigits - 1);
    };
    for (const auto& r : remote) ++start[digit(r) + 1];
    for (std::size_t d = 0; d < kDigits; ++d) start[d + 1] += start[d];
    for (const auto& r : remote) sorted[start[digit(r)]++] = r;
    remote.swap(sorted);
  }

  // ...and number each run of equal destinations: the ghost's slot, and its
  // arc count (rows are coalesced, so that is its number of referencing
  // rows -- what apply_edge_changes retires ghosts by). One-time arc ->
  // slot translation: local row index for owned destinations,
  // local_count() + ghost slot for remote ones. Every per-iteration O(arcs)
  // loop indexes through dst_slots_ instead of searching.
  ghosts_.clear();
  ghost_arcs_.clear();
  for (std::size_t i = 0; i < remote.size();) {
    const auto slot = nl + static_cast<std::int64_t>(ghosts_.size());
    std::size_t j = i;
    for (; j < remote.size() && remote[j].dst == remote[i].dst; ++j)
      dst_slots_[remote[j].arc] = slot;
    ghosts_.push_back(remote[i].dst);
    ghost_arcs_.push_back(static_cast<VertexId>(j - i));
    i = j;
  }
  split_ghosts_by_owner();

  // ...then tell each owner which of its vertices we ghost, so owners know
  // their send lists (mirrors) for the per-iteration community updates.
  mirrors_ = comm.alltoallv<VertexId>(ghosts_by_owner_);

  // Static exchange topology: peers we either ghost from or mirror to. For
  // a symmetric graph the two imply each other, so the adjacency is
  // symmetric world-wide -- the prerequisite for neighbor_alltoallv.
  derive_neighbor_ranks();
}

}  // namespace dlouvain::graph
