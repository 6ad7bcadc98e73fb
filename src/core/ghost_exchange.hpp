// Per-iteration ghost field exchange (paper Algorithm 3 lines 4-5).
//
// A GhostField<T> holds one T per ghost vertex of a DistGraph and knows how
// to refresh all of them from their owners in one collective step. The
// structural lists from DistGraph's Algorithm-4 setup make this cheap:
// mirrors()[r] on this rank and ghosts_by_owner()[me] on rank r are the SAME
// list in the same order, so an update message needs no global vertex ids:
// it carries only the entries that changed since the last exchange, as
// (mirror-list index, absolute value) pairs. A round in which nothing moved
// ships empty messages. The exchange runs over the sparse neighbourhood
// collective on DistGraph::neighbor_ranks() -- the paper's planned MPI-3
// upgrade (Section VI) -- so a rank sends one message per neighbouring
// rank, not one per rank of the world.
//
// The field also records which of its slots changed in the last exchange
// (last_changes(), with the previous value) -- the hook the distributed
// engine's incremental community-cache bookkeeping hangs off.
//
// Used with T = CommunityId for the Louvain community push, T = VertexId
// for connected-component labels and T = std::int64_t for ghost colors and
// activity flags.
#pragma once

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "comm/comm.hpp"
#include "graph/dist_graph.hpp"
#include "util/types.hpp"

namespace dlouvain::core {

template <typename T>
class GhostField {
  static_assert(std::is_integral_v<T>,
                "GhostField ships mirror-list indices in the value type");

 public:
  /// A slot the last exchange changed, with the value it replaced.
  struct SlotChange {
    std::int64_t slot;
    T old_value;
  };

  /// All ghost slots start at `fill`; senders assume the receiver holds
  /// `fill` too, so the first exchange ships only values that differ.
  GhostField(const graph::DistGraph& g, const T& fill)
      : graph_(&g),
        values_(g.ghosts().size(), fill),
        prev_owned_(static_cast<std::size_t>(g.local_count()), fill) {
    init_offsets();
  }

  /// Identity start: every ghost slot holds the ghost's own global id --
  /// the "each vertex in its own community" phase-start state.
  static GhostField identity(const graph::DistGraph& g)
    requires std::is_convertible_v<VertexId, T>
  {
    GhostField field(g, T{});
    std::copy(g.ghosts().begin(), g.ghosts().end(), field.values_.begin());
    for (VertexId lv = 0; lv < g.local_count(); ++lv)
      field.prev_owned_[static_cast<std::size_t>(lv)] = static_cast<T>(g.to_global(lv));
    return field;
  }

  /// Value for ghost vertex gv. Hot path: debug-asserted, no checks in
  /// release builds -- callers that cannot guarantee gv is a ghost use at().
  [[nodiscard]] const T& of(VertexId gv) const {
    const auto slot = graph_->ghost_slot(gv);
    assert(slot >= 0 && "GhostField::of: not a ghost vertex");
    return values_[static_cast<std::size_t>(slot)];
  }

  /// Checked twin of of(): throws std::out_of_range when gv is not a ghost
  /// of this rank. For protocol-boundary callers and tests.
  [[nodiscard]] const T& at(VertexId gv) const {
    const auto slot = graph_->ghost_slot(gv);
    if (slot < 0) throw std::out_of_range("GhostField: not a ghost vertex");
    return values_[static_cast<std::size_t>(slot)];
  }

  /// Collective: push every mirrored owned vertex whose value changed since
  /// the last exchange to the ranks ghosting it, and absorb their pushes
  /// into our slots in FIXED neighbour order (the collective drains peer
  /// buffers in arrival order, but the absorb does not), so changes_
  /// ordering, and everything downstream of it, is independent of message
  /// timing. `owned` maps local vertex index -> value.
  void exchange(comm::Comm& comm, std::span<const T> owned) {
    changes_.clear();
    const auto& neighbors = graph_->neighbor_ranks();
    // Counts into this rank's block on this rank's thread (single-writer);
    // records = ghost values carried.
    util::CounterBlock& ctr = comm.counters();
    std::vector<std::vector<T>> outbox(neighbors.size());
    for (std::size_t n = 0; n < neighbors.size(); ++n) {
      const auto& mirror_list = graph_->mirrors()[static_cast<std::size_t>(neighbors[n])];
      auto& payload = outbox[n];
      for (std::size_t i = 0; i < mirror_list.size(); ++i) {
        const auto lv = static_cast<std::size_t>(graph_->to_local(mirror_list[i]));
        if (owned[lv] != prev_owned_[lv]) {
          payload.push_back(static_cast<T>(i));
          payload.push_back(owned[lv]);
        }
      }
      ctr[util::Counter::kGhostBytesDelta] +=
          static_cast<std::int64_t>(payload.size() * sizeof(T));
      ctr[util::Counter::kGhostRecordsShipped] += static_cast<std::int64_t>(payload.size() / 2);
    }
    remember_sent(owned);
    const auto inbox = comm.neighbor_alltoallv<T>(neighbors, std::move(outbox));
    for (std::size_t n = 0; n < neighbors.size(); ++n) absorb_from(neighbors[n], inbox[n]);
  }

  /// Slots the last exchange() call overwrote with a DIFFERENT value, with
  /// the value each held before (in ascending slot order per source rank).
  [[nodiscard]] const std::vector<SlotChange>& last_changes() const noexcept {
    return changes_;
  }

  /// All ghost values, indexed by ghost slot (aligned with
  /// DistGraph::ghosts()).
  [[nodiscard]] const std::vector<T>& values() const { return values_; }

 private:
  void store_slot(std::size_t slot, const T& value) {
    if (values_[slot] != value) {
      changes_.push_back(SlotChange{static_cast<std::int64_t>(slot), values_[slot]});
      values_[slot] = value;
    }
  }

  void absorb_from(Rank r, const std::vector<T>& received) {
    const auto base = offsets_[static_cast<std::size_t>(r)];
    const auto count = graph_->ghosts_by_owner()[static_cast<std::size_t>(r)].size();
    if (received.size() % 2 != 0)
      throw std::logic_error("GhostField: malformed update (odd length)");
    for (std::size_t i = 0; i < received.size(); i += 2) {
      const auto idx = static_cast<std::size_t>(received[i]);
      if (idx >= count) throw std::logic_error("GhostField: update index out of range");
      store_slot(base + idx, received[i + 1]);
    }
  }

  void init_offsets() {
    offsets_.resize(graph_->ghosts_by_owner().size() + 1, 0);
    for (std::size_t r = 0; r < graph_->ghosts_by_owner().size(); ++r)
      offsets_[r + 1] = offsets_[r] + graph_->ghosts_by_owner()[r].size();
  }

  /// Snapshot what this round told the world, so the next round's deltas are
  /// relative to what every receiver now holds.
  void remember_sent(std::span<const T> owned) {
    std::copy(owned.begin(), owned.end(), prev_owned_.begin());
  }

  const graph::DistGraph* graph_;
  std::vector<T> values_;             ///< by ghost slot
  std::vector<T> prev_owned_;         ///< by local vertex: value last sent
  std::vector<std::size_t> offsets_;  ///< slot offset per owner rank
  std::vector<SlotChange> changes_;   ///< slots the last exchange rewrote
};

/// The Louvain community field: ghosts start in their own community.
class GhostCommunities : public GhostField<CommunityId> {
 public:
  explicit GhostCommunities(const graph::DistGraph& g)
      : GhostField<CommunityId>(GhostField<CommunityId>::identity(g)) {}
};

}  // namespace dlouvain::core
