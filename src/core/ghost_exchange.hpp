// Per-iteration ghost field exchange (paper Algorithm 3 lines 4-5).
//
// A GhostField<T> holds one T per ghost vertex of a DistGraph and knows how
// to refresh all of them from their owners in one collective step. The
// structural lists from DistGraph's Algorithm-4 setup make this cheap:
// mirrors()[r] on this rank and ghosts_by_owner()[me] on rank r are the SAME
// list in the same order, so an update message needs no (vertex, value)
// pairs -- either the full value array aligned with that list (dense), or,
// once most vertices have stopped moving, just the changed entries as
// (list index, value) pairs (delta). Every message carries a one-element
// header tagging its format, so the sender decides per destination and per
// round; see core/exchange_mode.hpp. Results are identical in every mode.
//
// The field also records which of its slots changed in the last exchange
// (last_changes(), with the previous value) -- the hook the distributed
// engine's incremental community-cache bookkeeping hangs off.
//
// Used with T = CommunityId for the Louvain community push, and with
// T = std::int64_t for ghost colors in the distance-1 coloring.
#pragma once

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "comm/comm.hpp"
#include "core/exchange_mode.hpp"
#include "graph/dist_graph.hpp"
#include "util/types.hpp"

namespace dlouvain::core {

/// Knobs for one GhostField::exchange call (see DistConfig for the run-level
/// defaults and the CLI spellings).
struct GhostExchangeConfig {
  /// Sparse neighbourhood collective (default) vs dense all-to-all; the
  /// paper's planned MPI-3 upgrade vs its baseline. Same payloads either way.
  bool use_neighbor{true};
  GhostExchangeMode mode{GhostExchangeMode::kDense};
  /// kAuto picks delta for a destination when
  ///   2 * changed_entries <= crossover * mirror_list_size
  /// (a delta entry costs two wire elements where a dense one costs one).
  double delta_crossover{0.5};
};

template <typename T>
class GhostField {
 public:
  /// A slot the last exchange changed, with the value it replaced.
  struct SlotChange {
    std::int64_t slot;
    T old_value;
  };

  /// All ghost slots start at `fill`; delta senders assume the receiver
  /// holds `fill` too, so the first exchange already works in any mode.
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

  /// Collective: push the current value of every mirrored owned vertex to
  /// the ranks ghosting it, and absorb their pushes into our slots in FIXED
  /// peer order (the collective drains peer buffers in arrival order, but
  /// the absorb does not), so changes_ ordering, and everything downstream
  /// of it, is independent of message timing. `owned` maps local vertex
  /// index -> value.
  void exchange(comm::Comm& comm, std::span<const T> owned,
                const GhostExchangeConfig& cfg) {
    changes_.clear();

    const auto build_payload = [&](Rank r) {
      const auto& mirror_list = graph_->mirrors()[static_cast<std::size_t>(r)];
      std::vector<T> payload;
      if (cfg.mode != GhostExchangeMode::kDense) {
        if constexpr (std::is_integral_v<T>) {
          std::size_t changed = 0;
          for (const VertexId gv : mirror_list) {
            const auto lv = static_cast<std::size_t>(graph_->to_local(gv));
            if (owned[lv] != prev_owned_[lv]) ++changed;
          }
          const bool use_delta =
              cfg.mode == GhostExchangeMode::kDelta ||
              2.0 * static_cast<double>(changed) <=
                  cfg.delta_crossover * static_cast<double>(mirror_list.size());
          if (use_delta) {
            payload.reserve(1 + 2 * changed);
            payload.push_back(static_cast<T>(1));
            for (std::size_t i = 0; i < mirror_list.size(); ++i) {
              const auto lv = static_cast<std::size_t>(graph_->to_local(mirror_list[i]));
              if (owned[lv] != prev_owned_[lv]) {
                payload.push_back(static_cast<T>(i));
                payload.push_back(owned[lv]);
              }
            }
            return payload;
          }
        }
      }
      payload.reserve(1 + mirror_list.size());
      payload.push_back(static_cast<T>(0));
      for (const VertexId gv : mirror_list)
        payload.push_back(owned[static_cast<std::size_t>(graph_->to_local(gv))]);
      return payload;
    };

    // Wire-mode accounting (ISSUE 4): bytes split by format so the manifest
    // shows what delta mode actually saves, records = ghost values carried.
    // Counts into this rank's block on this rank's thread (single-writer).
    util::CounterBlock& ctr = comm.counters();
    const auto count_payload = [&ctr](const std::vector<T>& payload) {
      const auto bytes = static_cast<std::int64_t>(payload.size() * sizeof(T));
      if (!payload.empty() && payload.front() == static_cast<T>(1)) {
        ctr[util::Counter::kGhostBytesDelta] += bytes;
        ctr[util::Counter::kGhostRecordsShipped] +=
            static_cast<std::int64_t>((payload.size() - 1) / 2);
      } else {
        ctr[util::Counter::kGhostBytesDense] += bytes;
        ctr[util::Counter::kGhostRecordsShipped] +=
            static_cast<std::int64_t>(payload.empty() ? 0 : payload.size() - 1);
      }
    };

    if (cfg.use_neighbor) {
      const auto& neighbors = graph_->neighbor_ranks();
      std::vector<std::vector<T>> outbox;
      outbox.reserve(neighbors.size());
      for (const Rank r : neighbors) {
        outbox.push_back(build_payload(r));
        count_payload(outbox.back());
      }
      remember_sent(owned);
      const auto inbox = comm.neighbor_alltoallv<T>(neighbors, std::move(outbox));
      for (std::size_t i = 0; i < neighbors.size(); ++i)
        absorb_from(neighbors[i], inbox[i]);
    } else {
      const int p = comm.size();
      std::vector<std::vector<T>> outbox(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        if (r == comm.rank()) continue;
        outbox[static_cast<std::size_t>(r)] = build_payload(static_cast<Rank>(r));
        count_payload(outbox[static_cast<std::size_t>(r)]);
      }
      remember_sent(owned);
      const auto inbox = comm.alltoallv<T>(std::move(outbox));
      for (std::size_t r = 0; r < inbox.size(); ++r) {
        if (static_cast<Rank>(r) != comm.rank())
          absorb_from(static_cast<Rank>(r), inbox[r]);
      }
    }
  }

  /// Legacy dense-mode entry points (sparse/dense topology knob only).
  void exchange(comm::Comm& comm, std::span<const T> owned, bool use_neighbor = true) {
    GhostExchangeConfig cfg;
    cfg.use_neighbor = use_neighbor;
    exchange(comm, owned, cfg);
  }
  void exchange(comm::Comm& comm, const std::vector<T>& owned, bool use_neighbor = true) {
    exchange(comm, std::span<const T>(owned), use_neighbor);
  }
  void exchange(comm::Comm& comm, const std::vector<T>& owned,
                const GhostExchangeConfig& cfg) {
    exchange(comm, std::span<const T>(owned), cfg);
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
    if (count == 0 && received.empty()) return;
    if (received.empty())
      throw std::logic_error("GhostField: missing update header");
    if (received.front() == static_cast<T>(0)) {
      if (received.size() != count + 1)
        throw std::logic_error("GhostField: dense update length mismatch");
      for (std::size_t i = 0; i < count; ++i) store_slot(base + i, received[i + 1]);
      return;
    }
    if constexpr (std::is_integral_v<T>) {
      if (received.front() != static_cast<T>(1) || received.size() % 2 != 1)
        throw std::logic_error("GhostField: malformed delta update");
      for (std::size_t i = 1; i + 1 < received.size(); i += 2) {
        const auto idx = static_cast<std::size_t>(received[i]);
        if (idx >= count)
          throw std::logic_error("GhostField: delta index out of range");
        store_slot(base + idx, received[i + 1]);
      }
      return;
    }
    throw std::logic_error("GhostField: delta update for non-integral field");
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
