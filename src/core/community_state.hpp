// CommunityLedger: the distributed community bookkeeping of paper
// Algorithm 3.
//
// Community ids live in the vertex-id space and are co-partitioned with
// vertices, so the owner of community c is the owner of vertex c. Each rank
// stores, for its OWNED communities, the authoritative incident degree a_c
// and member count; for remote ("ghost") communities its vertices reference,
// a cached copy plus a running delta queue of local moves whose
// source/target communities are owned elsewhere -- flushed to the owners at
// the end of every iteration ("send updated information on ghost communities
// to owner processes").
//
// -- The compact slot index ------------------------------------------------
// Every community this rank can currently see has a SLOT: owned community c
// sits at slot to_local(c) in [0, local_count()); ghost communities get
// slots local_count() + i, handed out once on first retain() and stable for
// the rest of the phase (evictions are lazy -- a dead entry keeps its slot
// and revives on re-retain). The hot loops work entirely in slot space --
// info_by_slot(), apply_move_slots(), retain_slot()/release_slot() are plain
// array reads -- so the per-edge/per-move hash lookups of the id-keyed API
// disappear from the sweep. The id -> slot map behind retain()/slot_of() is
// a small open-addressing table probed only when a NEW community id shows up
// (a few per iteration, not a few per edge).
//
// -- Incremental refresh (subscriber push) ---------------------------------
// The seed implementation refetched every needed ghost community each
// iteration. This ledger instead keeps a refcount per ghost community --
// how many local slots (owned vertices, ghost mirrors) currently reference
// it, maintained by retain()/release() from the move log and the ghost-
// exchange change log -- and each owner tracks which ranks subscribe to each
// of its communities. refresh() then ships only what changed:
//   * subscribers request ids whose refcount just went positive (and aren't
//     cached), and cancel ids whose refcount hit zero;
//   * owners push fresh records for DIRTY communities (touched since the
//     last refresh by a local move or an incoming delta) to their current
//     subscribers, plus replies for the new requests.
// A community nobody touched is pushed to nobody: the subscriber's cached
// record and the owner's authoritative one are still bitwise identical, so
// every info() read returns exactly what a full refetch would have -- the
// refresh is an optimization, not a semantic change.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "graph/dist_graph.hpp"
#include "util/types.hpp"

namespace dlouvain::core {

struct CommunityInfo {
  Weight degree{0};   ///< a_c: summed weighted degree of members
  VertexId size{0};   ///< member count
};

class CommunityLedger {
 public:
  /// Initialize for a fresh phase over `g`: every vertex in its own
  /// community (a_c = k_c, size 1).
  explicit CommunityLedger(const graph::DistGraph& g);

  /// Authoritative or cached info for community c. c must be either owned or
  /// a live cached ghost (retained and refreshed); anything else throws
  /// std::out_of_range -- a protocol bug. Id-keyed convenience for tests and
  /// cold paths; hot loops use info_by_slot().
  [[nodiscard]] const CommunityInfo& info(CommunityId c) const;

  [[nodiscard]] bool owns(CommunityId c) const { return graph_->owns(c); }

  // -- compact slot index -------------------------------------------------
  /// One past the largest slot currently handed out (owned + ghost).
  [[nodiscard]] std::int64_t slot_count() const noexcept {
    return local_n_ + static_cast<std::int64_t>(ghost_ids_.size());
  }

  /// Slot of community c: to_local(c) when owned, the stable ghost slot when
  /// previously retained, -1 otherwise.
  [[nodiscard]] std::int64_t slot_of(CommunityId c) const;

  /// Global community id sitting at `slot`.
  [[nodiscard]] CommunityId id_of_slot(std::int64_t slot) const {
    assert(slot >= 0 && slot < slot_count());
    return slot < local_n_
               ? graph_->to_global(static_cast<VertexId>(slot))
               : ghost_ids_[static_cast<std::size_t>(slot - local_n_)];
  }

  /// Info record at `slot` (no liveness check -- hot path; the sweep only
  /// holds slots whose records the last refresh made authoritative).
  [[nodiscard]] const CommunityInfo& info_by_slot(std::int64_t slot) const {
    assert(slot >= 0 && slot < slot_count());
    return slot < local_n_
               ? owned_[static_cast<std::size_t>(slot)]
               : ghost_info_[static_cast<std::size_t>(slot - local_n_)];
  }

  // -- reference counting (drives the incremental refresh) ----------------
  /// A local slot now references community c: bump its refcount (creating
  /// its ghost entry on first sight) and return its slot. Owned communities
  /// are always available and not counted.
  std::int64_t retain(CommunityId c);
  /// A local slot stopped referencing community c.
  void release(CommunityId c);
  /// Slot-keyed twins for the sweep's apply loop (no id hashing).
  void retain_slot(std::int64_t slot);
  void release_slot(std::int64_t slot);

  // -- Alg. 3 line 9: apply a vertex move locally and immediately ---------
  /// Owned communities update in place; remote communities update the
  /// cached copy AND queue a delta for the owner.
  void apply_move_slots(std::int64_t from_slot, std::int64_t to_slot, Weight k);
  /// Id-keyed convenience (tests, cold paths): throws std::out_of_range if
  /// either community is an unknown ghost.
  void apply_move(CommunityId from, CommunityId to, Weight k);

  /// Iteration-start refresh: request newly-needed ghost records, cancel
  /// dropped subscriptions, push dirty owned records to subscribers.
  /// Collective.
  void refresh(comm::Comm& comm);

  /// Iteration-end flush: ship queued deltas to community owners and apply
  /// the incoming ones in fixed rank order. Collective.
  void flush_deltas(comm::Comm& comm);

  /// Sum of a_c^2 over OWNED communities (the local share of the modularity
  /// degree term).
  [[nodiscard]] Weight owned_degree_term() const;

  /// Number of owned communities with at least one member (the surviving
  /// local clusters counted during graph reconstruction).
  [[nodiscard]] VertexId owned_survivors() const;

  /// Owned community info by local index (for the rebuild's renumbering).
  [[nodiscard]] const std::vector<CommunityInfo>& owned() const { return owned_; }

 private:
  [[nodiscard]] std::int64_t find_ghost(CommunityId c) const;
  std::int64_t create_ghost(CommunityId c);
  void grow_table();
  void retain_idx(std::int64_t idx);
  void release_idx(std::int64_t idx);
  void touch_slot(std::int64_t slot, Weight dk, std::int64_t dsize);
  void mark_dirty(std::int64_t lc);

  const graph::DistGraph* graph_;
  std::int64_t local_n_{0};

  // Owned communities (authoritative), by local index.
  std::vector<CommunityInfo> owned_;
  std::vector<char> owned_dirty_;          ///< touched since the last refresh
  std::vector<std::int64_t> dirty_list_;   ///< local indices, deduped
  std::size_t sub_words_{0};               ///< subscriber bitmask words/comm
  std::vector<std::uint64_t> subscribers_; ///< local_n * sub_words_ bits

  // Ghost communities, by ghost index (slot - local_n_). Parallel arrays.
  std::vector<CommunityId> ghost_ids_;
  std::vector<CommunityInfo> ghost_info_;
  std::vector<std::int64_t> ghost_refcount_;
  std::vector<char> ghost_live_;           ///< cached record is authoritative
  // Pending deltas of local moves against ghost communities (flat
  // scatter: touched list + per-entry accumulators).
  std::vector<Weight> pending_degree_;
  std::vector<std::int64_t> pending_size_;
  std::vector<char> pending_flag_;
  std::vector<std::int64_t> pending_touched_;
  // Refresh candidates, appended on refcount edges, filtered at refresh().
  std::vector<char> fetch_flag_;
  std::vector<char> unsub_flag_;
  std::vector<std::int64_t> maybe_fetch_;
  std::vector<std::int64_t> maybe_unsub_;

  // Open-addressing id -> ghost index table (linear probing, insert-only;
  // lazy eviction keeps dead entries resident).
  std::vector<std::int64_t> table_;
  std::size_t table_mask_{0};
};

}  // namespace dlouvain::core
