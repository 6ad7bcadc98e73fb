#include "core/community_state.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dlouvain::core {

namespace {

/// Wire record for refresh replies, dirty pushes and delta flushes (where
/// degree and size are deltas).
struct InfoRecord {
  CommunityId community;
  Weight degree;
  std::int64_t size;
};

/// splitmix64 finalizer: the table's id hash.
std::size_t mix(CommunityId c) {
  auto x = static_cast<std::uint64_t>(c) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

}  // namespace

CommunityLedger::CommunityLedger(const graph::DistGraph& g)
    : graph_(&g),
      local_n_(g.local_count()),
      sub_words_((static_cast<std::size_t>(g.num_ranks()) + 63) / 64) {
  owned_.resize(static_cast<std::size_t>(local_n_));
  for (VertexId lv = 0; lv < local_n_; ++lv) {
    owned_[static_cast<std::size_t>(lv)] =
        CommunityInfo{g.weighted_degree(g.to_global(lv)), 1};
  }
  owned_dirty_.assign(static_cast<std::size_t>(local_n_), 0);
  subscribers_.assign(static_cast<std::size_t>(local_n_) * sub_words_, 0);
}

std::int64_t CommunityLedger::find_ghost(CommunityId c) const {
  if (table_.empty()) return -1;
  std::size_t b = mix(c) & table_mask_;
  while (table_[b] >= 0) {
    if (ghost_ids_[static_cast<std::size_t>(table_[b])] == c) return table_[b];
    b = (b + 1) & table_mask_;
  }
  return -1;
}

void CommunityLedger::grow_table() {
  const std::size_t capacity = std::max<std::size_t>(16, table_.size() * 2);
  table_.assign(capacity, -1);
  table_mask_ = capacity - 1;
  for (std::size_t i = 0; i < ghost_ids_.size(); ++i) {
    std::size_t b = mix(ghost_ids_[i]) & table_mask_;
    while (table_[b] >= 0) b = (b + 1) & table_mask_;
    table_[b] = static_cast<std::int64_t>(i);
  }
}

std::int64_t CommunityLedger::create_ghost(CommunityId c) {
  const auto idx = static_cast<std::int64_t>(ghost_ids_.size());
  ghost_ids_.push_back(c);
  ghost_info_.push_back(CommunityInfo{});
  ghost_refcount_.push_back(0);
  ghost_live_.push_back(0);
  pending_degree_.push_back(0);
  pending_size_.push_back(0);
  pending_flag_.push_back(0);
  fetch_flag_.push_back(0);
  unsub_flag_.push_back(0);
  // Keep load factor under 1/2.
  if (table_.empty() || 2 * ghost_ids_.size() > table_.size()) {
    grow_table();
  } else {
    std::size_t b = mix(c) & table_mask_;
    while (table_[b] >= 0) b = (b + 1) & table_mask_;
    table_[b] = idx;
  }
  return idx;
}

std::int64_t CommunityLedger::slot_of(CommunityId c) const {
  if (graph_->owns(c)) return graph_->to_local(c);
  const auto idx = find_ghost(c);
  return idx < 0 ? -1 : local_n_ + idx;
}

const CommunityInfo& CommunityLedger::info(CommunityId c) const {
  if (graph_->owns(c)) return owned_[static_cast<std::size_t>(graph_->to_local(c))];
  const auto idx = find_ghost(c);
  if (idx < 0 || !ghost_live_[static_cast<std::size_t>(idx)])
    throw std::out_of_range("CommunityLedger: community not in ghost cache");
  return ghost_info_[static_cast<std::size_t>(idx)];
}

void CommunityLedger::retain_idx(std::int64_t idx) {
  const auto i = static_cast<std::size_t>(idx);
  if (++ghost_refcount_[i] == 1 && !ghost_live_[i] && !fetch_flag_[i]) {
    fetch_flag_[i] = 1;
    maybe_fetch_.push_back(idx);
  }
}

void CommunityLedger::release_idx(std::int64_t idx) {
  const auto i = static_cast<std::size_t>(idx);
  assert(ghost_refcount_[i] > 0);
  if (--ghost_refcount_[i] == 0 && ghost_live_[i] && !unsub_flag_[i]) {
    unsub_flag_[i] = 1;
    maybe_unsub_.push_back(idx);
  }
}

std::int64_t CommunityLedger::retain(CommunityId c) {
  if (graph_->owns(c)) return graph_->to_local(c);
  auto idx = find_ghost(c);
  if (idx < 0) idx = create_ghost(c);
  retain_idx(idx);
  return local_n_ + idx;
}

void CommunityLedger::release(CommunityId c) {
  if (graph_->owns(c)) return;
  const auto idx = find_ghost(c);
  assert(idx >= 0 && "CommunityLedger::release: never retained");
  release_idx(idx);
}

void CommunityLedger::retain_slot(std::int64_t slot) {
  if (slot < local_n_) return;
  retain_idx(slot - local_n_);
}

void CommunityLedger::release_slot(std::int64_t slot) {
  if (slot < local_n_) return;
  release_idx(slot - local_n_);
}

void CommunityLedger::mark_dirty(std::int64_t lc) {
  const auto i = static_cast<std::size_t>(lc);
  if (!owned_dirty_[i]) {
    owned_dirty_[i] = 1;
    dirty_list_.push_back(lc);
  }
}

void CommunityLedger::touch_slot(std::int64_t slot, Weight dk, std::int64_t dsize) {
  if (slot < local_n_) {
    auto& entry = owned_[static_cast<std::size_t>(slot)];
    entry.degree += dk;
    entry.size += dsize;
    mark_dirty(slot);
    return;
  }
  const auto idx = static_cast<std::size_t>(slot - local_n_);
  auto& entry = ghost_info_[idx];
  entry.degree += dk;
  entry.size += dsize;
  if (!pending_flag_[idx]) {
    pending_flag_[idx] = 1;
    pending_touched_.push_back(static_cast<std::int64_t>(idx));
  }
  pending_degree_[idx] += dk;
  pending_size_[idx] += dsize;
}

void CommunityLedger::apply_move_slots(std::int64_t from_slot, std::int64_t to_slot,
                                       Weight k) {
  touch_slot(from_slot, -k, -1);
  touch_slot(to_slot, k, 1);
}

void CommunityLedger::apply_move(CommunityId from, CommunityId to, Weight k) {
  const auto from_slot = slot_of(from);
  const auto to_slot = slot_of(to);
  if (from_slot < 0 || to_slot < 0)
    throw std::out_of_range("CommunityLedger: move touches unknown ghost community");
  apply_move_slots(from_slot, to_slot, k);
}

void CommunityLedger::refresh(comm::Comm& comm) {
  const int p = comm.size();
  const Rank me = comm.rank();

  // Filter the candidate lists down to real transitions (an id can bounce
  // refcount 0 <-> 1 between refreshes and end up needing nothing).
  std::vector<std::int64_t> fetch_idx;
  for (const auto idx : maybe_fetch_) {
    const auto i = static_cast<std::size_t>(idx);
    fetch_flag_[i] = 0;
    if (ghost_refcount_[i] > 0 && !ghost_live_[i]) fetch_idx.push_back(idx);
  }
  maybe_fetch_.clear();
  std::vector<std::int64_t> unsub_idx;
  for (const auto idx : maybe_unsub_) {
    const auto i = static_cast<std::size_t>(idx);
    unsub_flag_[i] = 0;
    if (ghost_live_[i] && ghost_refcount_[i] == 0) {
      unsub_idx.push_back(idx);
      ghost_live_[i] = 0;  // lazy eviction: slot stays, record goes stale
    }
  }
  maybe_unsub_.clear();
  const auto by_id = [&](std::int64_t a, std::int64_t b) {
    return ghost_ids_[static_cast<std::size_t>(a)] <
           ghost_ids_[static_cast<std::size_t>(b)];
  };
  std::sort(fetch_idx.begin(), fetch_idx.end(), by_id);
  std::sort(unsub_idx.begin(), unsub_idx.end(), by_id);

  // Request wire format per owner: [n_req, n_unsub, req ids..., unsub ids...]
  // (empty message == nothing to say).
  std::vector<std::vector<CommunityId>> requests(static_cast<std::size_t>(p));
  {
    std::vector<std::size_t> nreq(static_cast<std::size_t>(p), 0);
    std::vector<std::size_t> nunsub(static_cast<std::size_t>(p), 0);
    for (const auto idx : fetch_idx)
      ++nreq[static_cast<std::size_t>(graph_->owner(ghost_ids_[static_cast<std::size_t>(idx)]))];
    for (const auto idx : unsub_idx)
      ++nunsub[static_cast<std::size_t>(graph_->owner(ghost_ids_[static_cast<std::size_t>(idx)]))];
    for (int r = 0; r < p; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (nreq[ri] == 0 && nunsub[ri] == 0) continue;
      requests[ri].reserve(2 + nreq[ri] + nunsub[ri]);
      requests[ri].push_back(static_cast<CommunityId>(nreq[ri]));
      requests[ri].push_back(static_cast<CommunityId>(nunsub[ri]));
    }
    for (const auto idx : fetch_idx) {
      const CommunityId c = ghost_ids_[static_cast<std::size_t>(idx)];
      requests[static_cast<std::size_t>(graph_->owner(c))].push_back(c);
    }
    // Unsub ids trail the request ids; the two runs are recovered from the
    // header counts on the owner side.
    std::vector<std::vector<CommunityId>> unsubs(static_cast<std::size_t>(p));
    for (const auto idx : unsub_idx) {
      const CommunityId c = ghost_ids_[static_cast<std::size_t>(idx)];
      unsubs[static_cast<std::size_t>(graph_->owner(c))].push_back(c);
    }
    for (int r = 0; r < p; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      requests[ri].insert(requests[ri].end(), unsubs[ri].begin(), unsubs[ri].end());
    }
  }

  const auto incoming = comm.alltoallv<CommunityId>(std::move(requests));

  // Owner side. Order matters for the push set: cancellations first, then
  // dirty pushes against the PRE-request subscriber masks (a brand-new
  // subscriber gets its record via the reply, not the push), then the
  // replies which also register the new subscriptions.
  const auto word_of = [&](std::int64_t lc, int r) {
    return static_cast<std::size_t>(lc) * sub_words_ +
           static_cast<std::size_t>(r) / 64;
  };
  const auto bit_of = [](int r) {
    return std::uint64_t{1} << (static_cast<unsigned>(r) % 64);
  };
  const auto parse = [&](int r) {
    const auto& msg = incoming[static_cast<std::size_t>(r)];
    struct View {
      std::span<const CommunityId> req;
      std::span<const CommunityId> unsub;
    } view;
    if (msg.empty()) return view;
    if (msg.size() < 2)
      throw std::logic_error("CommunityLedger::refresh: truncated request");
    const auto nreq = static_cast<std::size_t>(msg[0]);
    const auto nunsub = static_cast<std::size_t>(msg[1]);
    if (msg.size() != 2 + nreq + nunsub)
      throw std::logic_error("CommunityLedger::refresh: request length mismatch");
    view.req = std::span<const CommunityId>(msg).subspan(2, nreq);
    view.unsub = std::span<const CommunityId>(msg).subspan(2 + nreq, nunsub);
    return view;
  };

  for (int r = 0; r < p; ++r) {
    for (const CommunityId c : parse(r).unsub) {
      if (!graph_->owns(c))
        throw std::logic_error("CommunityLedger::refresh: unsubscribe for a community we don't own");
      subscribers_[word_of(graph_->to_local(c), r)] &= ~bit_of(r);
    }
  }

  std::vector<std::vector<InfoRecord>> outbox(static_cast<std::size_t>(p));
  std::sort(dirty_list_.begin(), dirty_list_.end());
  for (const auto lc : dirty_list_) {
    owned_dirty_[static_cast<std::size_t>(lc)] = 0;
    const auto& entry = owned_[static_cast<std::size_t>(lc)];
    const InfoRecord rec{graph_->to_global(static_cast<VertexId>(lc)), entry.degree,
                         entry.size};
    for (std::size_t w = 0; w < sub_words_; ++w) {
      std::uint64_t bits = subscribers_[static_cast<std::size_t>(lc) * sub_words_ + w];
      while (bits != 0) {
        const int r = static_cast<int>(w) * 64 + std::countr_zero(bits);
        bits &= bits - 1;
        outbox[static_cast<std::size_t>(r)].push_back(rec);
      }
    }
  }
  dirty_list_.clear();

  for (int r = 0; r < p; ++r) {
    for (const CommunityId c : parse(r).req) {
      if (!graph_->owns(c))
        throw std::logic_error("CommunityLedger::refresh: asked for a community we don't own");
      const auto lc = graph_->to_local(c);
      const auto& entry = owned_[static_cast<std::size_t>(lc)];
      outbox[static_cast<std::size_t>(r)].push_back(
          InfoRecord{c, entry.degree, entry.size});
      if (r != me) subscribers_[word_of(lc, r)] |= bit_of(r);
    }
  }

  {
    std::int64_t records = 0;
    for (const auto& slot : outbox) records += static_cast<std::int64_t>(slot.size());
    comm.counters()[util::Counter::kLedgerRefreshRecords] += records;
  }
  const auto answers = comm.alltoallv<InfoRecord>(std::move(outbox));

  for (const auto& from_rank : answers) {
    for (const auto& rec : from_rank) {
      const auto idx = find_ghost(rec.community);
      if (idx < 0)
        throw std::logic_error("CommunityLedger::refresh: unsolicited record");
      ghost_info_[static_cast<std::size_t>(idx)] = CommunityInfo{rec.degree, rec.size};
      ghost_live_[static_cast<std::size_t>(idx)] = 1;
    }
  }
}

void CommunityLedger::flush_deltas(comm::Comm& comm) {
  const int p = comm.size();
  std::vector<std::vector<InfoRecord>> outbox(static_cast<std::size_t>(p));
  for (const auto idx : pending_touched_) {
    const auto i = static_cast<std::size_t>(idx);
    const CommunityId c = ghost_ids_[i];
    outbox[static_cast<std::size_t>(graph_->owner(c))].push_back(
        InfoRecord{c, pending_degree_[i], pending_size_[i]});
    pending_degree_[i] = 0;
    pending_size_[i] = 0;
    pending_flag_[i] = 0;
  }
  pending_touched_.clear();

  {
    std::int64_t records = 0;
    for (const auto& slot : outbox) records += static_cast<std::int64_t>(slot.size());
    comm.counters()[util::Counter::kLedgerDeltaRecords] += records;
  }
  const auto inbox = comm.alltoallv<InfoRecord>(std::move(outbox));
  // Fixed rank order regardless of arrival order: owned_ accumulation stays
  // deterministic (Weight is integral today, but keep the order contract).
  for (const auto& from_rank : inbox) {
    for (const auto& rec : from_rank) {
      const auto lc = graph_->to_local(rec.community);
      auto& entry = owned_[static_cast<std::size_t>(lc)];
      entry.degree += rec.degree;
      entry.size += rec.size;
      mark_dirty(lc);
    }
  }
}

Weight CommunityLedger::owned_degree_term() const {
  Weight term = 0;
  for (const auto& entry : owned_) term += entry.degree * entry.degree;
  return term;
}

VertexId CommunityLedger::owned_survivors() const {
  VertexId count = 0;
  for (const auto& entry : owned_) count += entry.size > 0 ? 1 : 0;
  return count;
}

}  // namespace dlouvain::core
