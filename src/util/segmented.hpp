// Segmented-reduction sweep kernel: the sorted-neighbor layout from
// Forster's GPU Louvain, adapted to the epoch-stamped scatter idiom.
//
// The flat ScatterAccumulator path ("gather" kernel) accumulates e_{v -> c}
// into a slot-indexed sparse array and then walks touched() gathering
// values_[slot] + the community degree per candidate -- every read in the
// gain loop is an indirection into slot space. SegmentedAccumulator instead
// groups each vertex's arcs by destination-community slot as they stream by
// (STABLE first-touch grouping), producing two dense, contiguous arrays:
//
//   slots[i]  -- the i-th distinct community slot, in first-touch order
//   sums[i]   -- e_{v -> slots[i]}, accumulated left-to-right in scan order
//
// Bitwise contract: first-touch segment order IS ScatterAccumulator's
// touched() order, and each segment's sum is accumulated in the exact scan
// order the flat path used (`values_[s] += w` becomes `sums_[seg] += w`), so
// every floating-point bit matches the flat path. Per-segment sums are NEVER
// tree-reduced. best_segment() then takes the ∆Q argmax in one fused pass
// over the segments; it is the only local-move kernel every engine runs.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace dlouvain::util {

/// Stable group-by-slot accumulator: the segmented twin of
/// ScatterAccumulator. add() streams arcs in scan order; segments appear in
/// first-touch order and each segment's sum accumulates left-to-right, so
/// sums()[i] is bitwise identical to the flat path's values_[slots()[i]].
/// One per thread (not thread-safe), reused across vertices and batches.
///
/// Layout: epoch stamp and segment index share one packed 64-bit mark word
/// per slot (epoch high 32, segment low 32), so the random-access side of
/// add() touches exactly ONE cache line per arc -- the flat path touches
/// two (stamps_[s] + values_[s]). The dense arrays are pre-sized to the
/// reset() capacity, which makes the first-touch path branch-free (plain
/// overwrites, no push_back). Together these are what make the segmented
/// kernel faster than the flat gather, not just bitwise equal to it.
template <typename V>
class SegmentedAccumulator {
 public:
  /// Start a fresh vertex over slots [0, capacity). O(1) amortised -- the
  /// epoch bump in the packed marks invalidates stale segment entries.
  void reset(std::size_t capacity) {
    if (capacity > mark_.size()) {
      mark_.resize(capacity, 0);
      slots_.resize(capacity);
      sums_.resize(capacity);
    }
    count_ = 0;
    if (++epoch_ == 0) {  // wrapped: stale marks could alias epoch 0
      std::fill(mark_.begin(), mark_.end(), std::uint64_t{0});
      epoch_ = 1;
    }
  }

  /// sums[segment_of(slot)] += w, opening a new segment on first touch.
  void add(std::int64_t slot, V w) {
    assert(slot >= 0 && static_cast<std::size_t>(slot) < mark_.size() &&
           "SegmentedAccumulator::add: slot outside reset() capacity");
    const auto s = static_cast<std::size_t>(slot);
    const std::uint64_t mk = mark_[s];
    if ((mk >> 32) == epoch_) {
      sums_[static_cast<std::uint32_t>(mk)] += w;
    } else {
      mark_[s] = (static_cast<std::uint64_t>(epoch_) << 32) | count_;
      slots_[count_] = slot;
      sums_[count_] = w;
      ++count_;
    }
  }

  /// Number of distinct slots touched since reset().
  [[nodiscard]] std::size_t segments() const noexcept { return count_; }

  /// Distinct slots in first-touch order (== flat touched() order).
  [[nodiscard]] const std::int64_t* slots() const noexcept { return slots_.data(); }

  /// Per-segment scan-order sums, aligned with slots().
  [[nodiscard]] const V* sums() const noexcept { return sums_.data(); }

  /// Segment index of `slot`, or -1 if untouched this epoch.
  [[nodiscard]] std::int64_t segment_of(std::int64_t slot) const {
    assert(slot >= 0 && static_cast<std::size_t>(slot) < mark_.size() &&
           "SegmentedAccumulator::segment_of: slot outside reset() capacity");
    const std::uint64_t mk = mark_[static_cast<std::size_t>(slot)];
    return (mk >> 32) == epoch_
               ? static_cast<std::int64_t>(static_cast<std::uint32_t>(mk))
               : -1;
  }

  /// Sum for `slot` (V{} if untouched) -- flat get() equivalent.
  [[nodiscard]] V sum_of(std::int64_t slot) const {
    const std::int64_t seg = segment_of(slot);
    return seg >= 0 ? sums_[static_cast<std::size_t>(seg)] : V{};
  }

 private:
  // slot -> (epoch << 32 | segment index); the single random-access array.
  std::vector<std::uint64_t> mark_;
  std::uint32_t epoch_{0};
  std::uint32_t count_{0};
  std::vector<std::int64_t> slots_;
  std::vector<V> sums_;
};

/// Outcome of one vertex's ∆Q argmax: the winning segment index into the
/// accumulator's arrays, or -1 to stay put.
struct BestSegment {
  std::int64_t segment{-1};
};

/// ∆Q argmax over the segments of one vertex. `own_segment` is
/// seg.segment_of(own_slot) (-1 if no arc points into the own community),
/// `e_own` the matching sum (0 if absent). `deg_of(slot)` returns the
/// candidate community's total degree a_c, `id_of(slot)` its community id
/// (the tie key). Selection rule -- shared verbatim by all engines: the
/// strictly-positive maximum of
///
///   gain = (e_target - e_own) / m - gamma * kv * (a_target - a_own_less_v)
///                                   / (2 * m * m)
///
/// with ties broken toward the smallest community id. The degree is fetched
/// per candidate inside the scan, and id_of() only runs on an exact tie.
template <typename V, typename DegOf, typename IdOf>
[[nodiscard]] inline BestSegment best_segment(
    const SegmentedAccumulator<V>& seg, std::int64_t own_segment, V e_own,
    V a_own_less_v, V kv, V m, double gamma, DegOf&& deg_of, IdOf&& id_of) {
  const std::size_t n = seg.segments();
  const std::int64_t* slots = seg.slots();
  const V* sums = seg.sums();

  std::int64_t best_seg = -1;
  V best_gain = 0;
  CommunityId best_id = kInvalidCommunity;
  for (std::size_t i = 0; i < n; ++i) {
    const auto si = static_cast<std::int64_t>(i);
    if (si == own_segment) continue;
    const V e_target = sums[i];
    const V gain = (e_target - e_own) / m -
                   gamma * kv * (deg_of(slots[i]) - a_own_less_v) / (2 * m * m);
    if (gain > best_gain) {
      best_seg = si;
      best_gain = gain;
      best_id = kInvalidCommunity;
    } else if (gain == best_gain && gain > 0 && best_seg >= 0) {
      if (best_id == kInvalidCommunity)
        best_id = id_of(slots[static_cast<std::size_t>(best_seg)]);
      const CommunityId target = id_of(slots[i]);
      if (target < best_id) {
        best_seg = si;
        best_id = target;
      }
    }
  }
  return BestSegment{best_seg};
}

}  // namespace dlouvain::util
