// Per-rank counter/gauge registry -- the low-level half of the observability
// layer (ISSUE 4). The higher-level manifest emission lives in
// core/metrics.{hpp,cpp}; this header sits in util so the comm layer (which
// cannot include core headers) can count into it.
//
// Design: one cache-line-aligned CounterBlock per simulated rank, written
// with PLAIN (non-atomic) increments. That is safe because every counting
// site runs on the owning rank's thread:
//   * sends increment the SENDER's block (Comm::send_bytes runs on the
//     sending rank's thread);
//   * duplicate drops increment the RECEIVER's block (Mailbox::get runs on
//     the receiving rank's thread);
//   * ghost/ledger/checkpoint record counts increment the local rank's block
//     from inside collective calls on that rank's thread.
// Cross-thread reads (MetricsRegistry::total()) happen only after comm::run
// joins the rank threads, which provides the happens-before edge. This keeps
// the hot send path free of atomic RMW contention -- the whole point of
// replacing the old World-wide atomics.
//
// Traffic classification: kMessages/kBytes count ALGORITHM traffic only.
// Checkpoint save/load wrap their bodies in a TrafficReclassScope that moves
// the delta into kCheckpointMessages/kCheckpointBytes, so DistResult::
// messages/bytes mean the same thing with and without checkpointing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace dlouvain::util {

/// Catalog of named counters. Keep counter_name() in sync.
enum class Counter : int {
  kMessages = 0,          ///< point-to-point messages sent (algorithm traffic)
  kBytes,                 ///< payload bytes sent (algorithm traffic)
  kDuplicatesDropped,     ///< duplicate deliveries absorbed by the dedup layer
  kGhostBytesDense,       ///< ghost-exchange payload bytes shipped dense
  kGhostBytesDelta,       ///< ghost-exchange payload bytes shipped as deltas
  kGhostRecordsShipped,   ///< ghost values carried (dense entries + delta pairs)
  kLedgerRefreshRecords,  ///< community info records pushed by refresh()
  kLedgerDeltaRecords,    ///< community delta records shipped to owners
  kCheckpointMessages,    ///< messages reclassified as checkpoint save/load I/O
  kCheckpointBytes,       ///< payload bytes reclassified as checkpoint I/O
  kCheckpointFileBytes,   ///< bytes persisted to checkpoint files on disk
  kArqNacks,              ///< rung-1 retransmit requests issued by receivers
  kArqRetransmits,        ///< payload copies re-enqueued from the retained store
  kArqBackoffMs,          ///< summed ARQ backoff milliseconds scheduled
  kArqEscalations,        ///< messages whose link retry budget was exhausted
  kHeartbeatExtensions,   ///< receive deadlines extended on slow-not-dead verdicts
  kLoadSampleMessages,    ///< messages reclassified as per-phase load sampling
  kLoadSampleBytes,       ///< payload bytes reclassified as load sampling
  kCount
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);

/// Manifest/catalog name of a counter (dotted namespace per subsystem).
[[nodiscard]] constexpr const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kMessages: return "comm.messages";
    case Counter::kBytes: return "comm.bytes";
    case Counter::kDuplicatesDropped: return "comm.duplicates_dropped";
    case Counter::kGhostBytesDense: return "ghost.bytes_dense";
    case Counter::kGhostBytesDelta: return "ghost.bytes_delta";
    case Counter::kGhostRecordsShipped: return "ghost.records_shipped";
    case Counter::kLedgerRefreshRecords: return "ledger.refresh_records";
    case Counter::kLedgerDeltaRecords: return "ledger.delta_records";
    case Counter::kCheckpointMessages: return "checkpoint.messages";
    case Counter::kCheckpointBytes: return "checkpoint.bytes";
    case Counter::kCheckpointFileBytes: return "checkpoint.file_bytes";
    case Counter::kArqNacks: return "arq.nacks";
    case Counter::kArqRetransmits: return "arq.retransmits";
    case Counter::kArqBackoffMs: return "arq.backoff_ms";
    case Counter::kArqEscalations: return "arq.escalations";
    case Counter::kHeartbeatExtensions: return "heartbeat.slow_extensions";
    case Counter::kLoadSampleMessages: return "load_sample.messages";
    case Counter::kLoadSampleBytes: return "load_sample.bytes";
    case Counter::kCount: break;
  }
  return "unknown";
}

/// One rank's counters. Single-writer: only the owning rank's thread may
/// mutate it (see the file comment for why each site satisfies that).
/// Cache-line aligned so neighbouring ranks never false-share.
struct alignas(64) CounterBlock {
  std::array<std::int64_t, kNumCounters> values{};
  /// Gauge: summed seconds the rank's compute pool threads spent busy inside
  /// the local-move scan (overlapping wall time; see TimeBreakdown).
  double busy_seconds{0};

  [[nodiscard]] std::int64_t& operator[](Counter c) {
    return values[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::int64_t operator[](Counter c) const {
    return values[static_cast<std::size_t>(c)];
  }
};

/// Plain-value sum of counter blocks (per rank, or all ranks, or an
/// allreduced global total). Not aligned -- it is a result, not a counter.
struct MetricsSnapshot {
  std::array<std::int64_t, kNumCounters> values{};
  double busy_seconds{0};

  [[nodiscard]] std::int64_t operator[](Counter c) const {
    return values[static_cast<std::size_t>(c)];
  }
};

/// The per-run registry: one CounterBlock per rank. Created by the caller of
/// comm::run (one per attempt, so failed-attempt traffic stays attributable)
/// or by World itself when the caller does not care.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int num_ranks)
      : blocks_(static_cast<std::size_t>(num_ranks > 0 ? num_ranks : 0)) {
    if (num_ranks <= 0)
      throw std::invalid_argument("MetricsRegistry: rank count must be positive");
  }

  [[nodiscard]] int num_ranks() const noexcept { return static_cast<int>(blocks_.size()); }

  [[nodiscard]] CounterBlock& rank(int r) { return blocks_[static_cast<std::size_t>(r)]; }
  [[nodiscard]] const CounterBlock& rank(int r) const {
    return blocks_[static_cast<std::size_t>(r)];
  }

  /// Sum over all ranks. Only meaningful when the rank threads are quiescent
  /// (after comm::run returned or threw -- it joins either way).
  [[nodiscard]] MetricsSnapshot total() const {
    MetricsSnapshot sum;
    for (const auto& block : blocks_) {
      for (std::size_t i = 0; i < kNumCounters; ++i) sum.values[i] += block.values[i];
      sum.busy_seconds += block.busy_seconds;
    }
    return sum;
  }

 private:
  std::vector<CounterBlock> blocks_;
};

/// RAII reclassification of one rank's traffic: whatever kMessages/kBytes
/// grow by during the scope's lifetime is moved into (to_messages, to_bytes)
/// at scope exit. Valid because the block is single-writer: the scope lives
/// on the owning rank's thread. Nesting is fine -- an inner scope's move is
/// invisible to the outer delta.
class TrafficReclassScope {
 public:
  TrafficReclassScope(CounterBlock& block, Counter to_messages, Counter to_bytes)
      : block_(block),
        to_messages_(to_messages),
        to_bytes_(to_bytes),
        messages_before_(block[Counter::kMessages]),
        bytes_before_(block[Counter::kBytes]) {}

  ~TrafficReclassScope() {
    const std::int64_t dm = block_[Counter::kMessages] - messages_before_;
    const std::int64_t db = block_[Counter::kBytes] - bytes_before_;
    block_[Counter::kMessages] -= dm;
    block_[Counter::kBytes] -= db;
    block_[to_messages_] += dm;
    block_[to_bytes_] += db;
  }

  TrafficReclassScope(const TrafficReclassScope&) = delete;
  TrafficReclassScope& operator=(const TrafficReclassScope&) = delete;

 private:
  CounterBlock& block_;
  Counter to_messages_;
  Counter to_bytes_;
  std::int64_t messages_before_;
  std::int64_t bytes_before_;
};

}  // namespace dlouvain::util
