// Phase-boundary checkpoints for crash-recovery restart (ISSUE 2, part 3).
//
// The distributed Louvain outer loop is a chain of phases; everything a
// resumed run needs at the top of phase k is (a) the current coarse graph,
// (b) each original vertex's current meta-vertex id (the orig_to_cur chain),
// and (c) a handful of scalars (phase index, outer-loop modularity watermark,
// forced-final flag, cumulative counters). All other per-phase state --
// ghosts, community ledger, ET probabilities, sweep-order PRNG -- is
// reconstructed from scratch at each phase start by run_phase, keyed only on
// (config seed, partition, phase), so a checkpoint at a phase boundary is
// sufficient for bitwise-identical continuation at the same rank count.
//
// On-disk layout (one directory per job):
//   <dir>/phase_<k>/meta.bin      scalars + config fingerprint + (v3) the
//                                 active vertex-range ownership map,
//                                 CRC32-sealed
//   <dir>/phase_<k>/graph.dlel    coarse graph via graph::write_distributed
//   <dir>/phase_<k>/chain.bin     global orig_to_cur array, CRC32-sealed
//   <dir>/phase_<k>/counters.bin  cumulative run counters (v2), CRC32-sealed
//   <dir>/LATEST                  name of the newest complete checkpoint
//
// counters.bin is deliberately a SEPARATE file: meta/graph/chain depend
// only on the run's trajectory, while the counters' elapsed-seconds field
// is wall-clock. A missing or corrupt counters.bin
// never invalidates a checkpoint -- resume proceeds with zero restored
// counters, exactly the v1 behaviour.
//
// Writes are atomic: everything lands in a tmp directory that is renamed
// into place before LATEST is updated, so a crash mid-checkpoint leaves the
// previous checkpoint intact. Loads validate magic, version, CRC and the
// config fingerprint; structural corruption falls back to an older
// checkpoint (or none), while a fingerprint mismatch -- resuming with a
// DIFFERENT config, which would silently produce wrong results -- throws.
//
// Determinism contract: resuming at the SAME rank count reproduces the
// uninterrupted run bit for bit (test_robustness.cpp proves it for every
// kill point). v3 meta.bin records the ACTIVE ownership map explicitly, and
// same-p loads resume onto it verbatim, so the partition a resumed phase
// sweeps over is read from disk rather than re-derived from the rank count.
// Every coarse graph is built on the even-vertices split, so the recorded
// map is always that split; the field keeps the v3 format. Resuming at a
// DIFFERENT rank count is supported -- the graph is repartitioned on load
// -- and yields a valid clustering with exact bookkeeping, but not the same
// bits: sweep orders are keyed on partition offsets, so the move sequence
// legitimately differs.
//
// Different-p resume is also the machinery behind the rung-3 shrink
// (docs/FAULT_TOLERANCE.md): when a rank is declared DEAD, the Session
// recovery driver resumes from the newest checkpoint at p-1 ranks. Nothing
// here is shrink-specific -- the config fingerprint deliberately excludes
// the rank count, so a p-rank checkpoint loads at any p' >= 1, and a shrink
// resume is bit-for-bit the same computation as a user-initiated clean
// resume at p-1 (test_recovery_soak.cpp proves that equivalence).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/dist_config.hpp"
#include "graph/dist_graph.hpp"
#include "util/types.hpp"

namespace dlouvain::core {

/// Thrown when a checkpoint directory is already owned by another live run.
/// Two concurrent runs checkpointing into the same directory silently
/// interleave phase files (each prunes and overwrites the other's
/// checkpoints), so ownership is exclusive per directory. `owner` is the
/// LOCK file's contents describing the current holder.
class CheckpointDirBusy : public std::runtime_error {
 public:
  CheckpointDirBusy(std::string owner_line, const std::string& dir)
      : std::runtime_error("checkpoint directory '" + dir +
                           "' is in use by " + owner_line),
        owner(std::move(owner_line)) {}
  std::string owner;
};

/// Exclusive advisory ownership of one checkpoint directory, held for the
/// lifetime of the run (Session) that checkpoints into it. Implemented as an
/// O_CREAT|O_EXCL `<dir>/LOCK` pidfile recording "pid <pid> session <tag>";
/// a lock whose pid no longer exists (crashed process) is stale and is
/// reclaimed, so recovery-by-resume after a hard crash still works. Throws
/// CheckpointDirBusy when the directory is owned by a live holder -- either
/// another process, or another Session in THIS process (same pid, different
/// tag). Move-only; releases (unlinks) on destruction.
class CheckpointDirLock {
 public:
  CheckpointDirLock(std::string dir, std::string owner_tag);
  ~CheckpointDirLock();
  CheckpointDirLock(CheckpointDirLock&& other) noexcept;
  CheckpointDirLock& operator=(CheckpointDirLock&& other) noexcept;
  CheckpointDirLock(const CheckpointDirLock&) = delete;
  CheckpointDirLock& operator=(const CheckpointDirLock&) = delete;

  /// The "pid <pid> session <tag>" line this lock wrote.
  [[nodiscard]] const std::string& owner_line() const noexcept { return owner_line_; }

 private:
  void release() noexcept;

  std::string path_;  ///< empty after move-out / release
  std::string owner_line_;
};

/// Cumulative global run counters at a phase boundary: wall seconds elapsed
/// and ALGORITHM messages/bytes (checkpoint I/O excluded) since the original
/// job start, summed over all ranks. Persisted so a resumed run reports
/// whole-job totals, consistent with phases/total_iterations (the satellite-3
/// fix; the reporting rule is documented in core/telemetry.hpp).
struct RunCounters {
  double seconds{0};
  std::int64_t messages{0};
  std::int64_t bytes{0};
};

/// Outer-loop scalars saved at a phase boundary ("about to run next_phase").
struct CheckpointState {
  int next_phase{0};
  int phases_done{0};
  std::int64_t iterations_done{0};
  Weight prev_outer_mod{0};  ///< stored as raw bits, restored exactly
  bool forced_final{false};
  RunCounters counters;  ///< cumulative totals at this boundary (v2; zero in v1)
};

/// Everything checkpoint_load reconstructs for this rank.
struct ResumedState {
  graph::DistGraph graph;              ///< repartitioned for the CURRENT p
  std::vector<VertexId> orig_to_cur;   ///< this rank's contiguous chain slice
  VertexId orig_global_n{0};
  CheckpointState state;
};

/// Hash of every config field that influences the trajectory of a run.
/// Stored in each checkpoint and required to match on resume.
std::uint64_t config_fingerprint(const DistConfig& cfg);

/// Collective: write the checkpoint for `state.next_phase` into `dir`
/// (created if needed). `orig_to_cur` is this rank's slice, concatenating in
/// rank order to the full original-vertex array. Older checkpoints in `dir`
/// are pruned once the new one is committed.
void checkpoint_save(comm::Comm& comm, const std::string& dir,
                     const graph::DistGraph& g, std::span<const VertexId> orig_to_cur,
                     VertexId orig_global_n, const CheckpointState& state,
                     std::uint64_t fingerprint);

/// Collective: load the newest valid checkpoint from `dir`, or nullopt if
/// none exists (start fresh). Rank 0 picks and validates the checkpoint and
/// every rank agrees on the outcome. Throws if the stored config fingerprint
/// does not match `fingerprint`.
std::optional<ResumedState> checkpoint_load(comm::Comm& comm, const std::string& dir,
                                            std::uint64_t fingerprint);

/// Non-collective peek (for the recovery driver between attempts): the phase
/// index of the newest structurally-valid checkpoint in `dir`, if any.
std::optional<int> checkpoint_latest_phase(const std::string& dir);

/// Non-collective peek at the newest valid checkpoint's persisted run
/// counters. nullopt when there is no valid checkpoint; zeros when the
/// checkpoint predates v2 or its counters.bin is missing/corrupt. The
/// recovery driver uses before/after deltas of this to split a failed
/// attempt's traffic into salvaged (checkpointed) and wasted.
std::optional<RunCounters> checkpoint_latest_counters(const std::string& dir);

}  // namespace dlouvain::core
