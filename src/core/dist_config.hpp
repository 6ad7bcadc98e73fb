// Configuration for the distributed Louvain algorithm and its heuristic
// variants (paper Section IV-B and the Section V evaluation legend).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "louvain/config.hpp"

namespace dlouvain::core {

/// The variants evaluated in the paper's Section V.
enum class Variant {
  kBaseline,           ///< Algorithm 2 with a fixed tau
  kThresholdCycling,   ///< tau modulated across phases (Fig. 2 schedule)
  kEt,                 ///< adaptive early termination, parameterized by alpha
  kEtc,                ///< ET + global inactive-count exit (extra all-reduce)
};

/// Human-readable variant label as used in the paper's charts, e.g.
/// "ET(0.25)" or "Threshold Cycling".
std::string variant_label(Variant variant, double alpha);

/// Inverse of variant_label for command lines: accepts the short tokens
/// "baseline", "tc", "et", "etc" (case-insensitive; "threshold-cycling" is
/// an alias for "tc"). Returns nullopt for anything else -- callers own the
/// error message. Shared by the CLI, the bench harnesses, and the tests so
/// variant spellings cannot drift apart.
std::optional<Variant> parse_variant(std::string_view name);

struct DistConfig {
  /// threshold / iteration bounds / ET alpha / seed live in the base config.
  louvain::LouvainConfig base;

  Variant variant{Variant::kBaseline};

  /// Threshold cycling can also be combined with ET (paper Table VI studies
  /// ET(0.25) + Threshold Cycling); setting this with variant kEt/kEtc
  /// enables the combination.
  bool add_threshold_cycling{false};

  /// The Fig. 2 schedule: thresholds and how many consecutive phases each
  /// one covers, cycled. The final convergence check always re-runs at the
  /// minimum threshold ("our distributed implementation always forces
  /// Louvain iteration to run once more with the lowest threshold").
  std::vector<double> cycle_thresholds{1e-3, 1e-4, 1e-5, 1e-6};
  std::vector<int> cycle_lengths{3, 4, 3, 3};

  /// ETC: exit the phase when this fraction of all vertices is inactive.
  double etc_exit_fraction{0.90};

  /// Record per-iteration telemetry (modularity evolution for Figs. 5-6).
  bool record_iterations{true};

  /// Process vertices color class by color class (distributed distance-1
  /// coloring, recomputed per phase) so concurrently-deciding vertices are
  /// mutually non-adjacent -- the paper's Section VI future-work heuristic,
  /// taken from Grappolo. Costs extra communication rounds per iteration
  /// (one ghost/community refresh per color) in exchange for decisions that
  /// never act on stale neighbour state.
  bool use_coloring{false};

  /// Gather per-phase vertex-community associations at rank 0 (the paper's
  /// Section V-D quality-assessment mode: "extra collective operations per
  /// Louvain method phase"). Exposed via DistResult::phase_assignments.
  bool gather_quality{false};

  /// Compute threads per rank for the local hot loops (move scan, modularity
  /// reduction, rebuild) -- the OpenMP half of the paper's MPI+OpenMP hybrid.
  /// Results are bitwise identical at any value (see util/parallel.hpp for
  /// the determinism contract); <= 0 picks the hardware concurrency.
  int threads_per_rank{1};

  /// Phase-boundary checkpointing for crash recovery (core/checkpoint.hpp).
  /// An empty dir disables it. `every` = checkpoint before phases k where
  /// k % every == 0 (k >= 1). `resume` restarts from the newest valid
  /// checkpoint in dir instead of phase 0.
  struct CheckpointConfig {
    std::string dir;
    int every{1};
    bool resume{false};
  };
  CheckpointConfig checkpoint;

  // -- named constructors matching the paper's legend ---------------------
  static DistConfig baseline() { return {}; }

  static DistConfig threshold_cycling() {
    DistConfig cfg;
    cfg.variant = Variant::kThresholdCycling;
    return cfg;
  }

  static DistConfig et(double alpha) {
    DistConfig cfg;
    cfg.variant = Variant::kEt;
    cfg.base.early_termination = true;
    cfg.base.et_alpha = alpha;
    return cfg;
  }

  static DistConfig etc(double alpha) {
    DistConfig cfg = et(alpha);
    cfg.variant = Variant::kEtc;
    return cfg;
  }

  /// Is ET machinery active for this config?
  [[nodiscard]] bool uses_et() const {
    return variant == Variant::kEt || variant == Variant::kEtc;
  }

  /// Does tau vary per phase?
  [[nodiscard]] bool uses_cycling() const {
    return variant == Variant::kThresholdCycling || add_threshold_cycling;
  }

  /// tau in effect for `phase` (0-based).
  [[nodiscard]] double threshold_for_phase(int phase) const;

  /// The smallest threshold in the schedule (the forced final tau).
  [[nodiscard]] double min_threshold() const;
};

}  // namespace dlouvain::core
