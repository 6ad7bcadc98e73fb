#include "dlouvain.hpp"

#include <string>
#include <utility>

#include "core/metrics.hpp"

namespace dlouvain {

namespace {

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kSerial: return "serial";
    case Engine::kShared: return "shared";
    case Engine::kDistributed: return "distributed";
  }
  return "?";
}

}  // namespace

louvain::LouvainConfig Plan::base_config() const {
  louvain::LouvainConfig cfg;
  cfg.threshold = threshold_;
  cfg.max_phases = max_phases_;
  cfg.max_iterations_per_phase = max_iterations_;
  cfg.resolution = resolution_;
  cfg.early_termination = variant_ == Variant::kEt || variant_ == Variant::kEtc;
  cfg.et_alpha = alpha_;
  cfg.vertex_following = vertex_following_;
  cfg.seed = seed_;
  return cfg;
}

core::DistConfig Plan::dist_config() const {
  core::DistConfig cfg;
  cfg.base = base_config();
  cfg.base.vertex_following = false;  // a serial/shared-only preprocessing
  cfg.variant = variant_;
  cfg.add_threshold_cycling = cycling_;
  cfg.use_coloring = coloring_;
  cfg.record_iterations = record_iterations_;
  cfg.ghost_exchange_mode = exchange_mode_;
  cfg.delta_exchange_crossover = exchange_crossover_;
  cfg.threads_per_rank = threads_;
  // Effective checkpoint directory: checkpointing() wins when both are set
  // (validate() rejects two DIFFERENT directories); resume() alone keeps
  // checkpointing into the directory it resumes from.
  cfg.checkpoint.dir = !checkpoint_dir_.empty() ? checkpoint_dir_ : resume_dir_;
  cfg.checkpoint.every = checkpoint_every_;
  cfg.checkpoint.resume = resume_;
  return cfg;
}

void Plan::validate() const {
  const auto fail = [](std::string msg) { throw PlanError(std::move(msg)); };

  // -- engine-independent ranges ------------------------------------------
  if (threshold_ < 0) fail("threshold() must be >= 0");
  if (resolution_ <= 0) fail("resolution() must be > 0");
  if (max_phases_ < 1) fail("max_phases() must be >= 1");
  if (max_iterations_ < 1) fail("max_iterations() must be >= 1");
  if (update_fallback_ < 0) fail("update_fallback() must be >= 0");
  if ((variant_ == Variant::kEt || variant_ == Variant::kEtc) &&
      (alpha_ <= 0 || alpha_ > 1)) {
    fail("alpha() must be in (0, 1] for the ET/ETC variants");
  }
  if (!checkpoint_dir_.empty() && checkpoint_every_ < 1)
    fail("checkpointing() interval must be >= 1");
  if (retransmit_max_ < 0) fail("retransmit() attempts must be >= 0");
  if (retransmit_max_ > 0 && !(retransmit_backoff_ms_ > 0))
    fail("retransmit() backoff must be > 0 ms");
  if (resume_ && resume_dir_.empty())
    fail("resume() needs a checkpoint directory");
  if (resume_ && !checkpoint_dir_.empty() && resume_dir_ != checkpoint_dir_) {
    fail("checkpointing(\"" + checkpoint_dir_ + "\") and resume(\"" + resume_dir_ +
         "\") name different directories; use one directory (or drop one call)");
  }

  // -- engine/knob compatibility ------------------------------------------
  if (engine_ == Engine::kDistributed) {
    if (ranks_ < 1) fail("distributed() needs at least 1 rank");
    if (vertex_following_) {
      fail("vertex_following() is a serial/shared-only preprocessing; the "
           "distributed engine does not support it");
    }
    return;
  }
  const auto dist_only = [&](const char* what) {
    fail(std::string(what) + " needs the distributed engine (this plan is " +
         engine_name(engine_) + ")");
  };
  if (coloring_) dist_only("coloring()");
  if (cycling_) dist_only("threshold_cycling()");
  if (!checkpoint_dir_.empty()) dist_only("checkpointing()");
  if (resume_) dist_only("resume()");
  if (faults_) dist_only("inject_faults()");
  if (comm_timeout_ > 0) dist_only("comm_timeout()");
  if (max_restarts_ > 0) dist_only("max_restarts()");
  if (retransmit_max_ > 0) dist_only("retransmit()");
  if (shrink_on_rank_loss_) dist_only("shrink_on_rank_loss()");
  if (exchange_mode_ != GhostExchangeMode::kAuto) dist_only("exchange()");
  if (partition_ != graph::PartitionKind::kEvenEdges) dist_only("partition()");
}

Result Plan::run(const graph::Csr& g) const {
  Session session = open(g);
  return std::move(session.result_);
}

Session Plan::open(const graph::Csr& g) const {
  validate();
  Session session(*this);
  session.run_initial(g);
  return session;
}

std::string Result::to_json() const {
  std::string out;
  if (engine == Engine::kDistributed && distributed) {
    out = core::dist_result_to_json(*distributed);
    out.pop_back();  // reopen the object to append the driver-level sections
  } else {
    out = "{\"schema\":\"";
    out += core::kManifestSchema;
    out += "\",\"engine\":\"";
    out += engine == Engine::kSerial ? "serial" : "shared";
    out += '"';
    out += ",\"modularity\":" + core::json_number(modularity);
    out += ",\"num_communities\":" + std::to_string(num_communities);
    out += ",\"phases\":" + std::to_string(phases);
    out += ",\"total_iterations\":" + std::to_string(total_iterations);
    out += ",\"seconds\":" + core::json_number(seconds);
  }
  out += ",\"updates\":";
  core::append_updates_json(out, updates);
  out += ",\"recovery\":{\"attempts\":" + std::to_string(recovery.attempts);
  out += ",\"phases_replayed\":" + std::to_string(recovery.phases_replayed);
  out += ",\"resumed_from_phase\":" + std::to_string(recovery.resumed_from_phase);
  out += ",\"wasted_messages\":" + std::to_string(recovery.wasted_messages);
  out += ",\"wasted_bytes\":" + std::to_string(recovery.wasted_bytes);
  out += ",\"injected_delays\":" + std::to_string(recovery.injected_delays);
  out += ",\"injected_duplicates\":" + std::to_string(recovery.injected_duplicates);
  out += ",\"injected_corruptions\":" + std::to_string(recovery.injected_corruptions);
  out += ",\"injected_crashes\":" + std::to_string(recovery.injected_crashes);
  out += ",\"injected_losses\":" + std::to_string(recovery.injected_losses);
  // The graduated-ladder telemetry (schema v3; docs/FAULT_TOLERANCE.md):
  // rung 1 = link repair, rung 2 = verdicts, rung 3 = shrink-to-survivors.
  out += ",\"ladder\":{\"nacks\":" + std::to_string(recovery.nacks);
  out += ",\"retransmits\":" + std::to_string(recovery.retransmits);
  out += ",\"backoff_ms\":" + std::to_string(recovery.backoff_ms);
  out += ",\"escalations\":" + std::to_string(recovery.escalations);
  out += ",\"slow_verdict_extensions\":" + std::to_string(recovery.slow_verdict_extensions);
  out += ",\"verdicts_dead\":" + std::to_string(recovery.verdicts_dead);
  out += ",\"shrinks\":" + std::to_string(recovery.shrinks);
  out += ",\"final_ranks\":" + std::to_string(recovery.final_ranks);
  out += "}}}";
  return out;
}

}  // namespace dlouvain
