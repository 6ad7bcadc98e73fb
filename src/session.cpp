// Session: the re-entrant streaming driver behind Plan::open()/run()
// (docs/STREAMING.md). run_initial() is the old one-shot driver with the
// per-rank graph slices retained; update() derives the post-batch slices
// from them and re-converges warm.
#include "dlouvain.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/metrics.hpp"
#include "louvain/serial.hpp"
#include "louvain/shared.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace dlouvain {

namespace {

void write_text_file(const std::string& path, const std::string& what,
                     const std::function<void(std::ofstream&)>& emit) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + what + " output " + path);
  emit(out);
  if (!out) throw std::runtime_error("failed writing " + what + " output " + path);
}

/// Copies the engine-agnostic scalar block of a result into `out`.
template <typename R>
void assign_scalars(Result& out, const R& r) {
  out.community = r.community;
  out.modularity = r.modularity;
  out.num_communities = r.num_communities;
  out.phases = r.phases;
  out.total_iterations = r.total_iterations;
  out.seconds = r.seconds;
}

}  // namespace

void Session::run_initial(const graph::Csr& g) {
  result_.engine = plan_.engine_;
  switch (plan_.engine_) {
    case Engine::kSerial: {
      csr_ = g;
      auto r = louvain::louvain_serial(csr_, plan_.base_config());
      assign_scalars(result_, r);
      result_.local = std::move(r);
      break;
    }
    case Engine::kShared: {
      csr_ = g;
      auto r = louvain::louvain_shared(csr_, plan_.base_config(), plan_.threads_);
      assign_scalars(result_, r);
      result_.local = std::move(r);
      break;
    }
    case Engine::kDistributed: {
      auto cfg = plan_.dist_config();

      // Claim the checkpoint directory for the session's lifetime BEFORE
      // anything touches it: two live runs checkpointing into one directory
      // interleave (and prune) each other's phase files. The lock is a
      // pidfile, so a directory orphaned by a crashed process is reclaimed,
      // while a genuinely live owner -- another process, or another Session
      // in this one -- turns into a PlanError naming both parties.
      if (!cfg.checkpoint.dir.empty()) {
        static std::atomic<std::uint64_t> next_session_id{0};
        const std::string tag =
            "s" + std::to_string(next_session_id.fetch_add(1, std::memory_order_relaxed));
        try {
          auto lock = std::make_shared<core::CheckpointDirLock>(cfg.checkpoint.dir, tag);
          checkpoint_lock_ = std::move(lock);
        } catch (const core::CheckpointDirBusy& busy) {
          throw PlanError("checkpointing(\"" + cfg.checkpoint.dir +
                          "\"): directory is in use by [" + busy.owner +
                          "] and this plan (pid " + std::to_string(::getpid()) +
                          " session " + tag +
                          ") would interleave its phase files; point the two "
                          "runs at different directories");
        }
      }

      options_.timeout_seconds = plan_.comm_timeout_;
      options_.retransmit_max = plan_.retransmit_max_;
      options_.retransmit_backoff_ms = plan_.retransmit_backoff_ms_;
      // One injector for the whole session: crash triggers are one-shot, so
      // a restarted attempt (and later updates) proceed past fired faults.
      if (plan_.faults_)
        options_.faults = std::make_shared<comm::FaultInjector>(*plan_.faults_);
      // One trace store for the whole session: failed-attempt and update
      // spans flush alongside the initial run's.
      if (!plan_.trace_path_.empty())
        options_.trace = std::make_shared<util::TraceStore>(plan_.ranks_);

      // What the newest on-disk checkpoint has banked so far (zero without
      // checkpointing). Per-attempt deltas of this split a failed attempt's
      // traffic into salvaged (resumable) and wasted.
      core::RunCounters banked;
      if (!cfg.checkpoint.dir.empty()) {
        banked = core::checkpoint_latest_counters(cfg.checkpoint.dir)
                     .value_or(core::RunCounters{});
      }

      active_ranks_ = plan_.ranks_;

      // Fold one attempt's arq.*/heartbeat.* counters into the ladder
      // telemetry. Must run before options_.metrics is replaced.
      const auto harvest_ladder = [&] {
        const util::MetricsSnapshot t = options_.metrics->total();
        result_.recovery.nacks += t[util::Counter::kArqNacks];
        result_.recovery.retransmits += t[util::Counter::kArqRetransmits];
        result_.recovery.backoff_ms += t[util::Counter::kArqBackoffMs];
        result_.recovery.escalations += t[util::Counter::kArqEscalations];
        result_.recovery.slow_verdict_extensions +=
            t[util::Counter::kHeartbeatExtensions];
      };
      const auto harvest_injector = [&] {
        if (!options_.faults) return;
        result_.recovery.injected_delays = options_.faults->delayed.load();
        result_.recovery.injected_duplicates = options_.faults->duplicated.load();
        result_.recovery.injected_corruptions = options_.faults->corrupted.load();
        result_.recovery.injected_crashes = options_.faults->crashes_fired.load();
        result_.recovery.injected_losses = options_.faults->lost.load();
      };

      // Recovery driver: on any detectable communication failure, restart --
      // from the newest checkpoint when checkpointing is on, from scratch
      // otherwise -- up to max_restarts_ extra attempts. A rank-DEAD verdict
      // (rung 2) with shrink_on_rank_loss additionally drops the world to
      // the survivors before resuming (rung 3).
      std::atomic<int> progress{-1};

      // Bookkeeping for one DISCARDED attempt: replayed phases and wasted
      // traffic. Runs for the final failed attempt too (before the rethrow),
      // so a run that ultimately fails still reports honest waste.
      const auto account_failed_attempt = [&] {
        const int next_resume =
            cfg.checkpoint.dir.empty()
                ? 0
                : core::checkpoint_latest_phase(cfg.checkpoint.dir).value_or(0);
        // Phases [next_resume, progress] ran this attempt and will run
        // again on the next one.
        result_.recovery.phases_replayed +=
            std::max(0, progress.load(std::memory_order_relaxed) + 1 - next_resume);

        // Wasted = everything this attempt sent (algorithm + checkpoint
        // I/O) minus what it banked into a checkpoint -- the banked part
        // re-enters the final result through its restored counters.
        const util::MetricsSnapshot spent = options_.metrics->total();
        core::RunCounters now;
        if (!cfg.checkpoint.dir.empty()) {
          now = core::checkpoint_latest_counters(cfg.checkpoint.dir)
                    .value_or(core::RunCounters{});
        }
        const std::int64_t banked_messages =
            std::max<std::int64_t>(0, now.messages - banked.messages);
        const std::int64_t banked_bytes =
            std::max<std::int64_t>(0, now.bytes - banked.bytes);
        result_.recovery.wasted_messages += std::max<std::int64_t>(
            0, spent[util::Counter::kMessages] +
                   spent[util::Counter::kCheckpointMessages] - banked_messages);
        result_.recovery.wasted_bytes += std::max<std::int64_t>(
            0, spent[util::Counter::kBytes] +
                   spent[util::Counter::kCheckpointBytes] - banked_bytes);
        banked = now;
        harvest_ladder();
      };
      // Final-failure path: finish the books, persist what we know (best
      // effort -- never mask the original exception), and let the caller's
      // rethrow proceed.
      const auto finalize_failure = [&](int attempt) {
        result_.recovery.attempts = attempt + 1;
        result_.recovery.final_ranks = active_ranks_;
        harvest_injector();
        try {
          write_artifacts();
        } catch (...) {
        }
      };
      // Marker span in rank 0's ring (post-join, so single-writer safe):
      // restarts and shrinks show up on the recovery timeline.
      const auto mark = [&](const char* name, int attempt) {
        if (options_.trace)
          util::TraceSpan span(options_.trace->buffer(0), name, "recovery", attempt);
      };

      for (int attempt = 0;; ++attempt) {
        progress.store(-1, std::memory_order_relaxed);
        // A FRESH registry per attempt: a discarded attempt's traffic is
        // accounted to recovery.wasted_*, never carried into the next
        // attempt's counters. Sized to the CURRENT world (shrinks resize).
        options_.metrics = std::make_shared<util::MetricsRegistry>(active_ranks_);
        // Retain this attempt's fine slices for update(): distinct
        // elements, written by distinct rank-threads. The engine reads them
        // in place.
        rank_graphs_.assign(static_cast<std::size_t>(active_ranks_), {});
        try {
          core::DistResult r;
          comm::run(
              active_ranks_,
              [&](comm::Comm& comm) {
                auto& dist = rank_graphs_[static_cast<std::size_t>(comm.rank())];
                dist = graph::DistGraph::from_replicated(comm, g, plan_.partition_);
                auto local = core::dist_louvain(comm, dist, cfg, &progress);
                if (comm.rank() == 0) r = std::move(local);
              },
              options_);
          result_.recovery.attempts = attempt + 1;
          result_.recovery.resumed_from_phase = r.resumed_from_phase;
          harvest_ladder();
          assign_scalars(result_, r);
          result_.distributed = std::move(r);
          break;
        } catch (const comm::RankDead& e) {
          // Rung-2 verdict: a specific rank is permanently gone. Retrying at
          // the same size would hit the same dead rank again; shrink to the
          // survivors (rung 3) when allowed, give up otherwise.
          account_failed_attempt();
          result_.recovery.verdicts_dead += 1;
          if (!plan_.shrink_on_rank_loss_ || active_ranks_ <= 1 ||
              attempt >= plan_.max_restarts_) {
            finalize_failure(attempt);
            throw;
          }
          active_ranks_ -= 1;
          result_.recovery.shrinks += 1;
          // The dead hardware left the world: its kill trigger must not
          // re-fire against the renumbered survivor ranks.
          if (options_.faults) options_.faults->retire(e.rank);
          cfg.checkpoint.resume = !cfg.checkpoint.dir.empty();
          mark("recovery_shrink", attempt);
        } catch (const comm::CommFailure&) {
          account_failed_attempt();
          if (attempt >= plan_.max_restarts_) {
            finalize_failure(attempt);
            throw;
          }
          cfg.checkpoint.resume = !cfg.checkpoint.dir.empty();
          mark("recovery_restart", attempt);
        }
      }

      result_.recovery.final_ranks = active_ranks_;
      harvest_injector();
      break;
    }
  }
  write_artifacts();
}

UpdateStats Session::update(const EdgeBatch& batch) {
  if (!poisoned_.empty()) throw SessionPoisoned(poisoned_);
  if (batch.empty()) return {};

  // Cheap local validation up front: a malformed batch must throw without
  // touching session state (and, distributed, without spinning up ranks).
  // Removal-of-an-absent-edge is graph-dependent and detected collectively
  // by apply_edge_changes -- still before anything commits, because updates
  // build NEW per-rank graphs and swap them in only on success.
  const auto n = static_cast<VertexId>(result_.community.size());
  for (const auto& c : batch.changes()) {
    if (c.u < 0 || c.u >= n || c.v < 0 || c.v >= n)
      throw std::invalid_argument("EdgeBatch: endpoint outside [0, num_vertices)");
    if (c.u == c.v) throw std::invalid_argument("EdgeBatch: self loops not allowed");
    if (!c.remove && !(c.weight > 0))
      throw std::invalid_argument("EdgeBatch: added weight must be > 0");
  }

  UpdateStats stats = plan_.engine_ == Engine::kDistributed ? update_distributed(batch)
                                                            : update_local(batch);

  result_.updates.batches_applied += 1;
  result_.updates.edges_added += stats.edges_added;
  result_.updates.edges_removed += stats.edges_removed;
  result_.updates.vertices_reactivated += stats.vertices_reactivated;
  result_.updates.reconverge_iterations += stats.reconverge_iterations;
  result_.updates.fallback_to_full += stats.fell_back_to_full ? 1 : 0;
  write_artifacts();
  return stats;
}

UpdateStats Session::update_distributed(const EdgeBatch& batch) {
  const util::WallTimer timer;
  auto cfg = plan_.dist_config();
  cfg.checkpoint = {};  // updates never checkpoint or resume

  const double prev_mod = result_.modularity;
  const auto& prev = result_.community;

  // Seed representative per community: its minimum member vertex id. The
  // warm start names communities in vertex-id space (the engine's community
  // ids ARE vertex ids), and the minimum is stable on every rank.
  std::vector<VertexId> rep(static_cast<std::size_t>(result_.num_communities),
                            kInvalidVertex);
  for (std::size_t v = 0; v < prev.size(); ++v) {
    auto& r = rep[static_cast<std::size_t>(prev[v])];
    if (r == kInvalidVertex) r = static_cast<VertexId>(v);
  }

  // Sorted unique batch endpoints: the touched set T. T and its post-batch
  // neighbours reactivate.
  std::vector<VertexId> touched;
  touched.reserve(batch.size() * 2);
  for (const auto& c : batch.changes()) {
    touched.push_back(c.u);
    touched.push_back(c.v);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  UpdateStats stats;
  for (const auto& c : batch.changes()) (c.remove ? stats.edges_removed : stats.edges_added) += 1;

  core::DistResult r;
  bool fell_back = false;
  std::int64_t reactivated = 0;
  long warm_iterations = 0;
  std::vector<graph::DistGraph> updated(rank_graphs_.size());

  // Ladder telemetry keeps accumulating across updates: link-level repairs
  // during a streaming batch count like any other.
  const auto harvest_update_ladder = [&] {
    const util::MetricsSnapshot t = options_.metrics->total();
    result_.recovery.nacks += t[util::Counter::kArqNacks];
    result_.recovery.retransmits += t[util::Counter::kArqRetransmits];
    result_.recovery.backoff_ms += t[util::Counter::kArqBackoffMs];
    result_.recovery.escalations += t[util::Counter::kArqEscalations];
    result_.recovery.slow_verdict_extensions += t[util::Counter::kHeartbeatExtensions];
  };

  // Updates run at the session's CURRENT world size (shrunk sessions stay
  // shrunk: the dead rank's hardware is still gone).
  for (int attempt = 0;; ++attempt) {
    try {
      options_.metrics = std::make_shared<util::MetricsRegistry>(active_ranks_);
      comm::run(
          active_ranks_,
          [&](comm::Comm& comm) {
            const auto rk = static_cast<std::size_t>(comm.rank());
            // Build the post-batch graph beside the session's; it swaps in
            // only after the whole collective succeeds, so a crashed/failed
            // update retries (or throws) against pristine state.
            auto& g = updated[rk];
            g = rank_graphs_[rk].apply_edge_changes(comm, batch.changes());

            // Warm start: batch endpoints and their (post-batch)
            // neighbourhoods reactivate; everyone else is frozen into the
            // previous assignment, seeded through its representative.
            const VertexId local_n = g.local_count();
            core::WarmStart warm;
            warm.seed_community.resize(static_cast<std::size_t>(local_n));
            warm.reactivated.assign(static_cast<std::size_t>(local_n), 0);
            // Coarsening escalates on the same drift scale the fallback
            // uses: a batch that moves modularity less than the tolerated
            // drift exits at the (cheap) warm phase 0.
            warm.exit_threshold = plan_.update_fallback_;
            for (VertexId lv = 0; lv < local_n; ++lv) {
              warm.seed_community[static_cast<std::size_t>(lv)] =
                  rep[static_cast<std::size_t>(prev[static_cast<std::size_t>(g.to_global(lv))])];
            }
            // The reactivated set from the touched rows alone: each rank
            // marks its touched vertices and their neighbours, shipping the
            // remote neighbours to their owners. The graph is symmetric, so
            // v has a neighbour in T iff v lies in a touched row.
            std::vector<std::vector<VertexId>> remote(static_cast<std::size_t>(comm.size()));
            const auto first = std::lower_bound(touched.begin(), touched.end(), g.v_begin());
            const auto last = std::lower_bound(first, touched.end(), g.v_end());
            for (auto t = first; t != last; ++t) {
              warm.reactivated[static_cast<std::size_t>(g.to_local(*t))] = 1;
              for (const auto& e : g.local().neighbors(g.to_local(*t))) {
                if (g.owns(e.dst))
                  warm.reactivated[static_cast<std::size_t>(g.to_local(e.dst))] = 1;
                else
                  remote[static_cast<std::size_t>(g.owner(e.dst))].push_back(e.dst);
              }
            }
            for (const auto& from_rank : comm.alltoallv<VertexId>(std::move(remote)))
              for (const VertexId gv : from_rank)
                warm.reactivated[static_cast<std::size_t>(g.to_local(gv))] = 1;
            const auto global_reactivated = comm.allreduce_sum<std::int64_t>(
                std::count(warm.reactivated.begin(), warm.reactivated.end(), char{1}));

            auto local = core::dist_louvain(comm, g, cfg, nullptr, &warm);
            const long iterations0 =
                local.phase_telemetry.empty() ? 0 : local.phase_telemetry.front().iterations;

            // Fallback: the warm result drifted too far below the previous
            // modularity -- the frozen skeleton no longer fits. The test is
            // rank-symmetric (modularity is collective-identical), so every
            // rank takes the same branch.
            const bool fb = local.modularity < prev_mod - plan_.update_fallback_;
            if (fb) local = core::dist_louvain(comm, g, cfg);

            if (comm.rank() == 0) {
              r = std::move(local);
              fell_back = fb;
              reactivated = global_reactivated;
              warm_iterations = iterations0;
            }
          },
          options_);
      break;
    } catch (const comm::RankDead& e) {
      // A permanent death mid-update: the session's per-rank slices are
      // partitioned for a world that no longer exists, and a retry at the
      // old size can only hit the same dead rank again (kill triggers
      // re-fire until retired). Poison the session -- every later
      // update()/result() reports this cause -- and let the verdict
      // propagate. The pre-batch state itself is untouched (the post-batch
      // graphs were built beside it), but there is no world left to run it
      // on.
      harvest_update_ladder();
      result_.recovery.attempts += 1;
      result_.recovery.verdicts_dead += 1;
      poisoned_ = std::string("session poisoned by rank-death during update ") +
                  "(batch " + std::to_string(result_.updates.batches_applied + 1) +
                  "): " + e.what() + "; re-open the plan to continue";
      throw;
    } catch (const comm::CommFailure&) {
      harvest_update_ladder();
      result_.recovery.attempts += 1;
      // Transient failure past the budget: propagate, but do NOT poison --
      // nothing committed (the post-batch graphs are built beside the
      // session's and swapped in only on success), so the next update() starts
      // from the pristine pre-batch state with a fresh restart budget.
      if (attempt >= plan_.max_restarts_) throw;
    }
  }
  harvest_update_ladder();

  rank_graphs_ = std::move(updated);
  assign_scalars(result_, r);
  result_.distributed = std::move(r);
  if (options_.faults) {
    result_.recovery.injected_delays = options_.faults->delayed.load();
    result_.recovery.injected_duplicates = options_.faults->duplicated.load();
    result_.recovery.injected_corruptions = options_.faults->corrupted.load();
    result_.recovery.injected_crashes = options_.faults->crashes_fired.load();
    result_.recovery.injected_losses = options_.faults->lost.load();
  }

  stats.vertices_reactivated = reactivated;
  stats.reconverge_iterations = warm_iterations;
  stats.fell_back_to_full = fell_back;
  stats.seconds = timer.seconds();
  return stats;
}

UpdateStats Session::update_local(const EdgeBatch& batch) {
  const util::WallTimer timer;
  const VertexId n = csr_.num_vertices();

  // Materialize the undirected edge list (each edge once: row <= dst; the
  // CSR stores a self loop once, so `>=` keeps it once too).
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(csr_.edges().size() / 2) + batch.size());
  for (VertexId v = 0; v < n; ++v) {
    for (const auto& e : csr_.neighbors(v)) {
      if (e.dst >= v) edges.push_back(Edge{v, e.dst, e.weight});
    }
  }

  UpdateStats stats;
  // Removals resolve against the pre-batch edge set, matching the
  // distributed engine: every removal must consume a distinct existing
  // edge; leftovers (absent edge, duplicate removal) throw BEFORE anything
  // mutates.
  std::map<std::pair<VertexId, VertexId>, std::int64_t> to_remove;
  for (const auto& c : batch.changes()) {
    if (c.remove) to_remove[std::minmax(c.u, c.v)] += 1;
  }
  if (!to_remove.empty()) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const auto it = to_remove.find(std::minmax(edges[i].src, edges[i].dst));
      if (it != to_remove.end() && it->second > 0) {
        it->second -= 1;
        continue;
      }
      edges[out++] = edges[i];
    }
    std::int64_t missing = 0;
    for (const auto& [edge, count] : to_remove) missing += count;
    if (missing > 0) {
      throw std::invalid_argument(
          "EdgeBatch: " + std::to_string(missing) +
          " removal(s) name edges absent from the graph");
    }
    edges.resize(out);
  }
  for (const auto& c : batch.changes()) {
    if (c.remove) {
      stats.edges_removed += 1;
    } else {
      stats.edges_added += 1;
      edges.push_back(Edge{c.u, c.v, c.weight});  // from_edges merges duplicates
    }
  }

  // Serial/shared sessions are not incremental: rebuild and recompute in
  // full (and say so in the stats/telemetry).
  csr_ = graph::from_edges(n, edges);
  if (plan_.engine_ == Engine::kSerial) {
    auto r = louvain::louvain_serial(csr_, plan_.base_config());
    assign_scalars(result_, r);
    result_.local = std::move(r);
  } else {
    auto r = louvain::louvain_shared(csr_, plan_.base_config(), plan_.threads_);
    assign_scalars(result_, r);
    result_.local = std::move(r);
  }
  stats.fell_back_to_full = true;
  stats.seconds = timer.seconds();
  return stats;
}

void Session::write_artifacts() const {
  if (!plan_.trace_path_.empty()) {
    if (options_.trace) {
      write_text_file(plan_.trace_path_, "trace", [&](std::ofstream& f) {
        options_.trace->write_chrome_trace(f);
      });
    } else {
      // Serial/shared sessions still honour trace(): an empty-but-valid
      // trace (process metadata only) beats a confusing missing file.
      const util::TraceStore empty(1);
      write_text_file(plan_.trace_path_, "trace",
                      [&](std::ofstream& f) { empty.write_chrome_trace(f); });
    }
  }
  if (!plan_.metrics_path_.empty()) {
    write_text_file(plan_.metrics_path_, "metrics",
                    [&](std::ofstream& f) { f << result_.to_json() << '\n'; });
  }
}

}  // namespace dlouvain
