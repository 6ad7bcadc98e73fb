#include "core/dist_louvain.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "core/coloring.hpp"
#include "core/community_state.hpp"
#include "core/ghost_exchange.hpp"
#include "core/rebuild.hpp"
#include "louvain/early_term.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"
#include "util/segmented.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace dlouvain::core {

namespace {

using louvain::EtState;

/// Fixed number of bulk-synchronous micro-batches each sweep group is cut
/// into. Independent of the thread count (that's the determinism contract);
/// large enough that within-sweep propagation approaches the asynchronous
/// serial sweep, small enough that the per-batch join overhead stays
/// negligible. On groups smaller than this, batches degrade to single
/// vertices and the sweep IS the serial asynchronous sweep.
constexpr std::int64_t kSweepBatches = 64;

/// Local share of the intra-community arc weight (both directions globally;
/// each directed arc is counted once, by its source's owner). Threaded over
/// the fixed-chunk deterministic reduction, so the value -- and therefore
/// every modularity bit -- is identical at any thread count.
///
/// `row_mask`, when non-null, restricts the sum to rows whose flag equals
/// `masked_value` -- the warm-start split: rows no phase-0 move can touch
/// (vertex and all neighbours frozen) contribute a constant, computed once,
/// while only the affected rows are rescanned per iteration.
Weight local_intra_weight(util::ThreadPool& pool, const graph::DistGraph& g,
                          std::span<const CommunityId> owned_community,
                          const GhostCommunities& ghosts,
                          const std::vector<char>* row_mask = nullptr,
                          bool masked_value = true) {
  const auto& row = g.local().offsets();
  const auto& arcs = g.local().edges();
  const auto& dst_slot = g.dst_slots();
  const auto& ghost_comm = ghosts.values();
  const auto local_n = static_cast<std::int64_t>(g.local_count());
  return util::parallel_reduce(
      &pool, g.local_count(), [&](std::int64_t begin, std::int64_t end) {
        Weight intra = 0;
        for (VertexId lv = begin; lv < end; ++lv) {
          if (row_mask != nullptr &&
              ((*row_mask)[static_cast<std::size_t>(lv)] != 0) != masked_value)
            continue;
          const VertexId gv = g.to_global(lv);
          const CommunityId cv = owned_community[static_cast<std::size_t>(lv)];
          const auto a_end = static_cast<std::size_t>(row[static_cast<std::size_t>(lv) + 1]);
          for (auto a = static_cast<std::size_t>(row[static_cast<std::size_t>(lv)]);
               a < a_end; ++a) {
            const auto& e = arcs[a];
            if (e.dst == gv) {
              intra += 2 * e.weight;  // self loop: A_vv = 2w, always intra
              continue;
            }
            const std::int64_t d = dst_slot[a];
            const CommunityId cu =
                d < local_n ? owned_community[static_cast<std::size_t>(d)]
                            : ghost_comm[static_cast<std::size_t>(d - local_n)];
            if (cu == cv) intra += e.weight;
          }
        }
        return intra;
      });
}

/// Per-phase breakdown timers. Owned by dist_louvain and REUSED across
/// phases; clear() at the top of run_phase is load-bearing -- timers that
/// survive a phase un-cleared would silently fold phases 0..N-1 into phase
/// N's breakdown (the satellite-2 bug class). test_telemetry pins
/// sum over phases of PhaseTelemetry::breakdown == DistResult::breakdown and
/// each phase's breakdown.total() <= its wall seconds.
struct PhaseTimers {
  util::AccumTimer ghost;
  util::AccumTimer cinfo;
  util::AccumTimer compute;
  util::AccumTimer delta;
  util::AccumTimer allreduce;
  double compute_busy{0};

  void clear() {
    ghost.clear();
    cinfo.clear();
    compute.clear();
    delta.clear();
    allreduce.clear();
    compute_busy = 0;
  }
};

/// One Louvain phase on the current distributed graph. Returns the final
/// owned assignment (by local vertex index) and the phase's exact final
/// modularity, with telemetry filled in.
struct PhaseResult {
  std::vector<CommunityId> owned_community;
  GhostCommunities ghosts;
  CommunityLedger ledger;
  Weight final_modularity{0};
  /// Modularity of the partition the phase STARTED from: the singleton
  /// partition normally, the adopted/seeded partition under a warm start.
  /// The warm driver measures its outer convergence against this.
  Weight initial_modularity{0};
};

PhaseResult run_phase(comm::Comm& comm, const graph::DistGraph& g,
                      const DistConfig& cfg, int phase, double tau,
                      util::ThreadPool& pool, PhaseTimers& timers,
                      PhaseTelemetry& telemetry,
                      const WarmStart* warm = nullptr) {
  const VertexId local_n = g.local_count();
  const VertexId global_n = g.global_n();
  const Weight two_m = g.total_weight();
  const Weight m = two_m / 2;
  const double gamma = cfg.base.resolution;

  PhaseResult state{std::vector<CommunityId>(static_cast<std::size_t>(local_n)),
                    GhostCommunities(g), CommunityLedger(g), 0};
  for (VertexId lv = 0; lv < local_n; ++lv)
    state.owned_community[static_cast<std::size_t>(lv)] = g.to_global(lv);

  // Warm-started phases (incremental updates) drive the sweep gate through
  // the SAME activity machinery ET uses -- reactivated vertices start at
  // P = 1, frozen ones at P = 0 -- so the hot loop has exactly one "does
  // this vertex participate" test. Non-ET variants run the warm phase with
  // alpha 0 (the reactivated set never decays); ET variants keep their
  // configured decay on top of the seeded activity.
  EtState et(cfg.uses_et() || warm != nullptr ? static_cast<std::size_t>(local_n) : 0,
             warm != nullptr && !cfg.uses_et() ? 0.0 : cfg.base.et_alpha,
             cfg.base.et_inactive_cutoff, cfg.base.seed);
  if (warm != nullptr) et.seed_activity(warm->reactivated);
  std::vector<char> moved(static_cast<std::size_t>(local_n), 0);

  timers.clear();  // this phase's breakdown starts from zero, every phase
  util::TraceBuffer* tb = comm.trace();
  const util::TraceSpan phase_span(tb, "phase", "phase", phase);

  // Per-vertex move proposals for the current sweep group:
  // kInvalidCommunity = did not participate (ET-inactive), otherwise the
  // proposed community (own id = participated but stays), with the matching
  // ledger slot carried alongside so the apply loop never hashes.
  std::vector<CommunityId> proposed(static_cast<std::size_t>(local_n),
                                    kInvalidCommunity);
  std::vector<std::int64_t> proposed_slot(static_cast<std::size_t>(local_n), -1);

  // Ledger-slot mirrors of the two community arrays the sweep reads through:
  // owned_comm_slot[lv] = slot of owned_community[lv], ghost_comm_slot[s] =
  // slot of ghosts.values()[s]. Updated only when the underlying value
  // changes (a move, or a ghost-exchange delta), so the per-edge community
  // lookup in the scan is two array reads -- no id hashing anywhere in the
  // hot loop. Retaining every ghost's initial self-community here also
  // seeds the ledger's refcounts: from now on they track exactly which
  // communities some local slot still references.
  std::vector<std::int64_t> owned_comm_slot(static_cast<std::size_t>(local_n));
  std::iota(owned_comm_slot.begin(), owned_comm_slot.end(), std::int64_t{0});
  std::vector<std::int64_t> ghost_comm_slot(g.ghosts().size());
  for (std::size_t s = 0; s < g.ghosts().size(); ++s)
    ghost_comm_slot[s] = state.ledger.retain(g.ghosts()[s]);

  const auto& row = g.local().offsets();
  const auto& arcs = g.local().edges();
  const auto& dst_slot = g.dst_slots();

  // One segmented e_{v -> c} reduction per pool thread, keyed by ledger
  // slot and reused across vertices, batches and iterations; bitwise
  // identical to the historical flat scatter (util/segmented.hpp).
  std::vector<util::SegmentedAccumulator<Weight>> scatter(
      static_cast<std::size_t>(pool.num_threads()));

  const GhostExchangeConfig xcfg{cfg.use_neighbor_exchange, cfg.ghost_exchange_mode,
                                 cfg.delta_exchange_crossover};

  // -- Warm start (incremental updates): adopt the seeded assignment -------
  // Every vertex moves from its singleton into its seed community through
  // the ordinary ledger protocol (apply + delta flush + refresh), serially
  // in ascending local order so the floating-point accumulation sequence --
  // and with it every modularity bit -- is fixed at any thread count. After
  // the adoption the phase runs the unmodified iteration protocol; frozen
  // vertices are simply never active.
  //
  // `affected` rows (vertex or some neighbour reactivated) are the only rows
  // whose intra-community weight can change during this phase; the
  // complement contributes a constant computed once at first use
  // (static_intra), which turns the per-iteration O(arcs) modularity scan
  // into O(affected arcs).
  std::vector<char> affected;
  Weight static_intra = 0;
  bool static_intra_done = false;
  Weight prev_mod;
  if (warm != nullptr) {
    for (VertexId lv = 0; lv < local_n; ++lv) {
      const auto lvi = static_cast<std::size_t>(lv);
      const VertexId gv = g.to_global(lv);
      const CommunityId target = warm->seed_community[lvi];
      if (target == gv) continue;
      const std::int64_t own_slot = owned_comm_slot[lvi];
      const std::int64_t to_slot = state.ledger.retain(target);
      state.ledger.apply_move_slots(own_slot, to_slot, g.weighted_degree(gv));
      state.ledger.release_slot(own_slot);
      state.owned_community[lvi] = target;
      owned_comm_slot[lvi] = to_slot;
    }
    {
      util::ScopedAccum scope(timers.delta);
      const util::TraceSpan span(tb, "warm_adopt", "collective", phase);
      state.ledger.flush_deltas(comm);
    }
    // Publish the adopted assignment to ghost mirrors and retarget their
    // slots -- the same absorb/retarget/refresh protocol an iteration runs,
    // done once here so iteration 0 starts from a fully consistent view.
    {
      util::ScopedAccum scope(timers.ghost);
      const util::TraceSpan span(tb, "warm_ghost", "collective", phase);
      state.ghosts.exchange(comm, state.owned_community, xcfg);
    }
    {
      util::ScopedAccum scope(timers.cinfo);
      const util::TraceSpan span(tb, "warm_refresh", "collective", phase);
      for (const auto& change : state.ghosts.last_changes()) {
        state.ledger.release(change.old_value);
        ghost_comm_slot[static_cast<std::size_t>(change.slot)] = state.ledger.retain(
            state.ghosts.values()[static_cast<std::size_t>(change.slot)]);
      }
      state.ledger.refresh(comm);
    }

    // Affected-row mask: reactivated, or adjacent to a reactivated vertex
    // (locally or across a rank boundary -- one dense flag exchange).
    GhostField<std::int64_t> ghost_active(g, 0);
    {
      std::vector<std::int64_t> owned_active(static_cast<std::size_t>(local_n), 0);
      for (VertexId lv = 0; lv < local_n; ++lv)
        owned_active[static_cast<std::size_t>(lv)] =
            warm->reactivated[static_cast<std::size_t>(lv)] != 0 ? 1 : 0;
      util::ScopedAccum scope(timers.ghost);
      ghost_active.exchange(comm, owned_active, xcfg);
    }
    affected.assign(static_cast<std::size_t>(local_n), 0);
    for (VertexId lv = 0; lv < local_n; ++lv) {
      const auto lvi = static_cast<std::size_t>(lv);
      if (warm->reactivated[lvi] != 0) {
        affected[lvi] = 1;
        continue;
      }
      const auto a_end = static_cast<std::size_t>(row[lvi + 1]);
      for (auto a = static_cast<std::size_t>(row[lvi]); a < a_end; ++a) {
        const std::int64_t d = dst_slot[a];
        const bool nbr_active =
            d < local_n
                ? warm->reactivated[static_cast<std::size_t>(d)] != 0
                : ghost_active.values()[static_cast<std::size_t>(d - local_n)] != 0;
        if (nbr_active) {
          affected[lvi] = 1;
          break;
        }
      }
    }

    // Phase-initial modularity of the SEEDED partition (not the singleton
    // one): the warm phase's convergence checks measure gain over what the
    // previous converged state is worth on the updated graph.
    util::ScopedAccum scope(timers.allreduce);
    const Weight intra =
        local_intra_weight(pool, g, state.owned_community, state.ghosts);
    const Weight degree_term = state.ledger.owned_degree_term();
    const auto sums = comm.allreduce_sum_vec<Weight>({intra, degree_term});
    prev_mod = two_m > 0 ? sums[0] / two_m - gamma * sums[1] / (two_m * two_m) : 0.0;
  } else {
    // Phase-initial modularity: singleton partition of the current graph --
    // by the coarsening invariance this equals the previous phase's final
    // modularity, so the convergence checks line up across phases.
    const Weight intra =
        local_intra_weight(pool, g, state.owned_community, state.ghosts);
    const Weight degree_term = state.ledger.owned_degree_term();
    const auto sums = comm.allreduce_sum_vec<Weight>({intra, degree_term});
    prev_mod = two_m > 0 ? sums[0] / two_m - gamma * sums[1] / (two_m * two_m) : 0.0;
  }
  state.initial_modularity = prev_mod;

  // Sweep groups. Without coloring there is ONE group holding every local
  // vertex (paper Algorithm 3 as published). With cfg.use_coloring, vertices
  // are grouped by a distributed distance-1 coloring and the groups are
  // processed color by color with fresh ghost/community state between them,
  // so the set of vertices deciding concurrently (across ranks) is always an
  // independent set -- the paper's Section VI convergence heuristic.
  // Every rank loops over the same (global) group count so the collectives
  // inside stay aligned.
  std::vector<std::vector<VertexId>> groups;
  if (cfg.use_coloring) {
    const auto coloring = distance1_coloring(
        comm, g, util::hash_combine(cfg.base.seed, static_cast<std::uint64_t>(phase)));
    groups.resize(static_cast<std::size_t>(coloring.num_colors));
    for (VertexId lv = 0; lv < local_n; ++lv)
      groups[static_cast<std::size_t>(coloring.color[static_cast<std::size_t>(lv)])]
          .push_back(lv);
  } else {
    groups.resize(1);
    groups[0].resize(static_cast<std::size_t>(local_n));
    std::iota(groups[0].begin(), groups[0].end(), VertexId{0});
  }

  // Seeded-random sweep order within each group, reshuffled per iteration
  // (see louvain/serial.cpp: index-order sweeps drain id-correlated graphs
  // into one community). Keyed per rank so runs are reproducible at any p --
  // and crucially NOT keyed on the thread count: the shuffle fixes which
  // vertex lands in which micro-batch below, so the threaded sweep visits
  // the exact same sequence at --threads 1 and --threads N.
  util::Xoshiro256StarStar order_rng(
      util::hash_combine(cfg.base.seed, static_cast<std::uint64_t>(g.v_begin())) ^
      static_cast<std::uint64_t>(phase) * 0x9e3779b97f4a7c15ULL);

  for (int iter = 0; iter < cfg.base.max_iterations_per_phase; ++iter) {
    // Deterministic crash trigger: a FaultPlan entry pinned to this rank at
    // (phase, iter) fires here, before any of the iteration's collectives.
    comm.fault_point(phase, iter);
    const util::TraceSpan iter_span(tb, "iteration", "iteration", phase, iter);
    std::int64_t local_active = 0;
    std::int64_t local_moved = 0;
    std::fill(moved.begin(), moved.end(), 0);

    for (auto& order : groups) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[order_rng.next_below(i)]);
    // Interior-first order: stable-partition the shuffled order so vertices
    // with no ghost neighbour come first, preserving the shuffled relative
    // order within each class. The split point is a graph property,
    // independent of the thread count, so every configuration sweeps the
    // exact same sequence; the p > 1 golden constants pin this order. On one
    // rank there are no ghosts, every vertex is interior and the partition
    // is a no-op.
    const auto interior_end = std::stable_partition(
        order.begin(), order.end(),
        [&g](VertexId lv) { return !g.is_boundary(lv); });
    const auto n_interior = static_cast<std::int64_t>(interior_end - order.begin());
    const auto group_n = static_cast<std::int64_t>(order.size());
    // First micro-batch that contains a boundary vertex. Batches before it
    // read no ghost state and decide against the ledger as it stood before
    // this iteration's refresh; the straddling batch and everything after
    // run after the refresh.
    std::int64_t split_batch = 0;
    while (split_batch < kSweepBatches &&
           util::fixed_chunk(group_n, split_batch, kSweepBatches).second <= n_interior)
      ++split_batch;

    // (i) push current community assignments for all ghost vertices and
    // absorb the peers' pushes (Alg. 3 l.4-5). The payload snapshots
    // owned_community before any of this iteration's moves.
    {
      util::ScopedAccum scope(timers.ghost);
      const util::TraceSpan span(tb, "ghost_exchange", "collective", phase, iter);
      state.ghosts.exchange(comm, state.owned_community, xcfg);
    }

    // Local move computation (Alg. 3 l.6-9), threaded as a sequence of
    // bulk-synchronous MICRO-BATCHES. The sweep is cut into kSweepBatches
    // fixed slices (boundaries depend only on the group size, never on the
    // thread count). Within a batch, decisions are computed in parallel
    // against the batch-start state -- owned_community / ghosts / ledger are
    // not mutated until every thread is done, so each vertex's proposal is
    // independent of the scan's partitioning across threads. The batch is
    // then applied serially in ascending vertex order before the next batch
    // begins, so moves still propagate WITHIN a sweep (the asynchronous
    // behaviour the Louvain local phase converges fast on) at 1/kSweepBatches
    // granularity. Both halves are deterministic, which is what makes
    // `--threads N` bitwise reproducible. Vertices inside one batch decide
    // against slightly stale neighbour state -- the same staleness the
    // algorithm already tolerates ACROSS ranks every iteration.
    //
    // `slot_cap` is the ledger slot-space bound the scatter arrays are sized
    // to, read when the call starts. Interior batches run against the
    // pre-retarget cap: their arcs only reference owned destinations, whose
    // community slots were all handed out before this iteration (new slots
    // appear only in the retarget / refresh below). Boundary batches run
    // after the refresh and see its cap.
    const auto run_batches = [&](std::int64_t first_batch, std::int64_t end_batch) {
      util::ScopedAccum scope(timers.compute);
      const util::TraceSpan span(tb, "compute", "compute", phase, iter);
      pool.reset_busy();
      const auto slot_cap = static_cast<std::size_t>(state.ledger.slot_count());
      for (std::int64_t batch = first_batch; batch < end_batch; ++batch) {
        const auto [batch_begin, batch_end] =
            util::fixed_chunk(group_n, batch, kSweepBatches);
        if (batch_begin >= batch_end) continue;

        util::parallel_for(&pool, batch_end - batch_begin,
                           [&, batch_begin](int tid, std::int64_t begin,
                                            std::int64_t end) {
          auto& nbr_weight = scatter[static_cast<std::size_t>(tid)];
          for (std::int64_t i = begin; i < end; ++i) {
            const VertexId lv =
                order[static_cast<std::size_t>(batch_begin + i)];
            const auto lvi = static_cast<std::size_t>(lv);
            const VertexId gv = g.to_global(lv);

            if (et.size() != 0 && !et.is_active(lvi, gv, phase, iter)) {
              proposed[lvi] = kInvalidCommunity;
              continue;
            }

            const CommunityId own = state.owned_community[lvi];
            const std::int64_t own_slot = owned_comm_slot[lvi];
            const Weight kv = g.weighted_degree(gv);

            // e_{v -> c} over ledger slots: per arc, two array reads (the
            // precomputed destination slot, then its community's slot
            // mirror) and a stamped segmented accumulate -- arcs group by
            // destination-community slot in first-touch order, each
            // segment summed in scan order (bitwise == the flat path).
            nbr_weight.reset(slot_cap);
            const auto a_end = static_cast<std::size_t>(row[lvi + 1]);
            for (auto a = static_cast<std::size_t>(row[lvi]); a < a_end; ++a) {
              const auto& e = arcs[a];
              if (e.dst == gv) continue;
              const std::int64_t d = dst_slot[a];
              nbr_weight.add(
                  d < local_n ? owned_comm_slot[static_cast<std::size_t>(d)]
                              : ghost_comm_slot[static_cast<std::size_t>(d - local_n)],
                  e.weight);
            }

            const Weight e_own = nbr_weight.sum_of(own_slot);
            const Weight a_own_less_v =
                state.ledger.info_by_slot(own_slot).degree - kv;

            // ∆Q argmax over the dense segment arrays. The selection (max
            // gain, strictly positive, smallest community id on ties) does
            // not depend on visit order, so it picks the same winner the
            // hash-map iteration did.
            const auto pick = util::best_segment(
                nbr_weight, nbr_weight.segment_of(own_slot), e_own,
                a_own_less_v, kv, m, gamma,
                [&](std::int64_t slot) {
                  return state.ledger.info_by_slot(slot).degree;
                },
                [&](std::int64_t slot) { return state.ledger.id_of_slot(slot); });
            CommunityId best = own;
            std::int64_t best_slot = own_slot;
            if (pick.segment >= 0) {
              best_slot = nbr_weight.slots()[static_cast<std::size_t>(pick.segment)];
              best = state.ledger.id_of_slot(best_slot);
            }

            // Singleton-swap guard (same rationale as the shared-memory
            // comparator): concurrent decisions working from the same
            // snapshot would otherwise swap two singleton vertices back and
            // forth forever.
            if (best != own && state.ledger.info_by_slot(own_slot).size == 1 &&
                state.ledger.info_by_slot(best_slot).size == 1 && best > own) {
              best = own;
              best_slot = own_slot;
            }

            proposed[lvi] = best;
            proposed_slot[lvi] = best_slot;
          }
        });

        // Apply the batch serially in sweep (slot) order. The assignment
        // outcome is order-independent (each vertex lands on its own
        // proposal); the fixed order pins the floating-point accumulation
        // sequence in the ledger so a_c stays bitwise identical across
        // thread counts. Slot-keyed throughout: the ledger update, the
        // refcount handoff and the slot-mirror write are all array ops.
        for (std::int64_t i = batch_begin; i < batch_end; ++i) {
          const VertexId lv = order[static_cast<std::size_t>(i)];
          const auto lvi = static_cast<std::size_t>(lv);
          const CommunityId best = proposed[lvi];
          if (best == kInvalidCommunity) continue;
          ++local_active;
          const CommunityId own = state.owned_community[lvi];
          if (best == own) continue;
          const std::int64_t own_slot = owned_comm_slot[lvi];
          const std::int64_t to_slot = proposed_slot[lvi];
          state.ledger.apply_move_slots(own_slot, to_slot,
                                        g.weighted_degree(g.to_global(lv)));
          state.ledger.release_slot(own_slot);
          state.ledger.retain_slot(to_slot);
          state.owned_community[lvi] = best;
          owned_comm_slot[lvi] = to_slot;
          moved[lvi] = 1;
          ++local_moved;
        }
      }
      const double busy = pool.busy_seconds();
      timers.compute_busy += busy;
      comm.counters().busy_seconds += busy;
    };

    // (ii) interior micro-batches.
    run_batches(0, split_batch);

    // (iii) authoritative a_c / |c| for every community our vertices or their
    // neighbours might target. The needed set is maintained incrementally:
    // the exchange's change log retargets the refcounts (and the slot
    // mirror), then the subscriber-push refresh fetches only what this rank
    // newly needs and absorbs owners' pushes for records that changed.
    {
      util::ScopedAccum scope(timers.cinfo);
      const util::TraceSpan span(tb, "community_info", "collective", phase, iter);
      for (const auto& change : state.ghosts.last_changes()) {
        state.ledger.release(change.old_value);
        ghost_comm_slot[static_cast<std::size_t>(change.slot)] = state.ledger.retain(
            state.ghosts.values()[static_cast<std::size_t>(change.slot)]);
      }
      state.ledger.refresh(comm);
    }

    // (iv) boundary micro-batches, against the refreshed ghost state.
    run_batches(split_batch, kSweepBatches);

    // (v) ship community deltas to their owners (Alg. 3 l.10-11).
    {
      util::ScopedAccum scope(timers.delta);
      const util::TraceSpan span(tb, "delta_exchange", "collective", phase, iter);
      state.ledger.flush_deltas(comm);
    }
    }  // group loop

    // (vi) global modularity (Alg. 3 l.12-13).
    Weight curr_mod;
    std::int64_t global_moved;
    {
      util::ScopedAccum scope(timers.allreduce);
      const util::TraceSpan span(tb, "allreduce", "collective", phase, iter);
      Weight intra;
      if (warm != nullptr) {
        // Only affected rows can have changed; the frozen remainder is a
        // constant, computed once against the post-adoption state (valid at
        // any iteration: neither those rows' communities nor any of their
        // neighbours' ever change within the warm phase).
        if (!static_intra_done) {
          static_intra = local_intra_weight(pool, g, state.owned_community,
                                            state.ghosts, &affected, false);
          static_intra_done = true;
        }
        intra = static_intra + local_intra_weight(pool, g, state.owned_community,
                                                  state.ghosts, &affected, true);
      } else {
        intra = local_intra_weight(pool, g, state.owned_community, state.ghosts);
      }
      const Weight degree_term = state.ledger.owned_degree_term();
      const auto sums = comm.allreduce_sum_vec<Weight>(
          {intra, degree_term, static_cast<Weight>(local_moved),
           static_cast<Weight>(local_active)});
      curr_mod = two_m > 0 ? sums[0] / two_m - gamma * sums[1] / (two_m * two_m) : 0.0;
      global_moved = static_cast<std::int64_t>(sums[2]);
      if (cfg.record_iterations) {
        IterationTelemetry it;
        it.iteration = iter;
        it.modularity = curr_mod;
        it.moved_vertices = global_moved;
        it.active_vertices = static_cast<std::int64_t>(sums[3]);
        telemetry.iteration_detail.push_back(it);
      }
    }

    // ET probability updates (Eq. 3) happen after the iteration's outcome is
    // known, for every vertex -- participation does not matter, staying put
    // does. (With warm alpha 0 this is a no-op for the frozen set and keeps
    // the reactivated set at P = 1.)
    if (et.size() != 0) {
      for (VertexId lv = 0; lv < local_n; ++lv)
        et.update(static_cast<std::size_t>(lv), moved[static_cast<std::size_t>(lv)] != 0);
    }

    ++telemetry.iterations;

    // (vii) exit checks. All variants keep the tau test; ETC adds the global
    // inactive-fraction vote (its "extra remote communication"), which in
    // structured graphs fires well before tau does -- the paper's 1.25-2.3x
    // over plain ET. (Without the tau guard, a phase with a few persistent
    // oscillators would never reach 90% inactivity and spin to the iteration
    // cap.) A globally quiescent iteration always ends the phase.
    bool exit_phase = global_moved == 0 || curr_mod - prev_mod <= tau;
    // The ETC inactive-fraction vote is skipped for a warm phase: the frozen
    // set is inactive by construction, so the vote would fire on iteration 0
    // regardless of whether the reactivated region has settled. The skip is
    // keyed on `warm`, identical on every rank, so the collectives stay
    // aligned.
    if (cfg.variant == Variant::kEtc && warm == nullptr) {
      util::ScopedAccum scope(timers.allreduce);
      const util::TraceSpan span(tb, "allreduce", "collective", phase, iter);
      const auto global_inactive = comm.allreduce_sum<std::int64_t>(et.inactive_count());
      if (cfg.record_iterations)
        telemetry.iteration_detail.back().inactive_vertices = global_inactive;
      if (static_cast<double>(global_inactive) >=
          cfg.etc_exit_fraction * static_cast<double>(global_n))
        exit_phase = true;
    }
    prev_mod = std::max(prev_mod, curr_mod);
    if (exit_phase) break;
  }

  // Exact phase-final modularity: one more ghost push so every rank sees the
  // final assignments, then the same reduction. (The change log is not
  // consumed -- no sweep reads the ledger after this point.)
  {
    util::ScopedAccum scope(timers.ghost);
    const util::TraceSpan span(tb, "ghost_exchange", "collective", phase);
    state.ghosts.exchange(comm, state.owned_community, xcfg);
  }
  {
    util::ScopedAccum scope(timers.allreduce);
    const util::TraceSpan span(tb, "allreduce", "collective", phase);
    const Weight intra = local_intra_weight(pool, g, state.owned_community, state.ghosts);
    const Weight degree_term = state.ledger.owned_degree_term();
    const auto sums = comm.allreduce_sum_vec<Weight>({intra, degree_term});
    state.final_modularity =
        two_m > 0 ? sums[0] / two_m - gamma * sums[1] / (two_m * two_m) : 0.0;
  }

  telemetry.phase = phase;
  telemetry.threads = pool.num_threads();
  telemetry.graph_vertices = global_n;
  telemetry.graph_arcs = g.global_arcs();
  telemetry.threshold_used = tau;
  telemetry.modularity_after = state.final_modularity;
  telemetry.breakdown.ghost_exchange = timers.ghost.seconds();
  telemetry.breakdown.community_info = timers.cinfo.seconds();
  telemetry.breakdown.compute = timers.compute.seconds();
  telemetry.breakdown.compute_busy = timers.compute_busy;
  telemetry.breakdown.delta_exchange = timers.delta.seconds();
  telemetry.breakdown.allreduce = timers.allreduce.seconds();
  return state;
}

}  // namespace

double load_imbalance(std::span<const double> loads) {
  double sum = 0;
  double max = 0;
  for (const double v : loads) {
    if (v < 0) throw std::invalid_argument("load_imbalance: negative load");
    sum += v;
    max = std::max(max, v);
  }
  if (sum <= 0) return 1.0;
  // max >= mean exactly; the clamp absorbs rounding in the floating-point sum
  // (three equal loads of 0.1 sum to slightly more than 0.3).
  return std::max(1.0, max / (sum / static_cast<double>(loads.size())));
}

DistResult dist_louvain(comm::Comm& comm, graph::DistGraph graph, const DistConfig& cfg,
                        std::atomic<int>* phase_progress, const WarmStart* warm) {
  util::WallTimer total_timer;
  // This rank's counter block and its entry snapshot: everything this run
  // reports is a delta against the snapshot, so back-to-back runs on one
  // World (or discarded recovery attempts -- the satellite-1 fix) never
  // leak traffic into each other.
  util::CounterBlock& ctr = comm.counters();
  const util::CounterBlock start_ctr = ctr;
  util::TraceBuffer* tb = comm.trace();

  // The rank's compute pool, shared by every phase's move scan, modularity
  // reduction, and rebuild (the per-rank half of the MPI+OpenMP hybrid).
  util::ThreadPool pool(cfg.threads_per_rank);

  if (warm != nullptr &&
      (warm->seed_community.size() != static_cast<std::size_t>(graph.local_count()) ||
       warm->reactivated.size() != warm->seed_community.size()))
    throw std::invalid_argument(
        "dist_louvain: WarmStart arrays must cover the rank's owned vertices");

  DistResult result;

  // original-vertex -> current-meta-vertex chain, held by the ORIGINAL
  // owner of each vertex (the original partition never changes).
  std::vector<VertexId> orig_to_cur(static_cast<std::size_t>(graph.local_count()));
  std::iota(orig_to_cur.begin(), orig_to_cur.end(), graph.v_begin());
  VertexId orig_global_n = graph.global_n();

  const std::uint64_t fingerprint =
      cfg.checkpoint.dir.empty() ? 0 : config_fingerprint(cfg);

  Weight prev_outer_mod = 0;
  bool forced_final = false;  // run once more at the minimum tau (cycling)
  int start_phase = 0;
  bool resumed = false;

  if (cfg.checkpoint.resume && !cfg.checkpoint.dir.empty()) {
    const util::TraceSpan span(tb, "checkpoint_load", "checkpoint");
    if (auto loaded = checkpoint_load(comm, cfg.checkpoint.dir, fingerprint)) {
      graph = std::move(loaded->graph);
      orig_to_cur = std::move(loaded->orig_to_cur);
      orig_global_n = loaded->orig_global_n;
      start_phase = loaded->state.next_phase;
      prev_outer_mod = loaded->state.prev_outer_mod;
      forced_final = loaded->state.forced_final;
      result.phases = loaded->state.phases_done;
      result.total_iterations = loaded->state.iterations_done;
      result.resumed_from_phase = start_phase;
      // Satellite-3 fix: the checkpoint also restores the cumulative
      // seconds/messages/bytes of the pre-checkpoint portion, so the final
      // result covers the whole job -- the rule phases/total_iterations just
      // above always followed (documented in telemetry.hpp).
      result.restored.seconds = loaded->state.counters.seconds;
      result.restored.messages = loaded->state.counters.messages;
      result.restored.bytes = loaded->state.counters.bytes;
      resumed = true;
    }
  }

  if (!resumed) {
    // Initial modularity of the singleton partition (needed for the first
    // outer convergence check). Skipped on resume: the checkpoint restored
    // the exact outer-loop watermark instead.
    Weight degree_term = 0;
    Weight intra = 0;
    for (VertexId lv = 0; lv < graph.local_count(); ++lv) {
      const VertexId gv = graph.to_global(lv);
      const Weight k = graph.weighted_degree(gv);
      degree_term += k * k;
      for (const auto& e : graph.local().neighbors(lv))
        if (e.dst == gv) intra += 2 * e.weight;
    }
    const auto sums = comm.allreduce_sum_vec<Weight>({intra, degree_term});
    const Weight two_m = graph.total_weight();
    prev_outer_mod = two_m > 0 ? sums[0] / two_m -
                                     cfg.base.resolution * sums[1] / (two_m * two_m)
                               : 0.0;
  }

  const double tau_min = cfg.min_threshold();

  // Set when a warm-start run exits via the renumber-only rebuild (no
  // coarse graph to recompute the final modularity from).
  bool warm_exit = false;
  Weight warm_exit_modularity = 0;
  VertexId warm_exit_communities = 0;

  // Breakdown timers live OUTSIDE the phase loop (one allocation, reused)
  // but are cleared by run_phase at every phase start -- see PhaseTimers.
  PhaseTimers timers;

  for (int phase = start_phase; phase < cfg.base.max_phases; ++phase) {
    if (phase_progress != nullptr && comm.rank() == 0)
      phase_progress->store(phase, std::memory_order_relaxed);

    // Phase-boundary checkpoint: everything needed to re-enter THIS phase.
    // Skipped right after a resume (the checkpoint on disk already is this
    // boundary) and at phase 0 (a fresh start needs no checkpoint).
    if (!cfg.checkpoint.dir.empty() && phase > 0 &&
        phase % std::max(1, cfg.checkpoint.every) == 0 &&
        !(resumed && phase == start_phase)) {
      // The whole block -- including the counter allreduce below -- is
      // checkpoint overhead. The reclassification must cover the allreduce:
      // a resumed run SKIPS this block at its start phase, so any of its
      // traffic left in kMessages would make a crashed-and-resumed run
      // report different algorithm traffic than a clean one.
      const util::TrafficReclassScope reclass(ctr, util::Counter::kCheckpointMessages,
                                              util::Counter::kCheckpointBytes);
      const util::TraceSpan span(tb, "checkpoint_save", "checkpoint", phase);
      CheckpointState st{phase, result.phases,
                         static_cast<std::int64_t>(result.total_iterations),
                         prev_outer_mod, forced_final, {}};
      // Cumulative whole-job algorithm totals at this boundary: restored
      // history plus the global sum of per-rank deltas since run start. The
      // delta vector is built before the allreduce call, so the allreduce's
      // own traffic is excluded on every rank symmetrically.
      const auto sums = comm.allreduce_sum_vec<std::int64_t>(
          {ctr[util::Counter::kMessages] - start_ctr[util::Counter::kMessages],
           ctr[util::Counter::kBytes] - start_ctr[util::Counter::kBytes]});
      st.counters.seconds = result.restored.seconds + total_timer.seconds();
      st.counters.messages = result.restored.messages + sums[0];
      st.counters.bytes = result.restored.bytes + sums[1];
      checkpoint_save(comm, cfg.checkpoint.dir, graph, orig_to_cur, orig_global_n, st,
                      fingerprint);
    }

    const double tau = forced_final ? tau_min : cfg.threshold_for_phase(phase);

    util::WallTimer phase_timer;
    PhaseTelemetry telemetry;
    // The warm seed applies to the FINE graph only: phase 0 of a fresh run.
    // A checkpoint resume supplies its own (coarsened) state instead, and
    // every later phase runs on a graph the seed's indices no longer match.
    const WarmStart* phase_warm = (phase == 0 && !resumed) ? warm : nullptr;
    auto phase_state = run_phase(comm, graph, cfg, phase, tau, pool, timers,
                                 telemetry, phase_warm);

    // The exit decision depends only on collectively-identical modularities,
    // so it can be taken BEFORE the rebuild: a warm-start run that is about
    // to exit skips the coarse-graph construction entirely (renumber only)
    // -- the coarse graph of the exit phase is used for nothing but the
    // final singleton-modularity recomputation, and run_phase already
    // reports that phase's exact final modularity. Cold runs keep the full
    // rebuild so their output stays bitwise identical to the pre-Session
    // driver.
    // A warm phase 0 measures its gain over the SEEDED partition's
    // modularity on the updated graph, not over the singleton baseline --
    // a small batch that locally re-converged exits right here, and only
    // a batch that genuinely moved modularity escalates into coarsening.
    const Weight base_mod =
        phase_warm != nullptr ? phase_state.initial_modularity : prev_outer_mod;
    const Weight gain = phase_state.final_modularity - base_mod;
    const double tau_exit =
        phase_warm != nullptr ? std::max(tau, phase_warm->exit_threshold) : tau;
    const bool exits_now =
        gain <= tau_exit && !(cfg.uses_cycling() && tau > tau_min && !forced_final);
    const bool renumber_only = warm != nullptr && exits_now;

    // Graph reconstruction + assignment-chain update. Always performed so
    // the final phase's moves are reflected in the output mapping.
    util::WallTimer rebuild_timer;
    const util::TraceSpan rebuild_span(tb, "rebuild", "collective", phase);
    auto next = rebuild(comm, graph, phase_state.owned_community, phase_state.ghosts,
                        phase_state.ledger, &pool, /*build_graph=*/!renumber_only);

    // Route each original vertex's current id to the rank owning it in the
    // CURRENT partition; owners answer with the collapsed meta-vertex id.
    {
      const int p = comm.size();
      std::vector<std::vector<VertexId>> requests(static_cast<std::size_t>(p));
      for (const VertexId cur : orig_to_cur)
        requests[static_cast<std::size_t>(graph.owner(cur))].push_back(cur);
      const auto incoming = comm.alltoallv<VertexId>(requests);
      std::vector<std::vector<VertexId>> replies(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        replies[static_cast<std::size_t>(r)].reserve(incoming[static_cast<std::size_t>(r)].size());
        for (const VertexId cur : incoming[static_cast<std::size_t>(r)])
          replies[static_cast<std::size_t>(r)].push_back(
              next.new_vertex_of_current[static_cast<std::size_t>(graph.to_local(cur))]);
      }
      const auto answers = comm.alltoallv<VertexId>(std::move(replies));
      // Answers arrive per rank in the same order we asked; walk both.
      std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
      for (auto& cur : orig_to_cur) {
        const auto owner = static_cast<std::size_t>(graph.owner(cur));
        cur = answers[owner][cursor[owner]++];
      }
    }
    telemetry.breakdown.rebuild = rebuild_timer.seconds();
    telemetry.seconds = phase_timer.seconds();

    // Per-phase load-imbalance lambdas, sampled on EVERY run so the
    // coarsening skew is observable. One O(p) allgather per phase: this
    // rank's owned-arc count of the graph the phase just ran on (the
    // partition-quality lambda) and its measured compute + rebuild wall (the
    // observability lambda; scheduler-dependent). Sampling traffic is
    // reclassified so comm.messages counts algorithm traffic only.
    {
      const util::TraceSpan span(tb, "load_sample", "collective", phase);
      const util::TrafficReclassScope reclass(ctr, util::Counter::kLoadSampleMessages,
                                              util::Counter::kLoadSampleBytes);
      struct LoadSample {
        double arcs;
        double seconds;
      };
      const auto samples = comm.allgather(LoadSample{
          static_cast<double>(graph.local().num_arcs()),
          telemetry.breakdown.compute + telemetry.breakdown.rebuild});
      std::vector<double> arcs(samples.size());
      std::vector<double> walls(samples.size());
      for (std::size_t i = 0; i < samples.size(); ++i) {
        arcs[i] = samples[i].arcs;
        walls[i] = samples[i].seconds;
      }
      telemetry.load_lambda = load_imbalance(arcs);
      telemetry.time_lambda = load_imbalance(walls);
    }

    // Section V-D quality-assessment mode: gather the per-phase vertex-
    // community associations of the ORIGINAL graph at the root ("extra
    // collective operations per Louvain method phase").
    if (cfg.gather_quality) {
      auto gathered = comm.gatherv<CommunityId>(
          std::vector<CommunityId>(orig_to_cur.begin(), orig_to_cur.end()), 0);
      if (comm.rank() == 0) result.phase_assignments.push_back(std::move(gathered));
    }

    result.phase_telemetry.push_back(telemetry);
    result.breakdown += telemetry.breakdown;
    ++result.phases;
    result.total_iterations += telemetry.iterations;

    prev_outer_mod = std::max(prev_outer_mod, phase_state.final_modularity);
    if (renumber_only) {
      // Warm exit without a coarse graph: the phase's exact final
      // modularity and the renumbering's community count stand in for the
      // final-graph recomputation below.
      warm_exit_modularity = phase_state.final_modularity;
      warm_exit_communities = next.new_global_n;
      warm_exit = true;
      break;
    }
    graph = std::move(next.graph);

    if (gain <= tau) {
      if (cfg.uses_cycling() && tau > tau_min && !forced_final) {
        // Converged at a relaxed tau: force one more phase at the strictest
        // threshold to secure acceptable modularity (paper Section V-C-a).
        forced_final = true;
        continue;
      }
      break;
    }
    forced_final = false;
  }

  // Final exact modularity: singleton partition of the final coarse graph
  // -- except after a warm renumber-only exit, where the coarse graph was
  // never built and the last phase's exact modularity is the same quantity.
  if (warm_exit) {
    result.modularity = warm_exit_modularity;
  } else {
    Weight intra = 0;
    Weight degree_term = 0;
    for (VertexId lv = 0; lv < graph.local_count(); ++lv) {
      const VertexId gv = graph.to_global(lv);
      const Weight k = graph.weighted_degree(gv);
      degree_term += k * k;
      for (const auto& e : graph.local().neighbors(lv))
        if (e.dst == gv) intra += 2 * e.weight;
    }
    const auto sums = comm.allreduce_sum_vec<Weight>({intra, degree_term});
    const Weight two_m = graph.total_weight();
    result.modularity = two_m > 0 ? sums[0] / two_m -
                                        cfg.base.resolution * sums[1] / (two_m * two_m)
                                  : 0.0;
  }

  // Final assignment for all original vertices: original partition slices
  // concatenate in rank order to the full array.
  result.community = comm.allgatherv<CommunityId>(
      std::vector<CommunityId>(orig_to_cur.begin(), orig_to_cur.end()));
  result.num_communities = warm_exit ? warm_exit_communities : graph.global_n();
  result.seconds = result.restored.seconds + total_timer.seconds();

  // Global executed-portion counter totals, identical on every rank: sum the
  // per-rank deltas since run start. The delta vectors are built before the
  // allreduce calls, so the reduction's own traffic is excluded on every
  // rank symmetrically (and deterministically).
  {
    std::vector<std::int64_t> delta(util::kNumCounters);
    for (std::size_t i = 0; i < util::kNumCounters; ++i)
      delta[i] = ctr.values[i] - start_ctr.values[i];
    const auto sums = comm.allreduce_sum_vec<std::int64_t>(delta);
    for (std::size_t i = 0; i < util::kNumCounters; ++i)
      result.counters.values[i] = sums[i];
    const auto busy = comm.allreduce_sum_vec<double>(
        {ctr.busy_seconds - start_ctr.busy_seconds});
    result.counters.busy_seconds = busy[0];
  }
  result.messages =
      result.restored.messages + result.counters[util::Counter::kMessages];
  result.bytes = result.restored.bytes + result.counters[util::Counter::kBytes];

  return result;
}

DistResult dist_louvain_inprocess(int nranks, const graph::Csr& global,
                                  const DistConfig& cfg, graph::PartitionKind kind,
                                  const comm::RunOptions& options,
                                  std::atomic<int>* phase_progress) {
  DistResult result;
  comm::run(
      nranks,
      [&](comm::Comm& comm) {
        auto dist = graph::DistGraph::from_replicated(comm, global, kind);
        auto local_result = dist_louvain(comm, std::move(dist), cfg, phase_progress);
        if (comm.rank() == 0) result = std::move(local_result);
      },
      options);
  return result;
}

}  // namespace dlouvain::core
