// Sweep-kernel guarantees, pinned as tests:
//
//  * util::best_segment (util/segmented.hpp) picks exactly the community a
//    from-scratch std::map recomputation of ∆Q picks -- strictly positive
//    maximum, smallest community id on exact ties -- over seeded random
//    neighbourhoods with repeated targets, zero-weight arcs, engineered
//    ties, the own community present and absent, and gamma != 1;
//  * every engine running that kernel is bitwise stable -- same assignment,
//    same modularity bits, same phase/iteration counts -- on every topology
//    class, at thread counts 1/4/16, under fault-injection delay and
//    duplication, and across Session::update warm-start batches;
//  * the bounds-checked ScatterAccumulator::at() twin (util/scatter.hpp)
//    rejects out-of-range slots that the assert-based hot path trusts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "dlouvain.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/csr.hpp"
#include "util/scatter.hpp"
#include "util/segmented.hpp"

namespace {

using namespace dlouvain;

constexpr int kThreadCounts[] = {1, 4, 16};

graph::Csr star(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v) edges.push_back({0, v, 1.0});
  return graph::from_edges(n, edges);
}

graph::Csr rmat9() {
  gen::RmatParams p;
  p.scale = 9;
  p.edges_per_vertex = 8;
  p.seed = 42;
  const auto g = gen::rmat(p);
  return graph::from_edges(g.num_vertices, g.edges);
}

graph::Csr lfr600() {
  gen::LfrParams p;
  p.num_vertices = 600;
  p.avg_degree = 12;
  p.max_degree = 40;
  p.min_community = 15;
  p.max_community = 60;
  p.mu = 0.2;
  p.seed = 3;
  const auto g = gen::lfr(p);
  return graph::from_edges(g.num_vertices, g.edges);
}

struct Fixture {
  const char* name;
  graph::Csr g;
};

std::vector<Fixture> fixtures() {
  const auto ring = gen::ring(512);
  std::vector<Fixture> out;
  out.push_back({"ring", graph::from_edges(ring.num_vertices, ring.edges)});
  out.push_back({"star", star(400)});
  out.push_back({"rmat", rmat9()});
  out.push_back({"lfr", lfr600()});
  return out;
}

void expect_bitwise_equal(const Result& got, const Result& want,
                          const std::string& label) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.modularity),
            std::bit_cast<std::uint64_t>(want.modularity))
      << label;
  EXPECT_EQ(got.community, want.community) << label;
  EXPECT_EQ(got.num_communities, want.num_communities) << label;
  EXPECT_EQ(got.phases, want.phases) << label;
  EXPECT_EQ(got.total_iterations, want.total_iterations) << label;
}

// ---- best_segment against a from-scratch oracle -----------------------------

/// One vertex's neighbourhood as best_segment sees it: arcs into community
/// slots, the per-slot community degrees a_c and ids (the tie key), the own
/// slot and the scalars of the gain formula.
struct Neighbourhood {
  std::vector<std::pair<std::int64_t, double>> arcs;  ///< (slot, weight)
  std::vector<double> degree;                         ///< a_c by slot
  std::vector<CommunityId> id;                        ///< community id by slot
  std::int64_t own{0};
  double kv{0};
  double m{0};
  double gamma{1};
};

/// The selection rule recomputed from scratch: e_{v -> c} summed per slot in
/// a std::map, every non-own candidate's ∆Q evaluated, the strictly positive
/// maximum kept, exact ties resolved toward the smallest community id.
/// Returns the winning community id, or kInvalidCommunity to stay put.
CommunityId oracle_pick(const Neighbourhood& nb, int* ties) {
  std::map<std::int64_t, double> e;
  for (const auto& [slot, w] : nb.arcs) e[slot] += w;
  const double e_own = e.count(nb.own) != 0 ? e[nb.own] : 0.0;
  const double a_own_less_v = nb.degree[static_cast<std::size_t>(nb.own)] - nb.kv;
  const double m = nb.m;
  std::map<double, std::vector<CommunityId>> by_gain;
  for (const auto& [slot, e_target] : e) {
    if (slot == nb.own) continue;
    const double gain = (e_target - e_own) / m -
                        nb.gamma * nb.kv *
                            (nb.degree[static_cast<std::size_t>(slot)] - a_own_less_v) /
                            (2 * m * m);
    by_gain[gain].push_back(nb.id[static_cast<std::size_t>(slot)]);
  }
  if (by_gain.empty() || !(by_gain.rbegin()->first > 0)) return kInvalidCommunity;
  const auto& best = by_gain.rbegin()->second;
  if (best.size() > 1) ++*ties;
  return *std::min_element(best.begin(), best.end());
}

CommunityId kernel_pick(const Neighbourhood& nb,
                        util::SegmentedAccumulator<double>& seg) {
  seg.reset(nb.degree.size());
  for (const auto& [slot, w] : nb.arcs) seg.add(slot, w);
  const double kv = nb.kv;
  const auto pick = util::best_segment(
      seg, seg.segment_of(nb.own), seg.sum_of(nb.own),
      nb.degree[static_cast<std::size_t>(nb.own)] - kv, kv, nb.m, nb.gamma,
      [&](std::int64_t slot) { return nb.degree[static_cast<std::size_t>(slot)]; },
      [&](std::int64_t slot) { return nb.id[static_cast<std::size_t>(slot)]; });
  if (pick.segment < 0) return kInvalidCommunity;
  return nb.id[static_cast<std::size_t>(seg.slots()[pick.segment])];
}

/// A seeded random neighbourhood. Weights are multiples of 1/4, so every
/// per-slot sum is exact in any summation order and the oracle's map sums
/// equal the kernel's scan-order sums bit for bit. With `tie`, a second
/// slot receives a copy of another slot's arcs and its degree, so the two
/// have exactly equal ∆Q.
Neighbourhood random_neighbourhood(std::mt19937_64& rng, bool own_present, bool tie) {
  const auto uniform = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Neighbourhood nb;
  const int slots = uniform(2, 12);
  nb.id.resize(static_cast<std::size_t>(slots));
  std::iota(nb.id.begin(), nb.id.end(), CommunityId{100});
  std::shuffle(nb.id.begin(), nb.id.end(), rng);  // id order != slot order
  nb.own = uniform(0, slots - 1);
  const int arcs = uniform(0, 3 * slots);
  for (int i = 0; i < arcs; ++i) {
    // Targets drawn from a few slots repeat; weight 0 is allowed.
    const std::int64_t slot = uniform(0, slots - 1);
    if (!own_present && slot == nb.own) continue;
    nb.arcs.emplace_back(slot, uniform(0, 12) / 4.0);
  }
  if (own_present) nb.arcs.emplace_back(nb.own, uniform(1, 8) / 4.0);
  nb.kv = uniform(1, 16) / 4.0;
  nb.degree.resize(static_cast<std::size_t>(slots));
  for (auto& a : nb.degree) a = uniform(0, 64) / 4.0;
  nb.degree[static_cast<std::size_t>(nb.own)] += nb.kv;  // a_own includes k_v
  nb.m = uniform(16, 256) / 4.0;
  constexpr double kGammas[] = {1.0, 0.5, 1.25, 2.0};
  nb.gamma = kGammas[uniform(0, 3)];
  if (tie && slots >= 3) {
    std::int64_t from = uniform(0, slots - 1);
    std::int64_t to = uniform(0, slots - 1);
    if (from == nb.own) from = (from + 1) % slots;
    while (to == nb.own || to == from) to = (to + 1) % slots;
    std::vector<std::pair<std::int64_t, double>> copies;
    for (const auto& [slot, w] : nb.arcs)
      if (slot == from) copies.emplace_back(to, w);
    std::erase_if(nb.arcs, [to](const auto& arc) { return arc.first == to; });
    nb.arcs.insert(nb.arcs.end(), copies.begin(), copies.end());
    nb.degree[static_cast<std::size_t>(to)] = nb.degree[static_cast<std::size_t>(from)];
    // Interleave the copies so first-touch order does not track slot order.
    std::shuffle(nb.arcs.begin(), nb.arcs.end(), rng);
  }
  return nb;
}

TEST(SweepKernel, BestSegmentMatchesMapOracle) {
  std::mt19937_64 rng(20240607);
  util::SegmentedAccumulator<double> seg;  // reused, as the engines do
  int ties = 0;
  int moves = 0;
  int stays = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const bool own_present = trial % 2 == 0;
    const bool tie = trial % 3 == 0;
    const auto nb = random_neighbourhood(rng, own_present, tie);
    const CommunityId want = oracle_pick(nb, &ties);
    const CommunityId got = kernel_pick(nb, seg);
    ASSERT_EQ(got, want) << "trial " << trial << " own_present " << own_present
                         << " tie " << tie << " gamma " << nb.gamma;
    ++(want == kInvalidCommunity ? stays : moves);
  }
  // The generator must actually reach every branch of the rule.
  EXPECT_GT(ties, 100);
  EXPECT_GT(moves, 500);
  EXPECT_GT(stays, 500);
}

TEST(SweepKernel, BestSegmentBreaksExactTiesTowardSmallestId) {
  // Slots 0..3 carry ids 40, 30, 10, 20. Slots 1 and 2 tie exactly (same
  // e, same a); slot 2 is touched later but has the smaller id, so it wins.
  // Slot 3 (own) has the largest e but is never a candidate.
  Neighbourhood nb;
  nb.id = {40, 30, 10, 20};
  nb.degree = {8.0, 2.0, 2.0, 6.0};
  nb.own = 3;
  nb.kv = 1.0;
  nb.m = 32.0;
  nb.arcs = {{1, 1.0}, {0, 0.25}, {3, 2.0}, {2, 0.5}, {1, 0.0}, {2, 0.5}, {3, 1.0}};
  // e_own = 3, so no candidate (e <= 1) beats staying put ...
  util::SegmentedAccumulator<double> seg;
  EXPECT_EQ(kernel_pick(nb, seg), kInvalidCommunity);
  // ... until the own community disappears from the neighbourhood.
  std::erase_if(nb.arcs, [](const auto& arc) { return arc.first == 3; });
  EXPECT_EQ(kernel_pick(nb, seg), CommunityId{10});
  int ties = 0;
  EXPECT_EQ(oracle_pick(nb, &ties), CommunityId{10});
  EXPECT_EQ(ties, 1);
}

// ---- engine-level bitwise stability -----------------------------------------

TEST(SweepKernel, SerialEngineIsRepeatable) {
  for (const auto& f : fixtures()) {
    const auto plan = Plan::serial().seed(123);
    expect_bitwise_equal(plan.run(f.g), plan.run(f.g),
                         std::string("serial ") + f.name);
  }
}

TEST(SweepKernel, SharedEngineIsThreadInvariant) {
  for (const auto& f : fixtures()) {
    const auto reference = Plan::shared(1).seed(123).run(f.g);
    for (const int threads : kThreadCounts) {
      expect_bitwise_equal(Plan::shared(threads).seed(123).run(f.g), reference,
                           std::string("shared ") + f.name + " t" +
                               std::to_string(threads));
    }
  }
}

TEST(SweepKernel, DistributedEngineIsThreadInvariant) {
  for (const auto& f : fixtures()) {
    const auto reference = Plan::distributed(4).threads(1).seed(123).run(f.g);
    for (const int threads : kThreadCounts) {
      expect_bitwise_equal(
          Plan::distributed(4).threads(threads).seed(123).run(f.g), reference,
          std::string("dist ") + f.name + " t" + std::to_string(threads));
    }
  }
}

TEST(SweepKernel, SurvivesFaultInjection) {
  // A delaying, duplicating transport must not open any window the sweep
  // can see: it consumes whatever ghost state the exchange settled on, and
  // that state is exactly the clean run's.
  const auto g = rmat9();
  const auto faults =
      comm::FaultPlan().with_seed(11).delay(0.05, 0.5).duplicate(0.05);
  const auto clean = Plan::distributed(4).threads(1).seed(123).run(g);
  for (const int threads : kThreadCounts) {
    expect_bitwise_equal(
        Plan::distributed(4).threads(threads).seed(123).inject_faults(faults).run(g),
        clean, std::string("faulty t") + std::to_string(threads));
  }
}

TEST(SweepKernel, WarmStartUpdateBatchesAreThreadInvariant) {
  // The warm re-convergence path sweeps only reactivated vertices -- a
  // different entry into the same kernel. Replay an identical batch stream
  // at every thread count and demand identical results after every batch.
  const auto g = rmat9();
  const auto batches = std::vector<EdgeBatch>{
      EdgeBatch().add(3, 500, 2.0).add(7, 400, 1.5).remove(0, 1),
      EdgeBatch().add(10, 200, 1.0).add(11, 201, 1.0).add(12, 202, 1.0),
      EdgeBatch().remove(3, 500).add(5, 300, 4.0),
  };

  std::vector<std::vector<Result>> per_threads;
  for (const int threads : kThreadCounts) {
    auto session = Plan::distributed(4).threads(threads).seed(123).open(g);
    std::vector<Result> states;
    states.push_back(session.result());
    for (const auto& batch : batches) {
      session.update(batch);
      states.push_back(session.result());
    }
    per_threads.push_back(std::move(states));
  }

  for (std::size_t t = 1; t < per_threads.size(); ++t) {
    for (std::size_t step = 0; step < per_threads[t].size(); ++step) {
      expect_bitwise_equal(per_threads[t][step], per_threads[0][step],
                           std::string("update step ") + std::to_string(step) +
                               " t" + std::to_string(kThreadCounts[t]));
    }
  }
}

// ---- checked scatter twin ---------------------------------------------------

TEST(ScatterChecked, AtMatchesGetInRangeAndThrowsOutside) {
  util::ScatterAccumulator<double> acc;
  acc.reset(8);
  acc.add(2, 1.5);
  acc.add(2, 0.25);
  acc.add(7, 3.0);
  EXPECT_EQ(acc.at(2), acc.get(2));
  EXPECT_EQ(acc.at(7), 3.0);
  EXPECT_EQ(acc.at(0), 0.0);  // untouched slot reads the neutral value
  EXPECT_THROW(acc.at(8), std::out_of_range);
  EXPECT_THROW(acc.at(-1), std::out_of_range);

  acc.reset(4);  // new epoch: the old slots read neutral again
  EXPECT_EQ(acc.at(2), 0.0);
}

}  // namespace
