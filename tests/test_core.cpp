// Validation of the distributed Louvain implementation: correctness of the
// distributed bookkeeping (reported modularity must equal an independent
// recomputation on the original global graph), agreement with the serial
// reference within the paper's <1% band, behaviour of every heuristic
// variant, and telemetry coherence -- all across rank counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "comm/world.hpp"
#include "core/dist_config.hpp"
#include "core/dist_louvain.hpp"
#include "gen/lfr.hpp"
#include "gen/simple.hpp"
#include "gen/ssca2.hpp"
#include "graph/csr.hpp"
#include "louvain/modularity.hpp"
#include "louvain/serial.hpp"

namespace core = dlouvain::core;
namespace dg = dlouvain::graph;
namespace gen = dlouvain::gen;
namespace dl = dlouvain::louvain;
using dlouvain::CommunityId;
using dlouvain::Edge;
using dlouvain::VertexId;

namespace {

dg::Csr two_triangles() {
  return dg::from_edges(6, {{0, 1, 1},
                            {1, 2, 1},
                            {0, 2, 1},
                            {3, 4, 1},
                            {4, 5, 1},
                            {3, 5, 1},
                            {2, 3, 1}});
}

/// The core exactness check: the result's modularity, which the distributed
/// code assembled from per-rank ledgers across phases and rebuilds, must
/// equal an independent serial recomputation on the ORIGINAL graph.
void expect_exact_bookkeeping(const dg::Csr& g, const core::DistResult& result) {
  ASSERT_EQ(result.community.size(), static_cast<std::size_t>(g.num_vertices()));
  EXPECT_NEAR(result.modularity, dl::modularity(g, result.community), 1e-9);
}

void expect_compact_ids(const core::DistResult& result) {
  std::set<CommunityId> ids(result.community.begin(), result.community.end());
  EXPECT_EQ(static_cast<CommunityId>(ids.size()), result.num_communities);
  if (!ids.empty()) {
    EXPECT_EQ(*ids.begin(), 0);
    EXPECT_EQ(*ids.rbegin(), result.num_communities - 1);
  }
}

}  // namespace

class DistLouvainAtP : public ::testing::TestWithParam<int> {};

TEST_P(DistLouvainAtP, FindsTheTwoTriangles) {
  const int p = GetParam();
  const auto g = two_triangles();
  const auto result = core::dist_louvain_inprocess(p, g);
  EXPECT_EQ(result.num_communities, 2);
  EXPECT_EQ(result.community[0], result.community[1]);
  EXPECT_EQ(result.community[1], result.community[2]);
  EXPECT_EQ(result.community[3], result.community[4]);
  EXPECT_EQ(result.community[4], result.community[5]);
  EXPECT_NE(result.community[0], result.community[3]);
  EXPECT_NEAR(result.modularity, 6.0 / 7.0 - 0.5, 1e-12);
  expect_exact_bookkeeping(g, result);
  expect_compact_ids(result);
}

TEST_P(DistLouvainAtP, CliqueChainRecoversAllCliques) {
  const int p = GetParam();
  const auto graph = gen::clique_chain(10, 6);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto result = core::dist_louvain_inprocess(p, g);
  EXPECT_EQ(result.num_communities, 10);
  for (VertexId c = 0; c < 10; ++c)
    for (VertexId i = 1; i < 6; ++i)
      EXPECT_EQ(result.community[static_cast<std::size_t>(c * 6)],
                result.community[static_cast<std::size_t>(c * 6 + i)]);
  expect_exact_bookkeeping(g, result);
}

TEST_P(DistLouvainAtP, BookkeepingExactOnIrregularGraph) {
  const int p = GetParam();
  gen::LfrParams params;
  params.num_vertices = 300;
  params.avg_degree = 12;
  params.max_degree = 36;
  params.mu = 0.3;
  const auto graph = gen::lfr(params);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto result = core::dist_louvain_inprocess(p, g);
  expect_exact_bookkeeping(g, result);
  expect_compact_ids(result);
}

TEST_P(DistLouvainAtP, WithinOnePercentOfSerialModularity) {
  // Paper, single-node comparison: "the modularity difference was found to
  // be under 1%".
  const int p = GetParam();
  gen::Ssca2Params params;
  params.num_vertices = 600;
  params.max_clique_size = 20;
  params.inter_clique_prob = 0.02;
  const auto graph = gen::ssca2(params);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);

  const auto serial = dl::louvain_serial(g);
  const auto dist = core::dist_louvain_inprocess(p, g);
  EXPECT_GT(dist.modularity, serial.modularity * 0.99)
      << "p=" << p << " dist=" << dist.modularity << " serial=" << serial.modularity;
}

TEST_P(DistLouvainAtP, WeightedGraphHandledExactly) {
  const int p = GetParam();
  const auto g = dg::from_edges(
      6, {{0, 1, 2.5}, {1, 2, 0.5}, {0, 2, 1.5}, {3, 4, 4.0}, {4, 5, 0.25}, {2, 3, 0.1}});
  const auto result = core::dist_louvain_inprocess(p, g);
  expect_exact_bookkeeping(g, result);
}

TEST_P(DistLouvainAtP, IsolatedVerticesStaySingleton) {
  const int p = GetParam();
  // Triangle plus three isolated vertices.
  const auto g = dg::from_edges(6, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}});
  const auto result = core::dist_louvain_inprocess(p, g);
  EXPECT_EQ(result.num_communities, 4);
  EXPECT_NE(result.community[3], result.community[4]);
  EXPECT_NE(result.community[4], result.community[5]);
  expect_exact_bookkeeping(g, result);
}

TEST_P(DistLouvainAtP, TelemetryIsCoherent) {
  const int p = GetParam();
  const auto graph = gen::clique_chain(8, 5);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto result = core::dist_louvain_inprocess(p, g);

  EXPECT_EQ(result.phase_telemetry.size(), static_cast<std::size_t>(result.phases));
  long iters = 0;
  for (const auto& phase : result.phase_telemetry) {
    iters += phase.iterations;
    EXPECT_GT(phase.iterations, 0);
    EXPECT_GT(phase.graph_vertices, 0);
    EXPECT_GE(phase.seconds, 0.0);
    EXPECT_EQ(phase.iteration_detail.size(), static_cast<std::size_t>(phase.iterations));
    // Breakdown buckets are all populated and non-negative.
    EXPECT_GE(phase.breakdown.ghost_exchange, 0.0);
    EXPECT_GE(phase.breakdown.compute, 0.0);
    EXPECT_GE(phase.breakdown.allreduce, 0.0);
  }
  EXPECT_EQ(iters, result.total_iterations);
  // Phase modularity never decreases (tolerate fp noise).
  for (std::size_t i = 1; i < result.phase_telemetry.size(); ++i)
    EXPECT_GE(result.phase_telemetry[i].modularity_after + 1e-9,
              result.phase_telemetry[i - 1].modularity_after);
  if (p > 1) {
    EXPECT_GT(result.messages, 0);
    EXPECT_GT(result.bytes, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, DistLouvainAtP, ::testing::Values(1, 2, 3, 4, 8));

// ---- Heuristic variants ------------------------------------------------------

// One case per heuristic variant: the configuration under test, the rank
// count both runs use, and how much modularity the variant may give up
// against the baseline.
struct VariantCase {
  core::DistConfig cfg;
  double max_modularity_loss;
  int ranks;
};

class VariantQuality : public ::testing::TestWithParam<VariantCase> {};

TEST_P(VariantQuality, QualityWithinBandOfBaseline) {
  const auto& [cfg, max_loss, ranks] = GetParam();
  gen::Ssca2Params params;
  params.num_vertices = 800;
  params.max_clique_size = 25;
  params.inter_clique_prob = 0.02;
  const auto graph = gen::ssca2(params);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);

  const auto baseline = core::dist_louvain_inprocess(ranks, g, core::DistConfig::baseline());
  const auto variant = core::dist_louvain_inprocess(ranks, g, cfg);
  EXPECT_GT(variant.modularity, baseline.modularity - max_loss)
      << core::variant_label(cfg.variant, cfg.base.et_alpha);
  expect_exact_bookkeeping(g, variant);
}

// Paper: threshold cycling costs < 3% modularity; ET "negligible" loss.
INSTANTIATE_TEST_SUITE_P(AllVariants, VariantQuality,
                         ::testing::Values(VariantCase{core::DistConfig::threshold_cycling(), 0.03, 3},
                                           VariantCase{core::DistConfig::et(0.25), 0.03, 3},
                                           VariantCase{core::DistConfig::et(0.75), 0.03, 3},
                                           VariantCase{core::DistConfig::etc(0.25), 0.03, 3},
                                           VariantCase{core::DistConfig::etc(0.75), 0.03, 3}));

TEST(DistVariants, ThresholdCyclingUsesScheduledTaus) {
  const auto cfg = core::DistConfig::threshold_cycling();
  EXPECT_DOUBLE_EQ(cfg.threshold_for_phase(0), 1e-3);
  EXPECT_DOUBLE_EQ(cfg.threshold_for_phase(2), 1e-3);
  EXPECT_DOUBLE_EQ(cfg.threshold_for_phase(3), 1e-4);
  EXPECT_DOUBLE_EQ(cfg.threshold_for_phase(6), 1e-4);
  EXPECT_DOUBLE_EQ(cfg.threshold_for_phase(7), 1e-5);
  EXPECT_DOUBLE_EQ(cfg.threshold_for_phase(10), 1e-6);
  EXPECT_DOUBLE_EQ(cfg.threshold_for_phase(12), 1e-6);
  // Cycle repeats from phase 13 (paper Fig. 2).
  EXPECT_DOUBLE_EQ(cfg.threshold_for_phase(13), 1e-3);
  EXPECT_DOUBLE_EQ(cfg.min_threshold(), 1e-6);
}

TEST(DistVariants, BaselineThresholdIsFlat) {
  const core::DistConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.threshold_for_phase(0), cfg.base.threshold);
  EXPECT_DOUBLE_EQ(cfg.threshold_for_phase(9), cfg.base.threshold);
}

TEST(DistVariants, VariantLabelsMatchPaperLegend) {
  EXPECT_EQ(core::variant_label(core::Variant::kBaseline, 0), "Baseline");
  EXPECT_EQ(core::variant_label(core::Variant::kThresholdCycling, 0), "Threshold Cycling");
  EXPECT_EQ(core::variant_label(core::Variant::kEt, 0.25), "ET(0.25)");
  EXPECT_EQ(core::variant_label(core::Variant::kEtc, 0.75), "ETC(0.75)");
}

TEST(DistVariants, EtcRecordsInactiveCounts) {
  gen::Ssca2Params params;
  params.num_vertices = 400;
  params.max_clique_size = 15;
  const auto graph = gen::ssca2(params);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto result = core::dist_louvain_inprocess(2, g, core::DistConfig::etc(0.75));
  bool saw_inactive = false;
  for (const auto& phase : result.phase_telemetry)
    for (const auto& it : phase.iteration_detail) saw_inactive |= it.inactive_vertices > 0;
  EXPECT_TRUE(saw_inactive);
}

TEST(DistVariants, AggressiveEtReducesActiveWork) {
  // With alpha=1 any quiet vertex deactivates immediately, so summed active
  // counts must be below the baseline's.
  gen::Ssca2Params params;
  params.num_vertices = 600;
  params.max_clique_size = 20;
  const auto graph = gen::ssca2(params);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);

  auto active_total = [](const core::DistResult& r) {
    std::int64_t total = 0;
    for (const auto& ph : r.phase_telemetry)
      for (const auto& it : ph.iteration_detail) total += it.active_vertices;
    return total;
  };

  const auto baseline = core::dist_louvain_inprocess(2, g, core::DistConfig::baseline());
  const auto aggressive = core::dist_louvain_inprocess(2, g, core::DistConfig::et(1.0));
  EXPECT_LT(active_total(aggressive), active_total(baseline));
}

TEST(DistVariants, EtPlusThresholdCyclingCombination) {
  // Table VI's combination must run and stay in the quality band.
  gen::Ssca2Params params;
  params.num_vertices = 500;
  params.max_clique_size = 20;
  const auto graph = gen::ssca2(params);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);

  auto cfg = core::DistConfig::et(0.25);
  cfg.add_threshold_cycling = true;
  EXPECT_TRUE(cfg.uses_cycling());
  EXPECT_TRUE(cfg.uses_et());
  const auto result = core::dist_louvain_inprocess(2, g, cfg);
  const auto baseline = core::dist_louvain_inprocess(2, g);
  EXPECT_GT(result.modularity, baseline.modularity - 0.03);
}

// ---- Cross-p robustness ------------------------------------------------------

TEST(DistLouvain, ModularityStableAcrossRankCounts) {
  gen::LfrParams params;
  params.num_vertices = 400;
  params.avg_degree = 14;
  params.max_degree = 40;
  params.mu = 0.25;
  const auto graph = gen::lfr(params);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);

  std::vector<double> mods;
  for (int p : {1, 2, 4, 8}) mods.push_back(core::dist_louvain_inprocess(p, g).modularity);
  const auto [lo, hi] = std::minmax_element(mods.begin(), mods.end());
  EXPECT_LT(*hi - *lo, 0.02) << "modularity drifts too much with rank count";
}

TEST(DistLouvain, MoreRanksThanVertices) {
  const auto g = two_triangles();
  const auto result = core::dist_louvain_inprocess(8, g);
  EXPECT_EQ(result.num_communities, 2);
  expect_exact_bookkeeping(g, result);
}

TEST(DistLouvain, VertexBalancedPartitionAlsoWorks) {
  const auto graph = gen::clique_chain(6, 5);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto result = core::dist_louvain_inprocess(
      3, g, {}, dg::PartitionKind::kEvenVertices);
  EXPECT_EQ(result.num_communities, 6);
  expect_exact_bookkeeping(g, result);
}

TEST(DistLouvain, DirectRunMatchesInprocessWrapper) {
  const auto g = two_triangles();
  core::DistResult direct;
  dlouvain::comm::run(2, [&](dlouvain::comm::Comm& comm) {
    auto dist = dg::DistGraph::from_replicated(comm, g);
    auto r = core::dist_louvain(comm, dist, {});
    if (comm.rank() == 0) direct = std::move(r);
  });
  const auto wrapped = core::dist_louvain_inprocess(2, g);
  EXPECT_EQ(direct.community, wrapped.community);
  EXPECT_EQ(direct.modularity, wrapped.modularity);
}

TEST(DistLouvain, ResultIdenticalOnAllRanks) {
  const auto graph = gen::clique_chain(5, 4);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  std::vector<core::DistResult> results(3);
  dlouvain::comm::run(3, [&](dlouvain::comm::Comm& comm) {
    auto dist = dg::DistGraph::from_replicated(comm, g);
    results[static_cast<std::size_t>(comm.rank())] =
        core::dist_louvain(comm, dist, {});
  });
  for (int r = 1; r < 3; ++r) {
    EXPECT_EQ(results[0].community, results[static_cast<std::size_t>(r)].community);
    EXPECT_EQ(results[0].modularity, results[static_cast<std::size_t>(r)].modularity);
    EXPECT_EQ(results[0].phases, results[static_cast<std::size_t>(r)].phases);
  }
}

TEST(DistVariants, CyclingForcesFinalPhaseAtMinimumTau) {
  // A graph that converges within the first (relaxed-tau) phases: the run
  // must still end with a phase executed at the minimum threshold (paper
  // Section V-C-a: "always forces Louvain iteration to run once more with
  // the lowest threshold").
  const auto graph = gen::clique_chain(6, 5);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto cfg = core::DistConfig::threshold_cycling();
  const auto result = core::dist_louvain_inprocess(2, g, cfg);
  ASSERT_FALSE(result.phase_telemetry.empty());
  EXPECT_DOUBLE_EQ(result.phase_telemetry.back().threshold_used, cfg.min_threshold());
  // And the early phases really did use the relaxed schedule.
  EXPECT_DOUBLE_EQ(result.phase_telemetry.front().threshold_used, 1e-3);
}

TEST(DistLouvain, MediumScaleIntegration) {
  // A ~60k-arc LFR run across 6 ranks: end-to-end exactness and quality at a
  // size closer to the bench defaults.
  gen::LfrParams params;
  params.num_vertices = 3000;
  params.avg_degree = 20;
  params.max_degree = 60;
  params.mu = 0.3;
  params.seed = 77;
  const auto graph = gen::lfr(params);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto result = core::dist_louvain_inprocess(6, g);
  EXPECT_NEAR(result.modularity, dl::modularity(g, result.community), 1e-9);
  EXPECT_GT(result.modularity, 0.55);
  const auto serial = dl::louvain_serial(g);
  EXPECT_GT(result.modularity, serial.modularity * 0.98);
}
