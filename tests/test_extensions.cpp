// Tests for the extension modules: distributed distance-1 coloring, colored
// Louvain, vertex following, graph statistics, distributed connected
// components, neighborhood collectives, and the Section V-D quality-gather
// mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "comm/world.hpp"
#include "core/coloring.hpp"
#include "core/components.hpp"
#include "core/dist_louvain.hpp"
#include "core/ghost_exchange.hpp"
#include "gen/lfr.hpp"
#include "gen/simple.hpp"
#include "gen/ssca2.hpp"
#include "graph/csr.hpp"
#include "graph/stats.hpp"
#include "louvain/coarsen.hpp"
#include "louvain/modularity.hpp"
#include "louvain/serial.hpp"
#include "louvain/shared.hpp"
#include "louvain/vertex_follow.hpp"
#include "quality/fscore.hpp"

namespace core = dlouvain::core;
namespace dg = dlouvain::graph;
namespace gen = dlouvain::gen;
namespace dl = dlouvain::louvain;
namespace dc = dlouvain::comm;
using dlouvain::CommunityId;
using dlouvain::Edge;
using dlouvain::Rank;
using dlouvain::VertexId;

namespace {

/// Validate a distributed coloring: gather per-rank colors and check no edge
/// is monochromatic.
void expect_valid_coloring(const dg::Csr& global, int p, std::uint64_t seed,
                           std::int64_t* num_colors_out = nullptr,
                           int* rounds_out = nullptr) {
  std::vector<std::int64_t> full(static_cast<std::size_t>(global.num_vertices()), -1);
  std::int64_t num_colors = 0;
  int rounds = 0;
  dc::run(p, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, global);
    const auto coloring = core::distance1_coloring(comm, dist, seed);
    const auto gathered = comm.gatherv<std::int64_t>(coloring.color, 0);
    if (comm.rank() == 0) {
      // Even-edge partitions keep rank order == id order, so the gather is
      // already aligned with global ids.
      std::copy(gathered.begin(), gathered.end(), full.begin());
      num_colors = coloring.num_colors;
      rounds = coloring.rounds;
    }
  });
  for (const auto c : full) EXPECT_GE(c, 0) << "uncolored vertex escaped";
  for (VertexId v = 0; v < global.num_vertices(); ++v) {
    for (const auto& e : global.neighbors(v)) {
      if (e.dst == v) continue;
      EXPECT_NE(full[static_cast<std::size_t>(v)], full[static_cast<std::size_t>(e.dst)])
          << "edge " << v << "-" << e.dst << " is monochromatic";
    }
  }
  if (num_colors_out) *num_colors_out = num_colors;
  if (rounds_out) *rounds_out = rounds;
}

}  // namespace

// ---- Distance-1 coloring -----------------------------------------------------

TEST(ColoringSerial, GreedyIsValidAndTight) {
  const auto graph = gen::clique_chain(5, 4);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto result = core::distance1_coloring_serial(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (const auto& e : g.neighbors(v)) {
      if (e.dst != v) {
        EXPECT_NE(result.color[static_cast<std::size_t>(v)],
                  result.color[static_cast<std::size_t>(e.dst)]);
      }
    }
  // A clique of 4 needs exactly 4 colors; greedy on clique chains hits that.
  EXPECT_GE(result.num_colors, 4);
  EXPECT_LE(result.num_colors, 5);
}

class ColoringAtP : public ::testing::TestWithParam<int> {};

TEST_P(ColoringAtP, ValidOnCliqueChain) {
  const auto graph = gen::clique_chain(6, 5);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  std::int64_t colors = 0;
  expect_valid_coloring(g, GetParam(), 1, &colors);
  EXPECT_GE(colors, 5);  // clique of 5 forces >= 5 colors
}

TEST_P(ColoringAtP, ValidOnIrregularGraph) {
  gen::LfrParams params;
  params.num_vertices = 300;
  params.avg_degree = 10;
  params.max_degree = 30;
  params.mu = 0.3;
  const auto graph = gen::lfr(params);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  std::int64_t colors = 0;
  int rounds = 0;
  expect_valid_coloring(g, GetParam(), 7, &colors, &rounds);
  EXPECT_GT(colors, 0);
  EXPECT_GT(rounds, 0);
  // Jones-Plassmann color count stays near the degree bound.
  const auto stats = dg::degree_stats(g);
  EXPECT_LE(colors, stats.max_degree + 1);
}

TEST_P(ColoringAtP, RankCountDoesNotChangeColors) {
  // The priority function is stateless, so the coloring is a pure function
  // of (graph, seed) regardless of distribution.
  const auto graph = gen::clique_chain(6, 4);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);

  auto run_at = [&](int p) {
    std::vector<std::int64_t> full(static_cast<std::size_t>(g.num_vertices()));
    dc::run(p, [&](dc::Comm& comm) {
      const auto dist = dg::DistGraph::from_replicated(comm, g);
      const auto coloring = core::distance1_coloring(comm, dist, 99);
      const auto gathered = comm.gatherv<std::int64_t>(coloring.color, 0);
      if (comm.rank() == 0) std::copy(gathered.begin(), gathered.end(), full.begin());
    });
    return full;
  };
  const auto at1 = run_at(1);
  EXPECT_EQ(at1, run_at(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, ColoringAtP, ::testing::Values(1, 2, 3, 4));

TEST(ColoredLouvain, MatchesQualityAndStaysExact) {
  gen::Ssca2Params params;
  params.num_vertices = 500;
  params.max_clique_size = 20;
  const auto graph = gen::ssca2(params);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);

  core::DistConfig cfg;
  cfg.use_coloring = true;
  const auto colored = core::dist_louvain_inprocess(3, g, cfg);
  const auto baseline = core::dist_louvain_inprocess(3, g);

  EXPECT_NEAR(colored.modularity, dl::modularity(g, colored.community), 1e-9);
  EXPECT_GT(colored.modularity, baseline.modularity - 0.02);
}

TEST(ColoredLouvain, WorksWithEtVariant) {
  const auto graph = gen::clique_chain(8, 5);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  auto cfg = core::DistConfig::et(0.25);
  cfg.use_coloring = true;
  const auto result = core::dist_louvain_inprocess(2, g, cfg);
  EXPECT_EQ(result.num_communities, 8);
}

// ---- Vertex following ---------------------------------------------------------

TEST(VertexFollow, LeavesFollowTheirHub) {
  // Star: hub 0 with 5 leaves.
  std::vector<Edge> edges;
  for (VertexId v = 1; v <= 5; ++v) edges.push_back({0, v, 1.0});
  const auto g = dg::from_edges(6, edges);
  const auto assignment = dl::vertex_follow_assignment(g);
  for (VertexId v = 1; v <= 5; ++v) EXPECT_EQ(assignment[static_cast<std::size_t>(v)], 0);
  EXPECT_EQ(assignment[0], 0);
  EXPECT_EQ(dl::followed_count(assignment), 5);
}

TEST(VertexFollow, MutualPairCollapsesToSmallerId) {
  const auto g = dg::from_edges(4, {{2, 3, 1.0}, {0, 1, 1.0}});
  const auto assignment = dl::vertex_follow_assignment(g);
  EXPECT_EQ(assignment[0], 0);
  EXPECT_EQ(assignment[1], 0);
  EXPECT_EQ(assignment[2], 2);
  EXPECT_EQ(assignment[3], 2);
}

TEST(VertexFollow, InteriorVerticesUntouched) {
  const auto graph = gen::clique_chain(4, 4);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto assignment = dl::vertex_follow_assignment(g);
  EXPECT_EQ(dl::followed_count(assignment), 0);  // min degree is 3
}

TEST(VertexFollow, PreservesModularityArithmetic) {
  // Coarsening by the follow assignment must keep total weight and degrees.
  std::vector<Edge> edges{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {2, 3, 1}};  // pendant 3
  const auto g = dg::from_edges(4, edges);
  const auto assignment = dl::vertex_follow_assignment(g);
  EXPECT_EQ(assignment[3], 2);
  const auto pre = dl::coarsen(g, assignment);
  EXPECT_EQ(pre.graph.num_vertices(), 3);
  EXPECT_DOUBLE_EQ(pre.graph.total_arc_weight(), g.total_arc_weight());
}

TEST(VertexFollow, SerialLouvainWithVfMatchesWithout) {
  // LFR graphs have no degree-1 vertices by construction; add pendants.
  gen::LfrParams params;
  params.num_vertices = 300;
  params.avg_degree = 10;
  params.max_degree = 30;
  params.mu = 0.2;
  auto graph = gen::lfr(params);
  // Attach 30 pendant vertices.
  const VertexId base = graph.num_vertices;
  for (VertexId i = 0; i < 30; ++i)
    graph.edges.push_back({i * 7 % base, base + i, 1.0});
  graph.num_vertices += 30;
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);

  dl::LouvainConfig plain;
  dl::LouvainConfig with_vf;
  with_vf.vertex_following = true;
  const auto a = dl::louvain_serial(g, plain);
  const auto b = dl::louvain_serial(g, with_vf);
  EXPECT_EQ(b.community.size(), static_cast<std::size_t>(g.num_vertices()));
  EXPECT_NEAR(b.modularity, a.modularity, 0.02);
  // Reported modularity must match the expanded assignment.
  EXPECT_NEAR(dl::modularity(g, b.community), b.modularity, 1e-9);
}

TEST(VertexFollow, SharedLouvainWithVfRuns) {
  std::vector<Edge> edges;
  for (VertexId c = 0; c < 5; ++c) {
    const VertexId base = c * 6;
    for (VertexId i = 0; i < 5; ++i)
      for (VertexId j = i + 1; j < 5; ++j) edges.push_back({base + i, base + j, 1.0});
    edges.push_back({base, base + 5, 1.0});  // pendant per clique
    if (c > 0) edges.push_back({base - 6, base, 1.0});
  }
  const auto g = dg::from_edges(30, edges);
  dl::LouvainConfig cfg;
  cfg.vertex_following = true;
  const auto result = dl::louvain_shared(g, cfg);
  EXPECT_EQ(result.num_communities, 5);
  // Each pendant lands with its clique.
  for (VertexId c = 0; c < 5; ++c)
    EXPECT_EQ(result.community[static_cast<std::size_t>(c * 6 + 5)],
              result.community[static_cast<std::size_t>(c * 6)]);
}

// ---- Graph statistics ----------------------------------------------------------

TEST(GraphStats, DegreeStatsOnKnownGraph) {
  const auto graph = gen::clique_chain(3, 4);  // degrees 3 or 4 (bridge ends)
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto stats = dg::degree_stats(g);
  EXPECT_EQ(stats.min_degree, 3);
  EXPECT_EQ(stats.max_degree, 4);  // bridge endpoints gain one over clique degree
  EXPECT_EQ(stats.isolated_vertices, 0);
  EXPECT_EQ(stats.self_loops, 0);
  EXPECT_DOUBLE_EQ(stats.total_weight_2m, g.total_arc_weight());
  VertexId histogram_total = 0;
  for (const auto b : stats.log2_histogram) histogram_total += b;
  EXPECT_EQ(histogram_total, g.num_vertices());
}

TEST(GraphStats, ClusteringCoefficientExtremes) {
  // A clique has coefficient 1; a star has 0.
  const auto clique = gen::clique_chain(1, 6);
  EXPECT_DOUBLE_EQ(
      dg::mean_clustering_coefficient(dg::from_edges(clique.num_vertices, clique.edges)),
      1.0);
  std::vector<Edge> star;
  for (VertexId v = 1; v < 8; ++v) star.push_back({0, v, 1.0});
  EXPECT_DOUBLE_EQ(dg::mean_clustering_coefficient(dg::from_edges(8, star)), 0.0);
}

TEST(GraphStats, SerialComponentsCountsCorrectly) {
  // Two triangles, one isolated vertex: 3 components.
  const auto g = dg::from_edges(
      7, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 1}, {4, 5, 1}, {3, 5, 1}});
  const auto result = dg::connected_components(g);
  EXPECT_EQ(result.count, 3);
  EXPECT_EQ(result.component[0], result.component[2]);
  EXPECT_EQ(result.component[3], result.component[5]);
  EXPECT_NE(result.component[0], result.component[3]);
  EXPECT_EQ(result.component[6], 6);
}

// ---- Distributed connected components -------------------------------------------

class DistComponentsAtP : public ::testing::TestWithParam<int> {};

TEST_P(DistComponentsAtP, MatchesSerialUnionFind) {
  const int p = GetParam();
  const auto graph = gen::erdos_renyi(150, 0.012, 5);  // sparse -> several comps
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto serial = dg::connected_components(g);

  std::vector<VertexId> full(static_cast<std::size_t>(g.num_vertices()));
  VertexId count = 0;
  dc::run(p, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    const auto result = core::dist_connected_components(comm, dist);
    const auto gathered = comm.gatherv<VertexId>(result.component, 0);
    if (comm.rank() == 0) {
      std::copy(gathered.begin(), gathered.end(), full.begin());
      count = result.count;
    }
  });
  EXPECT_EQ(count, serial.count);
  EXPECT_EQ(full, serial.component);
}

TEST_P(DistComponentsAtP, SingleComponentOnSsca2) {
  const int p = GetParam();
  gen::Ssca2Params params;
  params.num_vertices = 400;
  params.max_clique_size = 15;
  const auto graph = gen::ssca2(params);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  dc::run(p, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    const auto result = core::dist_connected_components(comm, dist);
    EXPECT_EQ(result.count, 1);  // chain bridges guarantee connectivity
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, DistComponentsAtP, ::testing::Values(1, 2, 3, 4));

// ---- Neighborhood collectives -----------------------------------------------------

TEST(NeighborCollectives, RoutesOverSparseTopology) {
  // Ring topology: rank r talks to r-1 and r+1 only.
  dc::run(4, [](dc::Comm& comm) {
    const int p = comm.size();
    std::vector<Rank> neighbors{static_cast<Rank>((comm.rank() + p - 1) % p),
                                static_cast<Rank>((comm.rank() + 1) % p)};
    std::sort(neighbors.begin(), neighbors.end());
    std::vector<std::vector<int>> outbox(2);
    for (std::size_t i = 0; i < 2; ++i)
      outbox[i] = {comm.rank() * 10 + neighbors[i]};
    const auto inbox = comm.neighbor_alltoallv<int>(neighbors, std::move(outbox));
    for (std::size_t i = 0; i < 2; ++i) {
      ASSERT_EQ(inbox[i].size(), 1u);
      EXPECT_EQ(inbox[i][0], neighbors[i] * 10 + comm.rank());
    }
  });
}

TEST(NeighborCollectives, RejectsSelfInNeighborList) {
  dc::run(2, [](dc::Comm& comm) {
    std::vector<Rank> bad{comm.rank()};
    std::vector<std::vector<int>> outbox(1);
    EXPECT_THROW((void)comm.neighbor_alltoallv<int>(bad, std::move(outbox)),
                 std::logic_error);
  });
}

TEST(NeighborCollectives, GhostExchangeSendsOneMessagePerNeighborRank) {
  // A banded graph over 8 ranks: each rank borders only a few others. The
  // ghost exchange's topology must be exactly the owners of this rank's
  // ghosts (recomputed here from the edge list under the partition), and
  // one exchange must cost exactly one message per neighbouring rank.
  const auto graph = gen::banded(400, 3);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  dc::run(8, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    const auto& part = dist.partition();
    std::set<Rank> owners;
    for (const auto& e : graph.edges) {
      const Rank ru = part.owner(e.src);
      const Rank rv = part.owner(e.dst);
      if (ru == comm.rank() && rv != comm.rank()) owners.insert(rv);
      if (rv == comm.rank() && ru != comm.rank()) owners.insert(ru);
    }
    const auto& neighbors = dist.neighbor_ranks();
    EXPECT_EQ(std::vector<Rank>(owners.begin(), owners.end()), neighbors);
    EXPECT_LT(neighbors.size(), static_cast<std::size_t>(comm.size() - 1));

    auto ghosts = core::GhostCommunities(dist);
    std::vector<CommunityId> owned(static_cast<std::size_t>(dist.local_count()));
    for (VertexId lv = 0; lv < dist.local_count(); ++lv)
      owned[static_cast<std::size_t>(lv)] = dist.to_global(lv);
    const auto before = comm.counters()[dlouvain::util::Counter::kMessages];
    ghosts.exchange(comm, owned);
    EXPECT_EQ(comm.counters()[dlouvain::util::Counter::kMessages] - before,
              static_cast<std::int64_t>(neighbors.size()));
  });
}

// ---- Quality gather (Section V-D mode) ----------------------------------------------

TEST(QualityGather, PerPhaseAssignmentsTrackConvergence) {
  gen::LfrParams params;
  params.num_vertices = 400;
  params.avg_degree = 14;
  params.max_degree = 42;
  params.mu = 0.15;
  const auto graph = gen::lfr(params);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);

  core::DistConfig cfg;
  cfg.gather_quality = true;
  core::DistResult root_result;
  dc::run(3, [&](dc::Comm& comm) {
    auto dist = dg::DistGraph::from_replicated(comm, g);
    auto r = core::dist_louvain(comm, dist, cfg);
    if (comm.rank() == 0) root_result = std::move(r);
  });

  ASSERT_EQ(root_result.phase_assignments.size(),
            static_cast<std::size_t>(root_result.phases));
  for (const auto& assignment : root_result.phase_assignments)
    EXPECT_EQ(assignment.size(), static_cast<std::size_t>(g.num_vertices()));

  // Per-phase modularity (computed from the gathered assignments) must be
  // non-decreasing and end at the final result.
  double prev = -1;
  for (const auto& assignment : root_result.phase_assignments) {
    const double q = dl::modularity(g, assignment);
    EXPECT_GE(q + 1e-9, prev);
    prev = q;
  }
  EXPECT_NEAR(prev, root_result.modularity, 1e-9);

  // And F-score against ground truth improves (or holds) across phases.
  const auto first = dlouvain::quality::compare_to_ground_truth(
      root_result.phase_assignments.front(), graph.ground_truth);
  const auto last = dlouvain::quality::compare_to_ground_truth(
      root_result.phase_assignments.back(), graph.ground_truth);
  EXPECT_GE(last.f_score + 0.05, first.f_score);
}

TEST(QualityGather, DisabledByDefault) {
  const auto g = dg::from_edges(4, {{0, 1, 1}, {2, 3, 1}});
  const auto result = core::dist_louvain_inprocess(2, g);
  EXPECT_TRUE(result.phase_assignments.empty());
}
