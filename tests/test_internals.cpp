// Direct unit tests for the distributed Louvain's internal machinery:
// CommunityLedger (authoritative community info + delta protocol),
// GhostField (mirror-push exchange), DistGraph::validate, and the
// distributed binary writer -- exercised in isolation rather than through
// full Louvain runs.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <utility>
#include <vector>

#include "comm/world.hpp"
#include "core/community_state.hpp"
#include "core/ghost_exchange.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/binary_io.hpp"
#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "util/metrics.hpp"

namespace core = dlouvain::core;
namespace dg = dlouvain::graph;
namespace gen = dlouvain::gen;
namespace dc = dlouvain::comm;
using dlouvain::CommunityId;
using dlouvain::Edge;
using dlouvain::VertexId;
using dlouvain::Weight;

namespace {

dg::Csr path_graph(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, 1.0});
  return dg::from_edges(n, edges);
}

}  // namespace

// ---- GhostField ---------------------------------------------------------------

TEST(GhostField, IdentityInitHoldsGhostIds) {
  const auto g = path_graph(8);
  dc::run(4, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    const auto field = core::GhostField<VertexId>::identity(dist);
    for (const VertexId ghost : dist.ghosts()) EXPECT_EQ(field.of(ghost), ghost);
  });
}

TEST(GhostField, FillInitHoldsFillValue) {
  const auto g = path_graph(8);
  dc::run(4, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    const core::GhostField<std::int64_t> field(dist, -7);
    for (const VertexId ghost : dist.ghosts()) EXPECT_EQ(field.of(ghost), -7);
  });
}

TEST(GhostField, ExchangePropagatesOwnedValues) {
  const auto g = path_graph(10);
  dc::run(3, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    // Owned value = 1000 + global id.
    std::vector<std::int64_t> owned(static_cast<std::size_t>(dist.local_count()));
    for (VertexId lv = 0; lv < dist.local_count(); ++lv)
      owned[static_cast<std::size_t>(lv)] = 1000 + dist.to_global(lv);
    core::GhostField<std::int64_t> field(dist, 0);
    field.exchange(comm, owned);
    for (const VertexId ghost : dist.ghosts()) EXPECT_EQ(field.of(ghost), 1000 + ghost);
  });
}

TEST(GhostField, AtThrowsForNonGhost) {
  const auto g = path_graph(6);
  dc::run(2, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    const core::GhostField<std::int64_t> field(dist, 0);
    // An owned vertex is never a ghost; the checked accessor reports it.
    EXPECT_THROW((void)field.at(dist.v_begin()), std::out_of_range);
  });
}

namespace {

// Oracle for the one wire format: owned values are a known function of
// (global id, epoch), so every ghost slot, every change-log entry and every
// shipped record after each round follows from the graph alone -- no second
// exchange implementation to agree with.
std::int64_t oracle_value(VertexId gv, int epoch) {
  return gv % (epoch + 2) == 0 ? 1000 * (epoch + 1) + gv : gv;
}

void check_exchange_against_oracle(const dg::Csr& g, int ranks, const dc::RunOptions& options) {
  // Epoch per round: round 3 repeats round 2's values (a no-change round),
  // round 5 reverts to round 0's.
  const std::vector<int> epochs{0, 1, 2, 2, 3, 0};
  constexpr std::int64_t kFill = -1;  // differs from every oracle value
  dc::run(
      ranks,
      [&](dc::Comm& comm) {
        const auto dist = dg::DistGraph::from_replicated(comm, g);
        core::GhostField<std::int64_t> field(dist, kFill);
        std::vector<std::int64_t> owned(static_cast<std::size_t>(dist.local_count()));
        for (std::size_t round = 0; round < epochs.size(); ++round) {
          const int epoch = epochs[round];
          const auto before = [&](VertexId gv) {
            return round == 0 ? kFill : oracle_value(gv, epochs[round - 1]);
          };
          for (VertexId lv = 0; lv < dist.local_count(); ++lv)
            owned[static_cast<std::size_t>(lv)] = oracle_value(dist.to_global(lv), epoch);

          // Records this rank must ship: mirrored owned entries whose value
          // changed, once per ghosting rank.
          std::int64_t expected_records = 0;
          for (const auto& mirror_list : dist.mirrors()) {
            for (const VertexId gv : mirror_list)
              expected_records += oracle_value(gv, epoch) != before(gv) ? 1 : 0;
          }
          const auto bytes0 = comm.counters()[dlouvain::util::Counter::kGhostBytesDelta];
          const auto records0 = comm.counters()[dlouvain::util::Counter::kGhostRecordsShipped];
          field.exchange(comm, owned);
          const auto records =
              comm.counters()[dlouvain::util::Counter::kGhostRecordsShipped] - records0;
          const auto bytes = comm.counters()[dlouvain::util::Counter::kGhostBytesDelta] - bytes0;
          EXPECT_EQ(records, expected_records) << "round " << round;
          EXPECT_EQ(bytes, records * 2 * static_cast<std::int64_t>(sizeof(std::int64_t)))
              << "round " << round;
          if (round == 3) {
            EXPECT_EQ(records, 0);
            EXPECT_EQ(bytes, 0);
          }

          // Slots: every ghost holds the oracle value of its own id.
          const auto& ghosts = dist.ghosts();
          for (std::size_t s = 0; s < ghosts.size(); ++s)
            EXPECT_EQ(field.values()[s], oracle_value(ghosts[s], epoch))
                << "round " << round << " ghost " << ghosts[s];

          // Change log: exactly the slots whose oracle value changed, with
          // the old value, ascending by slot (slots are grouped by owner in
          // rank order, so this is also ascending per owner).
          std::vector<std::pair<std::int64_t, std::int64_t>> expected;
          for (std::size_t s = 0; s < ghosts.size(); ++s) {
            if (oracle_value(ghosts[s], epoch) != before(ghosts[s]))
              expected.emplace_back(static_cast<std::int64_t>(s), before(ghosts[s]));
          }
          std::vector<std::pair<std::int64_t, std::int64_t>> actual;
          for (const auto& change : field.last_changes())
            actual.emplace_back(change.slot, change.old_value);
          EXPECT_EQ(actual, expected) << "round " << round;
        }
      },
      options);
}

dg::Csr rmat7() {
  gen::RmatParams p;
  p.scale = 7;
  p.edges_per_vertex = 8;
  p.seed = 9;
  const auto g = gen::rmat(p);
  return dg::from_edges(g.num_vertices, g.edges);
}

}  // namespace

TEST(GhostField, SlotsAndChangeLogMatchOracleOnPathAndRmat) {
  check_exchange_against_oracle(path_graph(10), 3, {});
  check_exchange_against_oracle(rmat7(), 3, {});
}

TEST(GhostField, SlotsAndChangeLogMatchOracleUnderDelayAndDuplication) {
  dc::RunOptions options;
  options.faults = std::make_shared<dc::FaultInjector>(
      dc::FaultPlan().with_seed(5).delay(0.1, 0.3).duplicate(0.1));
  check_exchange_against_oracle(path_graph(10), 3, options);
  check_exchange_against_oracle(rmat7(), 3, options);
}

// ---- CommunityLedger -------------------------------------------------------------

TEST(CommunityLedger, InitialStateIsSingletons) {
  const auto g = path_graph(6);
  dc::run(2, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    core::CommunityLedger ledger(dist);
    for (VertexId lv = 0; lv < dist.local_count(); ++lv) {
      const VertexId gv = dist.to_global(lv);
      EXPECT_EQ(ledger.info(gv).size, 1);
      EXPECT_DOUBLE_EQ(ledger.info(gv).degree, dist.weighted_degree(gv));
    }
  });
}

TEST(CommunityLedger, LocalMoveUpdatesBothSides) {
  const auto g = path_graph(6);
  dc::run(1, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    core::CommunityLedger ledger(dist);
    // Move vertex 0 (degree 1) from community 0 to community 1.
    ledger.apply_move(0, 1, dist.weighted_degree(0));
    EXPECT_EQ(ledger.info(0).size, 0);
    EXPECT_DOUBLE_EQ(ledger.info(0).degree, 0.0);
    EXPECT_EQ(ledger.info(1).size, 2);
    EXPECT_DOUBLE_EQ(ledger.info(1).degree,
                     dist.weighted_degree(0) + dist.weighted_degree(1));
  });
}

TEST(CommunityLedger, RemoteMoveFlowsThroughDeltas) {
  // Path 0-1-2-3 over 2 ranks: rank 0 owns {0,1}, rank 1 owns {2,3}
  // (even-vertex partition). Rank 0 moves vertex 1 into community 2 (owned
  // by rank 1); after flush, rank 1's ledger must reflect it.
  const auto g = path_graph(4);
  dc::run(2, [&](dc::Comm& comm) {
    const auto dist =
        dg::DistGraph::from_replicated(comm, g, dg::PartitionKind::kEvenVertices);
    core::CommunityLedger ledger(dist);

    // Both ranks retain their ghost communities and refresh, so rank 0 has
    // community 2 in its ghost cache.
    for (const auto ghost : dist.ghosts()) ledger.retain(ghost);
    ledger.refresh(comm);

    if (comm.rank() == 0) {
      ledger.apply_move(1, 2, dist.weighted_degree(1));
      // The cached ghost copy updates immediately...
      EXPECT_EQ(ledger.info(2).size, 2);
    }
    ledger.flush_deltas(comm);
    if (comm.rank() == 1) {
      // ...and the authoritative copy after the flush.
      EXPECT_EQ(ledger.info(2).size, 2);
      EXPECT_DOUBLE_EQ(ledger.info(2).degree, 2.0 + 2.0);  // k_2 + k_1, both interior
    }
  });
}

TEST(CommunityLedger, SurvivorCountTracksEmptiedCommunities) {
  const auto g = path_graph(4);
  dc::run(1, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    core::CommunityLedger ledger(dist);
    EXPECT_EQ(ledger.owned_survivors(), 4);
    ledger.apply_move(0, 1, dist.weighted_degree(0));
    ledger.apply_move(3, 2, dist.weighted_degree(3));
    EXPECT_EQ(ledger.owned_survivors(), 2);
  });
}

TEST(CommunityLedger, DegreeTermMatchesDefinition) {
  const auto g = path_graph(5);
  dc::run(1, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    core::CommunityLedger ledger(dist);
    // Singletons: sum k^2 = 1 + 4 + 4 + 4 + 1.
    EXPECT_DOUBLE_EQ(ledger.owned_degree_term(), 14.0);
  });
}

TEST(CommunityLedger, MoveToUncachedCommunityThrows) {
  const auto g = path_graph(6);
  dc::run(2, [&](dc::Comm& comm) {
    const auto dist =
        dg::DistGraph::from_replicated(comm, g, dg::PartitionKind::kEvenVertices);
    core::CommunityLedger ledger(dist);
    // No refresh performed: a move touching a remote community must throw
    // (protocol bug detector).
    const VertexId mine = dist.v_begin();
    const VertexId remote = comm.rank() == 0 ? 5 : 0;
    EXPECT_THROW(ledger.apply_move(mine, remote, 1.0), std::out_of_range);
  });
}

// ---- DistGraph::validate -----------------------------------------------------------

TEST(DistGraphValidate, PassesOnWellFormedGraphs) {
  const auto graph = gen::clique_chain(5, 4);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  for (int p : {1, 2, 3, 4}) {
    dc::run(p, [&](dc::Comm& comm) {
      const auto dist = dg::DistGraph::from_replicated(comm, g);
      EXPECT_NO_THROW(dist.validate(comm));
    });
  }
}

TEST(DistGraphValidate, CatchesAsymmetricArcs) {
  dc::run(2, [](dc::Comm& comm) {
    // Hand-build an ASYMMETRIC distributed graph: only rank 0 contributes
    // the arc 0->3, no reverse. build() with symmetrize=false keeps it.
    const auto part = dg::partition_even_vertices(4, 2);
    std::vector<Edge> arcs;
    if (comm.rank() == 0) arcs.push_back({0, 3, 1.0});
    const auto dist = dg::DistGraph::build(comm, part, std::move(arcs), false);
    EXPECT_THROW(dist.validate(comm), std::logic_error);
  });
}

// ---- Distributed binary writer ---------------------------------------------------

TEST(WriteDistributed, RoundTripsThroughTheFileFormat) {
  const auto graph = gen::clique_chain(6, 5);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto path = std::filesystem::temp_directory_path() / "dlel_distwrite.bin";

  for (int p : {1, 2, 3}) {
    dc::run(p, [&](dc::Comm& comm) {
      const auto dist = dg::DistGraph::from_replicated(comm, g);
      dg::write_distributed(comm, dist, path.string());
      comm.barrier();
      // Reload and compare global invariants.
      const auto reloaded = dg::load_distributed(comm, path.string());
      EXPECT_EQ(reloaded.global_n(), g.num_vertices());
      EXPECT_EQ(reloaded.global_arcs(), g.num_arcs());
      EXPECT_DOUBLE_EQ(reloaded.total_weight(), g.total_arc_weight());
      EXPECT_NO_THROW(reloaded.validate(comm));
    });
    // Header says each undirected edge exactly once.
    const auto header = dg::read_binary_header(path.string());
    EXPECT_EQ(header.num_edges, g.num_arcs() / 2) << "p=" << p;
    std::filesystem::remove(path);
  }
}

TEST(WriteDistributed, PreservesWeightsAndSelfLoops) {
  // Graph with a self loop and non-unit weights.
  dg::BuildOptions opts;
  const auto g = dg::build_csr(3, {{0, 0, 2.5}, {0, 1, 1.5}, {1, 2, 3.0}}, opts);
  const auto path = std::filesystem::temp_directory_path() / "dlel_weights.bin";
  dc::run(2, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    dg::write_distributed(comm, dist, path.string());
    const auto reloaded = dg::load_distributed(comm, path.string());
    EXPECT_DOUBLE_EQ(reloaded.total_weight(), g.total_arc_weight());
  });
  std::filesystem::remove(path);
}
