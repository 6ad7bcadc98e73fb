// Tests for the per-rank threading layer (util/parallel.hpp) and the
// determinism contract it promises: every engine returns the same community
// vector and the SAME MODULARITY BITS at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "dlouvain.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/csr.hpp"
#include "louvain/shared.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dlouvain;

// ---------------------------------------------------------------------------
// ThreadPool / parallel_for

TEST(ThreadPool, CallerParticipatesAsThreadZero) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  std::vector<int> hits(3, 0);
  pool.run([&](int tid) { hits[static_cast<std::size_t>(tid)] += 1; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ThreadPool, NonPositiveThreadsPicksHardwareConcurrency) {
  util::ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  util::ThreadPool pool(2);
  EXPECT_THROW(
      pool.run([](int) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  // The pool must survive a throwing job.
  std::atomic<int> ran{0};
  pool.run([&](int) { ++ran; });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ParallelFor, ZeroItemsNeverInvokesBody) {
  util::ThreadPool pool(4);
  bool called = false;
  util::parallel_for(&pool, 0, [&](int, std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, CoversEachIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 7}) {
    util::ThreadPool pool(threads);
    for (const std::int64_t n : {1, 2, 3, 5, 64, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      for (auto& h : hits) h = 0;
      util::parallel_for(&pool, n, [&](int, std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i)
          ++hits[static_cast<std::size_t>(i)];
      });
      for (std::int64_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
    }
  }
}

TEST(ParallelFor, NullPoolRunsInline) {
  std::int64_t sum = 0;
  util::parallel_for(nullptr, 10, [&](int tid, std::int64_t begin, std::int64_t end) {
    EXPECT_EQ(tid, 0);
    for (std::int64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 45);
}

// ---------------------------------------------------------------------------
// fixed_chunk / tree_reduce / parallel_reduce

TEST(FixedChunk, PartitionsTheRangeExactly) {
  for (const std::int64_t n : {0, 1, 5, 63, 64, 65, 1000}) {
    std::int64_t expect_begin = 0;
    for (std::int64_t c = 0; c < util::kReduceChunks; ++c) {
      const auto [begin, end] = util::fixed_chunk(n, c, util::kReduceChunks);
      EXPECT_EQ(begin, expect_begin) << "n=" << n << " c=" << c;
      EXPECT_GE(end, begin);
      expect_begin = end;
    }
    EXPECT_EQ(expect_begin, n);
  }
}

TEST(TreeReduce, HandlesEmptyAndSingle) {
  EXPECT_EQ(util::tree_reduce({}), 0.0);
  const double one[] = {42.5};
  EXPECT_EQ(util::tree_reduce(one), 42.5);
}

TEST(TreeReduce, SumsEveryElement) {
  std::vector<double> values(static_cast<std::size_t>(util::kReduceChunks));
  std::iota(values.begin(), values.end(), 1.0);
  // Integers up to 64 sum exactly in doubles regardless of association.
  EXPECT_EQ(util::tree_reduce(values), 64.0 * 65.0 / 2.0);
}

TEST(ParallelReduce, BitwiseIdenticalAcrossThreadCounts) {
  // Values chosen so the sum is association-sensitive: a naive left fold and
  // a chunked fold genuinely differ in the last bits, which is exactly what
  // the fixed chunking must hide from the thread count.
  const std::int64_t n = 10007;
  const auto partial = [&](std::int64_t begin, std::int64_t end) {
    double s = 0;
    for (std::int64_t i = begin; i < end; ++i)
      s += 1.0 / (1.0 + static_cast<double>(i) * 1.618033988749895);
    return s;
  };
  util::ThreadPool p1(1);
  const double ref = util::parallel_reduce(&p1, n, partial);
  for (const int threads : {2, 3, 4, 8}) {
    util::ThreadPool pool(threads);
    const double got = util::parallel_reduce(&pool, n, partial);
    EXPECT_EQ(got, ref) << "threads=" << threads;  // bitwise, not near
  }
  EXPECT_EQ(util::parallel_reduce(nullptr, n, partial), ref);
  EXPECT_EQ(util::parallel_reduce(&p1, 0, partial), 0.0);
}

// ---------------------------------------------------------------------------
// parse_variant

TEST(ParseVariant, AcceptsTheCliTokens) {
  EXPECT_EQ(core::parse_variant("baseline"), core::Variant::kBaseline);
  EXPECT_EQ(core::parse_variant("tc"), core::Variant::kThresholdCycling);
  EXPECT_EQ(core::parse_variant("threshold-cycling"), core::Variant::kThresholdCycling);
  EXPECT_EQ(core::parse_variant("et"), core::Variant::kEt);
  EXPECT_EQ(core::parse_variant("etc"), core::Variant::kEtc);
}

TEST(ParseVariant, IsCaseInsensitive) {
  EXPECT_EQ(core::parse_variant("ETC"), core::Variant::kEtc);
  EXPECT_EQ(core::parse_variant("Baseline"), core::Variant::kBaseline);
}

TEST(ParseVariant, RejectsUnknownNames) {
  EXPECT_EQ(core::parse_variant(""), std::nullopt);
  EXPECT_EQ(core::parse_variant("et(0.25)"), std::nullopt);
  EXPECT_EQ(core::parse_variant("leiden"), std::nullopt);
}

// ---------------------------------------------------------------------------
// Engine determinism: the tentpole acceptance criterion. Same community
// vector, bitwise-identical modularity, at every thread count.

graph::Csr unstructured_graph() {
  gen::RmatParams params;
  params.scale = 7;  // 128 vertices -- small enough for a 1-core CI box
  params.edges_per_vertex = 8;
  params.seed = 99;
  const auto g = gen::rmat(params);
  return graph::from_edges(g.num_vertices, g.edges);
}

TEST(Determinism, SharedEngineIsThreadCountInvariant) {
  const auto g = unstructured_graph();
  louvain::LouvainConfig cfg;
  const auto ref = louvain::louvain_shared(g, cfg, 1);
  for (const int threads : {2, 4}) {
    const auto got = louvain::louvain_shared(g, cfg, threads);
    EXPECT_EQ(got.community, ref.community) << "threads=" << threads;
    EXPECT_EQ(got.modularity, ref.modularity) << "threads=" << threads;
  }
}

TEST(Determinism, SharedEngineWithEtIsThreadCountInvariant) {
  const auto g = unstructured_graph();
  louvain::LouvainConfig cfg;
  cfg.early_termination = true;
  cfg.et_alpha = 0.25;
  const auto ref = louvain::louvain_shared(g, cfg, 1);
  for (const int threads : {2, 4}) {
    const auto got = louvain::louvain_shared(g, cfg, threads);
    EXPECT_EQ(got.community, ref.community) << "threads=" << threads;
    EXPECT_EQ(got.modularity, ref.modularity) << "threads=" << threads;
  }
}

class DistDeterminism : public ::testing::TestWithParam<std::tuple<int, Variant>> {};

TEST_P(DistDeterminism, ThreadCountNeverChangesTheResult) {
  const auto [ranks, variant] = GetParam();
  const auto g = unstructured_graph();

  const auto plan_for = [&](int threads) {
    return Plan::distributed(ranks).threads(threads).variant(variant).alpha(0.25);
  };
  const auto ref = plan_for(1).run(g);
  for (const int threads : {2, 4}) {
    const auto got = plan_for(threads).run(g);
    EXPECT_EQ(got.community, ref.community)
        << "ranks=" << ranks << " threads=" << threads;
    EXPECT_EQ(got.modularity, ref.modularity)  // bitwise, not near
        << "ranks=" << ranks << " threads=" << threads;
    EXPECT_EQ(got.phases, ref.phases);
    EXPECT_EQ(got.total_iterations, ref.total_iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksTimesVariants, DistDeterminism,
    ::testing::Combine(::testing::Values(1, 4),
                       ::testing::Values(Variant::kBaseline, Variant::kEtc)),
    [](const auto& info) {
      return std::string(std::get<1>(info.param) == Variant::kBaseline ? "baseline"
                                                                       : "etc") +
             "_p" + std::to_string(std::get<0>(info.param));
    });

// ---------------------------------------------------------------------------
// Plan front door sanity

TEST(Plan, AllEnginesAgreeOnObviousStructure) {
  const auto generated = gen::clique_chain(4, 5);
  const auto g = graph::from_edges(generated.num_vertices, generated.edges);
  for (const auto plan :
       {Plan::serial(), Plan::shared(2), Plan::distributed(2).threads(2)}) {
    const auto result = plan.run(g);
    EXPECT_EQ(result.num_communities, 4);
    EXPECT_NEAR(result.modularity, 0.68, 0.03);
    EXPECT_EQ(result.community.size(), 20u);
  }
}

TEST(Plan, MaterializesConfigsFaithfully) {
  const auto plan = Plan::distributed(8)
                        .threads(4)
                        .variant(Variant::kEtc)
                        .alpha(0.125)
                        .threshold(1e-4)
                        .resolution(1.5)
                        .seed(42)
                        .coloring();
  EXPECT_EQ(plan.engine(), Engine::kDistributed);
  EXPECT_EQ(plan.num_ranks(), 8);
  const auto cfg = plan.dist_config();
  EXPECT_EQ(cfg.variant, Variant::kEtc);
  EXPECT_TRUE(cfg.base.early_termination);
  EXPECT_EQ(cfg.base.et_alpha, 0.125);
  EXPECT_EQ(cfg.base.threshold, 1e-4);
  EXPECT_EQ(cfg.base.resolution, 1.5);
  EXPECT_EQ(cfg.base.seed, 42u);
  EXPECT_TRUE(cfg.use_coloring);
  EXPECT_EQ(cfg.threads_per_rank, 4);
}

TEST(Plan, ResultCarriesEngineDetail) {
  const auto generated = gen::clique_chain(3, 4);
  const auto g = graph::from_edges(generated.num_vertices, generated.edges);

  const auto dist = Plan::distributed(2).run(g);
  ASSERT_TRUE(dist.distributed.has_value());
  EXPECT_FALSE(dist.local.has_value());
  EXPECT_GT(dist.distributed->messages, 0);

  const auto serial = Plan::serial().run(g);
  ASSERT_TRUE(serial.local.has_value());
  EXPECT_FALSE(serial.distributed.has_value());
  EXPECT_EQ(serial.engine, Engine::kSerial);
}

}  // namespace
