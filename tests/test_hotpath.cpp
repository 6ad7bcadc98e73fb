// PR3 hot-path overhaul guarantees, pinned as tests:
//
//  * fixed-seed results are BITWISE identical to the pre-overhaul (hash-map
//    kernel, full-refetch ledger, dense-only exchange) implementation --
//    the golden constants in golden.hpp were captured from that
//    implementation;
//  * thread counts 1/4/16 never change a single bit (the PR 1 contract,
//    re-verified on the flat kernels);
//  * the changed-entries-only ghost exchange reproduces the dense-only
//    goldens on both the RMAT and the SSCA#2 graph.
#include <gtest/gtest.h>

#include <string>

#include "dlouvain.hpp"
#include "golden.hpp"
#include "gen/ssca2.hpp"
#include "graph/csr.hpp"

namespace {

using namespace dlouvain;
using namespace dlouvain::golden;

graph::Csr ssca2k() {
  gen::Ssca2Params p;
  p.num_vertices = 2000;
  p.max_clique_size = 25;
  p.inter_clique_prob = 0.01;
  const auto g = gen::ssca2(p);
  return graph::from_edges(g.num_vertices, g.edges);
}

TEST(GoldenSeed, SerialMatchesPreOverhaulBits) {
  expect_golden(Plan::serial().seed(123).run(rmat10()), kSerialRmat, "serial");
}

TEST(GoldenSeed, SharedMatchesAcrossThreadCounts) {
  const auto g = rmat10();
  for (const int threads : {1, 4, 16}) {
    expect_golden(Plan::shared(threads).seed(123).run(g), kSharedRmat,
                  "shared t" + std::to_string(threads));
  }
}

TEST(GoldenSeed, DistributedMatchesAcrossThreadCounts) {
  const auto g = rmat10();
  for (const int threads : {1, 4, 16}) {
    const auto label = " t" + std::to_string(threads);
    expect_golden(Plan::distributed(1).threads(threads).seed(123).run(g),
                  kDistP1Rmat, "dist p1" + label);
    expect_golden(Plan::distributed(4).threads(threads).seed(123).run(g),
                  kDistP4Rmat, "dist p4" + label);
  }
}

TEST(GoldenSeed, DistributedVariantsMatch) {
  const auto g = rmat10();
  expect_golden(Plan::distributed(4)
                    .threads(1)
                    .seed(123)
                    .variant(Variant::kEtc)
                    .alpha(0.25)
                    .run(g),
                kDistP4EtcRmat, "dist p4 etc");
  expect_golden(Plan::distributed(2)
                    .threads(2)
                    .seed(123)
                    .variant(Variant::kThresholdCycling)
                    .run(g),
                kDistP2TcRmat, "dist p2 tc");
}

TEST(GoldenSeed, DistributedP4DefaultRunMatchesRmatAndSsca) {
  expect_golden(Plan::distributed(4).threads(1).seed(123).run(rmat10()), kDistP4Rmat,
                "rmat10");
  expect_golden(Plan::distributed(4).threads(1).seed(123).run(ssca2k()), kDistP4Ssca,
                "ssca2");
}

}  // namespace
