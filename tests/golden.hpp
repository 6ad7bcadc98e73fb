// The PR 3 golden constants: fixed-seed results pinned bit for bit, shared
// by every test that asserts a run against them.
//
// To regenerate after an INTENDED algorithmic change: run each Plan named
// beside a constant and print util::crc32 of the community vector plus
// std::bit_cast<uint64_t> of the modularity.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "dlouvain.hpp"
#include "gen/rmat.hpp"
#include "graph/csr.hpp"
#include "util/crc32.hpp"

namespace dlouvain::golden {

/// The RMAT graph the constants were captured on: scale 10, 8 edges per
/// vertex, graph seed 42.
inline graph::Csr rmat10() {
  gen::RmatParams p;
  p.scale = 10;
  p.edges_per_vertex = 8;
  p.seed = 42;
  const auto g = gen::rmat(p);
  return graph::from_edges(g.num_vertices, g.edges);
}

inline std::uint32_t crc_of(const std::vector<CommunityId>& v) {
  return util::crc32(v.data(), v.size() * sizeof(CommunityId));
}

struct Golden {
  std::uint64_t modularity_bits;
  std::uint32_t community_crc;
  CommunityId num_communities;
  int phases;
  long iterations;
};

inline void expect_golden(const Result& r, const Golden& want, const std::string& label) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.modularity), want.modularity_bits) << label;
  EXPECT_EQ(crc_of(r.community), want.community_crc) << label;
  EXPECT_EQ(r.num_communities, want.num_communities) << label;
  EXPECT_EQ(r.phases, want.phases) << label;
  EXPECT_EQ(r.total_iterations, want.iterations) << label;
}

// Captured from the pre-PR3 implementation (RMAT scale 10, epv 8, graph seed
// 42; SSCA2 n=2000 clique 25 p=0.01; all plans .seed(123)).
constexpr Golden kSerialRmat{0x3fc65df4311c433eULL, 0x56659c72u, 224, 5, 18};
constexpr Golden kSharedRmat{0x3fc6f6ff9929a4ecULL, 0x95eddb9cu, 225, 4, 21};
constexpr Golden kDistP1Rmat{0x3fc68495206dc15cULL, 0xe8144548u, 225, 4, 20};
// Re-baselined once for the interior-first sweep order (interior vertices
// before boundary, interior decisions before the community-info refresh),
// which reorders the multi-rank sweep. p=1 constants above are untouched --
// on one rank every vertex is interior and the order is the seed's.
constexpr Golden kDistP4Rmat{0x3fc41f2c83fa1be6ULL, 0xa7beaffcu, 223, 5, 22};
constexpr Golden kDistP4Ssca{0x3fef5fedcefcb7b3ULL, 0x271ea84au, 92, 4, 10};
constexpr Golden kDistP4EtcRmat{0x3fc5320bfcf4eeb4ULL, 0x2893ab57u, 225, 5, 25};
constexpr Golden kDistP2TcRmat{0x3fc65be14dc1851fULL, 0x158f0e83u, 226, 5, 21};

}  // namespace dlouvain::golden
