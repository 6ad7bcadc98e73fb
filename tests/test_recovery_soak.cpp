// Recovery-ladder soak tier (`ctest -L recovery_soak`): seeded fault
// scenarios swept across all three rungs of the graduated recovery ladder
// (docs/FAULT_TOLERANCE.md) on an RMAT fixture.
//
// The contract pinned here, matching the PR's acceptance bar:
//   * wire faults at or below the escalation threshold (loss + corruption
//     with a retransmit budget) are absorbed ENTIRELY by rung 1 -- zero
//     whole-run restarts (recovery.attempts == 1), results bitwise-identical
//     to the clean run at every thread count;
//   * a transient crash on top of the lossy wire costs exactly the one
//     restart the crash demands, never more;
//   * a permanent rank death with shrink enabled auto-resumes at p-1 ranks
//     and matches a user-initiated clean p-1 resume bit for bit;
//   * faults ABOVE the threshold escalate loudly instead of spinning.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "comm/fault.hpp"
#include "comm/mailbox.hpp"
#include "dlouvain.hpp"
#include "gen/rmat.hpp"
#include "graph/csr.hpp"

namespace dc = dlouvain::comm;
namespace dg = dlouvain::graph;
namespace gen = dlouvain::gen;

namespace {

dg::Csr soak_graph() {
  gen::RmatParams p;
  p.scale = 8;
  p.edges_per_vertex = 6;
  p.seed = 23;
  const auto g = gen::rmat(p);
  return dg::from_edges(g.num_vertices, g.edges);
}

std::filesystem::path fresh_dir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

TEST(RecoverySoak, WireFaultSweepAbsorbedWithZeroRestarts) {
  // Loss + corruption at the acceptance rate (0.1% per message) across fault
  // seeds and thread counts: every scenario must complete in one attempt
  // with the clean run's exact bits, with rung 1 doing all the work.
  const auto g = soak_graph();
  const int p = 4;
  for (const int threads : {1, 4, 16}) {
    const auto clean = dlouvain::Plan::distributed(p).threads(threads).run(g);
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      const auto noisy = dlouvain::Plan::distributed(p)
                             .threads(threads)
                             .retransmit(8, /*backoff_ms=*/0.2)
                             .inject_faults(dc::FaultPlan()
                                                .with_seed(seed)
                                                .lose(0.001)
                                                .corrupt(0.001))
                             .run(g);
      const auto label = "seed=" + std::to_string(seed) +
                         " threads=" + std::to_string(threads);
      EXPECT_EQ(noisy.recovery.attempts, 1) << label;
      EXPECT_EQ(noisy.community, clean.community) << label;
      EXPECT_EQ(noisy.modularity, clean.modularity) << label;
      EXPECT_EQ(noisy.recovery.escalations, 0) << label;
      // Below the threshold every injected wire fault is repaired by a
      // retransmission, never by a restart.
      EXPECT_GE(noisy.recovery.retransmits,
                noisy.recovery.injected_losses > 0 ? 1 : 0)
          << label;
      EXPECT_EQ(noisy.recovery.shrinks, 0) << label;
    }
  }
}

TEST(RecoverySoak, TransientCrashOnLossyWireCostsExactlyOneRestart) {
  // Rungs 1 and "restart" together: the crash forces one checkpoint resume,
  // the wire faults must still be absorbed silently on BOTH attempts.
  const auto g = soak_graph();
  const int p = 4;
  const auto clean = dlouvain::Plan::distributed(p).run(g);
  const auto dir = fresh_dir("dl_soak_mixed");
  const auto result = dlouvain::Plan::distributed(p)
                          .checkpointing(dir.string())
                          .retransmit(8, /*backoff_ms=*/0.2)
                          .inject_faults(dc::FaultPlan()
                                             .with_seed(5)
                                             .lose(0.001)
                                             .corrupt(0.001)
                                             .crash(2, 1))
                          .max_restarts(1)
                          .run(g);
  EXPECT_EQ(result.recovery.attempts, 2);  // the crash and nothing else
  EXPECT_EQ(result.community, clean.community);
  EXPECT_EQ(result.modularity, clean.modularity);
  EXPECT_EQ(result.recovery.escalations, 0);
  std::filesystem::remove_all(dir);
}

TEST(RecoverySoak, ManifestCarriesTheLadderTelemetry) {
  // The run manifest (schema v3) must expose what the ladder did: the
  // arq.* counter catalog entries and the recovery.ladder section.
  const auto g = soak_graph();
  const auto manifest =
      std::filesystem::temp_directory_path() / "dl_soak_manifest.json";
  std::filesystem::remove(manifest);
  const auto result = dlouvain::Plan::distributed(4)
                          .retransmit(8, /*backoff_ms=*/0.2)
                          .inject_faults(dc::FaultPlan().with_seed(7).lose(0.005))
                          .metrics(manifest.string())
                          .run(g);
  ASSERT_GT(result.recovery.retransmits, 0) << "fixture injected no losses";
  const auto json = slurp(manifest);
  for (const char* key :
       {"\"schema\":\"dlouvain-run-manifest/7\"", "\"arq.nacks\":",
        "\"arq.retransmits\":", "\"arq.backoff_ms\":", "\"arq.escalations\":",
        "\"heartbeat.slow_extensions\":", "\"ladder\":{", "\"injected_losses\":",
        "\"verdicts_dead\":", "\"final_ranks\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // The manifest's ladder must agree with the in-memory result, not be a
  // second bookkeeping path that can drift.
  EXPECT_NE(json.find("\"retransmits\":" +
                      std::to_string(result.recovery.retransmits)),
            std::string::npos);
  std::filesystem::remove(manifest);
}

TEST(RecoverySoak, PermanentDeathShrinksAndMatchesCleanResume) {
  // Rung 3 under soak: stage a phase-1 checkpoint, take the clean p-1
  // resume as the reference trajectory, then require the kill + shrink path
  // to reproduce it bitwise.
  const auto g = soak_graph();
  const int p = 4;

  const auto setup = fresh_dir("dl_soak_shrink_setup");
  EXPECT_THROW((void)dlouvain::Plan::distributed(p)
                   .checkpointing(setup.string())
                   .inject_faults(dc::FaultPlan().crash(3, 1))
                   .max_restarts(0)
                   .run(g),
               dc::RankCrashed);
  const auto reference =
      dlouvain::Plan::distributed(p - 1).resume(setup.string()).run(g);

  const auto dir = fresh_dir("dl_soak_shrink_auto");
  const auto result = dlouvain::Plan::distributed(p)
                          .checkpointing(dir.string())
                          .inject_faults(dc::FaultPlan().kill(3, 1))
                          .shrink_on_rank_loss()
                          .max_restarts(2)
                          .run(g);
  EXPECT_EQ(result.community, reference.community);
  EXPECT_EQ(result.modularity, reference.modularity);
  EXPECT_EQ(result.recovery.verdicts_dead, 1);
  EXPECT_EQ(result.recovery.shrinks, 1);
  EXPECT_EQ(result.recovery.final_ranks, p - 1);
  std::filesystem::remove_all(setup);
  std::filesystem::remove_all(dir);
}

TEST(RecoverySoak, FaultsAboveTheThresholdEscalateLoudly) {
  // Total loss with a tiny budget: rung 1 must give up after its bounded
  // retries and surface the escalation instead of retrying forever.
  const auto g = soak_graph();
  try {
    (void)dlouvain::Plan::distributed(2)
        .retransmit(2, /*backoff_ms=*/0.1)
        .inject_faults(dc::FaultPlan().lose(1.0))
        .max_restarts(0)
        .run(g);
    FAIL() << "expected CommFailure";
  } catch (const dc::CommFailure& e) {
    EXPECT_NE(std::string(e.what()).find("retransmit budget exhausted"),
              std::string::npos)
        << e.what();
  }
}
