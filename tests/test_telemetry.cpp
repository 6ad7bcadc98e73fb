// Trustworthy-telemetry guarantees (ISSUE 4), pinned as tests:
//
//  * tracing is an OBSERVER: enabling --trace-out changes no result bit at
//    any thread count, and the PR3 golden constants hold with tracing on;
//  * counter totals are wire-mode independent where the algorithm is
//    (messages), and the named-counter catalog is internally consistent
//    (whole-job totals == restored + executed, ghost bytes split by mode);
//  * the run manifest (Result::to_json) is valid, stable and deterministic;
//  * satellite 1: a crashed-and-restarted run reports the SAME algorithm
//    traffic as a clean run -- discarded attempts land in
//    recovery.wasted_messages/bytes, never in Result::messages;
//  * satellite 2: per-phase TimeBreakdowns sum to the run breakdown and
//    never exceed their phase's wall time (no double counting); comm_hidden
//    reads 0 and stays out of total();
//  * satellite 3: counters survive checkpoint/resume (v2 counters.bin) and
//    a v1-era checkpoint without counters.bin still resumes, with restored
//    counters reading zero;
//  * the per-phase load lambdas: phase 0's load_lambda equals max/mean of
//    per-rank arc counts recomputed from the input edge list, and every
//    lambda is >= 1 (exactly 1 at p = 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/world.hpp"
#include "core/checkpoint.hpp"
#include "core/dist_louvain.hpp"
#include "core/metrics.hpp"
#include "dlouvain.hpp"
#include "golden.hpp"
#include "gen/rmat.hpp"
#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace {

using namespace dlouvain;
namespace dc = dlouvain::comm;
using namespace dlouvain::golden;

graph::Csr rmat8() {
  gen::RmatParams p;
  p.scale = 8;
  p.edges_per_vertex = 8;
  p.seed = 42;
  const auto g = gen::rmat(p);
  return graph::from_edges(g.num_vertices, g.edges);
}

std::filesystem::path fresh_dir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::filesystem::path scratch_file(const std::string& name) {
  auto path = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove(path);
  return path;
}

std::int64_t counter(const Result& r, util::Counter c) {
  return r.distributed->counters[c];
}

// ---- tracing is a pure observer ---------------------------------------------

TEST(Tracing, TraceOnIsBitwiseIdenticalAcrossThreadCounts) {
  const auto g = rmat10();
  for (const int threads : {1, 4, 16}) {
    const auto plain = Plan::distributed(4).threads(threads).seed(123).run(g);
    const auto traced_path =
        scratch_file("dl_trace_t" + std::to_string(threads) + ".json");
    const auto traced = Plan::distributed(4)
                            .threads(threads)
                            .seed(123)
                            .trace(traced_path.string())
                            .run(g);
    const auto label = "threads " + std::to_string(threads);
    EXPECT_EQ(traced.community, plain.community) << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(traced.modularity),
              std::bit_cast<std::uint64_t>(plain.modularity))
        << label;
    EXPECT_EQ(traced.distributed->messages, plain.distributed->messages) << label;
    EXPECT_EQ(traced.distributed->bytes, plain.distributed->bytes) << label;
    // The full named-counter vector must match too (busy_seconds is wall
    // clock and legitimately differs).
    EXPECT_EQ(traced.distributed->counters.values, plain.distributed->counters.values)
        << label;
    EXPECT_TRUE(std::filesystem::exists(traced_path)) << label;
    std::filesystem::remove(traced_path);
  }
}

TEST(Tracing, GoldenConstantsHoldWithTracingEnabled) {
  // Same golden bits test_hotpath pins for the untraced dist p4 run.
  const auto g = rmat10();
  const auto path = scratch_file("dl_trace_golden.json");
  const auto r =
      Plan::distributed(4).threads(1).seed(123).trace(path.string()).run(g);
  expect_golden(r, kDistP4Rmat, "traced");
  std::filesystem::remove(path);
}

TEST(Tracing, SerialEngineWritesAnEmptyButValidTrace) {
  const auto path = scratch_file("dl_trace_serial.json");
  (void)Plan::serial().seed(123).trace(path.string()).run(rmat8());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
  std::filesystem::remove(path);
}

// ---- counter catalog consistency --------------------------------------------

TEST(Counters, MessagesAndBytesMatchTheirCounters) {
  // A fresh run's whole-job totals equal its executed-portion counters, the
  // ghost exchange ships something, and its bytes are a subset of all
  // algorithm traffic.
  const auto r = Plan::distributed(4).threads(1).seed(123).run(rmat10());
  EXPECT_EQ(r.distributed->restored.messages, 0);
  EXPECT_EQ(r.distributed->messages, counter(r, util::Counter::kMessages));
  EXPECT_EQ(r.distributed->bytes, counter(r, util::Counter::kBytes));
  EXPECT_GT(counter(r, util::Counter::kGhostRecordsShipped), 0);
  EXPECT_LE(counter(r, util::Counter::kGhostBytesDelta), r.distributed->bytes);
}

TEST(Counters, CheckpointTrafficIsReclassifiedNotCounted) {
  // Runs with and without checkpointing report the SAME algorithm traffic;
  // checkpoint I/O shows up only under the checkpoint.* counters. This is
  // the PERFORMANCE.md fix: `bytes` never covered checkpoint I/O, now the
  // manifest says where it went.
  const auto g = rmat8();
  const auto plain = Plan::distributed(2).threads(1).seed(123).run(g);
  const auto dir = fresh_dir("dl_ctr_ckpt");
  const auto ckpt = Plan::distributed(2)
                        .threads(1)
                        .seed(123)
                        .checkpointing(dir.string(), 1)
                        .run(g);
  EXPECT_EQ(ckpt.distributed->messages, plain.distributed->messages);
  EXPECT_EQ(ckpt.distributed->bytes, plain.distributed->bytes);
  EXPECT_GT(counter(ckpt, util::Counter::kCheckpointMessages), 0);
  EXPECT_GT(counter(ckpt, util::Counter::kCheckpointBytes), 0);
  EXPECT_GT(counter(ckpt, util::Counter::kCheckpointFileBytes), 0);
  EXPECT_EQ(counter(plain, util::Counter::kCheckpointMessages), 0);
  EXPECT_EQ(counter(plain, util::Counter::kCheckpointFileBytes), 0);
  std::filesystem::remove_all(dir);
}

// ---- satellite 2: per-phase breakdown sums ----------------------------------

TEST(Breakdown, PhaseBreakdownsSumToRunBreakdownAndFitTheirPhase) {
  // Regression for the double-counting bug: un-cleared timers folded phases
  // 0..N-1 into phase N's breakdown, so phase breakdowns (a) summed to far
  // more than the run breakdown and (b) exceeded their own phase's wall
  // time. Both are now pinned.
  const auto r = Plan::distributed(4).threads(2).seed(123).run(rmat10());
  const auto& d = *r.distributed;
  ASSERT_GE(d.phases, 2);

  core::TimeBreakdown sum;
  for (const auto& ph : d.phase_telemetry) sum += ph.breakdown;
  const double tol = 1e-9 + 1e-6 * d.breakdown.total();
  EXPECT_NEAR(sum.ghost_exchange, d.breakdown.ghost_exchange, tol);
  EXPECT_NEAR(sum.community_info, d.breakdown.community_info, tol);
  EXPECT_NEAR(sum.compute, d.breakdown.compute, tol);
  EXPECT_NEAR(sum.delta_exchange, d.breakdown.delta_exchange, tol);
  EXPECT_NEAR(sum.allreduce, d.breakdown.allreduce, tol);
  EXPECT_NEAR(sum.rebuild, d.breakdown.rebuild, tol);
  EXPECT_NEAR(sum.compute_busy, d.breakdown.compute_busy, tol);

  // Every timed section lives inside its phase's wall clock; a breakdown
  // exceeding the phase duration can only come from double counting.
  for (const auto& ph : d.phase_telemetry) {
    EXPECT_LE(ph.breakdown.total(), ph.seconds + 0.05)
        << "phase " << ph.phase << " breakdown exceeds its wall time";
  }
  EXPECT_LE(d.breakdown.total(), d.seconds + 0.25);
}

TEST(Breakdown, SingleThreadComputeBusyIsPositiveAndWithinCompute) {
  // At --threads 1 parallel_for runs the decide scan inline on the caller;
  // that time must still accrue as pool busy time, and it can never exceed
  // the compute wall, which also holds the serial apply of every batch.
  const auto r = Plan::distributed(2).threads(1).seed(123).run(rmat10());
  const auto& b = r.distributed->breakdown;
  EXPECT_GT(b.compute_busy, 0.0);
  EXPECT_LE(b.compute_busy, b.compute);
}

TEST(Breakdown, CommHiddenReadsZeroAndIsExcludedFromTotal) {
  // Every exchange blocks where it is launched, so no latency is hidden. The
  // field and its manifest key stay because perfbench reads both.
  const auto r = Plan::distributed(4).threads(1).seed(123).run(rmat10());
  const auto& d = *r.distributed;
  EXPECT_EQ(d.breakdown.comm_hidden, 0.0);
  for (const auto& ph : d.phase_telemetry) EXPECT_EQ(ph.breakdown.comm_hidden, 0.0);
  const auto json = r.to_json();
  EXPECT_NE(json.find("\"comm_hidden\":0}"), std::string::npos);
  EXPECT_EQ(json.find("\"overlap\""), std::string::npos);

  // total() is the attributed wall-time split; comm_hidden is not in it.
  core::TimeBreakdown b;
  b.ghost_exchange = 1;
  b.community_info = 2;
  b.compute = 4;
  b.delta_exchange = 8;
  b.allreduce = 16;
  b.rebuild = 32;
  b.compute_busy = 64;
  b.comm_hidden = 128;
  EXPECT_EQ(b.total(), 63.0);
}

// ---- per-phase load lambdas --------------------------------------------------

TEST(LoadSample, LoadImbalanceIsMaxOverMean) {
  // Degenerate load vectors: no ranks, no load, one rank.
  EXPECT_EQ(core::load_imbalance(std::vector<double>{}), 1.0);
  EXPECT_EQ(core::load_imbalance(std::vector<double>{0, 0, 0}), 1.0);
  EXPECT_EQ(core::load_imbalance(std::vector<double>{7}), 1.0);
  // Equal loads whose floating-point sum rounds up still read exactly 1.
  EXPECT_EQ(core::load_imbalance(std::vector<double>{0.1, 0.1, 0.1}), 1.0);
  // Skewed: mean 15, max 30.
  EXPECT_EQ(core::load_imbalance(std::vector<double>{30, 10, 10, 10}), 2.0);
  EXPECT_THROW((void)core::load_imbalance(std::vector<double>{5, -1}),
               std::invalid_argument);
}

TEST(LoadSample, LambdasMatchArcCountOracleAndAreAtLeastOne) {
  gen::RmatParams params;
  params.scale = 10;
  params.edges_per_vertex = 8;
  params.seed = 42;
  const auto edges = gen::rmat(params);
  const auto g = graph::from_edges(edges.num_vertices, edges.edges);

  // Owned arcs per vertex, from the edge list alone: the CSR symmetrizes
  // and coalesces, so a vertex owns one arc per distinct neighbour (itself
  // included when it carries a self loop).
  std::set<std::pair<VertexId, VertexId>> arcs;
  for (const auto& e : edges.edges) {
    arcs.emplace(e.src, e.dst);
    arcs.emplace(e.dst, e.src);
  }
  std::vector<double> arcs_of(static_cast<std::size_t>(edges.num_vertices), 0);
  for (const auto& [src, dst] : arcs) ++arcs_of[static_cast<std::size_t>(src)];

  for (const int p : {1, 3, 4}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    const auto part = graph::partition_even_vertices(edges.num_vertices, p);
    std::vector<double> rank_arcs(static_cast<std::size_t>(p), 0);
    for (VertexId v = 0; v < edges.num_vertices; ++v)
      rank_arcs[static_cast<std::size_t>(part.owner(v))] += arcs_of[static_cast<std::size_t>(v)];
    const double mean = static_cast<double>(arcs.size()) / p;
    const double expected = *std::max_element(rank_arcs.begin(), rank_arcs.end()) / mean;
    if (p == 4) {
      EXPECT_GT(expected, 1.05) << "the fixture must be skewed";
    }

    const auto r = Plan::distributed(p)
                       .threads(1)
                       .seed(123)
                       .partition(graph::PartitionKind::kEvenVertices)
                       .run(g);
    const auto& phases = r.distributed->phase_telemetry;
    ASSERT_FALSE(phases.empty());
    ASSERT_EQ(phases.front().phase, 0);
    EXPECT_EQ(phases.front().graph_arcs, static_cast<EdgeId>(arcs.size()));
    EXPECT_DOUBLE_EQ(phases.front().load_lambda, expected);
    for (const auto& ph : phases) {
      EXPECT_GE(ph.load_lambda, 1.0) << "phase " << ph.phase;
      EXPECT_GE(ph.time_lambda, 1.0) << "phase " << ph.phase;
      if (p == 1) {
        EXPECT_EQ(ph.load_lambda, 1.0) << "phase " << ph.phase;
        EXPECT_EQ(ph.time_lambda, 1.0) << "phase " << ph.phase;
      }
    }
  }
}

// ---- satellite 1: restart traffic is wasted, not leaked ---------------------

TEST(Recovery, CrashedRunReportsCleanTrafficPlusWaste) {
  // Both plans pin the kEvenVertices original partition: a resume re-slices
  // the original-vertex bookkeeping (orig_to_cur) under kEvenVertices, so
  // only with a matching original partition are the self/remote payload
  // splits -- and therefore BYTE counts -- identical to the clean run.
  // (Message counts and results are partition-independent either way.)
  const auto g = rmat8();
  const auto clean_dir = fresh_dir("dl_waste_clean");
  const auto clean = Plan::distributed(2)
                         .threads(1)
                         .seed(123)
                         .partition(graph::PartitionKind::kEvenVertices)
                         .checkpointing(clean_dir.string(), 1)
                         .run(g);
  ASSERT_GE(clean.phases, 2) << "fixture must run multiple phases";
  EXPECT_EQ(clean.recovery.attempts, 1);
  EXPECT_EQ(clean.recovery.wasted_messages, 0);
  EXPECT_EQ(clean.recovery.wasted_bytes, 0);

  const auto crash_dir = fresh_dir("dl_waste_crash");
  const auto crashed = Plan::distributed(2)
                           .threads(1)
                           .seed(123)
                           .partition(graph::PartitionKind::kEvenVertices)
                           .checkpointing(crash_dir.string(), 1)
                           .inject_faults(dc::FaultPlan().crash(1, 1))
                           .max_restarts(2)
                           .run(g);
  EXPECT_GT(crashed.recovery.attempts, 1);
  EXPECT_EQ(crashed.community, clean.community);

  // The leak this fixes: the completed run reports exactly the clean run's
  // traffic -- whole-job totals restored from the checkpoint plus what the
  // surviving attempt executed, nothing from the discarded attempt.
  EXPECT_EQ(crashed.distributed->messages, clean.distributed->messages);
  EXPECT_EQ(crashed.distributed->bytes, clean.distributed->bytes);
  EXPECT_EQ(crashed.distributed->messages,
            crashed.distributed->restored.messages +
                counter(crashed, util::Counter::kMessages));

  // The discarded attempt's traffic is reported, separately.
  EXPECT_GT(crashed.recovery.wasted_messages, 0);
  EXPECT_GT(crashed.recovery.wasted_bytes, 0);
  EXPECT_GT(crashed.recovery.injected_crashes, 0);

  std::filesystem::remove_all(clean_dir);
  std::filesystem::remove_all(crash_dir);
}

// ---- satellite 3: counters across checkpoint/resume -------------------------

TEST(Resume, WholeJobTotalsAreSelfConsistentAfterResume) {
  const auto g = rmat8();
  const auto dir = fresh_dir("dl_resume_ctr");
  const auto first = Plan::distributed(2)
                         .threads(1)
                         .seed(123)
                         .checkpointing(dir.string(), 1)
                         .run(g);
  ASSERT_GE(first.phases, 2);

  const auto banked = core::checkpoint_latest_counters(dir.string());
  ASSERT_TRUE(banked.has_value()) << "v2 checkpoints must persist counters";
  EXPECT_GT(banked->messages, 0);
  EXPECT_GT(banked->seconds, 0);
  EXPECT_LE(banked->messages, first.distributed->messages);

  const auto resumed =
      Plan::distributed(2).threads(1).seed(123).resume(dir.string()).run(g);
  ASSERT_GE(resumed.distributed->resumed_from_phase, 0);
  EXPECT_EQ(resumed.distributed->restored.messages, banked->messages);
  EXPECT_EQ(resumed.distributed->restored.bytes, banked->bytes);
  // The satellite-3 rule: reported totals are whole-job = restored +
  // executed, mirroring what phases/total_iterations always did.
  EXPECT_EQ(resumed.distributed->messages,
            resumed.distributed->restored.messages +
                counter(resumed, util::Counter::kMessages));
  EXPECT_EQ(resumed.distributed->bytes,
            resumed.distributed->restored.bytes +
                counter(resumed, util::Counter::kBytes));
  EXPECT_GE(resumed.distributed->seconds, resumed.distributed->restored.seconds);
  std::filesystem::remove_all(dir);
}

TEST(Resume, V1CheckpointWithoutCountersStillResumes) {
  // A pre-v2 checkpoint has no counters.bin. Deleting the sidecar simulates
  // one: the resume must succeed with restored counters reading zero -- a
  // missing sidecar NEVER invalidates the checkpoint.
  const auto g = rmat8();
  const auto dir = fresh_dir("dl_resume_v1");
  const auto first = Plan::distributed(2)
                         .threads(1)
                         .seed(123)
                         .checkpointing(dir.string(), 1)
                         .run(g);
  ASSERT_GE(first.phases, 2);

  int removed = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().filename() == "counters.bin") {
      std::filesystem::remove(entry.path());
      ++removed;
    }
  }
  ASSERT_GT(removed, 0) << "v2 checkpoints must write counters.bin";
  EXPECT_FALSE(core::checkpoint_latest_counters(dir.string()).has_value() &&
               core::checkpoint_latest_counters(dir.string())->messages != 0);

  const auto resumed =
      Plan::distributed(2).threads(1).seed(123).resume(dir.string()).run(g);
  ASSERT_GE(resumed.distributed->resumed_from_phase, 0);
  EXPECT_EQ(resumed.community, first.community);
  EXPECT_EQ(resumed.distributed->restored.messages, 0);
  EXPECT_EQ(resumed.distributed->restored.bytes, 0);
  EXPECT_EQ(resumed.distributed->restored.seconds, 0);
  // Self-consistency still holds: totals cover exactly what ran here.
  EXPECT_EQ(resumed.distributed->messages,
            counter(resumed, util::Counter::kMessages));
  std::filesystem::remove_all(dir);
}

// ---- the run manifest -------------------------------------------------------

/// Minimal structural JSON check: balanced braces/brackets outside strings.
void expect_balanced_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Manifest, ToJsonIsValidStableAndDeterministic) {
  const auto g = rmat8();
  const auto r = Plan::distributed(2).threads(1).seed(123).run(g);
  const auto json = r.to_json();
  expect_balanced_json(json);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"schema\":\"dlouvain-run-manifest/8\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"distributed\""), std::string::npos);
  EXPECT_NE(json.find("\"updates\":{\"batches_applied\":0"), std::string::npos);
  EXPECT_NE(json.find("\"comm.messages\":"), std::string::npos);
  EXPECT_NE(json.find("\"recovery\":{"), std::string::npos);
  EXPECT_NE(json.find("\"phases_detail\":["), std::string::npos);

  // Same Result -> same string (round-trip stability)...
  EXPECT_EQ(r.to_json(), json);
  // ...and a re-run differs only in wall-clock fields: the deterministic
  // counter section must be byte-identical.
  const auto again = Plan::distributed(2).threads(1).seed(123).run(g);
  const auto extract_counters = [](const std::string& j) {
    const auto from = j.find("\"counters\":");
    const auto to = j.find("\"pool.busy_seconds\"", from);
    return j.substr(from, to - from);
  };
  EXPECT_EQ(extract_counters(again.to_json()), extract_counters(json));
}

TEST(Manifest, SerialAndSharedEnginesEmitValidManifests) {
  const auto g = rmat8();
  for (const auto& r :
       {Plan::serial().seed(123).run(g), Plan::shared(2).seed(123).run(g)}) {
    const auto json = r.to_json();
    expect_balanced_json(json);
    EXPECT_NE(json.find("\"schema\":\"dlouvain-run-manifest/8\""),
              std::string::npos);
    EXPECT_NE(json.find("\"updates\":{"), std::string::npos);
    EXPECT_NE(json.find("\"recovery\":{"), std::string::npos);
  }
}

TEST(Manifest, MetricsOutWritesTheManifestToDisk) {
  const auto g = rmat8();
  const auto path = scratch_file("dl_manifest_out.json");
  const auto r =
      Plan::distributed(2).threads(1).seed(123).metrics(path.string()).run(g);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string on_disk((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, r.to_json() + "\n");
  std::filesystem::remove(path);
}

// ---- util-level unit tests --------------------------------------------------

TEST(TraceBuffer, RingOverwritesOldestAndCountsDrops) {
  const auto epoch = util::TraceBuffer::Clock::now();
  util::TraceBuffer buf(0, epoch, 4);
  for (int i = 0; i < 7; ++i) {
    const auto t = epoch + std::chrono::microseconds(i);
    buf.record("ev", "cat", t, t + std::chrono::microseconds(1), i, -1);
  }
  const auto events = buf.drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(buf.dropped(), 3);
  // Oldest-first, and the three oldest are the ones evicted.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].phase, static_cast<int>(i) + 3);
  }
}

TEST(TraceStore, WritesChromeTraceShape) {
  util::TraceStore store(2, 16);
  {
    const util::TraceSpan span(store.buffer(0), "phase", "phase", 0);
  }
  {
    const util::TraceSpan span(store.buffer(1), "compute", "compute", 0, 1);
  }
  // Out-of-range buffers are null, and null-buffer spans are no-ops.
  EXPECT_EQ(store.buffer(2), nullptr);
  { const util::TraceSpan noop(nullptr, "x", "y"); }

  std::ostringstream out;
  store.write_chrome_trace(out);
  const auto json = out.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"compute\""), std::string::npos);
}

TEST(Metrics, ReclassScopeMovesTrafficAndNests) {
  util::CounterBlock block;
  block[util::Counter::kMessages] = 10;
  block[util::Counter::kBytes] = 100;
  {
    const util::TrafficReclassScope outer(block, util::Counter::kCheckpointMessages,
                                          util::Counter::kCheckpointBytes);
    block[util::Counter::kMessages] += 5;
    block[util::Counter::kBytes] += 50;
    {
      const util::TrafficReclassScope inner(
          block, util::Counter::kCheckpointMessages,
          util::Counter::kCheckpointBytes);
      block[util::Counter::kMessages] += 2;
      block[util::Counter::kBytes] += 20;
    }
    // The inner scope already moved its delta; the outer sees only its own.
    EXPECT_EQ(block[util::Counter::kCheckpointMessages], 2);
  }
  EXPECT_EQ(block[util::Counter::kMessages], 10);
  EXPECT_EQ(block[util::Counter::kBytes], 100);
  EXPECT_EQ(block[util::Counter::kCheckpointMessages], 7);
  EXPECT_EQ(block[util::Counter::kCheckpointBytes], 70);
}

TEST(Metrics, RegistryRejectsNonPositiveRanks) {
  EXPECT_THROW(util::MetricsRegistry(0), std::invalid_argument);
  EXPECT_THROW(util::MetricsRegistry(-3), std::invalid_argument);
  util::MetricsRegistry reg(2);
  reg.rank(0)[util::Counter::kMessages] = 3;
  reg.rank(1)[util::Counter::kMessages] = 4;
  EXPECT_EQ(reg.total()[util::Counter::kMessages], 7);
}

}  // namespace
