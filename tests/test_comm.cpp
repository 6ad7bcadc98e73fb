// Tests for the message-passing runtime: point-to-point semantics,
// every collective, error propagation, and parameterized stress across
// world sizes (including non-powers of two, which exercise the dissemination
// barrier's wraparound).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/async.hpp"
#include "comm/comm.hpp"
#include "comm/fault.hpp"
#include "comm/mailbox.hpp"
#include "comm/world.hpp"
#include "util/metrics.hpp"

namespace dc = dlouvain::comm;
using dlouvain::Rank;

TEST(Comm, SingleRankWorldRunsInline) {
  std::atomic<int> calls{0};
  dc::run(1, [&](dc::Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(Comm, SendRecvRoundTrip) {
  dc::run(2, [](dc::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 7, std::vector<int>{1, 2, 3});
      const auto back = comm.recv<int>(1, 8);
      EXPECT_EQ(back, (std::vector<int>{4, 5}));
    } else {
      const auto data = comm.recv<int>(0, 7);
      EXPECT_EQ(data, (std::vector<int>{1, 2, 3}));
      comm.send<int>(0, 8, std::vector<int>{4, 5});
    }
  });
}

TEST(Comm, EmptyMessagesAreDeliverable) {
  dc::run(2, [](dc::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 1, std::vector<int>{});
    } else {
      EXPECT_TRUE(comm.recv<int>(0, 1).empty());
    }
  });
}

TEST(Comm, TagMatchingSelectsCorrectMessage) {
  // Send tag-B first, then tag-A; receiver asks for A first. Matching must
  // pick by tag, not arrival order.
  dc::run(2, [](dc::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 20, 200);
      comm.send_value<int>(1, 10, 100);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 10), 100);
      EXPECT_EQ(comm.recv_value<int>(0, 20), 200);
    }
  });
}

TEST(Comm, SameTagIsFifoPerPair) {
  dc::run(2, [](dc::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send_value<int>(1, 3, i);
    } else {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(comm.recv_value<int>(0, 3), i);
    }
  });
}

TEST(Comm, SendToInvalidRankThrows) {
  EXPECT_THROW(dc::run(2,
                       [](dc::Comm& comm) {
                         if (comm.rank() == 0) comm.send_value<int>(5, 0, 1);
                         else comm.barrier();  // will unwind via WorldAborted
                       }),
               std::out_of_range);
}

TEST(Comm, ExceptionInOneRankPropagates) {
  EXPECT_THROW(dc::run(4,
                       [](dc::Comm& comm) {
                         if (comm.rank() == 2) throw std::runtime_error("boom");
                         // Other ranks block; they must be released, not hang.
                         (void)comm.recv_bytes((comm.rank() + 1) % 4, 99);
                       }),
               std::runtime_error);
}

TEST(Comm, TrafficReportCountsMessages) {
  const auto report = dc::run(2, [](dc::Comm& comm) {
    if (comm.rank() == 0) comm.send<int>(1, 0, std::vector<int>{1, 2, 3, 4});
    else (void)comm.recv<int>(0, 0);
  });
  EXPECT_EQ(report.messages, 1);
  EXPECT_EQ(report.bytes, 16);
}

class CommCollectives : public ::testing::TestWithParam<int> {};

TEST_P(CommCollectives, BarrierCompletes) {
  const int p = GetParam();
  std::atomic<int> arrived{0};
  dc::run(p, [&](dc::Comm& comm) {
    for (int round = 0; round < 5; ++round) comm.barrier();
    ++arrived;
  });
  EXPECT_EQ(arrived.load(), p);
}

TEST_P(CommCollectives, BarrierIsASyncPoint) {
  const int p = GetParam();
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  dc::run(p, [&](dc::Comm& comm) {
    ++before;
    comm.barrier();
    if (before.load() != p) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(CommCollectives, BroadcastDistributesRootBuffer) {
  const int p = GetParam();
  dc::run(p, [](dc::Comm& comm) {
    std::vector<long> data;
    if (comm.rank() == 0) data = {10, 20, 30};
    const auto out = comm.broadcast(std::move(data), 0);
    EXPECT_EQ(out, (std::vector<long>{10, 20, 30}));
  });
}

TEST_P(CommCollectives, BroadcastFromNonZeroRoot) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  dc::run(p, [](dc::Comm& comm) {
    std::vector<int> data;
    if (comm.rank() == 1) data = {7};
    EXPECT_EQ(comm.broadcast(std::move(data), 1), std::vector<int>{7});
  });
}

TEST_P(CommCollectives, AllgatherOrdersByRank) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    const auto all = comm.allgather<int>(comm.rank() * 10);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) EXPECT_EQ(all[r], r * 10);
  });
}

TEST_P(CommCollectives, AllgathervConcatenatesVariableLengths) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    // Rank r contributes r copies of r.
    std::vector<int> mine(comm.rank(), comm.rank());
    std::vector<std::size_t> counts;
    const auto all = comm.allgatherv<int>(mine, &counts);
    std::vector<int> expected;
    for (int r = 0; r < p; ++r) expected.insert(expected.end(), r, r);
    EXPECT_EQ(all, expected);
    for (int r = 0; r < p; ++r) EXPECT_EQ(counts[r], static_cast<std::size_t>(r));
  });
}

TEST_P(CommCollectives, GathervCollectsAtRootOnly) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    std::vector<int> mine{comm.rank(), comm.rank() + 100};
    const auto all = comm.gatherv<int>(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * p));
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(all[2 * r], r);
        EXPECT_EQ(all[2 * r + 1], r + 100);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CommCollectives, AllreduceSumMatchesClosedForm) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    EXPECT_EQ(comm.allreduce_sum<long>(comm.rank() + 1), static_cast<long>(p) * (p + 1) / 2);
  });
}

TEST_P(CommCollectives, AllreduceSumIsBitwiseIdenticalAcrossRanks) {
  const int p = GetParam();
  // Adversarial doubles: different magnitudes per rank. Every rank must get
  // the exact same bits because folds run in rank order everywhere.
  std::vector<double> results(p);
  dc::run(p, [&](dc::Comm& comm) {
    const double mine = 1.0 / (comm.rank() + 3.0) * 1e10;
    results[comm.rank()] = comm.allreduce_sum(mine);
  });
  for (int r = 1; r < p; ++r) EXPECT_EQ(results[0], results[r]);
}

TEST_P(CommCollectives, AllreduceMinMax) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    EXPECT_EQ(comm.allreduce_max<int>(comm.rank()), p - 1);
    EXPECT_EQ(comm.allreduce_min<int>(comm.rank()), 0);
  });
}

TEST_P(CommCollectives, AllreduceLand) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    EXPECT_TRUE(comm.allreduce_land(true));
    // Rank p-1 votes false, so the conjunction is always false.
    EXPECT_FALSE(comm.allreduce_land(comm.rank() != p - 1));
  });
}

TEST_P(CommCollectives, AllreduceSumVecIsElementwise) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    std::vector<long> mine{comm.rank(), 1, 2 * comm.rank()};
    const auto out = comm.allreduce_sum_vec(mine);
    const long ranksum = static_cast<long>(p) * (p - 1) / 2;
    EXPECT_EQ(out, (std::vector<long>{ranksum, p, 2 * ranksum}));
  });
}

TEST_P(CommCollectives, ExscanMatchesPrefixSums) {
  const int p = GetParam();
  dc::run(p, [](dc::Comm& comm) {
    // Rank r contributes r+1; exscan result is sum 1..r.
    const long r = comm.rank();
    EXPECT_EQ(comm.exscan_sum<long>(r + 1), r * (r + 1) / 2);
    EXPECT_EQ(comm.scan_sum<long>(r + 1), (r + 1) * (r + 2) / 2);
  });
}

TEST_P(CommCollectives, AlltoallvRoutesPersonalizedBuffers) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    // Rank r sends {r*100+d} repeated (d+1) times to rank d.
    std::vector<std::vector<int>> outbox(p);
    for (int d = 0; d < p; ++d) outbox[d].assign(d + 1, comm.rank() * 100 + d);
    const auto inbox = comm.alltoallv<int>(std::move(outbox));
    ASSERT_EQ(inbox.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(inbox[s].size(), static_cast<std::size_t>(comm.rank() + 1));
      for (int x : inbox[s]) EXPECT_EQ(x, s * 100 + comm.rank());
    }
  });
}

TEST_P(CommCollectives, AlltoallExchangesSingleElements) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    std::vector<int> out(p);
    for (int d = 0; d < p; ++d) out[d] = comm.rank() * p + d;
    const auto in = comm.alltoall(out);
    for (int s = 0; s < p; ++s) EXPECT_EQ(in[s], s * p + comm.rank());
  });
}

TEST_P(CommCollectives, BackToBackCollectivesDontCrossMatch) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      EXPECT_EQ(comm.allreduce_sum<int>(round), round * p);
      const auto all = comm.allgather<int>(comm.rank() + round);
      for (int r = 0; r < p; ++r) EXPECT_EQ(all[r], r + round);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CommCollectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(Comm, ManyRanksStress) {
  // 32 rank-threads doing mixed traffic; mostly a deadlock/interleaving test.
  dc::run(32, [](dc::Comm& comm) {
    const int p = comm.size();
    const Rank next = (comm.rank() + 1) % p;
    const Rank prev = (comm.rank() - 1 + p) % p;
    for (int i = 0; i < 10; ++i) {
      comm.send_value<int>(next, 5, comm.rank() * 1000 + i);
      EXPECT_EQ(comm.recv_value<int>(prev, 5), prev * 1000 + i);
      comm.barrier();
    }
  });
}

// ---- Sub-communicators, sendrecv, tree broadcast (added with comm v2) --------

TEST(CommSplit, EvenOddGroupsWorkIndependently) {
  dc::run(6, [](dc::Comm& comm) {
    auto sub = comm.split(comm.rank() % 2);
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // Collectives inside the split see only the group.
    const auto sum = sub.allreduce_sum<int>(comm.rank());
    const int expect = comm.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5;
    EXPECT_EQ(sum, expect);
  });
}

TEST(CommSplit, KeyControlsOrdering) {
  dc::run(4, [](dc::Comm& comm) {
    // Reverse the ranks via the key.
    auto sub = comm.split(0, -comm.rank());
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
    const auto gathered = sub.allgather<int>(comm.rank());
    EXPECT_EQ(gathered, (std::vector<int>{3, 2, 1, 0}));
  });
}

TEST(CommSplit, ParentAndChildTrafficDoNotMix) {
  dc::run(4, [](dc::Comm& comm) {
    auto sub = comm.split(comm.rank() % 2);
    // Same (src, tag) posted on both communicators; each recv must get its
    // own communicator's message.
    if (comm.rank() == 0) {
      comm.send_value<int>(2, 5, 111);        // world: 0 -> 2
      sub.send_value<int>(1, 5, 222);         // evens: 0 -> (world 2)
    }
    if (comm.rank() == 2) {
      EXPECT_EQ(sub.recv_value<int>(0, 5), 222);
      EXPECT_EQ(comm.recv_value<int>(0, 5), 111);
    }
  });
}

TEST(CommSplit, NestedSplits) {
  dc::run(8, [](dc::Comm& comm) {
    auto half = comm.split(comm.rank() / 4);   // two groups of 4
    auto quarter = half.split(half.rank() / 2);  // four groups of 2
    EXPECT_EQ(quarter.size(), 2);
    const auto sum = quarter.allreduce_sum<int>(1);
    EXPECT_EQ(sum, 2);
  });
}

TEST(CommSplit, SingletonGroups) {
  dc::run(3, [](dc::Comm& comm) {
    auto solo = comm.split(comm.rank());  // every rank its own color
    EXPECT_EQ(solo.size(), 1);
    EXPECT_EQ(solo.rank(), 0);
    EXPECT_EQ(solo.allreduce_sum<int>(41), 41);
    solo.barrier();
  });
}

TEST(Comm, SendrecvExchangesInOneCall) {
  dc::run(4, [](dc::Comm& comm) {
    const int p = comm.size();
    const dlouvain::Rank right = (comm.rank() + 1) % p;
    const dlouvain::Rank left = (comm.rank() - 1 + p) % p;
    const auto got = comm.sendrecv<int>(right, left, 3, std::vector<int>{comm.rank()});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], left);
  });
}

class BroadcastTree : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastTree, EveryRootEveryWorldSize) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    for (dlouvain::Rank root = 0; root < p; ++root) {
      std::vector<long> data;
      if (comm.rank() == root) data = {root * 100L, root * 100L + 1};
      const auto out = comm.broadcast(std::move(data), root);
      EXPECT_EQ(out, (std::vector<long>{root * 100L, root * 100L + 1}));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, BroadcastTree, ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(Comm, TagOutsideRangeThrows) {
  dc::run(1, [](dc::Comm& comm) {
    EXPECT_THROW(comm.send_value<int>(0, 1 << 20, 1), std::out_of_range);
  });
}

// ---- Fault layer: timeouts, checksums, duplicate suppression, delays -------

TEST(FaultLayer, HungReceiveThrowsTimeoutWithDiagnostic) {
  // Rank 0 waits for a message rank 1 never sends: a classic deadlock. With
  // a deadline configured, the blocked receive must throw CommTimeout whose
  // message names the blocked (src, tag) instead of hanging forever.
  dc::RunOptions options;
  options.timeout_seconds = 0.2;
  try {
    dc::run(
        2,
        [](dc::Comm& comm) {
          if (comm.rank() == 0) (void)comm.recv_value<int>(1, 42);
          else (void)comm.recv_value<int>(0, 43);  // also stuck, also reported
        },
        options);
    FAIL() << "expected CommTimeout";
  } catch (const dc::CommTimeout& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("blocked on"), std::string::npos) << what;
    EXPECT_NE(what.find("comm timeout"), std::string::npos) << what;
  }
}

TEST(FaultLayer, TimeoutDoesNotFireOnHealthyTraffic) {
  dc::RunOptions options;
  options.timeout_seconds = 5.0;
  const auto report = dc::run(
      3,
      [](dc::Comm& comm) {
        for (int round = 0; round < 20; ++round) {
          comm.barrier();
          (void)comm.allreduce_sum<int>(comm.rank());
        }
      },
      options);
  EXPECT_GT(report.messages, 0);
}

TEST(FaultLayer, DuplicatedMessagesAreAbsorbed) {
  // Duplicate EVERY message: results must be unchanged (sequence numbers
  // drop the copies) and the drop counter must show it happened. A repeated
  // stream on a fixed tag interleaves duplicates with later originals, so
  // the receiver actually encounters (and drops) them; only the final
  // message's duplicate can linger undelivered at shutdown.
  constexpr int kRounds = 25;
  dc::RunOptions options;
  options.faults = std::make_shared<dc::FaultInjector>(dc::FaultPlan().duplicate(1.0));
  std::vector<long> sums(4, -1);
  const auto report = dc::run(
      4,
      [&](dc::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < kRounds; ++i) comm.send_value<int>(1, 7, i);
        } else if (comm.rank() == 1) {
          for (int i = 0; i < kRounds; ++i)
            ASSERT_EQ(comm.recv_value<int>(0, 7), i);
        }
        const auto sum = comm.allreduce_sum<long>(comm.rank() + 1);
        sums[static_cast<std::size_t>(comm.rank())] = sum;
      },
      options);
  EXPECT_EQ(sums, (std::vector<long>{10, 10, 10, 10}));
  EXPECT_GE(report.duplicates_dropped, kRounds - 1);
  EXPECT_LE(report.duplicates_dropped, report.injected_duplicates);
}

TEST(FaultLayer, CorruptedPayloadIsDetected) {
  // Corrupt every data-carrying message: the receiver's CRC check must
  // surface CorruptMessage instead of silently delivering garbage.
  dc::RunOptions options;
  options.faults = std::make_shared<dc::FaultInjector>(dc::FaultPlan().corrupt(1.0));
  EXPECT_THROW(dc::run(
                   2,
                   [](dc::Comm& comm) {
                     if (comm.rank() == 0) comm.send_value<int>(1, 5, 12345);
                     else (void)comm.recv_value<int>(0, 5);
                   },
                   options),
               dc::CorruptMessage);
}

TEST(FaultLayer, DelayedDeliveryPreservesResultsAndFifo) {
  // Delay half of all messages (keyed deterministically): per-stream FIFO
  // must hold and every collective must produce the exact same answers.
  dc::RunOptions options;
  options.faults =
      std::make_shared<dc::FaultInjector>(dc::FaultPlan().with_seed(99).delay(0.5, 1.0));
  std::vector<std::vector<int>> gathered(3);
  const auto report = dc::run(
      3,
      [&](dc::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < 30; ++i) comm.send_value<int>(1, 3, i);
        } else if (comm.rank() == 1) {
          for (int i = 0; i < 30; ++i) EXPECT_EQ(comm.recv_value<int>(0, 3), i);
        }
        gathered[static_cast<std::size_t>(comm.rank())] =
            comm.allgather(static_cast<int>(comm.rank() * 10));
      },
      options);
  for (const auto& g : gathered) EXPECT_EQ(g, (std::vector<int>{0, 10, 20}));
  EXPECT_GT(report.injected_delays, 0);
}

TEST(FaultLayer, InjectedCrashFiresOnceAndDeterministically) {
  auto injector = std::make_shared<dc::FaultInjector>(dc::FaultPlan().crash(1, 2, 0));
  dc::RunOptions options;
  options.faults = injector;
  EXPECT_THROW(dc::run(
                   2,
                   [](dc::Comm& comm) { comm.fault_point(2, 0); },
                   options),
               dc::RankCrashed);
  EXPECT_EQ(injector->crashes_fired.load(), 1);
  // One-shot: the same injector lets a restarted attempt pass the trigger.
  dc::run(
      2, [](dc::Comm& comm) { comm.fault_point(2, 0); }, options);
  EXPECT_EQ(injector->crashes_fired.load(), 1);
}

TEST(FaultLayer, FateIsAFunctionOfTheSeed) {
  // Same plan seed -> same set of delayed messages, run after run.
  const auto count_delays = [] {
    dc::RunOptions options;
    options.faults =
        std::make_shared<dc::FaultInjector>(dc::FaultPlan().with_seed(7).delay(0.3, 0.1));
    const auto report = dc::run(
        2,
        [](dc::Comm& comm) {
          if (comm.rank() == 0) {
            for (int i = 0; i < 100; ++i) comm.send_value<int>(1, 9, i);
          } else {
            for (int i = 0; i < 100; ++i) (void)comm.recv_value<int>(0, 9);
          }
        },
        options);
    return report.injected_delays;
  };
  const auto first = count_delays();
  EXPECT_GT(first, 0);
  EXPECT_LT(first, 100);
  EXPECT_EQ(first, count_delays());
}

// ---- Rung 1: link-level ARQ (retransmit with backoff) ----------------------

TEST(ArqLayer, LostMessagesAreRepairedByRetransmit) {
  // Drop a quarter of all messages on a long single-stream run. With a
  // retransmit budget, every loss must be repaired transparently: the
  // receiver sees the full sequence in FIFO order, no exception, and the
  // NACK/retransmit counters show the repair happened.
  constexpr int kRounds = 100;
  dc::RunOptions options;
  options.retransmit_max = 8;
  options.retransmit_backoff_ms = 0.2;
  options.metrics = std::make_shared<dlouvain::util::MetricsRegistry>(2);
  options.faults =
      std::make_shared<dc::FaultInjector>(dc::FaultPlan().with_seed(11).lose(0.25));
  const auto report = dc::run(
      2,
      [](dc::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < kRounds; ++i) comm.send_value<int>(1, 7, i);
          (void)comm.recv_value<int>(1, 8);  // hold the world open for repairs
        } else {
          for (int i = 0; i < kRounds; ++i)
            ASSERT_EQ(comm.recv_value<int>(0, 7), i);
          comm.send_value<int>(0, 8, 1);
        }
      },
      options);
  EXPECT_GT(report.injected_losses, 0);
  const auto totals = options.metrics->total();
  using dlouvain::util::Counter;
  const auto at = [&](Counter c) {
    return totals.values[static_cast<std::size_t>(c)];
  };
  EXPECT_GE(at(Counter::kArqNacks), report.injected_losses);
  EXPECT_GE(at(Counter::kArqRetransmits), 1);
  EXPECT_EQ(at(Counter::kArqEscalations), 0);
}

TEST(ArqLayer, CorruptedPayloadIsRepairedByRetransmit) {
  // Same wire as FaultLayer.CorruptedPayloadIsDetected, but with ARQ on: the
  // CRC mismatch becomes a NACK instead of a CorruptMessage, and the clean
  // retained copy is delivered.
  dc::RunOptions options;
  // 10% corruption: each retransmission re-draws its fate, so an 8-attempt
  // budget leaves no realistic path to escalation (0.1^8) while still
  // corrupting (and repairing) several originals on a 50-message stream.
  options.retransmit_max = 8;
  options.retransmit_backoff_ms = 0.2;
  options.faults =
      std::make_shared<dc::FaultInjector>(dc::FaultPlan().with_seed(3).corrupt(0.1));
  dc::run(
      2,
      [](dc::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < 50; ++i) comm.send_value<int>(1, 5, 1000 + i);
          (void)comm.recv_value<int>(1, 6);
        } else {
          for (int i = 0; i < 50; ++i)
            ASSERT_EQ(comm.recv_value<int>(0, 5), 1000 + i);
          comm.send_value<int>(0, 6, 1);
        }
      },
      options);
}

TEST(ArqLayer, LostMessageWithoutArqThrowsGapDiagnostic) {
  // No retransmit budget: a sequence gap is unrecoverable, and the receiver
  // must say exactly which stream lost which message.
  dc::RunOptions options;
  options.faults =
      std::make_shared<dc::FaultInjector>(dc::FaultPlan().with_seed(11).lose(0.25));
  try {
    dc::run(
        2,
        [](dc::Comm& comm) {
          if (comm.rank() == 0) {
            for (int i = 0; i < 50; ++i) comm.send_value<int>(1, 7, i);
          } else {
            for (int i = 0; i < 50; ++i) (void)comm.recv_value<int>(0, 7);
          }
        },
        options);
    FAIL() << "expected CommFailure";
  } catch (const dc::CommFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lost message in stream"), std::string::npos) << what;
    EXPECT_NE(what.find("expected seq"), std::string::npos) << what;
  }
}

TEST(ArqLayer, ExhaustedRetransmitBudgetEscalates) {
  // Lose EVERY copy, originals and retransmits alike: after the budget is
  // spent the link must escalate with a CommFailure naming the retry count
  // -- rung 1 handing the fault up the ladder instead of spinning forever.
  dc::RunOptions options;
  options.retransmit_max = 3;
  options.retransmit_backoff_ms = 0.1;
  options.faults = std::make_shared<dc::FaultInjector>(dc::FaultPlan().lose(1.0));
  try {
    dc::run(
        2,
        [](dc::Comm& comm) {
          if (comm.rank() == 0) comm.send_value<int>(1, 7, 42);
          else (void)comm.recv_value<int>(0, 7);
        },
        options);
    FAIL() << "expected CommFailure";
  } catch (const dc::CommFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("retransmit budget exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("3"), std::string::npos) << what;
  }
}

TEST(ArqLayer, RetransmitPreservesDeterminism) {
  // The repaired wire must carry the exact same bytes in the exact same
  // per-stream order as a clean one: run the same traffic with and without
  // loss+ARQ and compare everything received.
  const auto collect = [](double lose) {
    dc::RunOptions options;
    if (lose > 0) {
      options.retransmit_max = 8;
      options.retransmit_backoff_ms = 0.1;
      options.faults =
          std::make_shared<dc::FaultInjector>(dc::FaultPlan().with_seed(4).lose(lose));
    }
    std::vector<std::vector<int>> got(3);
    dc::run(
        3,
        [&](dc::Comm& comm) {
          const Rank next = (comm.rank() + 1) % 3;
          const Rank prev = (comm.rank() + 2) % 3;
          for (int i = 0; i < 40; ++i) {
            comm.send_value<int>(next, 9, comm.rank() * 100 + i);
            got[static_cast<std::size_t>(comm.rank())].push_back(
                comm.recv_value<int>(prev, 9));
          }
        },
        options);
    return got;
  };
  EXPECT_EQ(collect(0.0), collect(0.2));
}

// ---- Receive window: checksum verified after dequeue, outside the lock ----
//
// These drive the mailboxes directly (no World), so the fault plan's fate of
// every original message can be replayed from a second FaultInjector with
// the exact (dst, src, tag, seq) keys, and every copy on the wire accounted
// for.

namespace {

constexpr int kWindowRanks = 4;
constexpr int kWindowMessages = 24;  // per (src, dst) stream
constexpr dc::Tag kWindowTag = 11;

/// Message `i` of stream src -> dst. Lengths 1..61 bytes cover the CRC's
/// tail loop alone and after several 8-byte steps.
std::vector<std::byte> window_payload(Rank src, Rank dst, int i) {
  std::vector<std::byte> bytes(static_cast<std::size_t>(1 + (i * 7) % 61));
  for (std::size_t b = 0; b < bytes.size(); ++b)
    bytes[b] = static_cast<std::byte>((src * 31 + dst * 17 + i * 13 + static_cast<int>(b)) & 0xff);
  return bytes;
}

dc::FaultPlan window_plan() {
  return dc::FaultPlan().with_seed(21).corrupt(0.3).duplicate(0.5);
}

struct WindowRun {
  std::vector<std::vector<std::vector<std::vector<std::byte>>>> got;  ///< [dst][src][i]
  std::int64_t duplicates_dropped{0};
  std::size_t pending{0};
  std::size_t retained_bytes{0};
  std::vector<std::string> errors;
};

/// Every rank sends kWindowMessages to every other rank, then drains its
/// own mailbox in arrival order with get_any while its peers are still
/// sending, and finally polls each stream once more so a duplicate queued
/// behind the last delivery is dropped rather than left pending.
WindowRun run_window(dc::FaultInjector* injector, int retransmit_max) {
  // A 10 ms backoff keeps every retransmission strictly after the rejected
  // copy's identical twin has been seen, so no NACK is issued twice. The
  // 20 s deadline turns a lost message into a CommTimeout, not a hang.
  std::vector<std::unique_ptr<dc::Mailbox>> boxes;
  for (Rank r = 0; r < kWindowRanks; ++r)
    boxes.push_back(std::make_unique<dc::Mailbox>(nullptr, r, 20.0, injector, retransmit_max, 10.0));
  WindowRun out;
  out.got.assign(kWindowRanks, std::vector<std::vector<std::vector<std::byte>>>(kWindowRanks));
  out.errors.resize(kWindowRanks);
  std::vector<std::thread> threads;
  for (Rank me = 0; me < kWindowRanks; ++me) {
    threads.emplace_back([&, me] {
      try {
        for (int i = 0; i < kWindowMessages; ++i)
          for (Rank dst = 0; dst < kWindowRanks; ++dst)
            if (dst != me) boxes[dst]->put(dc::Message{me, kWindowTag, window_payload(me, dst, i)});
        std::vector<dc::Mailbox::Want> wants;
        for (Rank src = 0; src < kWindowRanks; ++src)
          if (src != me) wants.push_back({src, kWindowTag});
        auto& mine = out.got[static_cast<std::size_t>(me)];
        for (int n = 0; n < (kWindowRanks - 1) * kWindowMessages; ++n) {
          auto [msg, index] = boxes[me]->get_any(wants);
          mine[static_cast<std::size_t>(wants[index].src)].push_back(std::move(msg.payload));
        }
        for (const auto& w : wants)
          if (boxes[me]->try_get(w.src, w.tag)) throw std::logic_error("extra message");
      } catch (const std::exception& e) {
        out.errors[static_cast<std::size_t>(me)] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& box : boxes) {
    out.duplicates_dropped += box->duplicates_dropped();
    out.pending += box->pending();
    out.retained_bytes += box->retained_bytes();
  }
  return out;
}

}  // namespace

TEST(ArqLayer, ReceiveWindowRepairsCorruptHeadsInOrderAndCountsEveryDuplicate) {
  const WindowRun clean = run_window(nullptr, 0);
  dc::FaultInjector injector(window_plan());
  const WindowRun faulty = run_window(&injector, 8);
  for (Rank r = 0; r < kWindowRanks; ++r) {
    EXPECT_EQ(clean.errors[static_cast<std::size_t>(r)], "") << "clean rank " << r;
    EXPECT_EQ(faulty.errors[static_cast<std::size_t>(r)], "") << "faulty rank " << r;
  }

  // Byte for byte and in order: every corrupted original was replaced by
  // its retransmitted clean copy at the same position of its stream, and no
  // later seq overtook it while it was under repair.
  EXPECT_EQ(faulty.got, clean.got);
  for (Rank dst = 0; dst < kWindowRanks; ++dst)
    for (Rank src = 0; src < kWindowRanks; ++src)
      EXPECT_EQ(faulty.got[static_cast<std::size_t>(dst)][static_cast<std::size_t>(src)].size(),
                src == dst ? 0u : static_cast<std::size_t>(kWindowMessages));

  // Replay the fate of every original from an identical injector.
  dc::FaultInjector replica(window_plan());
  std::int64_t corrupted = 0;
  std::int64_t duplicated = 0;
  std::int64_t duplicated_corrupt = 0;
  for (Rank dst = 0; dst < kWindowRanks; ++dst) {
    for (Rank src = 0; src < kWindowRanks; ++src) {
      if (src == dst) continue;
      for (int i = 0; i < kWindowMessages; ++i) {
        const auto fate = replica.message_fate(dst, src, kWindowTag, static_cast<std::uint64_t>(i),
                                               window_payload(src, dst, i).size());
        corrupted += fate.corrupt;
        duplicated += fate.duplicate;
        duplicated_corrupt += fate.duplicate && fate.corrupt;
      }
    }
  }
  ASSERT_GT(corrupted, 0);
  ASSERT_GT(duplicated_corrupt, 0);
  EXPECT_EQ(injector.duplicated.load(), duplicated);
  // Corrupted retransmissions come on top of the corrupted originals.
  EXPECT_GE(injector.corrupted.load(), corrupted);

  // Every injected duplicate is accounted for. A duplicate of a clean
  // original is dropped by sequence number; a duplicate of a corrupted
  // original is the same corrupted bytes (the bit flips before the copy is
  // enqueued), so its checksum rejects it while the first copy's NACK is
  // still in backoff. Nothing is left queued or retained.
  EXPECT_EQ(faulty.duplicates_dropped, duplicated - duplicated_corrupt);
  EXPECT_EQ(faulty.pending, 0u);
  EXPECT_EQ(faulty.retained_bytes, 0u);
  EXPECT_EQ(clean.duplicates_dropped, 0);
}

TEST(ArqLayer, CorruptHeadWithoutArqThrowsNamingItsStream) {
  // ARQ off: the stream delivers clean messages up to the first corrupted
  // one, whose verification throws CorruptMessage naming (src, tag, seq).
  constexpr Rank kSrc = 2;
  constexpr Rank kDst = 0;
  dc::FaultInjector replica(window_plan());
  int first_corrupt = -1;
  for (int i = 0; i < kWindowMessages && first_corrupt < 0; ++i) {
    if (replica.message_fate(kDst, kSrc, kWindowTag, static_cast<std::uint64_t>(i),
                             window_payload(kSrc, kDst, i).size())
            .corrupt)
      first_corrupt = i;
  }
  ASSERT_GT(first_corrupt, 0) << "plan must deliver at least one clean message first";

  dc::FaultInjector injector(window_plan());
  dc::Mailbox box(nullptr, kDst, 0.0, &injector);
  for (int i = 0; i < kWindowMessages; ++i)
    box.put(dc::Message{kSrc, kWindowTag, window_payload(kSrc, kDst, i)});
  for (int i = 0; i < first_corrupt; ++i)
    ASSERT_EQ(box.get(kSrc, kWindowTag).payload, window_payload(kSrc, kDst, i)) << "seq " << i;
  try {
    (void)box.get(kSrc, kWindowTag);
    FAIL() << "expected CorruptMessage at seq " << first_corrupt;
  } catch (const dc::CorruptMessage& e) {
    const std::string want = "(src=" + std::to_string(kSrc) + ", tag=" +
                             std::to_string(kWindowTag) + ", seq=" +
                             std::to_string(first_corrupt) + ",";
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
}

// ---- Rung 2: heartbeat lane (slow-vs-dead verdicts) ------------------------

TEST(HeartbeatLane, SlowWorldGetsExtensionsNotTimeout) {
  // Rank 0 waits for a message that arrives well past its deadline, but the
  // rest of the world keeps beating (rank 1 drip-feeds rank 2). The verdict
  // must be "slow, not dead": extend the deadline and deliver, no throw.
  dc::RunOptions options;
  options.timeout_seconds = 0.1;
  options.metrics = std::make_shared<dlouvain::util::MetricsRegistry>(3);
  dc::run(
      3,
      [](dc::Comm& comm) {
        if (comm.rank() == 0) {
          EXPECT_EQ(comm.recv_value<int>(1, 1), 42);
        } else if (comm.rank() == 1) {
          for (int i = 0; i < 5; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
            comm.send_value<int>(2, 2, i);  // background progress = beats
          }
          comm.send_value<int>(0, 1, 42);  // ~2x the deadline late
        } else {
          for (int i = 0; i < 5; ++i) (void)comm.recv_value<int>(1, 2);
        }
      },
      options);
  using dlouvain::util::Counter;
  EXPECT_GE(options.metrics->total()
                .values[static_cast<std::size_t>(Counter::kHeartbeatExtensions)],
            1);
}

TEST(HeartbeatLane, PermanentDeathYieldsRankDeadVerdict) {
  // A kill() trigger declares the rank dead in the heartbeat lane and throws
  // RankDead -- the typed verdict a recovery driver needs for rung 3. It
  // re-fires on a second attempt (dead hardware stays dead) until retired.
  auto injector = std::make_shared<dc::FaultInjector>(dc::FaultPlan().kill(1, 2));
  dc::RunOptions options;
  options.faults = injector;
  const auto attempt = [&] {
    dc::run(
        2, [](dc::Comm& comm) { comm.fault_point(2, 0); }, options);
  };
  for (int i = 0; i < 2; ++i) {
    try {
      attempt();
      FAIL() << "expected RankDead, attempt " << i;
    } catch (const dc::RankDead& e) {
      EXPECT_EQ(e.rank, 1);
      EXPECT_NE(std::string(e.what()).find("permanent death"), std::string::npos);
    }
  }
  EXPECT_EQ(injector->crashes_fired.load(), 2);
  injector->retire(1);
  attempt();  // the shrink retired the trigger: survivors proceed
  EXPECT_EQ(injector->crashes_fired.load(), 2);
}

TEST(HeartbeatLane, BlockedPeerGetsRankDeadNotTimeout) {
  // Rank 1 dies permanently while rank 0 sits in a deadline-bounded receive:
  // the expiry must convert into RankDead (naming the corpse), not a generic
  // CommTimeout.
  dc::RunOptions options;
  options.timeout_seconds = 0.15;
  options.faults = std::make_shared<dc::FaultInjector>(dc::FaultPlan().kill(1, 0));
  try {
    dc::run(
        2,
        [](dc::Comm& comm) {
          if (comm.rank() == 1) comm.fault_point(0, 0);
          (void)comm.recv_value<int>(1 - comm.rank(), 3);
        },
        options);
    FAIL() << "expected RankDead";
  } catch (const dc::RankDead& e) {
    EXPECT_EQ(e.rank, 1);
  }
}

TEST(FaultLayer, TimeoutReportNamesEveryBlockedRankWithHandlesInFlight) {
  // Every rank has posted a nonblocking ghost-exchange-style receive
  // (handle in flight) for a message that never comes, while one real message lands at each rank and is left undrained.
  // The whole-world CommTimeout diagnostic must name every blocked rank and
  // the pending depth of the undrained streams.
  dc::RunOptions options;
  options.timeout_seconds = 0.25;
  try {
    dc::run(
        3,
        [](dc::Comm& comm) {
          comm.send_value<int>((comm.rank() + 1) % 3, 7, comm.rank());
          auto pending = comm.irecv((comm.rank() + 2) % 3, 9);  // never sent
          pending.wait();  // blocks with the handle in flight
        },
        options);
    FAIL() << "expected CommTimeout";
  } catch (const dc::CommTimeout& e) {
    // Every rank is named; the reporter's own line carries both halves of
    // "who is stuck on whom": the blocked (src, tag) want and the x1 depth
    // of the stream that landed and was never drained. (Tags are wire tags
    // -- context-packed -- so only the structure is asserted, not values.)
    const std::string what = e.what();
    for (const char* frag :
         {"rank 0", "rank 1", "rank 2", "blocked on (src=", "]x1"}) {
      EXPECT_NE(what.find(frag), std::string::npos)
          << "missing '" << frag << "' in:\n" << what;
    }
  }
}
