// Micro-benchmarks for the message-passing substrate: latency/throughput of
// the collectives the Louvain iteration leans on (all-reduce dominates the
// paper's V-A profile at 40%), plus the transport's per-message costs: the
// CRC32 kernel alone (BM_Crc32, bytes/s) and a 64 KiB two-rank round trip
// through the mailboxes, which seals and verifies every payload
// (BM_MailboxPutGet).
//
// Doubles as the PR7 ARQ-overhead emitter (ISSUE 7 acceptance run): with any
// --pr7_* flag the binary skips Google Benchmark and instead times a fixed
// deterministic ring stream four ways -- ARQ off on a clean wire (baseline),
// ARQ on clean, ARQ on with 0.1% message loss, ARQ on with 0.1% payload
// corruption -- and writes the BENCH_PR7.json trail:
//
//   micro_comm --pr7_json=BENCH_PR7.json --pr7_scale=12 --pr7_ranks=4
//
// tools/check_bench_regression.py --emit pr7 drives this binary and asserts
// the structural contracts on the emitted "arq" section: all four runs
// produce identical bits, every injected fault is repaired by a
// retransmission, and nothing escalates.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "core/metrics.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

namespace {

using dlouvain::comm::Comm;
using dlouvain::comm::run;

void BM_Barrier(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const int rounds_per_run = 64;
  long total = 0;
  for (auto _ : state) {
    run(p, [&](Comm& comm) {
      for (int i = 0; i < rounds_per_run; ++i) comm.barrier();
    });
    total += rounds_per_run;
  }
  state.SetItemsProcessed(total);
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_AllreduceSum(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const int rounds_per_run = 64;
  long total = 0;
  for (auto _ : state) {
    run(p, [&](Comm& comm) {
      double acc = comm.rank();
      for (int i = 0; i < rounds_per_run; ++i)
        acc = comm.allreduce_sum(acc * 0.5);
      benchmark::DoNotOptimize(acc);
    });
    total += rounds_per_run;
  }
  state.SetItemsProcessed(total);
}
BENCHMARK(BM_AllreduceSum)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_Alltoallv(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const std::size_t payload = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    run(p, [&](Comm& comm) {
      std::vector<std::vector<std::int64_t>> outbox(static_cast<std::size_t>(p));
      for (auto& box : outbox) box.assign(payload, comm.rank());
      auto inbox = comm.alltoallv<std::int64_t>(std::move(outbox));
      benchmark::DoNotOptimize(inbox);
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * p * p *
                          static_cast<std::int64_t>(payload) * 8);
}
BENCHMARK(BM_Alltoallv)->Args({4, 64})->Args({4, 4096})->Args({8, 64})->Args({8, 4096});

void BM_PointToPointPingPong(benchmark::State& state) {
  const int rounds_per_run = 256;
  for (auto _ : state) {
    run(2, [&](Comm& comm) {
      for (int i = 0; i < rounds_per_run; ++i) {
        if (comm.rank() == 0) {
          comm.send_value<int>(1, 0, i);
          benchmark::DoNotOptimize(comm.recv_value<int>(1, 1));
        } else {
          benchmark::DoNotOptimize(comm.recv_value<int>(0, 0));
          comm.send_value<int>(0, 1, i);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds_per_run);
}
BENCHMARK(BM_PointToPointPingPong);

void BM_Crc32(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> buf(size);
  for (std::size_t i = 0; i < size; ++i) buf[i] = static_cast<std::byte>(i * 131 + 7);
  for (auto _ : state) benchmark::DoNotOptimize(dlouvain::util::crc32(buf));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(65536)->Arg(4194304);

void BM_MailboxPutGet(benchmark::State& state) {
  // 64 KiB ping-pong between two ranks: each leg is one put (seal, enqueue)
  // and one get (dequeue, verify), so this is the per-message transport
  // cost at a ghost-exchange-sized payload.
  constexpr std::size_t kWords = (64 << 10) / sizeof(std::int64_t);
  const int rounds_per_run = 64;
  for (auto _ : state) {
    run(2, [&](Comm& comm) {
      std::vector<std::int64_t> buf(kWords, comm.rank());
      for (int i = 0; i < rounds_per_run; ++i) {
        if (comm.rank() == 0) {
          comm.send<std::int64_t>(1, 0, buf);
          buf = comm.recv<std::int64_t>(1, 1);
        } else {
          buf = comm.recv<std::int64_t>(0, 0);
          comm.send<std::int64_t>(0, 1, buf);
        }
      }
      benchmark::DoNotOptimize(buf);
    });
  }
  state.SetBytesProcessed(state.iterations() * rounds_per_run * 2 *
                          static_cast<std::int64_t>(kWords * sizeof(std::int64_t)));
}
BENCHMARK(BM_MailboxPutGet)->UseRealTime();

// --- PR7 trail: rung-1 ARQ overhead on a deterministic ring stream ---

namespace dc = dlouvain::comm;
namespace du = dlouvain::util;

struct Pr7Options {
  std::string json_path;
  int ranks{4};
  int messages{2048};    ///< per rank (one ring stream each)
  int payload_words{64}; ///< std::int64_t words per message
  int reps{3};           ///< best-of wall time per scenario
  int retransmit_max{8};
  double backoff_ms{0.2};
  double loss_rate{0.001};
  double corrupt_rate{0.001};
  std::uint64_t seed{1};
};

struct Pr7Scenario {
  double seconds{0};
  std::uint64_t checksum{0};
  std::int64_t nacks{0};
  std::int64_t retransmits{0};
  std::int64_t escalations{0};
  std::int64_t backoff_ms{0};
  std::int64_t injected_losses{0};
  std::int64_t injected_corruptions{0};
};

/// One scenario: every rank streams `messages` payloads around the ring
/// (send to rank+1, receive from rank-1, accumulate an order-sensitive hash
/// of the received words). Wall time is best-of-reps; the checksum and the
/// ladder counters are identical across reps because fault fates are a pure
/// function of (seed, communication pattern), so the last rep's values stand
/// for all of them.
Pr7Scenario run_pr7_scenario(const Pr7Options& opt, bool arq,
                             const dc::FaultPlan* faults) {
  Pr7Scenario out;
  for (int rep = 0; rep < opt.reps; ++rep) {
    dc::RunOptions options;
    options.timeout_seconds = 120;  // a wedged scenario must fail, not hang
    if (arq) {
      options.retransmit_max = opt.retransmit_max;
      options.retransmit_backoff_ms = opt.backoff_ms;
    }
    std::shared_ptr<dc::FaultInjector> injector;
    if (faults != nullptr) {
      injector = std::make_shared<dc::FaultInjector>(*faults);
      options.faults = injector;
    }
    auto metrics = std::make_shared<du::MetricsRegistry>(opt.ranks);
    options.metrics = metrics;

    std::vector<std::uint64_t> sums(static_cast<std::size_t>(opt.ranks), 0);
    const du::WallTimer timer;
    run(
        opt.ranks,
        [&](Comm& comm) {
          const int p = comm.size();
          const int next = (comm.rank() + 1) % p;
          const int prev = (comm.rank() + p - 1) % p;
          std::vector<std::int64_t> payload(
              static_cast<std::size_t>(opt.payload_words));
          std::uint64_t acc = 0;
          for (int i = 0; i < opt.messages; ++i) {
            for (int w = 0; w < opt.payload_words; ++w) {
              payload[static_cast<std::size_t>(w)] =
                  (static_cast<std::int64_t>(comm.rank()) << 40) ^
                  (static_cast<std::int64_t>(i) << 16) ^ w;
            }
            comm.send(next, /*tag=*/1, payload);
            const auto in = comm.recv<std::int64_t>(prev, /*tag=*/1);
            for (const auto v : in)
              acc = acc * 1099511628211ULL + static_cast<std::uint64_t>(v);
          }
          sums[static_cast<std::size_t>(comm.rank())] = acc;
        },
        options);
    const double s = timer.seconds();
    if (rep == 0 || s < out.seconds) out.seconds = s;

    std::uint64_t checksum = 0;
    for (const auto v : sums) checksum = checksum * 1099511628211ULL + v;
    out.checksum = checksum;
    const auto total = metrics->total();
    out.nacks = total[du::Counter::kArqNacks];
    out.retransmits = total[du::Counter::kArqRetransmits];
    out.escalations = total[du::Counter::kArqEscalations];
    out.backoff_ms = total[du::Counter::kArqBackoffMs];
    if (injector) {
      out.injected_losses = injector->lost.load();
      out.injected_corruptions = injector->corrupted.load();
    }
  }
  return out;
}

int run_pr7(const Pr7Options& opt) {
  using dlouvain::core::json_number;
  std::cout << "== micro_comm: rung-1 ARQ overhead ==\n"
            << "stream:  " << opt.ranks << " ranks x " << opt.messages
            << " messages x " << opt.payload_words << " words (best of "
            << opt.reps << ")\n"
            << "budget:  retransmit_max " << opt.retransmit_max << ", backoff "
            << opt.backoff_ms << " ms\n"
            << "faults:  loss " << opt.loss_rate << ", corruption "
            << opt.corrupt_rate << " (seed " << opt.seed << ")\n\n";

  const auto baseline = run_pr7_scenario(opt, /*arq=*/false, nullptr);
  const auto clean = run_pr7_scenario(opt, /*arq=*/true, nullptr);
  dc::FaultPlan loss_plan;
  loss_plan.with_seed(opt.seed).lose(opt.loss_rate);
  const auto loss = run_pr7_scenario(opt, /*arq=*/true, &loss_plan);
  dc::FaultPlan corrupt_plan;
  corrupt_plan.with_seed(opt.seed).corrupt(opt.corrupt_rate);
  const auto corrupt = run_pr7_scenario(opt, /*arq=*/true, &corrupt_plan);

  const bool identical = clean.checksum == baseline.checksum &&
                         loss.checksum == baseline.checksum &&
                         corrupt.checksum == baseline.checksum;
  const auto overhead = [&](double s) {
    return baseline.seconds > 0 ? s / baseline.seconds - 1.0 : 0.0;
  };
  const std::int64_t escalations = loss.escalations + corrupt.escalations;

  std::cout << "arq off, clean wire:  " << baseline.seconds << " s (baseline)\n"
            << "arq on,  clean wire:  " << clean.seconds << " s ("
            << 100.0 * overhead(clean.seconds) << "% overhead)\n"
            << "arq on,  " << 100.0 * opt.loss_rate
            << "% loss:  " << loss.seconds << " s ("
            << 100.0 * overhead(loss.seconds) << "% overhead, "
            << loss.injected_losses << " drops, " << loss.retransmits
            << " retransmits)\n"
            << "arq on,  " << 100.0 * opt.corrupt_rate
            << "% corruption: " << corrupt.seconds << " s ("
            << 100.0 * overhead(corrupt.seconds) << "% overhead, "
            << corrupt.injected_corruptions << " corruptions, "
            << corrupt.retransmits << " retransmits)\n"
            << "identical results:    " << (identical ? "yes" : "NO")
            << ", escalations: " << escalations << '\n';

  if (!opt.json_path.empty()) {
    std::string out = "{\"schema\":\"dlouvain-bench/pr7\"";
    out += ",\"arq\":{\"ranks\":" + std::to_string(opt.ranks);
    out += ",\"messages_per_rank\":" + std::to_string(opt.messages);
    out += ",\"payload_words\":" + std::to_string(opt.payload_words);
    out += ",\"reps\":" + std::to_string(opt.reps);
    out += ",\"retransmit_max\":" + std::to_string(opt.retransmit_max);
    out += ",\"backoff_ms\":" + json_number(opt.backoff_ms);
    out += ",\"loss_rate\":" + json_number(opt.loss_rate);
    out += ",\"corrupt_rate\":" + json_number(opt.corrupt_rate);
    out += ",\"seed\":" + std::to_string(opt.seed);
    out += ",\"baseline_seconds\":" + json_number(baseline.seconds);
    out += ",\"clean_seconds\":" + json_number(clean.seconds);
    out += ",\"loss_seconds\":" + json_number(loss.seconds);
    out += ",\"corrupt_seconds\":" + json_number(corrupt.seconds);
    out += ",\"overhead_clean\":" + json_number(overhead(clean.seconds));
    out += ",\"overhead_loss\":" + json_number(overhead(loss.seconds));
    out += ",\"overhead_corrupt\":" + json_number(overhead(corrupt.seconds));
    out += ",\"injected_losses\":" + std::to_string(loss.injected_losses);
    out += ",\"injected_corruptions\":" +
           std::to_string(corrupt.injected_corruptions);
    out += ",\"nacks_loss\":" + std::to_string(loss.nacks);
    out += ",\"retransmits_loss\":" + std::to_string(loss.retransmits);
    out += ",\"nacks_corrupt\":" + std::to_string(corrupt.nacks);
    out += ",\"retransmits_corrupt\":" + std::to_string(corrupt.retransmits);
    out += ",\"backoff_ms_loss\":" + std::to_string(loss.backoff_ms);
    out += ",\"escalations\":" + std::to_string(escalations);
    out += std::string(",\"identical\":") + (identical ? "true" : "false");
    out += "}}";
    std::ofstream f(opt.json_path, std::ios::trunc);
    if (!f) {
      std::cerr << "micro_comm: cannot open " << opt.json_path << '\n';
      return 1;
    }
    f << out << '\n';
    std::cout << "\nwrote " << opt.json_path << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Pr7Options opt;
  bool pr7 = false;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto grab = [&](const char* prefix, auto parse) {
      if (arg.rfind(prefix, 0) != 0) return false;
      parse(arg.substr(std::strlen(prefix)));
      return true;
    };
    const bool known =
        grab("--pr7_json=", [&](const std::string& v) { opt.json_path = v; }) ||
        // The driver's --scale is log2 of the TOTAL per-rank stream volume;
        // scale 12 = 2048 messages per rank, matching the other trails' knob.
        grab("--pr7_scale=",
             [&](const std::string& v) {
               opt.messages = 1 << std::max(1, std::stoi(v) - 1);
             }) ||
        grab("--pr7_reps=", [&](const std::string& v) { opt.reps = std::stoi(v); }) ||
        grab("--pr7_ranks=", [&](const std::string& v) { opt.ranks = std::stoi(v); }) ||
        grab("--pr7_messages=",
             [&](const std::string& v) { opt.messages = std::stoi(v); }) ||
        grab("--pr7_payload_words=",
             [&](const std::string& v) { opt.payload_words = std::stoi(v); }) ||
        grab("--pr7_retransmit=",
             [&](const std::string& v) { opt.retransmit_max = std::stoi(v); }) ||
        grab("--pr7_backoff_ms=",
             [&](const std::string& v) { opt.backoff_ms = std::stod(v); }) ||
        grab("--pr7_loss=",
             [&](const std::string& v) { opt.loss_rate = std::stod(v); }) ||
        grab("--pr7_corrupt=",
             [&](const std::string& v) { opt.corrupt_rate = std::stod(v); }) ||
        grab("--pr7_seed=", [&](const std::string& v) {
          opt.seed = std::stoull(v);
        });
    if (known) {
      pr7 = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (pr7) {
    if (passthrough.size() > 1) {
      std::cerr << "micro_comm: cannot mix --pr7_* with benchmark flags ("
                << passthrough[1] << ")\n";
      return 2;
    }
    return run_pr7(opt);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
