// dlouvain: the end-to-end command-line front door to the library.
//
// Modes (pick exactly one input):
//   --input <file.dlel>      run on a binary edge-list file
//   --generate <name>        run on a named surrogate / generator
//
// and optionally:
//   --variant baseline|tc|et|etc   heuristic variant (default baseline)
//   --alpha <x>                    ET aggressiveness (default 0.25)
//   --ranks <p>                    in-process ranks (default 4)
//   --threads <t>                  compute threads per rank (default 1)
//   --coloring                     colour-constrained sweeps (Section VI)
//   --output <file>                write "vertex community" lines
//   --stats                        print degree/component statistics first
//
// fault tolerance (see docs/FAULT_TOLERANCE.md):
//   --comm-timeout <s>             deadline for blocked receives (deadlock
//                                  diagnostic instead of a hang)
//   --checkpoint-dir <dir>         write phase-boundary checkpoints
//   --checkpoint-every <k>         checkpoint cadence in phases (default 1)
//   --resume                       resume from the newest checkpoint in
//                                  --checkpoint-dir
//   --max-restarts <n>             restart attempts on comm failure (default 3)
//   --crash r:ph[:it][,...]        inject transient rank crashes (fire once)
//   --kill r:ph[:it][,...]         inject permanent rank deaths (re-fire
//                                  every attempt until the rank is shrunk out)
//   --lose <p>                     drop each message with probability p
//   --corrupt <p>                  flip a payload bit with probability p
//   --duplicate <p>                re-deliver each message with probability p
//   --delay <p> [--delay-ms <ms>]  hold delivery back with probability p
//   --fault-seed <n>               seed for the deterministic fate draws
//   --retransmit <n>               link-level ARQ: retransmit lost/corrupt
//                                  messages up to n times before escalating
//   --retransmit-backoff-ms <x>    base backoff between retransmits
//   --shrink-on-rank-loss          on a rank-dead verdict, resume from the
//                                  newest checkpoint with the survivors
//
// observability (see docs/OBSERVABILITY.md):
//   --trace-out <file>             write a Chrome trace_event JSON file
//                                  (open in Perfetto / chrome://tracing)
//   --metrics-out <file>           write the machine-readable run manifest
//
// Examples:
//   dlouvain_cli --generate soc-friendster --variant etc --alpha 0.25
//   dlouvain_cli --input graph.dlel --ranks 8 --threads 4 --output communities.txt
//   dlouvain_cli --generate lfr-b --checkpoint-dir ckpt --crash 1:2 --max-restarts 3
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "comm/world.hpp"
#include "core/components.hpp"
#include "dlouvain.hpp"
#include "gen/surrogate.hpp"
#include "graph/binary_io.hpp"
#include "graph/stats.hpp"
#include "quality/summary.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

/// Parse "r:ph[:it],r:ph[:it],..." crash entries into `plan` -- transient
/// crash() triggers for --crash, permanent kill() triggers for --kill.
void parse_crashes(dlouvain::comm::FaultPlan& plan, const std::string& spec,
                   bool permanent) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string entry =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    int fields[3] = {0, 0, 0};
    int count = 0;
    std::size_t field_pos = 0;
    while (field_pos <= entry.size() && count < 3) {
      const std::size_t colon = entry.find(':', field_pos);
      const std::string token = entry.substr(
          field_pos, colon == std::string::npos ? std::string::npos : colon - field_pos);
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), fields[count]);
      if (ec != std::errc{} || ptr != token.data() + token.size())
        throw std::runtime_error("bad --crash entry '" + entry +
                                 "' (expected rank:phase[:iteration])");
      ++count;
      if (colon == std::string::npos) break;
      field_pos = colon + 1;
    }
    if (count < 2)
      throw std::runtime_error("bad --crash entry '" + entry +
                               "' (expected rank:phase[:iteration])");
    if (permanent) {
      plan.kill(fields[0], fields[1], fields[2]);
    } else {
      plan.crash(fields[0], fields[1], fields[2]);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
}

int run_cli(int argc, char** argv) {
  using namespace dlouvain;

  util::Cli cli(argc, argv);
  const auto input = cli.get_string("input", "", "binary edge-list (.dlel) path");
  const auto generate = cli.get_string("generate", "", "surrogate graph name");
  const double scale = cli.get_double("scale", 1.0, "generator size multiplier");
  const auto variant_name = cli.get_string("variant", "baseline", "baseline|tc|et|etc");
  const double alpha = cli.get_double("alpha", 0.25, "ET aggressiveness");
  const int ranks = static_cast<int>(cli.get_int("ranks", 4, "in-process ranks"));
  const int threads =
      static_cast<int>(cli.get_int("threads", 1, "compute threads per rank (<=0 = auto)"));
  const bool coloring = cli.get_flag("coloring", false, "colour-constrained sweeps");
  const auto output = cli.get_string("output", "", "write 'vertex community' lines");
  const bool stats = cli.get_flag("stats", false, "print graph statistics first");
  const int summary = static_cast<int>(
      cli.get_int("summary", 0, "print the N largest communities' summaries"));
  const double comm_timeout =
      cli.get_double("comm-timeout", 0, "deadline (s) for blocked receives");
  const auto checkpoint_dir =
      cli.get_string("checkpoint-dir", "", "phase-boundary checkpoint directory");
  const int checkpoint_every = static_cast<int>(
      cli.get_int("checkpoint-every", 1, "checkpoint cadence in phases"));
  const bool resume =
      cli.get_flag("resume", false, "resume from the newest checkpoint");
  const int max_restarts = static_cast<int>(
      cli.get_int("max-restarts", 3, "restart attempts on comm failure"));
  const auto crash_spec =
      cli.get_string("crash", "", "inject transient rank crashes: r:ph[:it][,...]");
  const auto kill_spec =
      cli.get_string("kill", "", "inject permanent rank deaths: r:ph[:it][,...]");
  const double lose_p =
      cli.get_double("lose", 0, "per-message drop probability");
  const double corrupt_p =
      cli.get_double("corrupt", 0, "per-message payload-corruption probability");
  const double duplicate_p =
      cli.get_double("duplicate", 0, "per-message duplication probability");
  const double delay_p =
      cli.get_double("delay", 0, "per-message delivery-delay probability");
  const double delay_ms =
      cli.get_double("delay-ms", 2.0, "visibility delay for delayed messages");
  const auto fault_seed = static_cast<std::uint64_t>(
      cli.get_int("fault-seed", 1, "seed for deterministic fault fates"));
  const int retransmit = static_cast<int>(cli.get_int(
      "retransmit", 0, "ARQ retransmit budget per message (0 = off)"));
  const double retransmit_backoff_ms = cli.get_double(
      "retransmit-backoff-ms", 1.0, "base backoff between retransmits");
  const bool shrink_on_rank_loss = cli.get_flag(
      "shrink-on-rank-loss", false, "resume with survivors on rank death");
  const auto trace_out =
      cli.get_string("trace-out", "", "write Chrome trace_event JSON here");
  const auto metrics_out =
      cli.get_string("metrics-out", "", "write the run manifest JSON here");
  if (!cli.finish()) return 1;

  if (input.empty() == generate.empty()) {
    std::cerr << "dlouvain: pass exactly one of --input or --generate\n";
    return 1;
  }
  if (!input.empty() && !std::filesystem::exists(input)) {
    std::cerr << "dlouvain: input file '" << input << "' does not exist\n";
    return 1;
  }
  if (resume && checkpoint_dir.empty()) {
    std::cerr << "dlouvain: --resume requires --checkpoint-dir\n";
    return 1;
  }

  const auto variant = core::parse_variant(variant_name);
  if (!variant) {
    std::cerr << "dlouvain: unknown --variant '" << variant_name
              << "' (expected baseline|tc|et|etc)\n";
    return 1;
  }

  // Fail on an unwritable output path BEFORE spending minutes computing.
  for (const auto& path : {output, trace_out, metrics_out}) {
    if (path.empty()) continue;
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
      std::cerr << "dlouvain: cannot open " << path << " for writing\n";
      return 1;
    }
  }

  util::WallTimer timer;

  // Materialize the graph exactly ONCE, as a replicated CSR -- the CLI's
  // operating envelope is graphs that fit on one node, so every downstream
  // consumer (the run itself, --stats, --summary) reuses this one copy
  // instead of re-reading or re-generating.
  graph::Csr csr;
  if (!input.empty()) {
    if (!graph::verify_binary_crc(input)) {
      std::cerr << "dlouvain: " << input << " failed its CRC32 check (corrupt file)\n";
      return 1;
    }
    const auto header = graph::read_binary_header(input);
    csr = graph::from_edges(header.num_vertices,
                            graph::read_binary_slice(input, 0, header.num_edges));
  } else {
    const auto generated = gen::surrogate(generate, scale);
    csr = graph::from_edges(generated.num_vertices, generated.edges);
  }

  core::DistComponentsResult components;
  if (stats) {
    comm::run(ranks, [&](comm::Comm& comm) {
      auto dist = graph::DistGraph::from_replicated(comm, csr);
      auto comp = core::dist_connected_components(comm, dist);
      if (comm.is_root()) components = std::move(comp);
    });
  }

  auto plan = Plan::distributed(ranks)
                  .threads(threads)
                  .variant(*variant)
                  .alpha(alpha)
                  .coloring(coloring)
                  .comm_timeout(comm_timeout)
                  .max_restarts(max_restarts)
                  .retransmit(retransmit, retransmit_backoff_ms)
                  .shrink_on_rank_loss(shrink_on_rank_loss);
  if (!checkpoint_dir.empty()) plan.checkpointing(checkpoint_dir, checkpoint_every);
  if (resume) plan.resume(checkpoint_dir);
  comm::FaultPlan faults;
  faults.with_seed(fault_seed);
  if (!crash_spec.empty()) parse_crashes(faults, crash_spec, /*permanent=*/false);
  if (!kill_spec.empty()) parse_crashes(faults, kill_spec, /*permanent=*/true);
  if (lose_p > 0) faults.lose(lose_p);
  if (corrupt_p > 0) faults.corrupt(corrupt_p);
  if (duplicate_p > 0) faults.duplicate(duplicate_p);
  if (delay_p > 0) faults.delay(delay_p, delay_ms);
  if (!faults.crashes.empty() || faults.injects_messages())
    plan.inject_faults(faults);
  if (!trace_out.empty()) plan.trace(trace_out);
  if (!metrics_out.empty()) plan.metrics(metrics_out);
  const auto result = plan.run(csr);

  std::cout << "graph:        " << csr.num_vertices() << " vertices, "
            << csr.num_arcs() / 2 << " edges\n";
  if (stats) {
    std::cout << "components:   " << components.count << " (in "
              << components.rounds << " propagation rounds)\n";
  }
  std::cout << "variant:      " << core::variant_label(*variant, alpha)
            << (coloring ? " + coloring" : "") << '\n'
            << "ranks:        " << ranks << " x " << threads << " thread(s)\n"
            << "communities:  " << result.num_communities << '\n'
            << "modularity:   " << result.modularity << '\n'
            << "phases:       " << result.phases << " (" << result.total_iterations
            << " iterations)\n"
            << "wall time:    " << util::TextTable::fmt(timer.seconds(), 3) << " s\n"
            << "traffic:      " << result.distributed->messages << " messages, "
            << result.distributed->bytes << " bytes\n";
  if (result.recovery.attempts > 1 || result.recovery.resumed_from_phase >= 0) {
    std::cout << "recovery:     " << result.recovery.attempts << " attempt(s), "
              << result.recovery.phases_replayed << " phase(s) replayed";
    if (result.recovery.resumed_from_phase >= 0)
      std::cout << ", resumed from phase " << result.recovery.resumed_from_phase;
    std::cout << '\n';
  }
  if (result.recovery.retransmits > 0 || result.recovery.shrinks > 0) {
    std::cout << "ladder:       " << result.recovery.retransmits
              << " retransmit(s) (" << result.recovery.nacks << " NACKs, "
              << result.recovery.escalations << " escalations)";
    if (result.recovery.shrinks > 0)
      std::cout << ", " << result.recovery.shrinks << " shrink(s) to "
                << result.recovery.final_ranks << " rank(s)";
    std::cout << '\n';
  }

  if (summary > 0) {
    const auto summaries = quality::summarize_communities(csr, result.community);
    util::TextTable table({"community", "size", "internal w", "boundary w",
                           "conductance"});
    for (int i = 0; i < summary && i < static_cast<int>(summaries.size()); ++i) {
      const auto& s = summaries[static_cast<std::size_t>(i)];
      table.add_row({util::TextTable::fmt(s.id), util::TextTable::fmt(s.size),
                     util::TextTable::fmt(s.internal_weight, 1),
                     util::TextTable::fmt(s.boundary_weight, 1),
                     util::TextTable::fmt(s.conductance, 4)});
    }
    std::cout << '\n';
    table.print(std::cout);
    std::cout << "coverage: "
              << util::TextTable::fmt(quality::coverage(csr, result.community), 4)
              << '\n';
  }

  if (!output.empty()) {
    std::ofstream out(output, std::ios::trunc);
    if (!out) {
      std::cerr << "dlouvain: cannot open " << output << " for writing\n";
      return 1;
    }
    for (std::size_t v = 0; v < result.community.size(); ++v)
      out << v << ' ' << result.community[v] << '\n';
    std::cout << "wrote " << output << '\n';
  }
  if (!trace_out.empty()) std::cout << "wrote trace " << trace_out << '\n';
  if (!metrics_out.empty()) std::cout << "wrote manifest " << metrics_out << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dlouvain: " << e.what() << '\n';
    return 1;
  }
}
